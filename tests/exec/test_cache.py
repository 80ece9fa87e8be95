"""Tests for the content-addressed result cache."""

import json

from repro.constants import ConstantsProfile
from repro.core import CDMISProtocol
from repro.exec.cache import (
    ResultCache,
    graph_fingerprint,
    protocol_fingerprint,
    trial_key,
)
from repro.graphs import gnp_random_graph, path_graph


def make_key(**overrides):
    params = dict(
        protocol=CDMISProtocol(constants=ConstantsProfile.fast()),
        model_name="cd",
        graph_spec="workload:gnp/n=64",
        seed=3,
        max_rounds=None,
    )
    params.update(overrides)
    return trial_key(**params)


class TestTrialKey:
    def test_stable(self):
        assert make_key() == make_key()

    def test_seed_changes_key(self):
        assert make_key(seed=4) != make_key()

    def test_graph_spec_changes_key(self):
        assert make_key(graph_spec="workload:udg/n=64") != make_key()

    def test_model_changes_key(self):
        assert make_key(model_name="no-cd") != make_key()

    def test_constants_profile_changes_key(self):
        other = CDMISProtocol(constants=ConstantsProfile.practical())
        assert make_key(protocol=other) != make_key()

    def test_max_rounds_changes_key(self):
        assert make_key(max_rounds=10_000) != make_key()


class TestFingerprints:
    def test_protocol_fingerprint_captures_constants(self):
        fast = protocol_fingerprint(CDMISProtocol(constants=ConstantsProfile.fast()))
        practical = protocol_fingerprint(
            CDMISProtocol(constants=ConstantsProfile.practical())
        )
        assert fast["type"] == practical["type"] == "CDMISProtocol"
        assert fast["config"] != practical["config"]

    def test_graph_fingerprint_distinguishes_topologies(self):
        a = graph_fingerprint(gnp_random_graph(16, 0.2, seed=1))
        b = graph_fingerprint(gnp_random_graph(16, 0.2, seed=2))
        assert a != b
        assert graph_fingerprint(path_graph(8)) == graph_fingerprint(path_graph(8))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = make_key()
        assert cache.get(key) is None
        cache.put(key, {"seed": 3, "valid": True})
        assert cache.get(key) == {"seed": 3, "valid": True}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_persists_across_instances(self, tmp_path):
        root = tmp_path / "cache"
        ResultCache(root).put("ab" + "0" * 62, {"x": 1})
        fresh = ResultCache(root)
        assert fresh.get("ab" + "0" * 62) == {"x": 1}
        assert len(fresh) == 1

    def test_sharded_jsonl_layout(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.put("cd" + "0" * 62, {"x": 2})
        assert (root / "ab.jsonl").exists()
        assert (root / "cd.jsonl").exists()
        line = (root / "ab.jsonl").read_text().strip()
        assert json.loads(line)["record"] == {"x": 1}

    def test_torn_write_is_skipped(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        cache.put("ab" + "0" * 62, {"x": 1})
        with open(root / "ab.jsonl", "a") as handle:
            handle.write('{"key": "ab11", "rec')  # simulated crash mid-line
        fresh = ResultCache(root)
        assert fresh.get("ab" + "0" * 62) == {"x": 1}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.clear()
        assert cache.get("ab" + "0" * 62) is None
        assert len(cache) == 0

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.get("ab" + "0" * 62)
        cache.get("cd" + "0" * 62)
        assert cache.stats.hit_rate == 0.5
