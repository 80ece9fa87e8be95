"""Large-n sweep cells: cache identity and exponent-band ingestion.

The million-node work extends the full-tier claims sweeps by a decade
of n and routes those cells through the batch engine's residual
kernel.  Three contracts keep that extension honest:

* existing cells keep their exact trial keys (pinned goldens below), so
  every previously-cached trial stays valid;
* a large-n cell is bit-for-bit reproducible *through the cache* — a
  re-run is served entirely from cached records and produces identical
  summaries;
* the exponent-band fits accept the new sizes alongside the old ones
  without the extra decade flipping a verdict that the old sizes
  already decided.
"""

import pytest

pytest.importorskip("numpy")

from repro.analysis.runner import run_trials
from repro.claims.registry import registered_claims
from repro.claims.spec import EvalContext, ExponentBand, Measurements
from repro.constants import ConstantsProfile
from repro.core.cd_mis import CDMISProtocol
from repro.exec.cache import ResultCache, trial_key
from repro.graphs import gnp_random_graph
from repro.radio.models import CD

PRACTICAL = CDMISProtocol(constants=ConstantsProfile.practical())

# Golden keys computed before the large-n work landed: the sparsify
# parameter must join the key payload ONLY when set, or every cache in
# the wild silently invalidates.
GOLDEN_SCALAR = (
    "34869c0a5641c0a03340bce678782f3350921bb6dd250f2d951031e96e601668"
)
GOLDEN_BATCH = (
    "c8f970f8bf97b0f0efac82ebed319c096f24f6210c8fc0aba2729431eac75de4"
)


def test_existing_trial_keys_unchanged():
    assert (
        trial_key(
            protocol=PRACTICAL,
            model_name="cd",
            graph_spec="claims:gnp/n=64",
            seed=123,
        )
        == GOLDEN_SCALAR
    )
    assert (
        trial_key(
            protocol=PRACTICAL,
            model_name="cd",
            graph_spec="claims:gnp/n=64",
            seed=123,
            engine="batch",
        )
        == GOLDEN_BATCH
    )


def test_sparsify_tags_a_distinct_key():
    kwargs = dict(
        protocol=PRACTICAL,
        model_name="cd",
        graph_spec="claims:gnp/n=64",
        seed=123,
        engine="batch",
    )
    sparsified = trial_key(sparsify=8, **kwargs)
    assert sparsified not in (GOLDEN_SCALAR, GOLDEN_BATCH)
    assert sparsified != trial_key(sparsify=16, **kwargs)
    assert sparsified == trial_key(sparsify=8, **kwargs)  # deterministic


# The sparsify=8 key of the GOLDEN_BATCH trial as minted while a
# sparsified window could be cut from a residual row, which made the
# cached value depend on the other seeds in its battery.
RESIDUAL_WINDOW_SPARSIFIED = (
    "98dfb1bcafb2f1bb8810facb631fd3d5b8330e45bde928f608cec002afa51c21"
)


def test_sparsified_keys_moved_off_residual_window_values():
    key = trial_key(
        protocol=PRACTICAL,
        model_name="cd",
        graph_spec="claims:gnp/n=64",
        seed=123,
        engine="batch",
        sparsify=8,
    )
    assert key != RESIDUAL_WINDOW_SPARSIFIED


def test_large_n_cell_is_bit_identical_through_the_cache(tmp_path):
    """One auto-batched large-n cell, run twice against one cache.

    The second run must not recompute anything (hits == trials) and
    must reproduce every outcome exactly — the property that lets an
    interrupted large-n campaign resume for free.
    """
    protocol = CDMISProtocol(constants=ConstantsProfile.fast())
    n = 4096  # >= runner._LARGE_N_AUTO: auto-routes to the batch engine
    seeds = [101, 202, 303]
    cache = ResultCache(tmp_path / "cache")

    def battery():
        return run_trials(
            lambda seed: gnp_random_graph(n, 8.0 / (n - 1), seed=seed),
            protocol,
            CD,
            seeds,
            cache=cache,
            graph_spec=f"claims:gnp/n={n}",
        )

    first = battery()
    assert cache.stats.writes == len(seeds)
    hits_before = cache.stats.hits
    second = battery()
    assert cache.stats.hits - hits_before == len(seeds)
    assert cache.stats.writes == len(seeds)  # nothing recomputed

    for a, b in zip(first.outcomes, second.outcomes):
        assert a == b


def test_full_tier_sweep_gains_a_decade_quick_tier_unchanged():
    quick = registered_claims("quick")
    full = registered_claims("full")
    quick_sizes = quick["thm2-cd-energy"].workload.sizes
    full_sizes = full["thm2-cd-energy"].workload.sizes
    assert quick_sizes == (32, 64, 128)  # pinned: quick cells untouched
    assert (64, 128, 256, 512) == full_sizes[:4]  # old cells untouched
    # The extension spans at least one decade past the old ceiling.
    assert max(full_sizes) >= 10 * 512 / 2  # 8192 >= one decade over 512
    assert max(full_sizes) / 512 >= 10


def test_exponent_band_ingests_the_new_decade():
    """A fit over the old sizes stays decided-and-passed when the new
    large-n cells join, for data that genuinely follows the claimed
    polylog law (values ~ C log n with mild deterministic jitter)."""
    import math

    band = ExponentBand(
        name="cd-energy-exponent",
        protocol="cd-mis",
        metric="max_energy",
        low=0.3,
        high=1.7,
    )
    context = EvalContext(constants=ConstantsProfile.practical())

    def polylog_samples(n):
        return [
            3.0 * math.log2(n) * (1.0 + 0.05 * ((n * 31 + k * 17) % 7 - 3) / 7)
            for k in range(5)
        ]

    old_sizes = (64, 128, 256, 512)
    new_sizes = (4096, 8192)

    old_only = Measurements()
    for n in old_sizes:
        old_only.add_sweep_values("cd-mis", n, {"max_energy": polylog_samples(n)})
    before = band.evaluate(old_only, context)
    assert before.decided and before.passed

    extended = Measurements()
    for n in old_sizes + new_sizes:
        extended.add_sweep_values("cd-mis", n, {"max_energy": polylog_samples(n)})
    after = band.evaluate(extended, context)
    assert after.decided and after.passed
    # The extra decade tightens the fit rather than displacing it.
    assert abs(after.data["exponent"] - before.data["exponent"]) < 0.5
