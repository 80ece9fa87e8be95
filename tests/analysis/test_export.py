"""Tests for CSV/JSON export of experiment outputs."""

import csv
import io
import json

from repro.analysis import run_size_sweep
from repro.analysis.export import (
    save_text,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_rows,
)
from repro.core import CDMISProtocol
from repro.graphs import gnp_random_graph
from repro.radio import CD


def make_sweep(fast_constants):
    return run_size_sweep(
        (16, 32),
        lambda n, seed: gnp_random_graph(n, 0.2, seed=seed),
        lambda n: CDMISProtocol(constants=fast_constants),
        CD,
        trials=2,
    )


class TestSweepExport:
    def test_rows(self, fast_constants):
        rows = sweep_to_rows(make_sweep(fast_constants))
        assert len(rows) == 2
        assert rows[0]["n"] == 16
        assert rows[0]["protocol"] == "cd-mis"
        assert 0.0 <= rows[0]["failure_rate"] <= 1.0

    def test_csv_parses_back(self, fast_constants):
        text = sweep_to_csv(make_sweep(fast_constants))
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 2
        assert parsed[1]["n"] == "32"

    def test_json_parses_back(self, fast_constants):
        data = json.loads(sweep_to_json(make_sweep(fast_constants)))
        assert [row["n"] for row in data] == [16, 32]


class TestSaveText:
    def test_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "out.csv"
        save_text("a,b\n1,2\n", target)
        assert target.read_text().startswith("a,b")
