"""cProfile hooks: profile a command region, persist a top-N table.

Backs the CLI's ``--cprofile`` option: the command's workload (its trial
batteries included) runs under :mod:`cProfile`, and a per-scenario
table of the top functions by cumulative time lands in
``benchmarks/results/`` next to the perf-bench reports, so "where does
this slow campaign spend its time" is one flag away.

Profiling covers the invoking process; trials run by pool workers
execute in child processes and are not attributed (run with
``--jobs 1`` and no retry flags for a complete profile).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

__all__ = ["DEFAULT_PROFILE_DIR", "profiled", "profile_path"]

#: Where profile tables land by default (beside the bench reports).
DEFAULT_PROFILE_DIR = Path("benchmarks") / "results"

#: Rows printed per table.
DEFAULT_TOP_N = 30


def _slug(scenario: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", scenario).strip("-")
    return slug or "scenario"


def profile_path(
    scenario: str, out_dir: Union[str, Path] = DEFAULT_PROFILE_DIR
) -> Path:
    """Where :func:`profiled` writes the table for ``scenario``."""
    return Path(out_dir) / f"profile_{_slug(scenario)}.txt"


@contextmanager
def profiled(
    scenario: str,
    out_dir: Union[str, Path] = DEFAULT_PROFILE_DIR,
    top_n: int = DEFAULT_TOP_N,
    sort: str = "cumulative",
) -> Iterator[cProfile.Profile]:
    """Profile the block and write a top-``top_n`` table on exit.

    The table is written even when the block raises, so a profile of the
    work done before a failure survives for diagnosis.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats(sort)
        stats.print_stats(top_n)
        path = profile_path(scenario, out_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            f"# cProfile: {scenario}\n"
            f"# sorted by {sort}, top {top_n} rows\n"
            + stream.getvalue()
        )

