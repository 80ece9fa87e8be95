"""Job specs: what clients submit and how it decomposes into units.

Four kinds:

``run``     one (algorithm, topology, n) cell, ``trials`` seeds —
            seed derivation matches ``repro-mis run`` exactly;
``sweep``   one cell per size in ``sizes`` — seed derivation matches
            :func:`repro.analysis.sweep.run_size_sweep` exactly;
``batch``   an explicit list of run-shaped cells (the campaign shape);
``claims``  a claims verification (``repro-mis claims verify``) run as
            one opaque task — its adaptive sampler is not statically
            decomposable, but it samples *through the shared cache*, so
            its trials still dedupe against everything else.

Matching the CLI's seed derivation is a correctness requirement, not a
convenience: it is what makes a service-computed cell bit-identical to
(and cache-compatible with) the same cell run via the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.sweep import sweep_seeds
from ..catalog import PROFILES
from ..errors import ConfigurationError
from ..exec.resilience import is_quarantine_record
from .units import TrialUnitSpec, normalize_unit

__all__ = [
    "JOB_KINDS",
    "CellSpec",
    "JobSpec",
    "normalize_job",
    "assemble_cell_result",
]

JOB_KINDS = ("run", "sweep", "batch", "claims")


@dataclass(frozen=True)
class CellSpec:
    """One (algorithm, topology, n) cell and its trial seeds."""

    unit_template: TrialUnitSpec  # seed field is a placeholder (0)
    seeds: Tuple[int, ...]

    def units(self) -> List[TrialUnitSpec]:
        template = self.unit_template.to_record()
        units = []
        for seed in self.seeds:
            template["seed"] = seed
            units.append(TrialUnitSpec.from_record(template))
        return units

    def describe(self) -> Dict[str, Any]:
        record = self.unit_template.to_record()
        record.pop("seed")
        record["trials"] = len(self.seeds)
        record["seeds"] = list(self.seeds)
        return record


@dataclass(frozen=True)
class JobSpec:
    """A validated submission: its kind, canonical spec, and cells."""

    kind: str
    spec: Dict[str, Any]
    cells: Tuple[CellSpec, ...]

    @property
    def total_units(self) -> int:
        return sum(len(cell.seeds) for cell in self.cells)

    def units(self) -> List[TrialUnitSpec]:
        return [unit for cell in self.cells for unit in cell.units()]


def _int_field(spec: Dict[str, Any], name: str, default: int) -> int:
    value = spec.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def _positive(spec: Dict[str, Any], name: str, default: int) -> int:
    value = _int_field(spec, name, default)
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def _cell_from_fragment(
    fragment: Dict[str, Any], trials: int, base_seed: int
) -> CellSpec:
    template = normalize_unit({**fragment, "seed": 0})
    seeds = tuple(base_seed + trial for trial in range(trials))
    return CellSpec(unit_template=template, seeds=seeds)


def _normalize_run(spec: Dict[str, Any]) -> Tuple[Dict[str, Any], List[CellSpec]]:
    trials = _positive(spec, "trials", 1)
    base_seed = _int_field(spec, "seed", 0)
    cell = _cell_from_fragment(spec, trials, base_seed)
    canonical = cell.unit_template.to_record()
    canonical.pop("seed")
    canonical.update(trials=trials, seed=base_seed)
    return canonical, [cell]


def _normalize_sweep(
    spec: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[CellSpec]]:
    sizes = spec.get("sizes")
    if (
        not isinstance(sizes, (list, tuple))
        or not sizes
        or not all(isinstance(n, int) and n >= 1 for n in sizes)
    ):
        raise ConfigurationError(
            f"sizes must be a non-empty list of positive integers, got {sizes!r}"
        )
    trials = _positive(spec, "trials", 5)
    base_seed = _int_field(spec, "seed", 0)
    cells = []
    for n in sizes:
        template = normalize_unit({**spec, "n": n, "seed": 0})
        seeds = tuple(sweep_seeds(base_seed, n, trials))
        cells.append(CellSpec(unit_template=template, seeds=seeds))
    canonical = cells[0].unit_template.to_record()
    canonical.pop("seed")
    canonical.pop("n")
    canonical.update(sizes=list(sizes), trials=trials, seed=base_seed)
    return canonical, cells


def _normalize_batch(
    spec: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[CellSpec]]:
    fragments = spec.get("cells")
    if not isinstance(fragments, (list, tuple)) or not fragments:
        raise ConfigurationError(
            "batch spec needs a non-empty 'cells' list of run-shaped cells"
        )
    cells = []
    canonical_cells = []
    for fragment in fragments:
        if not isinstance(fragment, dict):
            raise ConfigurationError(
                f"each batch cell must be an object, got {fragment!r}"
            )
        trials = _positive(fragment, "trials", 1)
        base_seed = _int_field(fragment, "seed", 0)
        cell = _cell_from_fragment(fragment, trials, base_seed)
        cells.append(cell)
        record = cell.unit_template.to_record()
        record.pop("seed")
        record.update(trials=trials, seed=base_seed)
        canonical_cells.append(record)
    return {"cells": canonical_cells}, cells


def _normalize_claims(
    spec: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[CellSpec]]:
    tier = spec.get("tier", "quick")
    if tier not in ("quick", "full"):
        raise ConfigurationError(
            f"unknown claims tier {tier!r}; choose 'quick' or 'full'"
        )
    profile = spec.get("profile", "practical")
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    claim_ids = spec.get("claim_ids") or []
    if not isinstance(claim_ids, (list, tuple)) or not all(
        isinstance(cid, str) for cid in claim_ids
    ):
        raise ConfigurationError("claim_ids must be a list of claim id strings")
    if claim_ids:
        from ..claims import registered_claims

        registry = registered_claims(tier, PROFILES[profile]())
        unknown = [cid for cid in claim_ids if cid not in registry]
        if unknown:
            raise ConfigurationError(
                f"unknown claim id(s) {unknown}; see 'repro-mis claims list'"
            )
    budget = spec.get("budget")
    if budget is not None and (not isinstance(budget, int) or budget < 1):
        raise ConfigurationError(
            f"budget must be a positive integer or null, got {budget!r}"
        )
    canonical = {
        "tier": tier,
        "profile": profile,
        "claim_ids": list(claim_ids),
        "budget": budget,
        "seed": _int_field(spec, "seed", 0),
    }
    return canonical, []


_NORMALIZERS = {
    "run": _normalize_run,
    "sweep": _normalize_sweep,
    "batch": _normalize_batch,
    "claims": _normalize_claims,
}


def normalize_job(kind: str, spec: Any) -> JobSpec:
    """Validate a submission into a :class:`JobSpec`.

    Raises :class:`~repro.errors.ConfigurationError` on any malformed
    field; the HTTP layer maps that to a 400 response.
    """
    if kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; choose from {JOB_KINDS}"
        )
    if not isinstance(spec, dict):
        raise ConfigurationError(f"spec must be a JSON object, got {spec!r}")
    canonical, cells = _NORMALIZERS[kind](spec)
    return JobSpec(kind=kind, spec=canonical, cells=tuple(cells))


def assemble_cell_result(
    cell: CellSpec, records: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold one cell's per-unit records into the result document shape.

    ``records`` aligns with ``cell.seeds``; quarantine records are
    separated out, and the aggregate statistics mirror what
    :class:`~repro.analysis.runner.TrialSummary` reports for the cell.
    """
    from ..analysis.stats import summarize

    outcomes = [r for r in records if not is_quarantine_record(r)]
    quarantined = [r for r in records if is_quarantine_record(r)]
    result = cell.describe()
    result["graph_spec"] = cell.unit_template.graph_spec
    result["outcomes"] = list(outcomes)
    result["quarantined"] = list(quarantined)
    stats: Dict[str, Any] = {
        "trials": len(outcomes),
        "failures": sum(1 for r in outcomes if not r["valid"]),
    }
    stats["failure_rate"] = (
        stats["failures"] / stats["trials"] if stats["trials"] else 0.0
    )
    if outcomes:
        for metric in ("max_energy", "mean_energy", "rounds", "mis_size"):
            summary = summarize([r[metric] for r in outcomes])
            stats[metric] = {
                "mean": summary.mean,
                "min": summary.minimum,
                "max": summary.maximum,
            }
    result["stats"] = stats
    return result
