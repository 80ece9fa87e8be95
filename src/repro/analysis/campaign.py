"""Declarative experiment campaigns.

A *campaign* is a JSON-serializable description of a protocol ×
workload × size grid — the thing every ad-hoc study script rewrites.
`run_campaign` executes the grid deterministically and returns a
:class:`CampaignResult` that renders as a table and exports as CSV, so a
study is one JSON file instead of one more script:

    {
      "name": "cd-vs-naive",
      "protocols": ["cd-mis", "naive-cd-luby"],
      "workloads": ["gnp", "udg"],
      "sizes": [64, 128],
      "trials": 5,
      "profile": "practical",
      "seed": 0
    }

Protocol names resolve through :mod:`repro.catalog`, as on the CLI;
workload names through :mod:`repro.analysis.workloads`; models default
to each protocol's natural model (overridable per campaign with
``"model"``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..catalog import DEFAULT_MODEL, PROFILES, PROTOCOLS, make_protocol
from ..errors import ConfigurationError
from ..obs.registry import get_registry
from ..radio.models import model_by_name
from .runner import TrialSummary, run_trials
from .sweep import sweep_seeds
from .tables import render_table
from .workloads import get_workload

__all__ = ["CampaignSpec", "CampaignCell", "CampaignResult", "run_campaign",
           "load_campaign"]

@dataclass(frozen=True)
class CampaignSpec:
    """Validated campaign description."""

    name: str
    protocols: tuple
    workloads: tuple
    sizes: tuple
    trials: int = 5
    profile: str = "practical"
    seed: int = 0
    model: Optional[str] = None  # override every protocol's default model

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        try:
            spec = cls(
                name=str(data["name"]),
                protocols=tuple(data["protocols"]),
                workloads=tuple(data["workloads"]),
                sizes=tuple(int(size) for size in data["sizes"]),
                trials=int(data.get("trials", 5)),
                profile=str(data.get("profile", "practical")),
                seed=int(data.get("seed", 0)),
                model=data.get("model"),
            )
        except KeyError as exc:
            raise ConfigurationError(f"campaign missing required key: {exc}") from exc
        if not spec.protocols or not spec.workloads or not spec.sizes:
            raise ConfigurationError(
                "campaign needs at least one protocol, workload, and size"
            )
        if spec.trials < 1:
            raise ConfigurationError(f"trials must be positive, got {spec.trials}")
        if spec.profile not in PROFILES:
            raise ConfigurationError(
                f"unknown profile {spec.profile!r}; choose from {sorted(PROFILES)}"
            )
        spec.validate_names()
        return spec

    def validate_names(self) -> None:
        """Fail fast (with the available choices) on unknown registry names.

        Checks protocols against :mod:`repro.catalog`, workloads against the
        workload catalog, and the optional model override against the
        collision-model registry — each miss raises
        :class:`~repro.errors.ConfigurationError` instead of surfacing
        later as a KeyError mid-campaign.
        """
        unknown = sorted(set(self.protocols) - set(PROTOCOLS))
        if unknown:
            raise ConfigurationError(
                f"unknown protocol(s) {unknown} in campaign {self.name!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        for workload_name in self.workloads:
            get_workload(workload_name)  # raises ConfigurationError on miss
        if self.model is not None:
            try:
                model_by_name(self.model)
            except KeyError as exc:
                raise ConfigurationError(str(exc)) from None


@dataclass(frozen=True)
class CampaignCell:
    """Aggregates for one (protocol, workload, size) grid cell."""

    protocol: str
    model: str
    workload: str
    n: int
    trials: int
    failure_rate: float
    max_energy_mean: float
    mean_energy_mean: float
    rounds_mean: float
    mis_size_mean: float
    #: Seeds whose trials were quarantined by the retry policy (0 when
    #: every trial completed) — the cell aggregates cover survivors only.
    quarantined: int = 0


@dataclass
class CampaignResult:
    """Executed campaign grid."""

    spec: CampaignSpec
    cells: List[CampaignCell] = field(default_factory=list)

    def to_table(self) -> str:
        headers = [
            "protocol", "workload", "n", "fail%", "maxE", "meanE", "rounds", "|MIS|",
        ]
        show_quarantine = any(cell.quarantined for cell in self.cells)
        if show_quarantine:
            headers.append("quar")
        rows = [
            (
                cell.protocol,
                cell.workload,
                cell.n,
                100.0 * cell.failure_rate,
                cell.max_energy_mean,
                cell.mean_energy_mean,
                cell.rounds_mean,
                cell.mis_size_mean,
            )
            + ((cell.quarantined,) if show_quarantine else ())
            for cell in self.cells
        ]
        return render_table(
            headers,
            rows,
            title=(
                f"campaign {self.spec.name!r} "
                f"(profile {self.spec.profile}, {self.spec.trials} trials/cell)"
            ),
        )

    def to_csv(self) -> str:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            [
                "protocol", "model", "workload", "n", "trials", "failure_rate",
                "max_energy_mean", "mean_energy_mean", "rounds_mean",
                "mis_size_mean", "quarantined",
            ]
        )
        for cell in self.cells:
            writer.writerow(
                [
                    cell.protocol, cell.model, cell.workload, cell.n, cell.trials,
                    cell.failure_rate, cell.max_energy_mean, cell.mean_energy_mean,
                    cell.rounds_mean, cell.mis_size_mean, cell.quarantined,
                ]
            )
        return buffer.getvalue()

    @property
    def total_failures(self) -> int:
        return sum(
            round(cell.failure_rate * cell.trials) for cell in self.cells
        )

    @property
    def total_quarantined(self) -> int:
        """Seeds quarantined across the whole grid (partial-failure tally)."""
        return sum(cell.quarantined for cell in self.cells)


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Load and validate a campaign JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"campaign file is not valid JSON: {exc}") from exc
    return CampaignSpec.from_dict(data)


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Execute the campaign grid deterministically.

    Cells run under the installed execution defaults: ``jobs`` fans each
    cell's trials over a process pool and ``cache`` persists per-trial
    outcomes content-addressed by the full trial identity, so an
    interrupted campaign resumes where it stopped and a repeated
    invocation completes entirely from cache.  Outcomes are identical
    for every job count.
    """
    spec.validate_names()
    constants = PROFILES[spec.profile]()
    result = CampaignResult(spec=spec)
    registry = get_registry()
    for protocol_name in spec.protocols:
        protocol = make_protocol(protocol_name, constants)
        model_name = spec.model or DEFAULT_MODEL[protocol_name]
        model = model_by_name(model_name)
        for workload_name in spec.workloads:
            workload = get_workload(workload_name)
            for n in spec.sizes:
                with registry.timer("campaign.cell_wall_s").time():
                    summary: TrialSummary = run_trials(
                        lambda seed, w=workload, n=n: w.build(n, seed),
                        protocol,
                        model,
                        sweep_seeds(spec.seed, n, spec.trials),
                        graph_spec=f"workload:{workload_name}/n={n}",
                    )
                registry.counter("campaign.cells").inc()
                # A cell whose every trial was quarantined has no
                # outcome distribution to average — report NaN rather
                # than crash (or fake a zero).
                measured = bool(summary.outcomes)
                nan = float("nan")
                result.cells.append(
                    CampaignCell(
                        protocol=protocol_name,
                        model=model_name,
                        workload=workload_name,
                        n=n,
                        trials=summary.trials,
                        failure_rate=summary.failure_rate,
                        max_energy_mean=summary.max_energy_summary().mean
                        if measured else nan,
                        mean_energy_mean=summary.mean_energy_summary().mean
                        if measured else nan,
                        rounds_mean=summary.rounds_summary().mean
                        if measured else nan,
                        mis_size_mean=summary.mis_size_summary().mean
                        if measured else nan,
                        quarantined=len(summary.quarantined),
                    )
                )
    return result
