"""Verdict reporting: CLAIMS.json (schema ``repro-claims/1``) + markdown.

The JSON document is self-contained: it embeds the per-protocol sweep
series alongside every predicate's evidence, so ``repro-mis claims
report`` regenerates the E1/E2/E4 tables of EXPERIMENTS.md offline from
the file — no re-running of trials.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from ..analysis.tables import format_cell
from ..errors import ConfigurationError
from .verify import VerificationResult

__all__ = [
    "CLAIMS_SCHEMA",
    "DEFAULT_CLAIMS_PATH",
    "build_document",
    "write_claims_json",
    "load_claims_json",
    "render_markdown",
]

CLAIMS_SCHEMA = "repro-claims/1"
DEFAULT_CLAIMS_PATH = Path("benchmarks/results/CLAIMS.json")


def build_document(result: VerificationResult) -> Dict[str, object]:
    """Fold a verification run into the ``repro-claims/1`` document."""
    claims: List[Dict[str, object]] = []
    series: Dict[str, Dict[str, object]] = {}
    for verdict in result.verdicts:
        claim = result.claims[verdict.claim_id]
        record = verdict.to_record()
        record.update(
            {
                "title": claim.title,
                "statement": claim.ref.statement,
                "section": claim.ref.section,
                "experiments": list(claim.ref.experiments),
                "summary": claim.ref.summary,
                "workload": type(claim.workload).__name__,
                "notes": claim.notes,
            }
        )
        claims.append(record)
        measurements = result.measurements.get(verdict.claim_id)
        if measurements is None:
            continue
        for protocol, per_size in measurements.sweeps.items():
            if protocol in series:
                continue
            sizes = sorted(per_size)
            def cell(n: int, metric: str) -> List[float]:
                return per_size[n].get(metric, [])

            series[protocol] = {
                "model": measurements.models.get(protocol, "?"),
                "sizes": sizes,
                "trials": [len(cell(n, "max_energy")) for n in sizes],
                "max_energy_mean": [
                    _mean(cell(n, "max_energy")) for n in sizes
                ],
                "max_energy_max": [
                    max(cell(n, "max_energy"), default=0.0) for n in sizes
                ],
                "mean_energy_mean": [
                    _mean(cell(n, "mean_energy")) for n in sizes
                ],
                "rounds_mean": [_mean(cell(n, "rounds")) for n in sizes],
            }
    return {
        "schema": CLAIMS_SCHEMA,
        "tier": result.tier,
        "profile": result.profile,
        "summary": result.counts,
        "total_trials": result.total_trials,
        "claims": claims,
        "series": series,
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def write_claims_json(
    document: Mapping[str, object],
    path: Union[str, Path] = DEFAULT_CLAIMS_PATH,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_claims_json(path: Union[str, Path]) -> Dict[str, object]:
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(
            f"no claims document at {path}; run 'repro-mis claims verify' "
            f"first"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed claims document {path}: {exc}")
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != CLAIMS_SCHEMA:
        raise ConfigurationError(
            f"unsupported claims schema {schema!r} in {path} "
            f"(expected {CLAIMS_SCHEMA!r})"
        )
    return document


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------


def _md_table(headers: List[str], rows: List[List[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def _find_claim(document, claim_id: str) -> Optional[Dict[str, object]]:
    for record in document.get("claims", []):
        if record.get("claim_id") == claim_id:
            return record
    return None


def _predicate_data(record, name: str) -> Optional[Dict[str, object]]:
    if record is None:
        return None
    for result in list(record.get("strict", [])) + list(record.get("shape", [])):
        if result.get("name") == name:
            return result.get("data", {})
    return None


def _exponent_note(record, predicate_name: str) -> str:
    data = _predicate_data(record, predicate_name)
    if not data or "exponent" not in data:
        return ""
    return (
        f"fitted exponent {data['exponent']:.2f} "
        f"(bootstrap CI [{data['ci_low']:.2f}, {data['ci_high']:.2f}], "
        f"best model {data['model']})"
    )


def _headline_table(document) -> str:
    """E1: measured-vs-claimed complexity per algorithm."""
    from ..analysis.experiments.headline import PAPER_CLAIMS

    series = document.get("series", {})
    rows = []
    for protocol in (
        "cd-mis",
        "naive-cd-luby",
        "nocd-energy-mis",
        "davies-low-degree-mis",
        "naive-backoff-mis",
    ):
        data = series.get(protocol)
        if not data or not data["sizes"]:
            continue
        index = len(data["sizes"]) - 1
        paper_energy, paper_rounds = PAPER_CLAIMS.get(
            protocol, ("?", "?")
        )
        rows.append(
            [
                protocol,
                data["model"],
                data["sizes"][index],
                paper_energy,
                data["max_energy_mean"][index],
                paper_rounds,
                data["rounds_mean"][index],
            ]
        )
    if not rows:
        return "_no sweep series in this document_"
    return _md_table(
        [
            "algorithm",
            "model",
            "n",
            "paper energy",
            "measured maxE",
            "paper rounds",
            "measured rounds",
        ],
        rows,
    )


def _cd_scaling_table(document) -> str:
    """E2: CD energy scaling, Algorithm 1 vs naive Luby."""
    series = document.get("series", {})
    cd = series.get("cd-mis")
    naive = series.get("naive-cd-luby")
    if not cd or not naive:
        return "_no CD sweep series in this document_"
    rows = []
    for index, n in enumerate(cd["sizes"]):
        row = [n, cd["max_energy_mean"][index]]
        if n in naive["sizes"]:
            other = naive["sizes"].index(n)
            ratio_base = cd["max_energy_mean"][index]
            row.append(naive["max_energy_mean"][other])
            row.append(
                naive["max_energy_mean"][other] / ratio_base
                if ratio_base
                else 0.0
            )
        else:
            row.extend(["-", "-"])
        rows.append(row)
    table = _md_table(
        ["n", "cd-mis maxE", "naive-cd-luby maxE", "factor"], rows
    )
    note = _exponent_note(
        _find_claim(document, "thm2-cd-energy"), "cd-energy-exponent"
    )
    return table + (f"\n\ncd-mis {note}" if note else "")


def _nocd_scaling_table(document) -> str:
    """E4: no-CD energy scaling, Algorithm 2 vs both baselines."""
    series = document.get("series", {})
    alg2 = series.get("nocd-energy-mis")
    if not alg2:
        return "_no no-CD sweep series in this document_"
    davies = series.get("davies-low-degree-mis", {"sizes": []})
    naive = series.get("naive-backoff-mis", {"sizes": []})
    rows = []
    for index, n in enumerate(alg2["sizes"]):
        row = [n, alg2["max_energy_mean"][index]]
        for other in (davies, naive):
            if n in other["sizes"]:
                row.append(other["max_energy_mean"][other["sizes"].index(n)])
            else:
                row.append("-")
        rows.append(row)
    table = _md_table(
        ["n", "nocd-energy-mis maxE", "davies maxE", "naive-backoff maxE"],
        rows,
    )
    note = _exponent_note(
        _find_claim(document, "thm10-nocd-energy"), "nocd-energy-exponent"
    )
    return table + (f"\n\nnocd-energy-mis {note}" if note else "")


_VERDICT_MARKS = {
    "reproduced": "✅",
    "shape-only": "🟡",
    "not-reproduced": "❌",
    "inconclusive": "❔",
}


def render_markdown(document: Mapping[str, object]) -> str:
    """Render a claims document as the markdown verdict report."""
    summary = document.get("summary", {})
    parts = [
        "# Claims verification report",
        "",
        f"Schema `{document.get('schema')}` · tier `{document.get('tier')}` "
        f"· constants profile `{document.get('profile')}` · "
        f"{document.get('total_trials', 0)} trials.",
        "",
        "Verdicts: "
        + ", ".join(
            f"{count} {verdict}" for verdict, count in sorted(summary.items())
        )
        + ".",
        "",
        "## Verdicts",
        "",
    ]
    rows = []
    for record in document.get("claims", []):
        mark = _VERDICT_MARKS.get(record.get("verdict"), "")
        rows.append(
            [
                record.get("claim_id"),
                record.get("statement"),
                ", ".join(record.get("experiments", [])),
                f"{mark} {record.get('verdict')}",
                record.get("trials_used"),
            ]
        )
    parts.append(
        _md_table(["claim", "paper ref", "experiments", "verdict", "trials"], rows)
    )
    parts.append("")

    failing = [
        record
        for record in document.get("claims", [])
        if record.get("verdict") != "reproduced"
    ]
    if failing:
        parts.append("## Non-reproduced details")
        parts.append("")
        for record in failing:
            parts.append(
                f"### {record['claim_id']} — {record.get('verdict')}"
            )
            parts.append("")
            for group in ("strict", "shape"):
                for predicate in record.get(group, []):
                    status = (
                        "pass"
                        if predicate.get("passed")
                        else "FAIL"
                    )
                    if not predicate.get("decided"):
                        status += " (undecided)"
                    parts.append(
                        f"- [{group}] `{predicate.get('name')}`: {status} — "
                        f"{predicate.get('detail')}"
                    )
            if record.get("notes"):
                parts.append("")
                parts.append(f"> {record['notes']}")
            parts.append("")

    parts.extend(
        [
            "## E1 — headline complexity table (regenerated)",
            "",
            _headline_table(document),
            "",
            "## E2 — CD energy scaling (regenerated)",
            "",
            _cd_scaling_table(document),
            "",
            "## E4 — no-CD energy scaling (regenerated)",
            "",
            _nocd_scaling_table(document),
            "",
        ]
    )
    return "\n".join(parts)
