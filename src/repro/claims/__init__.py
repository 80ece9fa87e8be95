"""Claims verification: executable encodings of the paper's guarantees.

The paper is a theory-only brief announcement, so its reproducible
artifacts are quantitative claims (Theorem 1's lower bound, Theorem 2's
CD bounds, Lemmas 8-9's backoff guarantees, Theorem 10's no-CD bounds).
This package turns each claim into a machine-checked spec:

- :mod:`.spec` — frozen :class:`Claim` dataclasses binding a paper
  reference to a workload, an observable, and statistical predicates.
- :mod:`.fitting` — seed-deterministic bootstrap confidence intervals
  on the exponents :mod:`repro.analysis.complexity_fit` fits.
- :mod:`.sampler` — adaptive trial collection through the ``exec``
  pool/cache/resilience stack; stops per claim when every predicate is
  decided or the trial budget runs out.
- :mod:`.registry` — the registered claims (quick and full tiers).
- :mod:`.verdict` — per-claim verdicts: ``reproduced | shape-only |
  not-reproduced | inconclusive``.
- :mod:`.report` — ``benchmarks/results/CLAIMS.json`` (schema
  ``repro-claims/1``) and the markdown report regenerating the
  E1/E2/E4 tables.
- :mod:`.verify` — the orchestration entry point
  :func:`verify_claims`.
"""

from .fitting import ExponentCI, bootstrap_exponent_ci
from .registry import registered_claims
from .report import (
    CLAIMS_SCHEMA,
    DEFAULT_CLAIMS_PATH,
    build_document,
    load_claims_json,
    render_markdown,
    write_claims_json,
)
from .spec import (
    BackoffWorkload,
    BudgetWorkload,
    Claim,
    EvalContext,
    HarnessWorkload,
    Measurements,
    PairedWorkload,
    PaperRef,
    Predicate,
    PredicateResult,
    RateWorkload,
    SweepWorkload,
)
from .verdict import VERDICTS, ClaimVerdict, decide_verdict, evaluate_claim
from .verify import VerificationResult, verify_claims

__all__ = [
    "BackoffWorkload",
    "BudgetWorkload",
    "CLAIMS_SCHEMA",
    "Claim",
    "DEFAULT_CLAIMS_PATH",
    "ClaimVerdict",
    "EvalContext",
    "ExponentCI",
    "HarnessWorkload",
    "Measurements",
    "PairedWorkload",
    "PaperRef",
    "Predicate",
    "PredicateResult",
    "RateWorkload",
    "SweepWorkload",
    "VERDICTS",
    "VerificationResult",
    "bootstrap_exponent_ci",
    "build_document",
    "decide_verdict",
    "evaluate_claim",
    "load_claims_json",
    "registered_claims",
    "render_markdown",
    "verify_claims",
    "write_claims_json",
]
