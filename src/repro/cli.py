"""Command-line interface: ``python -m repro`` / ``repro-mis``.

Subcommands
-----------
``run``         — run one algorithm on one topology and print the summary.
``sweep``       — size sweep for one algorithm (energy/rounds vs n).
``lowerbound``  — the Theorem 1 budget sweep on the hard instance.
``experiment``  — run a registered experiment (E1..E12) at quick scale.
``campaign``    — run a declarative JSON campaign file.
``claims``      — machine-checked verification of the paper's claims
                  (``claims list | verify | report``); writes
                  ``benchmarks/results/CLAIMS.json``.
``obs``         — observability utilities (``obs summarize`` renders a
                  telemetry JSONL report).
``list``        — list algorithms, models, topologies, experiments.

Observability options (``run``/``sweep``/``experiment``/``campaign``):
``--telemetry PATH`` records runtime telemetry (engine hot-path
counters, per-trial wall times, cache hits, structured progress) to a
JSONL file for ``repro-mis obs summarize``; ``--cprofile [DIR]`` wraps
the command in :mod:`cProfile` and writes a top-N table under ``DIR``
(default ``benchmarks/results/``).

Robustness options (same subcommands): ``--faults SPEC`` injects an
adversarial fault plan (message loss, jamming, crash–recovery, wake
skew — see :func:`repro.faults.parse_fault_spec` for the grammar) into
every trial; ``--trial-timeout`` and ``--max-retries`` install a
:class:`repro.exec.resilience.RetryPolicy` so failing or hanging trials
are retried with backoff and then quarantined instead of aborting the
battery.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis.experiments.registry import EXPERIMENTS, get_experiment
from .analysis.runner import run_trials
from .analysis.sweep import run_size_sweep
from .catalog import DEFAULT_MODEL, PROFILES, PROTOCOLS, make_protocol
from .constants import ConstantsProfile
from .core import CDMISProtocol
from .errors import ConfigurationError
from .graphs.graph import Graph
from .lowerbound import SynchronizedCoinStrategy, run_lower_bound_experiment
from .radio.models import model_by_name

__all__ = ["main", "build_parser", "make_graph"]


def make_graph(topology: str, n: int, seed: int) -> Graph:
    """Instantiate a topology by CLI name (see the workload catalog)."""
    from .analysis.workloads import build_workload

    try:
        return build_workload(topology, n, seed)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs`` / ``--cache`` / ``--resume`` options."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for trial batteries (default: 1, sequential; "
        "results are identical for any job count)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="serve/persist per-trial outcomes from the content-addressed "
        "result cache (--no-cache disables)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from cached trial outcomes "
        "(implies --cache)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="adversarial fault plan, e.g. 'drop=0.05,jam=10..20@0.5,"
        "crash=0.1@50+8,wake=16,seed=1' (see repro.faults.parse_fault_spec)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "scalar", "batch"),
        default="auto",
        metavar="BACKEND",
        help="trial engine backend: 'auto' (default) vectorizes qualifying "
        "batteries through the batched numpy engine, 'scalar' forces the "
        "coroutine engine, 'batch' forces batching and errors on "
        "unbatchable batteries",
    )
    parser.add_argument(
        "--channels",
        type=_positive_int,
        default=1,
        metavar="C",
        help="radio channel count: lifts the collision model onto C "
        "frequencies with per-channel collision resolution (the 'mc-luby' "
        "algorithm hops channels to exploit them; default: 1, the classic "
        "single-channel network)",
    )
    parser.add_argument(
        "--sparsify",
        type=_positive_int,
        default=None,
        metavar="CAP",
        help="batch-engine fan-out cap: no-CD competition rounds sample at "
        "most CAP neighbors per listener (an approximation for very large "
        "n; requires the batch engine and joins the cache key)",
    )
    _add_retry_options(parser)


def _add_retry_options(parser: argparse.ArgumentParser) -> None:
    """Attach ``--trial-timeout`` / ``--max-retries`` (the retry policy)."""
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any single trial that runs longer than this",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a failing/hanging trial up to N times (with exponential "
        "backoff) before quarantining its seed and continuing (default: 0, "
        "fail fast)",
    )


def _faults_from_args(args):
    """Parse --faults into a FaultPlan, or None when absent."""
    if not args.faults:
        return None
    from .faults import parse_fault_spec

    return parse_fault_spec(args.faults)


def _policy_from_args(args):
    """Build the RetryPolicy requested by --trial-timeout/--max-retries."""
    if args.trial_timeout is None and not args.max_retries:
        return None
    from .exec.resilience import RetryPolicy

    return RetryPolicy(max_retries=args.max_retries, timeout_s=args.trial_timeout)


def _cache_from_args(args, session):
    """Build the ResultCache requested by --cache/--resume, or None; a
    telemetry ``session`` (or None) watches it."""
    if not (args.cache or args.resume):
        return None
    from .exec.cache import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if session is not None:
        session.watch_cache(cache)
    return cache


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--telemetry`` / ``--cprofile`` options."""
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="record runtime telemetry (engine counters, trial wall times, "
        "cache hits, progress) to a JSONL file; render it with "
        "'repro-mis obs summarize PATH'",
    )
    parser.add_argument(
        "--cprofile",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="profile the command with cProfile and write a top-N table "
        "under DIR (default: benchmarks/results/)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-mis",
        description="Energy-efficient MIS in radio networks (PODC 2025 reproduction)",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="practical",
        help="constants profile (default: practical)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one algorithm once")
    run_parser.add_argument("algorithm", choices=sorted(PROTOCOLS))
    run_parser.add_argument("--n", type=_positive_int, default=128)
    run_parser.add_argument("--topology", default="gnp")
    run_parser.add_argument("--model", default=None, help="cd | no-cd | beep")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--trials", type=_positive_int, default=1)
    _add_execution_options(run_parser)
    _add_obs_options(run_parser)

    sweep_parser = subparsers.add_parser("sweep", help="size sweep for one algorithm")
    sweep_parser.add_argument("algorithm", choices=sorted(PROTOCOLS))
    sweep_parser.add_argument(
        "--sizes", type=_positive_int, nargs="+", default=[64, 128, 256, 512]
    )
    sweep_parser.add_argument("--topology", default="gnp")
    sweep_parser.add_argument("--model", default=None)
    sweep_parser.add_argument("--trials", type=_positive_int, default=5)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--csv", default=None, metavar="PATH", help="also write the sweep as CSV"
    )
    sweep_parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write the sweep as JSON"
    )
    _add_execution_options(sweep_parser)
    _add_obs_options(sweep_parser)

    lb_parser = subparsers.add_parser(
        "lowerbound", help="Theorem 1 budget sweep on the hard instance"
    )
    lb_parser.add_argument("--n", type=int, default=128)
    lb_parser.add_argument(
        "--budgets", type=int, nargs="+", default=[1, 2, 3, 4, 6, 8, 10]
    )
    lb_parser.add_argument("--trials", type=_positive_int, default=60)
    lb_parser.add_argument("--seed", type=int, default=0)

    exp_parser = subparsers.add_parser(
        "experiment", help="run a registered experiment (quick scale)"
    )
    exp_parser.add_argument("id", help="experiment id, e.g. E8 (or 'all')")
    _add_execution_options(exp_parser)
    _add_obs_options(exp_parser)

    campaign_parser = subparsers.add_parser(
        "campaign", help="run a declarative JSON campaign file"
    )
    campaign_parser.add_argument("path", help="path to the campaign JSON")
    campaign_parser.add_argument(
        "--csv", default=None, metavar="PATH", help="also write results as CSV"
    )
    _add_execution_options(campaign_parser)
    _add_obs_options(campaign_parser)

    apps_parser = subparsers.add_parser(
        "apps", help="run a downstream application (backbone | coloring)"
    )
    apps_parser.add_argument("application", choices=("backbone", "coloring"))
    apps_parser.add_argument("--n", type=_positive_int, default=128)
    apps_parser.add_argument("--topology", default="udg")
    apps_parser.add_argument("--seed", type=int, default=0)

    claims_parser = subparsers.add_parser(
        "claims", help="verify the paper's registered claims (machine-checked)"
    )
    claims_sub = claims_parser.add_subparsers(dest="claims_command", required=True)
    claims_list = claims_sub.add_parser(
        "list", help="list the registered claims and their predicates"
    )
    claims_list.add_argument(
        "--quick",
        action="store_true",
        help="show the quick tier's workload scales instead of the full tier",
    )
    claims_verify = claims_sub.add_parser(
        "verify",
        help="adaptively sample trials and produce per-claim verdicts",
    )
    claims_verify.add_argument(
        "claim_ids",
        nargs="*",
        metavar="CLAIM",
        help="claim ids to verify (default: all registered claims)",
    )
    claims_verify.add_argument(
        "--quick",
        action="store_true",
        help="quick tier: smaller sweeps and looser rate bounds (CI scale)",
    )
    claims_verify.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        metavar="TRIALS",
        help="trial budget per workload group; sampling stops (possibly "
        "inconclusive) once a group has spent it",
    )
    claims_verify.add_argument("--seed", type=int, default=0)
    claims_verify.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="claims document path (default: benchmarks/results/CLAIMS.json)",
    )
    _add_execution_options(claims_verify)
    _add_obs_options(claims_verify)
    claims_report = claims_sub.add_parser(
        "report",
        help="render the markdown report from an existing claims document",
    )
    claims_report.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="claims document to read (default: benchmarks/results/CLAIMS.json)",
    )
    claims_report.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the markdown report to a file",
    )

    obs_parser = subparsers.add_parser(
        "obs", help="observability utilities for telemetry JSONL files"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    summarize_parser = obs_sub.add_parser(
        "summarize", help="render a human-readable report from telemetry JSONL"
    )
    summarize_parser.add_argument(
        "paths", nargs="+", metavar="PATH", help="telemetry JSONL file(s)"
    )
    summarize_parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on malformed or unknown records instead of skipping them",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived campaign service (HTTP/JSON API with "
        "global trial dedup; see docs/API.md)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks an ephemeral port (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help="shard worker count; trial keys hash onto shards "
        "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="shared result cache directory (default: .repro-cache); job "
        "state persists under <cache-dir>/service/jobs",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=10_000,
        metavar="N",
        help="per-client budget of concurrently in-flight computed trials "
        "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--submit-rate",
        type=float,
        default=50.0,
        metavar="PER_S",
        help="per-client sustained submissions/second (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--submit-burst",
        type=_positive_int,
        default=100,
        metavar="N",
        help="per-client submission burst size (default: %(default)s)",
    )
    _add_retry_options(serve_parser)

    subparsers.add_parser("list", help="list algorithms/models/experiments")
    return parser


def _command_run(args, constants: ConstantsProfile) -> int:
    protocol = make_protocol(args.algorithm, constants, args.channels)
    model = model_by_name(args.model or DEFAULT_MODEL[args.algorithm])
    graph_factory = lambda seed: make_graph(args.topology, args.n, seed)  # noqa: E731
    seeds = [args.seed + trial for trial in range(args.trials)]
    summary = run_trials(
        graph_factory,
        protocol,
        model,
        seeds,
        graph_spec=f"workload:{args.topology}/n={args.n}",
    )
    print(summary.describe())
    return 0 if summary.failures == 0 else 1


def _command_sweep(args, constants: ConstantsProfile) -> int:
    protocol_name = args.algorithm
    model = model_by_name(args.model or DEFAULT_MODEL[protocol_name])
    result = run_size_sweep(
        args.sizes,
        lambda n, seed: make_graph(args.topology, n, seed),
        lambda n: make_protocol(protocol_name, constants, args.channels),
        model,
        trials=args.trials,
        base_seed=args.seed,
        graph_spec=f"workload:{args.topology}",
    )
    print(result.to_table())
    # The fit's domain: two distinct sizes at least, all >= 4.
    if len(set(args.sizes)) >= 2 and min(args.sizes) >= 4:
        fit = result.fit("max_energy_mean")
        print(
            f"\nmax-energy log-power fit: exponent {fit.exponent:.2f} "
            f"(closest grid power: {fit.model.log_power:g})"
        )
    if args.csv or args.json:
        from .analysis.export import save_text, sweep_to_csv, sweep_to_json

        if args.csv:
            save_text(sweep_to_csv(result), args.csv)
            print(f"wrote {args.csv}")
        if args.json:
            save_text(sweep_to_json(result), args.json)
            print(f"wrote {args.json}")
    return 0


def _command_lowerbound(args, constants: ConstantsProfile) -> int:
    from .analysis.tables import render_table

    report = run_lower_bound_experiment(
        args.n,
        args.budgets,
        SynchronizedCoinStrategy,
        trials=args.trials,
        seed=args.seed,
    )
    columns = ("b", "empirical", "thm1_bound", "pair_bound", "coin_exact")
    rows = [tuple(row[k] for k in columns) for row in report.rows()]
    print(
        render_table(
            ["b", "empirical fail", "Thm1 bound", "pair bound", "coin exact"],
            rows,
            title=f"Theorem 1 sweep (n={report.n}, {args.trials} trials/budget)",
        )
    )
    return 0


def _command_experiment(args, constants: ConstantsProfile) -> int:
    ids = sorted(EXPERIMENTS) if args.id.lower() == "all" else [args.id]
    for experiment_id in ids:
        try:
            spec = get_experiment(experiment_id)
        except KeyError as exc:  # an unknown id: one line, no traceback
            raise SystemExit(exc.args[0]) from None
        print(f"== {spec.experiment_id}: {spec.claim} ==")
        print(spec.run())
        print()
    return 0


def _command_campaign(args, constants: ConstantsProfile) -> int:
    from .analysis.campaign import load_campaign, run_campaign

    spec = load_campaign(args.path)
    result = run_campaign(spec)
    print(result.to_table())
    if args.csv:
        from .analysis.export import save_text

        save_text(result.to_csv(), args.csv)
        print(f"wrote {args.csv}")
    return 0 if result.total_failures == 0 else 1


def _command_apps(args, constants: ConstantsProfile) -> int:
    from .analysis.validation import validate_run
    from .radio.engine import run_protocol
    from .radio.models import CD

    graph = make_graph(args.topology, args.n, args.seed)
    protocol = CDMISProtocol(constants=constants)
    result = run_protocol(graph, protocol, CD, seed=args.seed)
    report = validate_run(result)
    print(f"MIS on {graph.name}: {report.describe()}")
    if not report.valid:
        return 1

    if args.application == "backbone":
        from .applications import build_backbone

        backbone = build_backbone(graph, result.mis)
        sizes = sorted(len(m) for m in backbone.clusters.values())
        print(
            f"backbone: {len(backbone.heads)} clusters "
            f"(sizes {sizes[0]}..{sizes[-1]}), {len(backbone.bridges)} bridges, "
            f"overlay connected: {backbone.overlay_connected_within_components()}"
        )
    else:
        from .applications import iterated_mis_coloring, radio_mis_solver

        solver = radio_mis_solver(lambda: CDMISProtocol(constants=constants), CD)
        colors = iterated_mis_coloring(graph, solver, seed=args.seed)
        print(
            f"coloring: {max(colors.values()) + 1} colors "
            f"(Delta+1 = {graph.max_degree() + 1})"
        )
    return 0


def _command_claims(args, constants: ConstantsProfile) -> int:
    from .claims import registered_claims

    tier = "quick" if getattr(args, "quick", False) else "full"
    registry = registered_claims(tier, constants)

    if args.claims_command == "list":
        print(f"registered claims ({tier} tier):")
        for claim in registry.values():
            experiments = ", ".join(claim.ref.experiments)
            print(f"  {claim.claim_id} [{claim.ref.statement}; {experiments}]")
            print(f"    {claim.title}")
            print(
                f"    strict: {len(claim.strict)} predicate(s), "
                f"shape: {len(claim.shape)}, workload: "
                f"{type(claim.workload).__name__}"
            )
        return 0

    if args.claims_command == "report":
        from .claims import DEFAULT_CLAIMS_PATH, load_claims_json, render_markdown

        document = load_claims_json(args.json or DEFAULT_CLAIMS_PATH)
        markdown = render_markdown(document)
        print(markdown)
        if args.output:
            from .analysis.export import save_text

            save_text(markdown, args.output)
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    # verify
    from .claims import (
        DEFAULT_CLAIMS_PATH,
        build_document,
        render_markdown,
        verify_claims,
        write_claims_json,
    )

    selected = list(registry.values())
    if args.claim_ids:
        unknown = [cid for cid in args.claim_ids if cid not in registry]
        if unknown:
            raise SystemExit(
                f"unknown claim id(s) {unknown}; see 'repro-mis claims list'"
            )
        selected = [registry[cid] for cid in args.claim_ids]

    result = verify_claims(
        selected,
        tier=tier,
        constants=constants,
        profile=args.profile,
        budget=args.budget,
        base_seed=args.seed,
    )
    document = build_document(result)
    path = write_claims_json(document, args.json or DEFAULT_CLAIMS_PATH)
    print(render_markdown(document))
    print(f"wrote {path}", file=sys.stderr)
    counts = result.counts
    if counts.get("inconclusive"):
        print(
            f"warning: {counts['inconclusive']} claim(s) inconclusive "
            f"(budget exhausted before the predicates decided)",
            file=sys.stderr,
        )
    return 1 if counts.get("not-reproduced") else 0


def _command_obs(args, constants: ConstantsProfile) -> int:
    from .obs.export import SchemaError
    from .obs.summary import summarize_files

    try:
        report, count = summarize_files(args.paths, strict=args.strict)
    except (OSError, SchemaError) as exc:
        raise SystemExit(str(exc)) from None
    print(report)
    return 0 if count else 1


def _command_serve(args, constants: ConstantsProfile) -> int:
    from .exec.cache import DEFAULT_CACHE_DIR, ResultCache
    from .service.limits import LimitPolicy
    from .service.server import serve_forever

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    limits = LimitPolicy(
        max_inflight_trials=args.max_inflight,
        submit_rate=args.submit_rate,
        submit_burst=args.submit_burst,
    )
    serve_forever(
        args.host,
        args.port,
        cache,
        workers=args.workers,
        limits=limits,
    )
    return 0


def _command_list(args, constants: ConstantsProfile) -> int:
    print("algorithms:")
    for name in sorted(PROTOCOLS):
        print(f"  {name} (default model: {DEFAULT_MODEL[name]})")
    print("profiles:", ", ".join(sorted(PROFILES)))
    print("experiments:")
    for spec in EXPERIMENTS.values():
        print(f"  {spec.experiment_id}: {spec.claim}")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from contextlib import ExitStack

    parser = build_parser()
    args = parser.parse_args(argv)
    constants = PROFILES[args.profile]()
    handlers = {
        "run": _command_run,
        "sweep": _command_sweep,
        "lowerbound": _command_lowerbound,
        "experiment": _command_experiment,
        "campaign": _command_campaign,
        "claims": _command_claims,
        "apps": _command_apps,
        "obs": _command_obs,
        "serve": _command_serve,
        "list": _command_list,
    }
    handler = handlers[args.command]
    telemetry_path = getattr(args, "telemetry", None)
    cprofile_dir = getattr(args, "cprofile", None)

    try:
        with ExitStack() as stack:
            session = None
            if telemetry_path is not None:
                from .obs.session import TelemetrySession

                session = stack.enter_context(
                    TelemetrySession(
                        telemetry_path, args.command, argv=list(argv or sys.argv[1:])
                    )
                )
            if cprofile_dir is not None:
                from .obs.profiler import DEFAULT_PROFILE_DIR, profile_path, profiled

                scenario = f"cli_{args.command}"
                out_dir = cprofile_dir or DEFAULT_PROFILE_DIR
                table_path = profile_path(scenario, out_dir)
                # Registered before profiled(): ExitStack unwinds LIFO, so
                # this prints only after the table file has been written.
                stack.callback(
                    lambda: print(f"wrote profile {table_path}", file=sys.stderr)
                )
                stack.enter_context(profiled(scenario, out_dir=out_dir))
            if hasattr(args, "trial_timeout"):
                # The only install of the execution settings.  It follows
                # the telemetry session, which watches the cache and
                # receives every battery's progress.  ``serve`` takes only
                # the retry policy; its units and claims jobs set the rest.
                from .exec.executor import execution_defaults

                settings = {"policy": _policy_from_args(args)}
                if hasattr(args, "jobs"):
                    settings.update(
                        jobs=args.jobs,
                        cache=_cache_from_args(args, session),
                        faults=_faults_from_args(args),
                        engine=args.engine,
                        sparsify=args.sparsify,
                        channels=args.channels,
                        progress=session.progress if session else None,
                    )
                stack.enter_context(execution_defaults(**settings))
            return handler(args, constants)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
