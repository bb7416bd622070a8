"""The consolidated command-line interface: ``python -m repro``.

Four subcommands front the whole library through the :mod:`repro.api`
service layer:

* ``impute`` — one-shot batch imputation of a CSV file with any registry
  method (``python -m repro impute dirty.csv --method IIM --output clean.csv``);
* ``replay`` — the streaming/lifecycle CSV-trace replay against the online
  engine;
* ``serve`` — the JSONL serve loop over stdio or a TCP socket
  (``python -m repro serve --stdio``, ``python -m repro serve --port 7007``),
  with crash-safe durability via ``--wal-dir`` and request hardening via
  ``--deadline`` / ``--max-request-bytes``;
* ``recover`` — rebuild an online session from a write-ahead log (plus the
  last checkpoint, when one exists) after a crash, and optionally write a
  fresh checkpoint (``python -m repro recover wal/s --output ckpt``);
* ``bench`` — the service-layer benchmark (facade overhead + serve-loop
  throughput + concurrency sweep + observability overhead + query
  impute-on-demand cost), written to ``BENCH_api.json``;
* ``metrics-dump`` — print the standard metric catalogue of the
  observability layer (``python -m repro metrics-dump --format
  prometheus``), zero-valued in a fresh process — the reference for what a
  live ``metrics`` serve command can return;
* ``scenario`` — the parametric workload registry: ``scenario list`` the
  built-in specs, ``scenario describe NAME`` one spec and its generator's
  parameter schema, ``scenario replay NAME`` a spec through the engine or
  the full serve loop with cold-refit verification, and ``scenario trace
  NAME`` the deterministic trace digest (``--output`` writes the canonical
  trace bytes).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exceptions import ReproError

PROG = "python -m repro"


def _parse_override(token: str):
    """Parse one ``--set key=value`` override (numbers stay numeric)."""
    if "=" not in token:
        raise ReproError(
            f"--set expects key=value, got {token!r}"
        )
    key, raw = token.split("=", 1)
    value: object = raw
    lowered = raw.strip().lower()
    if lowered in ("none", "null"):
        value = None
    elif lowered in ("true", "false"):
        value = lowered == "true"
    else:
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
    return key.strip(), value


def _cmd_impute(args) -> int:
    from .api import BatchSession
    from .data.io import read_csv, write_csv

    try:
        overrides = dict(_parse_override(token) for token in args.set or [])
        session = BatchSession(args.method, **overrides)
        relation = read_csv(args.csv, has_header=not args.no_header)
        if relation.n_missing_cells == 0:
            print(f"{args.csv}: no missing cells; nothing to impute")
            imputed = relation
        else:
            session.fit(relation)
            imputed = session.impute_relation(relation)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = session.stats()
    print(
        f"method {stats['method']} imputed {stats['counters']['imputed_cells']} "
        f"cells across {relation.n_tuples} tuples "
        f"(fitted on {stats['n_tuples']} complete tuples)"
    )
    if args.output:
        write_csv(imputed, args.output)
        print(f"imputed relation written to {args.output}")
    return 0


def _cmd_replay(args, extras) -> int:
    from .online.cli import main as replay_main

    return replay_main(extras, prog=f"{PROG} replay")


def _cmd_serve(args) -> int:
    from .api.serve import SessionServer, serve_stdio, serve_tcp
    from .config import KNOBS

    try:
        # A malformed REPRO_* variable fails here, not in the first request
        # (or the shutdown path) that happens to read the knob.
        for knob in KNOBS.values():
            knob.get()
        # Wire-supplied save/restore paths are confined to the artifact
        # root (default: the working directory) so clients cannot touch the
        # rest of the filesystem.
        server = SessionServer(
            artifact_root=args.artifact_root,
            wal_root=args.wal_dir,
            wal_sync=args.sync,
            deadline_seconds=args.deadline,
            max_request_bytes=args.max_request_bytes,
            trace_log=args.trace_log,
            trace_sample=args.trace_sample,
            workers=args.workers,
            microbatch_window_ms=args.microbatch_window_ms,
            microbatch_max_rows=args.microbatch_max_rows,
            max_rows_per_request=args.max_rows_per_request,
            max_sessions=args.max_sessions,
            max_queued_requests=args.max_queued_requests,
            auth_token=args.auth_token,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.port is not None:
        print(
            f"serving JSONL sessions on {args.host}:{args.port} "
            f"(send {{\"cmd\": \"shutdown\"}} to stop)",
            file=sys.stderr,
        )
        return serve_tcp(args.host, args.port, server)
    return serve_stdio(server=server)


def _cmd_repl(args) -> int:
    from .api.repl import run_repl

    try:
        return run_repl(
            args.connect,
            artifact_root=args.artifact_root,
            token=args.auth_token,
            session=args.session,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_recover(args) -> int:
    from .api.sessions import recover_session

    try:
        session, report = recover_session(
            args.wal_dir,
            checkpoint=args.checkpoint,
            # Recovery only reads; reattach the WAL solely when we are about
            # to checkpoint (--output), which truncates it afterwards.
            reattach=args.output is not None,
        )
        if args.output is not None:
            report["output"] = str(session.save(args.output))
            session.close()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(
        f"recovered session from {args.wal_dir}: replayed "
        f"{report['replayed_ops']} WAL op(s) "
        f"(skipped {report['skipped_ops']} already in the checkpoint) "
        f"onto checkpoint {report['checkpoint'] or '<none>'}; "
        f"{report['n_tuples']} tuples live"
    )
    if report["torn_tail"]:
        torn = report["torn_tail"]
        print(
            f"torn WAL tail truncated at {torn['segment']} offset "
            f"{torn['offset']} ({torn['reason']})"
        )
    if args.output is not None:
        print(
            f"fresh checkpoint written to {report['output']} "
            f"(the WAL was truncated; old segments are gone)"
        )
    return 0


def _cmd_bench(args) -> int:
    from .api.bench import run_api_benchmark
    from .experiments.settings import get_profile

    profile = get_profile(args.profile) if args.profile else None
    report = run_api_benchmark(profile=profile)
    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    overhead = report["facade_overhead"]
    throughput = report["serve_throughput"]
    print(
        f"facade overhead: session {overhead['session_seconds']:.4f}s vs "
        f"direct {overhead['direct_seconds']:.4f}s "
        f"(x{overhead['overhead_ratio']:.3f}, bit-identical)"
    )
    print(
        f"serve throughput: {throughput['single_requests_per_second']:,.0f} "
        f"single-row req/s; {throughput['batched_requests_per_second']:,.0f} "
        f"batched req/s ({throughput['batched_rows_per_second']:,.0f} rows/s "
        f"at batch {throughput['batch_size']})"
    )
    concurrency = report["serve_concurrency"]
    at4 = {
        mode: entry["by_clients"]["4"]["aggregate_requests_per_second"]
        for mode, entry in concurrency["modes"].items()
    }
    print(
        f"serve concurrency (4 clients): "
        f"baseline {at4['baseline_single_lock']:,.0f} req/s; "
        f"concurrent {at4['concurrent']:,.0f} req/s; "
        f"coalesced {at4['coalesced']:,.0f} req/s "
        f"(best x{concurrency['best_speedup_at_4_clients']:.2f} vs "
        f"single lock)"
    )
    obs = report["obs_overhead"]
    print(
        f"obs overhead: facade disabled x{obs['facade_disabled_ratio']:.3f} / "
        f"enabled x{obs['facade_enabled_ratio']:.3f} vs no-op; serve single "
        f"enabled x{obs['serve_single_enabled_ratio']:.3f} vs disabled"
    )
    query = report["query_ondemand"]
    print(
        f"query on-demand ({query['touched_rows']} of "
        f"{query['pending_rows']} pending rows touched): "
        f"{query['ondemand_seconds'] * 1e3:.2f}ms vs touched-only "
        f"pre-impute x{query['ondemand_vs_touched_ratio']:.3f}; "
        f"full materialize would cost "
        f"x{query['full_vs_ondemand_speedup']:.2f} more"
    )
    print(f"report written to {path}")
    return 0


def _scenario_spec(args):
    """Resolve the spec a ``scenario`` subcommand operates on."""
    from .scenarios import ScenarioSpec, get

    if getattr(args, "spec", None):
        return ScenarioSpec.from_json(Path(args.spec).read_text())
    return get(args.name)


def _cmd_scenario(args) -> int:
    from .scenarios import (
        describe_schema,
        generate_trace,
        get,
        golden_digest,
        registry,
        replay,
    )

    try:
        if args.scenario_command == "list":
            names = registry.list()
            if args.names:
                for name in names:
                    print(name)
                return 0
            rows = [
                {
                    "name": name,
                    "generator": get(name).generator,
                    "seed": get(name).seed,
                    "golden_digest": golden_digest(name),
                    "description": get(name).description,
                }
                for name in names
            ]
            if args.json:
                print(json.dumps(rows, indent=2))
                return 0
            width = max(len(row["name"]) for row in rows)
            for row in rows:
                print(
                    f"{row['name']:<{width}}  {row['generator']:<12} "
                    f"{row['description']}"
                )
            return 0

        if args.scenario_command == "describe":
            spec = _scenario_spec(args)
            payload = {
                "spec": spec.to_dict(),
                "schema": [dict(row) for row in
                           describe_schema(spec.generator)],
                "golden_digest": golden_digest(spec.name),
            }
            print(json.dumps(payload, indent=2))
            return 0

        if args.scenario_command == "trace":
            spec = _scenario_spec(args)
            trace = generate_trace(spec)
            if args.output:
                Path(args.output).write_bytes(trace.to_bytes())
            print(json.dumps({
                "scenario": spec.name,
                "digest": trace.digest(),
                "n_sessions": len(trace.sessions),
                "n_steps": len(trace.steps),
                "n_rounds": trace.n_rounds,
                "golden_digest": golden_digest(spec.name),
                "output": args.output,
            }, indent=2))
            return 0

        # replay
        spec = _scenario_spec(args)
        report = replay(
            spec,
            transport=args.transport,
            verify=not args.no_verify,
            run_cold=not args.no_cold,
            check_digest=False if args.no_digest_check else None,
            isolate_obs=True,
        )
        payload = report.as_dict()
        if args.output:
            Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(
            f"scenario {report.scenario}: {report.n_rounds} round(s) over "
            f"{len(report.session_stats)} session(s) via {report.transport}; "
            f"verified={report.verified} "
            f"(max |online-cold| = {report.max_abs_diff:.3g}); "
            f"online {report.online_seconds:.3f}s"
            + (
                f", cold {report.cold_seconds:.3f}s "
                f"(speedup x{report.speedup:.2f})"
                if not args.no_cold else ""
            )
        )
        for phase in sorted(report.phase_summaries):
            summary = report.phase_summaries[phase]
            print(
                f"  {phase:<22} n={summary['count']:<5} "
                f"p50={summary['p50']:.6f}s p95={summary['p95']:.6f}s "
                f"p99={summary['p99']:.6f}s"
            )
        if args.output:
            print(f"report written to {args.output}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_metrics_dump(args) -> int:
    from .obs import get_registry

    registry = get_registry()
    if args.format == "prometheus":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(json.dumps(registry.snapshot(), indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Unified CLI over the repro imputation service layer.",
    )
    commands = parser.add_subparsers(dest="command")

    impute = commands.add_parser(
        "impute", help="impute a CSV relation with any registry method"
    )
    impute.add_argument("csv", help="CSV file with missing cells")
    impute.add_argument(
        "--method", default="IIM", help="registry method name (default: IIM)"
    )
    impute.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="constructor override, repeatable (e.g. --set k=5)",
    )
    impute.add_argument(
        "--no-header", action="store_true", help="the CSV file has no header row"
    )
    impute.add_argument("--output", metavar="CSV", help="write the imputed relation")

    commands.add_parser(
        "replay",
        help="replay a CSV trace against the online engine "
        "(see 'replay --help' for its arguments)",
        add_help=False,
    )

    serve = commands.add_parser("serve", help="run the JSONL session server")
    transport = serve.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve newline-delimited JSON over stdin/stdout (default)",
    )
    transport.add_argument("--port", type=int, help="serve over a TCP socket")
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--artifact-root", default=".", metavar="DIR",
        help="directory save/restore paths are confined to (default: the "
        "working directory)",
    )
    serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="write-ahead-log root: every online session logs its mutations "
        "to DIR/<session>/ so they survive a crash (default: no WAL)",
    )
    serve.add_argument(
        "--sync", default="default", metavar="POLICY",
        help="WAL fsync policy: always|batch|off "
        "(default: REPRO_WAL_SYNC or 'batch')",
    )
    serve.add_argument(
        "--deadline", default="default", metavar="SECONDS",
        help="per-request deadline in seconds; overruns answer a 'deadline' "
        "error (default: REPRO_REQUEST_DEADLINE or none)",
    )
    serve.add_argument(
        "--max-request-bytes", default="default", metavar="N",
        help="bound on one request line; longer lines answer a 'protocol' "
        "error (default: REPRO_MAX_REQUEST_BYTES or 1048576)",
    )
    serve.add_argument(
        "--workers", default="default", metavar="N",
        help="worker threads draining session queues; sessions run "
        "concurrently, one session's requests stay ordered "
        "(default: REPRO_SERVE_WORKERS or 4)",
    )
    serve.add_argument(
        "--microbatch-window-ms", default="default", metavar="MS",
        help="how long to hold a single-row impute open for coalescible "
        "followers; 0 coalesces only already-queued requests "
        "(default: REPRO_MICROBATCH_WINDOW_MS or 0)",
    )
    serve.add_argument(
        "--microbatch-max-rows", default="default", metavar="N",
        help="most rows one coalesced impute batch may carry "
        "(default: REPRO_MICROBATCH_MAX_ROWS or 64)",
    )
    serve.add_argument(
        "--max-rows-per-request", default="default", metavar="N",
        help="per-request row quota; larger requests answer a 'quota' "
        "error (default: REPRO_MAX_ROWS_PER_REQUEST or none)",
    )
    serve.add_argument(
        "--max-sessions", default="default", metavar="N",
        help="live-session quota; further create/restore answers a "
        "'quota' error (default: REPRO_MAX_SESSIONS or none)",
    )
    serve.add_argument(
        "--max-queued-requests", default="default", metavar="N",
        help="bound on one session's queued requests; excess answers an "
        "'overloaded' error (default: REPRO_MAX_QUEUED_REQUESTS or 256)",
    )
    serve.add_argument(
        "--auth-token", default=None, metavar="SECRET",
        help="shared-secret auth: every request must carry a matching "
        "'token' field or is answered an 'auth' error (default: no auth)",
    )
    serve.add_argument(
        "--trace-log", default=None, metavar="DIR",
        help="persist sampled request traces as rotated JSONL segments "
        "under DIR (default: in-memory ring only)",
    )
    serve.add_argument(
        "--trace-sample", default="default", metavar="RATE",
        help="fraction of requests whose span tree is captured, in [0, 1] "
        "(default: REPRO_OBS_TRACE_SAMPLE or 0.1; metrics stay complete "
        "for every request regardless)",
    )

    repl = commands.add_parser(
        "repl",
        help="interactive query REPL (statements end with ';'; \\help "
        "lists meta-commands)",
    )
    repl.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="speak to a running TCP serve loop instead of an in-process "
        "server",
    )
    repl.add_argument(
        "--artifact-root", default=".", metavar="DIR",
        help="save/restore confinement for the in-process server "
        "(default: the working directory)",
    )
    repl.add_argument(
        "--auth-token", default=None, metavar="SECRET",
        help="token sent with every request (for servers started with "
        "--auth-token)",
    )
    repl.add_argument(
        "--session", default=None, metavar="NAME",
        help="session to \\use on startup (default: none selected)",
    )

    recover = commands.add_parser(
        "recover",
        help="rebuild an online session from its write-ahead log after a crash",
    )
    recover.add_argument(
        "wal_dir", help="the session's WAL directory (e.g. wal/<session>)"
    )
    recover.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="last saved artifact to replay the WAL tail onto "
        "(default: WAL-only recovery from the logged config)",
    )
    recover.add_argument(
        "--output", default=None, metavar="PATH",
        help="write a fresh checkpoint of the recovered session; this "
        "truncates the WAL, so keep a copy if you need the old segments",
    )
    recover.add_argument(
        "--json", action="store_true", help="print the recovery report as JSON"
    )

    bench = commands.add_parser(
        "bench", help="measure facade overhead and serve-loop throughput"
    )
    bench.add_argument(
        "--profile", default=None, help="scale profile (smoke|bench|paper)"
    )
    bench.add_argument(
        "--output", default="BENCH_api.json",
        help="report path (default: BENCH_api.json)",
    )

    scenario = commands.add_parser(
        "scenario",
        help="list, describe, trace, and replay parametric workload "
        "scenarios from the registry",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_list = scenario_commands.add_parser(
        "list", help="list the registered scenarios"
    )
    scenario_list.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    scenario_list.add_argument(
        "--names", action="store_true",
        help="one bare name per line (for shell loops)",
    )

    def _spec_args(sub):
        sub.add_argument(
            "name", nargs="?", default=None,
            help="registered scenario name (omit with --spec)",
        )
        sub.add_argument(
            "--spec", default=None, metavar="JSON",
            help="load the scenario spec from a JSON file instead of the "
            "registry",
        )

    scenario_describe = scenario_commands.add_parser(
        "describe",
        help="print one spec and its generator's parameter schema as JSON",
    )
    _spec_args(scenario_describe)

    scenario_replay = scenario_commands.add_parser(
        "replay",
        help="replay a scenario with cold-refit verification and per-phase "
        "latency percentiles",
    )
    _spec_args(scenario_replay)
    scenario_replay.add_argument(
        "--transport", default=None,
        choices=("auto", "engine", "serve", "tcp"),
        help="how to drive the trace (default: REPRO_SCENARIO_TRANSPORT or "
        "'auto' — serve loop for multi-tenant scenarios, direct engine "
        "otherwise)",
    )
    scenario_replay.add_argument(
        "--no-verify", action="store_true",
        help="report divergence from the cold oracle instead of failing",
    )
    scenario_replay.add_argument(
        "--no-cold", action="store_true",
        help="skip the cold-refit oracle entirely (pure latency run)",
    )
    scenario_replay.add_argument(
        "--no-digest-check", action="store_true",
        help="skip the golden trace digest pre-check",
    )
    scenario_replay.add_argument(
        "--output", default=None, metavar="JSON",
        help="write the full replay report (steps, phases, stats) as JSON",
    )

    scenario_trace = scenario_commands.add_parser(
        "trace",
        help="generate a scenario's deterministic trace and print its digest",
    )
    _spec_args(scenario_trace)
    scenario_trace.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the canonical trace bytes to FILE",
    )

    metrics_dump = commands.add_parser(
        "metrics-dump",
        help="print the observability metric catalogue (JSON or Prometheus "
        "text); zero-valued in a fresh process",
    )
    metrics_dump.add_argument(
        "--format", default="json", choices=("json", "prometheus"),
        help="output format (default: json)",
    )

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # `replay` forwards everything after the subcommand to the trace-replay
    # parser unchanged, so the deprecated entry point and the consolidated
    # CLI accept identical arguments.
    if argv and argv[0] == "replay":
        return _cmd_replay(None, argv[1:])
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "impute":
        return _cmd_impute(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "repl":
        return _cmd_repl(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "metrics-dump":
        return _cmd_metrics_dump(args)
    if args.command == "scenario":
        if (
            args.scenario_command != "list"
            and args.name is None
            and not getattr(args, "spec", None)
        ):
            parser.error(
                f"scenario {args.scenario_command}: a scenario name or "
                f"--spec FILE is required"
            )
        return _cmd_scenario(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
