"""Per-layer metrics of a traced run, from spans and the program's counters.

Every traced run reports every metric in :data:`PER_LAYER`.  A layer a
workload does not exercise reports ``0`` with the reason in the printed
detail.  Time metrics are self time: a span's duration minus what its
child spans cover, so nested layers are not counted twice.  Unless a name
says otherwise, a layer's time is summed over the measured phase and
divided by the *units* served there: requests answered on the TCP
workloads, offline rounds on ``bulk_impute``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from common import LagTracker, Report, percentile, tail_percentile
from spans import Span, layer_totals, self_times

#: (name, unit, better) of every per-layer metric, in the order printed.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serve.outside_ms", "ms", "lower"),
    ("serve.handle_ms", "ms", "lower"),
    ("scheduling.queue_wait_p50_ms", "ms", "lower"),
    ("scheduling.queue_wait_tail_ms", "ms", "lower"),
    ("scheduling.small_queue_wait_p50_ms", "ms", "lower"),
    ("scheduling.small_queue_wait_tail_ms", "ms", "lower"),
    ("scheduling.rows_per_batch", "rows", "higher"),
    ("scheduling.overloaded", "count", "lower"),
    ("messages.decode_ms", "ms", "lower"),
    ("messages.encode_ms", "ms", "lower"),
    ("messages.setup_decode_s", "s", "lower"),
    ("sessions.impute_self_ms", "ms", "lower"),
    ("sessions.mutate_self_ms", "ms", "lower"),
    ("query.parse_ms", "ms", "lower"),
    ("query.plan_ms", "ms", "lower"),
    ("query.impute_ms", "ms", "lower"),
    ("query.evaluate_ms", "ms", "lower"),
    ("query.rows_imputed_per_statement", "rows", "lower"),
    ("engine.impute_self_ms", "ms", "lower"),
    ("engine.sync_ms_per_mutation", "ms", "lower"),
    ("engine.append_ms", "ms", "lower"),
    ("engine.cache_hit_ratio", "share", "higher"),
    ("engine.rows_refreshed_per_mutation", "rows", "lower"),
    ("engine.full_refreshes", "count", "lower"),
    ("engine.hybrid_full_rebuilds", "count", "lower"),
    ("store.gather_ms", "ms", "lower"),
    ("store.topk_ms", "ms", "lower"),
    ("store.shards_per_query", "count", "lower"),
    ("neighbors.order_ms", "ms", "lower"),
    ("neighbors.search_ms", "ms", "lower"),
    ("neighbors.setup_order_s", "s", "lower"),
    ("core.learn_ms", "ms", "lower"),
    ("core.impute_ms", "ms", "lower"),
    ("core.setup_learn_s", "s", "lower"),
    ("wal.log_ms", "ms", "lower"),
    ("wal.bytes_per_op", "bytes", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

SYNC_PHASES = ("order_maintenance", "subset_relearn", "cost_rebuild",
               "full_rebuild")


@dataclass
class TraceContext:
    """What one traced run hands to :func:`report_layers`."""

    spans: List[Span]
    #: Request ids of the measured (traced) phase; ``None`` = every span.
    measured: Optional[Set[object]] = None
    #: Spans starting before this clock reading belong to set-up.
    setup_end: float = float("-inf")
    units: int = 1
    unit_name: str = "request"
    mutations: int = 0
    statements: int = 0
    queue_waits: Sequence[Tuple[object, str, float]] = ()
    #: Request ids whose queue waits are reported; ``None`` = ``measured``.
    queued: Optional[Set[object]] = None
    main_session: str = ""
    small_session: str = ""
    #: (request id, client seconds from send to answer) for serve.outside_ms.
    client: Sequence[Tuple[object, float]] = ()
    #: Deltas of the program's counters over the measured phase.
    counters: Dict[str, object] = field(default_factory=dict)
    #: Scheduler counter deltas over the phase ``rows_per_batch`` reads.
    batch_counters: Optional[Dict[str, object]] = None
    lag: Optional[LagTracker] = None
    traced_p50: Optional[float] = None
    untraced_p50: Optional[float] = None
    absent: Dict[str, str] = field(default_factory=dict)


def _safe(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(ctx: TraceContext) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, detail)``."""
    spans = ctx.spans
    selves = self_times(spans)
    measured = (lambda s: True) if ctx.measured is None else (
        lambda s: s.start >= ctx.setup_end
        and any(r in ctx.measured for r in s.requests))
    setup = lambda s: s.start < ctx.setup_end  # noqa: E731
    totals = layer_totals(spans, selves, measured)
    at_setup = layer_totals(spans, selves, setup)

    def self_ms(name: str, den: float) -> float:
        return _safe(totals.get(name, {}).get("self", 0.0) * 1000.0, den)

    def mean_ms(name: str, key: str = "total") -> float:
        entry = totals.get(name)
        return _safe(entry[key] * 1000.0, entry["calls"]) if entry else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    per = f"ms of self time per {ctx.unit_name}"

    # --- api.serve --------------------------------------------------------
    handle: Dict[object, float] = defaultdict(float)
    handle_durations = []
    for span in spans:
        if span.name == "serve.handle" and measured(span):
            handle_durations.append(span.end - span.start)
            for rid in span.requests:
                handle[rid] = span.end - span.start
    waits = {rid: wait for rid, _, wait in ctx.queue_waits}
    outside = [
        latency - waits[rid] - handle[rid]
        for rid, latency in ctx.client if rid in waits and rid in handle
    ]
    out["serve.outside_ms"] = (
        (percentile(outside, 50) * 1000.0, f"p50 of {len(outside)}")
        if outside else (0.0, ctx.absent.get("serve", "no TCP requests")))
    out["serve.handle_ms"] = (
        (percentile(handle_durations, 50) * 1000.0,
         f"p50 of {len(handle_durations)}")
        if handle_durations else (0.0, ctx.absent.get("serve", "no TCP requests")))

    # --- api.scheduling ---------------------------------------------------
    queued = ctx.measured if ctx.queued is None else ctx.queued
    for prefix, session in (("", ctx.main_session),
                            ("small_", ctx.small_session)):
        sample = [w for rid, key, w in ctx.queue_waits
                  if key == session and (queued is None or rid in queued)]
        if sample:
            tail = tail_percentile(len(sample))
            out[f"scheduling.{prefix}queue_wait_p50_ms"] = (
                percentile(sample, 50) * 1000.0, f"{session}, n={len(sample)}")
            out[f"scheduling.{prefix}queue_wait_tail_ms"] = (
                percentile(sample, tail) * 1000.0 if tail else 0.0,
                f"{session}, p{tail} of {len(sample)}")
        else:
            reason = ("no second tenant" if prefix else
                      ctx.absent.get("serve", "no queued requests"))
            out[f"scheduling.{prefix}queue_wait_p50_ms"] = (0.0, reason)
            out[f"scheduling.{prefix}queue_wait_tail_ms"] = (0.0, reason)
    sched = (ctx.batch_counters or ctx.counters).get("scheduler", {})
    out["scheduling.rows_per_batch"] = (
        _safe(sched.get("rows_coalesced", 0), sched.get("batches", 0)),
        f"rows_coalesced / batches over {sched.get('batches', 0)} batches")
    out["scheduling.overloaded"] = (
        float(ctx.counters.get("scheduler", {}).get("rejected_overloaded", 0)),
        "scheduler rejected_overloaded")

    # --- api.messages / api.sessions ---------------------------------------
    out["messages.decode_ms"] = (self_ms("messages.decode", ctx.units), per)
    out["messages.encode_ms"] = (self_ms("messages.encode", ctx.units), per)
    out["messages.setup_decode_s"] = (
        at_setup.get("messages.decode", {}).get("self", 0.0),
        "decode_rows during set-up (fit payloads)")
    out["sessions.impute_self_ms"] = (
        mean_ms("sessions.impute", "self"), "per OnlineSession.impute call")
    out["sessions.mutate_self_ms"] = (
        mean_ms("sessions.mutate", "self"), "per OnlineSession.mutate call")

    # --- query -------------------------------------------------------------
    obs = ctx.counters.get("obs", {})
    n_stmt = ctx.statements
    stmt_note = f"per statement, {n_stmt} statements"
    out["query.parse_ms"] = (
        _safe(totals.get("query.parse", {}).get("total", 0.0) * 1000.0, n_stmt),
        stmt_note + " (prepared-statement cache hits skip parsing)")
    out["query.plan_ms"] = (
        _safe(totals.get("query.plan", {}).get("total", 0.0) * 1000.0, n_stmt),
        stmt_note)
    for phase in ("impute", "evaluate"):
        out[f"query.{phase}_ms"] = (
            _safe(obs.get(f"repro_query_seconds{{phase={phase}}}", 0.0)
                  * 1000.0, n_stmt),
            stmt_note + f", repro_query_seconds{{phase={phase}}}")
    out["query.rows_imputed_per_statement"] = (
        _safe(obs.get("repro_query_rows_total{kind=imputed}", 0.0), n_stmt),
        stmt_note)

    # --- online.engine -------------------------------------------------------
    engine = ctx.counters.get("engine", {})

    def engine_sum(key: str) -> float:
        return float(sum(stats.get(key, 0) for stats in engine.values()))

    n_mut = ctx.mutations
    mut_note = f"per mutation, {n_mut} mutations"
    out["engine.impute_self_ms"] = (
        mean_ms("engine.impute_batch", "self"),
        "per impute_batch call, minus store/core/sync children")
    sync_s = sum(obs.get(f"repro_engine_phase_seconds{{phase={p}}}", 0.0)
                 for p in SYNC_PHASES)
    out["engine.sync_ms_per_mutation"] = (
        _safe(sync_s * 1000.0, n_mut), mut_note + ", engine phase sums")
    out["engine.append_ms"] = (mean_ms("engine.append"), "per append call")
    hits, misses = engine_sum("cache_hits"), engine_sum("cache_misses")
    out["engine.cache_hit_ratio"] = (
        _safe(hits, hits + misses),
        f"{int(hits)} hits / {int(hits + misses)} lookups")
    out["engine.rows_refreshed_per_mutation"] = (
        _safe(engine_sum("rows_refreshed"), n_mut), mut_note)
    out["engine.full_refreshes"] = (engine_sum("full_refreshes"), "count")
    out["engine.hybrid_full_rebuilds"] = (
        engine_sum("hybrid_full_rebuilds"), "count")
    if not engine:
        for name in ("engine.cache_hit_ratio", "engine.full_refreshes",
                     "engine.hybrid_full_rebuilds"):
            out[name] = (0.0, ctx.absent.get("engine", "no online engine"))

    # --- online.store --------------------------------------------------------
    out["store.gather_ms"] = (self_ms("store.gather", ctx.units), per)
    out["store.topk_ms"] = (self_ms("store.topk", ctx.units), per)
    gathers: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.name == "store.gather" and span.parent >= 0:
            gathers[span.parent] += 1
    topk = [i for i, s in enumerate(spans)
            if s.name == "store.topk" and measured(s)]
    out["store.shards_per_query"] = (
        _safe(sum(gathers[i] for i in topk), len(topk)),
        f"store blocks gathered per sharded_topk call, {len(topk)} calls")

    # --- neighbors / core ------------------------------------------------------
    out["neighbors.order_ms"] = (self_ms("neighbors.order", ctx.units), per)
    out["neighbors.search_ms"] = (self_ms("neighbors.search", ctx.units), per)
    out["neighbors.setup_order_s"] = (
        at_setup.get("neighbors.order", {}).get("self", 0.0),
        "neighbour ordering during set-up")
    out["core.learn_ms"] = (self_ms("core.learn", ctx.units), per)
    out["core.impute_ms"] = (self_ms("core.impute", ctx.units), per)
    out["core.setup_learn_s"] = (
        at_setup.get("core.learn", {}).get("self", 0.0),
        "model learning during set-up")

    # --- reliability.wal -------------------------------------------------------
    wal_bytes = obs.get("repro_wal_bytes_total{}", 0.0)
    out["wal.log_ms"] = (
        _safe(totals.get("wal.log", {}).get("self", 0.0) * 1000.0, n_mut),
        mut_note if n_mut else ctx.absent.get("wal", "no WAL"))
    out["wal.bytes_per_op"] = (
        _safe(wal_bytes, n_mut),
        mut_note if n_mut else ctx.absent.get("wal", "no WAL"))

    # --- harness ---------------------------------------------------------------
    lag = ctx.lag
    out["loadgen.lag_p99_ms"] = (
        (lag.p99_ms(), f"n={len(lag.lags)}") if lag and lag.lags
        else (0.0, "no open-loop generator"))
    out["trace.overhead_ratio"] = (
        (_safe(ctx.traced_p50, ctx.untraced_p50),
         f"traced p50 {ctx.traced_p50 * 1000:.3f} ms / untraced "
         f"{ctx.untraced_p50 * 1000:.3f} ms")
        if ctx.traced_p50 and ctx.untraced_p50 else (0.0, "not measured"))
    return out


def report_layers(report: Report, ctx: TraceContext) -> None:
    values = compute(ctx)
    for name, unit, _ in PER_LAYER:
        value, detail = values[name]
        report.metric(name, value, unit, None, detail)
