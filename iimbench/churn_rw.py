"""Workload ``churn_rw``: writes beside reads and queries over TCP, WAL on.

One online session over ``load_dataset("ca", size=2000)`` — nine
attributes against the engine's default eight-state model cache — on a
``python -m repro serve --wal-dir`` (default ``batch`` sync).  One open
loop at a fixed total rate feeds two connections:

* connection 1 sends every mutation, in order: appends of small held-out
  batches, updates and deletes of live tuples (appends and deletes balance,
  so the store stays near 2000 rows);
* connection 2 sends single-row imputes with the blank cell uniform over
  all nine attributes, and ``query`` statements over a fixed set of
  incomplete rows that set-up parks in the pending side-store, so each
  statement imputes tens of rows in one batch.

Because only connection 1 mutates, the generator keeps an exact shadow of
the store.  After the loop quiesces, the final store must equal the shadow,
imputes must equal a cold refit and every query template must equal a
numpy reference over the shadow plus the cold-imputed pending rows.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from client import ServerProcess
from common import LagTracker, Outcomes, Report, digest, variant_of
from layers import TraceContext, report_layers
from loadgen import (blanked, delta, drain, encode, load_session,
                     run_open_loop, server_counters, warm)
from spans import load_spans

DATASET, STORE_SIZE, WIDTH = "ca", 2000, 9
SESSION = "ca"
HELD_OUT = 8192
#: Incomplete tuples parked in the pending side-store: 14 blanks in each
#: of the 9 attributes, so every query template imputes a fixed row count.
PENDING = 126
#: Arrivals per second of the open loop, evenly spaced, and the 8-second
#: cycle of operation classes they follow: a burst of 8 mutations, then 36
#: imputes and 4 queries.  Bursts leave most reads between them with no
#: pending maintenance, so the impute median is a steady measure of the
#: read path while the reads after a burst pay the lazy sync.  Which
#: tuples, attributes and thresholds each operation uses is drawn from the
#: seed.
RATE = 6.0
CYCLE = ("mutate",) * 8 + (("impute",) * 4 + ("query",) + ("impute",) * 5) * 4
#: Reads are drawn in blocks of 4 s of arrivals, each redrawn until it
#: costs exactly ``REBUILDS_PER_BLOCK`` model-state rebuilds under the
#: engine's LRU cache, so every run pays the same eviction rate.
BLOCK = 24
REBUILDS_PER_BLOCK = 2
MODEL_CACHE_STATES = 8
#: The verbs of one burst, in order.  Appends and deletes move the same
#: number of rows, so the store keeps its starting size; which rows, live
#: tuples and replacement values they use is drawn from the seed.
BURST = ("append", "update", "delete", "update")
BATCH_ROWS = 4
HORIZON_S = 60.0
SETUPS = 3
#: Query templates: statement with ``{x}``/``{y}`` thresholds, the attributes
#: thresholded, and every attribute the statement references.
TEMPLATES: Tuple[Tuple[str, Tuple[int, ...], Tuple[int, ...]], ...] = (
    ("SELECT count(*), avg(A3) WHERE A1 > {x}", (0,), (0, 2)),
    ("SELECT min(A5), max(A7) WHERE A2 < {x}", (1,), (1, 4, 6)),
    ("SELECT count(*), avg(A9) WHERE A4 > {x} AND A6 < {y}", (3, 5),
     (3, 5, 8)),
)


def _draw_read(rng, kind: str, store: np.ndarray,
               template: int) -> Dict[str, object]:
    if kind == "impute":
        return {"op": "impute", "row": int(rng.integers(HELD_OUT // 2, HELD_OUT)),
                "col": int(rng.integers(0, WIDTH))}
    q = rng.uniform(0.3, 0.7)
    return {"op": "query", "template": template,
            "thresholds": [float(np.quantile(store[:, a], q))
                           for a in TEMPLATES[template][1]]}


def model_lookups(read: Dict[str, object], blanks: set) -> List[int]:
    """The attributes whose model state a read looks up, in engine order."""
    if read["op"] == "impute":
        return [read["col"]]
    return sorted(set(TEMPLATES[read["template"]][2]) & blanks)


def lru_misses(cache: List[int], lookups: List[int]) -> Tuple[int, List[int]]:
    """Misses of ``lookups`` against an LRU list (oldest first), and the
    list afterwards."""
    cache = list(cache)
    misses = 0
    for attr in lookups:
        if attr in cache:
            cache.remove(attr)
        else:
            misses += 1
            if len(cache) >= MODEL_CACHE_STATES:
                cache.pop(0)
        cache.append(attr)
    return misses, cache


def _mutation(rng, verb: str, size: int, next_held: int):
    if verb == "append":
        op = {"op": "append",
              "rows": np.arange(next_held, next_held + BATCH_ROWS)}
        return op, size + BATCH_ROWS, next_held + BATCH_ROWS
    if verb == "delete":
        op = {"op": "delete",
              "indices": np.sort(rng.choice(size, BATCH_ROWS, replace=False))}
        return op, size - BATCH_ROWS, next_held
    op = {"op": "update", "index": int(rng.integers(0, size)), "row": next_held}
    return op, size, next_held + 1


def make_inputs(seed: int) -> Dict[str, object]:
    from repro.data import load_dataset

    rng = np.random.default_rng([2, variant_of(seed)])
    read_rng = np.random.default_rng([3, variant_of(seed)])
    store = load_dataset(DATASET, size=STORE_SIZE).raw
    held = load_dataset(DATASET, size=STORE_SIZE + HELD_OUT).raw[STORE_SIZE:]
    pending = held[:PENDING].copy()
    pending[np.arange(PENDING), rng.permutation(np.arange(PENDING) % WIDTH)] = np.nan
    blanks = set(np.flatnonzero(np.isnan(pending).any(axis=0)).tolist())

    count = int(RATE * HORIZON_S)
    offsets = np.arange(count) / RATE
    kinds = [CYCLE[i % len(CYCLE)] for i in range(count)]
    size, next_held = STORE_SIZE, PENDING
    ops: List[Dict[str, object]] = []
    for kind in kinds:
        if kind == "mutate":
            verb = BURST[len(ops) % len(BURST)]
            op, size, next_held = _mutation(rng, verb, size, next_held)
            ops.append(op)
    if next_held >= HELD_OUT // 2:
        raise RuntimeError("the mutation plan outgrew its held-out pool")

    # Set-up warms attributes 0..8 in order, which evicts attribute 0.
    cache = list(range(WIDTH))[-MODEL_CACHE_STATES:]
    reads: List[Dict[str, object]] = []
    for start in range(0, count, BLOCK):
        block_kinds = [k for k in kinds[start:start + BLOCK] if k != "mutate"]
        # Query templates take turns; the rest of each read is drawn.
        first = sum(1 for read in reads if read["op"] == "query")
        templates = [(first + i) % len(TEMPLATES) for i in range(len(block_kinds))]
        for _ in range(10000):
            block, n_queries = [], 0
            for kind in block_kinds:
                block.append(_draw_read(read_rng, kind, store,
                                        templates[n_queries]))
                n_queries += kind == "query"
            lookups = [a for read in block for a in model_lookups(read, blanks)]
            misses, after = lru_misses(cache, lookups)
            if misses == REBUILDS_PER_BLOCK:
                break
        else:
            raise RuntimeError("no read block met the rebuild target")
        reads.extend(block)
        cache = after
    return {"store": store, "held": held, "pending": pending,
            "offsets": offsets, "kinds": kinds, "ops": ops, "reads": reads}


def input_digest(inputs) -> str:
    parts: List[object] = [inputs["store"], inputs["held"], inputs["pending"],
                           inputs["offsets"], inputs["kinds"]]
    for op in inputs["ops"]:
        parts.append({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                      for k, v in op.items()})
    parts.append(inputs["reads"])
    return digest(parts)


def statement(template: int, thresholds) -> str:
    text = TEMPLATES[template][0]
    return text.format(**dict(zip("xy", (repr(t) for t in thresholds))))


# --------------------------------------------------------------------------- #
# Set-up and the loop
# --------------------------------------------------------------------------- #
def _setup(workdir: Path, inputs, params, traced: bool, spans_path: Path):
    started = time.perf_counter()
    server = ServerProcess(workdir, ["--wal-dir", "wal"], traced=traced,
                           spans_path=spans_path)
    writer = server.connect()
    reader = server.connect()
    load_session(writer, SESSION, inputs["store"], params)
    writer.call({"cmd": "append", "session": SESSION,
                 "rows": encode(inputs["pending"])})
    warm(writer, SESSION, inputs["held"][-1], range(WIDTH))
    ready = time.perf_counter()
    return server, writer, reader, ready - started, ready


def _wire_op(op, held) -> Dict[str, object]:
    if op["op"] == "append":
        return {"cmd": "append", "session": SESSION,
                "rows": encode(held[op["rows"]])}
    if op["op"] == "delete":
        return {"cmd": "delete", "session": SESSION,
                "indices": [int(i) for i in op["indices"]]}
    return {"cmd": "update", "session": SESSION, "index": op["index"],
            "row": encode(held[op["row"]])[0]}


def _plan(inputs, writer, reader, first: float, last: float):
    """The requests due in ``[first, last)`` s, on their connections."""
    held = inputs["held"]
    plan = []
    n_ops = n_reads = 0
    for offset, kind in zip(inputs["offsets"], inputs["kinds"]):
        if kind == "mutate":
            op = inputs["ops"][n_ops]
            tag, n_ops = n_ops, n_ops + 1
            request, conn, label = _wire_op(op, held), writer, "mutate"
        else:
            read = inputs["reads"][n_reads]
            tag, n_reads = read, n_reads + 1
            conn = reader
            if read["op"] == "impute":
                request = {"cmd": "impute", "session": SESSION,
                           "rows": encode(blanked(held[read["row"]],
                                                  read["col"]))}
                label = "impute"
            else:
                request = {"cmd": "query", "session": SESSION,
                           "q": statement(read["template"],
                                          read["thresholds"])}
                label = "query"
        if first <= offset < last:
            plan.append((offset - first, conn, request, label, tag))
    return plan


def shadow_store(inputs, n_ops: int) -> np.ndarray:
    """The store after the first ``n_ops`` mutations of the plan."""
    store = inputs["store"].copy()
    held = inputs["held"]
    for op in inputs["ops"][:n_ops]:
        if op["op"] == "append":
            store = np.vstack([store, held[op["rows"]]])
        elif op["op"] == "delete":
            store = np.delete(store, op["indices"], axis=0)
        else:
            store[op["index"]] = held[op["row"]]
    return store


# --------------------------------------------------------------------------- #
# Verification
# --------------------------------------------------------------------------- #
def reference_query(matrix: np.ndarray, template: int, thresholds) -> List[float]:
    """numpy evaluation of one template over a complete matrix."""
    col = {f"A{i + 1}": i for i in range(WIDTH)}
    if template == 0:
        keep = matrix[:, col["A1"]] > thresholds[0]
        return [float(keep.sum()), float(matrix[keep, col["A3"]].mean())]
    if template == 1:
        keep = matrix[:, col["A2"]] < thresholds[0]
        return [float(matrix[keep, col["A5"]].min()),
                float(matrix[keep, col["A7"]].max())]
    keep = ((matrix[:, col["A4"]] > thresholds[0])
            & (matrix[:, col["A6"]] < thresholds[1]))
    return [float(keep.sum()), float(matrix[keep, col["A9"]].mean())]


def _verify(report: Report, writer, inputs, params, n_ops: int) -> None:
    from repro.core.iim import IIMImputer
    from repro.data import Relation

    shadow = shadow_store(inputs, n_ops)
    held = inputs["held"]
    # 1. The final store equals the generator's shadow copy.
    every = writer.call({"cmd": "query", "session": SESSION,
                         "q": "SELECT *"}, kind="verify")
    rows = np.array(every["rows"], dtype=float)
    report.check(rows.shape == (shadow.shape[0] + PENDING, WIDTH),
                 f"store shape {rows.shape} != shadow {shadow.shape} + "
                 f"{PENDING} pending")
    if rows.shape[0] >= shadow.shape[0]:
        report.check(np.array_equal(rows[:shadow.shape[0]], shadow),
                     "final store differs from the generator's shadow copy")
    # 2. Imputes (two per attribute) and the pending rows equal a cold refit.
    probes = np.array([blanked(held[-1 - i], i % WIDTH)
                       for i in range(2 * WIDTH)])
    served = np.array(writer.call({"cmd": "impute", "session": SESSION,
                                   "rows": encode(probes)},
                                  kind="verify")["rows"], dtype=float)
    cold = IIMImputer(**params).fit(Relation(shadow))
    expected = cold.impute(Relation(np.vstack([probes, inputs["pending"]]))).raw
    report.check(np.allclose(served, expected[:len(probes)], rtol=1e-9,
                             atol=0.0),
                 "served imputes differ from a cold refit")
    pending = expected[len(probes):]
    if rows.shape[0] == shadow.shape[0] + PENDING:
        report.check(np.allclose(rows[shadow.shape[0]:], pending, rtol=1e-9,
                                 atol=0.0),
                     "pending rows imputed by the query differ from a cold refit")
    # 3. Each query template equals a numpy reference.
    full = np.vstack([shadow, pending])
    for template, (_, attrs, _) in enumerate(TEMPLATES):
        thresholds = [float(np.median(shadow[:, a])) for a in attrs]
        got = writer.call({"cmd": "query", "session": SESSION,
                           "q": statement(template, thresholds)},
                          kind="verify")["rows"][0]
        want = reference_query(full, template, thresholds)
        report.check(np.allclose(got, want, rtol=1e-9, atol=0.0),
                     f"query template {template}: {got} != numpy {want}")
    report.note("verified_store_rows", shadow.shape[0], "count")


# --------------------------------------------------------------------------- #
# Run
# --------------------------------------------------------------------------- #
def run(inputs, seed: int, seconds: float, traced: bool, workdir: Path,
        params: Dict[str, object]) -> Report:
    report = Report()
    spans_path = workdir / "spans.json"
    setups = []
    rounds = 1 if traced else SETUPS
    for index in range(rounds):
        server, writer, reader, setup_s, ready = _setup(
            workdir / f"setup{index}", inputs, params, traced, spans_path)
        setups.append(setup_s)
        if index < rounds - 1:
            server.stop(writer)
            writer.close()
            reader.close()
    try:
        return _measure(report, server, writer, reader, inputs, params,
                        seconds, traced, setups, spans_path, ready)
    finally:
        server.stop(writer)
        writer.close()
        reader.close()


def _measure(report, server, writer, reader, inputs, params, seconds, traced,
             setups, spans_path, ready) -> Report:
    lag = LagTracker()
    outcomes = Outcomes()
    conns = (writer, reader)
    reference: list = []
    if traced:
        server.record_spans(False)
        reference, _ = run_open_loop(
            _plan(inputs, writer, reader, 0.0, seconds / 2), lag)
        drain(conns)
        server.record_spans(True)
        plan = _plan(inputs, writer, reader, seconds / 2, seconds)
    else:
        plan = _plan(inputs, writer, reader, 0.0, seconds)
    before = server_counters(writer, [SESSION])
    cpu_before = server.cpu_seconds()
    records, _ = run_open_loop(plan, lag)
    drain(conns)
    cpu_s = server.cpu_seconds() - cpu_before
    after = server_counters(writer, [SESSION])
    if traced:
        server.record_spans(False)
    peak_rss = server.peak_rss_mb()

    every = reference + records
    for record in every:
        outcomes.add(record.response)
    report.attempted = outcomes.attempted
    report.failed = outcomes.failed
    n_ops = sum(1 for r in every if r.kind == "mutate")
    ok = [r for r in records if r.response and r.response.get("ok")]
    by_kind = {kind: [r.latency for r in ok if r.kind == kind]
               for kind in ("impute", "mutate", "query")}
    query_rates = [r.response["result"]["rows_imputed"] / r.latency
                   for r in ok if r.kind == "query"]
    cells = len(by_kind["impute"]) + sum(
        r.response["result"]["rows_imputed"] for r in ok if r.kind == "query")
    _verify(report, writer, inputs, params, n_ops)

    if traced:
        ref_impute = [r.latency for r in reference if r.kind == "impute"
                      and r.response and r.response.get("ok")]
        server.stop(writer)
        dump = json.loads(spans_path.read_text())
        report_layers(report, TraceContext(
            spans=load_spans(dump),
            measured={r.rid for r in records},
            setup_end=ready,
            units=len(records),
            mutations=sum(1 for r in records if r.kind == "mutate"),
            statements=len(by_kind["query"]),
            queue_waits=[tuple(q) for q in dump["queue_waits"]],
            main_session=SESSION,
            client=[(r.rid, r.done - r.sent) for r in ok
                    if r.kind == "impute"],
            counters=delta(after, before),
            lag=lag,
            traced_p50=statistics.median(by_kind["impute"]),
            untraced_p50=statistics.median(ref_impute),
            absent={},
        ))
        return report
    report.metric("setup_s", statistics.median(setups), "s", len(setups),
                  "spawn -> fitted, pending parked, all 9 attributes warmed; "
                  "median")
    report.metric("peak_rss_mb", peak_rss, "MB", 1, "server VmHWM")
    report.latency("impute", by_kind["impute"], gated="main_p50_ms")
    report.latency("mutate", by_kind["mutate"], gated="side_p50_ms")
    report.latency("query", by_kind["query"])
    report.metric("cells_per_s", cells / cpu_s, "1/s", len(ok),
                  f"{cells} imputed cells per server CPU-second "
                  f"({cpu_s:.2f} s CPU)")
    report.note("query_cells_per_s", statistics.median(query_rates), "1/s",
                len(query_rates),
                "cells one query imputes per second of its latency; median")
    report.note("failed_frac", outcomes.failed_frac, "share",
                outcomes.attempted, str(outcomes.errors or ""))
    report.note("loadgen_lag_p99_ms", lag.p99_ms(), "ms", len(lag.lags))
    engine = delta(after, before)["engine"][SESSION]
    lookups = engine["cache_hits"] + engine["cache_misses"]
    report.note("cache_hit_ratio", engine["cache_hits"] / max(lookups, 1),
                "share", int(lookups))
    report.note("cache_evictions", engine["cache_evictions"], "count")
    report.note("mutations", n_ops, "count")
    return report
