"""Workload ``point_read``: single-row imputes over TCP, no writes.

Two tenants on one ``python -m repro serve`` (WAL off), one connection each:

* ``big``: ``load_dataset("ccpp", size=10000)`` — the engine read path
  (gather, sharded top-k, combine) dominates its time;
* ``small``: ``load_dataset("asf", size=1500)`` — transport and scheduling
  dominate its time.

Each request blanks one cell of a held-out tuple, always in one of two
fixed attributes per tenant, so both tenants' working sets fit the model
cache.  Phase ``open`` sends Poisson arrivals per tenant and times each
request from when it was due; phase ``saturate`` keeps a fixed window of
``big`` requests outstanding on both connections.  The untraced run
alternates the two phases in short cycles, so each samples the whole run
(the host's speed drifts from second to second) and the saturate
throughput is the median over its slices.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from client import ServerProcess
from common import LagTracker, Outcomes, Report, digest, variant_of
from layers import TraceContext, report_layers
from spans import load_spans
from loadgen import (blanked, drain, encode, load_session, run_open_loop,
                     run_window, server_counters, delta, warm)

TENANTS = {
    # name: (dataset, store size, the two attributes requests blank)
    "big": ("ccpp", 10000, (0, 4)),
    "small": ("asf", 1500, (1, 4)),
}
HELD_OUT = 1024
#: Poisson arrival rate per tenant in phase ``open`` (requests/s).
RATES = {"big": 25.0, "small": 25.0}
#: Share of ``--seconds`` spent in phase ``open``; the rest saturates.
OPEN_SHARE = 0.7
#: Cycles of phase ``open`` then phase ``saturate`` in an untraced run.
CYCLES = 24
#: Requests each connection keeps outstanding in phase ``saturate``.
WINDOW = 4
#: The schedule is generated for this many seconds of phase ``open`` (so
#: its digest does not depend on ``--seconds``); a run uses a prefix.
HORIZON_S = 60.0
SATURATE_POOL = 4096
SETUPS = 3


def make_inputs(seed: int) -> Dict[str, object]:
    from repro.data import load_dataset

    rng = np.random.default_rng([1, variant_of(seed)])
    inputs: Dict[str, object] = {"tenants": {}}
    for name, (dataset, size, attrs) in TENANTS.items():
        store = load_dataset(dataset, size=size).raw
        held = load_dataset(dataset, size=size + HELD_OUT).raw[size:]
        count = int(RATES[name] * HORIZON_S)
        inputs["tenants"][name] = {
            "store": store,
            "held": held,
            "attrs": attrs,
            "offsets": np.cumsum(rng.exponential(1.0 / RATES[name], count)),
            "rows": rng.integers(0, HELD_OUT, count),
            "cols": rng.choice(np.array(attrs), count),
        }
    inputs["saturate"] = {
        "rows": rng.integers(0, HELD_OUT, SATURATE_POOL),
        "cols": rng.choice(np.array(TENANTS["big"][2]), SATURATE_POOL),
    }
    return inputs


def input_digest(inputs) -> str:
    parts: List[object] = []
    for name in sorted(inputs["tenants"]):
        tenant = inputs["tenants"][name]
        parts += [name, tenant["store"], tenant["held"], tenant["offsets"],
                  tenant["rows"], tenant["cols"]]
    parts += [inputs["saturate"]["rows"], inputs["saturate"]["cols"]]
    return digest(parts)


def _setup(workdir: Path, inputs, params, traced: bool, spans_path: Path):
    """Spawn a server, load both tenants, warm their attributes."""
    started = time.perf_counter()
    server = ServerProcess(workdir, traced=traced, spans_path=spans_path)
    conns = {"big": server.connect()}
    conns["small"] = server.connect()
    for name, tenant in inputs["tenants"].items():
        load_session(conns["big"], name, tenant["store"], params)
        warm(conns["big"], name, tenant["held"][0], tenant["attrs"])
    ready = time.perf_counter()
    return server, conns, ready - started, ready


def _open_plan(inputs, conns, first: float, last: float):
    """Requests of both tenants due in ``[first, last)`` s, by due time."""
    plan = []
    for name, tenant in inputs["tenants"].items():
        for offset, row, col in zip(tenant["offsets"], tenant["rows"],
                                    tenant["cols"]):
            if first <= offset < last:
                query = blanked(tenant["held"][row], int(col))
                plan.append((offset - first, conns[name],
                             {"cmd": "impute", "session": name,
                              "rows": encode(query)},
                             f"impute.{name}", (name, int(row), int(col))))
    plan.sort(key=lambda item: item[0])
    return plan


def _saturate_requests(inputs):
    held = inputs["tenants"]["big"]["held"]
    return [
        ({"cmd": "impute", "session": "big",
          "rows": encode(blanked(held[row], int(col)))},
         "impute.saturate", ("big", int(row), int(col)))
        for row, col in zip(inputs["saturate"]["rows"],
                            inputs["saturate"]["cols"])
    ]


def _verify(report: Report, records, inputs, params) -> None:
    """Every distinct answer equals a cold ``IIMImputer`` refit (rtol 1e-9)."""
    from repro.core.iim import IIMImputer
    from repro.data import Relation

    answers: Dict[tuple, float] = {}
    for record in records:
        response = record.response
        if response is None or not response.get("ok"):
            continue
        name, row, col = record.tag
        value = response["result"]["rows"][0][col]
        previous = answers.setdefault(record.tag, value)
        report.check(previous == value,
                     f"{record.tag}: answers differ ({previous} vs {value})")
    for name, tenant in inputs["tenants"].items():
        keys = sorted(key for key in answers if key[0] == name)
        if not keys:
            report.check(False, f"{name}: no answered request to verify")
            continue
        queries = np.array([blanked(tenant["held"][row], col)
                            for _, row, col in keys])
        cold = IIMImputer(**params).fit(Relation(tenant["store"]))
        expected = cold.impute(Relation(queries)).raw
        got = np.array([answers[key] for key in keys])
        want = np.array([expected[i, key[2]] for i, key in enumerate(keys)])
        bad = ~np.isclose(got, want, rtol=1e-9, atol=0.0)
        report.check(not bad.any(),
                     f"{name}: {int(bad.sum())} of {len(keys)} answers differ "
                     f"from a cold refit")
        report.note(f"verified_{name}", len(keys), "count")


def run(inputs, seed: int, seconds: float, traced: bool, workdir: Path,
        params: Dict[str, object]) -> Report:
    report = Report()
    spans_path = workdir / "spans.json"
    setups = []
    rounds = 1 if traced else SETUPS
    for index in range(rounds):
        server, conns, setup_s, ready = _setup(
            workdir / f"setup{index}", inputs, params, traced, spans_path)
        setups.append(setup_s)
        if index < rounds - 1:
            server.stop(conns["big"])
            for conn in conns.values():
                conn.close()
    try:
        return _measure(report, server, conns, inputs, params, seconds,
                        traced, setups, spans_path, ready)
    finally:
        server.stop(conns["big"])
        for conn in conns.values():
            conn.close()


def _measure(report, server, conns, inputs, params, seconds, traced, setups,
             spans_path, ready) -> Report:
    if traced:
        every = _measure_traced(report, server, conns, inputs, seconds,
                                spans_path, ready)
    else:
        every = _measure_cycles(report, server, conns, inputs, seconds,
                                setups)
    _verify(report, every, inputs, params)
    return report


def _slice_rate(records, start: float, end: float) -> float:
    """Answers per second of one saturate slice: the answers by ``end``
    over the time until the last of them (not the slice length, so the
    rate is not rounded to whole answers per slice)."""
    done = sorted(r.done for r in records if r.done is not None
                  and r.done <= end and r.response.get("ok"))
    return len(done) / (done[-1] - start) if done else 0.0


def _measure_cycles(report, server, conns, inputs, seconds, setups):
    """``CYCLES`` rounds of phase ``open`` then phase ``saturate``."""
    open_s = OPEN_SHARE * seconds / CYCLES
    sat_s = (1.0 - OPEN_SHARE) * seconds / CYCLES
    sessions = list(TENANTS)
    lag = LagTracker()
    before = server_counters(conns["big"], sessions)
    saturate = _saturate_requests(inputs)
    window_conns = [conns["big"], conns["small"]]
    open_records, sat_records, rates = [], [], []
    for cycle in range(CYCLES):
        records, _ = run_open_loop(
            _open_plan(inputs, conns, cycle * open_s, (cycle + 1) * open_s),
            lag)
        drain(conns.values())
        open_records += records
        records, sat_start = run_window(window_conns, saturate, WINDOW, sat_s,
                                        first=len(sat_records))
        drain(window_conns)
        rates.append(_slice_rate(records, sat_start, sat_start + sat_s))
        sat_records += records
    after = server_counters(conns["big"], sessions)
    peak_rss = server.peak_rss_mb()

    every = open_records + sat_records
    outcomes = Outcomes()
    for record in every:
        outcomes.add(record.response)
    ok = [r for r in open_records if r.response and r.response.get("ok")]
    big = [r.latency for r in ok if r.kind == "impute.big"]
    small = [r.latency for r in ok if r.kind == "impute.small"]
    rps = statistics.median(rates)

    report.attempted = outcomes.attempted
    report.failed = outcomes.failed
    report.metric("setup_s", statistics.median(setups), "s", len(setups),
                  "spawn -> both tenants fitted and warm; median")
    report.metric("peak_rss_mb", peak_rss, "MB", 1, "server VmHWM")
    report.latency("impute", big, gated="main_p50_ms")
    report.latency("small_impute", small, gated="side_p50_ms")
    report.metric("cells_per_s", rps, "1/s", len(rates),
                  f"= impute_rps, median over {CYCLES} saturate slices")
    report.note("impute_rps", rps, "1/s", len(rates),
                f"window {WINDOW} x 2 connections, {sat_s:.2f} s slices, "
                f"min {min(rates):.1f} max {max(rates):.1f}")
    report.note("failed_frac", outcomes.failed_frac, "share",
                outcomes.attempted, str(outcomes.errors or ""))
    report.note("loadgen_lag_p99_ms", lag.p99_ms(), "ms", len(lag.lags))
    hits = delta(after, before)["engine"]
    for name in TENANTS:
        h = hits[name]["cache_hits"]
        m = hits[name]["cache_misses"]
        report.note(f"cache_hit_ratio_{name}", h / max(h + m, 1), "share",
                    int(h + m), "both phases")
    return every


def _measure_traced(report, server, conns, inputs, seconds, spans_path,
                    ready):
    """An untraced reference half and a traced half of phase ``open``, then
    a traced phase ``saturate``, each in one block."""
    open_s = OPEN_SHARE * seconds
    sessions = list(TENANTS)
    outcomes = Outcomes()
    lag = LagTracker()
    # Untraced reference half, then the traced half of phase open.
    server.record_spans(False)
    reference, _ = run_open_loop(
        _open_plan(inputs, conns, 0.0, open_s / 2), lag)
    drain(conns.values())
    server.record_spans(True)
    before = server_counters(conns["big"], sessions)
    open_records, _ = run_open_loop(
        _open_plan(inputs, conns, open_s / 2, open_s), lag)
    drain(conns.values())
    after_open = server_counters(conns["big"], sessions)
    window_conns = [conns["big"], conns["small"]]
    sat_records, _ = run_window(
        window_conns, _saturate_requests(inputs), WINDOW, seconds - open_s)
    drain(window_conns)
    after_sat = server_counters(conns["big"], sessions)
    server.record_spans(False)

    every = reference + open_records + sat_records
    for record in every:
        outcomes.add(record.response)
    ok = [r for r in open_records if r.response and r.response.get("ok")]
    big = [r.latency for r in ok if r.kind == "impute.big"]
    report.attempted = outcomes.attempted
    report.failed = outcomes.failed
    ref_big = [r.latency for r in reference
               if r.kind == "impute.big" and r.response
               and r.response.get("ok")]
    server.stop(conns["big"])
    dump = json.loads(spans_path.read_text())
    measured = open_records + sat_records
    report_layers(report, TraceContext(
        spans=load_spans(dump),
        measured={r.rid for r in measured},
        setup_end=ready,
        units=len(measured),
        queue_waits=[tuple(q) for q in dump["queue_waits"]],
        queued={r.rid for r in open_records},
        main_session="big",
        small_session="small",
        client=[(r.rid, r.done - r.sent) for r in ok
                if r.kind == "impute.small"],
        counters=delta(after_sat, before),
        batch_counters=delta(after_sat, after_open),
        lag=lag,
        traced_p50=statistics.median(big),
        untraced_p50=statistics.median(ref_big),
        absent={"wal": "WAL off on point_read"},
    ))
    return every
