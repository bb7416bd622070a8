"""Workload ``bulk_impute``: the paper's offline ``IIMImputer`` path, in process.

Each round times ``IIMImputer(**params).fit(dirty).impute(dirty)`` over
``ccpp``@10000 and ``ca``@4000 with 5% of the tuples missing one cell
(``inject_missing``).  No server, scheduler, store, WAL or query layer
runs: the batch kernels (order matrix, Proposition 3 prefix-sum learning,
adaptive validation, brute-force search and combine) do all the work.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import Report, digest, variant_of
from layers import TraceContext, report_layers

DATASETS = (("ccpp", 10000), ("ca", 4000))
MISSING_FRACTION = 0.05
SETUPS = 3
HERE = Path(__file__).resolve().parent


def make_inputs(seed: int) -> Dict[str, object]:
    from repro.data import load_dataset
    from repro.data.missing import inject_missing

    out = {}
    for name, size in DATASETS:
        injection = inject_missing(load_dataset(name, size=size),
                                   MISSING_FRACTION,
                                   random_state=variant_of(seed))
        out[name] = {"dirty": injection.dirty.raw, "rows": injection.rows,
                     "cols": injection.attributes, "truth": injection.truth}
    return out


def input_digest(inputs) -> str:
    parts: List[object] = []
    for name, _ in DATASETS:
        entry = inputs[name]
        parts += [name, entry["dirty"], entry["rows"], entry["cols"],
                  entry["truth"]]
    return digest(parts)


def _impute(entry, params) -> np.ndarray:
    from repro.core.iim import IIMImputer
    from repro.data import Relation

    dirty = Relation(entry["dirty"])
    return IIMImputer(**params).fit(dirty).impute(dirty).raw


def rms(entry, imputed: np.ndarray) -> float:
    values = imputed[entry["rows"], entry["cols"]]
    return float(np.sqrt(np.mean((values - entry["truth"]) ** 2)))


def reference_values(inputs, params) -> Dict[str, float]:
    """The RMS per dataset that every run must reproduce (``pins.json``)."""
    return {f"rms_{name}": rms(inputs[name], _impute(inputs[name], params))
            for name, _ in DATASETS}


def _cold_setup(seed: int) -> float:
    """Seconds from a fresh interpreter to imported program + ready inputs."""
    script = (f"import sys; sys.path[:0] = [{str(HERE)!r}]; "
              f"import bulk_impute; bulk_impute.make_inputs({int(seed)})")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)
    return time.perf_counter() - started


def _round(inputs, params, report: Report, pins) -> Dict[str, float]:
    times = {}
    for name, _ in DATASETS:
        entry = inputs[name]
        started = time.perf_counter()
        imputed = _impute(entry, params)
        times[name] = time.perf_counter() - started
        got = rms(entry, imputed)
        want = pins.get(f"rms_{name}")
        report.check(want is not None and np.isclose(got, want, rtol=1e-9,
                                                      atol=0.0),
                     f"{name}: RMS {got!r} != recorded {want!r}")
        report.check(not np.isnan(imputed).any(), f"{name}: cells left NaN")
    return times


def run(inputs, seed: int, seconds: float, traced: bool, workdir: Path,
        params: Dict[str, object]) -> Report:
    from common import load_pins

    report = Report()
    pins = load_pins().get("bulk_impute", {}).get(str(variant_of(seed)), {})
    setups = [_cold_setup(seed) for _ in range(SETUPS)]
    cells = sum(len(inputs[name]["rows"]) for name, _ in DATASETS)

    if traced:
        import spans

        recorder = spans.Recorder(enabled=False)
        spans.install(recorder)
        untraced = _round(inputs, params, report, pins)
        recorder.enabled = True
        traced_times = _round(inputs, params, report, pins)
        recorder.enabled = False
        report.attempted = report.attempted or 2 * len(DATASETS)
        report_layers(report, TraceContext(
            spans=recorder.spans,
            units=1,
            unit_name="round",
            traced_p50=sum(traced_times.values()),
            untraced_p50=sum(untraced.values()),
            absent={"serve": "in process, no server",
                    "engine": "offline IIMImputer, no online engine",
                    "wal": "no WAL"},
        ))
        return report

    rounds: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        rounds.append(_round(inputs, params, report, pins))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > seconds:
            break
    report.attempted = len(rounds) * len(DATASETS)
    report.metric("setup_s", statistics.median(setups), "s", len(setups),
                  "fresh interpreter -> program imported, data generated "
                  "and injected; median")
    report.metric("peak_rss_mb",
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "MB", 1, "benchmark process ru_maxrss")
    report.metric("main_p50_ms",
                  statistics.median(r["ccpp"] for r in rounds) * 1000.0, "ms",
                  len(rounds), "ccpp@10000 fit+impute per round; median")
    report.metric("side_p50_ms",
                  statistics.median(r["ca"] for r in rounds) * 1000.0, "ms",
                  len(rounds), "ca@4000 fit+impute per round; median")
    report.metric("cells_per_s",
                  statistics.median(cells / sum(r.values()) for r in rounds),
                  "1/s", len(rounds),
                  f"{cells} imputed cells per round; median over rounds")
    for name, _ in DATASETS:
        report.note(f"rms_{name}", pins.get(f"rms_{name}", float("nan")), "rms",
                    len(rounds), "matched at rtol 1e-9 every round")
    return report
