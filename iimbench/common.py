"""Shared pieces of the benchmark: statistics, schedules, pins and the header.

Everything here is pure Python + numpy and imports nothing from ``repro``,
so the benchmark's own tests run without a server.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: Every seed maps onto one of this many input variants, so each seed's
#: inputs can be pinned by a recorded digest (``pins.json``).
N_VARIANTS = 8

#: The online and offline model of every workload (ROADMAP aim 3: served
#: answers must equal a cold refit with exactly these parameters).
MODEL = {"k": 10, "learning": "adaptive", "stepping": 10,
         "max_learning_neighbors": 50}

#: (name, unit, better, bound) of the metrics every untraced run reports.
#: Each workload fills them with its own measurements; see README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("main_p50_ms", "ms", "lower", 0.25),
    ("side_p50_ms", "ms", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

#: Percentiles the tail rule may pick, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def variant_of(seed: int) -> int:
    return int(seed) % N_VARIANTS


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``pct`` rank.

    The ``pct`` percentile of ``n`` samples is read at rank
    ``ceil(n * pct / 100)`` (1-based, nearest rank); the samples after it
    are the ones "beyond" it.
    """
    rank = int(np.ceil(n * pct / 100.0 - 1e-9))
    return n - max(rank, 1)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least ``min_beyond`` samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= min_beyond:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: a value that was measured)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("percentile of no samples")
    rank = int(np.ceil(ordered.size * pct / 100.0 - 1e-9))
    return float(ordered[max(rank, 1) - 1])


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest percentile the sample supports, with ``n``."""
    n = len(values)
    out: Dict[str, object] = {"n": n}
    if n == 0:
        return out
    out["p50"] = percentile(values, 50.0)
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(values, tail)
        out["beyond"] = samples_beyond(n, tail)
    if n >= 1000:
        out["p99"] = percentile(values, 99.0)
    return out


# --------------------------------------------------------------------------- #
# Open-loop schedules
# --------------------------------------------------------------------------- #
def poisson_arrivals(rng: np.random.Generator, rate: float,
                     count: int) -> np.ndarray:
    """Offsets (seconds from phase start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class LagTracker:
    """How late an open-loop generator sent, relative to its schedule."""

    lags: List[float] = field(default_factory=list)

    def record(self, due: float, sent: float) -> None:
        self.lags.append(max(0.0, sent - due))

    def p99_ms(self) -> float:
        if not self.lags:
            return 0.0
        return percentile(self.lags, 99.0) * 1000.0


# --------------------------------------------------------------------------- #
# Outcomes
# --------------------------------------------------------------------------- #
@dataclass
class Outcomes:
    """Counts of attempted operations and how the failed ones failed.

    An operation fails when it gets an error response (``overloaded``
    included) or no response at all.
    """

    attempted: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    no_reply: int = 0

    def add(self, response: Optional[Dict[str, object]]) -> bool:
        """Count one operation; return whether it succeeded."""
        self.attempted += 1
        if response is None:
            self.no_reply += 1
            return False
        if response.get("ok"):
            return True
        error = response.get("error")
        code = error.get("code", "unknown") if isinstance(error, dict) else "unknown"
        self.errors[code] = self.errors.get(code, 0) + 1
        return False

    @property
    def failed(self) -> int:
        return self.no_reply + sum(self.errors.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------------- #
# Input pinning
# --------------------------------------------------------------------------- #
def digest(parts: Iterable[object]) -> str:
    """sha256 over arrays (dtype, shape and bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(array.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def load_pins() -> Dict[str, Dict[str, object]]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def check_pin(workload: str, seed: int, key: str, value) -> None:
    """Raise when ``value`` differs from the recorded pin of this variant."""
    pins = load_pins().get(workload, {}).get(str(variant_of(seed)))
    if pins is None or key not in pins:
        raise RuntimeError(
            f"no recorded {key} for {workload} variant {variant_of(seed)}; "
            f"run `python3 iimbench/run.py --record-pins`"
        )
    recorded = pins[key]
    if isinstance(recorded, float):
        if not np.isclose(value, recorded, rtol=1e-9, atol=0.0):
            raise RuntimeError(
                f"{workload} {key}: {value!r} != recorded {recorded!r}"
            )
    elif value != recorded:
        raise RuntimeError(
            f"{workload} {key}: inputs changed ({value} != recorded "
            f"{recorded}); the generator or repro.data moved"
        )


# --------------------------------------------------------------------------- #
# Run header
# --------------------------------------------------------------------------- #
def git_sha(root: Path) -> str:
    """The checkout's commit, or ``unknown`` when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    toplevel, sha = out.stdout.split()
    return sha if Path(toplevel).resolve() == root.resolve() else "unknown"


def run_header(root: Path, workload: str, seed: int, trace: bool,
               seconds: float) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant_of(seed),
        "trace": trace,
        "seconds": seconds,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
class Report:
    """What one run measured: gated metrics plus the human-readable lines.

    ``metric`` records a value the final JSON line carries; ``note``
    records one that is printed only.  Both keep the unit and, for
    timings, the sample count behind the value.
    """

    def __init__(self):
        self.lines: List[Dict[str, object]] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def note(self, name: str, value: float, unit: str,
             n: Optional[int] = None, detail: str = "") -> None:
        self.lines.append({"name": name, "value": value, "unit": unit,
                           "n": n, "detail": detail})

    def metric(self, name: str, value: float, unit: str,
               n: Optional[int] = None, detail: str = "") -> None:
        self.note(name, value, unit, n, detail)
        self.metrics[name] = {"value": float(value), "unit": unit}

    def latency(self, name: str, seconds: Sequence[float],
                gated: Optional[str] = None) -> None:
        """Note ``<name>_p50_ms`` and ``<name>_p<tail>_ms`` of a sample.

        ``gated`` names the final-line metric that carries the median.
        """
        stats = summarize([s * 1000.0 for s in seconds])
        n = stats["n"]
        if n == 0:
            self.note(f"{name}_p50_ms", float("nan"), "ms", 0, "no samples")
            return
        if gated:
            self.metric(gated, stats["p50"], "ms", n, f"= {name}_p50_ms")
        self.note(f"{name}_p50_ms", stats["p50"], "ms", n)
        if "tail" in stats:
            pct = stats["tail_pct"]
            label = f"p{pct:g}".replace(".", "_")
            self.note(f"{name}_{label}_ms", stats["tail"], "ms", n,
                      f"{stats['beyond']} samples beyond")
        if "p99" not in stats:
            self.note(f"{name}_p99_ms", float("nan"), "ms", n,
                      "not reported: needs >= 1000 samples")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    @property
    def correct(self) -> bool:
        return not self.mismatches
