"""Load generation over the wire: session set-up, open and closed loops.

One load-generator process drives at most two connections.  Open loops
send on a precomputed schedule and time each request from when it was
*due*, so a stall in the server also charges the requests queued behind
it; the :class:`~common.LagTracker` records how late the sender itself ran.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from client import Connection, Record
from common import LagTracker

#: Rows per ``fit``/``append`` request while loading a store (keeps every
#: line well under the server's default 1 MiB request limit).
LOAD_CHUNK = 2000


def encode(rows: np.ndarray) -> List[List[Optional[float]]]:
    """Wire form of a float matrix: ``NaN`` becomes ``null``."""
    return [[None if math.isnan(x) else float(x) for x in row]
            for row in np.atleast_2d(rows)]


def load_session(conn: Connection, name: str, rows: np.ndarray,
                 params: Dict[str, object]) -> None:
    """Create an online IIM session and load ``rows`` into it over the wire."""
    conn.call({"cmd": "create", "session": name,
               "config": {"method": "IIM", "mode": "online",
                          "params": dict(params)}})
    for start in range(0, rows.shape[0], LOAD_CHUNK):
        cmd = "fit" if start == 0 else "append"
        conn.call({"cmd": cmd, "session": name,
                   "rows": encode(rows[start:start + LOAD_CHUNK])})


def warm(conn: Connection, name: str, probe: np.ndarray,
         attributes: Sequence[int]) -> None:
    """Build each queried attribute's model state with one impute apiece."""
    for attr in attributes:
        row = np.array(probe, dtype=float)
        row[attr] = np.nan
        conn.call({"cmd": "impute", "session": name, "rows": encode(row)})


def blanked(row: np.ndarray, attr: int) -> np.ndarray:
    out = np.array(row, dtype=float)
    out[attr] = np.nan
    return out


# --------------------------------------------------------------------------- #
# Open loop
# --------------------------------------------------------------------------- #
Planned = Tuple[float, Connection, Dict[str, object], str, object]


def run_open_loop(plan: Sequence[Planned], lag: LagTracker,
                  start: Optional[float] = None) -> Tuple[List[Record], float]:
    """Send each ``(offset, conn, request, kind, tag)`` at ``start + offset``.

    ``plan`` must be sorted by offset.  Returns the records and the start.
    """
    start = time.perf_counter() + 0.05 if start is None else start
    records = []
    for offset, conn, request, kind, tag in plan:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = conn.send(request, kind, due=due, tag=tag)
        lag.record(due, record.sent)
        records.append(record)
    return records, start


def drain(conns: Sequence[Connection], timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    for conn in conns:
        conn.drain(max(0.0, deadline - time.monotonic()))


# --------------------------------------------------------------------------- #
# Closed window
# --------------------------------------------------------------------------- #
def run_window(conns: Sequence[Connection], requests: Sequence[Tuple],
               window: int, duration: float,
               first: int = 0) -> Tuple[List[Record], float]:
    """Keep ``window`` requests outstanding per connection for ``duration``.

    ``requests`` is a cycle of ``(request, kind, tag)``, entered at index
    ``first``; the connections take turns.  Returns every record sent and
    the start time; requests still in flight at the end are waited for but
    not counted as completed inside the window.
    """
    records: List[Record] = []
    cursor = first
    start = time.perf_counter()
    end = start + duration
    while time.perf_counter() < end:
        progressed = False
        for conn in conns:
            while conn.outstanding < window:
                request, kind, tag = requests[cursor % len(requests)]
                cursor += 1
                records.append(conn.send(request, kind, tag=tag))
                progressed = True
        if not progressed:
            conns[0].wait_below(window, max(0.0, end - time.perf_counter()))
    return records, start


# --------------------------------------------------------------------------- #
# Server-side counters
# --------------------------------------------------------------------------- #
HISTOGRAMS = ("repro_engine_phase_seconds", "repro_query_seconds")
COUNTERS = ("repro_wal_bytes_total", "repro_query_rows_total")


def server_counters(conn: Connection, sessions: Sequence[str]) -> Dict[str, object]:
    """The program's own counters: engine stats, scheduler, obs sums."""
    out: Dict[str, object] = {"engine": {}}
    for name in sessions:
        stats = conn.call({"cmd": "stats", "session": name})
        out["engine"][name] = dict(stats["counters"])
    health = conn.call({"cmd": "health"})
    out["scheduler"] = {
        "batches": health["scheduler"]["microbatch"]["batches"],
        "rows_coalesced": health["scheduler"]["microbatch"]["rows_coalesced"],
        "rejected_overloaded": health["scheduler"]["rejected_overloaded"],
    }
    metrics = conn.call({"cmd": "metrics", "format": "json"})["metrics"]
    sums: Dict[str, float] = {}
    for family in HISTOGRAMS:
        for series in metrics["histograms"].get(family, {}).get("series", []):
            label = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            sums[f"{family}{{{label}}}"] = float(series["sum"])
    for family in COUNTERS:
        for series in metrics["counters"].get(family, {}).get("series", []):
            label = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            sums[f"{family}{{{label}}}"] = float(series["value"])
    out["obs"] = sums
    return out


def delta(after: Dict[str, object], before: Dict[str, object]) -> Dict[str, object]:
    """Element-wise ``after - before`` over nested dicts of numbers."""
    out: Dict[str, object] = {}
    for key, value in after.items():
        prior = before.get(key) if isinstance(before, dict) else None
        if isinstance(value, dict):
            out[key] = delta(value, prior if isinstance(prior, dict) else {})
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - (prior if isinstance(prior, (int, float)) else 0)
    return out
