"""In-memory span recording around the program's layer boundaries.

:func:`install` wraps named functions and methods of the ``repro`` package
from the outside: a function is replaced under every name a loaded module
(or a module-level registry dict) binds it to, a method on its class, so
callers that imported the name directly see the wrapper too.  Nothing in
``src/`` changes.

Each wrapped call records a :class:`Span` — name, start, end, parent and
the request ids it served — into a :class:`Recorder`.  Spans stay in memory
until :meth:`Recorder.dump`.  :func:`self_times` turns nested spans into
per-layer self time: a span's duration minus the part of it its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: The layer boundaries the traced run wraps: (module, qualified name, span).
#: Spans are named ``<layer>.<what>``; the layer prefix is the module the
#: per-layer metrics are reported under.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.serve", "SessionServer.handle_request", "serve.handle"),
    ("repro.api.messages", "decode_rows", "messages.decode"),
    ("repro.api.messages", "encode_rows", "messages.encode"),
    ("repro.api.sessions", "OnlineSession.impute", "sessions.impute"),
    ("repro.api.sessions", "OnlineSession.mutate", "sessions.mutate"),
    ("repro.api.sessions", "OnlineSession.fit", "sessions.fit"),
    ("repro.query.parser", "parse_statement", "query.parse"),
    ("repro.query.planner", "plan_query", "query.plan"),
    ("repro.query.executor", "execute_query", "query.execute"),
    ("repro.online.engine", "OnlineImputationEngine.impute_batch",
     "engine.impute_batch"),
    ("repro.online.engine", "OnlineImputationEngine.append", "engine.append"),
    ("repro.online.engine", "OnlineImputationEngine.delete", "engine.delete"),
    ("repro.online.engine", "OnlineImputationEngine.update", "engine.update"),
    ("repro.online.store", "ColumnarTupleStore.rows", "store.gather"),
    ("repro.online.store", "ColumnarTupleStore.column", "store.gather"),
    ("repro.online.store", "sharded_topk", "store.topk"),
    ("repro.neighbors.index", "NeighborOrderCache.append", "neighbors.order"),
    ("repro.neighbors.index", "NeighborOrderCache.remove", "neighbors.order"),
    ("repro.neighbors.index", "NeighborOrderCache.replace", "neighbors.order"),
    ("repro.neighbors.index", "NeighborOrderCache.order_matrix",
     "neighbors.order"),
    ("repro.neighbors.brute", "BruteForceNeighbors.kneighbors",
     "neighbors.search"),
    ("repro.core.adaptive", "adaptive_learning", "core.learn"),
    ("repro.core.learning", "learn_candidate_models_for_rows", "core.learn"),
    ("repro.core.learning", "learn_individual_models", "core.learn"),
    ("repro.core.imputation", "impute_with_individual_models", "core.impute"),
    ("repro.core.combine", "combine_voting_batch", "core.impute"),
    ("repro.core.combine", "combine_uniform_batch", "core.impute"),
    ("repro.core.combine", "combine_distance_batch", "core.impute"),
    ("repro.reliability.wal", "WriteAheadLog.log_op", "wal.log"),
    ("repro.reliability.wal", "WriteAheadLog.log_ops", "wal.log"),
    ("repro.reliability.wal", "WriteAheadLog.commit", "wal.log"),
)

#: Wrapped only in the serve process: the scheduler's dispatch of one unit
#: (a request or a coalesced run).  The public ``submit`` returns before
#: the work starts, so queue wait is read where the unit leaves the queue,
#: against the ``enqueued_at`` stamp the scheduler keeps per request.
DISPATCH_TARGET = ("repro.api.scheduling", "RequestScheduler._execute")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    requests: Tuple[object, ...]
    thread: int


class Recorder:
    """Thread-safe, append-only span store with per-thread nesting."""

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        #: (request id, session, queue wait seconds) per dispatched request.
        self.queue_waits: List[Tuple[object, str, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_requests(self) -> Tuple[object, ...]:
        return getattr(self._local, "requests", ())

    def set_requests(self, requests: Sequence[object]) -> None:
        self._local.requests = tuple(requests)

    def wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(Span(
                    name, recorder.clock(), float("nan"),
                    stack[-1] if stack else -1,
                    recorder.current_requests(), threading.get_ident(),
                ))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.spans[index].end = recorder.clock()

        traced.__wrapped_by_bench__ = fn
        return traced

    def dump(self, path: Path) -> None:
        with self._lock:
            payload = {
                "spans": [
                    [s.name, s.start, s.end, s.parent, list(s.requests), s.thread]
                    for s in self.spans
                ],
                "queue_waits": [list(q) for q in self.queue_waits],
            }
        Path(path).write_text(json.dumps(payload))


def load_spans(payload: Dict[str, object]) -> List[Span]:
    return [
        Span(name, start, end, parent, tuple(requests), thread)
        for name, start, end, parent, requests, thread in payload["spans"]
    ]


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #
def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind_everywhere(original: Callable, replacement: Callable) -> int:
    """Replace ``original`` under every name loaded ``repro`` modules bind."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement
                        count += 1
    return count


def install(recorder: Recorder,
            targets: Iterable[Tuple[str, str, str]] = TARGETS) -> None:
    """Wrap every target; methods on their class, functions everywhere."""
    importlib.import_module("repro.api.serve")  # load every caller first
    for module_name, qualname, span_name in targets:
        owner, attr = _resolve(module_name, qualname)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(original, span_name)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif _rebind_everywhere(original, wrapped) == 0:
            raise RuntimeError(f"{module_name}.{qualname} is bound nowhere")


def install_dispatch(recorder: Recorder) -> None:
    """Record queue waits where the scheduler dispatches a unit."""
    owner, attr = _resolve(*DISPATCH_TARGET)
    original = getattr(owner, attr)

    @functools.wraps(original)
    def dispatch(scheduler, key, unit):
        if recorder.enabled:
            now = time.monotonic()
            ids = [pending.request.get("id") for pending in unit]
            with recorder._lock:
                for pending, rid in zip(unit, ids):
                    recorder.queue_waits.append(
                        (rid, key, now - pending.enqueued_at)
                    )
            recorder.set_requests(ids)
        try:
            return original(scheduler, key, unit)
        finally:
            recorder.set_requests(())

    setattr(owner, attr, dispatch)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        duration = span.end - span.start
        out.append(duration - covered(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, ())
            if min(e, span.end) > max(s, span.start)
        ))
    return out


def layer_totals(spans: Sequence[Span], selves: Sequence[float],
                 keep: Callable[[Span], bool] = lambda span: True
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time (s)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    for span, self_time in zip(spans, selves):
        if span.end != span.end or not keep(span):  # NaN: never closed
            continue
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total"] += span.end - span.start
        entry["self"] += self_time
    return dict(totals)
