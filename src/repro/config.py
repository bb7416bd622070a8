"""Process-wide configuration knobs, declared in one table.

Every knob is one :class:`Knob` row of :data:`KNOBS` (bottom of this
module): a name, the ``REPRO_*`` environment variable that seeds it, a
default (one of the documented ``DEFAULT_*`` constants below) and a
validator.  Each row is exported as three accessors: ``get_<name>()``,
``set_<name>(value)``, which returns the previous value, and
``resolve_<name>(value)``, which resolves a per-call argument (an engine,
server or function parameter) against the knob.  The README's
*Configuration* section lists every row with its CLI flag and accepted
values.

The rules are the same for every row:

* a value comes, in decreasing priority, from an explicit per-call
  argument, then ``set_<name>``, then the environment variable, then the
  default;
* the environment is read at import but validated at first use, so a
  typo'd ``REPRO_*`` variable fails with a :class:`ConfigurationError`
  naming the variable and the knob when the knob is needed, never
  ``import repro`` itself.  The validated value is then cached: a getter
  on a hot path (``get_obs_enabled`` runs per metric mutation) is one
  attribute read;
* ``resolve_<name>("default")`` defers to the knob; so does
  ``resolve_<name>(None)``, unless ``None`` is itself a legal value of the
  knob (it means "unbounded" or "disabled" for the model cache size, the
  fallback fraction, the request-line bound, the deadline and the quotas);
* numbers must be finite: ``nan`` and ``inf`` are rejected.

The ``backend`` knob selects the implementation of the IIM hot paths
(neighbour search, per-candidate learning, adaptive validation, batch
imputation): ``"vectorized"`` batched numpy kernels (the default; see
:mod:`repro.core.learning`) or the ``"loop"`` per-tuple reference, which
the test suite holds to the same results within ``rtol = 1e-9``.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Callable, Dict, Optional

from .exceptions import ConfigurationError

__all__ = [  # plus every row's get_/set_/resolve_ accessors (end of module)
    "Knob", "KNOBS", "use_backend",
    "BACKENDS", "ONLINE_REFRESH_POLICIES", "ONLINE_DELETE_COST_MODES",
    "WAL_SYNC_POLICIES", "SCENARIO_TRANSPORTS",
    "DEFAULT_BACKEND", "DEFAULT_ONLINE_MODEL_CACHE_SIZE",
    "DEFAULT_ONLINE_REFRESH_POLICY", "DEFAULT_ONLINE_FALLBACK_FRACTION",
    "DEFAULT_ONLINE_SHARD_CAPACITY", "DEFAULT_ONLINE_JOURNAL_CAPACITY",
    "DEFAULT_ONLINE_DELETE_COST_MODE", "DEFAULT_WAL_SYNC",
    "DEFAULT_MAX_REQUEST_BYTES", "DEFAULT_REQUEST_DEADLINE",
    "DEFAULT_SERVE_WORKERS", "DEFAULT_MICROBATCH_WINDOW_MS",
    "DEFAULT_MICROBATCH_MAX_ROWS", "DEFAULT_MAX_ROWS_PER_REQUEST",
    "DEFAULT_MAX_SESSIONS", "DEFAULT_MAX_QUEUED_REQUESTS",
    "DEFAULT_OBS_ENABLED", "DEFAULT_QUERY_PROVENANCE",
    "DEFAULT_OBS_TRACE_SAMPLE", "DEFAULT_SCENARIO_TRANSPORT",
    "DEFAULT_SCENARIO_DIGEST_CHECK",
]

# --------------------------------------------------------------------------- #
# Choices and defaults
# --------------------------------------------------------------------------- #

#: Recognised kernel backends.
BACKENDS = ("vectorized", "loop")

#: Backend used when neither an argument nor :func:`set_backend` selects one.
DEFAULT_BACKEND = "vectorized"

#: Recognised refresh policies of :class:`repro.online.OnlineImputationEngine`:
#: ``"lazy"`` folds appends into the cached model states on the next
#: imputation touching them (consecutive appends batch into one refresh);
#: ``"eager"`` refreshes every cached state on each append.
ONLINE_REFRESH_POLICIES = ("lazy", "eager")

#: Per-attribute model states the engine keeps resident by default
#: (LRU-evicted beyond that; ``None`` or ``0`` keeps all of them).
DEFAULT_ONLINE_MODEL_CACHE_SIZE: Optional[int] = 8

#: Refresh policy used when neither an argument nor the knob selects one.
DEFAULT_ONLINE_REFRESH_POLICY = "lazy"

#: Hybrid relearn threshold: a mutation batch dirtying more than this
#: fraction of an attribute state's tuples triggers one vectorized full
#: rebuild instead of the per-row incremental path.  Below the threshold
#: the batched subset relearn still skips enough rows to win; above it the
#: wholesale rebuild caps the per-sync bookkeeping at the cold-relearn cost.
#: ``None`` disables the fallback (the engine stays always-incremental).
DEFAULT_ONLINE_FALLBACK_FRACTION: Optional[float] = 0.9

#: Rows per shard of the engine's columnar tuple store.  Appends allocate
#: whole shards (existing rows never move); mutation bookkeeping touches
#: only the shards a batch's slots land in.
DEFAULT_ONLINE_SHARD_CAPACITY = 4096

#: Mutation-journal ring capacity: at most this many append/delete/update
#: entries are retained for lazy replay.  Entries hold store slot
#: references only, so the bound caps journal memory at O(capacity)
#: integers; overflowing entries spill and laggard states full-rebuild.
DEFAULT_ONLINE_JOURNAL_CAPACITY = 512

#: Recognised delete-path validation-cost maintenance modes.
ONLINE_DELETE_COST_MODES = ("rebuild", "decrement")

#: How deletes refresh validation-cost rows: ``"rebuild"`` re-accumulates
#: every dirty row with the cold scatter kernel (exact accumulation order);
#: ``"decrement"`` subtracts the retired validator pairs from rows that
#: only *lost* validators, guarded by a cancellation check that falls back
#: to the rebuild when the subtraction would amplify rounding.
DEFAULT_ONLINE_DELETE_COST_MODE = "rebuild"

#: Recognised WAL fsync policies of :class:`repro.reliability.WriteAheadLog`:
#: ``"always"`` fsyncs every record (survives power loss), ``"batch"``
#: flushes to the OS once per accepted mutation batch (survives a process
#: kill, not power loss), ``"off"`` leaves records in the Python buffer
#: until rotation or close (fastest; a kill may lose the buffered tail,
#: the CRC framing still recovers the valid prefix).
WAL_SYNC_POLICIES = ("always", "batch", "off")

#: WAL sync policy used when neither an argument nor the knob selects one.
DEFAULT_WAL_SYNC = "batch"

#: Longest request line (bytes) the serve loop accepts before answering a
#: typed ``protocol`` error instead of buffering it whole (``None`` =
#: unbounded, for in-process servers whose requests you author yourself).
DEFAULT_MAX_REQUEST_BYTES: Optional[int] = 1_048_576

#: Per-request deadline (seconds) of the serve loop (``None`` = no
#: deadline).  An overrunning request answers ``DeadlineExceededError``
#: while the worker finishes in the background.
DEFAULT_REQUEST_DEADLINE: Optional[float] = None

#: Worker threads draining session queues in the serve loop's scheduler.
#: Sessions are independent engines and numpy releases the GIL inside the
#: GEMM-heavy kernels, so a handful of workers buys real cross-session
#: parallelism; more workers than live sessions (or physical cores) only
#: adds contention.
DEFAULT_SERVE_WORKERS = 4

#: How long (milliseconds) the micro-batcher may hold an eligible
#: single-row ``impute`` request open waiting for coalescible followers.
#: ``0`` coalesces opportunistically — only requests *already queued*
#: behind one another merge, so request-response clients pay no added
#: latency while pipelined clients still batch.
DEFAULT_MICROBATCH_WINDOW_MS = 0.0

#: Most rows one coalesced impute batch may carry.
DEFAULT_MICROBATCH_MAX_ROWS = 64

#: Most rows a single wire request (``fit``/``impute``/mutation batch) may
#: carry before admission answers a typed ``quota`` error (``None`` =
#: unbounded, the historical behaviour).
DEFAULT_MAX_ROWS_PER_REQUEST: Optional[int] = None

#: Most live sessions one server holds before ``create``/``restore``
#: answers a ``quota`` error (``None`` = unbounded).
DEFAULT_MAX_SESSIONS: Optional[int] = None

#: Most requests one session's FIFO queue buffers before producers are
#: answered a typed ``overloaded`` error instead of growing the queue.
DEFAULT_MAX_QUEUED_REQUESTS = 256

#: Whether the observability layer (:mod:`repro.obs`) records anything.
#: Disabled, every instrument and span helper returns before taking a
#: lock, so the remaining cost at a call site is one boolean check.
DEFAULT_OBS_ENABLED = True

#: Whether query execution captures per-imputed-cell provenance (method,
#: neighbour indices, combiner weights, confidence).  Capture costs a small
#: Python loop over the imputed cells, so sessions serving very wide
#: impute-heavy queries can switch it off; ``EXPLAIN`` output and the
#: ``provenance`` wire field are empty while disabled.
DEFAULT_QUERY_PROVENANCE = True

#: Fraction of serve-loop requests whose span tree is captured (trace IDs
#: are always issued and every request lands in the latency histograms;
#: sampling only gates span assembly, the trace ring and the sink).  Head
#: sampling is the norm for production tracing — full capture costs a few
#: percent on sub-millisecond requests — so the default records one request
#: in ten; debugging sessions pass ``--trace-sample 1.0``.
DEFAULT_OBS_TRACE_SAMPLE = 0.1

#: How the scenario replayer drives a spec: ``"engine"`` calls the online
#: session facade directly, ``"serve"`` routes every event through the
#: in-process JSONL serve loop, ``"tcp"`` goes through a real socket, and
#: ``"auto"`` picks the serve loop for multi-tenant scenarios (whose point
#: is the session-multiplexed wire path) and the engine otherwise.
SCENARIO_TRANSPORTS = ("auto", "engine", "serve", "tcp")

#: Transport used when neither an argument nor :func:`set_scenario_transport`
#: selects one.
DEFAULT_SCENARIO_TRANSPORT = "auto"

#: Whether a replay of a *registered* scenario first re-checks the generated
#: trace against the scenario's checked-in golden digest, so accidental
#: generator drift fails loudly before any event is driven.
DEFAULT_SCENARIO_DIGEST_CHECK = True

# --------------------------------------------------------------------------- #
# Validators: each returns the normalised value or raises ``ValueError``
# saying what a legal value looks like; Knob.validate words the error.
# --------------------------------------------------------------------------- #

#: Strings that spell ``None`` ("unbounded"/"disabled") for optional knobs.
_NONE_WORDS = ("", "none", "unbounded", "off", "disabled")


def _number(value, kind):
    """``value`` as a ``kind`` number (strings are parsed), else ``None``."""
    if isinstance(value, str):
        try:
            return kind(value.strip())
        except ValueError:
            return None
    if isinstance(value, bool) or not isinstance(
        value, (int, float) if kind is float else int
    ):
        return None
    return kind(value)


def _optional(parse: Callable, zero_is_none: bool = False) -> Callable:
    """``parse`` that also accepts ``None`` (and the ``_NONE_WORDS``)."""
    def optional(value):
        if value is None or (
            isinstance(value, str) and value.strip().lower() in _NONE_WORDS
        ):
            return None
        if zero_is_none and _number(value, int) == 0:
            return None
        try:
            return parse(value)
        except ValueError as exc:
            raise ValueError(f"{exc} or none") from None
    return optional


def choice(options, noun: str) -> Callable:
    """One of ``options``, case-insensitively."""
    def parse(value):
        key = str(value).lower()
        if key not in options:
            raise ValueError(f"a {noun} in {list(options)}")
        return key
    return parse


def boolean(value) -> bool:
    """A bool, or one of the usual string spellings of one."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        key = value.strip().lower()
        if key in ("1", "true", "yes", "on"):
            return True
        if key in ("0", "false", "no", "off", ""):
            return False
    raise ValueError(
        "a boolean (or '1'/'0'/'true'/'false'/'yes'/'no'/'on'/'off')"
    )


def positive_int(value) -> int:
    """An integer ``>= 1``."""
    number = _number(value, int)
    if number is None or number <= 0:
        raise ValueError("a positive integer")
    return number


def optional_positive_int(zero_is_none: bool = False) -> Callable:
    """A positive integer or ``None`` (also spelt ``0`` if ``zero_is_none``)."""
    return _optional(positive_int, zero_is_none)


def bounded_float(low: float, high: Optional[float] = None, *,
                  low_open: bool = False, optional: bool = False) -> Callable:
    """A finite float in ``[low, high]`` (excluding ``low`` if ``low_open``)."""
    if high is not None:
        expected = f"a number in [{low:g}, {high:g}]"
    else:
        expected = f"a finite number {'>' if low_open else '>='} {low:g}"

    def parse(value):
        number = _number(value, float)
        if (number is None or not math.isfinite(number) or number < low
                or (low_open and number == low)
                or (high is not None and number > high)):
            raise ValueError(expected)
        return number
    return _optional(parse) if optional else parse


# --------------------------------------------------------------------------- #
# The knob table
# --------------------------------------------------------------------------- #

class Knob:
    """One process-wide setting: its env var, default and validator."""

    __slots__ = (
        "name", "env", "default", "parse", "nullable", "_env", "_value",
    )

    def __init__(self, name: str, env: str, default, parse: Callable):
        self.name = name
        self.env = env
        self.default = default
        self.parse = parse
        # Read now, validated at first use: a typo'd variable fails with a
        # clear error when the knob is needed, not at ``import repro``.
        self._env = os.environ.get(env)
        # Whether None is a value of this knob (resolve(None) keeps it).
        try:
            self.nullable = parse(None) is None
        except ValueError:
            self.nullable = False

    def validate(self, value):
        """``value`` normalised, or a :class:`ConfigurationError` naming
        the knob."""
        try:
            return self.parse(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.name} must be {exc}, got {value!r}"
            ) from None

    def get(self):
        """The current value; the first call validates and caches it."""
        try:
            return self._value
        except AttributeError:
            pass
        value = self.default
        if self._env is not None:
            try:
                value = self.validate(self._env)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{self.env}: {exc}") from None
        self._value = value
        return value

    def set(self, value):
        """Select the process-wide value; returns the previous one."""
        value = self.validate(value)
        previous = self.get()
        self._value = value
        return previous

    def resolve(self, value=None):
        """A per-call argument; ``"default"``, and ``None`` when it is not
        a legal value, defer to the knob."""
        if (value is None and not self.nullable) or (
            isinstance(value, str) and value == "default"
        ):
            return self.get()
        return self.validate(value)


KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("backend", "REPRO_BACKEND", DEFAULT_BACKEND,
         choice(BACKENDS, "kernel backend")),
    Knob("online_model_cache_size", "REPRO_ONLINE_CACHE_SIZE",
         DEFAULT_ONLINE_MODEL_CACHE_SIZE,
         optional_positive_int(zero_is_none=True)),
    Knob("online_refresh_policy", "REPRO_ONLINE_REFRESH",
         DEFAULT_ONLINE_REFRESH_POLICY,
         choice(ONLINE_REFRESH_POLICIES, "refresh policy")),
    Knob("online_fallback_fraction", "REPRO_ONLINE_FALLBACK_FRACTION",
         DEFAULT_ONLINE_FALLBACK_FRACTION,
         bounded_float(0.0, 1.0, optional=True)),
    Knob("online_shard_capacity", "REPRO_ONLINE_SHARD_CAPACITY",
         DEFAULT_ONLINE_SHARD_CAPACITY, positive_int),
    Knob("online_journal_capacity", "REPRO_ONLINE_JOURNAL_CAPACITY",
         DEFAULT_ONLINE_JOURNAL_CAPACITY, positive_int),
    Knob("online_delete_cost_mode", "REPRO_ONLINE_DELETE_COST",
         DEFAULT_ONLINE_DELETE_COST_MODE,
         choice(ONLINE_DELETE_COST_MODES, "delete cost mode")),
    Knob("wal_sync", "REPRO_WAL_SYNC", DEFAULT_WAL_SYNC,
         choice(WAL_SYNC_POLICIES, "WAL sync policy")),
    Knob("max_request_bytes", "REPRO_MAX_REQUEST_BYTES",
         DEFAULT_MAX_REQUEST_BYTES, optional_positive_int()),
    Knob("request_deadline", "REPRO_REQUEST_DEADLINE", DEFAULT_REQUEST_DEADLINE,
         bounded_float(0.0, low_open=True, optional=True)),
    Knob("serve_workers", "REPRO_SERVE_WORKERS", DEFAULT_SERVE_WORKERS,
         positive_int),
    Knob("microbatch_window_ms", "REPRO_MICROBATCH_WINDOW_MS",
         DEFAULT_MICROBATCH_WINDOW_MS, bounded_float(0.0)),
    Knob("microbatch_max_rows", "REPRO_MICROBATCH_MAX_ROWS",
         DEFAULT_MICROBATCH_MAX_ROWS, positive_int),
    Knob("max_rows_per_request", "REPRO_MAX_ROWS_PER_REQUEST",
         DEFAULT_MAX_ROWS_PER_REQUEST, optional_positive_int()),
    Knob("max_sessions", "REPRO_MAX_SESSIONS", DEFAULT_MAX_SESSIONS,
         optional_positive_int()),
    Knob("max_queued_requests", "REPRO_MAX_QUEUED_REQUESTS",
         DEFAULT_MAX_QUEUED_REQUESTS, positive_int),
    Knob("obs_enabled", "REPRO_OBS_ENABLED", DEFAULT_OBS_ENABLED, boolean),
    Knob("query_provenance", "REPRO_QUERY_PROVENANCE", DEFAULT_QUERY_PROVENANCE,
         boolean),
    Knob("obs_trace_sample", "REPRO_OBS_TRACE_SAMPLE", DEFAULT_OBS_TRACE_SAMPLE,
         bounded_float(0.0, 1.0)),
    Knob("scenario_transport", "REPRO_SCENARIO_TRANSPORT",
         DEFAULT_SCENARIO_TRANSPORT, choice(SCENARIO_TRANSPORTS, "transport")),
    Knob("scenario_digest_check", "REPRO_SCENARIO_DIGEST_CHECK",
         DEFAULT_SCENARIO_DIGEST_CHECK, boolean),
)}

# The public accessors: one binding per name to its table row.
get_backend = KNOBS["backend"].get
set_backend = KNOBS["backend"].set
resolve_backend = KNOBS["backend"].resolve
get_online_model_cache_size = KNOBS["online_model_cache_size"].get
set_online_model_cache_size = KNOBS["online_model_cache_size"].set
resolve_online_model_cache_size = KNOBS["online_model_cache_size"].resolve
get_online_refresh_policy = KNOBS["online_refresh_policy"].get
set_online_refresh_policy = KNOBS["online_refresh_policy"].set
resolve_online_refresh_policy = KNOBS["online_refresh_policy"].resolve
get_online_fallback_fraction = KNOBS["online_fallback_fraction"].get
set_online_fallback_fraction = KNOBS["online_fallback_fraction"].set
resolve_online_fallback_fraction = KNOBS["online_fallback_fraction"].resolve
get_online_shard_capacity = KNOBS["online_shard_capacity"].get
set_online_shard_capacity = KNOBS["online_shard_capacity"].set
resolve_online_shard_capacity = KNOBS["online_shard_capacity"].resolve
get_online_journal_capacity = KNOBS["online_journal_capacity"].get
set_online_journal_capacity = KNOBS["online_journal_capacity"].set
resolve_online_journal_capacity = KNOBS["online_journal_capacity"].resolve
get_online_delete_cost_mode = KNOBS["online_delete_cost_mode"].get
set_online_delete_cost_mode = KNOBS["online_delete_cost_mode"].set
resolve_online_delete_cost_mode = KNOBS["online_delete_cost_mode"].resolve
get_wal_sync = KNOBS["wal_sync"].get
set_wal_sync = KNOBS["wal_sync"].set
resolve_wal_sync = KNOBS["wal_sync"].resolve
get_max_request_bytes = KNOBS["max_request_bytes"].get
set_max_request_bytes = KNOBS["max_request_bytes"].set
resolve_max_request_bytes = KNOBS["max_request_bytes"].resolve
get_request_deadline = KNOBS["request_deadline"].get
set_request_deadline = KNOBS["request_deadline"].set
resolve_request_deadline = KNOBS["request_deadline"].resolve
get_serve_workers = KNOBS["serve_workers"].get
set_serve_workers = KNOBS["serve_workers"].set
resolve_serve_workers = KNOBS["serve_workers"].resolve
get_microbatch_window_ms = KNOBS["microbatch_window_ms"].get
set_microbatch_window_ms = KNOBS["microbatch_window_ms"].set
resolve_microbatch_window_ms = KNOBS["microbatch_window_ms"].resolve
get_microbatch_max_rows = KNOBS["microbatch_max_rows"].get
set_microbatch_max_rows = KNOBS["microbatch_max_rows"].set
resolve_microbatch_max_rows = KNOBS["microbatch_max_rows"].resolve
get_max_rows_per_request = KNOBS["max_rows_per_request"].get
set_max_rows_per_request = KNOBS["max_rows_per_request"].set
resolve_max_rows_per_request = KNOBS["max_rows_per_request"].resolve
get_max_sessions = KNOBS["max_sessions"].get
set_max_sessions = KNOBS["max_sessions"].set
resolve_max_sessions = KNOBS["max_sessions"].resolve
get_max_queued_requests = KNOBS["max_queued_requests"].get
set_max_queued_requests = KNOBS["max_queued_requests"].set
resolve_max_queued_requests = KNOBS["max_queued_requests"].resolve
get_obs_enabled = KNOBS["obs_enabled"].get
set_obs_enabled = KNOBS["obs_enabled"].set
resolve_obs_enabled = KNOBS["obs_enabled"].resolve
get_query_provenance = KNOBS["query_provenance"].get
set_query_provenance = KNOBS["query_provenance"].set
resolve_query_provenance = KNOBS["query_provenance"].resolve
get_obs_trace_sample = KNOBS["obs_trace_sample"].get
set_obs_trace_sample = KNOBS["obs_trace_sample"].set
resolve_obs_trace_sample = KNOBS["obs_trace_sample"].resolve
get_scenario_transport = KNOBS["scenario_transport"].get
set_scenario_transport = KNOBS["scenario_transport"].set
resolve_scenario_transport = KNOBS["scenario_transport"].resolve
get_scenario_digest_check = KNOBS["scenario_digest_check"].get
set_scenario_digest_check = KNOBS["scenario_digest_check"].set
resolve_scenario_digest_check = KNOBS["scenario_digest_check"].resolve
__all__ += [
    f"{verb}_{name}" for name in KNOBS for verb in ("get", "set", "resolve")
]


@contextmanager
def use_backend(name: str):
    """Context manager that temporarily selects a kernel backend.

    >>> from repro.config import use_backend
    >>> with use_backend("loop"):
    ...     pass  # everything inside runs on the reference loops
    """
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
