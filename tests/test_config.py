"""Pinning tests for the process-wide knobs of :mod:`repro.config`.

One table row per knob drives every check: the default, the ``REPRO_*``
environment variable (read at import, validated at first use), the
``set_*``/``get_*`` round trip, the ``resolve_*`` sentinels and the error
an invalid value raises.  Every test runs against a freshly reloaded
``repro.config`` and puts the original module namespace back afterwards,
so no knob state leaks into the rest of the suite.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
import repro.config as config
from repro.__main__ import main as repro_main
from repro.exceptions import ConfigurationError


class Row(NamedTuple):
    name: str  # suffix of the get_/set_/resolve_ accessors
    phrase: str  # what an error message names (underscores read as spaces)
    env: str
    constant: str  # the DEFAULT_* constant
    default: object
    value: object  # a valid non-default value for set_*
    expected: object  # ... and what the knob reads back
    env_text: str  # a valid environment spelling
    env_expected: object  # ... and what the knob reads back
    bad: object  # an invalid value
    nullable: bool  # whether None is a legal value (resolve(None) -> None)


KNOBS = [
    Row("backend", "backend", "REPRO_BACKEND", "DEFAULT_BACKEND",
        "vectorized", "LOOP", "loop", "Loop", "loop", "simd", False),
    Row("online_model_cache_size", "model cache size",
        "REPRO_ONLINE_CACHE_SIZE", "DEFAULT_ONLINE_MODEL_CACHE_SIZE",
        8, 3, 3, "none", None, -3, True),
    Row("online_refresh_policy", "refresh policy", "REPRO_ONLINE_REFRESH",
        "DEFAULT_ONLINE_REFRESH_POLICY",
        "lazy", "eager", "eager", "EAGER", "eager", "sometimes", False),
    Row("online_fallback_fraction", "fallback fraction",
        "REPRO_ONLINE_FALLBACK_FRACTION", "DEFAULT_ONLINE_FALLBACK_FRACTION",
        0.9, 0.5, 0.5, "0.25", 0.25, 1.5, True),
    Row("online_shard_capacity", "shard capacity",
        "REPRO_ONLINE_SHARD_CAPACITY", "DEFAULT_ONLINE_SHARD_CAPACITY",
        4096, 128, 128, " 128 ", 128, 0, False),
    Row("online_journal_capacity", "journal capacity",
        "REPRO_ONLINE_JOURNAL_CAPACITY", "DEFAULT_ONLINE_JOURNAL_CAPACITY",
        512, 64, 64, "64", 64, -1, False),
    Row("online_delete_cost_mode", "delete cost mode",
        "REPRO_ONLINE_DELETE_COST", "DEFAULT_ONLINE_DELETE_COST_MODE",
        "rebuild", "decrement", "decrement", "decrement", "decrement",
        "erase", False),
    Row("wal_sync", "wal sync", "REPRO_WAL_SYNC", "DEFAULT_WAL_SYNC",
        "batch", "always", "always", "off", "off", "never", False),
    Row("max_request_bytes", "max request bytes", "REPRO_MAX_REQUEST_BYTES",
        "DEFAULT_MAX_REQUEST_BYTES",
        1_048_576, 4096, 4096, "none", None, 0, True),
    Row("request_deadline", "request deadline", "REPRO_REQUEST_DEADLINE",
        "DEFAULT_REQUEST_DEADLINE",
        None, 2.5, 2.5, "2.5", 2.5, -1.0, True),
    Row("serve_workers", "serve workers", "REPRO_SERVE_WORKERS",
        "DEFAULT_SERVE_WORKERS", 4, 2, 2, "2", 2, 0, False),
    Row("microbatch_window_ms", "microbatch window",
        "REPRO_MICROBATCH_WINDOW_MS", "DEFAULT_MICROBATCH_WINDOW_MS",
        0.0, 1.5, 1.5, "1.5", 1.5, -1.0, False),
    Row("microbatch_max_rows", "microbatch max rows",
        "REPRO_MICROBATCH_MAX_ROWS", "DEFAULT_MICROBATCH_MAX_ROWS",
        64, 16, 16, "16", 16, 0, False),
    Row("max_rows_per_request", "max rows per request",
        "REPRO_MAX_ROWS_PER_REQUEST", "DEFAULT_MAX_ROWS_PER_REQUEST",
        None, 100, 100, "100", 100, -5, True),
    Row("max_sessions", "max sessions", "REPRO_MAX_SESSIONS",
        "DEFAULT_MAX_SESSIONS", None, 5, 5, "5", 5, -1, True),
    Row("max_queued_requests", "max queued requests",
        "REPRO_MAX_QUEUED_REQUESTS", "DEFAULT_MAX_QUEUED_REQUESTS",
        256, 32, 32, "32", 32, 0, False),
    Row("obs_enabled", "obs enabled", "REPRO_OBS_ENABLED",
        "DEFAULT_OBS_ENABLED", True, False, False, "0", False, "maybe", False),
    Row("query_provenance", "query provenance", "REPRO_QUERY_PROVENANCE",
        "DEFAULT_QUERY_PROVENANCE",
        True, False, False, "off", False, "maybe", False),
    Row("obs_trace_sample", "obs trace sample", "REPRO_OBS_TRACE_SAMPLE",
        "DEFAULT_OBS_TRACE_SAMPLE", 0.1, 0.5, 0.5, "1", 1.0, 2.0, False),
    Row("scenario_transport", "scenario transport",
        "REPRO_SCENARIO_TRANSPORT", "DEFAULT_SCENARIO_TRANSPORT",
        "auto", "engine", "engine", "tcp", "tcp", "carrier-pigeon", False),
    Row("scenario_digest_check", "scenario digest check",
        "REPRO_SCENARIO_DIGEST_CHECK", "DEFAULT_SCENARIO_DIGEST_CHECK",
        True, False, False, "no", False, "maybe", False),
]

#: Knobs whose values are real numbers (the non-finite checks apply).
FLOAT_KNOBS = [
    row for row in KNOBS
    if row.name in ("online_fallback_fraction", "request_deadline",
                    "microbatch_window_ms", "obs_trace_sample")
]

#: Public names besides the per-knob accessors and DEFAULT_* constants.
EXTRA_PUBLIC = [
    "BACKENDS", "use_backend", "ONLINE_REFRESH_POLICIES",
    "ONLINE_DELETE_COST_MODES", "WAL_SYNC_POLICIES", "SCENARIO_TRANSPORTS",
]

SRC = Path(repro.__file__).resolve().parent.parent


def _ids(rows):
    return [row.name for row in rows]


def _accessors(module, row):
    return (
        getattr(module, f"get_{row.name}"),
        getattr(module, f"set_{row.name}"),
        getattr(module, f"resolve_{row.name}"),
    )


def _names_knob(exc_info, row) -> bool:
    return row.phrase in str(exc_info.value).lower().replace("_", " ")


@pytest.fixture
def fresh(monkeypatch):
    """Reload ``repro.config`` under a clean environment; undo afterwards.

    The returned callable reloads the module again (after the test has set
    environment variables) and returns it.
    """
    for row in KNOBS:
        monkeypatch.delenv(row.env, raising=False)
    saved = dict(config.__dict__)

    def reload():
        return importlib.reload(config)

    reload()
    yield reload
    config.__dict__.clear()
    config.__dict__.update(saved)


def test_table_covers_every_public_name():
    expected = set(EXTRA_PUBLIC)
    for row in KNOBS:
        expected.add(row.constant)
        expected.update(
            f"{verb}_{row.name}" for verb in ("get", "set", "resolve")
        )
    assert expected <= set(config.__all__)
    for name in expected:
        assert hasattr(config, name), name
    for name in ("BACKENDS", "get_backend", "set_backend", "resolve_backend",
                 "use_backend"):
        assert hasattr(repro, name)


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_default(fresh, row):
    module = fresh()
    get, _, _ = _accessors(module, row)
    assert getattr(module, row.constant) == row.default
    assert get() == row.default
    assert type(get()) is type(row.default)


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_environment_variable(fresh, monkeypatch, row):
    monkeypatch.setenv(row.env, row.env_text)
    module = fresh()
    get, _, resolve = _accessors(module, row)
    assert get() == row.env_expected
    assert resolve(None) == (None if row.nullable else row.env_expected)


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_set_get_round_trip(fresh, row):
    module = fresh()
    get, set_, _ = _accessors(module, row)
    assert set_(row.value) == row.default
    assert get() == row.expected
    assert set_(row.default) == row.expected
    assert get() == row.default
    if row.nullable:
        set_(None)
        assert get() is None


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_set_returns_the_validated_previous_value(fresh, monkeypatch, row):
    monkeypatch.setenv(row.env, row.env_text)
    module = fresh()
    _, set_, _ = _accessors(module, row)
    previous = set_(row.value)
    assert previous == row.env_expected
    assert type(previous) is type(row.env_expected)


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_resolve(fresh, row):
    module = fresh()
    get, set_, resolve = _accessors(module, row)
    set_(row.value)
    assert resolve(None) == (None if row.nullable else row.expected)
    assert resolve(row.value) == row.expected
    assert resolve(row.default) == row.default


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_resolve_default_sentinel_defers_to_the_knob(fresh, row):
    module = fresh()
    _, set_, resolve = _accessors(module, row)
    set_(row.value)
    assert resolve("default") == row.expected


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_invalid_value_raises_naming_the_knob(fresh, row):
    module = fresh()
    get, set_, resolve = _accessors(module, row)
    for bad in (row.bad, str(row.bad), []):
        with pytest.raises(ConfigurationError) as exc_info:
            set_(bad)
        assert _names_knob(exc_info, row), str(exc_info.value)
        with pytest.raises(ConfigurationError) as exc_info:
            resolve(bad)
        assert _names_knob(exc_info, row), str(exc_info.value)
    assert get() == row.default


@pytest.mark.parametrize("row", KNOBS, ids=_ids(KNOBS))
def test_invalid_environment_value_fails_at_first_use(fresh, monkeypatch, row):
    monkeypatch.setenv(row.env, str(row.bad))
    module = fresh()  # the import itself must not raise
    get, _, resolve = _accessors(module, row)
    with pytest.raises(ConfigurationError) as exc_info:
        get()
    assert _names_knob(exc_info, row), str(exc_info.value)
    assert resolve(row.value) == row.expected


def test_invalid_environment_values_do_not_break_import():
    env = dict(os.environ)
    env.update({row.env: str(row.bad) for row in KNOBS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    names = json.dumps(_ids(KNOBS))
    script = (
        "import json, repro, repro.api.serve, repro.online, repro.obs, "
        "repro.query, repro.scenarios, repro.reliability\n"
        "from repro import config\n"
        "from repro.exceptions import ConfigurationError\n"
        "failed = []\n"
        f"for name in json.loads({names!r}):\n"
        "    try:\n"
        "        getattr(config, 'get_' + name)()\n"
        "    except ConfigurationError:\n"
        "        failed.append(name)\n"
        "print(json.dumps(failed))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == _ids(KNOBS)


def test_use_backend_restores_the_previous_backend(fresh):
    module = fresh()
    with module.use_backend("loop"):
        assert module.get_backend() == "loop"
    assert module.get_backend() == "vectorized"


# --------------------------------------------------------------------------- #
# Non-finite numbers
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("row", FLOAT_KNOBS, ids=_ids(FLOAT_KNOBS))
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, "nan", "inf", "Infinity"],
    ids=["nan", "inf", "-inf", "'nan'", "'inf'", "'Infinity'"],
)
def test_non_finite_values_are_rejected(fresh, row, value):
    module = fresh()
    get, set_, resolve = _accessors(module, row)
    with pytest.raises(ConfigurationError) as exc_info:
        set_(value)
    assert _names_knob(exc_info, row), str(exc_info.value)
    with pytest.raises(ConfigurationError):
        resolve(value)
    assert get() == row.default


@pytest.mark.parametrize("row", FLOAT_KNOBS, ids=_ids(FLOAT_KNOBS))
@pytest.mark.parametrize("text", ["nan", "inf"])
def test_non_finite_environment_values_are_rejected(fresh, monkeypatch, row,
                                                    text):
    monkeypatch.setenv(row.env, text)
    module = fresh()
    get, _, _ = _accessors(module, row)
    with pytest.raises(ConfigurationError) as exc_info:
        get()
    assert _names_knob(exc_info, row), str(exc_info.value)


# --------------------------------------------------------------------------- #
# ``python -m repro serve`` with a bad knob value
# --------------------------------------------------------------------------- #

BAD_SERVE_FLAGS = [
    ["--deadline", "nan"],
    ["--deadline", "inf"],
    ["--deadline", "abc"],
    ["--microbatch-window-ms", "inf"],
    ["--microbatch-window-ms", "nan"],
    ["--workers", "0"],
    ["--trace-sample", "2"],
]


@pytest.mark.parametrize("flag", BAD_SERVE_FLAGS, ids=" ".join)
def test_serve_rejects_a_bad_flag_with_exit_code_2(capsys, flag):
    assert repro_main(["serve", "--stdio"] + flag) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("env,text", [
    ("REPRO_REQUEST_DEADLINE", "abc"),
    ("REPRO_REQUEST_DEADLINE", "nan"),
    ("REPRO_MICROBATCH_WINDOW_MS", "inf"),
])
def test_serve_rejects_a_bad_environment_value_with_exit_code_2(env, text):
    environ = dict(os.environ)
    environ[env] = text
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio"], env=environ,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
