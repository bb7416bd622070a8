"""The load generator's side of the wire: a serve subprocess and JSONL clients.

:class:`ServerProcess` spawns ``python -m repro serve --port P`` (or the
traced launcher beside this file) from the checkout's ``src/`` and stops it
with a ``shutdown`` request.  :class:`Connection` is one TCP connection that
pipelines requests: :meth:`Connection.send` stamps and writes a request
without waiting, a reader thread records each response's arrival time, and
:meth:`Connection.call` is the synchronous form used during set-up.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Child-side hook: the kernel kills the server if the benchmark dies."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One serve-loop subprocess on a loopback port.

    ``traced`` starts :mod:`traced_serve` instead of ``python -m repro
    serve``; it takes the same arguments and writes its spans to
    ``spans_path`` when it exits.
    """

    def __init__(self, workdir: Path, extra_args: List[str] = (), *,
                 traced: bool = False, spans_path: Optional[Path] = None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("REPRO_PROFILE", None)
        if traced:
            argv = [sys.executable, str(HERE / "traced_serve.py"),
                    "--spans", str(spans_path)]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["serve", "--port", str(self.port), *extra_args]
        self.log_path = self.workdir / "server.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=self.workdir, env=env,
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log,
            preexec_fn=_die_with_parent,
        )

    def connect(self, timeout: float = 60.0) -> "Connection":
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}"
                )
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), 1.0)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
                continue
            return Connection(sock)

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def record_spans(self, on: bool) -> None:
        """Switch a traced server's span recording on or off."""
        os.kill(self.proc.pid, signal.SIGUSR1 if on else signal.SIGUSR2)
        time.sleep(0.05)

    def stop(self, conn: "Connection", timeout: float = 30.0) -> None:
        """Ask the server to shut down over ``conn``, then wait for it
        (kill on timeout)."""
        try:
            if self.proc.poll() is None:
                try:
                    conn.call({"cmd": "shutdown"}, timeout=timeout)
                except (OSError, RuntimeError, TimeoutError):
                    pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        finally:
            self._log.close()


class Record:
    """One request on the wire: when it was due, sent and answered."""

    __slots__ = ("rid", "kind", "due", "sent", "done", "response", "tag")

    def __init__(self, rid: int, kind: str, due: float, tag=None):
        self.rid = rid
        self.kind = kind
        self.due = due
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.response: Optional[Dict[str, object]] = None
        self.tag = tag

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until its answer."""
        return self.done - self.due


class Connection:
    """A pipelined JSONL connection with a background response reader."""

    _ids = iter(range(1, 1 << 62))
    _ids_lock = threading.Lock()

    def __init__(self, sock: socket.socket):
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.records: Dict[int, Record] = {}
        self._lock = threading.Lock()
        self._answered = threading.Condition(self._lock)
        self.outstanding = 0
        self.closed = False
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    @classmethod
    def next_id(cls) -> int:
        with cls._ids_lock:
            return next(cls._ids)

    def send(self, request: Dict[str, object], kind: str,
             due: Optional[float] = None, tag=None) -> Record:
        rid = self.next_id()
        now = time.perf_counter()
        record = Record(rid, kind, now if due is None else due, tag)
        payload = (json.dumps({"v": 1, "id": rid, **request}) + "\n").encode()
        with self._lock:
            self.records[rid] = record
            self.outstanding += 1
        record.sent = time.perf_counter()
        self.sock.sendall(payload)
        return record

    def call(self, request: Dict[str, object], kind: str = "setup",
             timeout: float = 300.0) -> Dict[str, object]:
        """Send one request and wait for its answer; raise on an error."""
        record = self.send(request, kind)
        self.wait_for(record, timeout)
        response = record.response
        if not response.get("ok"):
            raise RuntimeError(f"{request.get('cmd')} failed: {response}")
        return response["result"]

    def wait_for(self, record: Record, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self._lock:
            while record.done is None and not self.closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"no answer to request {record.rid}")
                self._answered.wait(remaining)
        if record.done is None:
            raise RuntimeError("connection closed before the answer")

    def wait_below(self, limit: int, timeout: float) -> bool:
        """Block until fewer than ``limit`` requests are outstanding."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self.outstanding >= limit and not self.closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._answered.wait(remaining)
        return self.outstanding < limit

    def drain(self, timeout: float) -> bool:
        return self.wait_below(1, timeout)

    def _read_loop(self) -> None:
        try:
            for line in self.rfile:
                done = time.perf_counter()
                response = json.loads(line)
                with self._lock:
                    record = self.records.get(response.get("id"))
                    if record is not None and record.done is None:
                        record.done = done
                        record.response = response
                        self.outstanding -= 1
                    self._answered.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self._lock:
                self.closed = True
                self._answered.notify_all()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10.0)
        self.rfile.close()
