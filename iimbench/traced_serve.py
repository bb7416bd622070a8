"""``python -m repro serve`` with the benchmark's layer spans wrapped around it.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python iimbench/traced_serve.py --spans spans.json serve --port 7007

Installs the wrappers of :mod:`spans` (recording starts *on*, so set-up is
recorded), then runs the program's own CLI.  ``SIGUSR2`` turns recording
off and ``SIGUSR1`` on again, so one server answers both the untraced
reference phase and the traced phase of a run.  The spans are written to ``--spans`` when the server exits.
"""

from __future__ import annotations

import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402  (the benchmark's module, beside this file)


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans PATH serve ...", file=sys.stderr)
        return 2
    spans_path = Path(argv[1])
    # Block the switch signals before any thread exists (numpy's BLAS pool
    # starts on import): every later thread inherits the mask, so the
    # signals reach only the listener below, however busy the server is.
    switches = {signal.SIGUSR1, signal.SIGUSR2}
    signal.pthread_sigmask(signal.SIG_BLOCK, switches)
    recorder = spans.Recorder(enabled=True)
    spans.install(recorder)
    spans.install_dispatch(recorder)

    def listen() -> None:
        while True:
            recorder.enabled = signal.sigwait(switches) == signal.SIGUSR1

    threading.Thread(target=listen, name="span-switch", daemon=True).start()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.enabled = False
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
