"""One command for the IIM service benchmark.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 iimbench/run.py --workload point_read --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The run prints a
header, one line per measured value (unit and sample count included), and
as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  It exits 1 when an output is wrong, 2 when the program
is missing.  ``--record-pins`` rewrites ``pins.json`` (of one ``--workload``, or all)
from the current generators: input digests and ``bulk_impute`` RMS per
seed variant.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_read", "churn_rw", "bulk_impute")


def _workload(name: str):
    import importlib

    return importlib.import_module(name)


def _params():
    from repro.scenarios.generators import resolve_model_params

    from common import MODEL

    return resolve_model_params(MODEL)


def record_pins(workloads) -> int:
    from common import N_VARIANTS, PINS_PATH, load_pins

    pins = load_pins()
    for name in workloads:
        module = _workload(name)
        pins[name] = {}
        for variant in range(N_VARIANTS):
            inputs = module.make_inputs(variant)
            entry = {"digest": module.input_digest(inputs)}
            if hasattr(module, "reference_values"):
                entry.update(module.reference_values(inputs, _params()))
            pins[name][str(variant)] = entry
            print(name, variant, entry, flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import END_TO_END, check_pin, run_header
    from layers import PER_LAYER

    if args.record_pins:
        return record_pins([args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")

    module = _workload(args.workload)
    header = run_header(ROOT, args.workload, args.seed, bool(args.trace),
                        args.seconds)
    inputs = module.make_inputs(args.seed)
    header["input_digest"] = module.input_digest(inputs)
    check_pin(args.workload, args.seed, "digest", header["input_digest"])
    print("header " + json.dumps(header), flush=True)

    # A terminated run unwinds like an error, so its servers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = module.run(inputs, args.seed, args.seconds, bool(args.trace),
                            workdir, _params())
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for line in report.lines:
        n = "" if line["n"] is None else f"  n={line['n']}"
        detail = f"  ({line['detail']})" if line["detail"] else ""
        print(f"  {line['name']:<40} {line['value']:>14.6g} {line['unit']}"
              f"{n}{detail}")
    expected = ({name for name, *_ in PER_LAYER} if args.trace
                else {name for name, *_ in END_TO_END})
    report.check(set(report.metrics) == expected,
                 f"reported metrics {sorted(report.metrics)} != "
                 f"{sorted(expected)}")
    for message in report.mismatches:
        print(f"MISMATCH {message}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
