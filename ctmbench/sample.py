"""One sample of one workload, in a fresh process; run.py starts it.

It times the import of ctm_lab and ctm_lab.cli first (set-up), builds the
seeded inputs, times the body between two runs of the workload's fixed
reference kernel, checks the output, feeds the checker a corrupted copy (which it
must reject), and prints one JSON line.

    python3 ctmbench/sample.py --workload NAME --seed N --trace 0|1 --workdir DIR
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

_t0 = time.perf_counter()
import ctm_lab  # noqa: E402
import ctm_lab.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_checks(checks, results):
    for name, check in checks:
        try:
            ok = bool(check())
            reason = None if ok else "check returned false"
        except Exception:  # a check that raises is a failed check
            ok, reason = False, traceback.format_exc(limit=3)
        results.append({"check": name, "ok": ok, "reason": reason})


def _reference_s(workload, inputs) -> float:
    t0 = time.perf_counter()
    workload.reference(inputs)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(ctm_lab.__file__).startswith(SRC + os.sep):
        print(f"ctm_lab was imported from {ctm_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.workdir)
    tracer = tracing.Tracer(args.run_id) if args.trace else None

    ref_before = _reference_s(workload, inputs)
    cpu0 = tracing.process_cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = workload.body(inputs)
        else:
            with tracing.installed(tracer):
                output = workload.body(inputs)
        error = None
    except Exception:  # the body failing is a failed check, reported below
        output, error = None, traceback.format_exc(limit=5)
    wall_s = time.perf_counter() - t0
    cpu_s = tracing.process_cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()
    ref_s = (ref_before + _reference_s(workload, inputs)) / 2

    results = []
    if error is not None:
        results.append({"check": "body", "ok": False, "reason": error})
    else:
        _run_checks(workload.check_output(inputs, output), results)
        _run_checks(workload.check_program(inputs), results)
        rejected = []
        _run_checks(workload.check_output(inputs, workload.corrupt(inputs, output)), rejected)
        caught = any(not r["ok"] for r in rejected)
        results.append({
            "check": "self_test_rejects_corrupted_output",
            "ok": caught,
            "reason": None if caught else "every check accepted a corrupted output",
        })

    record = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ref_s": ref_s,
        "work": None if error else workload.work(inputs, output),
        "checks": results,
    }
    if tracer is not None and error is None:
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
