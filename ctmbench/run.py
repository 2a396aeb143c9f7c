#!/usr/bin/env python3
"""ctm-lab benchmark runner.

    python3 ctmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ctmbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; the package is imported from
src/, nothing is installed. Each sample is a fresh process (sample.py)
that imports ctm_lab, builds the seeded inputs, times one workload body
and checks its output. The runner starts samples until --seconds have
passed and reports medians over them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced samples and reports the per-layer metrics
of the traced ones, plus trace.overhead_ratio (traced / untraced median
wall_ref); the spans are written to .ctmbench/spans-<workload>-seed<N>.json.

Output: a summary per workload with each metric's unit, median and sample
count, a JSON line with the details and host provenance, and as the last
line {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

from tracing import scipy_import_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
WORK_DIR = os.path.join(ROOT, ".ctmbench")
DEADLINE_S = 170  # a run must end within 180 s

# Per-sample values reported as medians: name -> (unit, value of one sample).
# On a shared host the speed drifts by tens of percent over minutes, so the
# gated times are given in units of ref_s: the time of a fixed kernel of the
# same kind of work as the body (workloads.py), run right before and right
# after it in the same process. The ratio cancels most of the drift.
SAMPLE_ROWS = {
    "setup_s": ("s", lambda r: r["setup_s"]),
    "wall_s": ("s", lambda r: r["wall_s"]),
    "cpu_s": ("s", lambda r: r["cpu_s"]),
    "work_per_s": ("1/s", lambda r: r["work"] / r["wall_s"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
    "ref_s": ("s", lambda r: r["ref_s"]),
    "wall_ref": ("ref", lambda r: r["wall_s"] / r["ref_s"]),
    "cpu_ref": ("ref", lambda r: r["cpu_s"] / r["ref_s"]),
    "work_per_ref": ("1/ref", lambda r: r["work"] * r["ref_s"] / r["wall_s"]),
}


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _host():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def _sample(workload, seed, traced, run_id, workdir, timeout):
    """Run one sample process; returns (record or None, error text or None)."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [SAMPLE, "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
            "--run-id", str(run_id), "--workdir", workdir]
    # its own session, so that a timeout also ends the pool workers it forked
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"sample timed out after {timeout:.0f} s"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"sample exited {proc.returncode}: {stderr[-2000:]}"
    record = json.loads(lines[-1])
    if traced and "layers" in record:
        record["layers"]["setup.scipy_import_s"] = scipy_import_s(stderr)
    return record, None


def _fmt(value):
    return f"{value:.0f}" if value == int(value) and abs(value) >= 1 else f"{value:.6g}"


def _stats(values):
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _collect(workload, seed, seconds, trace):
    """Start samples until `seconds` have passed; traced ones alternate with untraced."""
    os.makedirs(WORK_DIR, exist_ok=True)
    untraced, traced, checks = [], [], []
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=WORK_DIR) as workdir:
        t0 = time.monotonic()
        run_id = 0
        while run_id < 1 + trace or time.monotonic() - t0 < seconds:
            is_traced = bool(trace) and run_id % 2 == 1
            timeout = max(10.0, DEADLINE_S - (time.monotonic() - t0))
            record, error = _sample(workload, seed, is_traced, run_id, workdir, timeout)
            run_id += 1
            if record is None:
                checks.append({"check": "sample_process", "ok": False, "reason": error})
                break
            checks.extend(record["checks"])
            if record["work"] is not None:
                (traced if is_traced else untraced).append(record)
            if time.monotonic() - t0 > DEADLINE_S - 20:
                break
    return untraced, traced, checks


def run_workload(bench, meta, workload, seed, seconds, trace):
    """Sample one workload; returns (summary lines, detail, result)."""
    untraced, traced, checks = _collect(workload, seed, seconds, trace)
    failed = sum(not c["ok"] for c in checks)
    failed_ratio = failed / len(checks)
    info = meta["workloads"][workload]
    rows = {name: _stats([value(r) for r in untraced])
            for name, (_, value) in SAMPLE_ROWS.items()} if untraced else {}
    metrics = {}
    if trace and traced and untraced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] / r["ref_s"] for r in traced)
        layers["trace.overhead_ratio"] = traced_wall / rows["wall_ref"]["median"]
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        with open(os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([span for r in traced for span in r["spans"]], fh)
    elif not trace and rows:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": rows[m["name"]]["median"], "unit": m["unit"]}

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    units.update({name: unit for name, (unit, _) in SAMPLE_ROWS.items()})
    lines = [
        f"== {workload}  seed {seed}  samples {len(untraced)} untraced, {len(traced)} traced  "
        f"checks {len(checks) - failed}/{len(checks)} passed  failed_ratio {failed_ratio:.4g}",
        f"  seed: {info['seed']}",
    ]
    for name, st in rows.items():
        label = name.replace("work", info["work_unit"])
        lines.append(f"  {label:<34} {units[name]:<6} median {_fmt(st['median']):<12} n={st['n']}")
    if metrics and trace:
        for name in info["per_layer"]:
            lines.append(f"  {name:<34} {units[name]:<6} median {_fmt(metrics[name]['value']):<12} "
                         f"n={len(traced)}")
    for c in checks:
        if not c["ok"]:
            lines.append(f"  failed check {c['check']}: {c['reason']}")
    detail = {
        "workload": workload,
        "seed": seed,
        "seed_used": info["seed"],
        "work_unit": info["work_unit"],
        "end_to_end": rows,
        "checks": {"attempted": len(checks), "failed": failed, "failed_ratio": failed_ratio},
    }
    if metrics and trace:
        detail["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    return lines, detail, result


def main(argv=None) -> int:
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "ctm_lab", "__init__.py")):
        print(f"ctmbench: no ctm_lab sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = _load_json(bench_path)
    meta = _load_json(os.path.join(HERE, "metrics.json"))
    names = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=meta["d4_sample_sha256"]["seed"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = _host()
    for workload in names if args.workload == "all" else [args.workload]:
        lines, detail, result = run_workload(
            bench, meta, workload, args.seed, args.seconds, args.trace
        )
        if not result["metrics"]:
            print("\n".join(lines), file=sys.stderr)
            return 1
        detail["host"] = host
        print("\n".join(lines))
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
