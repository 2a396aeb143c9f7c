"""Span tracing for the benchmark's traced runs.

Every layer of ctm_lab is traced at the name its caller looks up: the
benchmark's own bodies call ``space.run_space``, ``ctm.to_ctm`` and
``cli.main`` as module attributes, and the calls the library makes
internally go through module globals (``space.merge_shards``,
``cli.load_ctm_table``, ``analysis.bdm_value`` ...) or a class attribute
(``FrequencyTable.validate``). ``installed`` swaps each of those names for
a wrapper that records one span per call and puts the originals back when
the timed body ends, so no file of the package is edited and the checks
that run afterwards see the untraced functions.

A span is {name, start, end, parent, run}: parent is the index of the
enclosing span in the same run, or None. A layer's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import resource
import time
from collections import Counter

# census-d3-both fixes two workers; busy_ratio measures the engine against
# that core budget on every workload, so a one-process engine reads <= 0.5.
ENGINE_CORES = 2

ENGINE_SPANS = ("space.run_space", "space.run_index_array")
CENSUS_FIELDS = ("total_runs", "halted", "no_halt_rule", "blank_escape", "step_limited")

# Metrics this module computes for every traced run; a layer the workload
# never calls reads 0.
LAYER_METRICS = (
    "space.run_space.self_s",
    "space.run_index_array.self_s",
    "space.runs_per_cpu_s",
    "space.workers.busy_ratio",
    "space.merge_shards.s",
    "space.shards",
    "space.validate.s",
    *(f"space.census.{f}" for f in CENSUS_FIELDS),
    "space.strings",
    "space.halted_ratio",
    "space.step_limited_ratio",
    "ctm.to_ctm.s",
    "ctm.dumps_ctm_table.s",
    "ctm.bytes_written",
    "ctm.load_ctm_table.s",
    "ctm.entries_loaded",
    "bdm.bdm_value.s",
    "bdm.bdm_value.calls",
    "bdm.blocks",
    "bdm.fallback_ratio",
    "baselines.lz78_bit_length.s",
    "baselines.shannon_entropy.s",
    "baselines.block_entropy.s",
    "analysis.divergence_report.self_s",
    "analysis.report_to_csv.s",
    "cli.main.self_s",
    "cli.bytes_emitted",
)


def process_cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Spans and counts of one traced run, kept in memory until it ends."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.bdm_calls = []  # (args, kwargs) of bdm_value, counted after the body
        self._stack = []

    def call(self, name, fn, args, kwargs, on_result=None, cpu=False):
        span = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        cpu0 = process_cpu_s() if cpu else 0.0
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            if cpu:
                span["cpu_s"] = process_cpu_s() - cpu0
            self._stack.pop()
        if on_result is not None:
            on_result(self, args, kwargs, result)
        return result


def _count_census(tracer, args, kwargs, table):
    for f in CENSUS_FIELDS:
        tracer.counts[f"space.census.{f}"] += getattr(table.census, f)
    tracer.counts["space.strings"] += len(table.counts)


def _count_shards(tracer, args, kwargs, table):
    tracer.counts["space.shards"] += len(args[0])


def _count_dumped(tracer, args, kwargs, data):
    tracer.counts["ctm.bytes_written"] += len(data)


def _count_loaded(tracer, args, kwargs, table):
    tracer.counts["ctm.entries_loaded"] += len(table.entries)


def _count_emitted(tracer, args, kwargs, code):
    argv = args[0]
    if "--out" in argv:
        tracer.counts["cli.bytes_emitted"] += os.path.getsize(argv[argv.index("--out") + 1])


def _keep_bdm_call(tracer, args, kwargs, value):
    tracer.bdm_calls.append((args, kwargs))


def _points():
    """(owner, attribute, span name, on_result, cpu) for every traced call."""
    from ctm_lab import analysis, cli, ctm, space

    return (
        (space, "run_space", "space.run_space", _count_census, True),
        (space, "run_index_array", "space.run_index_array", _count_census, True),
        (space, "merge_shards", "space.merge_shards", _count_shards, False),
        (space.FrequencyTable, "validate", "space.validate", None, False),
        (ctm, "to_ctm", "ctm.to_ctm", None, False),
        (ctm, "dumps_ctm_table", "ctm.dumps_ctm_table", _count_dumped, False),
        (cli, "load_ctm_table", "ctm.load_ctm_table", _count_loaded, False),
        (cli, "divergence_report", "analysis.divergence_report", None, False),
        (cli, "report_to_csv", "analysis.report_to_csv", None, False),
        (cli, "main", "cli.main", _count_emitted, False),
        (analysis, "bdm_value", "bdm.bdm_value", _keep_bdm_call, False),
        (analysis, "shannon_entropy", "baselines.shannon_entropy", None, False),
        (analysis, "block_entropy", "baselines.block_entropy", None, False),
        (analysis, "lz78_bit_length", "baselines.lz78_bit_length", None, False),
    )


def _wrap(tracer, fn, name, on_result, cpu):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result, cpu)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced call through tracer while the block runs."""
    saved = []
    try:
        for owner, attr, name, on_result, cpu in _points():
            if not hasattr(owner, attr):
                continue  # a call site the package no longer has; its metrics read 0
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, on_result, cpu))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _bdm_block_counts(calls):
    """Full blocks cut by bdm_value, and how many of them the table lacks."""
    from ctm_lab.bdm import bdm_value

    signature = inspect.signature(bdm_value)
    blocks = missing = 0
    for args, kwargs in calls:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        s, table, cfg = bound.args[:3]
        k = cfg.block_len
        for i in range(0, len(s) - k + 1, k):
            blocks += 1
            missing += s[i:i + k] not in table.entries
    return blocks, missing


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, keyed as in LAYER_METRICS."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    total = Counter()
    own = Counter()
    calls = Counter()
    engine_cpu = 0.0
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        own[span["name"]] += duration - covered[i]
        calls[span["name"]] += 1
        engine_cpu += span.get("cpu_s", 0.0)
    engine_s = sum(total[name] for name in ENGINE_SPANS)
    runs = tracer.counts["space.census.total_runs"]
    blocks, missing = _bdm_block_counts(tracer.bdm_calls)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: 0.0 for name in LAYER_METRICS}
    m.update({k: float(v) for k, v in tracer.counts.items() if k in m})
    for name in ("space.run_space", "space.run_index_array", "analysis.divergence_report", "cli.main"):
        m[f"{name}.self_s"] = float(own[name])
    for name in (
        "space.merge_shards", "space.validate", "ctm.to_ctm", "ctm.dumps_ctm_table",
        "ctm.load_ctm_table", "bdm.bdm_value", "baselines.lz78_bit_length",
        "baselines.shannon_entropy", "baselines.block_entropy", "analysis.report_to_csv",
    ):
        m[f"{name}.s"] = float(total[name])
    m["bdm.bdm_value.calls"] = float(calls["bdm.bdm_value"])
    m["bdm.blocks"] = float(blocks)
    m["bdm.fallback_ratio"] = ratio(missing, blocks)
    m["space.runs_per_cpu_s"] = ratio(runs, engine_cpu)
    m["space.workers.busy_ratio"] = ratio(engine_cpu, ENGINE_CORES * engine_s)
    m["space.halted_ratio"] = ratio(tracer.counts["space.census.halted"], runs)
    m["space.step_limited_ratio"] = ratio(tracer.counts["space.census.step_limited"], runs)
    return m


def scipy_import_s(importtime_stderr: str) -> float:
    """Cumulative seconds of the outermost scipy imports in ``-X importtime`` output.

    The lines come children first; walking them backwards visits each
    module before its children, so a scipy module nested inside another
    scipy import is skipped and nothing is counted twice.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total_us = 0
    stack = []  # (depth, inside a scipy import)
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6
