"""The benchmark's workloads: seeded inputs, the timed body, output checks.

Each workload provides
  prepare(seed, workdir) -> inputs     built before the timer starts
  body(inputs) -> output               the timed region
  check_output(inputs, output)         (name, callable) pairs over the output
  check_program(inputs)                checks that do not read the output
  corrupt(inputs, output) -> output    a broken copy for the negative self-test
  work(inputs, output) -> int          runs or bits the body accounted for
  reference(inputs)                    fixed work of the body's kind, timed
                                       around every body (see run.py)

Bodies call ctm_lab only through module attributes (``space.run_space``,
``cli.main``) so that a traced run can wrap them; see tracing.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
from collections import Counter

import numpy as np

from ctm_lab import cli, ctm, space

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
D3_BOTH_TABLE = os.path.join(ROOT, "src", "ctm_lab", "data", "d3_both.ctm")

with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as _fh:
    METRICS = json.load(_fh)

DEFAULT_SEED = METRICS["d4_sample_sha256"]["seed"]


def _first_record_bumped(data: bytes) -> bytes:
    """Copy of a canonical table with the first record's count raised by one."""
    lines = data.split(b"\n")
    fields = lines[3].split(b",")
    fields[1] = str(int(fields[1]) + 1).encode()
    lines[3] = b",".join(fields)
    return b"\n".join(lines)


def _engine_reference_table():
    return np.random.default_rng(0).integers(0, 18, size=(1 << 18, 8), dtype=np.uint8)


def _engine_reference(table):
    """Fixed numpy work of the engine's kind: row gathers, compares and selects."""
    rows = np.arange(table.shape[0])
    state = np.zeros(table.shape[0], np.int64)
    acc = np.zeros(table.shape[0], np.int64)
    for _ in range(40):
        o = table[rows, state]
        state = (o % 4).astype(np.int64) * 2 % 8
        acc += np.where(o >= 16, 1, o // 4)
    return int(acc.sum())


class CensusD3Both:
    """Full (3,2) census on both blanks, sharded over two worker processes.

    Exhaustive, so the seed is not used.
    """

    name = "census-d3-both"

    def prepare(self, seed, workdir):
        with open(D3_BOTH_TABLE, "rb") as fh:
            return {"expected": fh.read(), "reference": _engine_reference_table()}

    def reference(self, inputs):
        _engine_reference(inputs["reference"])

    def body(self, inputs):
        freq = space.run_space(space.SpaceSpec(3, blank_mode="both"), workers=2)
        return freq.census.total_runs, ctm.dumps_ctm_table(ctm.to_ctm(freq))

    def check_output(self, inputs, output):
        # the table's meta header carries the census, so this also checks total_runs
        return [("bytes_match_shipped_d3_both", lambda: output[1] == inputs["expected"])]

    def check_program(self, inputs):
        return []

    def corrupt(self, inputs, output):
        total_runs, data = output
        return total_runs, _first_record_bumped(data)

    def work(self, inputs, output):
        return output[0]


class CensusD4Sample:
    """Strided (4,2) sample at cutoff S(4) = 107 in one process.

    The seed picks the offset of the stride, so each seed runs a different
    set of about 4.19 M machines.
    """

    name = "census-d4-sample"
    stride = 2627
    oracle_size = 4000

    def __init__(self):
        self.spec = space.SpaceSpec(4, max_steps=107)

    def prepare(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.randrange(self.stride)
        indices = np.arange(offset, space.space_size(4), self.stride, dtype=np.uint64)
        picks = sorted(rng.sample(range(indices.size), self.oracle_size))
        return {"seed": seed, "offset": offset, "indices": indices, "oracle": indices[picks],
                "reference": _engine_reference_table()}

    def reference(self, inputs):
        _engine_reference(inputs["reference"])

    def body(self, inputs):
        return space.run_index_array(self.spec, inputs["indices"])

    def check_output(self, inputs, table):
        checks = [
            ("validate", lambda: table.validate() is None),
            ("total_runs_is_sample_size", lambda: table.census.total_runs == inputs["indices"].size),
        ]
        if inputs["seed"] == DEFAULT_SEED:
            expected = METRICS["d4_sample_sha256"]["sha256"]
            checks.append(
                ("sha256_default_seed",
                 lambda: hashlib.sha256(table.canonical_bytes()).hexdigest() == expected)
            )
        return checks

    def check_program(self, inputs):
        def vector_equals_scalar():
            sub = inputs["oracle"]
            vector = space.run_index_array(self.spec, sub, engine="vector")
            scalar = space.run_index_array(self.spec, sub, engine="scalar")
            return vector.canonical_bytes() == scalar.canonical_bytes()

        return [("vector_equals_scalar_oracle", vector_equals_scalar)]

    def corrupt(self, inputs, table):
        s = next(iter(table.counts))
        return dataclasses.replace(table, counts={**table.counts, s: table.counts[s] + 1})

    def work(self, inputs, table):
        return table.census.total_runs


def _corpus(seed, count=4000, min_bits=64, max_bits=8192):
    """Seeded binary strings in three equal kinds, log-uniform lengths.

    Lengths are stratified over the log range within each kind, so every
    seed carries nearly the same number of bits of each kind.
    """
    rng = np.random.default_rng([seed, 4000])
    per_kind = count // 3
    strings = []
    for kind in ("uniform", "periodic", "biased"):
        u = (np.arange(per_kind) + rng.random(per_kind)) / per_kind
        lengths = np.rint(min_bits * (max_bits / min_bits) ** u).astype(int)
        for length in lengths:
            if kind == "uniform":
                bits = rng.random(length) < 0.5
            elif kind == "periodic":
                period = int(rng.integers(1, 17))
                bits = np.resize(rng.random(period) < 0.5, length)
            else:
                bits = rng.random(length) < rng.uniform(0.02, 0.3)
            strings.append(np.where(bits, b"1", b"0").tobytes().decode("ascii"))
    order = rng.permutation(len(strings))
    return [strings[i] for i in order]


def _table_complexities(path):
    """string -> complexity_bits, read from the table file's rows by column name."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = rows[0].split(",")
    col = header.index("complexity_bits")
    return {fields[0]: float(fields[col]) for fields in (r.split(",") for r in rows[1:] if r)}


def _entropy(tokens):
    counts = Counter(tokens)
    total = sum(counts.values())
    return -math.fsum(c / total * math.log2(c / total) for c in counts.values())


def _blocks(s, k):
    return [s[i:i + k] for i in range(0, len(s) - k + 1, k)]


def _reference_row(s, complexities, k):
    """bdm, shannon_entropy, block_entropy and lz78_bits computed from first principles."""
    blocks = Counter(_blocks(s, k))
    terms = []
    for block, mult in blocks.items():
        terms.append(complexities.get(block, k + math.log2(k)))
        terms.append(math.log2(mult))
    # LZ78: each new phrase is the longest known phrase plus one symbol; the
    # i-th costs ceil(log2 i) + 1 bits, and a trailing partial phrase is a
    # bare reference among the p+1 choices.
    seen = set()
    phrase = ""
    phrases = 0
    lz_bits = 0
    for ch in s:
        phrase += ch
        if phrase not in seen:
            seen.add(phrase)
            phrases += 1
            lz_bits += math.ceil(math.log2(phrases)) + 1
            phrase = ""
    if phrase:
        lz_bits += math.ceil(math.log2(phrases + 1))
    return {
        "bdm": math.fsum(terms),
        "shannon_entropy": _entropy(s),
        "block_entropy": _entropy(_blocks(s, k)),
        "lz78_bits": lz_bits,
    }


def _report_rows(path):
    """The divergence report's ``strings`` section as dicts keyed by column name."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("# section strings") + 1
    header = lines[start].split(",")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        rows.append(dict(zip(header, line.split(","))))
    return rows


class ConsumeCorpus:
    """Divergence report over a seeded corpus, through the CLI entry point.

    Reads the shipped d3_both table and never runs the engine.
    """

    name = "consume-corpus"
    block_len = 6
    checked_rows = 400

    def prepare(self, seed, workdir):
        corpus = _corpus(seed)
        path = os.path.join(workdir, "corpus.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(corpus) + "\n")
        distinct = sorted(set(corpus))
        checked = random.Random(f"{self.name}:{seed}").sample(distinct, self.checked_rows)
        return {
            "corpus": path,
            "out": os.path.join(workdir, "report.csv"),
            "distinct": distinct,
            "checked": checked,
            "bits": sum(len(s) for s in corpus),
            "workdir": workdir,
            "reference": (
                [np.where(row, b"1", b"0").tobytes().decode("ascii")
                 for row in np.random.default_rng(0).random((300, 2048)) < 0.5],
                _table_complexities(D3_BOTH_TABLE),
            ),
        }

    def reference(self, inputs):
        strings, complexities = inputs["reference"]
        for s in strings:
            _reference_row(s, complexities, self.block_len)

    def body(self, inputs):
        code = cli.main([
            "report", "divergence",
            "--table", D3_BOTH_TABLE,
            "--file", inputs["corpus"],
            "--block-len", str(self.block_len),
            "--out", inputs["out"],
        ])
        return code, inputs["out"]

    def check_output(self, inputs, output):
        code, path = output

        def one_row_per_distinct_string():
            strings = [row["string"] for row in _report_rows(path)]
            return len(strings) == len(inputs["distinct"]) and sorted(strings) == inputs["distinct"]

        def reference_values():
            rows = {row["string"]: row for row in _report_rows(path)}
            complexities = _table_complexities(D3_BOTH_TABLE)
            for s in inputs["checked"]:
                want = _reference_row(s, complexities, self.block_len)
                got = rows[s]
                for col in ("bdm", "shannon_entropy", "block_entropy"):
                    if float(got[col]) != want[col]:
                        return False
                if int(got["lz78_bits"]) != want["lz78_bits"]:
                    return False
            return True

        return [
            ("exit_code_0", lambda: code == 0),
            ("one_row_per_distinct_string", one_row_per_distinct_string),
            ("reference_values", reference_values),
        ]

    def check_program(self, inputs):
        return []

    def corrupt(self, inputs, output):
        code, path = output
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[lines.index("# section strings") + 1].split(",")
        col = header.index("bdm")
        target = inputs["checked"][0] + ","
        for i, line in enumerate(lines):
            if line.startswith(target):
                fields = line.split(",")
                fields[col] = repr(float(fields[col]) + 1.0)
                lines[i] = ",".join(fields)
                break
        broken = os.path.join(inputs["workdir"], "report_corrupted.csv")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return code, broken

    def work(self, inputs, output):
        return inputs["bits"]


WORKLOADS = {w.name: w for w in (CensusD3Both(), CensusD4Sample(), ConsumeCorpus())}
