"""Coding-theorem tables: output frequencies turned into complexity estimates.

A CtmTable assigns every produced string an empirical probability and the
matching complexity in bits, -log2(probability). Under the halting_machines
normalization the probabilities form a distribution (they divide by the
number of halting runs); all_machines keeps the raw ratio against every run
performed, so the mass sums to halted/total <= 1.

Tables merge incrementally across rule spaces: for a string known to both,
the entry from the larger space wins, because a bigger exhaustive
enumeration is strictly more evidence.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest

from ._canon import canonical_key, decode_utf8, fmt_float, is_binary, meta_dumps, read_file
from .errors import ParseError, ValidationError
from .space import Census, FrequencyTable, SpaceSpec

NORM_HALTING = "halting_machines"
NORM_ALL = "all_machines"
NORMALIZATIONS = (NORM_HALTING, NORM_ALL)

_TABLE_MAGIC = "# ctm-table v1"
_TABLE_COLUMNS = "string,count,probability,complexity_bits,min_used_rules,source_space"
# The tool version format v1 writes into every meta header; another value
# is another format.
_V1_TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class CtmEntry:
    count: int
    probability: float
    complexity_bits: float
    min_used_rules: int
    source_space: int


@dataclass
class CtmTable:
    """string -> (probability, complexity) estimates plus their provenance.

    sources records each contributing space run's parameters and census.
    Immutable by convention once built; merge returns new tables.
    """

    normalization: str
    entries: dict
    sources: tuple

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(f"unknown normalization {self.normalization!r}")

    def probability_sum(self) -> float:
        return math.fsum(e.probability for e in self.entries.values())

    def complete_length(self) -> int:
        """The largest L such that every binary string of length 1..L has an
        entry; 0 when "0" or "1" is missing."""
        per_length = Counter(len(s) for s in self.entries if is_binary(s))
        k = 0
        while per_length[k + 1] == 2 ** (k + 1):
            k += 1
        return k

    def records(self):
        recs = [
            (s, e.count, e.probability, e.complexity_bits, e.min_used_rules, e.source_space)
            for s, e in self.entries.items()
        ]
        recs.sort(key=canonical_key)
        return recs


def _source_info(freq: FrequencyTable) -> dict:
    return {
        "spec": freq.spec.as_dict(),
        "census": freq.census.as_dict(),
    }


def to_ctm(freq: FrequencyTable, normalization: str = NORM_HALTING) -> CtmTable:
    """Build a CtmTable from a space run's frequency table."""
    if normalization not in NORMALIZATIONS:
        raise ValidationError(f"unknown normalization {normalization!r}")
    if not freq.counts or freq.census.halted <= 0:
        raise ValidationError("frequency table has no halting runs")
    denom = (
        freq.census.halted if normalization == NORM_HALTING else freq.census.total_runs
    )
    entries = {}
    for s, count in freq.counts.items():
        p = count / denom
        entries[s] = CtmEntry(
            count=count,
            probability=p,
            complexity_bits=-math.log2(p),
            min_used_rules=freq.min_used_rules[s],
            source_space=freq.spec.n,
        )
    return CtmTable(normalization, entries, (_source_info(freq),))


def complexity_of(table: CtmTable, s: str):
    """Complexity in bits for s, or None when the table has no entry."""
    entry = table.entries.get(s)
    return None if entry is None else entry.complexity_bits


def merge_ctm(older: CtmTable, newer: CtmTable) -> CtmTable:
    """Incremental update: larger source spaces override shared strings."""
    if older.normalization != newer.normalization:
        raise ValidationError("cannot merge tables with different normalizations")
    entries = dict(older.entries)
    for s, entry in newer.entries.items():
        current = entries.get(s)
        if current is None or entry.source_space >= current.source_space:
            entries[s] = entry
    seen = set()
    sources = []
    for src in older.sources + newer.sources:
        key = meta_dumps(src)
        if key not in seen:
            seen.add(key)
            sources.append(src)
    sources.sort(key=lambda src: (src["spec"]["n"], meta_dumps(src)))
    return CtmTable(older.normalization, entries, tuple(sources))


def dumps_ctm_table(table: CtmTable) -> bytes:
    """Canonical serialization; identical tables produce identical bytes."""
    meta = {
        "normalization": table.normalization,
        "sources": list(table.sources),
        "tool_version": _V1_TOOL_VERSION,
    }
    lines = [_TABLE_MAGIC, "# meta " + meta_dumps(meta), _TABLE_COLUMNS]
    for s, count, p, c, used, source in table.records():
        lines.append(f"{s},{count},{fmt_float(p)},{fmt_float(c)},{used},{source}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def loads_ctm_table(data: bytes) -> CtmTable:
    """Parse a table file; it loads only if dumps_ctm_table writes it back
    byte for byte, and rows that no space run can produce are errors.

    Lines end with "\n" alone. The header is the magic, a meta JSON object
    that _table_meta accepts, and the column line. Each row holds six
    fields and a binary string no other row holds; counts must be
    positive, probabilities finite and in (0, 1], and each complexity
    -log2(probability) to within 1e-12. The table read is then written back:
    at the first line where the file differs (line ends, blank lines, meta
    spacing or key order, number text, row order) a ParseError names the
    line and shows what the writer writes there. A table from one space
    run under halting_machines must have probabilities summing to 1 within
    1e-9 (merged tables mix distributions, so they are not held to it).
    """
    text = decode_utf8(data)
    lines = text.split("\n")
    normalization, sources = _read_header(lines)
    entries = {}
    # the piece after the final "\n" is not a row: the round trip below
    # requires it to be empty
    for lineno, line in enumerate(lines[3:-1], start=4):
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError("expected 6 fields", line=lineno)
        s = parts[0]
        if not is_binary(s):
            raise ParseError(f"not a binary string: {s!r}", line=lineno)
        if s in entries:
            raise ParseError(f"duplicate string {s!r}", line=lineno)
        try:
            entry = CtmEntry(int(parts[1]), float(parts[2]), float(parts[3]),
                             int(parts[4]), int(parts[5]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if entry.count <= 0:
            raise ParseError(f"count must be positive, got {entry.count}", line=lineno)
        if not 0.0 < entry.probability <= 1.0:
            raise ParseError(f"probability must be in (0, 1], got {entry.probability}", line=lineno)
        # "not <=" so that a NaN complexity fails too
        if not abs(entry.complexity_bits + math.log2(entry.probability)) <= 1e-12:
            raise ParseError("complexity_bits is not -log2(probability)", line=lineno)
        if entry.min_used_rules < 1 or entry.source_space < 1:
            raise ParseError("min_used_rules and source_space must be >= 1", line=lineno)
        entries[s] = entry
    table = CtmTable(normalization, entries, sources)
    written = dumps_ctm_table(table).decode("utf-8").split("\n")
    for lineno, (got, want) in enumerate(zip_longest(lines, written), start=1):
        if got != want:
            raise ParseError(f"not canonical: dumps_ctm_table writes {want!r} here", line=lineno)
    if normalization == NORM_HALTING and len(sources) == 1:
        total = table.probability_sum()
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"halting_machines probabilities sum to {total!r}, not 1")
    return table


def _read_header(lines):
    """(normalization, sources) from the three header lines of a table file."""
    if lines[0] != _TABLE_MAGIC:
        raise ParseError("not a ctm-table file", line=1)
    if len(lines) < 3 or not lines[1].startswith("# meta "):
        raise ParseError("missing meta header", line=2)
    try:
        meta = json.loads(lines[1][len("# meta "):])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad meta header: {exc}", line=2) from exc
    if not isinstance(meta, dict):
        raise ParseError("meta header is not a JSON object", line=2)
    if lines[2] != _TABLE_COLUMNS:
        raise ParseError("unexpected column header", line=3)
    try:
        return _table_meta(meta)
    except ValidationError as exc:
        raise ParseError(f"bad meta header: {exc}", line=2) from exc


def _table_meta(meta: dict):
    """(normalization, sources) from a meta header holding exactly the keys
    dumps_ctm_table writes; every source is a {"spec", "census"} object
    whose parts load as a SpaceSpec and a Census."""
    if sorted(meta) != ["normalization", "sources", "tool_version"]:
        raise ValidationError(f"keys must be normalization, sources and tool_version, "
                              f"got {sorted(meta)}")
    if meta["tool_version"] != _V1_TOOL_VERSION:
        raise ValidationError(f"tool_version must be {_V1_TOOL_VERSION!r}, "
                              f"got {meta['tool_version']!r}")
    normalization = meta["normalization"]
    if normalization not in NORMALIZATIONS:
        raise ValidationError(f"unknown normalization in file: {normalization!r}")
    sources = meta["sources"]
    if not isinstance(sources, list):
        raise ValidationError(f"sources is not a list: {sources!r}")
    for src in sources:
        if not isinstance(src, dict) or sorted(src) != ["census", "spec"]:
            raise ValidationError(f"source is not a spec and census object: {src!r}")
        SpaceSpec.from_dict(src["spec"])
        Census.from_dict(src["census"])
    return normalization, tuple(sources)


def save_ctm_table(table: CtmTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_ctm_table(table))


def load_ctm_table(path) -> CtmTable:
    """loads_ctm_table on the file at path; errors name the file."""
    return read_file(path, loads_ctm_table)
