"""Distribution-level reports over coding-theorem tables.

Each report is a deterministic, canonically ordered set of record sections,
so identical inputs serialize to identical bytes and acceptance testing can
diff report files directly.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._canon import fmt_value, meta_dumps
from .baselines import entropy_of_counts, lz78_bit_lengths, require_one_block
from .bdm import BdmConfig, check_decomposable, price_many, resolve_config
from .ctm import CtmTable
from .errors import ValidationError, require_int

KIND_LENGTH_BLOCKS = "length_blocks"
KIND_ANOMALIES = "anomalies"
KIND_USED_RULES = "used_rules_consistency"
KIND_DIVERGENCE = "divergence"
KIND_DIVERSITY = "diversity"
KIND_CROSS_SPACE = "cross_space"

_REPORT_MAGIC = "# ctm-report v1"


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each tie group given the mean of its positions.

    The sorted positions start..end-1 of a tie group hold ranks start+1..end,
    whose mean (start + end + 1) / 2 is a half-integer and so exact in
    float64: the result is the "average" ranking bit for bit. x has no NaN.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def spearman_rho(pairs) -> float:
    """Spearman rank correlation with average ranks for ties; NaN is an error."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValidationError("need at least 2 pairs for a rank correlation")
    a = np.asarray([p[0] for p in pairs], dtype=float)
    b = np.asarray([p[1] for p in pairs], dtype=float)
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValidationError("rank correlation undefined: a value is NaN")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    if (ra == ra[0]).all() or (rb == rb[0]).all():
        raise ValidationError("rank correlation undefined: a ranking has zero variance")
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / math.sqrt((ra @ ra) * (rb @ rb)))


@dataclass(frozen=True)
class Section:
    name: str
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class Report:
    kind: str
    provenance: dict
    sections: tuple

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise ValidationError(f"report has no section {name!r}")


def report_lines(report: Report, fmt: str) -> Iterator[str]:
    """The report in fmt ("csv" or "json-lines"), one line at a time.

    Each line ends in a newline, so the lines can be written out as they
    come, without the whole text in memory.
    """
    if fmt == "json-lines":
        yield meta_dumps({"kind": report.kind, "provenance": report.provenance}) + "\n"
        for sec in report.sections:
            yield from record_lines(sec.columns, sec.rows, fmt, {"section": sec.name})
        return
    yield f"{_REPORT_MAGIC}\n"
    yield f"# kind {report.kind}\n"
    yield "# provenance " + meta_dumps(report.provenance) + "\n"
    for sec in report.sections:
        yield f"# section {sec.name}\n"
        yield from record_lines(sec.columns, sec.rows, fmt)


def record_lines(columns, rows, fmt: str, head=None) -> Iterator[str]:
    """Rows of records in fmt, one line at a time, each ending in a newline.

    csv writes a header line, then the values separated by commas;
    json-lines writes one object per row, with the keys of head first.
    """
    if fmt == "json-lines":
        for row in rows:
            record = dict(head or {})
            record.update(zip(columns, row))
            yield meta_dumps(record) + "\n"
        return
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(fmt_value, row)) + "\n"


def report_to_csv(report: Report) -> str:
    return "".join(report_lines(report, "csv"))


def report_to_json_lines(report: Report) -> str:
    return "".join(report_lines(report, "json-lines"))


def _table_provenance(table: CtmTable) -> dict:
    return {
        "normalization": table.normalization,
        "entries": len(table.entries),
        "sources": [src["spec"] for src in table.sources],
    }


def _anomaly_rows(table: CtmTable):
    """Strings that outrank at least one strictly shorter string.

    places_ahead counts the shorter strings with a strictly smaller count;
    the comparison is on raw counts, so the result does not depend on how
    ties happen to be ordered.
    """
    by_length = {}
    for s, e in table.entries.items():
        by_length.setdefault(len(s), []).append(e.count)
    lengths = sorted(by_length)
    sorted_counts = {k: sorted(by_length[k]) for k in lengths}
    rows = []
    for s, e in table.entries.items():
        ahead = 0
        for k in lengths:
            if k >= len(s):
                break
            counts = sorted_counts[k]
            ahead += bisect.bisect_left(counts, e.count)
        if ahead > 0:
            rows.append((s, e.count, ahead))
    rows.sort(key=lambda r: (-r[1], len(r[0]), r[0]))
    return tuple(rows)


def length_block_report(table: CtmTable) -> Report:
    """Frequency ranking inside every length block, plus the anomalies."""
    by_length = {}
    for s, e in table.entries.items():
        by_length.setdefault(len(s), []).append((s, e))
    block_rows = []
    extreme_rows = []
    for k in sorted(by_length):
        members = sorted(by_length[k], key=lambda it: (-it[1].count, it[0]))
        zeros_rank = ones_rank = 0
        for rank, (s, e) in enumerate(members, start=1):
            block_rows.append((k, rank, s, e.count, e.complexity_bits))
            if s == "0" * k:
                zeros_rank = rank
            elif s == "1" * k:
                ones_rank = rank
        extreme_rows.append((k, len(members), zeros_rank, ones_rank))
    return Report(
        kind=KIND_LENGTH_BLOCKS,
        provenance={"table": _table_provenance(table)},
        sections=(
            Section("blocks", ("length", "rank", "string", "count", "complexity_bits"),
                    tuple(block_rows)),
            Section("block_extremes", ("length", "block_size", "zeros_rank", "ones_rank"),
                    tuple(extreme_rows)),
            Section("anomalies", ("string", "count", "places_ahead"), _anomaly_rows(table)),
        ),
    )


def anomaly_report(table: CtmTable) -> Report:
    return Report(
        kind=KIND_ANOMALIES,
        provenance={"table": _table_provenance(table)},
        sections=(
            Section("anomalies", ("string", "count", "places_ahead"), _anomaly_rows(table)),
        ),
    )


def used_rules_consistency(table: CtmTable) -> Report:
    """Complexity statistics grouped by the producers' minimum rule usage."""
    groups = {}
    pairs = []
    for s, e in table.entries.items():
        if e.min_used_rules < 1:
            raise ValidationError(f"entry {s!r} is missing min_used_rules metadata")
        groups.setdefault(e.min_used_rules, []).append(e.complexity_bits)
        pairs.append((e.min_used_rules, e.complexity_bits))
    rho = spearman_rho(pairs)
    group_rows = []
    for used in sorted(groups):
        values = groups[used]
        group_rows.append(
            (used, len(values), min(values), math.fsum(values) / len(values), max(values))
        )
    return Report(
        kind=KIND_USED_RULES,
        provenance={"table": _table_provenance(table)},
        sections=(
            Section(
                "groups",
                ("used_rules", "strings", "complexity_min", "complexity_mean", "complexity_max"),
                tuple(group_rows),
            ),
            Section("summary", ("strings_total", "spearman_rho"),
                    ((len(pairs), rho),)),
        ),
    )


def _pct_le(sorted_values, x) -> float:
    return 100.0 * bisect.bisect_right(sorted_values, x) / len(sorted_values)


def divergence_report(table: CtmTable, corpus, cfg: BdmConfig) -> Report:
    """Statistical measures next to decomposition values over a corpus.

    A string is flagged when it sits in the top entropy quartile but the
    bottom decomposition quartile (nearest-rank percentiles over the
    corpus; ties are inclusive, so reordering the corpus cannot change the
    flags). A config without a block length takes the table's complete length.

    The corpus is cut once, by price_many, which gives each string's BDM
    value, block entropy and count of ones from the cut's arrays; the
    ones give the symbol entropy. LZ78 prices the whole corpus in one
    lockstep pass, whose node table is freed before the cut.
    """
    cfg = resolve_config(cfg, table)
    strings = sorted(set(corpus), key=lambda s: (len(s), s))
    if not strings:
        raise ValidationError("empty corpus")
    # every string is checked before the corpus is cut, so the first bad one
    # in (len, s) order is the one reported; the block entropy counts full
    # blocks only, so a kept tail stays out of it, and a string with no full
    # block is an error as in block_entropy
    for s in strings:
        check_decomposable(s, cfg)
        require_one_block(s, cfg.block_len)
    values = {}
    for s, lz, (bdm, block_ent, ones) in zip(strings, lz78_bit_lengths(strings),
                                             price_many(strings, table, cfg)):
        values[s] = (bdm, entropy_of_counts([c for c in (ones, len(s) - ones) if c]),
                     block_ent, lz)
    bdm_sorted = sorted(v[0] for v in values.values())
    ent_sorted = sorted(v[1] for v in values.values())
    rows = []
    flagged_total = 0
    for s in strings:
        bdm, ent, block_ent, lz = values[s]
        flagged = _pct_le(ent_sorted, ent) > 75.0 and _pct_le(bdm_sorted, bdm) <= 25.0
        flagged_total += flagged
        rows.append((s, bdm, ent, block_ent, lz, flagged))
    return Report(
        kind=KIND_DIVERGENCE,
        provenance={
            "table": _table_provenance(table),
            "block_len": cfg.block_len,
            "boundary": cfg.boundary,
            "fallback": cfg.fallback,
        },
        sections=(
            Section(
                "strings",
                ("string", "bdm", "shannon_entropy", "block_entropy", "lz78_bits", "flagged"),
                tuple(rows),
            ),
            Section("summary", ("strings_total", "flagged_total"),
                    ((len(rows), flagged_total),)),
        ),
    )


def diversity_report(table: CtmTable, length: int, cfg: BdmConfig) -> Report:
    """Value-class counts of both measures over every string of one length.

    A config without a block length takes the table's complete length.
    """
    require_int("length", length)
    if not 1 <= length <= 16:
        raise ValidationError("diversity sweeps support lengths 1..16")
    cfg = resolve_config(cfg, table)
    strings = [format(i, f"0{length}b") for i in range(2 ** length)]
    for s in strings:
        check_decomposable(s, cfg)
    bdm_hist = Counter(v for v, _, _ in price_many(strings, table, cfg))
    lz_hist = Counter(lz78_bit_lengths(strings))
    return Report(
        kind=KIND_DIVERSITY,
        provenance={
            "table": _table_provenance(table),
            "length": length,
            "block_len": cfg.block_len,
            "boundary": cfg.boundary,
            "fallback": cfg.fallback,
        },
        sections=(
            Section("summary",
                    ("length", "strings_total", "distinct_bdm", "distinct_lz78"),
                    ((length, 2 ** length, len(bdm_hist), len(lz_hist)),)),
            Section("bdm_histogram", ("bdm", "strings"),
                    tuple((v, bdm_hist[v]) for v in sorted(bdm_hist))),
            Section("lz78_histogram", ("bits", "strings"),
                    tuple((v, lz_hist[v]) for v in sorted(lz_hist))),
        ),
    )


def cross_space_report(small: CtmTable, large: CtmTable) -> Report:
    """Rank stability of shared strings when the rule space grows.

    Inversions are strict count disagreements between the two tables; each
    inverted pair is recorded with the small-table frequency percentile of
    both members (percentile = share of shared strings with a count no
    larger than the member's). The small table's spaces must be no larger
    than the large table's: its largest source n may not exceed their
    smallest.
    """
    if small.normalization != large.normalization:
        raise ValidationError("tables use different normalizations")
    small_n = [src["spec"]["n"] for src in small.sources]
    large_n = [src["spec"]["n"] for src in large.sources]
    if small_n and large_n and max(small_n) > min(large_n):
        raise ValidationError(f"the small table comes from n = {max(small_n)}, "
                              f"larger than the large table's n = {min(large_n)}")
    shared = sorted(set(small.entries) & set(large.entries), key=lambda s: (len(s), s))
    if not shared:
        raise ValidationError("tables share no strings")
    c_small = {s: small.entries[s].count for s in shared}
    c_large = {s: large.entries[s].count for s in shared}
    rho_all = spearman_rho([(c_small[s], c_large[s]) for s in shared])
    by_freq = sorted(shared, key=lambda s: (-c_small[s], len(s), s))
    top = by_freq[: (len(shared) + 1) // 2]
    rho_top = spearman_rho([(c_small[s], c_large[s]) for s in top])
    small_counts_sorted = sorted(c_small.values())
    pct = {s: _pct_le(small_counts_sorted, c_small[s]) for s in shared}
    inversion_rows = []
    for i, s in enumerate(shared):
        for t in shared[i + 1:]:
            ds = c_small[s] - c_small[t]
            dl = c_large[s] - c_large[t]
            if ds * dl < 0:
                hi_s, lo_s = (s, t) if ds > 0 else (t, s)
                inversion_rows.append(
                    (hi_s, lo_s, pct[hi_s], pct[lo_s], max(pct[hi_s], pct[lo_s]))
                )
    inversion_rows.sort(key=lambda r: (-r[4], r[0], r[1]))
    max_pct = max((r[4] for r in inversion_rows), default=0.0)
    return Report(
        kind=KIND_CROSS_SPACE,
        provenance={
            "small": _table_provenance(small),
            "large": _table_provenance(large),
        },
        sections=(
            Section(
                "summary",
                ("shared_strings", "rho_all", "rho_top_half", "inversions",
                 "max_inversion_percentile"),
                ((len(shared), rho_all, rho_top, len(inversion_rows), max_pct),),
            ),
            Section(
                "inversions",
                ("string_high", "string_low", "pct_high", "pct_low", "pair_percentile"),
                tuple(inversion_rows),
            ),
        ),
    )
