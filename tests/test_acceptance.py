"""Acceptance suite: every exit criterion at its stated tolerance.

Each test's docstring first line is the criterion label; the conftest
terminal hook prints one PASS/FAIL line per criterion at the end of the
run. Heavy space runs come from session fixtures so the whole suite stays
in the minutes range.
"""

import itertools
import math
import random
import time

import numpy as np

from conftest import golden_text
from ctm_lab.analysis import (
    anomaly_report,
    cross_space_report,
    diversity_report,
    report_to_csv,
    spearman_rho,
    used_rules_consistency,
)
from ctm_lab.baselines import block_entropy, rle_decode, rle_encode, shannon_entropy
from ctm_lab.bdm import BdmConfig, bdm_value
from ctm_lab.ctm import NORM_ALL, NORM_HALTING, CtmEntry, CtmTable, to_ctm
from ctm_lab.space import (
    SpaceSpec,
    run_index_array,
    run_space,
    space_size,
)


def test_criterion_01_space_cardinalities():
    """criterion 1: space sizes and the doubled three-state run count"""
    assert space_size(2) == 10_000
    assert space_size(3) == 7_529_536
    assert SpaceSpec(3, blank_mode="both").run_count == 15_059_072


def test_criterion_02_runtimes_and_worker_independence(d3_zero_timed):
    """criterion 2: run budgets hold and results ignore worker count"""
    start = time.perf_counter()
    d2_ref = run_space(SpaceSpec(2), workers=1)
    d2_elapsed = time.perf_counter() - start
    assert d2_elapsed < 5.0

    d3_ref, d3_elapsed = d3_zero_timed  # fresh 4-worker run from the fixture
    assert d3_elapsed < 600.0

    d2_bytes = d2_ref.canonical_bytes()
    d3_bytes = d3_ref.canonical_bytes()
    for workers in (1, 2, 4, 8):
        assert run_space(SpaceSpec(2), workers=workers).canonical_bytes() == d2_bytes
        if workers == 4:
            continue  # the fixture already is the 4-worker run
        assert run_space(SpaceSpec(3), workers=workers).canonical_bytes() == d3_bytes


def test_criterion_03_cutoff_safety(d3_zero_freq, d3_both_freq):
    """criterion 3: raising the step cutoff tenfold changes no counts"""
    base2 = run_space(SpaceSpec(2))
    slow2 = run_space(SpaceSpec(2, max_steps=100))
    assert slow2.counts == base2.counts

    # the full (3,2) space at ten times its cutoff, on each blank mode: no
    # output, producer or census bucket moves
    for base3 in (d3_zero_freq, d3_both_freq):
        slow3 = run_space(SpaceSpec(3, blank_mode=base3.spec.blank_mode, max_steps=300))
        assert slow3.records() == base3.records()  # counts, min_used_rules, first_producer
        assert slow3.census == base3.census

    stride = np.arange(0, space_size(3), 100)
    sample30 = run_index_array(SpaceSpec(3), stride)
    sample300 = run_index_array(SpaceSpec(3, max_steps=300), stride)
    assert sample30.census.total_runs == 75_296
    assert sample300.counts == sample30.counts
    # the sampled distribution is consistent with the full run
    assert all(d3_zero_freq.counts[s] >= c for s, c in sample30.counts.items())


def test_criterion_04_distribution_structure(d3_both_table):
    """criterion 4: uniform strings top their length blocks; anomalies frozen"""
    entries = d3_both_table.entries
    counts = {s: e.count for s, e in entries.items()}

    # "0" and "1" are the two globally most frequent strings
    global_order = sorted(counts, key=lambda s: (-counts[s], len(s), s))
    assert set(global_order[:2]) == {"0", "1"}
    third = max(counts[s] for s in counts if s not in ("0", "1"))
    assert counts["0"] > third and counts["1"] > third

    # 0^k and 1^k occupy the top two ranks of every populated block, k <= 8
    # (rank by count; exact ties share a rank)
    by_len = {}
    for s, c in counts.items():
        by_len.setdefault(len(s), {})[s] = c
    for k in range(1, 9):
        block = by_len.get(k)
        if not block:
            continue
        zeros, ones = "0" * k, "1" * k
        others = [c for s, c in block.items() if s not in (zeros, ones)]
        if zeros in block and ones in block:
            assert not others or min(block[zeros], block[ones]) >= max(others)
        else:
            # frozen distribution: the uniform strings exist in every
            # populated block up to length 6 and are absent beyond it
            assert k >= 7
    for k in range(1, 7):
        assert "0" * k in counts and "1" * k in counts

    report = anomaly_report(d3_both_table)
    assert report_to_csv(report) == golden_text("anomalies_d3_both.csv")
    anomaly_strings = {row[0] for row in report.section("anomalies").rows}
    assert {"0101010", "1010101"} <= anomaly_strings
    places = {row[0]: row[2] for row in report.section("anomalies").rows}
    assert places["0101010"] == 4 and places["1010101"] == 4


def test_criterion_05_coding_theorem_identities(d3_zero_freq, d3_both_table, d2_zero_table):
    """criterion 5: complexity equals -log2(probability); sums behave"""
    halting = to_ctm(d3_zero_freq, NORM_HALTING)
    raw = to_ctm(d3_zero_freq, NORM_ALL)
    for table in (halting, d3_both_table, d2_zero_table):
        for entry in table.entries.values():
            assert abs(entry.complexity_bits + math.log2(entry.probability)) < 1e-12
        assert abs(table.probability_sum() - 1.0) < 1e-12
    for entry in raw.entries.values():
        assert abs(entry.complexity_bits + math.log2(entry.probability)) < 1e-12
    assert raw.probability_sum() <= 1.0


def test_criterion_06_used_rules_consistency(d3_zero_table):
    """criterion 6: rule usage and complexity rank-correlate above 0.8"""
    report = used_rules_consistency(d3_zero_table)
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["spearman_rho"] > 0.8
    assert report_to_csv(report) == golden_text("used_rules_d3_zero.csv")


def test_criterion_07_cross_space_stability(d2_zero_table, d3_zero_table):
    """criterion 7: growing the space respects the ranking, weakest strings aside"""
    report = cross_space_report(d2_zero_table, d3_zero_table)
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["rho_top_half"] >= summary["rho_all"]
    # every strict rank inversion sits below the median frequency percentile
    for row in report.section("inversions").rows:
        assert row[4] < 50.0
    assert report_to_csv(report) == golden_text("cross_space_zero.csv")


def _random_synthetic_table(rng, sizes):
    entries = {}
    for length in sizes:
        for _ in range(sizes[length]):
            s = "".join(rng.choice("01") for _ in range(length))
            bits = rng.uniform(1.0, 30.0)
            entries[s] = CtmEntry(
                count=1, probability=2.0 ** -bits, complexity_bits=bits,
                min_used_rules=1, source_space=3,
            )
    return CtmTable(NORM_HALTING, entries, ())


def test_criterion_08_block_decomposition_laws(d3_zero_table):
    """criterion 8: single-block and repetition laws; entropy worst case"""
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        length = rng.randint(1, 12)
        table = _random_synthetic_table(rng, {length: rng.randint(1, 6)})
        s = rng.choice(list(table.entries))
        ctm_bits = table.entries[s].complexity_bits
        cfg = BdmConfig(block_len=length)
        assert abs(bdm_value(s, table, cfg) - ctm_bits) < 1e-12
        k = rng.randint(1, 50)
        assert abs(bdm_value(s * k, table, cfg) - (ctm_bits + math.log2(k))) < 1e-12
        checked += 1

    # worst case: nothing resolvable, the ranking collapses onto block entropy
    all_miss = _random_synthetic_table(rng, {2: 4})  # holds only 2-bit strings
    cfg = BdmConfig(block_len=8)
    corpus = ["".join(rng.choice("01") for _ in range(96)) for _ in range(120)]
    pairs = []
    for s in corpus:
        assert all(
            block not in all_miss.entries
            for block in {s[i * 8:(i + 1) * 8] for i in range(12)}
        )
        pairs.append((bdm_value(s, all_miss, cfg), block_entropy(s, 8)))
    assert len({p[0] for p in pairs}) > 1  # the corpus is not degenerate
    assert abs(spearman_rho(pairs) - 1.0) < 1e-12


def test_criterion_09_diversity_inequality(d3_zero_table):
    """criterion 9: decomposition separates 12-bit strings far beyond LZ78"""
    report = diversity_report(d3_zero_table, 12, BdmConfig(block_len=6))
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["distinct_bdm"] > summary["distinct_lz78"]
    assert summary["distinct_bdm"] == 37  # frozen from this implementation
    assert summary["distinct_lz78"] == 5
    assert report_to_csv(report) == golden_text("diversity_d3_zero_len12_block6.csv")


def test_criterion_10_baseline_goldens():
    """criterion 10: codec and entropy reference values, bit exact"""
    assert rle_encode("1112334") == "31122314"
    assert shannon_entropy("0101") == 1.0
    assert shannon_entropy("0000") == 0.0
    for length in range(1, 17):
        for bits in itertools.product("01", repeat=length):
            s = "".join(bits)
            assert rle_decode(rle_encode(s)) == s
