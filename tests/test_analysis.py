"""Rank correlation and the report generators."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_text
from ctm_lab.analysis import (
    _average_ranks,
    anomaly_report,
    cross_space_report,
    divergence_report,
    diversity_report,
    length_block_report,
    report_to_csv,
    report_to_json_lines,
    spearman_rho,
    used_rules_consistency,
)
from ctm_lab.bdm import BOUNDARIES, FALLBACK_ERROR, FALLBACKS, BdmConfig
from ctm_lab.ctm import CtmEntry, CtmTable, NORM_HALTING
from ctm_lab.errors import ValidationError


def mini_table(counts, used_rules=None, n=2):
    halted = sum(counts.values())
    entries = {}
    for s, c in counts.items():
        p = c / halted
        entries[s] = CtmEntry(
            count=c,
            probability=p,
            complexity_bits=-__import__("math").log2(p),
            min_used_rules=(used_rules or {}).get(s, 1),
            source_space=n,
        )
    return CtmTable(NORM_HALTING, entries, ())


# --- spearman


def test_spearman_identical_and_reversed():
    pairs = [(i, i) for i in range(10)]
    assert spearman_rho(pairs) == pytest.approx(1.0, abs=1e-12)
    pairs = [(i, -i) for i in range(10)]
    assert spearman_rho(pairs) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_hand_value():
    assert spearman_rho([(1, 2), (2, 1), (3, 3)]) == pytest.approx(0.5, abs=1e-12)


def test_spearman_monotone_rescale_invariance():
    pairs = [(1, 10), (2, 40), (3, 20), (4, 35)]
    scaled = [(a * 100 - 7, b ** 3) for a, b in pairs]
    assert spearman_rho(scaled) == pytest.approx(spearman_rho(pairs), abs=1e-12)


def test_spearman_antisymmetry():
    pairs = [(1, 10), (2, 40), (3, 20), (4, 35)]
    flipped = [(a, -b) for a, b in pairs]
    assert spearman_rho(flipped) == pytest.approx(-spearman_rho(pairs), abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ValidationError):
        spearman_rho([(1, 1)])
    with pytest.raises(ValidationError):
        spearman_rho([(1, 1), (1, 2)])  # zero variance on the left
    for pairs in ([(1, 1), (2, math.nan), (3, 2)], [(math.nan, 1), (2, 2), (3, 3)]):
        with pytest.raises(ValidationError):
            spearman_rho(pairs)


def test_spearman_ranks_infinities():
    pairs = [(-math.inf, 1), (0, 2), (math.inf, 3), (math.inf, 3)]
    assert spearman_rho(pairs) == pytest.approx(1.0, abs=1e-12)


# few distinct values, so that ties are common; signed zeros and infinities too
_RANKED = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, math.inf, -math.inf]),
              st.floats(allow_nan=False)),
    min_size=1, max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_RANKED)
def test_average_ranks_equal_the_definition_exactly(values):
    """rank_i = #{x_j < x_i} + (#{x_j = x_i} + 1) / 2, bit for bit."""
    expected = [
        sum(y < x for y in values) + (sum(y == x for y in values) + 1) / 2 for x in values
    ]
    assert _average_ranks(np.asarray(values)).tolist() == expected


# --- length blocks and anomalies


def test_length_block_ranks_on_builtin(d3_zero_builtin):
    report = length_block_report(d3_zero_builtin)
    extremes = {row[0]: row for row in report.section("block_extremes").rows}
    assert extremes[1][2] == 1 and extremes[1][3] == 2  # "0" then "1"
    blocks = report.section("blocks").rows
    global_top = sorted(
        d3_zero_builtin.entries.items(), key=lambda kv: -kv[1].count
    )[:2]
    assert {s for s, _ in global_top} == {"0", "1"}
    assert len(blocks) == len(d3_zero_builtin.entries)


def test_anomaly_rows_match_goldens(d2_zero_table, d3_zero_builtin, d3_both_builtin):
    assert report_to_csv(anomaly_report(d2_zero_table)) == golden_text("anomalies_d2_zero.csv")
    assert report_to_csv(anomaly_report(d3_zero_builtin)) == golden_text("anomalies_d3_zero.csv")
    both = anomaly_report(d3_both_builtin)
    assert report_to_csv(both) == golden_text("anomalies_d3_both.csv")
    # the alternating pair leads its length block by exactly four places
    assert both.section("anomalies").rows == (
        ("0101010", 4, 4),
        ("1010101", 4, 4),
    )


def test_anomalies_use_strict_count_comparison():
    table = mini_table({"0": 5, "1": 4, "00": 4, "01": 5})
    rows = anomaly_report(table).section("anomalies").rows
    assert rows == (("01", 5, 1),)  # ties are not "ahead"


# --- used rules


def test_used_rules_groups_and_rho(d3_zero_builtin):
    report = used_rules_consistency(d3_zero_builtin)
    groups = report.section("groups").rows
    assert set(r[0] for r in groups) <= set(range(1, 7))
    ones = [s for s, e in d3_zero_builtin.entries.items() if e.min_used_rules == 1]
    assert sorted(ones) == ["0", "1"]
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["spearman_rho"] > 0.8


def test_used_rules_missing_metadata_errors():
    table = mini_table({"0": 2, "1": 1}, used_rules={"0": 0, "1": 1})
    with pytest.raises(ValidationError):
        used_rules_consistency(table)


# --- divergence


def test_divergence_quartile_flags(d3_zero_builtin):
    cfg = BdmConfig(block_len=4)
    corpus = [format(i, "08b") for i in range(256)]
    report = divergence_report(d3_zero_builtin, corpus, cfg)
    flagged = {r[0] for r in report.section("strings").rows if r[5]}
    assert flagged  # nonempty
    assert "01010101" in flagged and "10101010" in flagged
    # permuting the corpus cannot change the flags
    shuffled = divergence_report(d3_zero_builtin, corpus[::-1], cfg)
    assert report_to_csv(shuffled) == report_to_csv(report)
    assert report_to_csv(report) == golden_text("divergence_8bit_d3_zero_block4.csv")


def test_divergence_singleton_corpus_is_never_flagged(d3_zero_builtin):
    report = divergence_report(d3_zero_builtin, ["00000000"], BdmConfig(block_len=4))
    assert report.section("strings").rows[0][5] is False


def test_reports_name_the_first_offender_in_length_then_string_order(d3_both_builtin):
    # every string is checked, in (len, s) order, before the corpus is cut
    nonbinary_first = ["0110", "01x1", "2", "0101010101", "010"]
    short_first = ["0110", "01x1", "010", "0000"]
    for boundary in BOUNDARIES:
        for fallback in FALLBACKS:
            cfg = BdmConfig(block_len=4, boundary=boundary, fallback=fallback)
            with pytest.raises(ValidationError) as err:
                divergence_report(d3_both_builtin, nonbinary_first, cfg)
            assert str(err.value) == "not a binary string: '2' at position 0"
            with pytest.raises(ValidationError) as err:
                divergence_report(d3_both_builtin, short_first, cfg)
            assert str(err.value) == "string of length 3 is shorter than one block of 4"
            # the strict fallback names the smallest missing block of the
            # first string in that order that has one
            strict = BdmConfig(block_len=4, boundary=boundary, fallback=FALLBACK_ERROR)
            sparse = mini_table({"0000": 2, "1111": 1})
            with pytest.raises(ValidationError) as err:
                divergence_report(sparse, ["1110", "0111", "0000"], strict)
            assert str(err.value) == "no table entry for block '0111'"
            with pytest.raises(ValidationError) as err:
                diversity_report(sparse, 8, strict)
            assert str(err.value) == "no table entry for block '0001'"
    with pytest.raises(ValidationError) as err:
        diversity_report(d3_both_builtin, 3, BdmConfig(block_len=4))
    assert str(err.value) == "string of length 3 is shorter than one block of 4"


# --- diversity


def test_diversity_histograms_account_for_every_string(d2_zero_table):
    cfg = BdmConfig(block_len=3)
    report = diversity_report(d2_zero_table, 6, cfg)
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["strings_total"] == 64
    assert sum(r[1] for r in report.section("bdm_histogram").rows) == 64
    assert sum(r[1] for r in report.section("lz78_histogram").rows) == 64


def test_diversity_single_bit_sweep(d2_zero_table):
    report = diversity_report(d2_zero_table, 1, BdmConfig(block_len=1))
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["strings_total"] == 2
    assert 1 <= summary["distinct_bdm"] <= 2
    assert summary["distinct_lz78"] == 1  # both single bits cost one literal


def test_diversity_rejects_big_sweeps(d2_zero_table):
    with pytest.raises(ValidationError):
        diversity_report(d2_zero_table, 17, BdmConfig(block_len=4))


# --- cross space


def test_cross_space_self_comparison(d2_zero_table):
    report = cross_space_report(d2_zero_table, d2_zero_table)
    summary = dict(zip(report.section("summary").columns, report.section("summary").rows[0]))
    assert summary["rho_all"] == pytest.approx(1.0, abs=1e-12)
    assert summary["inversions"] == 0


def test_cross_space_disjoint_tables_error():
    a = mini_table({"0": 2, "1": 1})
    b = mini_table({"00": 2, "11": 1})
    with pytest.raises(ValidationError):
        cross_space_report(a, b)


def test_cross_space_rejects_tables_in_the_wrong_order(d2_zero_table, d3_zero_table):
    # the inversion percentiles come from the small table, so it must be
    # the smaller space; equal spaces are allowed
    with pytest.raises(ValidationError, match="n = 3"):
        cross_space_report(d3_zero_table, d2_zero_table)
    cross_space_report(d2_zero_table, d3_zero_table)


def test_cross_space_mixed_normalization_errors(d2_zero_table):
    other = CtmTable("all_machines", dict(d2_zero_table.entries), ())
    with pytest.raises(ValidationError):
        cross_space_report(d2_zero_table, other)


# --- serialization


def test_reports_serialize_deterministically(d2_zero_table):
    a = report_to_csv(length_block_report(d2_zero_table))
    b = report_to_csv(length_block_report(d2_zero_table))
    assert a == b
    assert a.startswith("# ctm-report v1\n# kind length_blocks\n")


def test_json_lines_round_trip(d2_zero_table):
    text = report_to_json_lines(anomaly_report(d2_zero_table))
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert lines[0]["kind"] == "anomalies"
    assert all("section" in rec for rec in lines[1:])
