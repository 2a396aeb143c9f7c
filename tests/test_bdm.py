"""Block decomposition: partitioning, the value laws, fallbacks, entropy checks."""

import math
import pathlib
import random

import pytest

from ctm_lab.bdm import (
    BOUNDARY_DROP,
    BOUNDARY_KEEP,
    FALLBACK_ERROR,
    FALLBACK_LOG_LENGTH,
    BdmConfig,
    bdm_value,
    block_entropy_equiv_check,
    decompose,
    decomposition_value,
    partition,
    partition_entropy,
    price_many,
    resolve_config,
)
from ctm_lab import bdm
from ctm_lab.ctm import CtmEntry, CtmTable, NORM_HALTING, complexity_of, load_ctm_table
from ctm_lab.errors import ValidationError
from ctm_lab.analysis import spearman_rho
from ctm_lab.baselines import block_entropy
from ctm_lab.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctm_lab" / "data"


def synthetic_table(values):
    entries = {
        s: CtmEntry(count=1, probability=2.0 ** -bits, complexity_bits=bits,
                    min_used_rules=1, source_space=3)
        for s, bits in values.items()
    }
    return CtmTable(NORM_HALTING, entries, ())


def test_partition_examples():
    cfg = BdmConfig(block_len=2)
    assert partition("0101", cfg).blocks == {"01": 2}
    assert partition("0101", cfg).tail is None

    dropped = partition("01010", BdmConfig(block_len=2, boundary=BOUNDARY_DROP))
    assert dropped.blocks == {"01": 2} and dropped.tail is None
    assert dropped.covered_length() == 4

    kept = partition("01010", BdmConfig(block_len=2, boundary=BOUNDARY_KEEP))
    assert kept.blocks == {"01": 2} and kept.tail == "0"
    assert kept.covered_length() == 5


def test_partition_rejects_empty_string():
    with pytest.raises(ValidationError):
        partition("", BdmConfig(block_len=2))


def test_single_block_identity():
    table = synthetic_table({"0110": 3.25})
    cfg = BdmConfig(block_len=4)
    assert bdm_value("0110", table, cfg) == complexity_of(table, "0110")


def test_repetition_law_is_exact():
    table = synthetic_table({"01": 1.7})
    for k in (1, 2, 3, 10, 50):
        value = bdm_value("01" * k, table, BdmConfig(block_len=2))
        assert value == 1.7 + math.log2(k)


def test_missing_block_fallback_value():
    table = synthetic_table({})
    cfg = BdmConfig(block_len=8, fallback=FALLBACK_LOG_LENGTH)
    assert bdm_value("00001111", table, cfg) == 8 + math.log2(8)


def test_missing_block_error_names_the_block():
    table = synthetic_table({"01": 1.0})
    cfg = BdmConfig(block_len=2, fallback=FALLBACK_ERROR)
    with pytest.raises(ValidationError) as err:
        bdm_value("0111", table, cfg)
    assert "'11'" in str(err.value)
    # the smallest missing full block, not the first one cut; the tail only
    # when every full block is known
    table = synthetic_table({"00": 1.0, "0": 0.5})
    for boundary in (BOUNDARY_DROP, BOUNDARY_KEEP):
        cfg = BdmConfig(block_len=2, boundary=boundary, fallback=FALLBACK_ERROR)
        with pytest.raises(ValidationError) as err:
            bdm_value("111001001", table, cfg)
        assert str(err.value) == "no table entry for block '01'"
    table = synthetic_table({"00": 1.0, "01": 1.0, "10": 1.0, "11": 1.0})
    cfg = BdmConfig(block_len=2, boundary=BOUNDARY_KEEP, fallback=FALLBACK_ERROR)
    with pytest.raises(ValidationError) as err:
        bdm_value("000110111", table, cfg)
    assert str(err.value) == "no table entry for block '1'"


def test_bdm_eval_file_names_the_first_offender_in_file_order(tmp_path, capsys):
    table = str(DATA / "d3_both.ctm")
    cases = (
        ("0110\n01x1\n010\n", [], "not a binary string: 'x' at position 2"),
        ("0110\n01x1\n010\n", ["--keep-tail"], "not a binary string: 'x' at position 2"),
        ("010\n01x1\n", [], "string of length 3 is shorter than one block of 4"),
        ("010\n01x1\n", ["--keep-tail"], "not a binary string: 'x' at position 2"),
    )
    for text, flags, message in cases:
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        argv = ["bdm", "eval", "--table", table, "--block-len", "4", "--file", str(corpus)]
        assert main(argv + flags) == 1
        assert capsys.readouterr().err == f"ctm-lab: error: {message}\n"


def test_strict_pricing_names_the_first_offender_of_a_later_chunk(tmp_path, capsys, monkeypatch):
    # d3_both lacks the 6-bit blocks 000101, 000111 and 010101, and has the
    # rest used here. In file order B is the first string with a missing
    # block; in (len, s) order, that of report divergence, C is. Neither
    # is in the first chunk of 60 characters.
    table_path = str(DATA / "d3_both.ctm")
    table = load_ctm_table(table_path)
    known = ["000000" * 4, "111111" * 4, "000000111111" * 2]
    a = "111111" * 20
    b = "000000" * 15 + "000101"
    c = "000000" * 10 + "010101" + "000111"
    corpus = [a, *known, b, c]
    ordered = sorted(corpus, key=lambda s: (len(s), s))
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("\n".join(corpus) + "\n")
    monkeypatch.setattr(bdm, "_CHUNK_CHARS", 60)

    def oracle(strings, cfg):
        for s in strings:
            decomposition_value(partition(s, cfg), table, cfg)

    for flags, boundary in (([], BOUNDARY_DROP), (["--keep-tail"], BOUNDARY_KEEP)):
        cfg = BdmConfig(block_len=6, boundary=boundary, fallback=FALLBACK_ERROR)
        for strings, want in ((corpus, "'000101'"), (ordered, "'000111'")):
            with pytest.raises(ValidationError) as err:
                oracle(strings, cfg)
            assert str(err.value) == f"no table entry for block {want}"
            with pytest.raises(ValidationError) as err:
                list(price_many(strings, table, cfg))
            assert str(err.value) == f"no table entry for block {want}"
        common = ["--table", table_path, "--block-len", "6", "--strict", *flags]
        for argv, want in ((["bdm", "eval", "--file", str(corpus_path)], "'000101'"),
                           (["report", "divergence", "--file", str(corpus_path)], "'000111'")):
            assert main(argv + common) == 1
            assert capsys.readouterr().err == f"ctm-lab: error: no table entry for block {want}\n"


def test_non_binary_strings_are_rejected(d3_zero_builtin):
    # a non-binary block is never in a table, so fallback used to price it
    for s, block_len in (("01x1010", 12), ("01x1010", 2), ("0101 ", 2), ("2", 1)):
        with pytest.raises(ValidationError):
            bdm_value(s, d3_zero_builtin, BdmConfig(block_len=block_len))


def test_strings_shorter_than_one_block_are_rejected_when_dropping(d3_both_builtin):
    # every block would be dropped, leaving a meaningless value of 0
    for s, block_len in (("0101", 12), ("0", 2), ("01011", 6)):
        cfg = BdmConfig(block_len=block_len, boundary=BOUNDARY_DROP)
        with pytest.raises(ValidationError, match=f"shorter than one block of {block_len}"):
            bdm_value(s, d3_both_builtin, cfg)
        with pytest.raises(ValidationError, match="shorter than one block"):
            block_entropy_equiv_check(s, d3_both_builtin, cfg)
    # one full block is enough, and a kept tail is priced on its own
    assert bdm_value("01", d3_both_builtin, BdmConfig(block_len=2)) == complexity_of(
        d3_both_builtin, "01")
    kept = BdmConfig(block_len=12, boundary=BOUNDARY_KEEP)
    assert bdm_value("0101", d3_both_builtin, kept) == complexity_of(d3_both_builtin, "0101")


def test_bdm_value_is_the_value_of_its_decomposition():
    table = synthetic_table({"01": 1.0, "0": 0.5, "11": 2.5})
    for boundary in (BOUNDARY_DROP, BOUNDARY_KEEP):
        cfg = BdmConfig(block_len=2, boundary=boundary)
        decomp = decompose("0101110", cfg)
        assert decomp == partition("0101110", cfg)
        assert decomposition_value(decomp, table, cfg) == bdm_value("0101110", table, cfg)
    with pytest.raises(ValidationError, match="not a binary string"):
        decompose("01x", BdmConfig(block_len=2))


def test_kept_tail_contributes_its_own_term():
    table = synthetic_table({"01": 1.0, "0": 0.5})
    base = bdm_value("0101", table, BdmConfig(block_len=2))
    kept = bdm_value("01010", table, BdmConfig(block_len=2, boundary=BOUNDARY_KEEP))
    assert kept == base + 0.5
    dropped = bdm_value("01010", table, BdmConfig(block_len=2, boundary=BOUNDARY_DROP))
    assert dropped == base


def test_twelve_bit_alternation_against_builtin_table(d3_zero_builtin):
    # The (3,2) table holds no 12-bit strings, so a single-block evaluation
    # falls back to the length penalty.
    s = "010101010101"
    assert complexity_of(d3_zero_builtin, s) is None
    cfg = BdmConfig(block_len=12)
    assert bdm_value(s, d3_zero_builtin, cfg) == 12 + math.log2(12)
    with pytest.raises(ValidationError):
        bdm_value(s, d3_zero_builtin, BdmConfig(block_len=12, fallback=FALLBACK_ERROR))


def test_appending_blocks_grows_value_by_bounded_increments():
    table = synthetic_table({"00": 1.0, "01": 1.5, "10": 1.5, "11": 2.0})
    cfg = BdmConfig(block_len=2)
    rng = random.Random(31)
    blocks = ["00", "01", "10", "11"]
    s = "01"
    for _ in range(100):
        nxt = rng.choice(blocks)
        before = bdm_value(s, table, cfg)
        counts = partition(s, cfg).blocks
        after = bdm_value(s + nxt, table, cfg)
        if nxt in counts:
            expected = math.log2((counts[nxt] + 1) / counts[nxt])
        else:
            expected = complexity_of(table, nxt)
        assert after - before == pytest.approx(expected, abs=1e-12)
        s += nxt


def test_equiv_check_on_repeated_block():
    table = synthetic_table({"01": 1.7})
    rec = block_entropy_equiv_check("01010101", table, BdmConfig(block_len=2))
    assert rec.bdm == 1.7 + 2.0  # log2(4) repeats
    assert rec.block_entropy == 0.0
    assert rec.difference == rec.bdm


def test_equiv_check_equal_strings_give_equal_records():
    table = synthetic_table({"01": 1.7, "10": 1.9})
    a = block_entropy_equiv_check("011010", table, BdmConfig(block_len=2))
    b = block_entropy_equiv_check("011010", table, BdmConfig(block_len=2))
    assert a == b
    assert a.difference == a.bdm - a.block_entropy


def test_partition_entropy_matches_block_entropy_when_dropping():
    cfg = BdmConfig(block_len=3, boundary=BOUNDARY_DROP)
    for s in ("010101010", "111000111", "010011100101"):
        assert partition_entropy(partition(s, cfg)) == block_entropy(s, 3)


def test_corpus_ranks_correlate_with_block_entropy(d3_zero_builtin):
    rng = random.Random(97)
    corpus = ["".join(rng.choice("01") for _ in range(1024)) for _ in range(100)]
    cfg = BdmConfig(block_len=12)
    pairs = [
        (bdm_value(s, d3_zero_builtin, cfg), block_entropy(s, 12))
        for s in corpus
    ]
    assert spearman_rho(pairs) >= 0.95


def test_config_validation():
    with pytest.raises(ValidationError):
        BdmConfig(block_len=0)
    with pytest.raises(ValidationError):
        BdmConfig(boundary="wrap")
    with pytest.raises(ValidationError):
        BdmConfig(fallback="zero")


def test_config_takes_only_an_int_block_length():
    for block_len in (2.5, 2.0, True, "2"):
        with pytest.raises(ValidationError, match="must be an int"):
            BdmConfig(block_len=block_len)
    assert BdmConfig().block_len is None


def test_block_length_defaults_to_the_complete_length(d3_both_builtin):
    cfg = resolve_config(BdmConfig(boundary=BOUNDARY_KEEP), d3_both_builtin)
    assert cfg == BdmConfig(block_len=5, boundary=BOUNDARY_KEEP)
    assert resolve_config(cfg, synthetic_table({})) is cfg
    s = "010101010101"
    assert bdm_value(s, d3_both_builtin) == bdm_value(s, d3_both_builtin, BdmConfig(block_len=5))
    assert bdm_value(s, d3_both_builtin) == 29.08432259853911
    assert (block_entropy_equiv_check(s, d3_both_builtin)
            == block_entropy_equiv_check(s, d3_both_builtin, BdmConfig(block_len=5)))


def test_a_table_without_both_symbols_sets_no_block_length():
    table = synthetic_table({"0": 1.0, "00": 2.0, "01": 2.0})
    assert table.complete_length() == 0
    with pytest.raises(ValidationError, match="pass one"):
        resolve_config(BdmConfig(), table)
    with pytest.raises(ValidationError, match="pass one"):
        bdm_value("0101", table)


def test_an_unresolved_config_cannot_cut():
    for cut in (partition, decompose):
        with pytest.raises(ValidationError, match="no block length"):
            cut("0101", BdmConfig())
