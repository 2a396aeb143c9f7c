"""The table consumers against straightforward reference implementations.

The references below are the plain per-character and per-block versions
of LZ78, entropy, block entropy and the BDM partition. The library's
versions walk a trie (or the tries of a whole corpus in numpy lockstep),
count symbols with str.count and cut a whole corpus in numpy chunks; they
must give the same integers and the same floats, bit for bit.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm_lab import baselines, bdm
from ctm_lab._canon import require_binary
from ctm_lab.analysis import divergence_report
from ctm_lab.baselines import (
    block_entropy,
    entropy_of_counts,
    lz78_bit_length,
    lz78_bit_lengths,
    shannon_entropy,
    sum_ceil_log2,
)
from ctm_lab.bdm import (
    BOUNDARIES,
    BOUNDARY_KEEP,
    FALLBACKS,
    BdmConfig,
    decomposition_value,
    partition,
    price_many,
)
from ctm_lab.ctm import complexity_of
from ctm_lab.errors import ValidationError


# --- reference implementations


def ref_lz78_bit_length(s):
    dictionary = {}
    bits = 0
    phrase = ""
    count = 0
    for ch in s:
        candidate = phrase + ch
        if candidate in dictionary:
            phrase = candidate
            continue
        count += 1
        dictionary[candidate] = count
        bits += (count - 1).bit_length() + 1
        phrase = ""
    if phrase:
        bits += count.bit_length()
    return bits


def ref_entropy_of_tokens(tokens):
    counts = Counter(tokens)
    total = sum(counts.values())
    return -math.fsum(c / total * math.log2(c / total) for c in counts.values())


def ref_shannon_entropy(s):
    return ref_entropy_of_tokens(s)


def ref_block_entropy(s, block_len):
    blocks = [s[i * block_len:(i + 1) * block_len] for i in range(len(s) // block_len)]
    return ref_entropy_of_tokens(blocks)


def ref_partition(s, block_len, keep_tail):
    blocks = {}
    full = len(s) // block_len
    for i in range(full):
        block = s[i * block_len:(i + 1) * block_len]
        blocks[block] = blocks.get(block, 0) + 1
    rest = s[full * block_len:]
    return blocks, (rest if rest and keep_tail else None)


def ref_bdm_value(s, table, cfg):
    def block_value(block):
        value = complexity_of(table, block)
        return len(block) + math.log2(len(block)) if value is None else value

    blocks, tail = ref_partition(s, cfg.block_len, cfg.boundary == BOUNDARY_KEEP)
    terms = []
    for block in sorted(blocks):
        terms.append(block_value(block))
        terms.append(math.log2(blocks[block]))
    if tail is not None:
        terms.append(block_value(tail))
    return math.fsum(terms)


# --- strategies: binary and non-binary, free and periodic, up to 3000 symbols

ALPHABETS = ("01", "0", "abc", "01é", "aß中\U0001f600")


@st.composite
def strings(draw):
    choice = draw(st.sampled_from(ALPHABETS + (None,)))
    if choice is None:  # any code points, non-ASCII included
        return draw(st.text(min_size=1, max_size=3000))
    if draw(st.booleans()):
        return draw(st.text(alphabet=choice, min_size=1, max_size=3000))
    unit = draw(st.text(alphabet=choice, min_size=1, max_size=17))
    length = draw(st.integers(1, 3000))
    return (unit * (length // len(unit) + 1))[:length]


# --- equivalence


@settings(max_examples=300, deadline=None)
@given(strings())
def test_lz78_equals_the_reference(s):
    assert lz78_bit_length(s) == ref_lz78_bit_length(s)


@st.composite
def binary_strings(draw, length=None):
    """A random, periodic (period 1-16) or biased binary string of 1-3000 bits."""
    if length is None:
        length = draw(st.integers(1, 3000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "periodic", "biased")))
    if kind == "periodic":
        unit = "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
        return (unit * (length // len(unit) + 1))[:length]
    p = 0.5 if kind == "random" else rng.uniform(0.0, 0.3)
    return "".join("1" if rng.random() < p else "0" for _ in range(length))


@st.composite
def binary_corpora(draw):
    """One string, or 2-30 of free or of equal lengths, with some repeated."""
    shape = draw(st.sampled_from(("one", "equal_lengths", "free_lengths")))
    if shape == "one":
        return [draw(binary_strings())]
    length = draw(st.integers(1, 3000)) if shape == "equal_lengths" else None
    corpus = draw(st.lists(binary_strings(length), min_size=2, max_size=30))
    repeats = draw(st.lists(st.sampled_from(corpus), max_size=5))
    return draw(st.permutations(corpus + repeats))


# (step cost, group size) of lz78_bit_lengths: a step cost of 0 steps every
# string in lockstep, 10^9 walks every string, 4 walks the strings much
# longer than the next; groups of 4000 characters split a corpus into
# several node tables; None keeps the default
LZ78_PATHS = st.tuples(st.sampled_from([None, 0, 4, 10**9]), st.sampled_from([None, 4000]))


def lz78_batch(corpus, path):
    step_cost, group_chars = path
    with pytest.MonkeyPatch.context() as mp:
        if step_cost is not None:
            mp.setattr(baselines, "_STEP_COST_CHARS", step_cost)
        if group_chars is not None:
            mp.setattr(baselines, "_GROUP_CHARS", group_chars)
        return lz78_bit_lengths(corpus)


@settings(max_examples=200, deadline=None)
@given(binary_corpora(), LZ78_PATHS)
def test_lz78_batch_equals_the_single_string_walk_and_the_reference(corpus, path):
    assert lz78_batch(corpus, path) \
        == [lz78_bit_length(s) for s in corpus] == [ref_lz78_bit_length(s) for s in corpus]


@settings(max_examples=100, deadline=None)
@given(binary_corpora(), st.randoms(use_true_random=False), LZ78_PATHS)
def test_lz78_batch_cost_of_a_string_does_not_depend_on_its_batch(corpus, rng, path):
    cost = dict(zip(corpus, lz78_batch(corpus, path)))
    shuffled = rng.sample(corpus, len(corpus))
    subset = [s for s in corpus if rng.random() < 0.5] or corpus[:1]
    for batch in (shuffled, subset):
        assert lz78_batch(batch, path) == [cost[s] for s in batch]


def test_lz78_batch_of_every_string_up_to_ten_bits():
    # every parse end occurs: "0001" ends on a phrase boundary (0|00|1),
    # "0000" inside one (0|00|0); 2046 lanes step in lockstep by default
    corpus = [format(i, f"0{n}b") for n in range(1, 11) for i in range(2**n)]
    assert lz78_bit_lengths(corpus) == [ref_lz78_bit_length(s) for s in corpus]


def test_lz78_batch_steps_most_strings_and_walks_the_few_long_ones(monkeypatch):
    walked = []

    def spy(s):
        walked.append(s)
        return lz78_bit_length(s)

    monkeypatch.setattr(baselines, "lz78_bit_length", spy)
    long_ones = _seeded_corpus(3, count=3, min_bits=20000, max_bits=20000)
    corpus = _seeded_corpus(4, count=500, min_bits=64, max_bits=512) + long_ones
    assert lz78_bit_lengths(corpus) == [ref_lz78_bit_length(s) for s in corpus]
    assert sorted(walked) == sorted(long_ones)


def test_lz78_batch_of_nothing_is_empty():
    assert lz78_bit_lengths([]) == []


@pytest.mark.parametrize("step_cost", [0, 10**9])  # stepped and walked
@pytest.mark.parametrize("bad", ["", "012", "01 ", "0\u00e91", "1" * 200 + "2"])
def test_lz78_batch_rejects_an_empty_or_non_binary_string(monkeypatch, step_cost, bad):
    monkeypatch.setattr(baselines, "_STEP_COST_CHARS", step_cost)
    with pytest.raises(ValidationError):
        lz78_bit_lengths(["0101", bad] + ["1"] * 300)


@settings(max_examples=300, deadline=None)
@given(strings())
def test_entropy_equals_the_reference_bit_for_bit(s):
    assert shannon_entropy(s) == ref_shannon_entropy(s)


@settings(max_examples=300, deadline=None)
@given(strings(), st.integers(1, 20))
def test_block_entropy_equals_the_reference_bit_for_bit(s, block_len):
    if len(s) < block_len:
        with pytest.raises(ValidationError, match="shorter than one block"):
            block_entropy(s, block_len)
        return
    want = ref_block_entropy(s, block_len)
    assert block_entropy(s, block_len) == want
    # the divergence report's route: entropy of the partition's block counts
    cut = partition(s, BdmConfig(block_len=block_len, boundary=BOUNDARY_KEEP))
    assert entropy_of_counts(cut.blocks.values()) == want


@settings(max_examples=300, deadline=None)
@given(strings(), st.integers(1, 20), st.sampled_from(BOUNDARIES))
def test_partition_equals_the_reference(s, block_len, boundary):
    cut = partition(s, BdmConfig(block_len=block_len, boundary=boundary))
    blocks, tail = ref_partition(s, block_len, boundary == BOUNDARY_KEEP)
    assert list(cut.blocks.items()) == list(blocks.items())  # first-occurrence order too
    assert cut.tail == tail


# block lengths 62-64 put a block's bits on both sides of one int64 limb
BLOCK_LENS = st.one_of(st.integers(1, 100), st.sampled_from([62, 63, 64]))


def _bits(priced):
    """(value, block entropy, ones) tuples as exact text: repr tells -0.0
    from 0.0 and a numpy scalar from a Python number."""
    return [tuple(map(repr, t)) for t in priced]


def prices_and_error(corpus, table, cfg, chunk=None):
    """price_many's tuples up to its first error, and that error's message."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # small chunks: strings span several numpy passes
            mp.setattr(bdm, "_CHUNK_CHARS", chunk)
        try:
            for priced in price_many(corpus, table, cfg):
                got.append(priced)
        except ValidationError as exc:
            return got, str(exc)
    return got, None


def oracle_prices_and_error(corpus, table, cfg):
    """The same from each string's Decomposition, one string at a time."""
    want = []
    for s in corpus:
        cut = partition(s, cfg)
        try:
            value = decomposition_value(cut, table, cfg)
        except ValidationError as exc:
            return want, str(exc)
        want.append((value, entropy_of_counts(cut.blocks.values()), s.count("1")))
    return want, None


def assert_priced_like_the_oracle(corpus, table, cfg, chunk=None):
    got, error = prices_and_error(corpus, table, cfg, chunk)
    want, want_error = oracle_prices_and_error(corpus, table, cfg)
    assert error == want_error
    if error is None:
        assert len(got) == len(corpus)
    # an error leaves the rest of its chunk unpriced, so fewer may come out
    assert _bits(got) == _bits(want[:len(got)])


@settings(max_examples=300, deadline=None)
@given(st.lists(binary_strings(), min_size=1, max_size=8),
       st.one_of(st.integers(1, 8), BLOCK_LENS), st.sampled_from(BOUNDARIES),
       st.sampled_from(FALLBACKS), st.sampled_from([None, 1, 100, 2000]))
def test_corpus_prices_equal_the_per_string_oracle(d3_both_builtin, corpus, block_len, boundary,
                                                   fallback, chunk):
    cfg = BdmConfig(block_len=block_len, boundary=boundary, fallback=fallback)
    assert_priced_like_the_oracle(corpus, d3_both_builtin, cfg, chunk)


def test_corpus_prices_of_long_blocks_and_short_strings(d3_both_builtin):
    # blocks of 62-65 bits fill one int64 limb and spill into the next;
    # strings shorter than a block have only a tail
    corpus = ["01" * 200, "0" * 63 + "1", "1" * 64 + "0" * 64, "0110", "1" * 129]
    for block_len in (62, 63, 64, 65, 100):
        for boundary in BOUNDARIES:
            for fallback in FALLBACKS:
                cfg = BdmConfig(block_len=block_len, boundary=boundary, fallback=fallback)
                for chunk in (None, 1, 100, 2000):
                    assert_priced_like_the_oracle(corpus, d3_both_builtin, cfg, chunk)


@pytest.mark.parametrize("chunk", [None, 1])  # the bad string alone, or in a later chunk
@pytest.mark.parametrize("bad", ["012", "01 ", "0\u00e91", "1" * 200 + "2"])
def test_corpus_prices_reject_a_non_binary_string(d3_both_builtin, monkeypatch, chunk, bad):
    if chunk is not None:
        monkeypatch.setattr(bdm, "_CHUNK_CHARS", chunk)
    with pytest.raises(ValidationError) as want:
        require_binary(bad)
    assert str(want.value).startswith("not a binary string")
    for corpus in ([bad], ["0101", bad, "11"]):
        with pytest.raises(ValidationError) as err:
            list(price_many(corpus, d3_both_builtin, BdmConfig(block_len=2)))
        assert str(err.value) == str(want.value)


def test_the_oracle_shares_no_code_with_the_cut(d3_both_builtin, monkeypatch):
    # partition and everything built on it run with the numpy cut broken
    corpus = ["0110101", "01" * 40 + "1", "1" * 64, "0001110001"]
    configs = [BdmConfig(block_len=k, boundary=boundary)
               for k in (None, 2, 3) for boundary in BOUNDARIES]

    def values():
        out = []
        for cfg in configs:
            resolved = bdm.resolve_config(cfg, d3_both_builtin)
            for s in corpus:
                cut = partition(s, resolved)
                out.append((cut, bdm.decompose(s, resolved),
                            repr(bdm.bdm_value(s, d3_both_builtin, cfg)),
                            bdm.block_entropy_equiv_check(s, d3_both_builtin, cfg)))
                blocks, tail = ref_partition(s, resolved.block_len,
                                             cfg.boundary == BOUNDARY_KEEP)
                assert list(cut.blocks.items()) == list(blocks.items()) and cut.tail == tail
        return out

    want = values()

    def broken(*args):
        raise AssertionError("the oracle reached the numpy cut")

    monkeypatch.setattr(bdm, "_price_chunk", broken)
    monkeypatch.setattr(bdm, "_distinct_blocks", broken)
    assert values() == want
    # any symbols may still be cut
    assert partition("abcab", BdmConfig(block_len=2, boundary=BOUNDARY_KEEP)) \
        == bdm.Decomposition({"ab": 1, "ca": 1}, "b")


def test_corpus_prices_take_log2_from_math_not_numpy(d3_both_builtin):
    # 1621 repeats of "01" at block length 2: math.log2(1621) is where
    # np.log2 can differ in the last bit; the kept tails pay their own term
    corpus = ["01" * 1621, "01" * 1621 + "1", "0110" * 400, "1" * 4001, "0", "10" * 3]
    for boundary in BOUNDARIES:
        for fallback in FALLBACKS:
            cfg = BdmConfig(block_len=2, boundary=boundary, fallback=fallback)
            for chunk in (None, 1, 3300, 4000):
                assert_priced_like_the_oracle(corpus, d3_both_builtin, cfg, chunk)
    value, _, ones = next(price_many(["01" * 1621], d3_both_builtin, BdmConfig(block_len=2)))
    assert value == math.fsum([complexity_of(d3_both_builtin, "01"), math.log2(1621)])
    assert ones == 1621


def test_corpus_prices_of_unknown_blocks_pay_the_length_penalty(d3_both_builtin):
    # d3_both lacks 12 of the 6-bit blocks and most 9-bit ones; a tail of
    # 1-5 bits is always in it
    corpus = _seeded_corpus(7, count=60, min_bits=9, max_bits=700)
    for block_len in (6, 9):
        for boundary in BOUNDARIES:
            cfg = BdmConfig(block_len=block_len, boundary=boundary)
            assert_priced_like_the_oracle(corpus, d3_both_builtin, cfg, chunk=2000)
            got, _ = prices_and_error(corpus, d3_both_builtin, cfg)
            want = [ref_bdm_value(s, d3_both_builtin, cfg) for s in corpus]
            assert [v for v, _, _ in got] == want


def test_closed_form_ceil_log2_sum_equals_the_loop():
    total = 0
    for p in range(5001):
        assert sum_ceil_log2(p) == total
        total += math.ceil(math.log2(p + 1))


def _seeded_corpus(seed, count=200, min_bits=64, max_bits=2048):
    rng = random.Random(seed)
    corpus = []
    for i in range(count):
        length = rng.randint(min_bits, max_bits)
        if i % 3 == 0:
            corpus.append("".join(rng.choice("01") for _ in range(length)))
        elif i % 3 == 1:
            unit = "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
            corpus.append((unit * (length // len(unit) + 1))[:length])
        else:
            p = rng.uniform(0.02, 0.3)
            corpus.append("".join("1" if rng.random() < p else "0" for _ in range(length)))
    return corpus


def test_divergence_report_matches_the_reference_row_by_row(d3_both_builtin):
    cfg = BdmConfig(block_len=6, boundary=BOUNDARY_KEEP)
    corpus = _seeded_corpus(20)
    report = divergence_report(d3_both_builtin, corpus, cfg)
    rows = report.section("strings").rows
    assert [r[0] for r in rows] == sorted(set(corpus), key=lambda s: (len(s), s))
    assert any(len(s) % 6 for s in corpus)  # some strings do have a kept tail
    for s, bdm, ent, block_ent, lz, _ in rows:
        assert bdm == ref_bdm_value(s, d3_both_builtin, cfg)
        assert ent == ref_shannon_entropy(s)
        assert block_ent == ref_block_entropy(s, 6)  # the tail stays out
        assert lz == ref_lz78_bit_length(s)


def test_divergence_report_rejects_a_string_shorter_than_one_block(d3_both_builtin):
    for boundary in BOUNDARIES:
        cfg = BdmConfig(block_len=6, boundary=boundary)
        with pytest.raises(ValidationError, match="shorter than one block of 6"):
            divergence_report(d3_both_builtin, ["0" * 64, "01011"], cfg)
