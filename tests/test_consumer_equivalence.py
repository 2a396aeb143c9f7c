"""The table consumers against straightforward reference implementations.

The references below are the plain per-character and per-block versions
of LZ78, entropy, block entropy and the BDM partition. The library's
versions walk a trie, count symbols with str.count and cut a whole corpus
in numpy chunks; they must give the same integers and the same floats,
bit for bit.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm_lab import bdm
from ctm_lab.analysis import divergence_report
from ctm_lab.baselines import (
    block_entropy,
    entropy_of_counts,
    lz78_bit_length,
    shannon_entropy,
    sum_ceil_log2,
)
from ctm_lab.bdm import BOUNDARIES, BOUNDARY_KEEP, BdmConfig, partition, partition_many
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


# block lengths 62-64 put a block's code on both sides of one int64 limb
BLOCK_LENS = st.one_of(st.integers(1, 100), st.sampled_from([62, 63, 64]))


@settings(max_examples=300, deadline=None)
@given(st.lists(strings(), min_size=1, max_size=8), BLOCK_LENS, st.sampled_from(BOUNDARIES),
       st.sampled_from([None, 1, 100, 2000]))
def test_corpus_cut_equals_the_reference_string_by_string(corpus, block_len, boundary, chunk):
    cfg = BdmConfig(block_len=block_len, boundary=boundary)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # small chunks: one corpus spans several numpy passes
            mp.setattr(bdm, "_CHUNK_CHARS", chunk)
        cuts = list(partition_many(corpus, cfg))
    assert len(cuts) == len(corpus)
    for s, cut in zip(corpus, cuts):
        blocks, tail = ref_partition(s, block_len, boundary == BOUNDARY_KEEP)
        assert list(cut.blocks.items()) == list(blocks.items())  # first-occurrence order too
        assert cut.tail == tail


def test_corpus_cut_of_long_blocks_and_short_strings():
    corpus = ["01" * 200, "0" * 63 + "1", "1" * 64 + "0" * 64, "0110", "1" * 129]
    for block_len in (62, 63, 64, 65, 100):
        cfg = BdmConfig(block_len=block_len, boundary=BOUNDARY_KEEP)
        for s, cut in zip(corpus, partition_many(corpus, cfg)):
            blocks, tail = ref_partition(s, block_len, True)
            assert list(cut.blocks.items()) == list(blocks.items()) and cut.tail == tail


def test_symbols_wider_than_a_limb_are_split_into_digits():
    # 62-bit symbol codes leave too few bits beside the rank and block index
    # for a whole symbol, so each one is compared as two digits
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 1 << 62, 600, dtype=np.int64)
    codes[rng.random(600) < 0.5] = codes[0]  # repeats across blocks
    starts = np.arange(0, 600, 3)
    owner = starts // 150
    first, mult, content, content_first = bdm._distinct_blocks(codes, starts, owner, 3, 62)
    want = {}
    for i, p in enumerate(starts.tolist()):
        want.setdefault((owner[i], tuple(codes[p:p + 3].tolist())), [i, 0])[1] += 1
    assert [[f, m] for f, m in zip(first.tolist(), mult.tolist())] == sorted(want.values())
    assert len(set(content.tolist())) == len({c for _, c in want}) == len(content_first)


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
