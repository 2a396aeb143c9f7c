"""The table consumers against straightforward reference implementations.

The references below are the plain per-character and per-block versions
of LZ78, entropy, block entropy and the BDM partition. The library's
versions walk a trie, count symbols with str.count and cut each string
once; they must give the same integers and the same floats, bit for bit.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm_lab.analysis import divergence_report
from ctm_lab.baselines import (
    block_entropy,
    entropy_of_counts,
    lz78_bit_length,
    shannon_entropy,
    sum_ceil_log2,
)
from ctm_lab.bdm import BOUNDARIES, BOUNDARY_KEEP, BdmConfig, partition
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
