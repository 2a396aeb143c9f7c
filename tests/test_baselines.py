"""Entropy, RLE, and LZ78 baselines."""

import itertools
import math
import random

import pytest

from ctm_lab.baselines import (
    block_entropy,
    lz78_bit_length,
    rle_decode,
    rle_encode,
    shannon_entropy,
)
from ctm_lab.errors import ParseError, ValidationError


def test_entropy_known_values():
    assert shannon_entropy("0000") == 0.0
    assert shannon_entropy("0101") == 1.0
    # hand value: -(0.75*log2(0.75) + 0.25*log2(0.25))
    assert shannon_entropy("00010001") == pytest.approx(0.8112781244591328, abs=1e-15)


def test_entropy_bounds_and_symmetries():
    comp = str.maketrans("01", "10")
    rng = random.Random(3)
    for _ in range(300):
        s = "".join(rng.choice("01") for _ in range(rng.randint(1, 40)))
        h = shannon_entropy(s)
        assert 0.0 <= h <= 1.0
        assert shannon_entropy(s[::-1]) == h
        assert shannon_entropy(s.translate(comp)) == h
        if s.count("0") == s.count("1"):
            assert h == 1.0
        else:
            assert h < 1.0


def test_entropy_over_larger_alphabets():
    assert shannon_entropy("abcd") == 2.0
    assert shannon_entropy("1112334") == pytest.approx(
        -(3 / 7 * math.log2(3 / 7) + 1 / 7 * math.log2(1 / 7) * 2 + 2 / 7 * math.log2(2 / 7)),
        abs=1e-15,
    )


def test_entropy_rejects_empty():
    with pytest.raises(ValidationError):
        shannon_entropy("")


def test_block_entropy_known_values():
    assert block_entropy("00110011", 2) == 1.0
    assert block_entropy("00000000", 2) == 0.0
    assert block_entropy("00011011", 2) == 2.0


def test_block_entropy_needs_one_full_block():
    with pytest.raises(ValidationError):
        block_entropy("01", 3)


def test_rle_digit_example():
    assert rle_encode("1112334") == "31122314"


def test_rle_trivia():
    assert rle_encode("0") == "10"
    assert rle_encode("1" * 12) == "9131"  # nine-cap forces a split


def test_rle_round_trip_exhaustive_short():
    for length in range(1, 13):
        for bits in itertools.product("01", repeat=length):
            s = "".join(bits)
            assert rle_decode(rle_encode(s)) == s


def test_rle_round_trip_randomized_long():
    rng = random.Random(5)
    for _ in range(500):
        s = "".join(rng.choice("01") for _ in range(rng.randint(17, 64)))
        assert rle_decode(rle_encode(s)) == s


def test_rle_decode_errors():
    with pytest.raises(ParseError):
        rle_decode("311")  # odd length
    with pytest.raises(ParseError):
        rle_decode("x1")  # non-digit count
    with pytest.raises(ParseError):
        rle_decode("01")  # zero count
    for count in ("\u00b2", "\u0663"):  # Unicode digits: superscript two, Arabic-Indic three
        with pytest.raises(ParseError):
            rle_decode(count + "1")
    with pytest.raises(ValidationError):
        rle_decode("")
    with pytest.raises(ValidationError):
        rle_encode("")


def test_lz78_hand_traced_costs():
    assert lz78_bit_length("0") == 1
    assert lz78_bit_length("00") == 2
    # phrases "0", "00", "1": 1 + 2 + 3 bits
    assert lz78_bit_length("0001") == 6


def test_lz78_cost_is_monotone_under_extension():
    rng = random.Random(7)
    for _ in range(400):
        s = "".join(rng.choice("01") for _ in range(rng.randint(1, 48)))
        t = "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
        assert lz78_bit_length(s) <= lz78_bit_length(s + t)


def test_lz78_collapses_twelve_bit_strings():
    values = {lz78_bit_length(format(i, "012b")) for i in range(4096)}
    # the whole 4096-string sweep lands in a handful of cost classes
    assert len(values) == 5
    assert len(values) < 10


def test_lz78_rejects_empty():
    with pytest.raises(ValidationError):
        lz78_bit_length("")
