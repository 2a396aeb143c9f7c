"""Statistical reference measures: entropy, block entropy, RLE, LZ78 cost.

These capture repetition-style regularity only, which is exactly why they
are worth keeping next to the table-based estimates: the interesting
strings are the ones where the two families disagree.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import ParseError, ValidationError, require_int

RLE_MAX_RUN = 9  # single-digit counts; longer runs split into several tokens


def shannon_entropy(s: str) -> float:
    """Empirical per-symbol entropy in bits; 0 <= H <= log2(alphabet size).

    Alphabet-agnostic: any symbols are counted, unlike bdm_value, which
    takes binary strings only. One str.count pass per distinct symbol, so
    the cost is O(len(s) x alphabet size): two passes for a binary string.
    """
    if not s:
        raise ValidationError("entropy of an empty string is undefined")
    return entropy_of_counts([s.count(c) for c in set(s)])


def block_entropy(s: str, block_len: int) -> float:
    """Entropy in bits per block over non-overlapping blocks; remainder dropped.

    Alphabet-agnostic like shannon_entropy: blocks of any symbols count.
    """
    require_int("block_len", block_len)
    if block_len < 1:
        raise ValidationError("block_len must be >= 1")
    require_one_block(s, block_len)
    blocks = [s[i * block_len:(i + 1) * block_len] for i in range(len(s) // block_len)]
    return entropy_of_counts(Counter(blocks).values())


def require_one_block(s: str, block_len: int) -> None:
    """ValidationError unless s holds at least one full block."""
    if len(s) < block_len:
        raise ValidationError(
            f"string of length {len(s)} is shorter than one block of {block_len}"
        )


def entropy_of_counts(counts) -> float:
    """Entropy in bits of the distribution given by positive integer counts."""
    # fsum over the term multiset: equal count profiles give bit-equal
    # entropies no matter what order the counts come in.
    counts = list(counts)
    total = sum(counts)
    return -math.fsum(c / total * math.log2(c / total) for c in counts)


def rle_encode(s: str) -> str:
    """Runs become (count digit, symbol) pairs; runs past 9 split."""
    if not s:
        raise ValidationError("cannot RLE-encode an empty string")
    out = []
    run_sym = s[0]
    run_len = 0
    for ch in s:
        if ch == run_sym and run_len < RLE_MAX_RUN:
            run_len += 1
        else:
            out.append(f"{run_len}{run_sym}")
            run_sym = ch
            run_len = 1
    out.append(f"{run_len}{run_sym}")
    return "".join(out)


def rle_decode(s: str) -> str:
    """Inverse of rle_encode; strict about the (digit, symbol) token shape."""
    if not s:
        raise ValidationError("cannot RLE-decode an empty string")
    if len(s) % 2 != 0:
        raise ParseError("RLE text must have an even number of characters")
    out = []
    for i in range(0, len(s), 2):
        count, sym = s[i], s[i + 1]
        if not "1" <= count <= "9":  # isdigit() would pass "²", which int() rejects
            raise ParseError(f"invalid run count {count!r} at position {i}")
        out.append(sym * int(count))
    return "".join(out)


def lz78_bit_length(s: str) -> int:
    """Cost in bits of a deterministic LZ78 parse of s.

    Phrases are the classic longest-known-prefix-plus-one-symbol parse,
    found by walking a trie of the known phrases (nested dicts keyed by
    symbol, so any alphabet works): one dict lookup per character, and a
    miss adds a leaf and closes a phrase. The i-th complete phrase costs
    ceil(log2(i)) + 1 bits: a reference to one of the i-1 earlier phrases
    or the empty phrase, plus one literal bit. So p complete phrases cost
    p + sum_ceil_log2(p) bits in closed form. When the input ends inside a
    phrase, the leftover is a bare reference among the p+1 possibilities,
    ceil(log2(p+1)) bits.
    """
    if not s:
        raise ValidationError("cannot compress an empty string")
    root = {}
    node = root
    phrases = 0
    for ch in s:
        child = node.get(ch)
        if child is None:
            node[ch] = {}
            phrases += 1
            node = root
        else:
            node = child
    bits = phrases + sum_ceil_log2(phrases)
    if node is not root:
        bits += _ceil_log2(phrases + 1)
    return bits


def sum_ceil_log2(p: int) -> int:
    """Sum of ceil(log2(i)) for i = 1..p, in closed form.

    With k = ceil(log2(p)), the terms are j for the 2^(j-1) values of i in
    (2^(j-1), 2^j] when j < k, and k for the p - 2^(k-1) values above
    2^(k-1); the sum telescopes to k*p - 2^k + 1.
    """
    k = _ceil_log2(p) if p else 0
    return k * p - (1 << k) + 1


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length()
