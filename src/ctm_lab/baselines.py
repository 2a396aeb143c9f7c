"""Statistical reference measures: entropy, block entropy, RLE, LZ78 cost.

These capture repetition-style regularity only, which is exactly why they
are worth keeping next to the table-based estimates: the interesting
strings are the ones where the two families disagree.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ._canon import require_binary
from .errors import ParseError, ValidationError, require_int

RLE_MAX_RUN = 9  # single-digit counts; longer runs split into several tokens

# lz78_bit_lengths reads this many characters of each lane at a time.
_LOCKSTEP_CHARS = 64
# One lockstep step costs about as much as walking this many characters in
# lz78_bit_length, for 1 to 256 lanes (the measured step and walk costs are
# in the CHANGES.md entry that added lz78_bit_lengths).
_STEP_COST_CHARS = 128
# Lanes stepped together hold at most this many characters (a longer
# string is walked on its own), so node ids stay far below 2^30 and the
# zeroed node table, 8 bytes a character, below 2^27 bytes of address space.
_GROUP_CHARS = 1 << 24


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

    This is the single-string form, for any alphabet, and the oracle of
    lz78_bit_lengths, which prices a binary corpus in numpy lockstep. Every
    trie node is a dict that the cyclic garbage collector tracks, so walks
    also trigger collections; their cost stayed within the run-to-run
    spread of a corpus pass with the collector on and with it off (the
    measured walk, collection counts and pass times are in the CHANGES.md
    entry that added lz78_bit_lengths).
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


def lz78_bit_lengths(strings) -> list[int]:
    """lz78_bit_length of each binary string, for a whole corpus at once.

    The strings are taken longest first, in groups of at most _GROUP_CHARS
    characters, and each group is priced by _lz78_group. The result does
    not depend on the batch: each string has its own trie. An empty string
    or a symbol other than 0 and 1 is a ValidationError (in the lockstep
    walk any other symbol would index another node's slot).
    """
    strings = list(strings)
    if not all(strings):
        raise ValidationError("cannot compress an empty string")
    order = sorted(range(len(strings)), key=lambda i: -len(strings[i]))
    bits = [0] * len(strings)
    start = 0
    while start < len(order):
        stop = start + 1
        chars = len(strings[order[start]])
        while stop < len(order) and chars + len(strings[order[stop]]) <= _GROUP_CHARS:
            chars += len(strings[order[stop]])
            stop += 1
        group = order[start:stop]
        for i, b in zip(group, _lz78_group([strings[i] for i in group])):
            bits[i] = b
        start = stop
    return bits


def _lz78_group(lanes) -> list[int]:
    """lz78_bit_length of each nonempty string of lanes, sorted longest first.

    A lockstep step has a fixed cost however few lanes still read, so the
    k longest strings are walked one by one instead, k chosen so that the
    characters walked plus _STEP_COST_CHARS per step are fewest; the rest
    run in lockstep.
    """
    lengths = np.array([len(s) for s in lanes] + [0], dtype=np.int64)
    walked = np.concatenate(([0], np.cumsum(lengths[:-1])))
    k = int(np.argmin(walked + _STEP_COST_CHARS * lengths))
    for s in lanes[:k]:
        require_binary(s)
    bits = [lz78_bit_length(s) for s in lanes[:k]]
    return bits + _lockstep_lz78(lanes[k:]) if k < len(lanes) else bits


def _lockstep_lz78(lanes) -> list[int]:
    """lz78_bit_length of each nonempty string of lanes, sorted longest first.

    Each string is a lane, and the trie walks of all lanes run in numpy
    lockstep, one step per character position. Longest first, the lanes
    still reading at step t are always a prefix, so nothing is compacted.
    All lanes share one int32 child table indexed by 2*node + bit and
    allocated zeroed: 0 means "no child", and only the pages of nodes
    actually made count toward memory. Lane i's root is node i + 1; ids
    are kept doubled, as the index of their node's first slot. A step
    reads each live lane's bit and looks up its child; each miss makes a
    node, adds a phrase to its lane and sends the lane back to its root.
    Characters are gathered _LOCKSTEP_CHARS steps at a time, straight from
    the strings, without a copy of the whole corpus. The cost is
    lz78_bit_length's closed form.
    """
    lengths = np.array([len(s) for s in lanes], dtype=np.int64)
    top = int(lengths[0])
    live = np.searchsorted(-lengths, -np.arange(top), side="left").tolist()  # lanes longer than t
    # a step makes at most one node per lane
    table = np.zeros(2 * (1 + len(lanes) + int(lengths.sum())), dtype=np.int32)
    roots = np.arange(2, 2 * len(lanes) + 2, 2, dtype=np.int32)
    cur = roots.copy()
    phrases = np.zeros(len(lanes), dtype=np.int64)
    free = 2 * len(lanes) + 2
    for t0 in range(0, top, _LOCKSTEP_CHARS):
        t1 = min(t0 + _LOCKSTEP_CHARS, top)
        n = live[t0]
        text = "".join([s[t0:t1].ljust(t1 - t0, "0") for s in lanes[:n]])
        # one byte per character: a non-ASCII symbol becomes "?"
        block = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
        steps = block.reshape(n, t1 - t0).T.copy()
        steps -= ord("0")
        if steps.max() > 1:
            for s in lanes[:n]:
                require_binary(s)
        for t in range(t0, t1):
            n = live[t]
            node = cur[:n]
            idx = node + steps[t - t0, :n]
            # idx is always in range; only a mode other than "raise" writes
            # straight into out, without a buffer
            table.take(idx, out=node, mode="clip")
            new = (node == 0).nonzero()[0]
            if new.size:
                table.put(idx.take(new), np.arange(free, free + 2 * new.size, 2, dtype=np.int32))
                free += 2 * new.size
                phrases[new] += 1
                node[new] = roots[new]
    return [p + sum_ceil_log2(p) + (_ceil_log2(p + 1) if partial else 0)
            for p, partial in zip(phrases.tolist(), (cur != roots).tolist())]


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
