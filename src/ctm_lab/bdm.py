"""Block decomposition: extend table complexities to arbitrarily long strings.

A string is cut left to right into consecutive blocks of a fixed length;
the value is the sum over distinct blocks of their table complexity plus
log2 of the block's multiplicity. Repeats are therefore nearly free (the
log term), while novel blocks pay their full complexity, which is what
makes the measure collapse to a block-entropy-like quantity when the table
knows nothing and improve on it when it does.

The block length defaults to the table's complete length, the longest L for
which the table holds every binary string of length L or less, so that no
block of a binary string falls back to the length penalty.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._canon import require_binary
from .baselines import entropy_of_counts, require_one_block
from .errors import ValidationError, require_int
from .ctm import CtmTable

BOUNDARY_DROP = "drop_remainder"
BOUNDARY_KEEP = "keep_short_tail"
BOUNDARIES = (BOUNDARY_DROP, BOUNDARY_KEEP)

FALLBACK_ERROR = "error"
FALLBACK_LOG_LENGTH = "log_length_penalty"
FALLBACKS = (FALLBACK_ERROR, FALLBACK_LOG_LENGTH)


@dataclass(frozen=True)
class BdmConfig:
    block_len: int | None = None  # None: the table's complete length, see resolve_config
    boundary: str = BOUNDARY_DROP
    fallback: str = FALLBACK_LOG_LENGTH

    def __post_init__(self):
        if self.block_len is not None:
            require_int("block_len", self.block_len)
            if self.block_len < 1:
                raise ValidationError("block_len must be >= 1")
        if self.boundary not in BOUNDARIES:
            raise ValidationError(f"unknown boundary policy {self.boundary!r}")
        if self.fallback not in FALLBACKS:
            raise ValidationError(f"unknown fallback policy {self.fallback!r}")


def resolve_config(cfg: BdmConfig, table: CtmTable) -> BdmConfig:
    """cfg with a block length: one it has, else the table's complete length."""
    if cfg.block_len is not None:
        return cfg
    k = table.complete_length()
    if k == 0:
        raise ValidationError('the table lacks "0" or "1", so it sets no block length; pass one')
    return replace(cfg, block_len=k)


def _block_len(cfg: BdmConfig) -> int:
    if cfg.block_len is None:
        raise ValidationError("no block length: pass one, or resolve the config against a table")
    return cfg.block_len


@dataclass(slots=True)
class Decomposition:
    """Multiset of full blocks plus the optional kept tail.

    blocks maps each distinct full block to its multiplicity, in the order
    of first occurrence.
    """

    blocks: dict
    tail: str | None = None

    def covered_length(self) -> int:
        total = sum(len(b) * k for b, k in self.blocks.items())
        return total + (len(self.tail) if self.tail else 0)


# Characters joined per numpy pass. A chunk ends after the string that
# reaches this size, so a longer string makes a chunk on its own.
_CHUNK_CHARS = 1 << 18


def partition(s: str, cfg: BdmConfig) -> Decomposition:
    """Cut s into consecutive non-overlapping blocks from the left.

    Any symbols may occur; an empty string is a ValidationError. One slice
    per block, counted in the order of first occurrence: this plain count
    is the oracle of price_many's numpy cut and shares no code with it.
    """
    k = _block_len(cfg)
    if not s:
        raise ValidationError("cannot partition an empty string")
    end = len(s) - len(s) % k
    blocks = dict(Counter(s[i:i + k] for i in range(0, end, k)))
    tail = s[end:] if cfg.boundary == BOUNDARY_KEEP and end < len(s) else None
    return Decomposition(blocks, tail)


def price_many(strings, table: CtmTable, cfg: BdmConfig) -> Iterator[tuple]:
    """Iterator over (BDM value, block entropy, count of "1") per string.

    The strings are cut in one numpy pass per chunk of about _CHUNK_CHARS
    characters, and a chunk is cut and priced only when the iterator
    reaches it, so memory follows the chunk, not the corpus. Each string is
    priced from the arrays of its chunk's cut, with no Decomposition: the
    value equals decomposition_value of its partition, and the block
    entropy entropy_of_counts of its full blocks' multiplicities, bit for
    bit. An empty string is a ValidationError, raised before anything is
    cut; a string with a symbol other than 0 or 1 is require_binary's,
    raised for the first such string of its chunk. Other checks are the
    caller's (see check_decomposable). Under the error fallback the first
    string in the order given with a block the table lacks raises
    decomposition_value's error, and the rest of its chunk is not priced.
    """
    _block_len(cfg)
    strings = list(strings)
    if not all(strings):
        raise ValidationError("cannot partition an empty string")
    return _per_chunk(strings, table, cfg)


def _per_chunk(strings, table: CtmTable, cfg: BdmConfig) -> Iterator[tuple]:
    """_price_chunk of consecutive chunks of about _CHUNK_CHARS characters."""
    lo = 0
    while lo < len(strings):
        hi, size = lo, 0
        while hi < len(strings) and size < _CHUNK_CHARS:
            size += len(strings[hi])
            hi += 1
        yield from _price_chunk(strings[lo:hi], cfg, table)
        lo = hi


def _price_chunk(strings, cfg: BdmConfig, table: CtmTable) -> list:
    """price_many of nonempty strings, from one numpy cut of their join.

    A string with a symbol other than 0 or 1 is require_binary's
    ValidationError, for the first such string of the chunk. A string's
    value is one math.fsum over the complexity and the log2 multiplicity of
    each of its distinct blocks, plus its kept tail's complexity. Both are
    looked up, never computed per pair: the complexities per distinct
    content, sliced once from the join at its first occurrence, and
    math.log2 (which np.log2 does not always match to the last bit) per
    distinct multiplicity.
    """
    k = cfg.block_len
    n = len(strings)
    text = "".join(strings)
    # one byte per character: a non-ASCII symbol becomes "?", and every
    # symbol but 0 and 1 lands above 1
    bits = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if bits.max() > 1:
        for s in strings:
            require_binary(s)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=n)
    offsets = np.cumsum(lengths) - lengths
    full = lengths // k
    owner = np.repeat(np.arange(n), full)
    block = np.arange(len(owner)) - (np.cumsum(full) - full)[owner]
    starts = offsets[owner] + k * block
    # each distinct (string, block) pair, string by string, each string's
    # in the order of first occurrence; a string's pairs end at its ends
    first, mult, content, content_first = _distinct_blocks(bits, starts, owner, k)
    ends = np.cumsum(np.bincount(owner[first], minlength=n)).tolist()
    entries = table.entries
    found = [entries.get(text[p:p + k]) for p in starts[content_first].tolist()]
    tails = {}
    if cfg.boundary == BOUNDARY_KEEP:
        for i, s in enumerate(strings):
            if len(s) % k:
                tail = s[len(s) - len(s) % k:]
                tails[i] = (len(tail), entries.get(tail))
    if cfg.fallback == FALLBACK_ERROR and (
        any(e is None for e in found) or any(e is None for _, e in tails.values())
    ):
        # the first string that lacks a block raises the oracle's own error
        for s in strings:
            decomposition_value(partition(s, cfg), table, cfg)
    cost = np.array([_complexity(k, e) for e in found], dtype=float)
    distinct, which = np.unique(mult, return_inverse=True)
    log2 = np.array([math.log2(m) for m in distinct.tolist()], dtype=float)
    terms = np.empty(2 * len(mult))
    terms[0::2] = cost[content]
    terms[1::2] = log2[which]
    terms = terms.tolist()
    mult = mult.tolist()
    ones = np.add.reduceat(bits, offsets, dtype=np.int64).tolist()
    out = []
    lo = 0
    for i, hi in enumerate(ends):
        own = terms[2 * lo:2 * hi]
        if i in tails:
            own.append(_complexity(*tails[i]))
        out.append((math.fsum(own), entropy_of_counts(mult[lo:hi]), ones[i]))
        lo = hi
    return out


def _complexity(length: int, entry) -> float:
    """A table entry's complexity, or the length penalty of a block it lacks."""
    return length + math.log2(length) if entry is None else entry.complexity_bits


def _distinct_blocks(bits, starts, owner, k):
    """Each distinct (string, block) pair: first block, multiplicity, content.

    Block i holds the k bits from starts[i] and belongs to string
    owner[i]; the blocks of a string are consecutive. A block can be too
    wide for one int64, so blocks are compared a limb at a time: the
    limb's bits are packed under the rank of the block's earlier limbs,
    with the block index in the low bits, and one sort ranks the blocks
    again. Rank and index both stay below the number of blocks; what is
    left of 63 bits holds the limb. After the last sort the copies of a
    block form a run, split by string, and each run's first index is a
    first occurrence.

    The pairs come back in the order of their first occurrence, with a
    dense id of their block's content; the last array holds the first
    block of each content id.
    """
    n = len(starts)
    index_bits = (n - 1).bit_length()
    width = 63 - 2 * index_bits  # bits per limb
    rank = np.zeros(n, dtype=np.int64)
    for j in range(0, k, width):
        if j:
            rank[index] = np.cumsum(new) - 1
        key = rank
        for t in range(j, min(j + width, k)):
            key = (key << 1) | bits[starts + t]
        ordered = np.sort((key << index_bits) | np.arange(n))
        key = ordered >> index_bits
        index = ordered & ((1 << index_bits) - 1)
        new = np.ones(n, dtype=bool)
        new[1:] = key[1:] != key[:-1]
    content = np.cumsum(new) - 1
    content_first = index[new]
    block_owner = owner[index]
    new[1:] |= block_owner[1:] != block_owner[:-1]
    head = np.flatnonzero(new)
    first = index[head]
    order = np.argsort(first)
    mult = np.diff(np.append(head, n))
    return first[order], mult[order], content[head][order], content_first


def check_decomposable(s: str, cfg: BdmConfig) -> None:
    """ValidationError unless BDM can price s.

    The tables hold binary strings only, so s must be one: any other
    character is a ValidationError rather than a block priced by fallback.
    Under drop_remainder a string shorter than one block would have no
    blocks left and a meaningless value of 0, so it is a ValidationError too.
    """
    k = _block_len(cfg)
    if not s:
        raise ValidationError("cannot partition an empty string")
    require_binary(s)
    if cfg.boundary == BOUNDARY_DROP:
        require_one_block(s, k)


def decompose(s: str, cfg: BdmConfig) -> Decomposition:
    """Check that s can be priced by BDM, then partition it."""
    check_decomposable(s, cfg)
    return partition(s, cfg)


def decomposition_value(decomp: Decomposition, table: CtmTable, cfg: BdmConfig) -> float:
    """Sum of block complexities plus log2 multiplicities, in bits.

    One table lookup per distinct block. math.fsum is exactly rounded, so
    the order of the terms cannot change the value. A block the table
    lacks is priced by its length, k + log2(k) (a literal description of
    it), or under the error fallback is a ValidationError naming the
    smallest missing full block, else the tail.

    This is the one-string form and the oracle of price_many, which prices
    a corpus from the arrays of its cut instead.
    """
    entries = table.entries
    tail = () if decomp.tail is None else (decomp.tail,)
    terms = [math.log2(m) for m in decomp.blocks.values()]
    missing = []
    for part in (*decomp.blocks, *tail):
        entry = entries.get(part)
        if entry is None:
            missing.append(part)
        else:
            terms.append(entry.complexity_bits)
    if missing and cfg.fallback == FALLBACK_ERROR:
        full = [b for b in missing if len(b) == cfg.block_len]
        raise ValidationError(f"no table entry for block {min(full or missing)!r}")
    terms += [len(b) + math.log2(len(b)) for b in missing]
    return math.fsum(terms)


def bdm_value(s: str, table: CtmTable, cfg: BdmConfig = BdmConfig()) -> float:
    """Block decomposition value of s in bits; see decompose for what s may be."""
    cfg = resolve_config(cfg, table)
    return decomposition_value(decompose(s, cfg), table, cfg)


def partition_entropy(decomp: Decomposition) -> float:
    """Shannon entropy (bits per block) of the block tokens, tail included."""
    counts = dict(decomp.blocks)
    if decomp.tail is not None:
        counts[decomp.tail] = counts.get(decomp.tail, 0) + 1
    if not counts:
        return 0.0
    return entropy_of_counts(counts.values())


@dataclass(frozen=True)
class EquivRecord:
    """Side-by-side view of the decomposition value and its entropy floor."""

    string: str
    bdm: float
    block_entropy: float
    difference: float


def block_entropy_equiv_check(s: str, table: CtmTable, cfg: BdmConfig = BdmConfig()) -> EquivRecord:
    """Compare the decomposition value with block entropy on the same partition."""
    cfg = resolve_config(cfg, table)
    decomp = decompose(s, cfg)
    value = decomposition_value(decomp, table, cfg)
    ent = partition_entropy(decomp)
    return EquivRecord(s, value, ent, value - ent)
