"""Block decomposition: extend table complexities to arbitrarily long strings.

A string is cut left to right into consecutive blocks of a fixed length;
the value is the sum over distinct blocks of their table complexity plus
log2 of the block's multiplicity. Repeats are therefore nearly free (the
log term), while novel blocks pay their full complexity, which is what
makes the measure collapse to a block-entropy-like quantity when the table
knows nothing and improve on it when it does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ._canon import is_binary
from .baselines import entropy_of_counts, require_one_block
from .errors import ValidationError
from .ctm import CtmTable, complexity_of

BOUNDARY_DROP = "drop_remainder"
BOUNDARY_KEEP = "keep_short_tail"
BOUNDARIES = (BOUNDARY_DROP, BOUNDARY_KEEP)

FALLBACK_ERROR = "error"
FALLBACK_LOG_LENGTH = "log_length_penalty"
FALLBACKS = (FALLBACK_ERROR, FALLBACK_LOG_LENGTH)


@dataclass(frozen=True)
class BdmConfig:
    block_len: int = 12
    boundary: str = BOUNDARY_DROP
    fallback: str = FALLBACK_LOG_LENGTH

    def __post_init__(self):
        if self.block_len < 1:
            raise ValidationError("block_len must be >= 1")
        if self.boundary not in BOUNDARIES:
            raise ValidationError(f"unknown boundary policy {self.boundary!r}")
        if self.fallback not in FALLBACKS:
            raise ValidationError(f"unknown fallback policy {self.fallback!r}")


@dataclass
class Decomposition:
    """Multiset of full blocks plus the optional kept tail."""

    blocks: dict
    tail: str = None

    def covered_length(self) -> int:
        total = sum(len(b) * k for b, k in self.blocks.items())
        return total + (len(self.tail) if self.tail else 0)


def partition(s: str, cfg: BdmConfig) -> Decomposition:
    """Cut s into consecutive non-overlapping blocks from the left."""
    if not s:
        raise ValidationError("cannot partition an empty string")
    k = cfg.block_len
    full = len(s) - len(s) % k
    blocks = Counter([s[i:i + k] for i in range(0, full, k)])
    tail = s[full:] if full < len(s) and cfg.boundary == BOUNDARY_KEEP else None
    return Decomposition(blocks, tail)


def decompose(s: str, cfg: BdmConfig) -> Decomposition:
    """Check that s can be priced by BDM, then partition it.

    The tables hold binary strings only, so s must be one: any other
    character is a ValidationError rather than a block priced by fallback.
    Under drop_remainder a string shorter than one block would have no
    blocks left and a meaningless value of 0, so it is a ValidationError too.
    """
    if s and not is_binary(s):
        pos = next(i for i, c in enumerate(s) if c not in "01")
        raise ValidationError(f"not a binary string: {s[pos]!r} at position {pos}")
    decomp = partition(s, cfg)
    if cfg.boundary == BOUNDARY_DROP:
        require_one_block(s, cfg.block_len)
    return decomp


def _block_value(block: str, table: CtmTable, cfg: BdmConfig) -> float:
    value = complexity_of(table, block)
    if value is not None:
        return value
    if cfg.fallback == FALLBACK_ERROR:
        raise ValidationError(f"no table entry for block {block!r}")
    # Length-based stand-in: a literal description of the block.
    return len(block) + math.log2(len(block))


def decomposition_value(decomp: Decomposition, table: CtmTable, cfg: BdmConfig) -> float:
    """Sum of block complexities plus log2 multiplicities, in bits."""
    terms = []
    for block in sorted(decomp.blocks):
        terms.append(_block_value(block, table, cfg))
        terms.append(math.log2(decomp.blocks[block]))
    if decomp.tail is not None:
        terms.append(_block_value(decomp.tail, table, cfg))
    return math.fsum(terms)


def bdm_value(s: str, table: CtmTable, cfg: BdmConfig = BdmConfig()) -> float:
    """Block decomposition value of s in bits; see decompose for what s may be."""
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
    decomp = decompose(s, cfg)
    value = decomposition_value(decomp, table, cfg)
    ent = partition_entropy(decomp)
    return EquivRecord(s, value, ent, value - ent)
