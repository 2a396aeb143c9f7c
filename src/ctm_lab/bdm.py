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
from dataclasses import dataclass

from ._canon import is_binary
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
    blocks = {}
    full = len(s) // cfg.block_len
    for i in range(full):
        block = s[i * cfg.block_len:(i + 1) * cfg.block_len]
        blocks[block] = blocks.get(block, 0) + 1
    tail = None
    rest = s[full * cfg.block_len:]
    if rest and cfg.boundary == BOUNDARY_KEEP:
        tail = rest
    return Decomposition(blocks, tail)


def _block_value(block: str, table: CtmTable, cfg: BdmConfig) -> float:
    value = complexity_of(table, block)
    if value is not None:
        return value
    if cfg.fallback == FALLBACK_ERROR:
        raise ValidationError(f"no table entry for block {block!r}")
    # Length-based stand-in: a literal description of the block.
    return len(block) + math.log2(len(block))


def bdm_value(s: str, table: CtmTable, cfg: BdmConfig = BdmConfig()) -> float:
    """Sum of block complexities plus log2 multiplicities, in bits.

    The tables hold binary strings only, so s must be one: any other
    character is a ValidationError rather than a block priced by fallback.
    """
    if s and not is_binary(s):
        pos = next(i for i, c in enumerate(s) if c not in "01")
        raise ValidationError(f"not a binary string: {s[pos]!r} at position {pos}")
    decomp = partition(s, cfg)
    terms = []
    for block in sorted(decomp.blocks):
        terms.append(_block_value(block, table, cfg))
        terms.append(math.log2(decomp.blocks[block]))
    if decomp.tail is not None:
        terms.append(_block_value(decomp.tail, table, cfg))
    return math.fsum(terms)


def partition_entropy(decomp: Decomposition) -> float:
    """Shannon entropy (bits per block) of the block tokens, tail included."""
    counts = dict(decomp.blocks)
    if decomp.tail is not None:
        counts[decomp.tail] = counts.get(decomp.tail, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return -math.fsum(c / total * math.log2(c / total) for c in counts.values())


@dataclass(frozen=True)
class EquivRecord:
    """Side-by-side view of the decomposition value and its entropy floor."""

    string: str
    bdm: float
    block_entropy: float
    difference: float


def block_entropy_equiv_check(s: str, table: CtmTable, cfg: BdmConfig = BdmConfig()) -> EquivRecord:
    """Compare the decomposition value with block entropy on the same partition."""
    decomp = partition(s, cfg)
    value = bdm_value(s, table, cfg)
    ent = partition_entropy(decomp)
    return EquivRecord(s, value, ent, value - ent)
