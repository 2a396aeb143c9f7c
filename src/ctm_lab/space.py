"""Exhaustive enumeration of a rule space into a frequency table.

run_space accounts for every run of every machine index of (n, 2) on the
blanks of its spec, through two sound non-halting proofs (no halting rule,
blank-runway escape) and the step cutoff, and aggregates halting outputs
into per-string counts. Only halting outputs are counted, so the proofs
decide nothing but the census bucket of a non-halting run. The vector
engine also retires runs that provably repeat themselves (Cycles, below)
as step_limited, the bucket the cutoff would give them, so no count or
byte moves.

run_space always runs the vectorized numpy engine, which steps rows in
lockstep. The scalar engine, built directly on machine.simulate, runs
every machine on every blank; run_index_array(..., engine="scalar")
reaches it as the independent oracle for the fast path. Every run fills a
FrequencyTable through FrequencyTable.add.

Orbits. run_space steps only orbit representatives: machines
whose (1,0) entry is a right-moving step to state 1 or 2, 4 of the 4n+2
top digits (2 for n = 1), run on blank 0 (Namings, below). Reflecting the
directions of a machine reverses its blank-0 run; complementing its
symbols (and swapping its read-0/read-1 entries) turns its blank-0 run
into the complemented blank-1 run of the image. So
each representative run also stands for its mirror's blank-0 run and, in
both mode, for the two complements' blank-1 runs, each credited with the
image string and the image machine's index as producer. Runs whose first
step reads a halting entry print one symbol and are counted in closed form,
once for the whole space.

Namings. Renaming states 2..n maps the space onto itself and each run
onto a run with the same output, step count, used rules and census
bucket; only the index moves. The transposition (2 k) maps the machines
whose (1,0) entry steps to state 2 one to one onto those that step to
state k with the same write and move. So a row whose top step goes to
state 2 also stands for its n - 2 renamings, n - 1 namings in all
(_namings): its machine, no_halt_rule and bucket counts are multiplied
by n - 1, and digits whose top step goes to state 3..n are never
stepped. A renaming raises the top step's next state, so the row's own
image index stays the smallest under the identity and mirror images. A
complement image starts with the renamed (1,1) entry instead, and its
producer is the least over the row's renamings (_image_producers).

Families. A run reads only some of its 2n entries, and every machine that
differs from it only in unread entries runs the same way. So run_space
does not step its representatives one by one but starts from the top of
their read tree (_subtree_rows). Every run reads its top digit, the (1,0)
entry, at step 1, and, when that steps to a state q != 1, the blank-read
entry (q,0) at step 2. So each representative digit is one row, or
b = 4n + 2 rows, one per code of (q,0), and every other entry holds the
unread marker 4n + 2. A row with u unread entries stands for b^u
machines, times its namings, and if none of its fixed entries halts, the
(4n)^u of them with only steps in their unread entries have no halting
entry. A row carries these two counts, its weights: a subtree row's come
from its digits (_weights), and a child's from its parent's by one
division each. A row that reads an unread entry is replaced, at the same
step, by b children, one per code, each with 1/b of its parent's
machines and, for a step code, 1/4n of its no-halt machines (none for a
halt code); a child whose machines all lack a halting entry has neither an unread nor
a halting entry, a machine without a halting rule, and is counted at
once. A halted row credits its machines to its string, with the
family's smallest member (unread digits 0) as producer; a non-halting
row credits its no-halt machines to no_halt_rule and the rest to its
bucket (escape or cutoff). An escape
test that depends on an unread blank-read entry expands that entry. On
(3,2) this steps 36,685 rows in all (summed over the steps) for its
2,151,296 representatives. Without the namings it steps 73,368 rows
for the 3,226,944 machines of all six right-moving top digits, which
one by one take 4,673,656 machine-steps.
run_index_array runs arbitrary index sets, every machine on every blank,
by the same rule with a batch's machines in place of a row's. A batch
of _BATCH = 2^20 indices is decoded 2^16 at a time (_DECODE_CHUNK), so
the decode's temporaries do not grow with it, and one lookup per chunk
of digits drops the machines without a halting entry before their codes
are gathered (_decode). The others are the batch's members (_Members):
each keeps only its 2n action codes and its int32 place in the
permutation, 12 bytes at n = 4, and a producer's index is read back
from its codes. As run_space starts from the entries its runs read
first, a pass on blank b starts with one row per code of the (1,b)
entry, read at step 1, whose members are those that hold it, in index
order (_member_rows). A row that reads an unread entry splits its
members stably by their codes there, one child per code that occurs. A
row's weights are its member count and 0 no-halt machines; a finished
row credits its members to its bucket, and a halted one its first
(smallest) member as producer.

Cycles. Most runs that reach the cutoff repeat themselves within a few
steps, in place or shifted along the tape (Lin & Rado's translated
cycles). Every live row takes a snapshot at steps 8, 16, 32, ... (Brent's
schedule): its state, its distances to the visited bounds and the cells
within 7 of its head. At each later step, a row is retired (_Pass.looped)
when it is in the snapshot's state, its head has moved by d, and its tape
seen from the head matches the snapshot's on the cells read since and, if
d != 0, up to the frontier it moves towards, which must be as far away as
it was. Such a run repeats itself shifted by d forever: it never halts,
and each later landing on fresh tape repeats one that already failed the
escape test, so it would end step_limited at any cutoff and is credited
so now, its members without a halting entry to no_halt_rule as before.
Children keep their parent's snapshot and excursion, and are checked at
the step they are born in, like every row that takes a step.
machine.simulate implements the rule independently, and tests check each
retirement by it. On the seed-0 census-d4-sample (4,194,884 runs at
cutoff 107) this retires 285,215 of the 287,122 step-limited runs. The
rows stepped (summed over the steps) fall from 6,483,006 to 770,592, plus
163,221 children stepped when born; one decoded row per machine stepped
34,986,985 rows without the check and 7,803,652 with it.

The step loop touches only live rows: state, head, visited bounds,
used-rule mask, escape word and snapshot are the columns of one int64
array that one keep-mask filters whenever a row stops, and three lookup
tables over the action codes give the written symbol, head delta and
next state. The marker shares the halt codes' stop test (codes from 4n
up), so a step pays nothing for it. The blank-runway closure depends
only on the walk classes of the blank-read entries: a step's move and
next state, since on blank runway its written symbol cannot matter, one
class for both halts and one for the marker. Up to n = 4 it runs once
per space and blank, on every tuple of classes, into a table built on
first use (_escape_table), and a row's escape word is one gather by its
tuple; the index sets of n = 5 and 6 run it on their rows. Indices
decode from per-space tables, one gather per chunk of digits. The tape
starts narrow and widens as the step count grows; each copy keeps only
live rows, and halted rows are packed into (length, value) pairs before
the tape is replaced.

Determinism contract: the resulting FrequencyTable depends only on the
SpaceSpec, never on the worker count or scheduling. The unit of work is
a pass of whole subtree rows (_family_groups): all of them in a space
below _POOL_MIN_SIZE machines, one each in the larger ones. Every worker
count runs the same passes whole, and a pass's table adds into the
result by sums and minima, in any order.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._canon import canonical_key, meta_dumps
from .errors import ValidationError, require_int
from .machine import (
    NO_HALT_RULE, Halted, NonHaltingProved, RunConfig, decode_machine, machine_count, simulate,
)

BLANK_ZERO = "zero"
BLANK_BOTH = "both"
BLANK_MODES = (BLANK_ZERO, BLANK_BOTH)

_MAX_STATES = 6  # indices stay below 26^12 < 2^63: exact in int64 and in _decode's uint64
# Entries of the largest lookup table: _decode's digit tables, and the
# escape table of a space (_escape_table), which holds (2n + 2)^n words,
# 10^4 at n = 4, and is not built past it (n >= 5), where _escape_bits
# runs on the rows themselves.
_TABLE_SIZE = 1 << 17
# Indices per run_index_array batch, whose machines that can halt are the
# members of one pass per blank (_Members), decoded _DECODE_CHUNK indices
# at a time. Larger batches pay the per-step overhead fewer times and let
# machines of more indices share rows. The seed-0 census-d4-sample
# (4,194,884 indices, cutoff 107), run in one process on a 2-core x86-64
# box, medians of five: 2^19 took 0.66 s at 90 MB peak RSS, 2^20 0.57 s at
# 96 MB, 2^21 0.54 s at 113 MB (the process, its 34 MB index array
# included).
_BATCH = 1 << 20
_DECODE_CHUNK = 1 << 16

# Header of FrequencyTable.canonical_bytes(), the in-memory comparison key of
# a run (the benchmark's census-d4-sample hashes it); no file format uses it.
_FREQ_MAGIC = "# ctm-freq v1"
_FREQ_COLUMNS = "string,count,min_used_rules,first_producer"

# Format v1 records which non-halting proofs a run applied and how many runs
# the cycle check caught. Every run applies the same proofs, so these keys
# are constant: files keep writing them and must carry exactly these values.
# The vector engine's cycle check leaves them so: a run it retires keeps the
# step_limited bucket the cutoff would give it, so filters.cycle stays
# false and cycle_detected 0.
_V1_CONSTANT_KEYS = {
    "spec": {
        "cycle_memory_limit": 10_000,
        "filters": {"blank_escape": True, "cycle": False, "no_halt_rule": True},
    },
    "census": {"cycle_detected": 0},
}


def _from_meta(cls, d, kind: str):
    """cls(**d) for a meta object: exactly cls's fields plus the v1 constant
    keys, each field but blank_mode (which SpaceSpec checks) a non-negative
    int, and as as_dict writes them (so max_steps 0, "use the default", is
    not accepted from a file)."""
    if not isinstance(d, dict):
        raise ValidationError(f"{kind} is not a JSON object: {d!r}")
    constant = _V1_CONSTANT_KEYS[kind]
    for key, value in constant.items():
        if d.get(key) != value:
            raise ValidationError(f"{kind} {key} must be {value!r}, got {d.get(key)!r}")
    d = {k: v for k, v in d.items() if k not in constant}
    names = sorted(f.name for f in fields(cls))
    if sorted(d) != names:
        raise ValidationError(f"{kind} keys must be {names}, got {sorted(d)}")
    for key, value in d.items():
        if key != "blank_mode" and not (type(value) is int and value >= 0):
            raise ValidationError(f"{kind} {key} has a bad value {value!r}")
    obj = cls(**d)
    if asdict(obj) != d:
        raise ValidationError(f"{kind} is not canonical: {d!r}")
    return obj


def space_size(n: int) -> int:
    """(4n + 2)^(2n), the number of machines with n states and 2 symbols."""
    require_int("n", n)
    if n > _MAX_STATES:
        raise ValidationError(
            f"space size for n={n} exceeds the supported enumeration range (n <= {_MAX_STATES})"
        )
    return machine_count(n)


def default_max_steps(n: int) -> int:
    """Default step cutoff, never below the busy-beaver step bound S(n).

    n <= 3 keeps the cutoffs validated by the 10x re-run check on full
    spaces (10 and 30; S(2) = 6, S(3) = 21). For n = 4 it is S(4) = 107
    (Brady, Math. Comp. 40, 1983): every halting (4,2) machine stops
    within 107 steps, so the cutoff loses no halting run.
    """
    require_int("n", n)
    if n <= 2:
        return 10
    if n == 3:
        return 30
    if n == 4:
        return 107
    raise ValidationError(f"no validated default cutoff for n={n}; set max_steps explicitly")


@dataclass(frozen=True)
class SpaceSpec:
    """Everything that determines a space run's result."""

    n: int
    blank_mode: str = BLANK_ZERO
    max_steps: int = 0  # 0 means: use default_max_steps(n)

    def __post_init__(self):
        space_size(self.n)  # validates n
        if self.blank_mode not in BLANK_MODES:
            raise ValidationError(f"unknown blank mode {self.blank_mode!r}")
        require_int("max_steps", self.max_steps)
        if self.max_steps == 0:
            object.__setattr__(self, "max_steps", default_max_steps(self.n))
        if self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")

    @property
    def size(self) -> int:
        return space_size(self.n)

    @property
    def run_count(self) -> int:
        """Machine runs performed: the space size, doubled for both blanks."""
        return self.size * (2 if self.blank_mode == BLANK_BOTH else 1)

    @property
    def blanks(self):
        return (0, 1) if self.blank_mode == BLANK_BOTH else (0,)

    def run_config(self, blank: int) -> RunConfig:
        return RunConfig(max_steps=self.max_steps, blank=blank, check_cycles=False)

    def as_dict(self) -> dict:
        return {**asdict(self), **_V1_CONSTANT_KEYS["spec"]}

    @staticmethod
    def from_dict(d: dict) -> "SpaceSpec":
        return _from_meta(SpaceSpec, d, "spec")


@dataclass
class Census:
    """How every run of a space was classified."""

    total_runs: int = 0
    halted: int = 0
    no_halt_rule: int = 0
    blank_escape: int = 0
    step_limited: int = 0

    @property
    def proved_non_halting(self) -> int:
        return self.no_halt_rule + self.blank_escape

    def add(self, other: "Census") -> None:
        self.total_runs += other.total_runs
        self.halted += other.halted
        self.no_halt_rule += other.no_halt_rule
        self.blank_escape += other.blank_escape
        self.step_limited += other.step_limited

    def as_dict(self) -> dict:
        return {**asdict(self), **_V1_CONSTANT_KEYS["census"]}

    @staticmethod
    def from_dict(d: dict) -> "Census":
        return _from_meta(Census, d, "census")


@dataclass
class FrequencyTable:
    """Aggregated halting outputs of a space run, held in memory only.

    counts maps each produced binary string to how many runs produced it;
    min_used_rules keeps the smallest number of distinct transition entries
    any producer exercised, and first_producer the smallest producing
    machine index (blank-0 runs take precedence over blank-1 at equal
    index). covers is ((0, size),) for a run_space table, the whole space,
    and None for ad-hoc index sets.
    """

    spec: SpaceSpec
    counts: dict
    min_used_rules: dict
    first_producer: dict
    census: Census
    covers: tuple = ()

    def add(self, s: str, count: int, used: int, first: int) -> None:
        """Credit count runs that printed s: counts add, min_used_rules and
        first_producer keep their minima."""
        if s in self.counts:
            self.counts[s] += count
            if used < self.min_used_rules[s]:
                self.min_used_rules[s] = used
            if first < self.first_producer[s]:
                self.first_producer[s] = first
        else:
            self.counts[s] = count
            self.min_used_rules[s] = used
            self.first_producer[s] = first

    def merge(self, other: "FrequencyTable") -> None:
        """Add the runs of other, a table of the same spec, to this one."""
        self.census.add(other.census)
        for s, count in other.counts.items():
            self.add(s, count, other.min_used_rules[s], other.first_producer[s])

    def validate(self) -> None:
        if sum(self.counts.values()) != self.census.halted:
            raise ValidationError("census.halted does not match the sum of counts")
        parts = (
            self.census.halted
            + self.census.proved_non_halting
            + self.census.step_limited
        )
        if parts != self.census.total_runs:
            raise ValidationError("census categories do not partition total_runs")
        for s in self.counts:
            if not s or set(s) - {"0", "1"}:
                raise ValidationError(f"count key is not a nonempty binary string: {s!r}")

    def records(self):
        recs = [
            (s, c, self.min_used_rules[s], self.first_producer[s])
            for s, c in self.counts.items()
        ]
        recs.sort(key=canonical_key)
        return recs

    def canonical_bytes(self) -> bytes:
        """Canonical text of the table, the key that runs are compared by.
        Tables are saved through to_ctm as .ctm files, never in this form."""
        meta = {
            "census": self.census.as_dict(),
            "covers": None if self.covers is None else [list(r) for r in self.covers],
            "spec": self.spec.as_dict(),
        }
        lines = [_FREQ_MAGIC, "# meta " + meta_dumps(meta), _FREQ_COLUMNS]
        for s, count, used, first in self.records():
            lines.append(f"{s},{count},{used},{first}")
        return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Scalar engine (reference implementation)


def _run_scalar(spec: SpaceSpec, indices, sink: FrequencyTable) -> None:
    for blank in spec.blanks:
        cfg = spec.run_config(blank)
        census = sink.census
        for index in indices:
            outcome = simulate(decode_machine(int(index), spec.n), cfg)
            census.total_runs += 1
            if isinstance(outcome, Halted):
                census.halted += 1
                sink.add(outcome.output, 1, outcome.used_rules, int(index))
            elif isinstance(outcome, NonHaltingProved):
                if outcome.reason == NO_HALT_RULE:
                    census.no_halt_rule += 1
                else:
                    census.blank_escape += 1
            else:
                census.step_limited += 1


# ---------------------------------------------------------------------------
# Vectorized engine


def _action_tables(n: int):
    """Written symbol, head delta and 2 * next state of each action code.

    Codes below 4n are steps (write, move, next state in mixed radix); the
    two codes from 4n up halt after writing, so their delta is 0. The
    unread marker 4n + 2 does not move either; a row that reads it is
    replaced by its children before the step counts (_Pass.settle).
    """
    codes = np.arange(4 * n + 3)
    step = codes < 4 * n
    write = np.where(step, codes // (2 * n), codes - 4 * n).astype(np.uint8)
    delta = np.where(step, 2 * (codes % (2 * n) // n) - 1, 0).astype(np.intp)
    next2 = np.where(step, 2 * (codes % n), 0).astype(np.intp)
    return write, delta, next2


def _image_indices(digits: np.ndarray, n: int, reverse: bool, complement: bool) -> np.ndarray:
    """Machine indices of the images of rows of 2n action codes.

    reverse applies reflect_directions, complement applies complement_symbols,
    both through one lookup table over the 4n + 2 action codes. A step code
    is write * 2n + move * n + (next - 1): reflecting flips the move digit,
    complementing flips the write digit and swaps the read-0 and read-1
    entry of every state. Halt codes 4n + w keep their place under
    reflection and swap under complement. The unread marker 4n + 2 maps to
    0, so a family's image index is the smallest index of its image family.
    """
    codes = np.arange(4 * n + 2)
    write, rest = codes // (2 * n), codes % (2 * n)
    if reverse:
        rest = (rest + n) % (2 * n)
    if complement:
        write = 1 - write
    halts = 8 * n + 1 - codes if complement else codes
    image = np.append(np.where(codes < 4 * n, write * 2 * n + rest, halts), 0)
    index = np.zeros(digits.shape[0], np.int64)
    for slot in range(2 * n):
        index = index * (4 * n + 2) + image[digits[:, slot ^ complement]]
    return index


@functools.cache
def _transpositions(n: int):
    """For each transposition (2 k) of state names, k = 3..n, the slot
    order and code table that rename a row of action codes, read-only.

    The renamed row takes state k's entries where state 2's were and the
    other way round (row[:, order]), and a step to state 2 goes to k and
    one to k goes to 2 (table). Halt codes and the unread marker keep
    their code.
    """
    codes = np.arange(4 * n + 3)
    target = codes % n  # a step code's next state - 1
    renamings = []
    for k in range(3, n + 1):
        swap = np.arange(n)  # (2 k) on state - 1
        swap[[1, k - 1]] = k - 1, 1
        order = (2 * swap[:, None] + np.arange(2)).ravel()
        table = np.where(codes < 4 * n, codes - target + swap[target], codes).astype(np.uint8)
        for a in (order, table):
            a.flags.writeable = False
        renamings.append((order, table))
    return tuple(renamings)


def _image_producers(digits: np.ndarray, n: int, reverse: bool, complement: bool) -> np.ndarray:
    """The smallest index of each family row's image, over every naming it stands for.

    A row whose top step goes to state 2 also stands for its renamings
    under (2 k), k = 3..n (_namings), whose top steps go to state k. Those
    keep the row's top digit but for a larger next state, so without
    complement the row's own image is the smallest (_image_indices). A
    complement image starts with the renamed (1,1) entry instead, so it
    takes the minimum over the renamings.
    """
    index = _image_indices(digits, n, reverse, complement)
    named = np.flatnonzero(_namings(digits[:, 0], n) > 1) if complement else ()
    if len(named):
        rows = digits[named]
        least = index[named]
        for order, table in _transpositions(n):
            np.minimum(least, _image_indices(table[rows[:, order]], n, reverse, True), out=least)
        index[named] = least
    return index


# The runs an orbit representative R (a machine whose (1,0) entry is a
# right-moving step) stands for, as (reverse, complement): R on blank 0; its
# mirror on blank 0, which prints the reversed output; and in both mode the
# complements of these two on blank 1, which print the complemented outputs.
_ORBIT_IMAGES = {
    BLANK_ZERO: ((False, False), (True, False)),
    BLANK_BOTH: ((False, False), (True, False), (False, True), (True, True)),
}

_COMPLEMENT = str.maketrans("01", "10")


def _image_string(s: str, reverse: bool, complement: bool) -> str:
    if reverse:
        s = s[::-1]
    return s.translate(_COMPLEMENT) if complement else s


# An escape word holds, for each step code o, bit o (landing on fresh tape
# with o proves escape) and bit 32 + o (that depends on an unread entry).
_ESC = 1 | 1 << 32

# The cycle check (_Pass.looped): snapshots at steps 8, 16, 32, ..., each
# holding the cells within _WINDOW of the head and one spare cell, 16 bits.
_FIRST_SNAPSHOT = 8
_WINDOW = 7
_LOW = (np.int64(1) << np.arange(2 * _WINDOW + 2)) - 1  # _LOW[j]: the low j bits set


@functools.cache
def _walk_classes(n: int) -> np.ndarray:
    """The walk class of each action code, read-only: code % 2n for a step
    (its move and next state), 2n for both halts, 2n + 1 for the unread
    marker. A walk on blank runway never reads what it writes, so the
    written symbol cannot change its outcome."""
    codes = np.arange(4 * n + 3)
    halt_or_marker = np.where(codes < 4 * n + 2, 2 * n, 2 * n + 1)
    classes = np.where(codes < 4 * n, codes % (2 * n), halt_or_marker)
    classes.flags.writeable = False
    return classes


def _escape_bits(ords: np.ndarray, n: int, blank: int) -> np.ndarray:
    """The escape word of each row of action codes (see _ESC).

    The blank-runway closure depends only on the walk classes of the n
    blank-read entries (_walk_classes), and runs here on every row given.
    Passes call it through _escape_words, so up to n = 4 it runs once per
    space and blank, on one row per tuple of classes (_escape_table), and
    only the index sets of n = 5 and 6 run it on their rows. A walk that meets an unread entry
    before it fails is undecided; fully decoded rows have no undecided bits.
    """
    b_cls = _walk_classes(n).take(ords[:, blank::2])
    b_step = b_cls < 2 * n
    unread = b_cls == 2 * n + 1
    b_move = b_cls // n
    # for each entry, the flat index of its next state's entry in the same key row
    b_next = (b_cls % n + np.arange(b_cls.shape[0])[:, None] * n).ravel()
    bits = np.zeros(b_cls.shape[0], np.int64)
    for d in (0, 1):
        step_d = b_step & (b_move == d)
        sure, maybe = step_d, step_d | unread
        # pass k checks a walk of k + 1 states; a walk has at most n
        # distinct states, so n - 1 passes make the flags exact
        for _ in range(n - 1):
            sure = step_d & sure.ravel()[b_next].reshape(-1, n)
            maybe = unread | (step_d & maybe.ravel()[b_next].reshape(-1, n))
        # bit s of a word is the flag of state s + 1; the step codes moving in
        # direction d to that state are d * n + s and 2n + d * n + s
        for flags, shift in ((sure, d * n), (maybe & ~sure, 32 + d * n)):
            word = np.packbits(flags, axis=1, bitorder="little")[:, 0].astype(np.int64)
            bits |= (word << shift) | (word << (shift + 2 * n))
    return bits


@functools.cache
def _escape_table(n: int, blank: int):
    """_escape_bits of every key on blank, read-only and indexed by key
    (classes in base 2n + 2, the first blank-read entry's most significant),
    or None where the (2n + 2)^n keys outgrow _TABLE_SIZE (n >= 5).

    It is built on first use, from one row per key whose blank-read
    entries hold the first code of each of its walk classes.
    """
    base = 2 * n + 2
    if base ** n > _TABLE_SIZE:
        return None
    codes = np.unique(_walk_classes(n), return_index=True)[1].astype(np.uint8)
    keys = np.arange(base ** n)
    ords = np.full((keys.size, 2 * n), 4 * n + 2, np.uint8)
    for j in range(n):
        ords[:, 2 * j + blank] = codes[keys // base ** (n - 1 - j) % base]
    table = _escape_bits(ords, n, blank)
    table.flags.writeable = False
    return table


def _escape_words(ords: np.ndarray, n: int, blank: int) -> np.ndarray:
    """The escape word of each row of action codes: one gather from
    _escape_table by its key, or _escape_bits where there is no table."""
    table = _escape_table(n, blank)
    if table is None:
        return _escape_bits(ords, n, blank)
    classes = _walk_classes(n)
    key = classes.take(ords[:, blank])
    for j in range(1, n):
        key *= 2 * n + 2
        key += classes.take(ords[:, 2 * j + blank])
    return table.take(key)


def _namings(top, n: int):
    """How many namings of states 2..n a family row stands for, from its
    top digit: n - 1 when its (1,0) entry steps to state 2, else 1.

    Such a row stands for itself and its renamings under the
    transpositions (2 k), k = 3..n, which run exactly as it does (see
    Namings in the module docstring); rows whose top step goes to state
    3..n are never stepped.
    """
    return np.where((top < 4 * n) & (top % n == 1), n - 1, 1)


def _weights(digits: np.ndarray, n: int) -> np.ndarray:
    """The weights of family rows, int64 (rows, 2): how many machines each
    stands for, and how many of them have no halting entry.

    A row with u unread entries stands for (4n + 2)^u machines, times its
    namings. If none of its fixed entries halts, the (4n)^u of them whose
    unread entries are all steps have no halting entry; otherwise every
    one has one. So a row's two weights are equal exactly when it has
    neither an unread nor a halting entry: when it cannot halt.
    """
    unread = np.count_nonzero(digits == 4 * n + 2, axis=1)
    fixed_halt = ((digits >= 4 * n) & (digits < 4 * n + 2)).any(axis=1)
    namings = _namings(digits[:, 0], n)
    machines = namings * np.power(np.int64(4 * n + 2), unread)
    no_halt = np.where(fixed_halt, 0, namings * np.power(np.int64(4 * n), unread))
    return np.stack((machines, no_halt), axis=1)


class _Members:
    """The machines of an index batch, as segments of member ids per pass row.

    Members are the batch's machines that can halt, in index order; codes
    holds their rows of action codes (uint8), and nothing else is kept per
    member but the int32 perm: 2n + 4 bytes, 12 at n = 4. Pass row r stands
    for the members perm[seg[r, 0]:seg[r, 1]]; a pass on blank b starts
    with one row per code of the (1,b) entry that members hold
    (_member_rows). Every segment starts, and every split keeps it, in
    index order, so a segment always lists its smallest member first.
    """

    def __init__(self, codes: np.ndarray, perm: np.ndarray, seg: np.ndarray):
        self.codes = codes
        self.perm = perm
        self.seg = seg

    def split(self, rows, slots):
        """Split each row's segment stably by its members' codes at the row's slot.

        Returns, for each code that occurs, one child: its row's position in
        rows, the code and its segment. Positions, member ids and the flat
        code offsets that the gathers index with are int32.
        The sort key is (row, code) in the narrowest type that holds it;
        numpy sorts 8- and 16-bit keys by radix. Past 16 bits the key is
        int32, which holds every key: a row has a member, so rows.size <=
        _BATCH = 2^20, and 2^20 * (4n + 2) < 2^31 up to _MAX_STATES.
        """
        width = self.codes.shape[1]
        b = width * 2 + 2  # 4n + 2 codes
        lo, hi = self.seg[rows].T
        sizes = hi - lo
        pos = np.repeat((lo - np.cumsum(sizes) + sizes).astype(np.int32), sizes)
        pos += np.arange(pos.size, dtype=np.int32)
        ids = self.perm[pos]
        flat = ids * width
        flat += np.repeat(slots.astype(np.int32), sizes)
        top = rows.size * b
        dtype = np.uint8 if top <= 1 << 8 else np.uint16 if top <= 1 << 16 else np.int32
        key = np.repeat(np.arange(0, top, b, dtype=dtype), sizes)
        key += self.codes.reshape(-1)[flat]
        del flat
        order = np.argsort(key, kind="stable")
        key = key.take(order)
        self.perm.put(pos, ids.take(order))
        ends = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [key.size]))
        first = ends[:-1]
        seg = np.stack((pos[first], pos[ends[1:] - 1] + 1), axis=1)
        return key[first] // b, key[first] % b, seg


class _Outputs:
    """Finished rows of one pass, credited once per image in images.

    A row is a machine or a family that differs only in its unread entries,
    so all its members run the same way. Its machines and no-halt machines
    are read from the pass's weights (_Pass), never from its digits. A
    halted row credits its machines to the image string, with the least
    image of its members (_image_producers) as producer. Halted spans are
    packed before the tape moves; an escaped or step-limited row credits
    its no-halt machines to no_halt_rule and the rest to its bucket. With
    members (an index batch, see _Members) a row stands for its segment of
    them instead, all of which can halt, and its first member, the
    smallest, is the producer, priced from its codes like a family row.
    """

    def __init__(self, sink, n, images, members=None):
        self.sink = sink
        self.n = n
        self.images = images
        self.members = members
        self.pending = []  # (lo, hi, used, row) spans into the current tape
        self.escaped = []  # rows proved to escape
        self.looped = []  # rows proved to repeat themselves
        self.packed = []  # (length, value, used_rules, machines, producers)

    def no_halt_rule(self, machines: int) -> None:
        self.sink.census.no_halt_rule += len(self.images) * machines

    def non_halting(self, weights, rows, bucket: str) -> None:
        """Credit rows that stopped without halting to no_halt_rule and to bucket."""
        machines, no_halt = weights[rows].sum(axis=0).tolist()
        self.no_halt_rule(no_halt)
        census = self.sink.census
        rest = len(self.images) * (machines - no_halt)
        setattr(census, bucket, getattr(census, bucket) + rest)

    def pack(self, tape, ords, weights) -> None:
        for rows, bucket in ((self.escaped, "blank_escape"), (self.looped, "step_limited")):
            if rows:
                self.non_halting(weights, np.concatenate(rows), bucket)
                rows.clear()
        if not self.pending:
            return
        lo, hi, used, row = (np.concatenate(a) for a in zip(*self.pending))
        self.pending = []
        machines = weights[row, 0]
        if self.members is None:
            digits = ords[row]
        else:  # the row's first member, its smallest
            digits = self.members.codes[self.members.perm[self.members.seg[row, 0]]]
        producers = np.stack([_image_producers(digits, self.n, *image) for image in self.images])
        self.sink.census.halted += len(self.images) * int(machines.sum())
        lengths = hi - lo + 1
        used_rules = np.bitwise_count(used).astype(np.int64)
        # cells read per output: a whole number of bytes, at most 64 bits
        span = min(-(-int(lengths.max(initial=1)) // 8) * 8, 64)
        narrow = (lengths <= span) & (lo <= tape.size - span)
        if not narrow.all():
            # Rare wide outputs (only reachable with very large cutoffs), and
            # outputs too near the end of the tape array for a run of span
            # cells: build the strings row by row, and pack the rest.
            for r in np.nonzero(~narrow)[0]:
                s = "".join("1" if c else "0" for c in tape[lo[r]:hi[r] + 1])
                for image, producer in zip(self.images, producers[:, r]):
                    self.sink.add(_image_string(s, *image), int(machines[r]),
                                  int(used_rules[r]), int(producer))
            lo, hi, lengths = lo[narrow], hi[narrow], lengths[narrow]
            used_rules, machines = used_rules[narrow], machines[narrow]
            producers = producers[:, narrow]
        if lo.size:
            # each output and the cells after it, as the high bits of a 64-bit word
            cells = _runs(tape, span)[lo].view(np.uint8)
            word = np.zeros((lo.size, 8), np.uint8)
            word[:, :span // 8] = np.packbits(cells).reshape(lo.size, -1)
            value = word.view(">u8")[:, 0] >> (64 - lengths).astype(np.uint64)
            self.packed.append((lengths, value.astype(np.uint64), used_rules, machines, producers))

    def emit(self) -> None:
        if not self.packed:
            return
        lengths, value, used_rules, machines, producers = (
            np.concatenate(a, axis=-1) for a in zip(*self.packed)
        )
        order = np.lexsort((value, lengths))
        s_len = lengths[order]
        s_val = value[order]
        boundary = np.empty(order.size, bool)
        boundary[0] = True
        boundary[1:] = (s_val[1:] != s_val[:-1]) | (s_len[1:] != s_len[:-1])
        starts = np.nonzero(boundary)[0]
        group_counts = np.add.reduceat(machines[order], starts).tolist()
        group_used = np.minimum.reduceat(used_rules[order], starts).tolist()
        group_prod = [np.minimum.reduceat(p[order], starts).tolist() for p in producers]
        for k, start in enumerate(starts.tolist()):
            s = np.binary_repr(int(s_val[start]), width=int(s_len[start]))
            for image, prod in zip(self.images, group_prod):
                self.sink.add(_image_string(s, *image), group_counts[k], group_used[k], prod[k])


def _runs(flat: np.ndarray, k: int) -> np.ndarray:
    """A read-only view of the uint8 array flat whose item i is the k bytes
    flat[i:i + k]; a gather from it copies each run whole."""
    view = np.ndarray((flat.size - k + 1,), f"V{k}", flat, 0, (1,))
    view.flags.writeable = False
    return view


def _with_room(buf: np.ndarray, used: int, extra: int, fill) -> np.ndarray:
    """buf, or a copy 1.25 times larger, with room for extra rows after its first used."""
    if used + extra <= buf.shape[0]:
        return buf
    grown = np.full((max(buf.shape[0] * 5 // 4, used + extra), *buf.shape[1:]), fill, buf.dtype)
    grown[:used] = buf[:used]
    return grown


# Rows of _Pass.live, one entry per live row: 2 * (state - 1), the
# used-rule mask, r * 2n for tape row r and the escape word; then, as flat
# tape indices that move with the row's tape, the head and the visited
# bounds. The first snapshot appends the head's excursion since the
# snapshot and the start of the snapshot's window (flat indices too), and
# the snapshot's visited bounds as offsets from that start, its window
# word and its _ST2 (-1 when the window left the tape array).
(_ST2, _USED, _ORD, _ESCW, _HEAD, _LO, _HI,
 _XLO, _XHI, _SNAP, _SNAP_LO, _SNAP_HI, _SNAP_WORD, _SNAP_ST2) = range(14)


class _Pass:
    """The rows of one batch stepped in lockstep on one blank.

    A row is a family whose unread entries (code 4n + 2) the run has not
    read yet: every machine alike in its read entries, or, with members,
    its segment of them. Row r of the tape (width cells), of ords, of
    weights and of members.seg belong to it; children are appended to
    each. A row's weights (int64) are its machines and no-halt machines:
    the caller gives them for the first rows (_weights of a family row;
    its member count and 0), and spawn derives each child's from its
    parent's. The live rows are the columns of one int64 array, live (see
    _ST2 above); only they are stepped, and one keep-mask filters them on
    the steps where some row stops.
    """

    def __init__(self, spec: SpaceSpec, ords: np.ndarray, weights: np.ndarray, blank: int,
                 images, sink, members=None):
        n = spec.n
        self.n, self.blank, self.max_steps = n, blank, spec.max_steps
        self.write_of, self.delta_of, self.next2_of = _action_tables(n)
        self.pow2 = np.int64(1) << np.arange(2 * n)
        self.members = members
        self.outputs = _Outputs(sink, n, images, members)
        self.half = min(16, spec.max_steps)
        count = ords.shape[0]
        self.ords = np.ascontiguousarray(ords)
        self.tape = np.full((count, 2 * self.half + 1), blank, np.uint8)
        self.rows = count  # rows of the tape, of ords and of weights in use
        self.weights = weights
        escw = _escape_words(ords, n, blank)
        self.live = np.empty((_HI + 1, count), np.int64)
        self.live[_ST2:_USED + 1] = 0
        self.live[_ORD] = np.arange(count) * 2 * n
        self.live[_ESCW] = escw
        self.live[_HEAD:_HI + 1] = np.arange(count) * self.tape.shape[1] + self.half

    def run(self) -> None:
        """Step until every row stops or the cutoff.

        The tape starts 2 * min(16, max_steps) + 1 cells wide and doubles
        its half-width whenever the step count reaches it; it is also
        copied, live rows only, when they fall below half its rows. Rows
        take snapshots at steps 8, 16, 32, ..., after the copy, so that a
        row covers every cell its run can visit before the next snapshot.
        """
        for step in range(1, self.max_steps + 1):
            self.live = self.settle(self.live, *self.advance(self.live))
            if self.live.shape[1] == 0:
                break
            grow = step == self.half < self.max_steps
            # a copy that only drops rows saves memory, and under a megabyte
            # of tape not enough to pay for the copy and the pack
            if grow or self.live.shape[1] < self.rows // 2 and self.tape.nbytes > 1 << 20:
                self.outputs.pack(self.tape.reshape(-1), self.ords, self.weights)
                if grow:
                    self.half = min(2 * self.half, self.max_steps)
                self.compact(2 * self.half + 1)
            if _FIRST_SNAPSHOT <= step < self.max_steps and step & (step - 1) == 0:
                self.snapshot()
        self.outputs.pack(self.tape.reshape(-1), self.ords, self.weights)
        self.outputs.non_halting(self.weights, self.live[_ORD] // (2 * self.n), "step_limited")
        self.outputs.emit()

    def advance(self, live):
        """One step of the given rows, in place: their action codes (intp), read
        slots and stop mask (judge)."""
        st2, used = live[_ST2], live[_USED]
        head, lo, hi = live[_HEAD:_HI + 1]
        tape = self.tape.reshape(-1)
        slot = st2 + tape[head]
        used |= self.pow2.take(slot)
        o = self.ords.reshape(-1)[live[_ORD] + slot].astype(np.intp)
        tape[head] = self.write_of[o]
        head += self.delta_of[o]
        fresh = (head > hi) | (head < lo)
        np.maximum(hi, head, out=hi)
        np.minimum(lo, head, out=lo)
        a, b = live[_XLO:_XLO + 1], live[_XHI:_XHI + 1]  # empty before the first snapshot
        np.minimum(a, head, out=a)
        np.maximum(b, head, out=b)
        self.next2_of.take(o, out=live[_ST2])
        return o, slot, self.judge(live, o, fresh)

    def judge(self, live, o, fresh):
        """The stop mask of rows that took a step with codes o, fresh where
        they landed on fresh tape; the code of a looped row becomes 4n + 3.

        A row stops when it reads a halt code or the unread marker (both
        from 4n up), lands on fresh tape with a set escape bit, or repeats
        its snapshot (looped).
        """
        stop = (o >= 4 * self.n) | (fresh & ((live[_ESCW] >> o) & _ESC).astype(bool))
        looped = self.looped(live, stop)
        o[looped] = 4 * self.n + 3
        stop[looped] = True
        return stop

    def window(self, start):
        """The cells start .. start + 2 * _WINDOW of the flat tape as words
        (bit k for cell start + k), and whether they lie inside the array."""
        tape, width = self.tape.reshape(-1), 2 * _WINDOW + 2
        clipped = np.clip(start, 0, tape.size - width)
        cells = _runs(tape, width)[clipped].view(np.uint8)
        return np.packbits(cells, bitorder="little").view("<u2"), clipped == start

    def snapshot(self) -> None:
        """Each live row's snapshot; its excursion starts again at the head."""
        if self.live.shape[0] == _XLO:  # the first snapshot
            # The snapshot columns are appended here, not allocated with the
            # others: the early steps hold the most live rows, and carrying
            # them from step 1 raised a (4,2) batch of 2^20 strided indices
            # from 17.27 to 20.36 bytes per index (numpy 2.4), over the
            # bound of test_index_batches_hold_a_bounded_number_of_bytes_per_index.
            extra = np.empty((_SNAP_ST2 + 1 - _XLO, self.live.shape[1]), np.int64)
            self.live = np.concatenate((self.live, extra))
        live = self.live
        start = live[_HEAD] - _WINDOW
        word, inside = self.window(start)
        live[_XLO:_XHI + 1] = live[_HEAD]
        live[_SNAP] = start
        live[_SNAP_LO:_SNAP_HI + 1] = live[_LO:_HI + 1] - start
        live[_SNAP_WORD] = word
        live[_SNAP_ST2] = np.where(inside, live[_ST2], -1)

    def looped(self, live, stop):
        """The rows of live, not stopped, that repeat their snapshot shifted by d.

        With [a, b] the head's excursion since the snapshot, as offsets
        from the snapshot's head, and d how far the head has moved, a row
        repeats when it is in the snapshot's state and
        - d = 0, and the cells at offsets [a, b] are as they were;
        - d > 0, hi - head is the snapshot's, and the cells at offsets
          [a, hi - head] from the head are the snapshot's;
        - d < 0, head - lo is the snapshot's, and the cells at offsets
          [lo - head, b] from the head are the snapshot's.
        Since the snapshot the run read only the cells at [a, b] from its
        head, and the cells beyond the frontier are blank in both, so the
        run repeats itself shifted by d forever (Lin & Rado, J. ACM 12,
        1965). It never halts, and its later landings on fresh tape repeat
        landings that already failed the escape test, so at any cutoff it
        ends step_limited. A row whose compared cells leave the window
        waits for its next snapshot; before the first snapshot none repeats.
        """
        if live.shape[0] == _XLO:
            return np.empty(0, np.intp)
        c = np.flatnonzero((live[_ST2] == live[_SNAP_ST2]) > stop)
        if c.size == 0:
            return c
        head, lo, hi, a, b, hw, lp, rp, word0 = live[_HEAD:_SNAP_ST2].take(c, axis=1)
        start = head - _WINDOW
        shift = start - hw  # d
        # as bits of the windows: the visited cells of the current one, the
        # excursion in the snapshot's, and the compared cells, which with
        # the frontier condition met give the ranges above
        lo, hi = lo - start, hi - start
        first, last = np.maximum(a - hw, lo), np.minimum(b - hw, hi)
        ok = (first >= 0) & (last <= 2 * _WINDOW)
        ok &= ((lo == lp) | (shift >= 0)) & ((hi == rp) | (shift <= 0))
        word, inside = self.window(start)
        mask = np.take(_LOW, last + 1, mode="clip") ^ np.take(_LOW, first, mode="clip")
        return c[ok & inside & ((word ^ word0) & mask == 0)]

    def settle(self, live, o, slot, stop):
        """The live rows after sorting out the ones that stop (judge).

        Halted, escaped and looped (code 4n + 3) rows become outputs. A row
        that read an unread entry is replaced, at the same step, by its
        children (spawn), which then take the step from the slot it read
        (slot is None where no row reads one). A row whose escape depends on
        unread entries is decided by expanding them (decide).
        """
        if not stop.any():
            return live
        two_n, marker = 2 * self.n, 4 * self.n + 2
        idx = np.nonzero(stop)[0]
        oi = o[idx]
        halted = idx[(oi >= 4 * self.n) & (oi < marker)]
        lo, hi, used, ordoff = (live[row][halted] for row in (_LO, _HI, _USED, _ORD))
        self.outputs.pending.append((lo, hi, used, ordoff // two_n))
        self.outputs.looped.append(live[_ORD][idx[oi > marker]] // two_n)
        moved = idx[oi < 4 * self.n]
        sure = ((live[_ESCW][moved] >> o[moved]) & 1).astype(bool)
        self.outputs.escaped.append(live[_ORD][moved[sure]] // two_n)
        parts = [live.compress(~stop, axis=1)]
        read = idx[oi == marker]
        if read.size:
            self.tape.reshape(-1)[live[_HEAD][read]] = slot[read] & 1  # undo the marker's write
            children, src = self.spawn(live, read, slot[read])
            # the children take this step from its start, in the state that read the slot
            children[_ST2] = (slot[read] & -2)[src]
            parts.append(self.settle(children, *self.advance(children)))
        undecided = moved[~sure]
        if undecided.size:
            parts.append(self.decide(live.take(undecided, axis=1), o[undecided]))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def decide(self, live, o):
        """Rows that landed on fresh tape with code o, where escape depends on unread entries.

        The blank-runway walk from the new state meets an unread blank-read
        entry before it is decided. That entry is expanded, and the
        children, which have taken the step, are judged as fresh landings
        and settled, which decides the still undecided ones again. Each
        level fixes one entry of the walk, so the recursion is at most n
        deep. Returns the children that go on.
        """
        children, src = self.spawn(live, np.arange(live.shape[1]), self.walk_slot(live))
        o = o[src]
        return self.settle(children, o, None, self.judge(children, o, True))

    def walk_slot(self, live):
        """The first unread blank-read entry on each row's walk from its state."""
        n = self.n
        rows = live[_ORD] // (2 * n)
        cur = live[_ST2] // 2
        found = np.full(rows.size, -1, np.intp)
        for _ in range(n):
            slot = 2 * cur + self.blank
            code = self.ords[rows, slot]
            hit = (found < 0) & (code == 4 * n + 2)
            found[hit] = slot[hit]
            cur = np.where(found < 0, code % n, cur)
        return found

    def spawn(self, live, parents, slots):
        """The children of parent rows, alike but for its slot, which takes each code.

        A family row has a child for every code, whose weights follow from
        its parent's by one division each; those that cannot halt (no-halt
        machines equal to machines) are counted to no_halt_rule at once. A
        row of members has a child for each code its members hold there
        (_Members.split), weighing its segment. A child has run exactly as
        its parent, so it keeps the parent's snapshot and excursion, and its
        escape word unless the slot is read on the blank, when it takes one
        gather (_escape_words). Returns the children, and each one's index
        into parents.
        """
        n, b = self.n, 4 * self.n + 2
        rows = live[_ORD][parents] // (2 * n)
        if self.members is None:
            # child (i, code) stands for 1 / b of parent i's machines, and
            # for 1 / 4n of its no-halt machines if the code is a step
            parent = self.weights[rows]
            weights = np.zeros((parents.size, b, 2), np.int64)
            weights[:, :, 0] = parent[:, :1] // b
            weights[:, :4 * n, 1] = parent[:, 1:] // (4 * n)
            # a child whose machines all lack a halting entry has neither an
            # unread nor a halting entry: it is a machine without a halting rule
            can_halt = weights[:, :, 1] != weights[:, :, 0]
            self.outputs.no_halt_rule(int(weights[:, :, 0][~can_halt].sum()))
            src, codes = np.nonzero(can_halt)
            weights = weights[can_halt]
        else:
            src, codes, seg = self.members.split(rows, slots)
            weights = np.zeros((src.size, 2), np.int64)
            weights[:, 0] = seg[:, 1] - seg[:, 0]
        digits = self.ords[rows[src]]
        digits[np.arange(src.size), slots[src]] = codes
        children = live.take(parents[src], axis=1)
        rep = rows[src]
        new = np.arange(self.rows, self.rows + src.size)
        self.tape = _with_room(self.tape, self.rows, src.size, self.blank)
        self.ords = _with_room(self.ords, self.rows, src.size, 0)
        self.weights = _with_room(self.weights, self.rows, src.size, 0)
        if self.members is not None:
            self.members.seg = _with_room(self.members.seg, self.rows, src.size, 0)
            self.members.seg[new] = seg
        self.rows += src.size
        self.tape[new] = self.tape[rep]
        self.ords[new] = digits
        self.weights[new] = weights
        self.move(children, (new - rep) * self.tape.shape[1])
        children[_ORD] = new * (2 * n)
        # the escape word depends only on the blank-read entries
        blank_read = slots[src] % 2 == self.blank
        if blank_read.any():
            children[_ESCW][blank_read] = _escape_words(digits[blank_read], n, self.blank)
        return children, src

    @staticmethod
    def move(live, shift) -> None:
        """Shift the flat tape indices of rows whose tape moved (before the
        first snapshot the slice ends at _HI)."""
        live[_HEAD:_SNAP + 1] += shift

    def compact(self, width: int) -> None:
        """Keep only the live rows, in order, the tape centred in rows width wide."""
        rows = self.live[_ORD] // (2 * self.n)
        old = self.tape.shape[1]
        pad = (width - old) // 2
        tape = np.full((rows.size, width), self.blank, np.uint8)
        tape[:, pad:pad + old] = self.tape[rows]
        self.tape, self.ords, self.rows = tape, self.ords[rows], rows.size
        self.weights = self.weights[rows]
        if self.members is not None:
            self.members.seg = self.members.seg[rows]
        self.move(self.live, np.arange(rows.size) * width + pad - rows * old)
        self.live[_ORD] = np.arange(rows.size) * 2 * self.n


@functools.cache
def _digit_table(n: int, width: int) -> np.ndarray:
    """The width base-(4n + 2) digits of each value below (4n + 2)^width,
    most significant first, one read-only V{width} item per value."""
    base = 4 * n + 2
    codes = np.arange(base, dtype=np.uint8)
    # digits[v_0, ..., v_{width-1}] holds the digits v_0 .. v_{width-1}
    digits = np.empty((base,) * width + (width,), np.uint8)
    for slot in range(width):
        digits[..., slot] = codes.reshape((base,) + (1,) * (width - 1 - slot))
    table = digits.reshape(-1, width).view(f"V{width}")[:, 0]
    table.flags.writeable = False
    return table


@functools.cache
def _all_steps(n: int, width: int) -> np.ndarray:
    """Whether the width digits of each value below (4n + 2)^width are all
    step codes (below 4n), read-only and indexed as _digit_table."""
    step = np.arange(4 * n + 2) < 4 * n
    table = functools.reduce(np.logical_and.outer, [step] * width).ravel()
    table.flags.writeable = False
    return table


def _decode(idx: np.ndarray, n: int) -> np.ndarray:
    """The rows of action codes of the machine indices that have a halting
    entry, in index order; indices must lie in the space. The others,
    machines without a halting rule, are dropped.

    An index splits into chunks of the largest c digits with
    (4n + 2)^c <= _TABLE_SIZE (c = 4 for (4,2)), low chunks first, by
    uint64 division. The AND of one gather per chunk from _all_steps marks
    the machines whose entries are all steps, and only the other rows'
    chunks are gathered whole from _digit_table into their columns. The
    gathers index with the chunk values viewed as int64: a uint64 index
    would cast them to an intp copy first.
    """
    base = 4 * n + 2
    width = 1
    while width < 2 * n and base ** (width + 1) <= _TABLE_SIZE:
        width += 1
    rest = np.asarray(idx, np.uint64)
    chunks = []  # (first column, end column, values)
    end = 2 * n
    while end:
        start = max(end - width, 0)
        if start:
            place = np.uint64(base ** (end - start))
            quotient = rest // place
            chunk = quotient * place
            np.subtract(rest, chunk, out=chunk)
            rest = quotient
        else:
            chunk = rest
        chunks.append((start, end, chunk.view(np.int64)))
        end = start
    no_halt = functools.reduce(np.logical_and, (_all_steps(n, e - s)[v] for s, e, v in chunks))
    keep = np.flatnonzero(~no_halt)
    ords = np.empty((keep.size, 2 * n), np.uint8)
    if keep.size:  # an empty ords has no buffer for the column views
        for start, end, values in chunks:
            # columns start .. end - 1 of ords, as one item per row
            columns = np.ndarray((keep.size,), f"V{end - start}", ords, start, (2 * n,))
            columns[...] = _digit_table(n, end - start)[values[keep]]
    return ords


def _member_rows(codes: np.ndarray, blank: int):
    """The first rows of a pass over members on blank, their weights and the members.

    Every run reads its (1,b) entry at step 1, so each code of slot b that
    the members hold is one row, which fixes that slot and leaves every
    other entry unread, and stands for the members that hold the code, in
    index order. On blank 0 that entry is the top digit, which index order
    already sorts, so the segments are the runs of its column; on blank 1
    one stable sort of the (1,1) column orders them.
    """
    n = codes.shape[1] // 2
    column = codes[:, blank]
    if blank:
        perm = np.argsort(column, kind="stable").astype(np.int32)
        column = column[perm]
    else:
        perm = np.arange(column.size, dtype=np.int32)
    first = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    seg = np.stack((first, np.append(first[1:], column.size)), axis=1)
    ords = np.full((first.size, 2 * n), 4 * n + 2, np.uint8)
    ords[:, blank] = column[first]
    weights = np.zeros((first.size, 2), np.int64)
    weights[:, 0] = seg[:, 1] - seg[:, 0]
    return ords, weights, _Members(codes, perm, seg)


def _run_vector(spec: SpaceSpec, idx: np.ndarray, sink: FrequencyTable) -> None:
    """Run one batch of machine indices on every blank of spec.

    The batch is decoded _DECODE_CHUNK indices at a time, and only the
    codes of machines that can halt are kept (_decode), so the decode's
    temporaries do not grow with the batch; the others are counted to
    no_halt_rule up front. On each blank the kept machines are the members
    (_Members) of one row per code of the (1,b) entry they hold
    (_member_rows), which split as their runs read further entries.
    """
    n = spec.n
    # decoded once and shared by every blank
    codes = np.concatenate([_decode(idx[i:i + _DECODE_CHUNK], n)
                            for i in range(0, idx.size, _DECODE_CHUNK)])
    count = codes.shape[0]
    for blank in spec.blanks:
        sink.census.total_runs += idx.size
        sink.census.no_halt_rule += idx.size - count
        if count:
            ords, weights, members = _member_rows(codes, blank)
            # an index set is not reduced by symmetry: its one image is the run itself
            _Pass(spec, ords, weights, blank, ((False, False),), sink, members).run()


def _representative_digits(n: int):
    """The top digits whose (1,0) entry is a right-moving step to state 1
    or 2: n and n + 1 (write 0), 3n and 3n + 1 (write 1); n and 3n if n = 1."""
    return tuple(d for d in (*range(n, 2 * n), *range(3 * n, 4 * n)) if d % n < 2)


def _subtree_rows(n: int) -> np.ndarray:
    """The representatives as rows of action codes, unread entries as 4n + 2.

    Every run reads its top digit d, the (1,0) entry, at step 1. When d
    steps to a state q != 1, it reads (q,0), the blank-read entry of q, at
    step 2, so that slot takes each of the 4n + 2 codes, one row each.
    Every other slot is unread.
    """
    b = 4 * n + 2
    rows = []
    for d in _representative_digits(n):
        row = np.full((1, 2 * n), b, np.uint8)
        row[0, 0] = d
        slot = 2 * (d % n)  # (q,0), with d % n = q - 1
        if slot:
            row = row.repeat(b, axis=0)
            row[:, slot] = np.arange(b)
        rows.append(row)
    return np.concatenate(rows)


def _family_groups(n: int):
    """The passes of run_space, in order: the subtree rows (_subtree_rows)
    as one pass in a space below _POOL_MIN_SIZE machines, one pass per row
    in the others. So (3,2) is one pass of 30 rows, and (4,2) 38 passes,
    (5,2) 46 and (6,2) 54.
    """
    rows = _subtree_rows(n)
    if space_size(n) < _POOL_MIN_SIZE:
        return [rows]
    return [rows[i:i + 1] for i in range(rows.shape[0])]


def _count_initial_halts(spec: SpaceSpec, sink: FrequencyTable) -> None:
    """The runs of the whole space that halt on their first step, counted in closed form.

    On blank b such a machine's (1,b) entry is a halt writing w: the run
    prints str(w) and uses one rule. That entry is the digit of weight
    place = (4n+2)^(2n-1-b), so one machine in 4n+2 has it, and the
    smallest is (4n+w) * place.
    """
    n = spec.n
    count = spec.size // (4 * n + 2)
    for blank in spec.blanks:
        place = (4 * n + 2) ** (2 * n - 1 - blank)
        for w in (0, 1):
            sink.census.total_runs += count
            sink.census.halted += count
            sink.add(str(w), count, 1, (4 * n + w) * place)


def _run_groups(spec: SpaceSpec, groups, sink: FrequencyTable) -> None:
    """Run passes (_family_groups), each an array of family rows,
    into sink, with the vector engine.

    Each group's orbit representatives run on blank 0 as families, and each
    run is credited to its mirror and complement images and to its namings
    (_namings). First-step halts are not counted here (_count_initial_halts).
    """
    images = _ORBIT_IMAGES[spec.blank_mode]
    for ords in groups:
        weights = _weights(ords, spec.n)
        can_halt = weights[:, 1] != weights[:, 0]
        sink.census.total_runs += len(images) * int(weights[:, 0].sum())
        sink.census.no_halt_rule += len(images) * int(weights[~can_halt, 0].sum())
        if can_halt.any():
            _Pass(spec, ords[can_halt], weights[can_halt], 0, images, sink).run()


def _run_group(job) -> FrequencyTable:
    """One pass (spec, group) as a fresh table: a pool's job."""
    spec, group = job
    sink = empty_table(spec)
    _run_groups(spec, (group,), sink)
    return sink


def _index_array(indices, size: int) -> np.ndarray:
    """indices as an integer array, checked to lie in [0, size), strictly increasing."""
    array = np.asarray(indices)
    if array.size == 0:
        return np.empty(0, np.int64)
    if array.ndim != 1 or not np.issubdtype(array.dtype, np.integer):
        raise ValidationError(f"machine indices must be a list of integers, got {array.dtype} "
                              f"with shape {array.shape}")
    if not (array[1:] > array[:-1]).all():
        raise ValidationError("machine indices must be sorted and distinct")
    if array[0] < 0 or array[-1] >= size:
        raise ValidationError(f"machine indices must lie in [0, {size}), "
                              f"got {array[0]} .. {array[-1]}")
    return array


def run_index_array(spec: SpaceSpec, indices, engine: str = "vector") -> FrequencyTable:
    """Run an arbitrary (sorted, duplicate-free) index set; covers stays None.

    Every machine runs on every blank of spec, without the symmetry
    reduction. engine is "vector" (batches of _BATCH indices, whose
    machines that can halt start as one row per code of the first entry
    their runs read; see the module docstring) or "scalar"
    (machine.simulate, one run at a time), the oracle the tests compare
    the vector engine against. Indices
    that are not integers of [0, size) in increasing order raise
    ValidationError before either engine runs.
    """
    indices = _index_array(indices, spec.size)
    sink = empty_table(spec, covers=None)
    if engine == "scalar":
        _run_scalar(spec, indices, sink)
    elif engine == "vector":
        for start in range(0, indices.size, _BATCH):
            _run_vector(spec, indices[start:start + _BATCH], sink)
    else:
        raise ValidationError(f"unknown engine {engine!r}")
    sink.validate()
    return sink


# A space of at least this many machines runs one pass per subtree row
# (_family_groups), each pass a pool job; a smaller one runs all its rows
# as one pass in the calling process. A pool pays only for spaces far larger than
# (3,2). On two cores the whole (3,2) `both` run takes 18-23 ms in one
# process as one pass, 80-112 ms as one pass per row, and 31-48 ms through
# a pool of 2 (7 runs each): forking and warming cold children costs more
# than the work. A (4,2) row holds 18^6 or 18^7 machines, and the largest
# (4,2) pass peaks at 106,071 live rows.
_POOL_MIN_SIZE = 10 ** 9


def run_space(spec: SpaceSpec, workers: int = 1) -> FrequencyTable:
    """Enumerate the whole space described by spec into a FrequencyTable.

    The symmetry-reduced vector engine runs the space's passes
    (_family_groups, _run_groups). A plan of one pass, or a run with one
    worker, runs in the calling process. Otherwise each pass is one job
    (_run_group, 38 on (4,2)), read lazily by a pool of min(workers, CPUs)
    processes, each of which takes the next pass when it is free, and
    merged as the passes finish. No job splits a subtree row, so every
    worker count steps the same rows, and the result is byte-identical for
    every worker count.
    """
    require_int("workers", workers)
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    table = empty_table(spec, ((0, spec.size),))
    groups = _family_groups(spec.n)
    if workers == 1 or len(groups) == 1:
        _run_groups(spec, groups, table)
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, os.cpu_count() or 1)) as pool:
            for part in pool.imap(_run_group, ((spec, group) for group in groups), chunksize=1):
                table.merge(part)
    _count_initial_halts(spec, table)
    table.validate()
    return table


def empty_table(spec: SpaceSpec, covers=()) -> FrequencyTable:
    """A table with no runs: the merge identity, and the sink a run fills."""
    return FrequencyTable(spec, {}, {}, {}, Census(), covers)
