"""Exhaustive enumeration of a rule space into a frequency table.

Every space here has n <= 4 states, checked once, in space_size: (4,2) is
the largest space whose default cutoff is a busy-beaver step bound, S(4) =
107, and its lookup tables (_escape_table, _decode's) stay small.

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
halt code); a child whose machines all lack a halting entry has neither
an unread nor a halting entry, a machine without a halting rule, and is
counted at once. A row that stops is credited by its pass (_Pass). An
escape test that depends on unread blank-read entries expands the first
of them on its walk; the children of both kinds that a step makes are
born, judged and settled in one round (_Pass.settle). On (3,2) this
steps 36,685 rows in all (summed over the steps; tests assert it) for its
2,151,296 = 4 * 14^5 representatives, which with their namings stand for
the 3,226,944 = 6 * 14^5 machines of all six right-moving top digits.
run_index_array runs arbitrary index sets, every machine on every blank,
by the same rule with a batch's machines in place of a row's. A batch
of _BATCH = 2^20 indices is decoded 2^16 at a time (_DECODE_CHUNK), so
the decode's temporaries do not grow with it, and one lookup per chunk
of digits drops the machines without a halting entry before their codes
are gathered (_decode). The others are the batch's members (_Members):
each keeps only its 2n action codes, 8 bytes at n = 4, and a producer's
index is read back from its codes. As run_space starts from the entries
its runs read first, a pass on blank b starts with one row per code of
the (1,b) entry, read at step 1, or, where that code steps to a state
q != 1, one per pair of codes of (1,b) and (q,b), read at step 2; a
row's members are those that hold its codes, in index order
(_member_rows). A row that reads an unread entry splits its members
stably by their codes there, one child per code that occurs, and
reorders their code rows in place. A row of one member is
that machine: it takes the member's codes whole, so it never reads an
unread entry again and never splits. A row's weights are its member
count and 0 no-halt machines; a finished row credits its members to its
bucket, and a halted one its first (smallest) member as producer.

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
retirement by it. How many runs it retires, and the rows stepped with and
without it, on the seed-0 census-d4-sample are spy counts recorded in
BENCH_member_starts.json ("counts").

The step loop touches only live rows: state, head, visited bounds,
used-rule mask, escape word and snapshot are the columns of one int64
array that one keep-mask filters whenever a row stops, and three lookup
tables over the action codes give the written symbol, head delta and
next state. The marker shares the halt codes' stop test (codes from 4n
up), so a step pays nothing for it. The blank-runway closure depends
only on the walk classes of the blank-read entries: a step's move and
next state, since on blank runway its written symbol cannot matter, one
class for both halts and one for the marker. It runs once per space and
blank, on every tuple of classes, into a table built on first use
(_escape_table), and a row's escape word is one gather by its tuple. The
word also names, for each state, the first unread blank-read entry on the
walk from it, so a row whose escape is undecided finds the entry it
expands with one shift and mask by its state (_Pass.walk_slot), and no
walk runs per row.
Indices decode from per-space tables, one gather per chunk of digits. The
tape starts narrow and widens as the step count grows; each copy keeps
only live rows, and halted rows are packed into (length, value) pairs,
one 64-bit word each, before the tape is replaced.

Determinism contract: the resulting FrequencyTable depends only on the
SpaceSpec, never on the worker count or scheduling. The unit of work is
a pass of whole subtree rows (_family_groups): all of them in a space
below _POOL_MIN_SIZE machines, one each in the larger ones. A pass
returns its own table, which partitions exactly the runs of its start
rows (_run_group). Every worker count runs the same passes whole and
merges their tables into the result by the same code, and a table adds
into the result by sums and minima, in any order.
"""

from __future__ import annotations

import functools
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

# The one range of n, checked by space_size. Indices stay below 18^8 < 2^34,
# the escape table of a space (_escape_table) holds (2n + 2)^n words, 10^4
# at n = 4, and a word's flags leave bits 16 .. 31 free for its n walk-slot
# fields (_ESC).
_MAX_STATES = 4
# Entries of the largest digit table that _decode gathers from.
_TABLE_SIZE = 1 << 17
# Indices per run_index_array batch, whose machines that can halt are the
# members of one pass per blank (_Members), decoded _DECODE_CHUNK indices
# at a time. Larger batches pay the per-step overhead fewer times and let
# machines of more indices share rows, and hold more memory at once. The
# CHANGES.md entry that last re-measured _BATCH records the time and peak
# RSS of the seed-0 census-d4-sample at 2^19, 2^20 and 2^21.
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
    """(4n + 2)^(2n), the number of machines with n states and 2 symbols.

    It checks n for every entry point of this module (SpaceSpec,
    default_max_steps, and so run_space, run_index_array and the .ctm
    loader): n must be 1 .. _MAX_STATES.
    """
    require_int("n", n)
    if n > _MAX_STATES:
        raise ValidationError(
            f"spaces run n <= {_MAX_STATES}, got n={n}: one (5,2) pass at cutoff 30 "
            "took 3.9 GB, and n >= 5 is not planned"
        )
    return machine_count(n)


def default_max_steps(n: int) -> int:
    """Default step cutoff, never below the busy-beaver step bound S(n).

    n <= 3 keeps the cutoffs validated by the 10x re-run check on full
    spaces (10 and 30; S(2) = 6, S(3) = 21). For n = 4 it is S(4) = 107
    (Brady, Math. Comp. 40, 1983): every halting (4,2) machine stops
    within 107 steps, so the cutoff loses no halting run. Any other n
    raises space_size's ValidationError.
    """
    space_size(n)
    if n <= 2:
        return 10
    return 30 if n == 3 else 107


@dataclass(frozen=True)
class SpaceSpec:
    """Everything that determines a space run's result; n is 1 .. 4 (space_size)."""

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
    machine index. add keeps these sums and minima whatever order runs
    arrive in, so tables merge in any order. covers is ((0, size),) for a
    run_space table, the whole space, and None for ad-hoc index sets.
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


@functools.cache
def _image_maps(n: int, reverse: bool, complement: bool):
    """How _image_producers reads image indices off rows of 2n action codes:
    (code table, place values) pairs, read-only, the first for the row
    itself and, with complement, one more for each renaming (2 k), k =
    3..n (_transpositions). A row's index under a pair is the sum over
    slots j of table[row[j]] * place[j].

    reverse applies reflect_directions, complement applies complement_symbols,
    both through the code table. A step code is write * 2n + move * n +
    (next - 1): reflecting flips the move digit, complementing flips the
    write digit and swaps the read-0 and read-1 entry of every state, so
    entry j takes the place value of slot j ^ 1. Halt codes 4n + w keep
    their place under reflection and swap under complement. The unread
    marker 4n + 2 maps to 0, so a family's image index is the smallest
    index of its image family. A renaming composes its code table into the
    image's and moves each slot's place value to the slot it renames.
    """
    codes = np.arange(4 * n + 2)
    write, rest = codes // (2 * n), codes % (2 * n)
    if reverse:
        rest = (rest + n) % (2 * n)
    if complement:
        write = 1 - write
    halts = 8 * n + 1 - codes if complement else codes
    image = np.append(np.where(codes < 4 * n, write * 2 * n + rest, halts), 0).astype(np.uint8)
    place = np.power(np.int64(4 * n + 2), np.arange(2 * n - 1, -1, -1))
    place = place.take(np.arange(2 * n) ^ complement)
    maps = [(image, place)]
    if complement:
        for order, table in _transpositions(n):
            maps.append((image.take(table), place.take(np.argsort(order))))
    for a in (a for pair in maps for a in pair):
        a.flags.writeable = False
    return tuple(maps)


def _image_index(codes: np.ndarray, table: np.ndarray, place: np.ndarray) -> np.ndarray:
    """The index of each row of codes under one of _image_maps' pairs. einsum
    widens the gathered uint8 codes to int64 a buffer at a time, so no
    int64 copy of the rows is made."""
    return np.einsum("ij,j->i", table.take(codes), place)


def _image_indices(digits: np.ndarray, n: int, reverse: bool, complement: bool) -> np.ndarray:
    """Machine indices of the images of rows of 2n action codes (_image_maps)."""
    return _image_index(digits, *_image_maps(n, reverse, complement)[0])


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
    takes the minimum over the renamings (_image_maps). Each image index
    is one gather and one product, whatever the number of rows.
    """
    index = _image_indices(digits, n, reverse, complement)
    renamings = _image_maps(n, reverse, complement)[1:]
    if renamings:
        named = (_namings(digits[:, 0], n) > 1).nonzero()[0]
        rows = digits.take(named, axis=0)
        least = index.take(named)
        for table, place in renamings:
            np.minimum(least, _image_index(rows, table, place), out=least)
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


# An escape word (_escape_table) holds, for each step code o < 4n, bit o
# (landing on fresh tape with o proves escape) and bit 32 + o (that depends
# on an unread entry); judge reads both with _ESC. Bits 16 + 4(s - 1) ..
# 19 + 4(s - 1) hold the slot of the first unread blank-read entry on the
# walk from state s, 0 where it meets none; only walk_slot reads them. The
# flags use bits 0 .. 4n - 1 and 32 .. 32 + 4n - 1, and 4n <= 16, so the
# fields never meet them, and only step codes are tested against flags: halt
# and marker rows stop by their code.
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


@functools.cache
def _escape_table(n: int, blank: int):
    """The escape word (_ESC) of every key on blank, read-only and indexed
    by key: the walk classes (_walk_classes) of the n blank-read entries in
    base 2n + 2, the first's most significant. (2n + 2)^n words, 10^4 at
    n = 4, built on first use; passes read them through _escape_words.

    The blank-runway closure runs here once, on every tuple of classes. A
    walk from a state follows the steps of the blank-read entries; it
    escapes in direction d when every step moves that way, and is
    undecided when it meets an unread entry before it fails, whose slot is
    the state's walk-slot field. Pass k follows a walk of k + 1 states,
    and a walk has at most n distinct states, so n - 1 passes make the
    flags and the fields exact. A fully decoded row has no undecided bit
    and only 0 fields.
    """
    base = 2 * n + 2
    cls = np.arange(base ** n)[:, None] // base ** np.arange(n - 1, -1, -1) % base
    step, unread = cls < 2 * n, cls == 2 * n + 1
    state = np.arange(n)
    # for each entry, the flat index of its next state's entry in the same key
    after = (cls % n + np.arange(cls.shape[0])[:, None] * n).ravel()

    def follow(a):  # a's value at each entry's next state
        return a.ravel()[after].reshape(-1, n)

    table = np.zeros(cls.shape[0], np.int64)
    for d in (0, 1):
        step_d = step & (cls // n == d)
        sure, maybe = step_d, step_d | unread
        for _ in range(n - 1):
            sure = step_d & follow(sure)
            maybe = unread | (step_d & follow(maybe))
        # bit s of a flag word is state s + 1's; the step codes moving in
        # direction d to that state are d * n + s and 2n + d * n + s
        for flags, shift in ((sure, d * n), (maybe & ~sure, 32 + d * n)):
            word = (flags << state).sum(axis=1)
            table |= (word << shift) | (word << (shift + 2 * n))
    slot = np.where(unread, 2 * state + blank, 0)
    for _ in range(n - 1):
        slot = np.where(step, follow(slot), slot)
    table |= (slot << 16 + 4 * state).sum(axis=1)
    table.flags.writeable = False
    return table


def _escape_words(ords: np.ndarray, n: int, blank: int) -> np.ndarray:
    """The escape word of each row of action codes: one gather from
    _escape_table by its key."""
    table = _escape_table(n, blank)
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
    """The machines of an index batch, as segments of code rows per pass row.

    Members are the batch's machines that can halt; codes holds their rows
    of action codes (uint8), and nothing else is kept per member: 2n bytes,
    8 at n = 4. Pass row r stands for the members codes[seg[r, 0]:seg[r, 1]];
    a pass on blank b starts with one row per code of the (1,b) entry that
    members hold, or per pair of codes of (1,b) and the (q,b) entry it
    steps to, q != 1 (_member_rows). Every segment starts, and every split
    keeps it, in index order, so a segment always lists its smallest member
    first.
    """

    def __init__(self, codes: np.ndarray, seg: np.ndarray):
        self.codes = codes
        self.seg = seg

    def split(self, rows, slots):
        """Split each row's segment stably by its members' codes at the row's slot.

        Returns, for each code that occurs, one child: its row's position in
        rows, the code and its segment. The segment's code rows are reordered
        in place, as one V{2n} item each, so that each child's are contiguous.
        The members' positions and flat code offsets are int32: the gather
        of their codes at the slot, the gather of their V{2n} items in sort
        order and the write back index with them; the gathers of the rows'
        segments and of the positions in sort order index with intp. The
        sort key is (row, code) in the narrowest type that holds it; numpy
        sorts 8- and 16-bit keys by radix. Past 16 bits the key is int32,
        which holds every key: a row has a member, so rows.size <= _BATCH =
        2^20, and 2^20 * (4n + 2) < 2^31 up to _MAX_STATES.
        """
        width = self.codes.shape[1]
        b = width * 2 + 2  # 4n + 2 codes
        lo, hi = self.seg.take(rows, axis=0).T
        sizes = hi - lo
        pos = np.repeat((lo - np.cumsum(sizes) + sizes).astype(np.int32), sizes)
        pos += np.arange(pos.size, dtype=np.int32)
        flat = pos * width
        flat += np.repeat(slots.astype(np.int32), sizes)
        top = rows.size * b
        dtype = np.uint8 if top <= 1 << 8 else np.uint16 if top <= 1 << 16 else np.int32
        key = np.repeat(np.arange(0, top, b, dtype=dtype), sizes)
        key += self.codes.reshape(-1).take(flat)
        del flat
        order = np.argsort(key, kind="stable")
        key = key.take(order)
        items = self.codes.view(f"V{width}")[:, 0]
        items[pos] = items.take(pos.take(order))
        ends = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [key.size]))
        first = ends[:-1]
        seg = np.stack((pos[first], pos[ends[1:] - 1] + 1), axis=1)
        return key[first] // b, key[first] % b, seg


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
    """The rows of one batch stepped in lockstep on one blank, and what they credit.

    A row is a family whose unread entries (code 4n + 2) the run has not
    read yet: every machine alike in its read entries, or, with members,
    its segment of them. Row r of the tape (width cells), of ords, of
    weights and of members.seg belong to it; children are appended to
    each. A row's weights (int64) are its machines and no-halt machines:
    the caller gives them for the first rows (_weights of a family row;
    its member count and 0), and spawn derives each child's from its
    parent's. The live rows are the columns of one int64 array, live (see
    _ST2 above); only they are stepped. A step advances them, judges
    which stop, and settles those (settle), where one keep-mask filters
    them and one round of children replaces the ones that read an unread
    entry or whose escape depends on one.

    A pass fills its own table: every run its start rows stand for, once
    per image in images, counted from the rows' weights, never from their
    digits. total_runs takes them all at the start, and each stopped row
    credits its runs to one bucket. A halted row credits its machines to
    each image string, with the least image of its machines
    (_image_producers) as producer; a member row's producer is its first
    member, the smallest. Its span waits in pending until pack, which runs
    before the tape moves, and emit adds the packed strings to the table.
    A row that stops without halting is credited where it stops (credit):
    its no-halt machines to no_halt_rule and the rest to its bucket,
    blank_escape or step_limited. So the table partitions exactly the runs
    of its start rows, and run returns it.
    """

    def __init__(self, spec: SpaceSpec, ords: np.ndarray, weights: np.ndarray, blank: int,
                 images, members=None):
        n = spec.n
        self.n, self.blank, self.max_steps = n, blank, spec.max_steps
        self.write_of, self.delta_of, self.next2_of = _action_tables(n)
        self.pow2 = np.int64(1) << np.arange(2 * n)
        self.images, self.members = images, members
        self.table = empty_table(spec)
        self.table.census.total_runs = len(images) * int(weights[:, 0].sum())
        self.pending = []  # (lo, hi, used, row) spans into the current tape
        self.packed = []  # (length, value, used_rules, machines, producers)
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

    def run(self) -> FrequencyTable:
        """Step until every row stops or the cutoff, and return the table.

        The tape starts 2 * min(16, max_steps) + 1 cells wide and doubles
        its half-width whenever the step count reaches it; it is also
        copied, live rows only, when they fall below half its rows. Rows
        take snapshots at steps 8, 16, 32, ..., after the copy, so that a
        row covers every cell its run can visit before the next snapshot.
        """
        for step in range(1, self.max_steps + 1):
            o, slot, fresh = self.advance(self.live)
            self.live = self.settle(self.live, o, slot, self.judge(self.live, o, fresh))
            if self.live.shape[1] == 0:
                break
            grow = step == self.half < self.max_steps
            # a copy that only drops rows saves memory, and under a megabyte
            # of tape not enough to pay for the copy and the pack
            if grow or self.live.shape[1] < self.rows // 2 and self.tape.nbytes > 1 << 20:
                self.pack()
                if grow:
                    self.half = min(2 * self.half, self.max_steps)
                self.compact(2 * self.half + 1)
            if _FIRST_SNAPSHOT <= step < self.max_steps and step & (step - 1) == 0:
                self.snapshot()
        self.pack()
        self.credit(self.live[_ORD] // (2 * self.n), "step_limited")
        self.emit()
        return self.table

    def credit(self, rows, bucket: str) -> None:
        """Credit rows that stopped without halting to no_halt_rule and to bucket.

        settle calls it on every step where some row stops, often with no
        row that stops this way: those calls return at once.
        """
        if not rows.size:
            return
        machines, no_halt = self.weights.take(rows, axis=0).sum(axis=0).tolist()
        census, k = self.table.census, len(self.images)
        census.no_halt_rule += k * no_halt
        setattr(census, bucket, getattr(census, bucket) + k * (machines - no_halt))

    def pack(self) -> None:
        """Count the pending halted rows, and pack their spans of the current
        tape into (length, value) pairs for emit.

        Each span is read as a whole number of bytes of cells, from its
        first cell or, where those bytes would run past the end of the flat
        tape, from a start clipped back into it, and then shifted up to its
        first cell: the high bits of one 64-bit word. Every halting run of a
        space with n <= 4, at any cutoff, is a run of the full (4,2) census
        at S(4) = 107 (a machine of fewer states is a (4,2) machine that
        never reaches the others), and the CI's (4,2) builds pack each of
        its outputs in one word. So a span longer than 64 cells raises
        ValidationError rather than being packed wrong.
        """
        if not self.pending:
            return
        lo, hi, used, row = (np.concatenate(a) for a in zip(*self.pending))
        self.pending = []
        if not lo.size:
            return
        tape = self.tape.reshape(-1)
        machines = self.weights[:, 0].take(row)
        if self.members is None:
            digits = self.ords.take(row, axis=0)
        else:  # the first code row of its segment, its smallest member
            digits = self.members.codes.take(self.members.seg[:, 0].take(row), axis=0)
        producers = np.stack([_image_producers(digits, self.n, *image) for image in self.images])
        self.table.census.halted += len(self.images) * int(machines.sum())
        lengths = hi - lo + 1
        longest = int(lengths.max())
        if longest > 64:
            raise ValidationError(f"a halting output of {longest} cells does not fit pack's 64 bits")
        # cells read per output: a whole number of bytes, or the whole tape
        span = min(-(-longest // 8) * 8, tape.size)
        start = np.minimum(lo, tape.size - span)
        cells = _runs(tape, span)[start].view(np.uint8).reshape(lo.size, span)
        word = np.zeros((lo.size, 8), np.uint8)
        word[:, :-(-span // 8)] = np.packbits(cells, axis=1)
        value = word.view(">u8")[:, 0] << (lo - start).astype(np.uint64)
        value >>= (64 - lengths).astype(np.uint64)
        used_rules = np.bitwise_count(used).astype(np.int64)
        self.packed.append((lengths, value, used_rules, machines, producers))

    def emit(self) -> None:
        """Add the packed strings to the table, one group per string and image."""
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
        strings = zip(s_val.take(starts).tolist(), s_len.take(starts).tolist())
        for k, (value, length) in enumerate(strings):
            s = format(value, f"0{length}b")
            for image, prod in zip(self.images, group_prod):
                self.table.add(_image_string(s, *image), group_counts[k], group_used[k], prod[k])

    def advance(self, live):
        """One step of the given rows, in place: their action codes (intp), read
        slots, and whether they landed on fresh tape, for judge."""
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
        return o, slot, fresh

    def judge(self, live, o, fresh):
        """The stop mask of rows that took a step with codes o, fresh where
        they landed on fresh tape; the code of a looped row becomes 4n + 3.
        run judges the rows of a step, and settle all the children of a
        round at once.

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
        clipped = np.minimum(np.maximum(start, 0), tape.size - width)
        cells = _runs(tape, width)[clipped].view(np.uint8)
        return np.packbits(cells, bitorder="little").view("<u2"), clipped == start

    def snapshot(self) -> None:
        """Each live row's snapshot; its excursion starts again at the head."""
        if self.live.shape[0] == _XLO:  # the first snapshot
            # The snapshot columns are appended here, not allocated with the
            # others: the early steps hold the most live rows, and carrying
            # them from step 1 took a (4,2) batch of 2^20 strided indices
            # past the bound of 16 bytes per index that
            # test_index_batches_hold_a_bounded_number_of_bytes_per_index
            # asserts (the measured peaks: BENCH_member_starts.json
            # "memory" and CHANGES.md).
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
        c = ((live[_ST2] == live[_SNAP_ST2]) > stop).nonzero()[0]
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
        mask = _LOW.take(last + 1, mode="clip") ^ _LOW.take(first, mode="clip")
        return c[ok & inside & ((word ^ word0) & mask == 0)]

    def settle(self, live, o, slot, stop):
        """The live rows after sorting out the ones that stop (judge).

        Escaped and looped (code 4n + 3) rows are credited here, and halted
        rows wait in pending for pack. Two kinds of rows are replaced by
        their children in one round (spawn): a row that read an unread
        entry, whose children take the step from the slot it read (advance),
        and a row that landed on fresh tape where escape depends on unread
        entries, whose children expand the first unread blank-read entry of
        its walk, which its escape word names (walk_slot), and keep its code
        and its landing. One judge and one settle take all the children; a
        child still undecided expands the next entry of its walk, which its
        new escape word names, a round later, so a decision takes at most n
        rounds. Returns the rows that go on.
        """
        idx = stop.nonzero()[0]
        if not idx.size:
            return live
        two_n, marker = 2 * self.n, 4 * self.n + 2
        oi = o[idx]
        halted = idx[(oi >= 4 * self.n) & (oi < marker)]
        lo, hi, used, ordoff = (live[row][halted] for row in (_LO, _HI, _USED, _ORD))
        self.pending.append((lo, hi, used, ordoff // two_n))
        self.credit(live[_ORD][idx[oi > marker]] // two_n, "step_limited")
        moved = idx[oi < 4 * self.n]
        sure = ((live[_ESCW][moved] >> o[moved]) & 1).astype(bool)
        self.credit(live[_ORD][moved[sure]] // two_n, "blank_escape")
        survivors = live.compress(~stop, axis=1)
        read, undecided = idx[oi == marker], moved[~sure]
        if not read.size + undecided.size:
            return survivors
        parents, slots = read, slot[read]
        self.tape.reshape(-1)[live[_HEAD][read]] = slots & 1  # undo the marker's write
        if undecided.size:
            parents = np.concatenate((read, undecided))
            slots = np.concatenate((slots, self.walk_slot(live, undecided)))
        children, src = self.spawn(live, parents, slots)
        # the children start from their parent's step, which the undecided
        # ones have taken, landing on fresh tape
        at = parents.take(src)
        o, slot, fresh = o.take(at), slot.take(at), src >= read.size
        if read.size:
            # the read children lead; they take this step from its start, in
            # the state that read the slot
            k = src.searchsorted(read.size)
            first = children[:, :k]
            first[_ST2] = (slots & -2).take(src[:k])
            o[:k], slot[:k], fresh[:k] = self.advance(first)
        rest = self.settle(children, o, slot, self.judge(children, o, fresh))
        return np.concatenate((survivors, rest), axis=1)

    def walk_slot(self, live, rows):
        """The first unread blank-read entry on the walk of each of live's
        rows from its state: the field of its escape word for that state
        (_ESC), which spawn keeps current, as it redoes the word whenever a
        blank-read entry changes."""
        return (live[_ESCW].take(rows) >> 16 + 2 * live[_ST2].take(rows)) & 15

    def spawn(self, live, parents, slots):
        """The children of parent rows, alike but for its slot, which takes each code.

        A family row has a child for every code, whose weights follow from
        its parent's by one division each; those that cannot halt (no-halt
        machines equal to machines) are counted to no_halt_rule at once. A
        row of members has a child for each code its members hold there
        (_Members.split), weighing its segment; a child of one member takes
        that member's codes whole, so it has no unread entry left. A child
        has run exactly as its parent, so it keeps the parent's snapshot and
        excursion, and its escape word unless the slot is read on the blank
        or it has one member, when it takes one gather (_escape_words).
        Returns the children, and each one's index into parents.
        """
        n, b = self.n, 4 * self.n + 2
        rows = live[_ORD].take(parents) // (2 * n)
        if self.members is None:
            # a child stands for 1 / b of its parent's machines and, if its
            # code is a step, for 1 / 4n of its no-halt machines, so the 4n
            # step children of a parent weigh the same. A child whose machines
            # all lack a halting entry cannot halt; where the step children
            # are such, the parent has only its two halt children, and the
            # step children's machines go to no_halt_rule at once
            machines, no_halt = (self.weights.take(rows, axis=0) // (b, 4 * n)).T
            full = machines != no_halt
            self.table.census.no_halt_rule += len(self.images) * 4 * n * int(machines[~full].sum())
            count = np.where(full, b, 2)
            src = np.arange(parents.size).repeat(count)
            # the codes of a parent's children, 0 .. b - 1 or 4n and 4n + 1
            codes = np.arange(src.size) - (count.cumsum() - count - 4 * n * ~full).repeat(count)
            weights = np.empty((src.size, 2), np.int64)
            weights[:, 0] = machines.take(src)
            weights[:, 1] = np.where(codes < 4 * n, no_halt.take(src), 0)
        else:
            src, codes, seg = self.members.split(rows, slots)
            weights = np.zeros((src.size, 2), np.int64)
            weights[:, 0] = seg[:, 1] - seg[:, 0]
        rep = rows.take(src)
        slot = slots.take(src)
        digits = self.ords.take(rep, axis=0)
        digits.reshape(-1)[np.arange(0, digits.size, 2 * n) + slot] = codes
        # the escape word depends only on the blank-read entries
        redo = slot % 2 == self.blank
        if self.members is not None:
            # a child of one member is that machine: it has no unread entry
            single = weights[:, 0] == 1
            digits[single] = self.members.codes.take(seg[single, 0], axis=0)
            redo |= single
        children = live.take(parents.take(src), axis=1)
        # the children take the next rows, self.rows .. end - 1
        start, end = self.rows, self.rows + src.size
        self.tape = _with_room(self.tape, start, src.size, self.blank)
        self.ords = _with_room(self.ords, start, src.size, 0)
        self.weights = _with_room(self.weights, start, src.size, 0)
        if self.members is not None:
            self.members.seg = _with_room(self.members.seg, start, src.size, 0)
            self.members.seg[start:end] = seg
        self.rows = end
        self.tape[start:end] = self.tape.take(rep, axis=0)
        self.ords[start:end] = digits
        self.weights[start:end] = weights
        new = np.arange(start, end)
        self.move(children, (new - rep) * self.tape.shape[1])
        children[_ORD] = new * (2 * n)
        if redo.any():
            children[_ESCW][redo] = _escape_words(digits[redo], n, self.blank)
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
        tape[:, pad:pad + old] = self.tape.take(rows, axis=0)
        self.tape, self.ords, self.rows = tape, self.ords.take(rows, axis=0), rows.size
        self.weights = self.weights.take(rows, axis=0)
        if self.members is not None:
            self.members.seg = self.members.seg.take(rows, axis=0)
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


def _second_slot(top: int, n: int, blank: int) -> int:
    """The slot a run on blank reads at step 2, after its top code top, the
    (1,b) entry, at step 1: (q,b) when top steps to state q, on the blank
    cell it lands on. That is (1,b) itself when q = 1, and for a halt,
    which reads no second entry."""
    return 2 * (top % n) + blank if top < 4 * n else blank


def _member_rows(codes: np.ndarray, blank: int):
    """The first rows of a pass over members on blank, their weights and the members.

    Every run reads its (1,b) entry at step 1 and, when that code steps to
    a state q != 1, its (q,b) entry at step 2 (_second_slot). So each code
    d of slot b that the members hold is one row, or, if d steps to q != 1,
    one row per code of (q,b) that they hold with d; a row fixes those
    slots, leaves every other entry unread and stands for the members that
    hold its codes, in index order. On blank 0 the (1,0) entry is the top
    digit, which index order already sorts; on blank 1 one stable sort of
    the (1,1) column orders a copy of codes. Each code's segment is a run
    of that column, and a segment whose code steps to q != 1 is reordered
    in place by one stable sort of its (q,b) column, whose bincount gives
    the rows' segments; so blank 1 takes its copy before blank 0's rows
    are built. A row of one member takes that member's codes whole, as a
    child of one member does (_Pass.spawn).
    """
    n = codes.shape[1] // 2
    if blank:
        codes = codes[np.argsort(codes[:, blank], kind="stable")]
    items = codes.view(f"V{2 * n}")[:, 0]
    column = codes[:, blank]
    firsts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    bounds = np.append(firsts, column.size).tolist()
    rows = []  # (the slot read at step 2, first member) of each row
    for d, start, end in zip(column[firsts].tolist(), bounds[:-1], bounds[1:]):
        slot = _second_slot(d, n, blank)  # b again for a halt or a step to state 1
        second = codes[start:end, slot]
        if slot != blank:
            items[start:end] = items[start:end].take(np.argsort(second, kind="stable"))
        held = np.bincount(second)
        rows += [(slot, lo) for lo in (start + np.cumsum(held) - held)[held > 0].tolist()]
    slot, first = np.array(rows, np.intp).T
    seg = np.stack((first, np.append(first[1:], codes.shape[0])), axis=1)
    ords = np.full((first.size, 2 * n), 4 * n + 2, np.uint8)
    # the codes its first member holds there, d again where the slot is b
    ords[:, blank] = codes[first, blank]
    ords[np.arange(first.size), slot] = codes[first, slot]
    weights = np.zeros((first.size, 2), np.int64)
    weights[:, 0] = seg[:, 1] - seg[:, 0]
    single = weights[:, 0] == 1  # a row of one member is that machine
    ords[single] = codes[first[single]]
    return ords, weights, _Members(codes, seg)


def _run_vector(spec: SpaceSpec, idx: np.ndarray, sink: FrequencyTable) -> None:
    """Run one batch of machine indices on every blank of spec.

    The batch is decoded _DECODE_CHUNK indices at a time, and only the
    codes of machines that can halt are kept (_decode), so the decode's
    temporaries do not grow with the batch; the others are counted to
    no_halt_rule up front. On each blank the kept machines are the members
    (_Members) of one row per code of the (1,b) entry they hold, or per
    pair of codes of (1,b) and the (q,b) entry read at step 2
    (_member_rows), which split as their runs read further entries, and
    the pass's table is merged into sink.
    """
    n = spec.n
    codes = np.concatenate([_decode(idx[i:i + _DECODE_CHUNK], n)
                            for i in range(0, idx.size, _DECODE_CHUNK)])
    count = codes.shape[0]
    # decoded once: blank 0's start rows and pass reorder these codes in
    # place, so blank 1 takes its sorted copy (_member_rows) before them
    starts = {blank: _member_rows(codes, blank) for blank in spec.blanks[::-1]} if count else {}
    del codes
    for blank in spec.blanks:
        sink.census.total_runs += idx.size - count
        sink.census.no_halt_rule += idx.size - count
        if count:
            ords, weights, members = starts.pop(blank)
            # an index set is not reduced by symmetry: its one image is the run itself
            sink.merge(_Pass(spec, ords, weights, blank, ((False, False),), members).run())


def _representative_digits(n: int):
    """The top digits whose (1,0) entry is a right-moving step to state 1
    or 2: n and n + 1 (write 0), 3n and 3n + 1 (write 1); n and 3n if n = 1."""
    return tuple(d for d in (*range(n, 2 * n), *range(3 * n, 4 * n)) if d % n < 2)


def _subtree_rows(n: int) -> np.ndarray:
    """The representatives as rows of action codes, unread entries as 4n + 2.

    Every run reads its top digit d, the (1,0) entry, at step 1. When d
    steps to a state q != 1, it reads (q,0), the blank-read entry of q, at
    step 2 (_second_slot), so that slot takes each of the 4n + 2 codes, one
    row each. Every other slot is unread.
    """
    b = 4 * n + 2
    rows = []
    for d in _representative_digits(n):
        row = np.full((1, 2 * n), b, np.uint8)
        row[0, 0] = d
        slot = _second_slot(d, n, 0)
        if slot:
            row = row.repeat(b, axis=0)
            row[:, slot] = np.arange(b)
        rows.append(row)
    return np.concatenate(rows)


def _family_groups(n: int):
    """The passes of run_space, in order: the subtree rows (_subtree_rows)
    as one pass in a space below _POOL_MIN_SIZE machines, one pass per row
    in the others. So (3,2) is one pass of 30 rows, and (4,2) 38 passes.
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


def _run_group(job) -> FrequencyTable:
    """The table of one pass (spec, rows) of run_space (_family_groups),
    the job that run_space runs for each pass at every worker count.

    The family rows' orbit representatives run on blank 0, and each run is
    credited to its mirror and complement images and to its namings
    (_namings). First-step halts are not counted here (_count_initial_halts).
    """
    spec, rows = job
    return _Pass(spec, rows, _weights(rows, spec.n), 0, _ORBIT_IMAGES[spec.blank_mode]).run()


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
    machines that can halt start as one row per code of the entries their
    runs read at steps 1 and 2; see the module docstring) or "scalar"
    (machine.simulate, one run at a time), the oracle the tests compare
    the vector engine against. spec's n is 1 .. 4, as for run_space
    (space_size). Indices that are not integers of [0, size) in increasing
    order raise ValidationError before either engine runs.
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
# (3,2): on (3,2), forking and warming cold children costs more than the work,
# and one pass per row is slower than one pass. The CHANGES.md entry that
# last re-measured _POOL_MIN_SIZE records the (3,2) `both` times of the
# three ways. A (4,2) row holds 18^6 or 18^7 machines, and the largest
# (4,2) pass peaks at 106,071 live rows, a bound tests assert.
_POOL_MIN_SIZE = 10 ** 9


def run_space(spec: SpaceSpec, workers: int = 1) -> FrequencyTable:
    """Enumerate the whole space described by spec into a FrequencyTable.

    The symmetry-reduced vector engine runs the space's passes
    (_family_groups), one job each (_run_group, 38 on (4,2)), in plan
    order, and merges each pass's table into the result. A plan of one
    pass, or a run with one worker, maps the jobs in the calling process.
    Otherwise a pool of min(workers, CPUs) processes reads the same jobs
    lazily, each process taking the next pass when it is free. No job
    splits a subtree row, so every worker count steps the same rows, and
    the result is byte-identical for every worker count. A result that
    does not count every run of the space raises ValidationError. spec's n
    is 1 .. 4, checked when spec was made (space_size).
    """
    require_int("workers", workers)
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    table = empty_table(spec, ((0, spec.size),))
    groups = _family_groups(spec.n)
    jobs = ((spec, rows) for rows in groups)
    if workers == 1 or len(groups) == 1:
        for part in map(_run_group, jobs):
            table.merge(part)
    else:
        import multiprocessing  # here, not at the top: only a pool needs it

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, os.cpu_count() or 1)) as pool:
            for part in pool.imap(_run_group, jobs, chunksize=1):
                table.merge(part)
    _count_initial_halts(spec, table)
    table.validate()
    if table.census.total_runs != spec.run_count:
        raise ValidationError(f"passes counted {table.census.total_runs} of {spec.run_count} runs")
    return table


def empty_table(spec: SpaceSpec, covers=()) -> FrequencyTable:
    """A table with no runs: the merge identity, and the sink a run fills."""
    return FrequencyTable(spec, {}, {}, {}, Census(), covers)
