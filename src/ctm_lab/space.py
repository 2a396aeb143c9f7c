"""Exhaustive enumeration of a rule space into a frequency table.

run_space accounts for every run of every machine index of (n, 2) on the
blanks of its spec, through two sound non-halting proofs (no halting rule,
blank-runway escape) and the step cutoff, and aggregates halting outputs
into per-string counts. Only halting outputs are counted, so the proofs
decide nothing but the census bucket of a non-halting run; no
configuration-cycle check runs here (it lives in machine.simulate for
single-machine inspection).

run_space always runs the vectorized numpy engine, which steps whole index
batches in lockstep. The scalar engine, built directly on machine.simulate,
runs every machine on every blank; run_index_array(..., engine="scalar")
reaches it as the independent oracle for the fast path. Every run fills a
FrequencyTable through FrequencyTable.add.

run_space's shards step only orbit representatives: machines
whose (1,0) entry is a right-moving step, 2n of the 4n+2 top digits, run
on blank 0. Reflecting the directions of a machine reverses its blank-0
run; complementing its symbols (and swapping its read-0/read-1 entries)
turns its blank-0 run into the complemented blank-1 run of the image. So
each representative run also stands for its mirror's blank-0 run and, in
both mode, for the two complements' blank-1 runs, each credited with the
image string and the image machine's index as producer. Runs whose first
step reads a halting entry print one symbol and are counted in closed form.
A shard therefore aggregates the orbits whose representative index lies in
its range, plus the first-step halts of that range; whole-space results are
unchanged. run_index_array runs arbitrary index sets as they are, every
machine on every blank, one batch of indices at a time.

The vector engine decodes a batch once and shares it between its passes.
The blank-runway closure depends only on a machine's n blank-read entries,
so it runs once per distinct entry tuple in the batch and is gathered back
as per-machine escape bits. The step loop then touches only live machines:
state, head, visited bounds and used-rule mask sit in contiguous arrays
that one keep-mask filters whenever a machine halts or is proved to
escape, and three lookup tables over the action codes give the written
symbol, head delta and next state. The tape starts narrow and widens as
the step count grows; each copy keeps only live rows, and halted rows are
packed into (length, value) pairs before the tape is replaced.

Determinism contract: the resulting FrequencyTable depends only on the
SpaceSpec, never on shard boundaries, worker count, or scheduling. Shards
are disjoint contiguous index ranges; merging is an associative fold.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._canon import (
    canonical_int, canonical_key, decode_utf8, meta_dumps, read_file, read_header, read_records,
)
from .errors import ParseError, ValidationError
from .machine import NO_HALT_RULE, Halted, NonHaltingProved, RunConfig, decode_machine, simulate

BLANK_ZERO = "zero"
BLANK_BOTH = "both"
BLANK_MODES = (BLANK_ZERO, BLANK_BOTH)

_MAX_STATES = 6  # keeps indices inside uint64 for the vector engine
_BATCH = 1 << 19

_FREQ_MAGIC = "# ctm-freq v1"
_FREQ_COLUMNS = "string,count,min_used_rules,first_producer"

# Format v1 records which non-halting proofs a run applied and how many runs
# the cycle check caught. Every run applies the same proofs, so these keys
# are constant: files keep writing them and must carry exactly these values.
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
    if n < 1:
        raise ValidationError(f"state count must be >= 1, got {n}")
    if n > _MAX_STATES:
        raise ValidationError(
            f"space size for n={n} exceeds the supported enumeration range (n <= {_MAX_STATES})"
        )
    return (4 * n + 2) ** (2 * n)


def default_max_steps(n: int) -> int:
    """Default step cutoff, never below the busy-beaver step bound S(n).

    n <= 3 keeps the cutoffs validated by the 10x re-run check on full
    spaces (10 and 30; S(2) = 6, S(3) = 21). For n = 4 it is S(4) = 107
    (Brady, Math. Comp. 40, 1983): every halting (4,2) machine stops
    within 107 steps, so the cutoff loses no halting run.
    """
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
    """Aggregated halting outputs of a space run.

    counts maps each produced binary string to how many runs produced it;
    min_used_rules keeps the smallest number of distinct transition entries
    any producer exercised, and first_producer the smallest producing
    machine index (blank-0 runs take precedence over blank-1 at equal
    index). covers lists the contiguous index ranges the table aggregates,
    or None for ad-hoc index sets such as strided samples. A run_space
    shard aggregates the symmetry orbits whose representative index lies in
    its ranges (see the module docstring), so its producers may lie outside
    them; merged over the whole space the result is the same.
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
        meta = {
            "census": self.census.as_dict(),
            "covers": None if self.covers is None else [list(r) for r in self.covers],
            "spec": self.spec.as_dict(),
        }
        lines = [_FREQ_MAGIC, "# meta " + meta_dumps(meta), _FREQ_COLUMNS]
        for s, count, used, first in self.records():
            lines.append(f"{s},{count},{used},{first}")
        return ("\n".join(lines) + "\n").encode("utf-8")


def save_frequency_table(table: FrequencyTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(table.canonical_bytes())


def load_frequency_table(path) -> FrequencyTable:
    """Read a .freq file; counts must be positive, min_used_rules at least 1
    and first_producer an index of the space. Errors name the file."""
    return read_file(path, _loads_frequency_table)


def _covers_from_meta(covers, size: int):
    """None, or ordered, disjoint [lo, hi] ranges with 0 <= lo < hi <= size."""
    if covers is None:
        return None
    if not isinstance(covers, list):
        raise ValidationError(f"covers is not a list: {covers!r}")
    prev = 0
    for r in covers:
        if not (isinstance(r, list) and len(r) == 2 and all(type(v) is int for v in r)
                and prev <= r[0] < r[1] <= size):
            raise ValidationError(f"covers has a bad range {r!r}")
        prev = r[1]
    return tuple(tuple(r) for r in covers)


def _freq_meta(meta: dict):
    spec = SpaceSpec.from_dict(meta.get("spec"))
    census = Census.from_dict(meta.get("census"))
    return spec, census, _covers_from_meta(meta.get("covers"), spec.size)


def _loads_frequency_table(data: bytes) -> FrequencyTable:
    lines = decode_utf8(data).splitlines()
    spec, census, covers = read_header(lines, _FREQ_MAGIC, _FREQ_COLUMNS, "ctm-freq", _freq_meta)
    counts, used, first = {}, {}, {}
    parsers = (canonical_int,) * 3
    for lineno, s, (count, min_used, producer) in read_records(lines, parsers):
        if count <= 0:
            raise ParseError(f"count must be positive, got {count}", line=lineno)
        if min_used < 1:
            raise ParseError(f"min_used_rules must be >= 1, got {min_used}", line=lineno)
        if not 0 <= producer < spec.size:
            raise ParseError(f"first_producer {producer} is not an index of the space",
                             line=lineno)
        counts[s], used[s], first[s] = count, min_used, producer
    table = FrequencyTable(
        spec=spec,
        counts=counts,
        min_used_rules=used,
        first_producer=first,
        census=census,
        covers=covers,
    )
    table.validate()
    return table


@dataclass(frozen=True)
class ShardPlan:
    """Disjoint, ordered, exhaustive contiguous index ranges."""

    shards: tuple

    def __post_init__(self):
        prev = None
        for lo, hi in self.shards:
            if lo >= hi:
                raise ValidationError(f"empty shard range ({lo}, {hi})")
            if prev is not None and lo != prev:
                raise ValidationError("shard ranges must be contiguous and ordered")
            prev = hi


def representative_shard_plan(spec: SpaceSpec, shard_count: int) -> ShardPlan:
    """Shards of [0, size) that hold equal shares of the orbit representatives.

    The vector engine steps only the representatives (_run_shard), which
    fill two of the 4n+2 top-digit blocks, so an even cut of the index
    range would leave some shards with nothing to step.
    """
    if shard_count < 1:
        raise ValidationError("shard_count must be >= 1")
    ranges = _representative_ranges(spec.n, 0, spec.size)
    total = sum(hi - lo for lo, hi in ranges)
    shard_count = min(shard_count, total)

    def index_of(q):  # the q-th representative, counting from 0
        for lo, hi in ranges:
            if q < hi - lo:
                return lo + q
            q -= hi - lo

    inner = [index_of(total * i // shard_count) for i in range(1, shard_count)]
    bounds = [0, *inner, spec.size]
    return ShardPlan(tuple(zip(bounds, bounds[1:])))


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
    two codes from 4n up halt after writing, so their delta is 0.
    """
    codes = np.arange(4 * n + 2)
    step = codes < 4 * n
    write = np.where(step, codes // (2 * n), codes - 4 * n).astype(np.uint8)
    delta = np.where(step, 2 * (codes % (2 * n) // n) - 1, 0).astype(np.intp)
    next2 = np.where(step, 2 * (codes % n), 0).astype(np.intp)
    return write, delta, next2


def _image_indices(digits: np.ndarray, n: int, reverse: bool, complement: bool) -> np.ndarray:
    """Machine indices of the images of decoded machines (rows of 2n action codes).

    reverse applies reflect_directions, complement applies complement_symbols,
    both through one lookup table over the 4n + 2 action codes. A step code
    is write * 2n + move * n + (next - 1): reflecting flips the move digit,
    complementing flips the write digit and swaps the read-0 and read-1
    entry of every state. Halt codes 4n + w keep their place under
    reflection and swap under complement.
    """
    codes = np.arange(4 * n + 2)
    write, rest = codes // (2 * n), codes % (2 * n)
    if reverse:
        rest = (rest + n) % (2 * n)
    if complement:
        write = 1 - write
    halts = 8 * n + 1 - codes if complement else codes
    image = np.where(codes < 4 * n, write * 2 * n + rest, halts)
    index = np.zeros(digits.shape[0], np.int64)
    for slot in range(2 * n):
        index = index * (4 * n + 2) + image[digits[:, slot ^ complement]]
    return index


# The runs an orbit representative R (a machine whose (1,0) entry is a
# right-moving step) stands for, as (reverse, complement): R on blank 0; its
# mirror on blank 0, which prints the reversed output; and in both mode the
# complements of these two on blank 1, which print the complemented outputs.
_IDENTITY = ((False, False),)
_ORBIT_IMAGES = {
    BLANK_ZERO: ((False, False), (True, False)),
    BLANK_BOTH: ((False, False), (True, False), (False, True), (True, True)),
}

_COMPLEMENT = str.maketrans("01", "10")


def _image_string(s: str, reverse: bool, complement: bool) -> str:
    if reverse:
        s = s[::-1]
    return s.translate(_COMPLEMENT) if complement else s


def _escape_bits(ords: np.ndarray, n: int, blank: int) -> np.ndarray:
    """Per machine, bit o is set when step code o, landing on fresh tape, proves escape.

    The blank-runway closure depends only on the n blank-read entries, so
    it runs once per distinct key and is gathered back to the machines.
    """
    base = 4 * n + 2
    key = np.zeros(ords.shape[0], np.int64)
    for j in range(n):
        key = key * base + ords[:, 2 * j + blank]
    # the keys decode back to their digits, so no representative row (and
    # no stable sort for return_index) is needed
    keys, inverse = np.unique(key, return_inverse=True)
    b_ord = np.empty((keys.size, n), np.int64)
    for j in range(n - 1, -1, -1):
        keys, b_ord[:, j] = np.divmod(keys, base)
    b_step = b_ord < 4 * n
    b_move = (b_ord % (2 * n)) // n
    b_next = b_ord % n
    esc = []
    for d in (0, 1):
        e = b_step & (b_move == d)
        # pass k checks a walk of k + 1 states; a walk has at most n
        # distinct states, so n - 1 passes make the flag exact
        for _ in range(n - 1):
            e = e & np.take_along_axis(e, b_next, axis=1)
        esc.append(e)
    bits = np.zeros(b_ord.shape[0], np.int64)
    for o in range(4 * n):
        bits |= esc[o % (2 * n) // n][:, o % n].astype(np.int64) << o
    return bits[inverse.ravel()]


def _copy_tape(tape, width, new_width, blank, head, lo, hi):
    """Copy the live machines' tape rows, centred in rows new_width wide."""
    rows = lo // width
    pad = (new_width - width) // 2
    new = np.full((rows.size, new_width), blank, np.uint8)
    new[:, pad:pad + width] = tape.reshape(-1, width)[rows]
    shift = np.arange(rows.size) * new_width + pad - rows * width
    return new.ravel(), head + shift, lo + shift, hi + shift


class _Outputs:
    """Halted runs of one pass: frozen tape spans, packed before the tape moves.

    Every halted row is credited once per image in images, (reverse,
    complement) pairs: the image string with the image machine's index as
    its producer. The image indices are computed for halted rows only.
    """

    def __init__(self, sink, ords, images):
        self.sink = sink
        self.ords = ords
        self.images = images
        self.pending = []  # (lo, hi, used, row) spans into the current tape
        self.packed = []  # (length, value, used_rules, producers), one producer row per image

    def pack(self, tape) -> None:
        if not self.pending:
            return
        lo, hi, used, row = (np.concatenate(a) for a in zip(*self.pending))
        self.pending = []
        n = self.ords.shape[1] // 2
        digits = self.ords[row]
        producers = np.stack([_image_indices(digits, n, *image) for image in self.images])
        lengths = hi - lo + 1
        used_rules = np.bitwise_count(used).astype(np.int64)
        narrow = lengths <= 64
        if not narrow.all():
            # Rare wide outputs (only reachable with very large cutoffs): build
            # the strings row by row and leave the packed fast path to the rest.
            for r in np.nonzero(~narrow)[0]:
                s = "".join("1" if c else "0" for c in tape[lo[r]:hi[r] + 1])
                for image, producer in zip(self.images, producers[:, r]):
                    self.sink.add(_image_string(s, *image), 1, int(used_rules[r]), int(producer))
            lo, hi, lengths = lo[narrow], hi[narrow], lengths[narrow]
            used_rules, producers = used_rules[narrow], producers[:, narrow]
        value = np.zeros(lo.size, np.uint64)
        for j in range(int(lengths.max(initial=0))):
            bit = tape[np.minimum(lo + j, hi)].astype(np.uint64)
            value = np.where(j < lengths, (value << np.uint64(1)) | bit, value)
        self.packed.append((lengths, value, used_rules, producers))

    def emit(self) -> None:
        if not self.packed:
            return
        lengths, value, used_rules, producers = (
            np.concatenate(a, axis=-1) for a in zip(*self.packed)
        )
        if lengths.size == 0:
            return
        order = np.lexsort((value, lengths))
        s_len = lengths[order]
        s_val = value[order]
        boundary = np.empty(order.size, bool)
        boundary[0] = True
        boundary[1:] = (s_val[1:] != s_val[:-1]) | (s_len[1:] != s_len[:-1])
        starts = np.nonzero(boundary)[0]
        group_counts = np.diff(np.append(starts, order.size)).tolist()
        group_used = np.minimum.reduceat(used_rules[order], starts).tolist()
        group_prod = [np.minimum.reduceat(p[order], starts).tolist() for p in producers]
        for k, start in enumerate(starts.tolist()):
            s = np.binary_repr(int(s_val[start]), width=int(s_len[start]))
            for image, prod in zip(self.images, group_prod):
                self.sink.add(_image_string(s, *image), group_counts[k], group_used[k], prod[k])


def _vector_pass(
    spec: SpaceSpec, ords: np.ndarray, blank: int, images, sink: FrequencyTable
) -> None:
    """Step the machines of one batch that have a halting rule, for one blank.

    Each run counts once per image (see _Outputs) in the census as well.
    Only live machines are stepped, in contiguous arrays that one keep-mask
    filters on the steps where some machine halts or is proved to escape.
    The tape starts 2 * min(16, max_steps) + 1 cells wide and doubles its
    half-width whenever the step count reaches it; it is also copied, live
    rows only, when the live set falls below half its rows.
    """
    n = spec.n
    two_n = 2 * n
    halt_floor = 4 * n
    max_steps = spec.max_steps
    mult = len(images)
    write_of, delta_of, next2_of = _action_tables(n)
    pow2 = (np.uint16(1) << np.arange(two_n)).astype(np.uint16)
    ords_flat = ords.ravel()
    outputs = _Outputs(sink, ords, images)

    half = min(16, max_steps)
    width = 2 * half + 1
    count = ords.shape[0]
    tape = np.full(count * width, blank, np.uint8)
    tape_rows = count
    head = np.arange(count, dtype=np.intp) * width + half  # flat index into tape
    lo = head.copy()
    hi = head.copy()
    st2 = np.zeros(count, np.intp)  # 2 * (state - 1)
    used = np.zeros(count, np.uint16)
    ordoff = np.arange(count, dtype=np.intp) * two_n
    esc = _escape_bits(ords, n, blank)

    for step in range(1, max_steps + 1):
        slot = st2 + tape[head]
        used |= pow2[slot]
        o = ords_flat[ordoff + slot].astype(np.intp)
        tape[head] = write_of[o]
        head += delta_of[o]
        st2 = next2_of[o]
        fresh = (head > hi) | (head < lo)
        np.maximum(hi, head, out=hi)
        np.minimum(lo, head, out=lo)
        halting = o >= halt_floor
        stop = halting | (fresh & ((esc >> o) & 1).astype(bool))
        if stop.any():
            h = np.nonzero(halting)[0]
            outputs.pending.append((lo[h], hi[h], used[h], ordoff[h] // two_n))
            sink.census.halted += mult * h.size
            sink.census.blank_escape += mult * (int(np.count_nonzero(stop)) - h.size)
            keep = ~stop
            head, lo, hi, st2, used, ordoff, esc = (
                a[keep] for a in (head, lo, hi, st2, used, ordoff, esc)
            )
            if head.size == 0:
                break
        grow = step == half < max_steps
        if grow or head.size < tape_rows // 2:
            outputs.pack(tape)
            if grow:
                half = min(2 * half, max_steps)
            tape, head, lo, hi = _copy_tape(tape, width, 2 * half + 1, blank, head, lo, hi)
            width, tape_rows = 2 * half + 1, head.size

    sink.census.step_limited += mult * head.size
    outputs.pack(tape)
    outputs.emit()


def _run_vector(spec: SpaceSpec, idx: np.ndarray, sink: FrequencyTable, passes) -> None:
    """Run one batch of machine indices through its (blank, images) passes."""
    n = spec.n
    base = 4 * n + 2
    rem = idx.astype(np.uint64, copy=True)
    ords = np.empty((idx.size, 2 * n), np.uint8)
    for slot in range(2 * n - 1, -1, -1):
        ords[:, slot] = (rem % base).astype(np.uint8)
        rem //= base
    # decoded once and shared by every pass
    has_halt = (ords >= 4 * n).any(axis=1)
    no_halt = int(idx.size - np.count_nonzero(has_halt))
    ords = ords[has_halt]
    for blank, images in passes:
        sink.census.total_runs += len(images) * idx.size
        sink.census.no_halt_rule += len(images) * no_halt
        if ords.size:
            _vector_pass(spec, ords, blank, images, sink)


def _representative_ranges(n: int, lo: int, hi: int):
    """The parts of [lo, hi) whose (1,0) entry is a right-moving step.

    Those are the top digits n..2n-1 (write 0) and 3n..4n-1 (write 1).
    """
    top = (4 * n + 2) ** (2 * n - 1)
    ranges = []
    for a, b in ((n * top, 2 * n * top), (3 * n * top, 4 * n * top)):
        a, b = max(a, lo), min(b, hi)
        if a < b:
            ranges.append((a, b))
    return ranges


def _count_initial_halts(spec: SpaceSpec, lo: int, hi: int, sink: FrequencyTable) -> None:
    """Runs of [lo, hi) that halt on their first step, counted in closed form.

    On blank b such a machine's (1,b) entry is a halt writing w: the run
    prints str(w) and uses one rule. Slot b is a digit of weight
    place = (4n+2)^(2n-1-b), so the indices with digit d there form
    blocks [k * period + d * place, ... + place) with period = place * (4n+2).
    """
    n = spec.n
    for blank in spec.blanks:
        place = (4 * n + 2) ** (2 * n - 1 - blank)
        period = place * (4 * n + 2)
        for w in (0, 1):
            offset = (4 * n + w) * place

            def below(x):
                return x // period * place + min(max(x % period - offset, 0), place)

            count = below(hi) - below(lo)
            if count:
                first = lo // period * period + offset
                if first + place <= lo:
                    first += period
                sink.census.total_runs += count
                sink.census.halted += count
                sink.add(str(w), count, 1, max(first, lo))


def _run_shard(job) -> FrequencyTable:
    """One shard (spec, lo, hi) of run_space, with the vector engine.

    It runs only the orbit representatives in [lo, hi), on blank 0, one
    batch of indices at a time (a (4,2) shard spans billions of them),
    credits each run to its mirror and complement images, and counts the
    first-step halts of [lo, hi) in closed form. So the table aggregates
    the orbits whose representative lies in [lo, hi), and the merged
    tables of a whole-space plan equal the scalar engine's whole-space run.
    """
    spec, lo, hi = job
    sink = empty_table(spec, ((lo, hi),))
    passes = ((0, _ORBIT_IMAGES[spec.blank_mode]),)
    for a, b in _representative_ranges(spec.n, lo, hi):
        for start in range(a, b, _BATCH):
            idx = np.arange(start, min(start + _BATCH, b), dtype=np.uint64)
            _run_vector(spec, idx, sink, passes)
    _count_initial_halts(spec, lo, hi, sink)
    return sink


def run_index_array(spec: SpaceSpec, indices, engine: str = "vector") -> FrequencyTable:
    """Run an arbitrary (sorted, duplicate-free) index set; covers stays None.

    Every machine runs on every blank of spec, without the symmetry
    reduction. engine is "vector" (the array in batches) or "scalar"
    (machine.simulate, one run at a time), the oracle the tests compare
    the vector engine against.
    """
    indices = np.asarray(indices, np.uint64)
    sink = empty_table(spec, covers=None)
    if engine == "scalar":
        _run_scalar(spec, indices, sink)
    elif engine == "vector":
        passes = tuple((blank, _IDENTITY) for blank in spec.blanks)
        for start in range(0, indices.size, _BATCH):
            _run_vector(spec, indices[start:start + _BATCH], sink, passes)
    else:
        raise ValidationError(f"unknown engine {engine!r}")
    sink.validate()
    return sink


def run_space(spec: SpaceSpec, plan: ShardPlan = None, workers: int = 1) -> FrequencyTable:
    """Enumerate the whole space described by spec into a FrequencyTable.

    Every shard runs the symmetry-reduced vector engine (_run_shard). The
    result is byte-identical for every plan and worker count; shards only
    bound the unit of parallel work (default: four per worker, cut at
    equal shares of the orbit representatives, the machines the shards
    step). Partial tables are merged in shard order.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if plan is None:
        plan = representative_shard_plan(spec, workers * 4)
    if plan.shards[0][0] != 0 or plan.shards[-1][1] != spec.size:
        raise ValidationError("shard plan must cover the full index range")
    jobs = [(spec, lo, hi) for lo, hi in plan.shards]
    if workers == 1 or len(jobs) == 1:
        parts = [_run_shard(job) for job in jobs]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            parts = pool.map(_run_shard, jobs, chunksize=1)
    table = merge_shards(parts)
    table.validate()
    return table


def run_strided_sample(spec: SpaceSpec, stride: int, engine: str = "vector") -> FrequencyTable:
    """Deterministic sample: every stride-th index starting at 0."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    return run_index_array(spec, np.arange(0, spec.size, stride, dtype=np.uint64), engine)


def _normalize_covers(ranges):
    merged = []
    for lo, hi in sorted(ranges):
        if merged and lo < merged[-1][1]:
            raise ValidationError("shard index ranges overlap")
        if merged and lo == merged[-1][1]:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def merge_shards(parts) -> FrequencyTable:
    """Associative, order-insensitive merge of disjoint partial tables."""
    parts = list(parts)
    if not parts:
        raise ValidationError("nothing to merge")
    spec = parts[0].spec
    ranges = []
    for part in parts:
        if part.spec != spec:
            raise ValidationError("cannot merge tables from different space specs")
        if part.covers is None:
            raise ValidationError("cannot merge ad-hoc index samples")
        ranges.extend(part.covers)
    table = empty_table(spec, _normalize_covers(ranges))
    for part in parts:
        table.census.add(part.census)
        for s, count in part.counts.items():
            table.add(s, count, part.min_used_rules[s], part.first_producer[s])
    return table


def empty_table(spec: SpaceSpec, covers=()) -> FrequencyTable:
    """A table with no runs: the merge identity, and the sink a run fills."""
    return FrequencyTable(spec, {}, {}, {}, Census(), covers)
