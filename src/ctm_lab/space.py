"""Exhaustive enumeration of a rule space into a frequency table.

run_space drives every machine index of (n, 2) through two sound
non-halting proofs (no halting rule, blank-runway escape) and the step
cutoff, then aggregates halting outputs into per-string counts. Only
halting outputs are counted, so the proofs decide nothing but the census
bucket of a non-halting run; no configuration-cycle check runs here (it
lives in machine.simulate for single-machine inspection).

Two interchangeable engines exist: the default vectorized numpy engine,
which steps whole index batches in lockstep, and a scalar one built
directly on machine.simulate. They classify every run identically, so
their tables are byte-equal; the scalar engine is the independent oracle
for the fast path.

Determinism contract: the resulting FrequencyTable depends only on the
SpaceSpec, never on shard boundaries, worker count, or scheduling. Shards
are disjoint contiguous index ranges; merging is an associative fold.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass

import numpy as np

from ._canon import canonical_key, meta_dumps, read_header
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


def _without_constant_keys(d: dict, kind: str) -> dict:
    constant = _V1_CONSTANT_KEYS[kind]
    for key, value in constant.items():
        if d.get(key) != value:
            raise ValidationError(f"{kind} {key} must be {value!r}, got {d.get(key)!r}")
    return {k: v for k, v in d.items() if k not in constant}


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
    """Step cutoffs validated by the 10x re-run check on full spaces."""
    if n <= 2:
        return 10
    if n == 3:
        return 30
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
        return SpaceSpec(**_without_constant_keys(d, "spec"))


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
        return Census(**_without_constant_keys(d, "census"))


@dataclass
class FrequencyTable:
    """Aggregated halting outputs of a space run.

    counts maps each produced binary string to how many runs produced it;
    min_used_rules keeps the smallest number of distinct transition entries
    any producer exercised, and first_producer the smallest producing
    machine index (blank-0 runs take precedence over blank-1 at equal
    index). covers lists the contiguous index ranges the table aggregates,
    or None for ad-hoc index sets such as strided samples.
    """

    spec: SpaceSpec
    counts: dict
    min_used_rules: dict
    first_producer: dict
    census: Census
    covers: tuple = ()

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
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    lines = text.splitlines()
    meta = read_header(lines, _FREQ_MAGIC, _FREQ_COLUMNS, "ctm-freq")
    counts, used, first = {}, {}, {}
    for lineno, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError("expected 4 fields", line=lineno)
        s = parts[0]
        if s in counts:
            raise ParseError(f"duplicate string {s!r}", line=lineno)
        try:
            counts[s] = int(parts[1])
            used[s] = int(parts[2])
            first[s] = int(parts[3])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    covers = meta.get("covers")
    table = FrequencyTable(
        spec=SpaceSpec.from_dict(meta["spec"]),
        counts=counts,
        min_used_rules=used,
        first_producer=first,
        census=Census.from_dict(meta["census"]),
        covers=None if covers is None else tuple(tuple(r) for r in covers),
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


def make_shard_plan(total: int, shard_count: int) -> ShardPlan:
    if shard_count < 1:
        raise ValidationError("shard_count must be >= 1")
    shard_count = min(shard_count, total)
    bounds = [total * i // shard_count for i in range(shard_count + 1)]
    return ShardPlan(tuple((bounds[i], bounds[i + 1]) for i in range(shard_count)))


# ---------------------------------------------------------------------------
# Result accumulation shared by both engines


class _Sink:
    def __init__(self, spec):
        self.spec = spec
        self.counts = {}
        self.min_used = {}
        self.first = {}
        self.census = Census()

    def add_string(self, s, count, used, first):
        if s in self.counts:
            self.counts[s] += count
            if used < self.min_used[s]:
                self.min_used[s] = used
            if first < self.first[s]:
                self.first[s] = first
        else:
            self.counts[s] = count
            self.min_used[s] = used
            self.first[s] = first

    def table(self, covers):
        return FrequencyTable(
            spec=self.spec,
            counts=self.counts,
            min_used_rules=self.min_used,
            first_producer=self.first,
            census=self.census,
            covers=covers,
        )


# ---------------------------------------------------------------------------
# Scalar engine (reference implementation)


def _run_scalar(spec: SpaceSpec, indices, sink: _Sink) -> None:
    for blank in spec.blanks:
        cfg = spec.run_config(blank)
        census = sink.census
        for index in indices:
            outcome = simulate(decode_machine(int(index), spec.n), cfg)
            census.total_runs += 1
            if isinstance(outcome, Halted):
                census.halted += 1
                sink.add_string(outcome.output, 1, outcome.used_rules, int(index))
            elif isinstance(outcome, NonHaltingProved):
                if outcome.reason == NO_HALT_RULE:
                    census.no_halt_rule += 1
                else:
                    census.blank_escape += 1
            else:
                census.step_limited += 1


# ---------------------------------------------------------------------------
# Vectorized engine


def _vector_pass(spec: SpaceSpec, idx: np.ndarray, blank: int, sink: _Sink) -> None:
    """Step one batch of machine indices in lockstep for one blank symbol."""
    n = spec.n
    base = 4 * n + 2
    two_n = 2 * n
    halt_floor = 4 * n
    m = idx.size
    sink.census.total_runs += m

    rem = idx.astype(np.uint64, copy=True)
    ords = np.empty((m, two_n), np.uint8)
    for slot in range(two_n - 1, -1, -1):
        ords[:, slot] = (rem % base).astype(np.uint8)
        rem //= base

    has_halt = (ords >= halt_floor).any(axis=1)
    sink.census.no_halt_rule += int(m - has_halt.sum())
    live = np.nonzero(has_halt)[0]
    if live.size == 0:
        return
    ords = ords[live]
    idx = idx[live]
    count = idx.size

    blank_slots = 2 * np.arange(n) + blank
    b_ord = ords[:, blank_slots]
    b_step = b_ord < halt_floor
    b_move = (b_ord % two_n) // n
    b_next = (b_ord % n).astype(np.int64)
    esc = []
    for d in (0, 1):
        e = b_step & (b_move == d)
        # each pass extends the checked walk by one state; n passes cover
        # a full pigeonhole cycle, so the flag is exact
        for _ in range(n):
            e = e & np.take_along_axis(e, b_next, axis=1)
        esc.append(e)

    width = 2 * spec.max_steps + 1
    center = spec.max_steps
    tape = np.full((count, width), blank, np.uint8)
    state0 = np.zeros(count, np.int16)
    pos = np.full(count, center, np.int32)
    lo = pos.copy()
    hi = pos.copy()
    used = np.zeros(count, np.uint16)
    outcome = np.zeros(count, np.uint8)  # 0 running, 1 halted, 2 escape proved
    pow2 = (np.uint16(1) << np.arange(two_n)).astype(np.uint16)

    alive = np.arange(count)
    for _ in range(spec.max_steps):
        p = pos[alive]
        slot = 2 * state0[alive] + tape[alive, p]
        used[alive] |= pow2[slot]
        o = ords[alive, slot]
        halting = o >= halt_floor
        tape[alive, p] = np.where(halting, o - halt_floor, o // two_n).astype(np.uint8)
        if halting.any():
            outcome[alive[halting]] = 1
        stepping = alive[~halting]
        if stepping.size == 0:
            break
        oo = o[~halting]
        move = (oo % two_n) // n
        new_pos = p[~halting] + (move.astype(np.int32) * 2 - 1)
        new_state = (oo % n).astype(np.int16)
        state0[stepping] = new_state
        pos[stepping] = new_pos
        dead = np.zeros(stepping.size, bool)
        fresh_r = new_pos > hi[stepping]
        fresh_l = new_pos < lo[stepping]
        if fresh_r.any():
            rows = np.nonzero(fresh_r)[0]
            hit = esc[1][stepping[rows], new_state[rows]]
            outcome[stepping[rows[hit]]] = 2
            dead[rows[hit]] = True
        if fresh_l.any():
            rows = np.nonzero(fresh_l)[0]
            hit = esc[0][stepping[rows], new_state[rows]]
            outcome[stepping[rows[hit]]] = 2
            dead[rows[hit]] = True
        hi[stepping] = np.maximum(hi[stepping], new_pos)
        lo[stepping] = np.minimum(lo[stepping], new_pos)
        alive = stepping[~dead]
        if alive.size == 0:
            break

    sink.census.blank_escape += int((outcome == 2).sum())
    sink.census.step_limited += int((outcome == 0).sum())
    halted_rows = np.nonzero(outcome == 1)[0]
    sink.census.halted += int(halted_rows.size)
    if halted_rows.size == 0:
        return

    lengths = (hi[halted_rows] - lo[halted_rows] + 1).astype(np.int64)
    used_rules = np.bitwise_count(used[halted_rows]).astype(np.int64)
    producer = idx[halted_rows].astype(np.int64)

    narrow = lengths <= 64
    if not narrow.all():
        # Rare wide outputs (only reachable with very large cutoffs): build
        # the strings row by row and leave the packed fast path to the rest.
        for row in np.nonzero(~narrow)[0]:
            r = halted_rows[row]
            cells = tape[r, lo[r]:hi[r] + 1]
            s = "".join("1" if c else "0" for c in cells)
            sink.add_string(s, 1, int(used_rules[row]), int(producer[row]))
        keep = np.nonzero(narrow)[0]
        halted_rows = halted_rows[keep]
        lengths = lengths[keep]
        used_rules = used_rules[keep]
        producer = producer[keep]
        if halted_rows.size == 0:
            return

    value = np.zeros(halted_rows.size, np.uint64)
    max_len = int(lengths.max())
    for j in range(max_len):
        col = np.minimum(lo[halted_rows] + j, width - 1)
        bit = tape[halted_rows, col].astype(np.uint64)
        within = j < lengths
        value = np.where(within, (value << np.uint64(1)) | bit, value)

    order = np.lexsort((value, lengths))
    s_len = lengths[order]
    s_val = value[order]
    s_used = used_rules[order]
    s_prod = producer[order]
    boundary = np.empty(order.size, bool)
    boundary[0] = True
    boundary[1:] = (s_val[1:] != s_val[:-1]) | (s_len[1:] != s_len[:-1])
    starts = np.nonzero(boundary)[0]
    group_counts = np.diff(np.append(starts, order.size))
    group_used = np.minimum.reduceat(s_used, starts)
    group_prod = np.minimum.reduceat(s_prod, starts)
    for k, start in enumerate(starts):
        s = np.binary_repr(int(s_val[start]), width=int(s_len[start]))
        sink.add_string(s, int(group_counts[k]), int(group_used[k]), int(group_prod[k]))


def _run_vector(spec: SpaceSpec, indices: np.ndarray, sink: _Sink) -> None:
    for blank in spec.blanks:
        for start in range(0, indices.size, _BATCH):
            _vector_pass(spec, indices[start:start + _BATCH], blank, sink)


_ENGINES = {"scalar": _run_scalar, "vector": _run_vector}


def _run_part(spec: SpaceSpec, indices: np.ndarray, engine: str, covers) -> FrequencyTable:
    """One engine pass over an index array, as an unvalidated table."""
    if engine not in _ENGINES:
        raise ValidationError(f"unknown engine {engine!r}")
    sink = _Sink(spec)
    _ENGINES[engine](spec, indices, sink)
    return sink.table(covers)


def _run_shard(job) -> FrequencyTable:
    spec, engine, lo, hi = job
    return _run_part(spec, np.arange(lo, hi, dtype=np.uint64), engine, covers=((lo, hi),))


def run_index_array(spec: SpaceSpec, indices, engine: str = "vector") -> FrequencyTable:
    """Run an arbitrary (sorted, duplicate-free) index set; covers stays None."""
    table = _run_part(spec, np.asarray(indices, np.uint64), engine, covers=None)
    table.validate()
    return table


def run_space(
    spec: SpaceSpec,
    plan: ShardPlan = None,
    workers: int = 1,
    engine: str = "vector",
) -> FrequencyTable:
    """Enumerate the whole space described by spec into a FrequencyTable.

    The result is byte-identical for every plan and worker count; shards
    only bound the unit of parallel work (default: four per worker).
    Partial tables are merged in shard order.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if plan is None:
        plan = make_shard_plan(spec.size, workers * 4)
    if plan.shards[0][0] != 0 or plan.shards[-1][1] != spec.size:
        raise ValidationError("shard plan must cover the full index range")
    jobs = [(spec, engine, lo, hi) for lo, hi in plan.shards]
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
    sink = _Sink(spec)
    for part in parts:
        sink.census.add(part.census)
        for s, count in part.counts.items():
            sink.add_string(s, count, part.min_used_rules[s], part.first_producer[s])
    return sink.table(covers=_normalize_covers(ranges))


def empty_table(spec: SpaceSpec) -> FrequencyTable:
    """Merge identity: a table covering no index range."""
    return FrequencyTable(spec, {}, {}, {}, Census(), covers=())
