"""Space runs: cardinalities, oracle cross-checks, determinism, merging."""

import dataclasses
import functools
import itertools
import json
import pathlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctm_lab._canon import meta_dumps
from ctm_lab.analysis import diversity_report
from ctm_lab.baselines import block_entropy
from ctm_lab.bdm import BdmConfig
from ctm_lab.ctm import load_ctm_table
from ctm_lab.data import builtin_table
from ctm_lab.errors import ParseError, ValidationError
from ctm_lab.machine import (
    COMPLEMENT_SYMBOLS,
    CYCLE_DETECTED,
    REFLECT_DIRECTIONS,
    HaltWrite,
    NonHaltingProved,
    RuleTable,
    RunConfig,
    Step,
    action_count,
    decode_machine,
    encode_machine,
    escape_closure,
    machine_count,
    simulate,
    transform,
)
from ctm_lab import space
from ctm_lab.space import (
    SpaceSpec,
    empty_table,
    run_index_array,
    run_space,
    space_size,
)


def test_space_sizes():
    assert space_size(1) == 36
    assert space_size(2) == 10_000
    assert space_size(3) == 7_529_536
    assert SpaceSpec(3, blank_mode="both").run_count == 15_059_072


def test_space_size_rejects_out_of_range_states():
    # machine_count(-1) used to return 0.25 and machine_count(0) 1
    for n in (0, -1):
        for count in (space_size, machine_count, action_count):
            with pytest.raises(ValidationError, match=f"state count must be >= 1, got {n}"):
                count(n)
    with pytest.raises(ValidationError):
        space_size(7)


def test_space_spec_takes_only_ints():
    # a bool max_steps used to run and write a table its own loader rejects
    for kwargs in ({"n": 2.0}, {"n": True}, {"n": 2, "max_steps": True},
                   {"n": 2, "max_steps": 10.5}):
        with pytest.raises(ValidationError, match="must be an int"):
            SpaceSpec(**kwargs)


_INT_PARAMETERS = {
    "run_space-workers": lambda v: run_space(SpaceSpec(1), workers=v),
    "space_size-n": space_size,
    "machine_count-n": machine_count,
    "default_max_steps-n": space.default_max_steps,
    "decode_machine-index": lambda v: decode_machine(v, 2),
    "decode_machine-n": lambda v: decode_machine(0, v),
    "RuleTable-n": lambda v: RuleTable(v, (HaltWrite(0), HaltWrite(1))),
    "block_entropy-block_len": lambda v: block_entropy("0101", v),
    "diversity_report-length": lambda v: diversity_report(builtin_table("d2_zero"), v, BdmConfig()),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("call", _INT_PARAMETERS.values(), ids=_INT_PARAMETERS)
def test_public_int_parameters_take_only_ints(call, value):
    # RuleTable(True, ...) used to build a one-state machine
    with pytest.raises(ValidationError, match="must be an int"):
        call(value)


def test_default_cutoffs_follow_busy_beaver_bounds():
    assert SpaceSpec(4).max_steps == 107  # S(4), Brady 1983
    with pytest.raises(ValidationError):
        SpaceSpec(5)


# --- independent oracle for the full (1,2) space

_ACTIONS_1 = [
    Step(0, "L", 1), Step(0, "R", 1), Step(1, "L", 1), Step(1, "R", 1),
    HaltWrite(0), HaltWrite(1),
]


def _naive_run(entry0, entry1, budget=1000):
    """Dict-tape simulator independent of ctm_lab.machine.simulate."""
    tape = {}
    pos, lo, hi, steps = 0, 0, 0, 0
    while steps < budget:
        steps += 1
        sym = tape.get(pos, 0)
        action = entry0 if sym == 0 else entry1
        if isinstance(action, HaltWrite):
            tape[pos] = action.write
            return "".join(str(tape.get(c, 0)) for c in range(lo, hi + 1)), steps
        tape[pos] = action.write
        pos += 1 if action.move == "R" else -1
        lo, hi = min(lo, pos), max(hi, pos)
    return None, steps


def test_one_state_space_matches_hand_enumeration():
    expected_counts = {}
    halted = 0
    halt_steps = []
    for entry0, entry1 in itertools.product(_ACTIONS_1, repeat=2):
        out, steps = _naive_run(entry0, entry1)
        if out is not None:
            halted += 1
            halt_steps.append(steps)
            expected_counts[out] = expected_counts.get(out, 0) + 1
    table = run_space(SpaceSpec(1))
    assert table.census.total_runs == 36
    assert table.census.halted == halted == 12
    assert table.counts == expected_counts == {"0": 6, "1": 6}
    assert all(s == 1 for s in halt_steps)
    # non-halting split: both-entry step tables have no halting rule at all
    assert table.census.no_halt_rule == 16
    assert table.census.blank_escape == 8
    assert table.census.step_limited == 0


# --- engine cross-checks (the scalar engine is the reference route)


def _scalar_space(spec):
    """The scalar oracle over every index, covering the whole range as run_space does."""
    table = run_index_array(spec, np.arange(spec.size), engine="scalar")
    return dataclasses.replace(table, covers=((0, spec.size),))


def test_engines_agree_on_full_two_state_space():
    spec = SpaceSpec(2)
    assert _scalar_space(spec).canonical_bytes() == run_space(spec).canonical_bytes()


def test_engines_agree_on_three_state_sample():
    rng = random.Random(41)
    indices = np.array(sorted(rng.sample(range(space_size(3)), 1500)), np.uint64)
    spec = SpaceSpec(3)
    scalar = run_index_array(spec, indices, engine="scalar")
    vector = run_index_array(spec, indices, engine="vector")
    assert scalar.canonical_bytes() == vector.canonical_bytes()
    with pytest.raises(ValidationError, match="unknown engine"):
        run_index_array(spec, indices, engine="simulate")


def test_engines_agree_with_both_blanks():
    spec = SpaceSpec(1, blank_mode="both")
    assert _scalar_space(spec).canonical_bytes() == run_space(spec).canonical_bytes()


def _full_census(spec):
    """Every machine on every blank: run_index_array never applies the symmetry reduction."""
    return run_index_array(spec, np.arange(spec.size, dtype=np.uint64))


def _assert_same_census(reduced, full):
    assert _same_outputs(reduced, full)
    assert reduced.census == full.census


def _run_rows(spec, rows):
    """Family rows run as one pass of run_space, without first-step halts."""
    sink = empty_table(spec)
    space._run_groups(spec, [np.array(rows, np.uint8)], sink)
    return sink


def test_reduced_census_equals_the_full_census_on_small_spaces():
    for n in (1, 2):
        for mode in ("zero", "both"):
            spec = SpaceSpec(n, blank_mode=mode)
            full = _full_census(spec)
            _assert_same_census(run_space(spec), full)
            _assert_same_census(run_space(spec, workers=2), full)


def test_reduced_census_equals_the_full_census_on_three_states(d3_zero_freq, d3_both_freq):
    # byte for byte, producers included: the reduced run steps only top
    # digits 3, 4, 9 and 10, and credits digits 4 and 10 for their
    # renamings (2 3) too, whose producers it computes without running them
    for reduced in (d3_zero_freq, d3_both_freq):
        full = dataclasses.replace(_full_census(reduced.spec), covers=((0, reduced.spec.size),))
        assert reduced.canonical_bytes() == full.canonical_bytes()


def test_first_step_halts_are_counted_in_closed_form():
    # brute force: the machines whose (1, blank) entry, the digit of
    # weight (4n + 2)^(2n - 1 - blank), is the halt code 4n + w
    for n in (1, 2, 3):
        spec = SpaceSpec(n, blank_mode="both")
        index = np.arange(spec.size, dtype=np.int32)
        sink = space.empty_table(spec)
        space._count_initial_halts(spec, sink)
        counts, first = {}, {}
        for blank in (0, 1):
            digit = index // (4 * n + 2) ** (2 * n - 1 - blank) % (4 * n + 2)
            for w in (0, 1):
                hits = np.flatnonzero(digit == 4 * n + w)
                counts[str(w)] = counts.get(str(w), 0) + hits.size
                first[str(w)] = min(first.get(str(w), spec.size), int(hits[0]))
        assert (sink.counts, sink.first_producer) == (counts, first)
        assert set(sink.min_used_rules.values()) == {1}
        assert sink.census.halted == sink.census.total_runs == sum(counts.values())


def test_engines_agree_on_four_state_sample_at_busy_beaver_cutoff(monkeypatch):
    live_at_64 = []

    class Spy(space._Pass):
        steps = 0

        def advance(self, live):
            if live is self.live:  # a step of the pass, not of new children
                self.steps += 1
                if self.steps == 64:
                    live_at_64.append(live.shape[1])
            return super().advance(live)

    monkeypatch.setattr(space, "_Pass", Spy)
    rng = random.Random(47)
    indices = np.array(sorted(rng.sample(range(space_size(4)), 2000)), np.uint64)
    spec = SpaceSpec(4, max_steps=107)
    scalar = run_index_array(spec, indices, engine="scalar")
    vector = run_index_array(spec, indices, engine="vector")
    assert scalar.census.step_limited > 0
    assert scalar.canonical_bytes() == vector.canonical_bytes()
    # the cycle check retires nearly all of them long before the cutoff
    assert sum(live_at_64) <= 0.1 * scalar.census.step_limited


def test_engines_agree_on_three_state_samples_around_the_snapshots():
    # The vector engine takes snapshots at steps 8, 16, 32 and 64 and retires
    # repeating runs from step 9 on; the scalar engine runs them to the
    # cutoff. Cutoffs just past the first two snapshots and past the last.
    rng = random.Random(79)
    indices = np.array(sorted(rng.sample(range(space_size(3)), 800)), np.uint64)
    for max_steps in (9, 17, 40, 70):
        for mode in ("zero", "both"):
            spec = SpaceSpec(3, blank_mode=mode, max_steps=max_steps)
            scalar = run_index_array(spec, indices, engine="scalar")
            assert scalar.census.step_limited > 0
            assert run_index_array(spec, indices).canonical_bytes() == scalar.canonical_bytes()


def test_engines_agree_on_three_state_sample_at_long_cutoff():
    # Cutoff 300 crosses every tape growth (half-width 16, 32, ..., 256,
    # 300) and keeps step-limited machines live to the last step.
    rng = random.Random(53)
    indices = np.array(sorted(rng.sample(range(space_size(3)), 1500)), np.uint64)
    spec = SpaceSpec(3, max_steps=300)
    scalar = run_index_array(spec, indices, engine="scalar")
    vector = run_index_array(spec, indices, engine="vector")
    assert scalar.census.step_limited > 0
    assert scalar.canonical_bytes() == vector.canonical_bytes()


@pytest.mark.parametrize("n, size, seed, max_steps", [
    (3, 3000, 83, 17), (3, 3000, 83, 40), (4, 20_000, 89, 107),
])
@pytest.mark.parametrize("mode", ["zero", "both"])
def test_engine_retires_exactly_the_runs_simulate_proves_cyclic(
    monkeypatch, n, size, seed, max_steps, mode
):
    # The vector engine's cycle check (_Pass.looped) and simulate's are two
    # implementations of one rule; simulate, with cycles on, is the per-run
    # oracle. Every run the engine retires at step t must be proved cyclic
    # by simulate at a budget of t steps and not at t - 1, and every run
    # simulate proves at the cutoff must be retired. A retired row stands
    # for its segment of the batch's members, each one run.
    retired = []

    class Spy(space._Pass):
        steps = 0

        def advance(self, live):
            if live is self.live:  # a step of the pass, not of new children
                self.steps += 1
            return super().advance(live)

        def looped(self, live, stop):
            rows = super().looped(live, stop)
            members = self.members
            for lo, hi in members.seg[live[space._ORD][rows] // (2 * self.n)]:
                runs = _index(members.codes[members.perm[lo:hi]], n)
                retired.extend((int(i), self.blank, self.steps) for i in runs)
            return rows

    monkeypatch.setattr(space, "_Pass", Spy)
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(space_size(n)), size))
    spec = SpaceSpec(n, blank_mode=mode, max_steps=max_steps)
    run_index_array(spec, np.array(indices, np.uint64))

    def cyclic(index, blank, budget):
        outcome = simulate(decode_machine(index, n), RunConfig(max_steps=budget, blank=blank))
        return outcome == NonHaltingProved(CYCLE_DETECTED)

    proved = {(i, b) for b in spec.blanks for i in indices if cyclic(i, b, max_steps)}
    assert proved
    assert len(retired) == len(proved)
    assert {(i, b) for i, b, _ in retired} == proved
    for index, blank, step in retired:
        assert cyclic(index, blank, step) and not cyclic(index, blank, step - 1)


def _row_spy(monkeypatch):
    """Patch _Pass to record each step it takes: (spawned children?, rows)."""
    calls = []

    class Spy(space._Pass):
        def advance(self, live):
            calls.append((live is not self.live, live.shape[1]))
            return super().advance(live)

    monkeypatch.setattr(space, "_Pass", Spy)
    return calls


def test_machines_alike_in_every_entry_they_read_step_as_one_row(monkeypatch):
    # (1,0) Step(1, R, 2), then (2,0) halts writing 1: the run prints 11 and
    # never reads (1,1), so its 18 codes (digit weight 18^6) make 18
    # machines that step as one row
    entries = [Step(0, "L", 1)] * 8
    entries[0], entries[2] = Step(1, "R", 2), HaltWrite(1)
    first = encode_machine(RuleTable(4, tuple(entries)))
    indices = [first + code * 18 ** 6 for code in range(18)]
    calls = _row_spy(monkeypatch)
    spec = SpaceSpec(4)
    vector = run_index_array(spec, np.array(indices, np.uint64))
    # the pass starts from the (1,0) entry that step 1 reads, so no row
    # spawns a child that takes a step; step 2 halts
    assert calls == [(False, 1), (False, 1)]
    assert vector.counts == {"11": 18}
    assert vector.first_producer == {"11": first}
    scalar = run_index_array(spec, indices, engine="scalar")
    assert vector.canonical_bytes() == scalar.canonical_bytes()


def test_families_step_under_a_quarter_of_the_decoded_rows(monkeypatch):
    # a seeded strided (4,2) sample of 419,536 machines at cutoff 107; one
    # decoded row per machine stepped 778,707 rows
    offset = random.Random(7).randrange(26_267)
    indices = np.arange(offset, space_size(4), 26_267, dtype=np.uint64)
    calls = _row_spy(monkeypatch)
    table = run_index_array(SpaceSpec(4), indices)
    assert table.census.total_runs == indices.size == 419_536
    assert sum(rows for child, rows in calls if not child) < 778_707 / 4
    # with the spawned children, which take the step they are born in
    assert sum(rows for _, rows in calls) < 778_707 / 4


def _digits(index, n):
    """Action codes of machine indices, entry (1,0) first."""
    base = 4 * n + 2
    index = np.asarray(index, np.int64)
    return np.stack([index // base ** (2 * n - 1 - j) % base for j in range(2 * n)],
                    axis=1).astype(np.uint8)


def _index(digits, n):
    """Machine indices of rows of action codes."""
    return np.asarray(digits, np.int64) @ (4 * n + 2) ** np.arange(2 * n - 1, -1, -1)


def _expected_escape_bits(machine, blank):
    n = machine.n
    esc = escape_closure(machine, blank)
    return sum(esc[o % n][o % (2 * n) // n] << o for o in range(4 * n))


def test_escape_bits_match_the_escape_closure_on_two_states():
    n = 2
    ords = _digits(np.arange(space_size(n)), n)
    for blank in (0, 1):
        bits = space._escape_bits(ords, n, blank)
        for i in range(space_size(n)):
            assert int(bits[i]) == _expected_escape_bits(decode_machine(i, n), blank)
    # every distinct (3,2) blank-read key on both blanks, the other entries halting
    n = 3
    keys = np.stack([np.arange(14 ** n) // 14 ** (n - 1 - j) % 14 for j in range(n)], axis=1)
    for blank in (0, 1):
        ords = np.full((keys.shape[0], 2 * n), 4 * n, np.uint8)
        ords[:, blank::2] = keys
        bits = space._escape_bits(ords, n, blank)
        for row, codes in enumerate(ords.tolist()):
            index = sum(o * 14 ** (2 * n - 1 - j) for j, o in enumerate(codes))
            assert int(bits[row]) == _expected_escape_bits(decode_machine(index, n), blank)
    # seeded decoded rows of the deeper spaces, whose walks reach n - 1 passes
    rng = random.Random(67)
    for n in (4, 5, 6):
        indices = sorted(rng.sample(range(space_size(n)), 1500))
        ords = _digits(indices, n)
        for blank in (0, 1):
            bits = space._escape_bits(ords, n, blank)
            for row, index in enumerate(indices):
                assert int(bits[row]) == _expected_escape_bits(decode_machine(index, n), blank)


def _codes(machine):
    """The action code of each entry of a rule table, from its fields."""
    n = machine.n
    return [4 * n + a.write if isinstance(a, HaltWrite)
            else a.write * 2 * n + (a.move == "R") * n + a.next_state - 1
            for a in machine.entries]


def _has_halting_entry(index, n):
    return any(isinstance(a, HaltWrite) for a in decode_machine(index, n).entries)


def test_decode_matches_decode_machine_in_every_space():
    rng = random.Random(97)
    for n in range(1, 7):
        size = space_size(n)
        indices = sorted({0, size - 1, *rng.sample(range(size), 2000 if n > 1 else 30)})
        can_halt = [_has_halting_entry(i, n) for i in indices]
        assert 0 < sum(can_halt) < len(indices)
        expected = [_codes(decode_machine(i, n)) for i, h in zip(indices, can_halt) if h]
        for dtype in (np.int64, np.uint64):
            ords = space._decode(np.array(indices, dtype), n)
            assert ords.dtype == np.uint8 and ords.shape == (sum(can_halt), 2 * n)
            assert ords.tolist() == expected


def _no_halt_indices(rng, n, count, top=None):
    """Sorted distinct indices of machines whose every entry is a step, top
    digit top if given."""
    found = set()
    while len(found) < count:
        digits = [rng.randrange(4 * n) for _ in range(2 * n)]
        if top is not None:
            digits[0] = top
        found.add(int(_index(digits, n)))
    return sorted(found)


def test_a_decode_chunk_without_a_machine_that_can_halt_keeps_no_rows(monkeypatch):
    rng = random.Random(101)
    for n in range(1, 7):
        indices = np.array(_no_halt_indices(rng, n, 40 if n > 1 else 12), np.uint64)
        ords = space._decode(indices, n)
        assert ords.dtype == np.uint8 and ords.shape == (0, 2 * n)
        table = run_index_array(SpaceSpec(n, blank_mode="both", max_steps=10), indices)
        runs = 2 * indices.size
        assert table.census == space.Census(total_runs=runs, no_halt_rule=runs)
        assert table.counts == {}
    # one decode chunk of such machines (top digit 0) before chunks that keep rows
    monkeypatch.setattr(space, "_DECODE_CHUNK", 16)
    n, size = 3, space_size(3)
    low = _no_halt_indices(rng, n, 16, top=0)
    indices = np.array(low + sorted(rng.sample(range(14 ** 5, size), 40)), np.uint64)
    assert space._decode(indices[:16], n).shape == (0, 2 * n)
    spec = SpaceSpec(n, blank_mode="both")
    vector = run_index_array(spec, indices)
    assert vector.canonical_bytes() == run_index_array(spec, indices, engine="scalar").canonical_bytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_member_passes_start_from_their_first_read_entry(monkeypatch, n):
    # every run reads its (1,b) entry at step 1: a pass on blank b starts
    # with one row per code of that entry, whose members are the batch's
    # machines that can halt and hold it, in index order
    starts = []

    class Spy(space._Pass):
        def __init__(self, spec, ords, weights, blank, images, sink, members=None):
            segments = [_index(members.codes[members.perm[lo:hi]], n).tolist()
                        for lo, hi in members.seg.tolist()]
            starts.append((blank, ords.tolist(), weights.tolist(), segments))
            super().__init__(spec, ords, weights, blank, images, sink, members)

    monkeypatch.setattr(space, "_Pass", Spy)
    rng = random.Random(103 + n)
    indices = sorted(rng.sample(range(space_size(n)), 3000))
    spec = SpaceSpec(n, blank_mode="both")
    vector = run_index_array(spec, np.array(indices, np.uint64))
    assert vector.canonical_bytes() == run_index_array(spec, indices, engine="scalar").canonical_bytes()
    assert [blank for blank, *_ in starts] == [0, 1]
    digits = _digits(indices, n)
    marker = 4 * n + 2
    for blank, ords, weights, segments in starts:
        expected = {}
        for index, row in zip(indices, digits.tolist()):
            if _has_halting_entry(index, n):
                expected.setdefault(row[blank], []).append(index)
        rows = sorted(zip(ords, weights, segments), key=lambda r: r[0][blank])
        assert [r[0][blank] for r in rows] == sorted(expected)  # each code once
        for row, weight, members in rows:
            code = row[blank]
            assert row == [code if slot == blank else marker for slot in range(2 * n)]
            assert members == expected[code]  # in index order
            assert weight == [len(members), 0]


def test_lookup_tables_are_read_only():
    tables = [space._walk_classes(n) for n in range(1, 7)]
    tables += [space._digit_table(n, width) for n in (3, 4) for width in (2, 4)]
    for n, width in ((1, 2), (3, 4), (4, 4), (6, 3)):
        steps = space._all_steps(n, width)
        digits = space._digit_table(n, width).view(np.uint8).reshape(-1, width)
        assert steps.dtype == bool and steps.tolist() == (digits < 4 * n).all(axis=1).tolist()
        tables.append(steps)
    # the escape table holds _escape_bits of every key, whatever codes of
    # their walk classes the blank-read entries and the others hold
    rng = np.random.default_rng(83)
    for n in range(1, 5):
        base, classes = 2 * n + 2, space._walk_classes(n)
        # the two codes of each class, the marker's twice
        codes = np.array([np.resize(np.flatnonzero(classes == c), 2) for c in range(base)])
        keys = np.arange(base ** n)
        for blank in (0, 1):
            table = space._escape_table(n, blank)
            assert table.shape == keys.shape
            ords = rng.integers(0, 4 * n + 3, (keys.size, 2 * n)).astype(np.uint8)
            for j in range(n):
                digit = keys // base ** (n - 1 - j) % base
                ords[:, 2 * j + blank] = codes[digit, rng.integers(0, 2, keys.size)]
            assert table.tolist() == space._escape_bits(ords, n, blank).tolist()
            assert space._escape_words(ords, n, blank).tolist() == table.tolist()
            tables.append(table)
    assert space._escape_table(5, 0) is None and space._escape_table(6, 1) is None
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[1]


@pytest.mark.parametrize("indices", [
    [10_000, 10_001],  # past the end of (2,2)
    [9_999, 10_000],
    [-1],
    [5, 3],  # not sorted
    [3, 3],  # not distinct
    [1.5],
    [True],
    [[1, 2]],
])
@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_run_index_array_rejects_indices_outside_the_space(indices, engine):
    with pytest.raises(ValidationError):
        run_index_array(SpaceSpec(2), indices, engine=engine)


def test_run_index_array_accepts_the_ends_of_the_space():
    spec = SpaceSpec(2, blank_mode="both")
    for indices in ([], [0, spec.size - 1], np.array([0, spec.size - 1], np.uint64)):
        vector = run_index_array(spec, indices)
        scalar = run_index_array(spec, indices, engine="scalar")
        assert vector.census.total_runs == 2 * len(indices)
        assert vector.canonical_bytes() == scalar.canonical_bytes()


def test_image_indices_match_the_symmetry_transforms():
    rng = random.Random(61)
    cases = [(2, range(space_size(2)))] + [
        (n, sorted(rng.sample(range(space_size(n)), 3000))) for n in (3, 4)
    ]
    images = {
        (False, False): lambda m: m,
        (True, False): lambda m: transform(m, REFLECT_DIRECTIONS),
        (False, True): lambda m: transform(m, COMPLEMENT_SYMBOLS),
        (True, True): lambda m: transform(transform(m, REFLECT_DIRECTIONS), COMPLEMENT_SYMBOLS),
    }
    for n, indices in cases:
        digits = _digits(list(indices), n)
        for image, apply in images.items():
            got = space._image_indices(digits, n, *image)
            expected = [encode_machine(apply(decode_machine(i, n))) for i in indices]
            assert got.tolist() == expected


def _completions(row, n):
    """Every machine of a family row, as rows of action codes."""
    free = np.nonzero(row == 4 * n + 2)[0]
    rows = np.tile(row, ((4 * n + 2) ** free.size, 1))
    for k, slot in enumerate(free):
        rows[:, slot] = np.arange(rows.shape[0]) // (4 * n + 2) ** k % (4 * n + 2)
    return rows


def _family_samples(n, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 4 * n + 2, (count, 2 * n)).astype(np.uint8)
    rows[rng.random(rows.shape) < 0.4] = 4 * n + 2
    return rows


def test_image_indices_of_families_are_their_smallest_images():
    n = 2
    for row in _family_samples(n, 300, 71):
        members = _completions(row, n)
        for image in ((False, False), (True, False), (False, True), (True, True)):
            got = space._image_indices(row[None, :], n, *image)
            assert got.tolist() == [space._image_indices(members, n, *image).min()]


def test_escape_words_of_families_agree_with_their_members():
    # a bit is set when every member escapes, undecided when members differ;
    # (5,2) keys outgrow space._TABLE_SIZE, so those rows, like the index
    # sets of n = 5 and 6, have no escape table and run _escape_bits as is
    rng = np.random.default_rng(101)
    wide = rng.integers(0, 22, (60, 10)).astype(np.uint8)
    for row in wide:
        row[rng.choice(10, 2, replace=False)] = 22
    for blank in (0, 1):
        for n, rows in ((2, _family_samples(2, 300, 73 + blank)), (5, wide)):
            for row in rows:
                word = int(space._escape_bits(row[None, :], n, blank)[0])
                members = space._escape_bits(_completions(row, n), n, blank)
                assert not (members >> 32).any()
                for o in range(4 * n):
                    share = ((members >> o) & 1).mean()
                    assert (word >> o) & 1 == (share == 1)
                    assert (word >> (32 + o)) & 1 == (0 < share < 1)


def test_results_do_not_depend_on_batch_size(monkeypatch):
    # _BATCH cuts index arrays into batches, each decoded _DECODE_CHUNK
    # indices at a time, and run_space's plan runs the 22 (2,2) rows, of
    # 1,000 or 100 machines, as 22 passes with the pool threshold lowered
    # to 0 and as one pass at the default
    both = SpaceSpec(2, blank_mode="both")
    span = np.arange(3_000_000, 3_020_000, dtype=np.uint64)
    # 2509 indices: a multiple of neither batch nor of either decode chunk
    stride = np.arange(11, space_size(3), 3001, dtype=np.uint64)
    expected = (
        run_space(both).canonical_bytes(),
        run_index_array(SpaceSpec(3), span).canonical_bytes(),
        run_index_array(SpaceSpec(3, blank_mode="both"), stride).canonical_bytes(),
    )
    pool_min_size = {7: 0, 999: space._POOL_MIN_SIZE}
    for batch in (7, 999):
        monkeypatch.setattr(space, "_BATCH", batch)
        monkeypatch.setattr(space, "_DECODE_CHUNK", batch // 2)
        monkeypatch.setattr(space, "_POOL_MIN_SIZE", pool_min_size[batch])
        groups = list(space._family_groups(2))
        sizes = [int(space._weights(g, 2)[:, 0].sum()) for g in groups]
        assert sum(sizes) == 4000
        assert [len(g) for g in groups] == ([1] * 22 if batch == 7 else [22])
        assert max(sizes) == (1000 if batch == 7 else 4000)
        assert run_space(both).canonical_bytes() == expected[0]
        assert run_index_array(SpaceSpec(3), span).canonical_bytes() == expected[1]
        assert stride.size % batch and stride.size % (batch // 2)
        assert run_index_array(SpaceSpec(3, blank_mode="both"), stride).canonical_bytes() \
            == expected[2]


def test_index_batches_hold_a_bounded_number_of_bytes_per_index():
    # numpy reports its buffers to tracemalloc, so unlike RSS the peak is
    # deterministic. One (4,2) batch of 2^20 strided indices peaks at 17.27
    # bytes per index above the index array (numpy 2.4): 12 per member that
    # can halt (56% of them), the pass's rows, the intp codes of the step
    # being settled (17.13 with uint8 codes) and the temporaries of the
    # split that sorts the 354,245 members of 12 rows. Gathers through take,
    # which casts the int32 member positions to an intp copy, peak at the
    # same figure, since no split holds every member; members that also hold
    # their int64 index, with an int64 perm and a decode of the whole batch
    # at once, peak at 33.2.
    spec = SpaceSpec(4, max_steps=107)
    indices = np.arange(1 << 20, dtype=np.int64) * (spec.size >> 20)
    tracemalloc.start()  # after the index array, so it is not counted
    try:
        run_index_array(spec, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * indices.size


def test_the_largest_four_state_pass_holds_a_bounded_number_of_live_rows(monkeypatch):
    # The live rows of a pass set its memory. The largest (4,2) passes are
    # the subtrees of Step(1, R, 2) whose (2,0) entry is code 10,
    # Step(1, L, 3), or 11, Step(1, L, 4): their live rows peak at 106,071
    # at the start of a step, the same on every run.
    peak = [0]

    class Spy(space._Pass):
        def advance(self, live):
            if live is self.live:  # a step of the pass, not of new children
                peak[0] = max(peak[0], live.shape[1])
            return super().advance(live)

    monkeypatch.setattr(space, "_Pass", Spy)
    row = [13, 18, 10, 18, 18, 18, 18, 18]
    assert [row] in [g.tolist() for g in space._family_groups(4)]
    _run_rows(SpaceSpec(4), [row])
    assert peak[0] <= 106_071


@pytest.mark.parametrize("n", [5, 6])
def test_member_producers_are_exact_at_the_top_of_the_largest_spaces(n):
    # A producer's index is read back from its codes in int64 (_image_indices).
    # Indices near (4n + 2)^(2n), 26^12 at n = 6, catch an overflow or a wrong
    # radix: the last 300 of the space, all first-step halts, and the last
    # 300 before the top digit 4n, which step and then read their low digits.
    spec = SpaceSpec(n, blank_mode="both", max_steps=12)
    top = 4 * n * (4 * n + 2) ** (2 * n - 1)
    for end in (top, spec.size):
        indices = np.arange(end - 300, end, dtype=np.uint64)
        vector = run_index_array(spec, indices)
        scalar = run_index_array(spec, indices, engine="scalar")
        assert vector.canonical_bytes() == scalar.canonical_bytes()
        assert min(vector.first_producer.values()) == end - 300


def test_passes_start_from_subtree_rows(monkeypatch):
    starts = []

    class Spy(space._Pass):
        def __init__(self, spec, ords, *args):
            starts.append(ords.copy())
            super().__init__(spec, ords, *args)

    monkeypatch.setattr(space, "_Pass", Spy)
    run_space(SpaceSpec(3))
    # (3,2) is one pass of 30 rows: each fixes its top digit and, for the
    # digits 4 and 10 that step to state 2, the (2,0) entry to each code
    (rows,) = starts
    assert rows.shape == (30, 6)
    assert rows[:, 0].tolist() == [3] + [4] * 14 + [9] + [10] * 14
    fixed = np.zeros((30, 6), bool)
    fixed[:, 0] = True
    fixed[rows[:, 0] % 3 == 1, 2] = True
    assert ((rows != 14) == fixed).all()
    assert rows[fixed[:, 2], 2].tolist() == list(range(14)) * 2
    # the oracle: rows of the Step(1, R, 1) subtree with (1,1) and (2,0)
    # fixed too, 2 * 14^3 machines, equal the scalar run of their orbits
    rows = [[9, 0, code, 14, 14, 14] for code in (0, 1)]
    shard = _run_rows(SpaceSpec(3), rows)
    members = _members(rows, 3)
    assert members.size == 2 * 14 ** 3
    whole = run_index_array(SpaceSpec(3), _orbits(members, 3), engine="scalar")
    assert _same_outputs(shard, whole)
    assert shard.census == whole.census


def _renamed(index, n, k):
    """The index of machine index with states 2 and k swapped: their
    entries trade places, and steps to either go to the other."""
    table = decode_machine(int(index), n)
    swap = {2: k, k: 2}

    def rename(action):
        if isinstance(action, Step):
            return Step(action.write, action.move, swap.get(action.next_state, action.next_state))
        return action

    entries = [rename(table.entry(swap.get(s, s), r)) for s in range(1, n + 1) for r in (0, 1)]
    return encode_machine(RuleTable(n, tuple(entries)))


def _members(rows, n):
    """The machine indices of family rows, in increasing order."""
    return np.sort(np.concatenate([_index(_completions(np.array(row), n), n) for row in rows]))


def _orbits(indices, n):
    """The blank-0 runs that family rows of representatives step for: each
    representative, its renamings (2 k), k = 3..n, when its (1,0) entry
    steps to state 2, and the mirrors of all of these."""
    digit = indices // (4 * n + 2) ** (2 * n - 1)
    named = indices[(digit < 4 * n) & (digit % n == 1)]
    renamed = [_renamed(i, n, k) for i in named for k in range(3, n + 1)]
    machines = np.union1d(indices, np.array(renamed, np.int64))
    mirrors = space._image_indices(_digits(machines, n), n, True, False)
    return np.union1d(machines, mirrors).astype(np.uint64)


def test_four_state_shard_equals_the_vector_run_of_its_orbits():
    # 18^3 representatives that start with Step(1, R, 2), Step(0, L, 4),
    # and fix (2,0) and (2,1) too: each stands for itself and its renamings
    # (2 3) and (2 4)
    rows = [[13, 3, 0, 1, 3, 18, 18, 18]]
    spec = SpaceSpec(4, max_steps=107)
    shard = _run_rows(spec, rows)
    whole = run_index_array(spec, _orbits(_members(rows, 4), 4))
    assert whole.census.total_runs == 2 * 3 * 18 ** 3
    assert min(dataclasses.astuple(whole.census)) > 0
    assert _same_outputs(shard, whole)
    assert shard.census == whole.census


def test_children_keep_their_parents_excursion():
    # Families here read unread entries between a snapshot and the step that
    # repeats it. Their children keep the parent's snapshot and so must keep
    # its excursion too; one that started its excursion afresh at the head
    # would be retired on a partial comparison. The oracle: the scalar run
    # of the rows' orbits. Each case is three rows, 3 * 18^2 machines, that
    # leave only (4,0) and (4,1) unread, in the subtrees of digits 5 and 13,
    # which step to state 2, so their orbits hold their renamings.
    spec = SpaceSpec(4, max_steps=107)
    for rows in ([[5, 11, 14, 13, 8, 16, 18, 18], [5, 11, 14, 13, 8, 17, 18, 18],
                  [5, 11, 14, 13, 9, 0, 18, 18]],
                 [[13, 9, 8, 11, 17, code, 18, 18] for code in (12, 13, 14)]):
        shard = _run_rows(spec, rows)
        whole = run_index_array(spec, _orbits(_members(rows, 4), 4), engine="scalar")
        assert whole.census.step_limited > 0
        assert _same_outputs(shard, whole)
        assert shard.census == whole.census


def test_renaming_states_keeps_every_run():
    # Swapping the names of states 2 and 3 maps the (3,2) machines whose
    # (1,0) entry steps right to state 2 (top digit 4, writing 0; 10,
    # writing 1) one to one onto those that step right to state 3 (5; 11),
    # and keeps each run's output, used rules and bucket on both blanks.
    # The unreduced engine runs both blocks of each pair.
    spec = SpaceSpec(3, blank_mode="both")
    top = 14 ** 5
    for pair in ((4, 5), (10, 11)):
        a, b = (run_index_array(spec, np.arange(d * top, (d + 1) * top)) for d in pair)
        assert a.counts == b.counts
        assert a.min_used_rules == b.min_used_rules
        assert a.census == b.census
        assert a.first_producer != b.first_producer


def test_complement_producers_take_the_least_renaming():
    # A family row whose (1,0) entry steps to state 2 stands for its
    # renamings (2 3) and (2 4) too. Its producer under each image is the
    # least image index over all members of all three namings: brute force
    # over the members, renamed one by one through RuleTable
    n = 4
    rng = np.random.default_rng(103)
    for _ in range(300):
        row = rng.integers(0, 4 * n + 2, 2 * n).astype(np.uint8)
        row[0] = rng.choice([5, 13])  # Step(0, R, 2) and Step(1, R, 2)
        unread = rng.choice(np.arange(1, 2 * n), 2 if rng.random() < 0.2 else 1, replace=False)
        row[unread] = 4 * n + 2
        members = _index(_completions(row, n), n)
        named = np.array([_renamed(i, n, k) if k > 2 else i for i in members for k in (2, 3, 4)])
        images = _digits(named, n)
        for image in ((False, False), (True, False), (False, True), (True, True)):
            got = space._image_producers(row[None, :], n, *image)
            assert got.tolist() == [space._image_indices(images, n, *image).min()]
            if not image[1]:  # without complement, the row's own image is the least
                assert got.tolist() == space._image_indices(row[None, :], n, *image).tolist()


def test_passes_step_no_top_digit_that_goes_past_state_two(monkeypatch):
    # every row a pass steps has a top digit whose step goes to state 1 or
    # 2; the (4,2) plan holds no row of Step(1, R, 3) or Step(1, R, 4), and
    # a digit-5 row runs its machines, their renamings and their mirrors
    tops = []

    class Spy(space._Pass):
        def advance(self, live):
            tops.append(self.ords[live[space._ORD] // (2 * self.n), 0])
            return super().advance(live)

    def stepped(n):
        digits = np.unique(np.concatenate(tops))
        tops.clear()
        assert (digits % n < 2).all()
        return digits.tolist()

    monkeypatch.setattr(space, "_Pass", Spy)
    run_space(SpaceSpec(3, blank_mode="both"))
    assert stepped(3) == [3, 4, 9, 10]
    shard = _run_rows(SpaceSpec(4), [[5, 0, 0, 0, 0, 18, 18, 18]])
    assert stepped(4) == [5]
    assert shard.census.total_runs == 2 * 3 * 18 ** 3
    plan = np.concatenate(list(space._family_groups(4)))
    assert np.unique(plan[:, 0]).tolist() == [4, 5, 12, 13]


@functools.cache
def _scalar_bytes(spec):
    return _scalar_space(spec).canonical_bytes()


@pytest.mark.parametrize("mode", ["zero", "both"])
def test_family_runs_reproduce_the_scalar_oracle_at_every_cutoff_to_twenty(mode):
    # every cutoff from before the first snapshot (step 8) to past the second
    for max_steps in range(3, 21):
        spec = SpaceSpec(2, blank_mode=mode, max_steps=max_steps)
        assert run_space(spec).canonical_bytes() == _scalar_bytes(spec)


def test_halted_outputs_pack_narrow_and_wide_spans():
    # Spans wider than 64 cells, and the one too near the end of the tape for
    # a 64-cell run, take the row-by-row path; the rest are packed. Every span
    # is credited as is and reversed, to the machine and its mirror.
    tape = np.random.default_rng(59).integers(0, 2, 400).astype(np.uint8)
    lo = np.array([0, 10, 100, 200, 300, 12, 390], np.intp)
    hi = lo + np.array([0, 2, 63, 64, 99, 2, 2])
    idx = np.array([2100, 2345, 3456, 3000, 2999, 3999, 2222], np.uint64)
    sink = space.empty_table(SpaceSpec(2))
    outputs = space._Outputs(sink, 2, ((False, False), (True, False)))
    outputs.pending.append((lo, hi, np.full(7, 3, np.uint16), np.arange(7)))
    digits = _digits(idx, 2)
    outputs.pack(tape, digits, space._weights(digits, 2))
    outputs.emit()
    expected, first = {}, {}
    for index, a, b in zip(idx.tolist(), lo, hi):
        s = "".join(map(str, tape[a:b + 1]))
        mirror = encode_machine(transform(decode_machine(index, 2), REFLECT_DIRECTIONS))
        for string, producer in ((s, index), (s[::-1], mirror)):
            expected[string] = expected.get(string, 0) + 1
            first[string] = min(first.get(string, producer), producer)
    assert sink.counts == expected
    assert sink.first_producer == first
    assert {len(s) for s in sink.counts} == {1, 3, 64, 65, 100}
    assert set(sink.min_used_rules.values()) == {2}  # bit count of the used mask 3


def test_credited_rows_carry_the_weights_of_their_digits(monkeypatch, d3_both_freq):
    # A pass carries each row's machines and no-halt machines from parent to
    # child. Every row credited must carry what its digits give (_weights),
    # or, for members, its segment size and 0.
    pack, non_halting = space._Outputs.pack, space._Outputs.non_halting
    last, checked = [], []

    def check(outputs, ords, weights, rows):
        if outputs.members is None:
            digits = ords[rows]
            expected = space._weights(digits, outputs.n)
        else:
            lo, hi = outputs.members.seg[rows].T
            expected = np.stack((hi - lo, np.zeros_like(lo)), axis=1)
        assert weights[rows].tolist() == expected.tolist()
        checked.append(rows.size)

    def spy_pack(outputs, tape, ords, weights):
        last[:] = ords, weights
        rows = [p[3] for p in outputs.pending] + outputs.escaped + outputs.looped
        if rows:
            check(outputs, ords, weights, np.concatenate(rows))
        pack(outputs, tape, ords, weights)

    def spy_non_halting(outputs, weights, rows, bucket):
        ords, seen = last
        assert seen is weights  # the pass packs right before its last credit
        check(outputs, ords, weights, rows)
        non_halting(outputs, weights, rows, bucket)

    monkeypatch.setattr(space._Outputs, "pack", spy_pack)
    monkeypatch.setattr(space._Outputs, "non_halting", spy_non_halting)
    d3 = run_space(SpaceSpec(3, blank_mode="both"))
    assert d3.canonical_bytes() == d3_both_freq.canonical_bytes()
    runs = [sum(checked)]
    u = 18  # the unread marker of (4,2)
    _run_rows(SpaceSpec(4), [[5, u, 7, u, u, u, u, u]])
    runs.append(sum(checked) - runs[-1])
    run_index_array(SpaceSpec(3, blank_mode="both"), np.arange(5, space_size(3), 997))
    runs.append(sum(checked) - sum(runs))
    assert min(runs) > 0


def test_escape_closure_checks_the_whole_walk():
    # Blank walk 1->2->3->4->5->6 all pushing right, but state 6 turns left:
    # not a runway, and a shallow fixed point would wrongly prove escape.
    entries = []
    for s in range(1, 6):
        entries.extend([Step(1, "R", s + 1), Step(1, "R", s + 1)])
    entries.extend([Step(0, "L", 1), HaltWrite(1)])
    machine = RuleTable(6, tuple(entries))
    assert escape_closure(machine, 0)[0] == [False, False]
    spec = SpaceSpec(6, max_steps=60)
    idx = np.array([encode_machine(machine)], np.uint64)
    scalar = run_index_array(spec, idx, engine="scalar")
    vector = run_index_array(spec, idx, engine="vector")
    assert scalar.census.blank_escape == vector.census.blank_escape == 0
    assert scalar.canonical_bytes() == vector.canonical_bytes()


def test_undecided_escapes_expand_their_walk_entry_by_entry(monkeypatch):
    # A row whose escape depends on unread blank-read entries expands the
    # first one on its walk (walk_slot); a child still undecided expands the
    # next. run_space takes one expansion per decision on (3,2) and at most
    # two on (4,2) (118 of the 865 decisions of a zero run); this strided
    # (4,2) set takes three in two of its 18 decisions. Each expansion
    # fixes one entry of the walk, so a decision takes at most n.
    expansions = []

    class Spy(space._Pass):
        depth = 0

        def decide(self, live, o):
            if self.depth == 0:  # a decision, not a round of one
                expansions.append(0)
            self.depth += 1
            try:
                return super().decide(live, o)
            finally:
                self.depth -= 1

        def walk_slot(self, live):
            expansions[-1] += 1
            return super().walk_slot(live)

    monkeypatch.setattr(space, "_Pass", Spy)
    spec = SpaceSpec(4, blank_mode="both")
    indices = np.arange(0, space_size(4), 18 ** 5 + 7, dtype=np.uint64)
    vector = run_index_array(spec, indices)
    assert 2 <= max(expansions) <= spec.n
    assert vector.canonical_bytes() == run_index_array(spec, indices, engine="scalar").canonical_bytes()


def test_engines_agree_in_deeper_spaces():
    # Larger state counts exercise the full escape-closure depth.
    rng = random.Random(43)
    for n, max_steps, draws in ((4, 50, 500), (5, 60, 300), (6, 60, 200)):
        spec = SpaceSpec(n, max_steps=max_steps)
        indices = np.array(sorted(rng.sample(range(space_size(n)), draws)), np.uint64)
        scalar = run_index_array(spec, indices, engine="scalar")
        vector = run_index_array(spec, indices, engine="vector")
        assert scalar.canonical_bytes() == vector.canonical_bytes()


def test_census_partitions_run_count(d2_zero_freq):
    census = d2_zero_freq.census
    assert census.total_runs == 10_000
    assert (
        census.halted + census.no_halt_rule + census.blank_escape + census.step_limited
        == census.total_runs
    )
    d2_zero_freq.validate()


def test_first_producers_actually_produce(d2_zero_freq):
    cfg = SpaceSpec(2).run_config(0)
    for s, idx in sorted(d2_zero_freq.first_producer.items())[:8]:
        out = simulate(decode_machine(idx, 2), cfg)
        assert out.output == s


def test_both_blanks_counts_are_complement_symmetric():
    comp = str.maketrans("01", "10")
    table = run_space(SpaceSpec(2, blank_mode="both"))
    assert table.census.total_runs == 20_000
    for s, c in table.counts.items():
        assert table.counts[s.translate(comp)] == c


def test_raising_cutoff_tenfold_changes_nothing_on_two_states():
    base = run_space(SpaceSpec(2))
    slow = run_space(SpaceSpec(2, max_steps=100))
    assert base.counts == slow.counts
    assert base.min_used_rules == slow.min_used_rules
    assert base.first_producer == slow.first_producer


def _same_outputs(a, b):
    return (a.counts, a.min_used_rules, a.first_producer) == (
        b.counts, b.min_used_rules, b.first_producer
    )


def test_busy_beaver_cutoff_is_exact_on_two_states():
    # S(2) = 6 (Lin & Rado 1965): every halting (2,2) machine stops within
    # six steps, so cutoff 6 loses nothing and cutoff 5 loses the longest runs.
    for mode, halted, short_halted in (("zero", 3044, 3024), ("both", 6088, 6048)):
        default = run_space(SpaceSpec(2, blank_mode=mode))
        assert default.census.halted == halted
        assert _same_outputs(run_space(SpaceSpec(2, blank_mode=mode, max_steps=6)), default)
        assert run_space(SpaceSpec(2, blank_mode=mode, max_steps=5)).census.halted == short_halted


def test_busy_beaver_cutoff_is_exact_on_three_states(d3_zero_freq):
    # S(3) = 21: cutoff 21 reproduces the default-cutoff table, cutoff 20 does not.
    at_bound = run_space(SpaceSpec(3, max_steps=21), workers=2)
    assert at_bound.census.halted == d3_zero_freq.census.halted == 2_147_184
    assert _same_outputs(at_bound, d3_zero_freq)
    below = run_space(SpaceSpec(3, max_steps=20), workers=2)
    assert below.census.halted == 2_147_184 - 8


# --- pools and merging


class _InlineContext:
    """Stands in for the fork context: its pools record their size and whether
    they were handed a lazy iterator of jobs, and run the jobs inline."""

    def __init__(self):
        self.processes = []
        self.lazy = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, jobs, chunksize=1):
        self.lazy.append(iter(jobs) is jobs)
        return (fn(job) for job in jobs)


def _job(job):
    """A pool job (spec, rows) in a form that compares with ==."""
    spec, rows = job
    return spec, rows.tolist()


def _inline_pools(monkeypatch, cpus):
    ctx = _InlineContext()
    monkeypatch.setattr(space.multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(space.os, "cpu_count", lambda: cpus)
    return ctx


def test_family_groups_tile_the_representatives(monkeypatch):
    # the plan's rows fix representative top digits, and no two agree on
    # every slot both fix, so no machine is in two rows; their machines add
    # up to the representatives', so every one is in a row. Passes hold the
    # rows in order: (1..3, 2) are one pass and (4,2) 38, and with the pool
    # threshold lowered to 0, (2,2) is 22 passes and (3,2) 30
    def check(n, expected):
        b = 4 * n + 2
        groups = list(space._family_groups(n))
        assert [len(g) for g in groups] == expected
        rows = np.concatenate(groups)
        assert (rows == space._subtree_rows(n)).all()
        sizes = b ** (rows == b).sum(axis=1)
        digits = space._representative_digits(n)
        assert set(rows[:, 0].tolist()) == set(digits)
        fixed = rows != b
        differ = (rows[:, None] != rows[None]) & fixed[:, None] & fixed[None]
        assert (differ.any(axis=2) | np.eye(len(rows), dtype=bool)).all()
        assert sizes.sum() == len(digits) * b ** (2 * n - 1)

    for n, expected in ((1, [2]), (2, [22]), (3, [30]), (4, [1] * 38)):
        check(n, expected)
    monkeypatch.setattr(space, "_POOL_MIN_SIZE", 0)
    check(2, [1] * 22)
    check(3, [1] * 30)


def test_family_groups_are_one_pass_below_the_pool_threshold():
    # below _POOL_MIN_SIZE machines the plan is one pass of every subtree
    # row, and at or above it one pass per row, in order: (1,2) 2 rows,
    # (2,2) 22 and (3,2) 30 in one pass; (4,2) 38, (5,2) 46 and (6,2) 54
    # passes of one row each
    expected = {1: [2], 2: [22], 3: [30], 4: [1] * 38, 5: [1] * 46, 6: [1] * 54}
    for n, lengths in expected.items():
        groups = space._family_groups(n)
        rows = space._subtree_rows(n)
        below = space_size(n) < space._POOL_MIN_SIZE
        assert [len(g) for g in groups] == lengths == ([len(rows)] if below else [1] * len(rows))
        assert (np.concatenate(groups) == rows).all()


def _split(row, slots, n):
    """The rows of a family row with its unread entries at slots fixed, one per choice of codes."""
    b = 4 * n + 2
    rows = np.array(row, np.uint8)[None]
    for slot in slots:
        if rows[0, slot] == b:
            rows = rows.repeat(b, axis=0)
            rows[:, slot] = np.tile(np.arange(b), rows.shape[0] // b)
    return rows


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["zero", "both"]), max_steps=st.integers(1, 20),
       depth=st.lists(st.sets(st.integers(1, 3)), min_size=22, max_size=22),
       data=st.data())
def test_any_plan_reproduces_the_scalar_oracle_on_two_states(mode, max_steps, depth, data):
    # any plan whose rows split the 22 (2,2) subtree rows further, at the
    # drawn unread slots of each, cut in order into any passes, through the
    # pool path: the merged pass tables equal the scalar run of every
    # machine. A plan of one pass runs in the calling process
    spec = SpaceSpec(2, blank_mode=mode, max_steps=max_steps)
    rows = space._subtree_rows(2)
    plan = np.concatenate([_split(row, slots, 2) for row, slots in zip(rows, depth)])
    cuts = data.draw(st.sets(st.integers(1, len(plan) - 1)), label="cuts")
    groups = np.split(plan, sorted(cuts))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(space, "_family_groups", lambda n: groups)
        ctx = _inline_pools(monkeypatch, cpus=2)
        assert run_space(spec, workers=2).canonical_bytes() == _scalar_bytes(spec)
    assert ctx.processes == ([2] if len(groups) > 1 else [])


def test_pool_steps_the_same_rows_at_every_worker_count(monkeypatch, d3_zero_freq):
    # with the pool threshold lowered to 0, (3,2) goes to a pool at 2
    # workers and up: its jobs are its 30 passes of one row each, in plan
    # order, on min(workers, CPUs) processes; one worker runs them in the
    # calling process. No job splits a row, so every worker count steps the
    # same 36,685 rows as the 1-worker run
    monkeypatch.setattr(space, "_POOL_MIN_SIZE", 0)
    ctx = _inline_pools(monkeypatch, cpus=4)
    jobs, rows = [], [0]
    run_group = space._run_group

    def spy_run_group(job):
        jobs.append(_job(job))
        return run_group(job)

    monkeypatch.setattr(space, "_run_group", spy_run_group)

    class Spy(space._Pass):
        def advance(self, live):
            rows[0] += live.shape[1]
            return super().advance(live)

    monkeypatch.setattr(space, "_Pass", Spy)
    spec = SpaceSpec(3)
    groups = [(spec, group.tolist()) for group in space._family_groups(3)]
    assert len(groups) == 30
    for workers in range(1, 9):
        jobs.clear()
        rows[0] = 0
        assert run_space(spec, workers=workers).canonical_bytes() == d3_zero_freq.canonical_bytes()
        assert rows[0] == 36_685
        assert jobs == ([] if workers == 1 else groups)
    assert ctx.processes == [2, 3, 4, 4, 4, 4, 4]
    assert ctx.lazy == [True] * 7


def test_pool_never_exceeds_the_cpu_count(monkeypatch):
    # a huge worker count asks for no more processes than CPUs, and an
    # unknown CPU count for one; the fake context starts none
    monkeypatch.setattr(space, "_POOL_MIN_SIZE", 0)
    spec = SpaceSpec(2, blank_mode="both")
    for cpus, processes in ((3, 3), (None, 1)):
        ctx = _inline_pools(monkeypatch, cpus)
        assert run_space(spec, workers=10 ** 6).canonical_bytes() == _scalar_bytes(spec)
        assert ctx.processes == [processes]


def test_small_spaces_start_no_pool(monkeypatch, d3_zero_freq):
    # at the default threshold (2,2) and (3,2) run in the calling process,
    # whatever the worker and CPU counts
    ctx = _inline_pools(monkeypatch, cpus=8)
    assert space_size(3) < space._POOL_MIN_SIZE < space_size(4)
    for workers in (2, 8):
        assert run_space(SpaceSpec(2), workers=workers).canonical_bytes() == _scalar_bytes(SpaceSpec(2))
        assert run_space(SpaceSpec(3), workers=workers).canonical_bytes() == d3_zero_freq.canonical_bytes()
    assert ctx.processes == []


def test_four_state_pool_gets_one_shard_per_family_group(monkeypatch):
    # the (4,2) plan, with a stub for the group runs: its 38 passes of one
    # subtree row each, in plan order, read lazily by a pool of
    # min(workers, CPUs) processes
    ctx = _inline_pools(monkeypatch, cpus=4)
    jobs = []

    def stub(job):
        jobs.append(_job(job))
        return empty_table(job[0])

    monkeypatch.setattr(space, "_run_group", stub)
    spec = SpaceSpec(4)
    groups = [(spec, group.tolist()) for group in space._family_groups(4)]
    for workers in (2, 3, 100):
        jobs.clear()
        assert run_space(spec, workers=workers).covers == ((0, spec.size),)
        assert jobs == groups
        assert len(jobs) == 38
    assert ctx.processes == [2, 3, 4]
    assert ctx.lazy == [True] * 3


def test_sharded_run_is_byte_identical_to_single_shard(monkeypatch):
    # (2,2)'s 22 subtree rows as one pass, and, with the pool threshold
    # lowered to 0, as 22 passes of one row each, each run as a pool job
    # into its own table and merged
    spec = SpaceSpec(2)
    one = _run_rows(spec, space._subtree_rows(2))
    monkeypatch.setattr(space, "_POOL_MIN_SIZE", 0)
    groups = list(space._family_groups(2))
    assert [len(g) for g in groups] == [1] * 22
    merged = empty_table(spec)
    for group in groups:
        merged.merge(space._run_group((spec, group)))
    assert one.canonical_bytes() == merged.canonical_bytes()


def test_run_space_rejects_a_worker_count_below_one():
    for workers in (0, -1):
        with pytest.raises(ValidationError):
            run_space(SpaceSpec(1), workers=workers)


def test_merge_with_empty_is_identity(d2_zero_freq):
    merged = empty_table(d2_zero_freq.spec, d2_zero_freq.covers)
    merged.merge(d2_zero_freq)
    merged.merge(empty_table(d2_zero_freq.spec))
    assert merged.canonical_bytes() == d2_zero_freq.canonical_bytes()


def test_merge_is_commutative():
    spec = SpaceSpec(2)
    whole = run_space(spec)
    # two disjoint halves, merged in both orders
    lo = run_index_array(spec, np.arange(0, 5000, dtype=np.uint64))
    hi = run_index_array(spec, np.arange(5000, 10_000, dtype=np.uint64))
    ab, ba = empty_table(spec, whole.covers), empty_table(spec, whole.covers)
    for table, parts in ((ab, (lo, hi)), (ba, (hi, lo))):
        for part in parts:
            table.merge(part)
    assert ab.canonical_bytes() == ba.canonical_bytes()
    assert ab.canonical_bytes() == whole.canonical_bytes()


# --- persistence: a run is saved as a .ctm table, whose sources carry its spec and census


def test_frequency_table_parse_errors(tmp_path):
    bad = tmp_path / "bad"
    spec, census = SpaceSpec(2).as_dict(), space.Census().as_dict()
    magic = "# ctm-table v1"
    columns = "string,count,probability,complexity_bits,min_used_rules,source_space"
    good_meta = {"normalization": "all_machines", "sources": [{"census": census, "spec": spec}],
                 "tool_version": "0.1.0"}

    def source(spec=spec, census=census):
        return {**good_meta, "sources": [{"census": census, "spec": spec}]}

    bad_metas = (
        {**good_meta, "normalization": "percentiles"},
        {"normalization": "all_machines"},
        {**good_meta, "sources": 5},
        {**good_meta, "sources": [1]},
        {**good_meta, "sources": [{}]},
        source(spec={**spec, "n": 2.0}),
        source(spec={**spec, "n": "2"}),
        source(spec={**spec, "n": True}),
        source(spec={**spec, "states": 2}),
        source(spec={**spec, "max_steps": 0}),
        source(census={**census, "halted": "5"}),
        source(census={**census, "halted": -1}),
        {**good_meta, "tool_version": "9", "zzz": 1},
        {**good_meta, "tool_version": "9"},
        {**good_meta, "zzz": 1},
        {"normalization": "all_machines", "sources": []},
    )
    bad.write_text(f"{magic}\n# meta {meta_dumps(good_meta)}\n{columns}\n")
    load_ctm_table(bad)
    # the bad metas are written as the writer writes them, so the meta
    # check itself rejects them, not the round trip
    cases = (
        ("not a table\n", 1, ""),
        (f"{magic}\nstray\n{columns}\n", 2, ""),
        (f"{magic}\n# meta {{bad\n{columns}\n", 2, "bad meta header: "),
        (f"{magic}\n# meta [1]\n{columns}\n", 2, ""),
        (f"{magic}\n# meta {'[' * 100_000}\n{columns}\n", 2, "bad meta header: "),
        (f"{magic}\n# meta {{}}\nstring,count\n", 3, ""),
    ) + tuple((f"{magic}\n# meta {meta_dumps(meta)}\n{columns}\n", 2, "bad meta header: ")
              for meta in bad_metas)
    for text, line, reason in cases:
        bad.write_text(text)
        with pytest.raises(ParseError) as err:
            load_ctm_table(bad)
        assert err.value.line == line
        assert str(err.value).startswith(f"{bad}: line {line}: {reason}")


def _with_source(path, edit):
    """The shipped d2_zero.ctm at path, with edit applied to its first source."""
    shipped = pathlib.Path(space.__file__).with_name("data") / "d2_zero.ctm"
    magic, meta, rest = shipped.read_text().split("\n", 2)
    meta = json.loads(meta[len("# meta "):])
    edit(meta["sources"][0])
    path.write_text(f"{magic}\n# meta {meta_dumps(meta)}\n{rest}")


def test_frequency_table_rejects_other_proof_settings(tmp_path):
    path = tmp_path / "d2.ctm"

    def cycle_on(source):
        source["spec"]["filters"]["cycle"] = True

    def other_memory_limit(source):
        source["spec"]["cycle_memory_limit"] = 5000

    def cycles_counted(source):
        source["census"]["cycle_detected"] = 3

    _with_source(path, lambda source: None)
    assert load_ctm_table(path) == builtin_table("d2_zero")
    for edit in (cycle_on, other_memory_limit, cycles_counted):
        _with_source(path, edit)
        with pytest.raises(ParseError, match="line 2: bad meta header: ") as err:
            load_ctm_table(path)
        assert err.value.line == 2


def test_strided_sample_is_deterministic():
    spec = SpaceSpec(2)
    a = run_index_array(spec, np.arange(0, spec.size, 7))
    b = run_index_array(spec, np.arange(0, spec.size, 7))
    assert a.canonical_bytes() == b.canonical_bytes()
    assert a.covers is None


def test_real_pools_match_the_one_process_run(monkeypatch, d3_both_freq):
    # with the pool threshold lowered to 0, (3,2) sends its 30 passes of
    # one row each to real pools; 3 CPUs cap the pools at 2, 3 and 3
    # processes. Each merged result equals the one-process run byte for byte
    monkeypatch.setattr(space, "_POOL_MIN_SIZE", 0)
    monkeypatch.setattr(space.os, "cpu_count", lambda: 3)
    forked, get_context = [], space.multiprocessing.get_context

    class RecordingContext:
        def __init__(self, method):
            self.method = method

        def Pool(self, processes):
            forked.append((self.method, processes))
            return get_context(self.method).Pool(processes)

    monkeypatch.setattr(space.multiprocessing, "get_context", RecordingContext)
    spec = SpaceSpec(3, blank_mode="both")
    for workers in (2, 3, 8):
        assert run_space(spec, workers=workers).canonical_bytes() == d3_both_freq.canonical_bytes()
    assert forked == [("fork", 2), ("fork", 3), ("fork", 3)]
