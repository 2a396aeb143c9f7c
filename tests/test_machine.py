"""Machine formalism: codec bijection, simulation semantics, proofs, symmetries."""

import random

import pytest

from ctm_lab.errors import ParseError, ValidationError
from ctm_lab.machine import (
    BLANK_ESCAPE,
    COMPLEMENT_SYMBOLS,
    CYCLE_DETECTED,
    NO_HALT_RULE,
    REFLECT_DIRECTIONS,
    Halted,
    HaltWrite,
    NonHaltingProved,
    RuleTable,
    RunConfig,
    Step,
    StepLimit,
    action_count,
    decode_machine,
    encode_machine,
    format_rule_table,
    machine_count,
    parse_rule_table,
    prove_non_halting,
    simulate,
    transform,
)


def random_table(rng, n):
    entries = []
    for _ in range(2 * n):
        o = rng.randrange(action_count(n))
        if o >= 4 * n:
            entries.append(HaltWrite(o - 4 * n))
        else:
            write, rest = divmod(o, 2 * n)
            move, nxt = divmod(rest, n)
            entries.append(Step(write, "LR"[move], nxt + 1))
    return RuleTable(n, tuple(entries))


# --- index <-> table codec


def test_decode_index_zero_is_all_first_ordinal():
    table = decode_machine(0, 2)
    assert all(a == Step(0, "L", 1) for a in table.entries)
    assert encode_machine(table) == 0


def test_decode_last_index_is_all_halt_one():
    table = decode_machine(machine_count(2) - 1, 2)
    assert all(a == HaltWrite(1) for a in table.entries)


def test_decode_out_of_range():
    with pytest.raises(ValidationError):
        decode_machine(machine_count(2), 2)
    with pytest.raises(ValidationError):
        decode_machine(-1, 2)


def test_codec_bijection_random_tables():
    rng = random.Random(7)
    for _ in range(1000):
        table = random_table(rng, 3)
        assert decode_machine(encode_machine(table), 3) == table


def test_codec_bijection_random_indices():
    rng = random.Random(11)
    for _ in range(1000):
        idx = rng.randrange(machine_count(3))
        assert encode_machine(decode_machine(idx, 3)) == idx
    assert encode_machine(decode_machine(1234, 2)) == 1234
    assert encode_machine(decode_machine(7_000_000, 3)) == 7_000_000


def test_rule_table_validation():
    with pytest.raises(ValidationError):
        RuleTable(2, (Step(0, "L", 1),))  # wrong arity
    with pytest.raises(ValidationError):
        RuleTable(1, (Step(0, "L", 2), Step(0, "L", 1)))  # next state out of range
    with pytest.raises(ValidationError):
        RuleTable(1, (Step(2, "L", 1), Step(0, "L", 1)))  # bad symbol
    with pytest.raises(ValidationError):
        RuleTable(1, ("nope", Step(0, "L", 1)))


# --- simulation


def test_single_halting_write():
    table = RuleTable(2, (HaltWrite(1), Step(0, "L", 1), Step(0, "L", 1), Step(0, "L", 1)))
    out = simulate(table, RunConfig(max_steps=10))
    assert out == Halted("1", 1, 1, 0, 0)


def test_two_step_run_writes_two_ones():
    table = RuleTable(2, (Step(1, "R", 2), Step(0, "L", 1), HaltWrite(1), Step(0, "L", 1)))
    out = simulate(table, RunConfig(max_steps=10))
    assert out == Halted("11", 2, 2, 0, 1)


def test_blank_self_loop_escapes_or_times_out():
    # Unreachable halting entry keeps the static no-halt check out of the way.
    table = RuleTable(2, (Step(0, "R", 1), HaltWrite(0), Step(0, "L", 1), Step(0, "L", 1)))
    assert simulate(table, RunConfig(max_steps=100)) == NonHaltingProved(BLANK_ESCAPE)
    out = simulate(
        table, RunConfig(max_steps=100, check_blank_escape=False, check_cycles=False)
    )
    assert out == StepLimit()


def test_simulation_is_deterministic():
    rng = random.Random(3)
    cfg = RunConfig(max_steps=20)
    for _ in range(200):
        table = random_table(rng, 2)
        assert simulate(table, cfg) == simulate(table, cfg)


def test_used_rules_bounds_on_halting_runs():
    rng = random.Random(5)
    cfg = RunConfig(max_steps=30)
    seen = 0
    while seen < 200:
        table = random_table(rng, 3)
        out = simulate(table, cfg)
        if isinstance(out, Halted):
            seen += 1
            assert 1 <= out.used_rules <= 6
            assert out.steps <= 30
            assert len(out.output) == out.last_cell - out.first_cell + 1 >= 1


# --- non-halting proofs


def test_no_halt_rule_is_detected_statically():
    table = RuleTable(1, (Step(0, "L", 1), Step(1, "R", 1)))
    assert prove_non_halting(table, RunConfig()) == NO_HALT_RULE


def test_blank_escape_single_state():
    table = RuleTable(2, (Step(0, "R", 1), HaltWrite(0), Step(0, "L", 1), Step(0, "L", 1)))
    assert prove_non_halting(table, RunConfig()) == BLANK_ESCAPE


def test_cycle_detected_on_two_cell_ping_pong():
    # state1 pushes right writing 1s, state2 pushes back; state3's halting
    # entry is unreachable. Configurations repeat with period two.
    table = RuleTable(
        3,
        (
            Step(1, "R", 2), Step(1, "R", 2),
            Step(1, "L", 1), Step(1, "L", 1),
            HaltWrite(0), Step(0, "L", 3),
        ),
    )
    assert prove_non_halting(table, RunConfig(max_steps=100)) == CYCLE_DETECTED
    assert simulate(table, RunConfig(max_steps=100)) == NonHaltingProved(CYCLE_DETECTED)


def test_cycle_detected_on_translated_cycle():
    # The head drifts left two cells every four steps and leaves blanks
    # behind: its visited span grows, so no configuration repeats, but at
    # step 12 it repeats its step-8 snapshot two cells further on, at the
    # frontier again (Lin & Rado's translated cycle).
    table = parse_rule_table("1,0 -> 0,L,2\n1,1 -> 0,HALT\n2,0 -> 1,R,1\n2,1 -> 0,L,1\n")
    assert encode_machine(table) == 1860
    assert simulate(table, RunConfig(max_steps=50)) == NonHaltingProved(CYCLE_DETECTED)
    assert prove_non_halting(table, RunConfig(max_steps=50)) == CYCLE_DETECTED


def test_cycle_proofs_are_sound_on_three_states():
    # Every cycle proved at 30 steps must still run, unproved, at 300.
    rng = random.Random(29)
    long_cfg = RunConfig(
        max_steps=300, check_no_halt_rule=False, check_blank_escape=False, check_cycles=False
    )
    proved = 0
    for _ in range(10_000):
        table = random_table(rng, 3)
        if simulate(table, RunConfig(max_steps=30)) == NonHaltingProved(CYCLE_DETECTED):
            proved += 1
            assert isinstance(simulate(table, long_cfg), StepLimit)
    assert proved > 300


def test_proofs_are_sound_under_longer_budgets():
    # Whatever is proved non-halting must still not halt with 10x the steps.
    rng = random.Random(13)
    cfg = RunConfig(max_steps=10)
    long_cfg = RunConfig(
        max_steps=100, check_no_halt_rule=False, check_blank_escape=False, check_cycles=False
    )
    proved = 0
    for _ in range(3000):
        table = random_table(rng, 2)
        reason = prove_non_halting(table, cfg)
        if reason is not None:
            proved += 1
            assert isinstance(simulate(table, long_cfg), StepLimit)
    assert proved > 500


# --- symmetry transforms


def test_transforms_are_involutive():
    rng = random.Random(17)
    for _ in range(300):
        table = random_table(rng, 3)
        for kind in (COMPLEMENT_SYMBOLS, REFLECT_DIRECTIONS):
            assert transform(transform(table, kind), kind) == table


def test_reflection_reverses_halting_outputs():
    rng = random.Random(19)
    cfg = RunConfig(max_steps=20)
    for _ in range(10_000):
        table = random_table(rng, 2)
        a = simulate(table, cfg)
        b = simulate(transform(table, REFLECT_DIRECTIONS), cfg)
        if isinstance(a, Halted):
            assert isinstance(b, Halted)
            assert b.output == a.output[::-1]
            assert (b.steps, b.used_rules) == (a.steps, a.used_rules)
        else:
            assert type(b) is type(a)


def test_complement_swaps_symbols_against_blank_one():
    comp = str.maketrans("01", "10")
    rng = random.Random(23)
    cfg0 = RunConfig(max_steps=20, blank=0)
    cfg1 = RunConfig(max_steps=20, blank=1)
    for _ in range(10_000):
        table = random_table(rng, 2)
        a = simulate(table, cfg0)
        b = simulate(transform(table, COMPLEMENT_SYMBOLS), cfg1)
        if isinstance(a, Halted):
            assert isinstance(b, Halted)
            assert b.output == a.output.translate(comp)
            assert (b.steps, b.used_rules) == (a.steps, a.used_rules)
        else:
            assert b == a


def test_transform_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        transform(decode_machine(0, 2), "rotate")


# --- debug text format


def test_text_format_round_trip():
    rng = random.Random(29)
    for _ in range(100):
        table = random_table(rng, 3)
        assert parse_rule_table(format_rule_table(table)) == table


def test_text_format_shape():
    table = RuleTable(1, (Step(1, "R", 1), HaltWrite(0)))
    assert format_rule_table(table) == "1,0 -> 1,R,1\n1,1 -> 0,HALT\n"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_rule_table("1,0 -> 1,R,1\n")  # missing (1,1)
    with pytest.raises(ParseError) as err:
        parse_rule_table("1,0 -> 1,R,1\n1,0 -> 0,HALT\n1,1 -> 0,HALT\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_rule_table("garbage\n")
    with pytest.raises(ParseError) as err:  # a state below 1 is an error, not dropped
        parse_rule_table("1,0 -> 1,HALT\n1,1 -> 1,HALT\n0,0 -> 0,L,1\n-3,1 -> 0,HALT\n")
    assert err.value.line == 3


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(max_steps=0)
    with pytest.raises(ValidationError):
        RunConfig(blank=2)


def test_run_config_takes_only_ints():
    for kwargs in ({"max_steps": 10.0}, {"max_steps": True}, {"blank": 1.0}, {"blank": False}):
        with pytest.raises(ValidationError, match="must be an int"):
            RunConfig(**kwargs)
