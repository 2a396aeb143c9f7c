"""Busy-Beaver-style binary Turing machines.

A machine in the rule space (n, 2) has states 1..n over symbols {0, 1} and
halts in-transition: each of its 2n entries is either a step (write, move,
next state) or a terminal write that stops the machine without moving the
head. That gives exactly 4n + 2 possible actions per entry, so the space
holds (4n + 2)^(2n) machines, each reachable through a fixed mixed-radix
index <-> table bijection.

Simulation starts in state 1 on a bi-infinite blank tape with the head at
cell 0. The output of a halting run is the tape content over the contiguous
span of every cell the head visited, read left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import ParseError, ValidationError, require_int

LEFT = "L"
RIGHT = "R"
MOVES = (LEFT, RIGHT)

COMPLEMENT_SYMBOLS = "complement_symbols"
REFLECT_DIRECTIONS = "reflect_directions"

NO_HALT_RULE = "no_halt_rule"
BLANK_ESCAPE = "blank_escape"
CYCLE_DETECTED = "cycle_detected"
PROOF_REASONS = (NO_HALT_RULE, BLANK_ESCAPE, CYCLE_DETECTED)


@dataclass(frozen=True)
class Step:
    """Write a symbol, move the head one cell, enter the next state."""

    write: int
    move: str
    next_state: int


@dataclass(frozen=True)
class HaltWrite:
    """Write a symbol and stop; the head does not move."""

    write: int


Action = Union[Step, HaltWrite]


def action_count(n: int) -> int:
    """Distinct actions available to one entry of an n-state machine."""
    return 4 * n + 2


def machine_count(n: int) -> int:
    """Size of the rule space (n, 2) under the fixed formalism."""
    require_int("n", n)
    return action_count(n) ** (2 * n)


def _action_ordinal(action: Action, n: int) -> int:
    # Fixed ordering: steps by (write asc, L before R, next asc), then
    # HaltWrite(0), HaltWrite(1).
    if isinstance(action, HaltWrite):
        return 4 * n + action.write
    move = 0 if action.move == LEFT else 1
    return action.write * (2 * n) + move * n + (action.next_state - 1)


def _ordinal_action(ordinal: int, n: int) -> Action:
    if ordinal >= 4 * n:
        return HaltWrite(ordinal - 4 * n)
    write, rest = divmod(ordinal, 2 * n)
    move, next0 = divmod(rest, n)
    return Step(write, MOVES[move], next0 + 1)


@dataclass(frozen=True)
class RuleTable:
    """Complete transition function; entry (state s, read r) sits at slot 2(s-1)+r."""

    n: int
    entries: tuple

    def __post_init__(self):
        require_int("n", self.n)
        if self.n < 1:
            raise ValidationError(f"state count must be >= 1, got {self.n}")
        if len(self.entries) != 2 * self.n:
            raise ValidationError(
                f"expected {2 * self.n} entries for n={self.n}, got {len(self.entries)}"
            )
        for action in self.entries:
            if isinstance(action, Step):
                if action.write not in (0, 1):
                    raise ValidationError(f"invalid write symbol in {action!r}")
                if action.move not in MOVES:
                    raise ValidationError(f"invalid move in {action!r}")
                if not 1 <= action.next_state <= self.n:
                    raise ValidationError(f"next state out of range in {action!r}")
            elif isinstance(action, HaltWrite):
                if action.write not in (0, 1):
                    raise ValidationError(f"invalid write symbol in {action!r}")
            else:
                raise ValidationError(f"not an action: {action!r}")

    def entry(self, state: int, read: int) -> Action:
        return self.entries[2 * (state - 1) + read]

    def has_halt_rule(self) -> bool:
        return any(isinstance(a, HaltWrite) for a in self.entries)


def decode_machine(index: int, n: int) -> RuleTable:
    """Decode a machine index into its rule table.

    Mixed-radix decoding in base 4n + 2 over 2n digits; entry (1, 0) is the
    most significant digit, then (1, 1), (2, 0), and so on.
    """
    require_int("index", index)
    total = machine_count(n)
    if not 0 <= index < total:
        raise ValidationError(f"index {index} out of range [0, {total}) for n={n}")
    base = action_count(n)
    ordinals = []
    rem = index
    for _ in range(2 * n):
        rem, o = divmod(rem, base)
        ordinals.append(o)
    ordinals.reverse()
    return RuleTable(n, tuple(_ordinal_action(o, n) for o in ordinals))


def encode_machine(table: RuleTable) -> int:
    """Inverse of decode_machine: encode(decode(i)) == i for every index."""
    base = action_count(table.n)
    index = 0
    for action in table.entries:
        index = index * base + _action_ordinal(action, table.n)
    return index


@dataclass(frozen=True)
class RunConfig:
    """Simulation bounds and which non-halting analyses to run inline.

    Defaults suit single-machine inspection: all sound checks on. Space
    runs build theirs with SpaceSpec.run_config, which keeps the
    no-halt-rule and blank-escape proofs and turns cycle detection off to
    keep the scalar engine independent of the vector engine's cycle check.
    """

    max_steps: int = 100
    blank: int = 0
    check_no_halt_rule: bool = True
    check_blank_escape: bool = True
    check_cycles: bool = True

    def __post_init__(self):
        require_int("max_steps", self.max_steps)
        require_int("blank", self.blank)
        if self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")
        if self.blank not in (0, 1):
            raise ValidationError("blank symbol must be 0 or 1")


@dataclass(frozen=True)
class Halted:
    output: str
    steps: int
    used_rules: int
    first_cell: int
    last_cell: int


@dataclass(frozen=True)
class NonHaltingProved:
    reason: str


@dataclass(frozen=True)
class StepLimit:
    pass


RunOutcome = Union[Halted, NonHaltingProved, StepLimit]

STEP_LIMIT = StepLimit()


def escape_closure(table: RuleTable, blank: int):
    """Per (state, direction) flags for the blank-runway argument.

    esc[s-1][d] is True when, reading only blanks from state s, every
    transition is a step moving in direction d (0 = left, 1 = right). A
    head that enters untouched tape in such a state keeps walking away
    forever, so the machine cannot halt.
    """
    n = table.n
    esc = [[False, False] for _ in range(n)]
    for d_idx, d in enumerate(MOVES):
        for start in range(1, n + 1):
            ok = True
            seen = set()
            cur = start
            while cur not in seen:
                seen.add(cur)
                action = table.entry(cur, blank)
                if isinstance(action, HaltWrite) or action.move != d:
                    ok = False
                    break
                cur = action.next_state
            esc[start - 1][d_idx] = ok
    return esc


def simulate(table: RuleTable, cfg: RunConfig = RunConfig()) -> RunOutcome:
    """Run a machine from a blank tape; deterministic in (table, cfg).

    Returns Halted with the visited-span output, NonHaltingProved when an
    enabled sound check fires, or StepLimit after cfg.max_steps steps. The
    cycle check is space._Pass.looped's rule, over the dict tape, no window.
    """
    if cfg.check_no_halt_rule and not table.has_halt_rule():
        return NonHaltingProved(NO_HALT_RULE)
    esc = escape_closure(table, cfg.blank) if cfg.check_blank_escape else None

    blank = cfg.blank
    tape = {}
    pos = lo = hi = used = 0
    state = 1
    check_cycles = cfg.check_cycles
    s_tape = None  # the last snapshot's tape; s_state, s_pos, s_lo, s_hi and [a, b] go with it

    for step in range(1, cfg.max_steps + 1):
        sym = tape.get(pos, blank)
        slot = 2 * (state - 1) + sym
        used |= 1 << slot
        action = table.entries[slot]
        if isinstance(action, HaltWrite):
            tape[pos] = action.write
            output = "".join(str(tape.get(c, blank)) for c in range(lo, hi + 1))
            return Halted(output, step, used.bit_count(), lo, hi)
        tape[pos] = action.write
        pos += 1 if action.move == RIGHT else -1
        state = action.next_state
        if pos > hi:
            if esc is not None and esc[state - 1][1]:
                return NonHaltingProved(BLANK_ESCAPE)
            hi = pos
        elif pos < lo:
            if esc is not None and esc[state - 1][0]:
                return NonHaltingProved(BLANK_ESCAPE)
            lo = pos
        if check_cycles:
            if s_tape is not None:
                a, b = min(a, pos), max(b, pos)
                if (state == s_state and (pos <= s_pos or hi - pos == s_hi - s_pos)
                        and (pos >= s_pos or pos - lo == s_pos - s_lo)
                        and all(tape.get(pos + k, blank) == s_tape.get(s_pos + k, blank) for k in
                                range(max(a - s_pos, lo - pos), min(b - s_pos, hi - pos) + 1))):
                    return NonHaltingProved(CYCLE_DETECTED)
            if step >= 8 and step & (step - 1) == 0 and step < cfg.max_steps:
                s_state, s_pos, s_lo, s_hi, s_tape, a, b = state, pos, lo, hi, dict(tape), pos, pos
    return STEP_LIMIT


def prove_non_halting(table: RuleTable, cfg: RunConfig = RunConfig()) -> Optional[str]:
    """Try to prove the machine never halts from a blank tape.

    Sound but necessarily incomplete: a returned reason is a proof, None
    says nothing. All three analyses are probed regardless of the cfg
    flags; cfg supplies the step bound and the blank (max_steps, blank).
    """
    if not table.has_halt_rule():
        return NO_HALT_RULE
    probe = replace(
        cfg, check_no_halt_rule=True, check_blank_escape=True, check_cycles=True
    )
    outcome = simulate(table, probe)
    if isinstance(outcome, NonHaltingProved):
        return outcome.reason
    return None


def transform(table: RuleTable, kind: str) -> RuleTable:
    """Symmetry transform of a rule table; involutive for both kinds.

    complement_symbols swaps the read-0/read-1 entry of every state and
    complements every written symbol; reflect_directions swaps L and R.
    """
    if kind == COMPLEMENT_SYMBOLS:
        entries = []
        for state in range(1, table.n + 1):
            for read in (0, 1):
                action = table.entry(state, 1 - read)
                if isinstance(action, HaltWrite):
                    entries.append(HaltWrite(1 - action.write))
                else:
                    entries.append(Step(1 - action.write, action.move, action.next_state))
        return RuleTable(table.n, tuple(entries))
    if kind == REFLECT_DIRECTIONS:
        entries = []
        for action in table.entries:
            if isinstance(action, HaltWrite):
                entries.append(action)
            else:
                entries.append(
                    Step(action.write, LEFT if action.move == RIGHT else RIGHT,
                         action.next_state)
                )
        return RuleTable(table.n, tuple(entries))
    raise ValidationError(f"unknown transform kind: {kind!r}")


def format_rule_table(table: RuleTable) -> str:
    """Debug text form, one `state,read -> action` line per entry."""
    lines = []
    for state in range(1, table.n + 1):
        for read in (0, 1):
            action = table.entry(state, read)
            if isinstance(action, HaltWrite):
                lines.append(f"{state},{read} -> {action.write},HALT")
            else:
                lines.append(
                    f"{state},{read} -> {action.write},{action.move},{action.next_state}"
                )
    return "\n".join(lines) + "\n"


def parse_rule_table(text: str) -> RuleTable:
    """Parse the debug text form back into a RuleTable."""
    found = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, action_text = line.split("->")
            state_s, read_s = head.strip().split(",")
            state, read = int(state_s), int(read_s)
            parts = [p.strip() for p in action_text.strip().split(",")]
            if len(parts) == 2 and parts[1] == "HALT":
                action = HaltWrite(int(parts[0]))
            elif len(parts) == 3:
                action = Step(int(parts[0]), parts[1], int(parts[2]))
            else:
                raise ValueError("bad action")
        except ValueError as exc:
            raise ParseError(f"cannot parse entry: {raw!r} ({exc})", line=lineno) from exc
        if state < 1 or read not in (0, 1):
            raise ParseError(f"state must be >= 1, read 0 or 1: {raw!r}", line=lineno)
        if (state, read) in found:
            raise ParseError(f"duplicate entry for state {state}, read {read}", line=lineno)
        found[(state, read)] = action
    if not found:
        raise ParseError("no entries found")
    n = max(state for state, _ in found)
    missing = [
        (s, r) for s in range(1, n + 1) for r in (0, 1) if (s, r) not in found
    ]
    if missing:
        raise ParseError(f"missing entries: {missing}")
    entries = tuple(found[(s, r)] for s in range(1, n + 1) for r in (0, 1))
    try:
        return RuleTable(n, entries)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
