#!/usr/bin/env python3
"""A tour of single machines: indexing, running, and proving non-halting.

Every n-state binary machine lives at one index of the space (4n+2)^(2n).
This script decodes a few, runs them, and shows the three sound arguments
used to discard never-halting machines without burning the step budget:
no halting rule, a blank runway the head escapes down, and a cycle.
"""

from ctm_lab import (
    REFLECT_DIRECTIONS,
    RunConfig,
    decode_machine,
    encode_machine,
    format_rule_table,
    machine_count,
    prove_non_halting,
    simulate,
    transform,
)


def show(title, table, cfg=RunConfig(max_steps=50)):
    print(f"--- {title} (index {encode_machine(table)})")
    print(format_rule_table(table), end="")
    print("outcome:", simulate(table, cfg))
    print()


def main():
    print(f"(2,2) holds {machine_count(2):,} machines; (3,2) holds {machine_count(3):,}.\n")

    # Index 0 is the all-"write 0, move left, stay in state 1" machine: it
    # has no halting rule at all, so it never halts.
    show("the very first machine", decode_machine(0, 2))

    # The last index is all halting writes: it stops after one step.
    show("the very last machine", decode_machine(machine_count(2) - 1, 2))

    # A short worker: writes a pair of ones, then stops.
    show("an arbitrary mid-space machine", decode_machine(7_252, 2))

    # Reflecting directions mirrors the output string.
    table = decode_machine(4_321, 2)
    out = simulate(table, RunConfig(max_steps=50))
    mirrored = simulate(transform(table, REFLECT_DIRECTIONS), RunConfig(max_steps=50))
    print("reflection demo:", out, "vs", mirrored, "\n")

    # prove_non_halting returns the reason, or None when undecided. Index 8
    # walks left over blank tape in states that only move left there. Index
    # 1860 drifts left too, but erases what it wrote: no configuration
    # repeats, yet it repeats itself shifted along the tape (a translated cycle).
    for idx in (0, 5_000, 8, 1_860, 9_999):
        table = decode_machine(idx, 2)
        print(f"index {idx}: proof = {prove_non_halting(table, RunConfig(max_steps=50))}")


if __name__ == "__main__":
    main()
