#!/usr/bin/env python3
"""Enumerate whole rule spaces and watch the output distribution appear.

Runs the 36-machine one-state space and the 10,000-machine two-state
space, prints the run census (how every machine was classified) and the
most frequent outputs, and double-checks that the step cutoff is safely
above every halting runtime: the (2,2) space, and the full (3,2) space on
each blank mode, rerun at ten times their cutoff produce the same table.
"""

from ctm_lab import SpaceSpec, run_space, space_size


def census_line(freq):
    c = freq.census
    return (
        f"{c.total_runs:,} runs: {c.halted:,} halted, "
        f"{c.no_halt_rule:,} had no halting rule, {c.blank_escape:,} escaped on blanks, "
        f"{c.step_limited:,} hit the cutoff"
    )


def main():
    for n in (1, 2):
        spec = SpaceSpec(n)
        freq = run_space(spec)
        print(f"--- ({n},2): {space_size(n):,} machines, cutoff {spec.max_steps} steps")
        print(census_line(freq))
        ranked = sorted(freq.counts.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
        print("most frequent outputs:", ranked[:6])
        print()

    # Parallelism is bookkeeping only: one worker or two give identical bytes.
    # (2,2) is far too small to pay for a pool, so both runs stay in this
    # process; only spaces of 10^9 machines or more fork workers.
    spec = SpaceSpec(2)
    one = run_space(spec)
    two = run_space(spec, workers=2)
    print("1 worker == 2 workers (both in one process for (2,2)), byte for byte:",
          one.canonical_bytes() == two.canonical_bytes())

    # Cutoff sanity: ten times the budget changes no output counts.
    slow = run_space(SpaceSpec(2, max_steps=100))
    print("(2,2) 10x cutoff changes nothing:", slow.counts == one.counts)

    # The same check on the full (3,2) space, cutoff 30 against 300, on each
    # blank mode: every count, producer and census bucket stays put.
    for mode in ("zero", "both"):
        base = run_space(SpaceSpec(3, blank_mode=mode))
        slow = run_space(SpaceSpec(3, blank_mode=mode, max_steps=300))
        same = slow.records() == base.records() and slow.census == base.census
        print(f"(3,2) {mode} 10x cutoff changes nothing:", same)


if __name__ == "__main__":
    main()
