#!/usr/bin/env python3
"""Run every (4,2) machine through run_index_array and compare the table with run_space's.

    python tools/exhaustive_d4.py zero OUT    # writes the merged table to OUT
    python tools/exhaustive_d4.py both OUT

The 18^8 indices run in chunks of 2^24, one pool job each on 2 spawned
processes, and the chunk tables merge in chunk order (FrequencyTable.merge).
The merged table's .ctm bytes, dumps_ctm_table(to_ctm(table)), go to OUT,
whose sha256 the CI job compares with that of run_space's (4,2) table. The tool
then builds that table with run_space in this process, and exits 1 unless
both tables have the same records() (counts, min_used_rules, producers)
and census. It prints its wall time and the largest peak RSS of a worker.

What the comparison proves: run_index_array runs every machine on every
blank with none of run_space's reductions (orbit representatives, namings,
complement images and their producers, first-step halts counted in closed
form), through its own plan of member rows. The two share only _Pass's step
loop, escape words, cycle check and crediting, and the scalar engine is the
oracle of those (tests/test_space.py). So equal tables show that the
reductions lose and double-count no run of (4,2). Runs from a source
checkout without installing: the package is imported from src/.
"""

import argparse
import multiprocessing
import pathlib
import resource
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctm_lab.ctm import dumps_ctm_table, to_ctm  # noqa: E402
from ctm_lab.space import SpaceSpec, empty_table, run_index_array, run_space  # noqa: E402

CHUNK = 1 << 24
WORKERS = 2


def run_chunk(job):
    """The table of the indices start .. start + CHUNK - 1 of spec's space."""
    spec, start = job
    return run_index_array(spec, np.arange(start, min(start + CHUNK, spec.size), dtype=np.int64))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("zero", "both"), help="blank mode of the (4,2) space")
    parser.add_argument("out", type=pathlib.Path, help="where the merged .ctm table goes")
    args = parser.parse_args(argv)
    spec = SpaceSpec(4, blank_mode=args.mode)
    table = empty_table(spec, covers=None)
    starts = range(0, spec.size, CHUNK)
    clock = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        jobs = ((spec, start) for start in starts)
        for done, part in enumerate(pool.imap(run_chunk, jobs), 1):
            table.merge(part)
            if done % 64 == 0 or done == len(starts):
                print(f"{done} of {len(starts)} chunks, {time.perf_counter() - clock:.0f} s",
                      flush=True)
        pool.close()
        pool.join()
    table.validate()
    args.out.write_bytes(dumps_ctm_table(to_ctm(table)))
    worker_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{args.mode}: {spec.size} machines in {time.perf_counter() - clock:.1f} s, "
          f"largest worker peak RSS {worker_mb:.1f} MB; wrote {args.out}")
    reduced = run_space(spec)
    failed = [name for name, ok in (
        ("census", table.census == reduced.census),
        ("records", table.records() == reduced.records()),
    ) if not ok]
    for name in failed:
        print(f"differs from run_space: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
