#!/usr/bin/env python3
"""Regenerate the shipped space tables and the frozen golden reports.

    python tools/regen_data.py            # rewrite the files
    python tools/regen_data.py --check    # compare only; exit 1 naming each file that differs

Everything here is deterministic, so reruns must reproduce the committed
files byte for byte. Runs from a source checkout without installing: the
package is imported from src/. The two full (3,2) enumerations step
machine families rather than single machines (see ctm_lab.space); the
measured --check times are in CHANGES.md.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctm_lab.analysis import (  # noqa: E402
    anomaly_report,
    cross_space_report,
    divergence_report,
    diversity_report,
    report_to_csv,
    used_rules_consistency,
)
from ctm_lab.bdm import BdmConfig  # noqa: E402
from ctm_lab.ctm import dumps_ctm_table, to_ctm  # noqa: E402
from ctm_lab.space import SpaceSpec, run_space  # noqa: E402

DATA = ROOT / "src" / "ctm_lab" / "data"
GOLDENS = ROOT / "tests" / "goldens"


def generate():
    """Every shipped table and golden report, as {path: bytes}."""
    files = {}
    tables = {}
    for n in (2, 3):
        for mode in ("zero", "both"):
            name = f"d{n}_{mode}"
            freq = run_space(SpaceSpec(n, blank_mode=mode))
            tables[name] = to_ctm(freq)
            files[DATA / f"{name}.ctm"] = dumps_ctm_table(tables[name])
            print(f"{name}: {len(tables[name].entries)} strings, halted {freq.census.halted}")

    def freeze(name, report):
        files[GOLDENS / f"{name}.csv"] = report_to_csv(report).encode("utf-8")

    freeze("anomalies_d2_zero", anomaly_report(tables["d2_zero"]))
    freeze("anomalies_d3_zero", anomaly_report(tables["d3_zero"]))
    freeze("anomalies_d3_both", anomaly_report(tables["d3_both"]))
    freeze("used_rules_d3_zero", used_rules_consistency(tables["d3_zero"]))
    freeze("cross_space_zero", cross_space_report(tables["d2_zero"], tables["d3_zero"]))
    freeze(
        "diversity_d3_zero_len12_block6",
        diversity_report(tables["d3_zero"], 12, BdmConfig(block_len=6)),
    )
    corpus = [format(i, "08b") for i in range(256)]
    freeze(
        "divergence_8bit_d3_zero_block4",
        divergence_report(tables["d3_zero"], corpus, BdmConfig(block_len=4)),
    )
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the files on disk instead of writing them")
    args = parser.parse_args(argv)
    files = generate()
    if args.check:
        differ = [
            path for path, data in files.items()
            if not path.exists() or path.read_bytes() != data
        ]
        for path in differ:
            print(f"differs: {path.relative_to(ROOT)}", file=sys.stderr)
        print(f"{len(files) - len(differ)} of {len(files)} files byte-identical")
        return 1 if differ else 0
    for path, data in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
