#!/usr/bin/env python3
"""Where statistics stops and structure begins: entropy, LZ78, and the gaps.

Statistical measures only see symbol frequencies and repeats. Sweeping all
8-bit strings shows the divergence: maximum-entropy strings like 01010101
carry trivially small table complexities, and the diversity sweep shows
LZ78 collapsing 4,096 strings into a handful of cost classes while the
decomposition value tells dozens apart.
"""

from ctm_lab import (
    BdmConfig,
    builtin_table,
    divergence_report,
    diversity_report,
    lz78_bit_length,
    rle_encode,
    shannon_entropy,
)


def main():
    print("entropy('0101')     =", shannon_entropy("0101"))
    print("entropy('0001')     =", round(shannon_entropy("0001"), 4))
    print("rle('1112334')      =", rle_encode("1112334"))
    print("lz78 bits('0001')   =", lz78_bit_length("0001"))

    table = builtin_table("d3_zero")

    corpus = [format(i, "08b") for i in range(256)]
    report = divergence_report(table, corpus, BdmConfig(block_len=4))
    # rows: string, bdm, shannon_entropy, block_entropy, lz78_bits, flagged
    flagged = [row for row in report.section("strings").rows if row[5]]
    print("\nhigh-entropy but low-complexity 8-bit strings:")
    for row in flagged:
        print("  ", row[0], " entropy", row[2])

    sweep = diversity_report(table, 12, BdmConfig(block_len=6))
    summary = dict(zip(sweep.section("summary").columns, sweep.section("summary").rows[0]))
    print(
        f"\n12-bit sweep: {summary['distinct_bdm']} distinct decomposition values "
        f"vs {summary['distinct_lz78']} distinct LZ78 costs over "
        f"{summary['strings_total']} strings"
    )


if __name__ == "__main__":
    main()
