"""Command-line surface: one binary, one subcommand per capability.

Exit codes: 0 success, 1 validation/parse error (including bad arguments),
2 I/O error. Record-producing commands honor --format csv (header plus
comma-separated rows) or json-lines (one JSON object per row), and --out
redirects any output from stdout into a file.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from ._canon import decode_utf8, is_binary, read_file
from .analysis import (
    anomaly_report,
    cross_space_report,
    divergence_report,
    diversity_report,
    length_block_report,
    record_lines,
    report_lines,
    used_rules_consistency,
)
from .baselines import block_entropy, lz78_bit_length, rle_decode, rle_encode, shannon_entropy
from .bdm import (
    BOUNDARY_DROP,
    BOUNDARY_KEEP,
    FALLBACK_ERROR,
    FALLBACK_LOG_LENGTH,
    BdmConfig,
    check_decomposable,
    price_many,
    resolve_config,
)
from .ctm import NORM_ALL, NORM_HALTING, load_ctm_table, merge_ctm, save_ctm_table, to_ctm
from .errors import CtmLabError, ValidationError
from .machine import RunConfig, decode_machine, format_rule_table, simulate
from .space import BLANK_BOTH, BLANK_ZERO, SpaceSpec, run_space


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; our contract reserves 2 for I/O.
    def error(self, message):
        raise ValidationError(message)


def _leaf(sub, name, run, records=True, **kwargs):
    """A subcommand parser that runs run(args), with --out, and --format when
    records is true."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    p.add_argument("--out", help="write output to this file instead of stdout")
    if records:
        p.add_argument(
            "--format", choices=("csv", "json-lines"), default="csv",
            help="record output format (default: csv)",
        )
    return p


def _bdm_flags(parser):
    parser.add_argument("--block-len", type=int,
                        help="block length (default: the table's complete length, the largest L "
                             "such that it holds every binary string of length <= L)")
    parser.add_argument("--keep-tail", action="store_true",
                        help="evaluate the short remainder instead of dropping it")
    parser.add_argument("--strict", action="store_true",
                        help="error on blocks missing from the table instead of penalizing")


def _group(sub, name, **kwargs):
    p = sub.add_parser(name, **kwargs)
    return p.add_subparsers(parser_class=_Parser, dest=f"{name}_command", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctm-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ctm-lab {__version__}")
    sub = parser.add_subparsers(parser_class=_Parser, dest="command", required=True)

    p = _leaf(sub, "run-space", _cmd_run_space, records=False,
              help="enumerate a rule space into a canonical table file")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, capped at the CPU count; a space of 10^9 "
                        "machines or more runs its passes (38 on (4,2), one subtree row "
                        "each) on them, each taking the next pass when it is free, and a "
                        "smaller space runs in one process (default: 1)")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--both-blanks", action="store_true",
                   help="run every machine on blank 0 and blank 1")
    p.add_argument("--max-steps", type=int, default=0)
    p.add_argument("--norm", choices=(NORM_HALTING, NORM_ALL), default=NORM_HALTING)

    p = _leaf(_group(sub, "table", help="table file operations"), "merge", _cmd_table_merge,
              records=False, help="merge two tables, larger rule space winning shared strings")
    p.add_argument("older")
    p.add_argument("newer")

    p = _leaf(_group(sub, "ctm", help="table lookups"), "eval", _cmd_ctm_eval,
              help="complexity of a string according to a table")
    p.add_argument("--table", required=True)
    p.add_argument("--string", required=True)

    p = _leaf(_group(sub, "bdm", help="block decomposition values"), "eval", _cmd_bdm_eval)
    p.add_argument("--table", required=True)
    _bdm_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--string")
    g.add_argument("--file", help="one string per line")

    p = _leaf(sub, "entropy", _cmd_entropy,
              help="Shannon entropy, or block entropy with --block")
    p.add_argument("--string", required=True)
    p.add_argument("--block", type=int, default=0)

    rle_sub = _group(sub, "rle", help="run-length codec")
    for name, codec in (("encode", rle_encode), ("decode", rle_decode)):
        p = _leaf(rle_sub, name, records=False,
                  run=lambda args, codec=codec: _emit(args, [codec(args.string) + "\n"]))
        p.add_argument("--string", required=True)

    p = _leaf(_group(sub, "compress", help="baseline compressors"), "lz78", _cmd_compress)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--string")
    g.add_argument("--file", help="one string per line")

    p = _leaf(_group(sub, "machine", help="single machine inspection"), "show", _cmd_machine_show,
              records=False, help="decode an index, print its table and run outcome")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=100)

    rep_sub = _group(sub, "report", help="distribution reports")
    for name, report in (("length-blocks", length_block_report), ("anomalies", anomaly_report),
                         ("used-rules", used_rules_consistency)):
        p = _leaf(rep_sub, name, _report_cmd(lambda args, report=report:
                                             report(load_ctm_table(args.table))))
        p.add_argument("--table", required=True)
    p = _leaf(rep_sub, "divergence", _report_cmd(lambda args: divergence_report(
        load_ctm_table(args.table), _read_corpus(args.file), _bdm_config(args))))
    p.add_argument("--table", required=True)
    p.add_argument("--file", required=True, help="corpus, one string per line")
    _bdm_flags(p)
    p = _leaf(rep_sub, "diversity", _report_cmd(lambda args: diversity_report(
        load_ctm_table(args.table), args.length, _bdm_config(args))))
    p.add_argument("--table", required=True)
    p.add_argument("--length", type=int, required=True)
    _bdm_flags(p)
    p = _leaf(rep_sub, "cross-space", _report_cmd(lambda args: cross_space_report(
        load_ctm_table(args.small), load_ctm_table(args.large))))
    p.add_argument("--small", required=True)
    p.add_argument("--large", required=True)

    return parser


def _emit(args, lines) -> None:
    """Write the lines, each ending in a newline, as they come."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _emit_records(args, columns, rows) -> None:
    _emit(args, record_lines(columns, rows, args.format))


def _report_cmd(build):
    """The command that emits the report build(args)."""
    def run(args):
        _emit(args, report_lines(build(args), args.format))
    return run


def _bdm_config(args) -> BdmConfig:
    """The BDM flags; a missing --block-len is resolved against the table later."""
    return BdmConfig(
        block_len=args.block_len,
        boundary=BOUNDARY_KEEP if args.keep_tail else BOUNDARY_DROP,
        fallback=FALLBACK_ERROR if args.strict else FALLBACK_LOG_LENGTH,
    )


def _parse_corpus(data: bytes):
    return [s for s in map(str.strip, decode_utf8(data).splitlines()) if s]


def _read_corpus(path):
    return read_file(path, _parse_corpus)


def _cmd_run_space(args) -> None:
    spec = SpaceSpec(
        n=args.states,
        blank_mode=BLANK_BOTH if args.both_blanks else BLANK_ZERO,
        max_steps=args.max_steps,
    )
    if not args.out:
        raise ValidationError("run-space requires --out")
    freq = run_space(spec, workers=args.threads)
    save_ctm_table(to_ctm(freq, args.norm), args.out)


def _cmd_table_merge(args) -> None:
    if not args.out:
        raise ValidationError("table merge requires --out")
    merged = merge_ctm(load_ctm_table(args.older), load_ctm_table(args.newer))
    save_ctm_table(merged, args.out)


def _cmd_ctm_eval(args) -> None:
    if not is_binary(args.string):
        raise ValidationError(f"--string must be a nonempty binary string, got {args.string!r}")
    table = load_ctm_table(args.table)
    entry = table.entries.get(args.string)
    row = (
        (args.string, entry.complexity_bits, entry.probability, entry.count)
        if entry is not None
        else (args.string, "", "", 0)
    )
    _emit_records(args, ("string", "complexity_bits", "probability", "count"), [row])


def _cmd_bdm_eval(args) -> None:
    table = load_ctm_table(args.table)
    cfg = resolve_config(_bdm_config(args), table)
    strings = [args.string] if args.string is not None else _read_corpus(args.file)
    for s in strings:
        check_decomposable(s, cfg)
    rows = [(s, v) for s, (v, _, _) in zip(strings, price_many(strings, table, cfg))]
    _emit_records(args, ("string", "value"), rows)


def _cmd_entropy(args) -> None:
    if args.block:
        value = block_entropy(args.string, args.block)
        columns = ("string", "block_len", "bits_per_block")
        rows = [(args.string, args.block, value)]
    else:
        columns = ("string", "bits_per_symbol")
        rows = [(args.string, shannon_entropy(args.string))]
    _emit_records(args, columns, rows)


def _cmd_compress(args) -> None:
    strings = [args.string] if args.string is not None else _read_corpus(args.file)
    rows = [(s, lz78_bit_length(s)) for s in strings]
    _emit_records(args, ("string", "bits"), rows)


def _cmd_machine_show(args) -> None:
    table = decode_machine(args.index, args.states)
    outcome = simulate(table, RunConfig(max_steps=args.max_steps))
    _emit(args, [format_rule_table(table) + f"# outcome: {outcome!r}\n"])


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.run(args)
        return 0
    except CtmLabError as exc:
        print(f"ctm-lab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ctm-lab: i/o error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
