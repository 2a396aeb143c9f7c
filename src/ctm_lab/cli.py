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
from ._canon import decode_utf8, fmt_value, meta_dumps, read_file
from .analysis import (
    anomaly_report,
    cross_space_report,
    divergence_report,
    diversity_report,
    length_block_report,
    report_to_csv,
    report_to_json_lines,
    used_rules_consistency,
)
from .baselines import block_entropy, lz78_bit_length, rle_decode, rle_encode, shannon_entropy
from .bdm import (
    BOUNDARY_DROP,
    BOUNDARY_KEEP,
    FALLBACK_ERROR,
    FALLBACK_LOG_LENGTH,
    BdmConfig,
    decompose_many,
    decomposition_value,
)
from .ctm import NORM_ALL, NORM_HALTING, load_ctm_table, merge_ctm, save_ctm_table, to_ctm
from .errors import CtmLabError, ValidationError
from .machine import RunConfig, decode_machine, format_rule_table, simulate
from .space import BLANK_BOTH, BLANK_ZERO, SpaceSpec, run_space


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; our contract reserves 2 for I/O.
    def error(self, message):
        raise ValidationError(message)


def _out_flag(parser):
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _record_flags(parser):
    _out_flag(parser)
    parser.add_argument(
        "--format", choices=("csv", "json-lines"), default="csv",
        help="record output format (default: csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctm-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ctm-lab {__version__}")
    sub = parser.add_subparsers(parser_class=_Parser, dest="command", required=True)

    p = sub.add_parser("run-space",
                       help="enumerate a rule space into a canonical table file")
    _out_flag(p)
    p.add_argument("--threads", type=int, default=1,
                   help="at most this many worker processes; a space below 10^9 machines "
                        "runs in one process (default: 1)")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--both-blanks", action="store_true",
                   help="run every machine on blank 0 and blank 1")
    p.add_argument("--max-steps", type=int, default=0)
    p.add_argument("--norm", choices=(NORM_HALTING, NORM_ALL), default=NORM_HALTING)

    p = sub.add_parser("table", help="table file operations")
    table_sub = p.add_subparsers(parser_class=_Parser, dest="table_command", required=True)
    m = table_sub.add_parser("merge",
                             help="merge two tables, larger rule space winning shared strings")
    _out_flag(m)
    m.add_argument("older")
    m.add_argument("newer")

    p = sub.add_parser("ctm", help="table lookups")
    ctm_sub = p.add_subparsers(parser_class=_Parser, dest="ctm_command", required=True)
    e = ctm_sub.add_parser("eval",
                           help="complexity of a string according to a table")
    _record_flags(e)
    e.add_argument("--table", required=True)
    e.add_argument("--string", required=True)

    p = sub.add_parser("bdm", help="block decomposition values")
    bdm_sub = p.add_subparsers(parser_class=_Parser, dest="bdm_command", required=True)
    e = bdm_sub.add_parser("eval")
    _record_flags(e)
    e.add_argument("--table", required=True)
    e.add_argument("--block-len", type=int, default=12)
    e.add_argument("--keep-tail", action="store_true",
                   help="evaluate the short remainder instead of dropping it")
    e.add_argument("--strict", action="store_true",
                   help="error on blocks missing from the table instead of penalizing")
    g = e.add_mutually_exclusive_group(required=True)
    g.add_argument("--string")
    g.add_argument("--file", help="one string per line")

    p = sub.add_parser("entropy",
                       help="Shannon entropy, or block entropy with --block")
    _record_flags(p)
    p.add_argument("--string", required=True)
    p.add_argument("--block", type=int, default=0)

    p = sub.add_parser("rle", help="run-length codec")
    rle_sub = p.add_subparsers(parser_class=_Parser, dest="rle_command", required=True)
    for name in ("encode", "decode"):
        r = rle_sub.add_parser(name)
        _out_flag(r)
        r.add_argument("--string", required=True)

    p = sub.add_parser("compress", help="baseline compressors")
    comp_sub = p.add_subparsers(parser_class=_Parser, dest="compress_command", required=True)
    lz = comp_sub.add_parser("lz78")
    _record_flags(lz)
    g = lz.add_mutually_exclusive_group(required=True)
    g.add_argument("--string")
    g.add_argument("--file", help="one string per line")

    p = sub.add_parser("machine", help="single machine inspection")
    mach_sub = p.add_subparsers(parser_class=_Parser, dest="machine_command", required=True)
    s = mach_sub.add_parser("show",
                            help="decode an index, print its table and run outcome")
    _out_flag(s)
    s.add_argument("--states", type=int, required=True)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--max-steps", type=int, default=100)

    p = sub.add_parser("report", help="distribution reports")
    rep_sub = p.add_subparsers(parser_class=_Parser, dest="report_command", required=True)
    for name in ("length-blocks", "anomalies", "used-rules"):
        r = rep_sub.add_parser(name)
        _record_flags(r)
        r.add_argument("--table", required=True)
    r = rep_sub.add_parser("divergence")
    _record_flags(r)
    r.add_argument("--table", required=True)
    r.add_argument("--file", required=True, help="corpus, one string per line")
    r.add_argument("--block-len", type=int, default=12)
    r.add_argument("--keep-tail", action="store_true")
    r.add_argument("--strict", action="store_true")
    r = rep_sub.add_parser("diversity")
    _record_flags(r)
    r.add_argument("--table", required=True)
    r.add_argument("--length", type=int, required=True)
    r.add_argument("--block-len", type=int, default=6)
    r.add_argument("--keep-tail", action="store_true")
    r.add_argument("--strict", action="store_true")
    r = rep_sub.add_parser("cross-space")
    _record_flags(r)
    r.add_argument("--small", required=True)
    r.add_argument("--large", required=True)

    return parser


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_records(args, columns, rows) -> None:
    if args.format == "json-lines":
        lines = [meta_dumps(dict(zip(columns, row))) for row in rows]
    else:
        lines = [",".join(columns)] + [",".join(fmt_value(v) for v in row) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def _emit_report(args, report) -> None:
    if args.format == "json-lines":
        _emit(args, report_to_json_lines(report))
    else:
        _emit(args, report_to_csv(report))


def _bdm_config(args) -> BdmConfig:
    return BdmConfig(
        block_len=args.block_len,
        boundary=BOUNDARY_KEEP if args.keep_tail else BOUNDARY_DROP,
        fallback=FALLBACK_ERROR if args.strict else FALLBACK_LOG_LENGTH,
    )


def _parse_corpus(data: bytes):
    return [line.strip() for line in decode_utf8(data).splitlines() if line.strip()]


def _read_corpus(path):
    return read_file(path, _parse_corpus)


def _cmd_run_space(args) -> int:
    if not args.out:
        raise ValidationError("run-space requires --out")
    spec = SpaceSpec(
        n=args.states,
        blank_mode=BLANK_BOTH if args.both_blanks else BLANK_ZERO,
        max_steps=args.max_steps,
    )
    freq = run_space(spec, workers=args.threads)
    save_ctm_table(to_ctm(freq, args.norm), args.out)
    return 0


def _cmd_table_merge(args) -> int:
    if not args.out:
        raise ValidationError("table merge requires --out")
    merged = merge_ctm(load_ctm_table(args.older), load_ctm_table(args.newer))
    save_ctm_table(merged, args.out)
    return 0


def _cmd_ctm_eval(args) -> int:
    table = load_ctm_table(args.table)
    entry = table.entries.get(args.string)
    row = (
        (args.string, entry.complexity_bits, entry.probability, entry.count)
        if entry is not None
        else (args.string, "", "", 0)
    )
    _emit_records(args, ("string", "complexity_bits", "probability", "count"), [row])
    return 0


def _cmd_bdm_eval(args) -> int:
    table = load_ctm_table(args.table)
    cfg = _bdm_config(args)
    strings = [args.string] if args.string is not None else _read_corpus(args.file)
    decomps = decompose_many(strings, cfg)
    rows = [(s, decomposition_value(d, table, cfg)) for s, d in zip(strings, decomps)]
    _emit_records(args, ("string", "value"), rows)
    return 0


def _cmd_entropy(args) -> int:
    if args.block:
        value = block_entropy(args.string, args.block)
        columns = ("string", "block_len", "bits_per_block")
        rows = [(args.string, args.block, value)]
    else:
        columns = ("string", "bits_per_symbol")
        rows = [(args.string, shannon_entropy(args.string))]
    _emit_records(args, columns, rows)
    return 0


def _cmd_rle(args) -> int:
    codec = rle_encode if args.rle_command == "encode" else rle_decode
    _emit(args, codec(args.string) + "\n")
    return 0


def _cmd_compress(args) -> int:
    strings = [args.string] if args.string is not None else _read_corpus(args.file)
    rows = [(s, lz78_bit_length(s)) for s in strings]
    _emit_records(args, ("string", "bits"), rows)
    return 0


def _cmd_machine_show(args) -> int:
    table = decode_machine(args.index, args.states)
    outcome = simulate(table, RunConfig(max_steps=args.max_steps))
    _emit(args, format_rule_table(table) + f"# outcome: {outcome!r}\n")
    return 0


def _cmd_report(args) -> int:
    if args.report_command == "cross-space":
        report = cross_space_report(load_ctm_table(args.small), load_ctm_table(args.large))
    else:
        table = load_ctm_table(args.table)
        if args.report_command == "length-blocks":
            report = length_block_report(table)
        elif args.report_command == "anomalies":
            report = anomaly_report(table)
        elif args.report_command == "used-rules":
            report = used_rules_consistency(table)
        elif args.report_command == "divergence":
            report = divergence_report(table, _read_corpus(args.file), _bdm_config(args))
        elif args.report_command == "diversity":
            report = diversity_report(table, args.length, _bdm_config(args))
        else:
            raise ValidationError(f"unknown report {args.report_command!r}")
    _emit_report(args, report)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run-space":
            return _cmd_run_space(args)
        if args.command == "table":
            return _cmd_table_merge(args)
        if args.command == "ctm":
            return _cmd_ctm_eval(args)
        if args.command == "bdm":
            return _cmd_bdm_eval(args)
        if args.command == "entropy":
            return _cmd_entropy(args)
        if args.command == "rle":
            return _cmd_rle(args)
        if args.command == "compress":
            return _cmd_compress(args)
        if args.command == "machine":
            return _cmd_machine_show(args)
        if args.command == "report":
            return _cmd_report(args)
        raise ValidationError(f"unknown command {args.command!r}")
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
