"""End-to-end checks of the ctm-lab command-line surface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ctm_lab.cli import main
from ctm_lab.ctm import load_ctm_table

TABLE_D2 = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctm_lab" / "data" / "d2_zero.ctm"
TABLE_D3_BOTH = TABLE_D2.with_name("d3_both.ctm")


@pytest.fixture(scope="module")
def small_tables(tmp_path_factory):
    base = tmp_path_factory.mktemp("tables")
    d1 = base / "d1.ctm"
    d2 = base / "d2.ctm"
    assert main(["run-space", "--states", "1", "--out", str(d1)]) == 0
    assert main(["run-space", "--states", "2", "--out", str(d2), "--shards", "3"]) == 0
    return d1, d2


def test_run_space_writes_a_loadable_table(small_tables):
    d1, d2 = small_tables
    table = load_ctm_table(d1)
    assert set(table.entries) == {"0", "1"}
    assert table.sources[0]["census"]["total_runs"] == 36
    assert load_ctm_table(d2).sources[0]["census"]["total_runs"] == 10_000


def test_run_space_requires_out(capsys):
    assert main(["run-space", "--states", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_table_merge(small_tables, tmp_path):
    d1, d2 = small_tables
    out = tmp_path / "merged.ctm"
    assert main(["table", "merge", str(d1), str(d2), "--out", str(out)]) == 0
    merged = load_ctm_table(out)
    assert merged.entries["0"].source_space == 2
    assert len(merged.sources) == 2


def test_ctm_eval_records(small_tables, capsys):
    _, d2 = small_tables
    assert main(["ctm", "eval", "--table", str(d2), "--string", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "string,complexity_bits,probability,count"
    assert out[1].startswith("0,1.60596835884145")

    assert main(["ctm", "eval", "--table", str(d2), "--string", "0" * 40,
                 "--format", "json-lines"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["count"] == 0 and rec["complexity_bits"] == ""


def test_bdm_eval_string_and_file(small_tables, tmp_path, capsys):
    _, d2 = small_tables
    assert main(["bdm", "eval", "--table", str(d2), "--block-len", "2",
                 "--string", "0101"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("0101,")

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("01\n0101\n010101\n")
    assert main(["bdm", "eval", "--table", str(d2), "--block-len", "2",
                 "--file", str(corpus)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4  # header + 3 records


def test_entropy_command(capsys):
    assert main(["entropy", "--string", "0101"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0101,1"
    assert main(["entropy", "--string", "00110011", "--block", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "00110011,2,1"


def test_rle_round_trip_through_cli(capsys):
    assert main(["rle", "encode", "--string", "1112334"]) == 0
    assert capsys.readouterr().out.strip() == "31122314"
    assert main(["rle", "decode", "--string", "31122314"]) == 0
    assert capsys.readouterr().out.strip() == "1112334"


def test_compress_lz78(tmp_path, capsys):
    assert main(["compress", "lz78", "--string", "0001"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0001,6"
    corpus = tmp_path / "c.txt"
    corpus.write_text("0\n00\n")
    assert main(["compress", "lz78", "--file", str(corpus),
                 "--format", "json-lines"]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert recs == [{"string": "0", "bits": 1}, {"string": "00", "bits": 2}]


def test_machine_show(capsys):
    assert main(["machine", "show", "--states", "2", "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "1,0 -> 0,L,1" in out and "# outcome:" in out


def test_reports_via_cli(small_tables, tmp_path, capsys):
    d1, d2 = small_tables
    for cmd in (
        ["report", "length-blocks", "--table", str(d2)],
        ["report", "anomalies", "--table", str(d2)],
        ["report", "used-rules", "--table", str(d2)],
        ["report", "diversity", "--table", str(d2), "--length", "4", "--block-len", "2"],
        ["report", "cross-space", "--small", str(d2), "--large", str(d2)],
    ):
        assert main(cmd) == 0
        assert capsys.readouterr().out.startswith("# ctm-report v1\n")

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(format(i, "06b") for i in range(64)) + "\n")
    assert main(["report", "divergence", "--table", str(d2), "--file", str(corpus),
                 "--block-len", "3", "--format", "json-lines"]) == 0
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first["kind"] == "divergence"


def test_report_out_file(small_tables, tmp_path):
    _, d2 = small_tables
    out = tmp_path / "report.csv"
    assert main(["report", "anomalies", "--table", str(d2), "--out", str(out)]) == 0
    assert out.read_text().startswith("# ctm-report v1\n")


def test_exit_codes(capsys, tmp_path):
    # bad arguments -> validation (1)
    assert main(["run-space"]) == 1
    assert main(["entropy", "--string", ""]) == 1
    assert main(["run-space", "--states", "1", "--shards", "-3",
                 "--out", str(tmp_path / "d1.ctm")]) == 1
    non_object_meta = tmp_path / "list-meta.ctm"
    non_object_meta.write_text(
        "# ctm-table v1\n# meta [1]\n"
        "string,count,probability,complexity_bits,min_used_rules,source_space\n"
    )
    assert main(["ctm", "eval", "--table", str(non_object_meta), "--string", "0101"]) == 1
    for block_len in ("12", "2"):
        assert main(["bdm", "eval", "--table", str(TABLE_D2), "--block-len", block_len,
                     "--string", "01x1010"]) == 1
    # shorter than one block of the default length 12: no blocks are left
    assert main(["bdm", "eval", "--table", str(TABLE_D3_BOTH), "--string", "0101"]) == 1
    # an empty --string is a string, not a missing one; block lengths are positive
    assert main(["bdm", "eval", "--table", str(TABLE_D2), "--string", ""]) == 1
    assert main(["compress", "lz78", "--string", ""]) == 1
    assert main(["entropy", "--string", "0101", "--block", "-1"]) == 1
    # --threads and --format exist only where they are read
    assert main(["entropy", "--string", "0101", "--threads", "2"]) == 1
    assert main(["rle", "encode", "--string", "11", "--format", "json-lines"]) == 1
    # unreadable input -> i/o (2)
    assert main(["ctm", "eval", "--table", str(tmp_path / "missing.ctm"),
                 "--string", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["ctm", "eval", "--table", "{bad}", "--string", "0"],
    ["report", "anomalies", "--table", "{bad}"],
    ["table", "merge", "{bad}", "{bad}", "--out", "{out}"],
    ["report", "divergence", "--table", str(TABLE_D2), "--file", "{bad}"],
    ["bdm", "eval", "--table", str(TABLE_D2), "--file", "{bad}"],
    ["compress", "lz78", "--file", "{bad}"],
])
def test_non_utf8_input_is_a_one_line_parse_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    assert main([a.format(bad=bad, out=tmp_path / "out.ctm") for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctm-lab: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_installed_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["ctm-lab"] == "ctm_lab.cli:main_entry"
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ctm_lab", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ctm-lab ")
