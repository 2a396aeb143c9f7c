"""End-to-end checks of the ctm-lab command-line surface."""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    assert main(["run-space", "--states", "2", "--out", str(d2)]) == 0
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


def test_run_space_refuses_five_states_with_one_error_line(tmp_path, capsys):
    # one (5,2) pass outgrows the memory of a small box (space_size's error
    # text gives its measured size): space_size refuses the spec before the
    # run starts, with one line and no file
    out = tmp_path / "d5.ctm"
    assert main(["run-space", "--states", "5", "--max-steps", "30", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctm-lab: error: ") and err.count("\n") == 1
    assert "n <= 4" in err and "Traceback" not in err
    assert not out.exists()
    # the spec is checked before --out, so the same line comes without it
    assert main(["run-space", "--states", "5", "--max-steps", "30"]) == 1
    assert capsys.readouterr().err == err


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


def test_ctm_eval_rejects_strings_no_table_can_hold(capsys):
    # these used to print an empty row with count 0 and exit 0; a binary
    # string the table lacks still does (test_ctm_eval_records)
    for string in ("abc", "", "01 "):
        assert main(["ctm", "eval", "--table", str(TABLE_D2), "--string", string]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1


def test_cross_space_rejects_a_small_table_from_the_larger_space(small_tables, capsys):
    d1, d2 = small_tables
    assert main(["report", "cross-space", "--small", str(d2), "--large", str(d1)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "n = 2" in err


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


def test_bdm_commands_default_to_the_complete_length(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(format(i * 37 % 4096, "012b") for i in range(40)) + "\n")
    for name, length in (("d2_zero", 2), ("d2_both", 3), ("d3_zero", 5), ("d3_both", 5)):
        table = str(TABLE_D2.with_name(f"{name}.ctm"))
        for cmd in (["bdm", "eval", "--table", table, "--file", str(corpus)],
                    ["report", "divergence", "--table", table, "--file", str(corpus)],
                    ["report", "diversity", "--table", table, "--length", "8", "--keep-tail"]):
            assert main(cmd) == 0
            default = capsys.readouterr().out
            assert main(cmd + ["--block-len", str(length)]) == 0
            assert default == capsys.readouterr().out


def test_bdm_eval_of_the_alternation_on_d3_both(capsys):
    # blocks 01010 and 10101, tail 01 dropped: both blocks are in the table
    assert main(["bdm", "eval", "--table", str(TABLE_D3_BOTH),
                 "--string", "010101010101"]) == 0
    assert capsys.readouterr().out == "string,value\n010101010101,29.08432259853911\n"


def test_report_out_file(small_tables, tmp_path):
    _, d2 = small_tables
    out = tmp_path / "report.csv"
    assert main(["report", "anomalies", "--table", str(d2), "--out", str(out)]) == 0
    assert out.read_text().startswith("# ctm-report v1\n")


def test_streamed_report_equals_the_joined_text(tmp_path, capsys):
    from ctm_lab.analysis import divergence_report, report_to_csv, report_to_json_lines
    from ctm_lab.bdm import BdmConfig

    # padded and blank lines: a corpus line is stripped, and dropped if empty
    strings = [format(i * 37 % 4096, "012b") for i in range(40)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(f"  {s}\t" if i % 3 else s for i, s in enumerate(strings))
                      + "\n\n   \n")
    report = divergence_report(load_ctm_table(TABLE_D3_BOTH), strings, BdmConfig(block_len=4))
    out = tmp_path / "report.txt"
    for fmt, text in (("csv", report_to_csv(report)), ("json-lines", report_to_json_lines(report))):
        argv = ["report", "divergence", "--table", str(TABLE_D3_BOTH), "--file", str(corpus),
                "--block-len", "4", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text


def test_exit_codes(capsys, tmp_path):
    # bad arguments -> validation (1)
    assert main(["run-space"]) == 1
    assert main(["entropy", "--string", ""]) == 1
    assert main(["run-space", "--states", "1", "--threads", "0",
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
    # shorter than one block of d3_both's complete length 5: no blocks are left
    assert main(["bdm", "eval", "--table", str(TABLE_D3_BOTH), "--string", "0101"]) == 1
    # an empty --string is a string, not a missing one; block lengths are positive
    assert main(["bdm", "eval", "--table", str(TABLE_D2), "--string", ""]) == 1
    assert main(["compress", "lz78", "--string", ""]) == 1
    assert main(["entropy", "--string", "0101", "--block", "-1"]) == 1
    # a space needs a state: this used to report "index 5 out of range [0, 1) for n=0"
    for states in ("0", "-1"):
        assert main(["machine", "show", "--states", states, "--index", "5"]) == 1
        assert f"state count must be >= 1, got {states}" in capsys.readouterr().err
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
    assert str(bad) in err


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_python(*args):
    """A fresh interpreter that imports the package from src/."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_installed_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["ctm-lab"] == "ctm_lab.cli:main_entry"
    proc = _run_python("-m", "ctm_lab", "--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("ctm-lab ")


def test_numpy_is_the_only_runtime_dependency():
    """Importing the package and its CLI loads no third-party package but numpy.

    Every CLI command pays for its imports; a heavy one used only for a
    rank correlation once cost each process about a second.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in declared] == ["numpy"]
    proc = _run_python("-c", (
        "import sys; before = set(sys.modules); import ctm_lab, ctm_lab.cli; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before})"
    ))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split()) - set(sys.stdlib_module_names)
    assert {m for m in loaded if not m.startswith("_")} == {"ctm_lab", "numpy"}


def test_importing_the_package_leaves_multiprocessing_unloaded():
    # only run_space's pool needs multiprocessing, so it imports it there and
    # no command that runs no pool pays for the import
    proc = _run_python("-c", (
        "import sys; import ctm_lab, ctm_lab.cli; print('multiprocessing' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# --- fuzzing: any input is an exit code and at most one line on stderr

SHIPPED = st.sampled_from([TABLE_D2.read_bytes(), TABLE_D3_BOTH.read_bytes()])


def _cut(data, lo, hi, insert):
    lo, hi = sorted((lo % (len(data) + 1), hi % (len(data) + 1)))
    return data[:lo] + insert + data[hi:]


# random bytes, shipped tables as they are, truncated, and with a span
# replaced by a few random bytes
INPUT_FILES = st.one_of(
    st.binary(max_size=300),
    SHIPPED,
    st.builds(_cut, SHIPPED, st.integers(0), st.integers(0), st.just(b"")),
    st.builds(_cut, SHIPPED, st.integers(0), st.integers(0), st.binary(max_size=4)),
)
BINARY_LINES = st.lists(st.text(alphabet="01", max_size=40), max_size=30).map(
    lambda lines: "\n".join(lines).encode()
)
TEXT = st.one_of(st.text(max_size=40), st.text(alphabet="01", max_size=40),
                 st.text(alphabet="0123456789", max_size=40))
SMALL_INT = st.integers(-3, 20)


def _fuzz_argv(draw, table, other, corpus, out):
    """One command line of a random subcommand over the given input files."""

    def maybe(*args):
        return list(args) if draw(st.booleans()) else []

    text = "--string=" + draw(TEXT)
    record = maybe("--format", draw(st.sampled_from(["csv", "json-lines"]))) + maybe("--out", out)
    bdm = ["--block-len", str(draw(SMALL_INT))] + maybe("--keep-tail") + maybe("--strict")
    string_or_file = draw(st.sampled_from([[text], ["--file", corpus]]))
    choices = {
        # small spaces only, and no worker pool: a (3,2) run or a spawned
        # pool per example would not fit the Tier-1 time budget
        "run-space": lambda: [
            "run-space", "--states", str(draw(st.integers(1, 2))), "--out", out,
            *maybe("--both-blanks"), *maybe("--max-steps", str(draw(st.integers(-2, 200)))),
            *maybe("--threads", str(draw(st.integers(-1, 1)))),
            *maybe("--norm", draw(st.sampled_from(["halting_machines", "all_machines"]))),
        ],
        "table merge": lambda: ["table", "merge", table, other, "--out", out],
        "ctm eval": lambda: ["ctm", "eval", "--table", table, text, *record],
        "bdm eval": lambda: ["bdm", "eval", "--table", table, *string_or_file, *bdm, *record],
        "entropy": lambda: ["entropy", text, *maybe("--block", str(draw(SMALL_INT))), *record],
        "rle": lambda: ["rle", draw(st.sampled_from(["encode", "decode"])), text,
                        *maybe("--out", out)],
        "compress lz78": lambda: ["compress", "lz78", *string_or_file, *record],
        "machine show": lambda: [
            "machine", "show", "--states", str(draw(st.integers(-1, 7))),
            "--index", str(draw(st.integers())),
            *maybe("--max-steps", str(draw(st.integers(-2, 300)))), *maybe("--out", out),
        ],
        "report": lambda: [
            "report", draw(st.sampled_from(["length-blocks", "anomalies", "used-rules"])),
            "--table", table, *record,
        ],
        "report divergence": lambda: [
            "report", "divergence", "--table", table, "--file", corpus, *bdm, *record,
        ],
        # lengths up to 10 keep a sweep at 1024 strings
        "report diversity": lambda: [
            "report", "diversity", "--table", table,
            "--length", str(draw(st.integers(-2, 10))), *bdm, *record,
        ],
        "report cross-space": lambda: [
            "report", "cross-space", "--small", table, "--large", other, *record,
        ],
    }
    return choices[draw(st.sampled_from(sorted(choices)))]()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(data, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    table, other, corpus = (base / name for name in ("fuzz-a.ctm", "fuzz-b.ctm", "fuzz.txt"))
    for path, contents in ((table, INPUT_FILES), (other, INPUT_FILES),
                           (corpus, st.one_of(INPUT_FILES, BINARY_LINES))):
        path.write_bytes(data.draw(contents))
    argv = _fuzz_argv(data.draw, str(table), str(other), str(corpus), str(base / "fuzz-out"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
