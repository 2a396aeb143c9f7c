"""The code, tests, tools, CI file and README quote no measured time or memory.

A wall time, RSS or tracemalloc figure goes stale with the next change to the
engine or the machine it ran on, and nothing reruns it. Measurements live in
the BENCH_*.json files and CHANGES.md, where a comment may name them. A
figure here is kept only when a test asserts it or it is stated by the code
itself; each such figure is in ALLOWED with its reason.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The tests too, but for this file, whose pattern test quotes figures on purpose.
SCANNED = sorted(
    [*(ROOT / "src" / "ctm_lab").glob("*.py"), *(ROOT / "tools").glob("*.py"),
     ROOT / ".github" / "workflows" / "tier1.yml", ROOT / "README.md",
     *(path for path in (ROOT / "tests").glob("*.py") if path.name != pathlib.Path(__file__).name)]
)

# A number followed by a unit of time or memory, or by "bytes per index". The
# unit may follow on the next line of a comment or docstring, except a bare
# "s", which would also match a line of code that starts with a name s.
_GAP = r"(?:\s|#)*"
FIGURE = re.compile(
    rf"(?<![\w.])\d+(?:[.,]\d+)*(?:{_GAP}(?:ns|µs|us|ms|MB|MiB|GB|GiB)\b|[ \t]+s\b"
    rf"|{_GAP}bytes{_GAP}per{_GAP}index\b)"
)

# (file relative to the root, figure) -> why it stays
ALLOWED = {
    ("src/ctm_lab/space.py", "16 bytes per index"): (
        "the bound test_index_batches_hold_a_bounded_number_of_bytes_per_index asserts"
    ),
    ("src/ctm_lab/space.py", "3.9 GB"): (
        "the text of space_size's ValidationError for n > 4, a code line that tests read"
    ),
}


def _figures():
    """(file, figure with its gaps closed up) -> the lines it starts on."""
    found = {}
    for path in SCANNED:
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text(encoding="utf-8")
        for match in FIGURE.finditer(text):
            figure = " ".join(match.group().replace("#", " ").split())
            found.setdefault((rel, figure), []).append(text.count("\n", 0, match.start()) + 1)
    return found


def test_the_pattern_finds_figures_and_skips_other_numbers():
    hits = FIGURE.findall(
        "0.30 s at 89 MB; 2.4-2.9 s; 75-90 ns; 6-14 us; 11 ms; 3.9 GB; 14.34 bytes per index"
    )
    assert hits == ["0.30 s", "89 MB", "2.9 s", "90 ns", "14 us", "11 ms", "3.9 GB", "14.34 bytes per index"]
    assert FIGURE.findall("0s and 1s; 2^20 indices; 38 passes; S(4) = 107; 8 bytes at n = 4") == []
    # a figure wrapped across comment lines is one figure
    assert [m.group() for m in FIGURE.finditer("at 14.34\n    # bytes per index, 3\n    MB")] \
        == ["14.34\n    # bytes per index", "3\n    MB"]
    assert FIGURE.findall("n = 4\ns = 2") == []


def test_no_measured_time_or_memory_is_quoted():
    found = _figures()
    quoted = {f"{rel}:{lines[0]}: {figure}" for (rel, figure), lines in found.items()
              if (rel, figure) not in ALLOWED}
    assert not quoted, "measured figures belong in BENCH_*.json or CHANGES.md"
    assert set(ALLOWED) <= set(found), "an allowed figure is gone: drop its entry"
