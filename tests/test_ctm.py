"""Coding-theorem tables: normalization, identities, merging, persistence."""

import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctm_lab.ctm import (
    NORM_ALL,
    NORM_HALTING,
    CtmTable,
    complexity_of,
    dumps_ctm_table,
    load_ctm_table,
    loads_ctm_table,
    merge_ctm,
    save_ctm_table,
    to_ctm,
)
from ctm_lab import builtin_table
from ctm_lab._canon import fmt_float
from ctm_lab.errors import CtmLabError, ParseError, ValidationError
from ctm_lab.space import Census, FrequencyTable, SpaceSpec, empty_table


def toy_freq(counts, total_runs=None, n=2):
    halted = sum(counts.values())
    total = total_runs if total_runs is not None else halted
    return FrequencyTable(
        spec=SpaceSpec(n),
        counts=dict(counts),
        min_used_rules={s: 1 for s in counts},
        first_producer={s: 0 for s in counts},
        census=Census(total_runs=total, halted=halted,
                      step_limited=total - halted),
        covers=((0, total),),
    )


def test_to_ctm_halting_normalization():
    table = to_ctm(toy_freq({"0": 3, "1": 1}))
    assert table.entries["0"].probability == 0.75
    assert table.entries["1"].probability == 0.25
    assert table.entries["0"].complexity_bits == pytest.approx(0.4150374992788438, abs=1e-15)
    assert table.entries["1"].complexity_bits == 2.0


def test_to_ctm_all_machines_normalization():
    table = to_ctm(toy_freq({"0": 3, "1": 1}, total_runs=8), NORM_ALL)
    assert table.entries["0"].probability == 0.375
    assert table.entries["1"].probability == 0.125
    assert table.probability_sum() == 0.5


def test_to_ctm_rejects_empty_tables():
    with pytest.raises(ValidationError):
        to_ctm(empty_table(SpaceSpec(2)))


def test_two_state_probability_golden(d2_zero_table, d2_zero_freq):
    # The exhaustive (2,2) run is the oracle: 1000 of 3044 halting runs
    # produce "0".
    assert d2_zero_freq.counts["0"] == 1000
    assert d2_zero_freq.census.halted == 3044
    entry = d2_zero_table.entries["0"]
    assert entry.probability == 1000 / 3044
    assert entry.complexity_bits == -math.log2(1000 / 3044)


def test_probability_sums(d2_zero_table, d2_zero_freq):
    assert abs(d2_zero_table.probability_sum() - 1.0) < 1e-12
    all_table = to_ctm(d2_zero_freq, NORM_ALL)
    total = all_table.probability_sum()
    assert total <= 1.0
    assert total == pytest.approx(3044 / 10_000, abs=1e-12)


def test_coding_theorem_identity(d2_zero_table):
    for entry in d2_zero_table.entries.values():
        assert abs(entry.complexity_bits + math.log2(entry.probability)) < 1e-12


def test_complexity_decreases_as_count_increases(d2_zero_table):
    entries = sorted(d2_zero_table.entries.values(), key=lambda e: e.count)
    for a, b in zip(entries, entries[1:]):
        if a.count == b.count:
            assert a.complexity_bits == b.complexity_bits
        else:
            assert a.complexity_bits > b.complexity_bits


def test_complexity_of_lookup(d2_zero_table):
    probs = {s: e.probability for s, e in d2_zero_table.entries.items()}
    top = max(probs, key=lambda s: (probs[s], s))
    assert complexity_of(d2_zero_table, top) == min(
        e.complexity_bits for e in d2_zero_table.entries.values()
    )
    assert complexity_of(d2_zero_table, "0" * 40) is None
    table = to_ctm(toy_freq({"0": 3, "1": 1}))
    assert complexity_of(table, "1") == 2.0


def test_merge_is_idempotent(d2_zero_table):
    merged = merge_ctm(d2_zero_table, d2_zero_table)
    assert merged.entries == d2_zero_table.entries
    assert merged.sources == d2_zero_table.sources


def test_merge_prefers_larger_space(d2_zero_table, d3_zero_builtin):
    merged = merge_ctm(d2_zero_table, d3_zero_builtin)
    shared = set(d2_zero_table.entries) & set(d3_zero_builtin.entries)
    assert shared
    for s in shared:
        assert merged.entries[s] == d3_zero_builtin.entries[s]
        assert merged.entries[s].source_space >= d2_zero_table.entries[s].source_space
    assert set(merged.entries) == set(d2_zero_table.entries) | set(d3_zero_builtin.entries)
    assert len(merged.sources) == 2


def test_merge_rejects_mixed_normalizations(d2_zero_freq):
    halting = to_ctm(d2_zero_freq, NORM_HALTING)
    raw = to_ctm(d2_zero_freq, NORM_ALL)
    with pytest.raises(ValidationError):
        merge_ctm(halting, raw)


def test_save_load_round_trip(tmp_path, d2_zero_table):
    path = tmp_path / "d2.ctm"
    save_ctm_table(d2_zero_table, path)
    loaded = load_ctm_table(path)
    assert loaded.normalization == d2_zero_table.normalization
    assert loaded.entries == d2_zero_table.entries
    assert loaded.sources == d2_zero_table.sources


def test_round_trip_of_merged_table(tmp_path, d2_zero_table, d3_zero_builtin):
    merged = merge_ctm(d2_zero_table, d3_zero_builtin)
    blob = dumps_ctm_table(merged)
    assert loads_ctm_table(blob).entries == merged.entries


def test_saves_are_byte_identical(d2_zero_table):
    assert dumps_ctm_table(d2_zero_table) == dumps_ctm_table(d2_zero_table)


def test_canonical_record_order(d2_zero_table):
    records = d2_zero_table.records()
    keys = [(-count, len(s), s) for s, count, *_ in records]
    assert keys == sorted(keys)


def test_duplicate_string_is_a_parse_error(d2_zero_table):
    blob = dumps_ctm_table(d2_zero_table).decode()
    lines = blob.splitlines()
    lines.append(lines[-1])  # repeat the last record
    with pytest.raises(ParseError):
        loads_ctm_table(("\n".join(lines) + "\n").encode())


def test_malformed_headers_raise(tmp_path):
    with pytest.raises(ParseError):
        loads_ctm_table(b"nope\n")
    with pytest.raises(ParseError):
        loads_ctm_table(b"# ctm-table v1\nmissing meta\n")


def test_complete_length_of_the_shipped_tables():
    # every binary string up to this length has an entry; d3 holds 52 of
    # the 64 strings of length 6
    for name, length in (("d2_zero", 2), ("d2_both", 3), ("d3_zero", 5), ("d3_both", 5)):
        assert builtin_table(name).complete_length() == length


def test_unknown_normalization_rejected():
    with pytest.raises(ValidationError):
        CtmTable("percentiles", {}, ())


# --- loaders reject meaningless rows


DATA_DIR = pathlib.Path(__file__).parent.parent / "src" / "ctm_lab" / "data"


def _shipped(name):
    return (DATA_DIR / f"{name}.ctm").read_bytes()


def _with_field(data: bytes, line: int, field: int, text: str) -> bytes:
    lines = data.decode().split("\n")
    parts = lines[line - 1].split(",")
    parts[field] = text
    lines[line - 1] = ",".join(parts)
    return "\n".join(lines).encode()


def test_ctm_loader_rejects_meaningless_rows():
    data = _shipped("d2_zero")
    first = data.decode().split("\n")[3].split(",")
    p = float(first[2])
    bad_rows = (
        (1, "0"), (1, "-3"),
        (2, "nan"), (2, "inf"), (2, "0"), (2, "1.5"), (2, "-0.5"),
        (3, "-3"), (3, fmt_float(float(first[3]) + 1e-9)),
        (4, "0"), (5, "0"),
    )
    bad_rows += ((3, "nan"),)  # NaN passed a plain |c + log2 p| > 1e-12 test
    for field, text in bad_rows:
        with pytest.raises(ParseError) as err:
            loads_ctm_table(_with_field(data, 4, field, text))
        assert err.value.line == 4
    # consistent but no longer a distribution: halving one probability
    halved = _with_field(data, 4, 2, fmt_float(p / 2))
    halved = _with_field(halved, 4, 3, fmt_float(-math.log2(p / 2)))
    with pytest.raises(ValidationError):
        loads_ctm_table(halved)
    # non-canonical text and out-of-order rows
    for field, text in ((1, "+1000"), (1, "1_000"), (2, "0.328515111695138")):
        with pytest.raises(ParseError):
            loads_ctm_table(_with_field(data, 4, field, text))
    lines = data.decode().split("\n")
    lines[3], lines[8] = lines[8], lines[3]
    with pytest.raises(ParseError):
        loads_ctm_table("\n".join(lines).encode())


def test_meaningless_row_from_the_roadmap_exits_one(tmp_path, capsys):
    from ctm_lab.cli import main

    lines = _shipped("d2_zero").decode().split("\n")
    lines.insert(3, "01,5,nan,-3,0,3")
    path = tmp_path / "bad.ctm"
    path.write_text("\n".join(lines))
    assert main(["ctm", "eval", "--table", str(path), "--string", "01"]) == 1
    assert "line 4" in capsys.readouterr().err


def test_meta_headers_hold_exactly_what_the_writers_write(tmp_path, capsys):
    # such a file used to load and then re-serialize to other bytes
    from ctm_lab.cli import main

    path = tmp_path / "bad.ctm"
    version = b'"tool_version":"0.1.0"'
    assert version in _shipped("d2_zero")
    path.write_bytes(_shipped("d2_zero").replace(version, b'"tool_version":"9","zzz":1'))
    with pytest.raises(ParseError) as err:
        load_ctm_table(path)
    assert err.value.line == 2
    assert main(["ctm", "eval", "--table", str(path), "--string", "01"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"ctm-lab: error: {err.value}"]


def _meta_line(text, dumps):
    lines = text.split("\n")
    lines[1] = "# meta " + dumps(json.loads(lines[1][len("# meta "):]))
    return "\n".join(lines)


def _with_blank_line(text, line):
    lines = text.split("\n")
    lines.insert(line - 1, "")
    return "\n".join(lines)


@pytest.mark.parametrize("edit, line", [
    (lambda text: text.replace("\n", "\r\n"), 1),
    (lambda text: _with_blank_line(text, 6), 6),
    (lambda text: text[:-1], 20),
    (lambda text: text + "\n", 21),
    (lambda text: _meta_line(text, json.dumps), 2),
    (lambda text: _meta_line(text, lambda meta: json.dumps(dict(reversed(meta.items())),
                                                           separators=(",", ":"))), 2),
], ids=["crlf", "blank-line", "no-final-newline", "extra-newline", "meta-spacing",
        "meta-key-order"])
def test_a_table_loads_only_in_the_layout_the_writer_writes(edit, line):
    # each of these files used to load and then re-serialize to other bytes
    text = _shipped("d2_zero").decode()
    assert len(text.split("\n")) == 21
    with pytest.raises(ParseError) as err:
        loads_ctm_table(edit(text).encode())
    assert err.value.line == line


def _field_text(original):
    options = [
        st.integers(-(10 ** 20), 10 ** 20).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(fmt_float),
        st.text(alphabet="0123456789+-._eEinfaINFAN x", max_size=24),
        st.sampled_from([original, "", "0", "1", "01", original + "0", "0" + original,
                         " " + original]),
    ]
    if original.isdigit():
        options.append(st.integers(-3, 3).map(lambda d: str(int(original) + d)))
    return st.one_of(options)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_single_field_mutations_round_trip_or_raise(data):
    """Any one-field change to a shipped d2 table loads to the same bytes or raises."""
    original = _shipped(data.draw(st.sampled_from(["d2_zero", "d2_both"])))
    lines = original.decode().split("\n")
    line = data.draw(st.integers(4, len(lines) - 1))  # 1-based data rows
    fields = lines[line - 1].split(",")
    field = data.draw(st.integers(0, len(fields) - 1))
    mutated = _with_field(original, line, field, data.draw(_field_text(fields[field])))
    try:
        again = dumps_ctm_table(loads_ctm_table(mutated))
    except CtmLabError:
        return
    assert again == mutated
