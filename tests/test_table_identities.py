"""Identities the shipped tables satisfy by how their spaces are built.

Each follows from the construction of the rule space, not from the engine,
so these checks read the shipped .ctm files and run no machine:

- no_halt_rule is (4n)^(2n) per blank: the machines with a step in every
  one of their 2n entries;
- a `both` census is twice its `zero` census, field by field: complementing
  a machine's symbols maps its blank-0 run onto a blank-1 run of the
  complement machine, one to one;
- reflecting a machine's directions reverses its output, so a count and a
  minimum of used rules equal those of the reversed string; in `both`, the
  same holds for the complemented string;
- `both` is the fold of `zero`: count_both(s) = count_zero(s) +
  count_zero(complement(s)), and min_used_rules takes the smaller of the two;
- a (2,2) machine is a (3,2) machine whose two state-3 entries it never
  reads, (4n + 6)^2 = 196 ways at n = 2, and each of them runs the same way
  within both cutoffs: count_3(s) >= 196 count_2(s), min_used_3(s) <=
  min_used_2(s), and halted_3 >= 196 halted_2.
"""

import dataclasses

import pytest

from ctm_lab.data import BUILTIN_TABLES, builtin_table

_COMPLEMENT = str.maketrans("01", "10")


@dataclasses.dataclass
class Shipped:
    n: int
    blanks: int
    counts: dict
    used: dict
    census: dict


def _shipped(name):
    table = builtin_table(name)
    (source,) = table.sources
    spec = source["spec"]
    return Shipped(
        n=spec["n"],
        blanks=2 if spec["blank_mode"] == "both" else 1,
        counts={s: e.count for s, e in table.entries.items()},
        used={s: e.min_used_rules for s, e in table.entries.items()},
        census=dict(source["census"]),
    )


@pytest.fixture(scope="module")
def tables():
    return {name: _shipped(name) for name in BUILTIN_TABLES}


def _symmetric(t, image):
    return all(
        t.counts.get(image(s)) == c and t.used[image(s)] == t.used[s] for s, c in t.counts.items()
    )


def no_halt_rule_is_closed_form(tables):
    return all(
        t.census["no_halt_rule"] == t.blanks * (4 * t.n) ** (2 * t.n) for t in tables.values()
    )


def both_census_doubles_zero(tables):
    return all(
        tables[f"d{n}_both"].census == {k: 2 * v for k, v in tables[f"d{n}_zero"].census.items()}
        for n in (2, 3)
    )


def reversal_symmetry(tables):
    return all(_symmetric(t, lambda s: s[::-1]) for t in tables.values())


def complement_symmetry_in_both(tables):
    return all(_symmetric(tables[f"d{n}_both"], lambda s: s.translate(_COMPLEMENT)) for n in (2, 3))


def both_is_the_fold_of_zero(tables):
    for n in (2, 3):
        zero, both = tables[f"d{n}_zero"], tables[f"d{n}_both"]
        counts, used = {}, {}
        for s, c in zero.counts.items():
            for image in (s, s.translate(_COMPLEMENT)):
                counts[image] = counts.get(image, 0) + c
                used[image] = min(used.get(image, zero.used[s]), zero.used[s])
        if (counts, used) != (both.counts, both.used):
            return False
    return True


def two_states_embed_in_three(tables):
    factor = (4 * 2 + 6) ** 2
    for mode in ("zero", "both"):
        small, large = tables[f"d2_{mode}"], tables[f"d3_{mode}"]
        if large.census["halted"] < factor * small.census["halted"]:
            return False
        for s, c in small.counts.items():
            if large.counts.get(s, 0) < factor * c or large.used[s] > small.used[s]:
                return False
    return True


IDENTITIES = [
    no_halt_rule_is_closed_form,
    both_census_doubles_zero,
    reversal_symmetry,
    complement_symmetry_in_both,
    both_is_the_fold_of_zero,
    two_states_embed_in_three,
]


@pytest.mark.parametrize("identity", IDENTITIES, ids=lambda f: f.__name__)
def test_shipped_tables_satisfy_the_identity(tables, identity):
    assert identity(tables)


def test_moving_any_count_by_one_breaks_an_identity(tables):
    # the identities check counts, not only the set of strings: each count of
    # each shipped table, moved up or down by one, fails at least one
    for name, t in tables.items():
        for s, c in t.counts.items():
            for moved in (c + 1, c - 1):
                counts = dict(t.counts)
                if moved:
                    counts[s] = moved
                else:
                    del counts[s]
                bad = {**tables, name: dataclasses.replace(t, counts=counts)}
                assert not all(identity(bad) for identity in IDENTITIES), (name, s, moved)
