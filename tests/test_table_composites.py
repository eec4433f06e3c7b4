"""`_simplicial_tables.composite`, the whole-level composite a∘s that the
identity and contraction checks compare in C (docs/DECISIONS.md,
section 12).

A composite must equal the row-by-row gather a[s[k]] for every table
`formula_levels` and `extra_degeneracy` make, and must not exist for a
table edited after the build: the checks then take the chunked gather and
keep the reference verdict and witness.  A passing check must take the
composite on every side but the twisted d_0 of X ×_τ Y.
"""

from array import array

import pytest

from htwist import _simplicial_identities
from htwist._simplicial_identities import by_contraction, by_tables, first_failure
from htwist._simplicial_tables import composite, extra_degeneracy, formula_levels
from htwist.simplicial import verify_simplicial_identities
from test_chains import h_of, reference_contraction
from test_simplicial_parity import corrupt
from test_simplicial_tables import bundle, corrupted_verdict, wbar


def gathered(a, s):
    return array("i", (a[s[k]] for k in range(len(s))))


# name -> (fresh space, through N)
SPACES = {
    **{f"WbarC{k}": (lambda k=k: wbar(k, 4), 4) for k in (2, 3, 4, 5)},
    "tcpC3": (lambda: bundle(3, 4), 4),
    "tcpC5": (lambda: bundle(5, 4), 4),
}


def sources(levels, m):
    """Arrays that number level m, to compose with a table into it: the
    ramp and every face table of level m (the twisted d_0 of a bundle
    among them), and its first degeneracy table."""
    level = levels[m]
    return [level.ramp, *level.faces, *level.degens[:1]]


@pytest.mark.parametrize("top", [True, False])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_composite_equals_the_row_gather(name, top):
    build, N = SPACES[name]
    levels = formula_levels(build(), N, top)
    twisted = name.startswith("tcp")
    for n, level in enumerate(levels):
        for i, s in enumerate(level.faces):
            if twisted and i == 0:  # the twisted d_0 is not a window map
                assert composite(levels[n - 1].ramp, s) is None
                continue
            for a in sources(levels, n - 1):
                assert composite(a, s) == gathered(a, s), (name, top, "face", n, i)
        for j, s in enumerate(level.degens):
            if n == N:  # level N + 1 is not built; the ramp is cut to level N
                assert composite(array("i", range(len(level.ramp) * 10)), s) is None
                continue
            for a in sources(levels, n + 1):
                assert composite(a, s) == gathered(a, s), (name, top, "degeneracy", n, j)


@pytest.mark.parametrize("k, N", [(2, 4), (3, 4), (5, 4)])
def test_composite_of_h_equals_the_row_gather(k, N):
    levels = formula_levels(bundle(k, N), N, top=False)
    h, _ = extra_degeneracy(bundle(k, N), levels)
    for n, s in enumerate(h):
        for a in [*sources(levels, n + 1), *h[n + 1:n + 2]]:
            assert composite(a, s) == gathered(a, s), (k, n)


def test_composite_with_a_range():
    levels = formula_levels(bundle(3, 3), 3)
    ids = range(levels[2].size)
    for a in (levels[2].ramp, *levels[3].faces, *levels[2].degens):
        assert composite(a, ids) == gathered(a, ids) == a[:len(ids)]
    # a range is not an array to take slices of
    assert composite(ids, levels[2].faces[1]) is None
    assert composite(levels[1].ramp[:3], range(4)) is None


@pytest.mark.parametrize("kind, n, i", [("face", 2, 1), ("degeneracy", 1, 0), ("face", 3, 3)])
def test_edited_table_has_no_composite(kind, n, i):
    levels = formula_levels(bundle(3, 3), 3)
    table = (levels[n].faces if kind == "face" else levels[n].degens)[i]
    target = levels[n - 1 if kind == "face" else n + 1]
    a = target.faces[1]
    built = table[-1]
    assert composite(a, table) == gathered(a, table)
    table[-1] = (built + 1) % target.size
    assert composite(a, table) is None
    table[-1] = built  # the built value back: the composite is back
    assert composite(a, table) == gathered(a, table)
    table.pop()
    assert composite(a, table) is None


# edits of affine tables of the C5 bundle through 5, on the composite path
EDITS = {
    "inner-face": [("face", 5, 2, 4321)],
    "last-face": [("face", 4, 4, 3000)],
    "degeneracy": [("degeneracy", 3, 1, 111)],
    # s_2 of level 5 on s_2 of simplex 1234 of level 4, which the check reads
    "top-degeneracy": [("degeneracy", 5, 2, 5734)],
}


@pytest.mark.parametrize("case", sorted(EDITS))
def test_edited_table_gives_the_reference_witness(case, monkeypatch):
    assert formula_levels(bundle(5, 4), 4)[4].degens[2][1234] == 5734
    new, ref = corrupted_verdict(lambda: bundle(5, 5), 5, EDITS[case], monkeypatch)
    assert new == ref and not new[0]


@pytest.mark.parametrize("n, p", [(0, 3), (2, 17), (3, 620)])
def test_edited_h_gives_the_reference_witness(n, p):
    X = bundle(5, 4)
    levels = formula_levels(X, 4, top=False)
    h, v = extra_degeneracy(X, levels)
    h[n][p] = (h[n][p] + 1) % levels[n + 1].size
    assert composite(levels[n + 1].faces[1], h[n]) is None
    fail = by_contraction(levels, h, v)
    assert fail is not None and fail == reference_contraction(X, 4, h_of(X, h))


def test_edited_contraction_face_gives_the_reference_witness():
    X = bundle(3, 4)
    levels = formula_levels(X, 4, top=False)
    h, v = extra_degeneracy(X, levels)
    p = h[3][40]  # a simplex h lands on, whose faces the check reads
    levels[4].faces[2][p] = (levels[4].faces[2][p] + 1) % levels[3].size
    fail = by_contraction(levels, h, v)
    x, bad = X.elements(4)[p], X.elements(3)[levels[4].faces[2][p]]
    corrupt(X, "face", 4, 2, lambda y: y == x, lambda value: bad)
    assert fail is not None and fail == reference_contraction(X, 4, h_of(X, h))


@pytest.mark.parametrize("composite_first", [True, False])
def test_mixed_instance_on_a_level_of_one_row(composite_first):
    """Level 0 of W̄C3 has one simplex: s_1 s_0 = s_0 s_0 there, with one
    side a composite and the other, a plain copy of s_0, gathered by
    itemgetter, which gives a bare entry for one row."""
    levels = formula_levels(wbar(3, 2), 2)
    above, s0 = levels[1].degens, levels[0].degens[0]
    plain = array("i", s0)
    assert composite(above[1], s0) is not None and composite(above[0], plain) is None
    sides = [(above[1], s0), (above[0], plain)]
    if not composite_first:
        sides.reverse()
    assert first_failure([("mixed", *sides[0], *sides[1])], 1) is None
    plain[0] = (plain[0] + 1) % levels[1].size
    assert above[0][plain[0]] != above[1][s0[0]]
    assert first_failure([("mixed", *sides[0], *sides[1])], 1) == (0, "mixed")


def spied_composites(monkeypatch):
    """(s, got) of every composite the check asks for."""
    calls = []

    def spy(a, s):
        got = composite(a, s)
        calls.append((s, got))
        return got

    monkeypatch.setattr(_simplicial_identities, "composite", spy)
    return calls


def test_passing_bundle_check_composes_all_but_the_twisted_d0(monkeypatch):
    """On the C5 bundle through 5 only the sides whose inner table is the
    twisted d_0 fall back to the chunked gather.  In by_tables these are
    d_0 d_j (j = 1..n) at levels 2..5 and d_0 s_j (j = 1..n) at levels
    1..4; in by_contraction, d_1 h = h d_0 at levels 1..4."""
    levels = formula_levels(bundle(5, 5), 5)
    twisted = [level.faces[0] for level in levels[1:]]
    calls = spied_composites(monkeypatch)
    assert by_tables(levels, 5) is None
    fallbacks = [s for s, got in calls if got is None]
    assert len(fallbacks) == sum(range(2, 6)) + sum(range(1, 5))
    assert all(any(s is d0 for d0 in twisted) for s in fallbacks)

    levels = formula_levels(bundle(5, 5), 5, top=False)
    twisted = [level.faces[0] for level in levels[1:]]
    calls.clear()
    assert by_contraction(levels, *extra_degeneracy(bundle(5, 5), levels)) is None
    fallbacks = [s for s, got in calls if got is None]
    assert len(fallbacks) == 4 and all(any(s is d0 for d0 in twisted) for s in fallbacks)


def test_passing_wbar_check_composes_every_side(monkeypatch):
    calls = spied_composites(monkeypatch)
    assert verify_simplicial_identities(wbar(5, 5), 5) == (True, None)
    assert calls and all(got is not None for _, got in calls)
