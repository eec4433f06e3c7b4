"""The index tables of W̄G and W̄G ×_ν G that `formula_levels` builds by
digit arithmetic for a constant group (docs/DECISIONS.md, section 14).

Every entry must number the simplex that the space's face or degeneracy
gives: the per-entry formulas, the one set of maps the class has.  A
corrupted table entry must make `verify_simplicial_identities` return
what the earlier triple loop returns on maps corrupted the same way.  A
space whose maps were replaced on the instance must not get the formula.
"""

import random
import tracemalloc
from collections import Counter

import pytest

from htwist import _simplicial_identities, io_json
from htwist._simplicial_tables import call_levels, formula_levels
from htwist.chains import normalized_chains
from htwist.rings import ZZ
from htwist.simplicial import (
    ClassifyingSpace,
    TwistedCartesianProduct,
    classifying_space,
    constant_group,
    cyclic_constant_group,
    universal_bundle,
    verify_simplicial_identities,
)
from test_constant_group_parity import symmetric_group_s3
from test_simplicial_parity import corrupt, reference_identities


def wbar(k, N):
    return classifying_space(cyclic_constant_group(k, N + 1), N)


def bundle(k, N):
    return universal_bundle(cyclic_constant_group(k, N + 2), N)[0]


# name -> (fresh space, through N)
SPACES = {
    **{f"WbarC{k}": (lambda k=k: wbar(k, 5), 5) for k in (2, 3, 4, 5)},
    "WbarS3": (lambda: classifying_space(symmetric_group_s3(5), 4), 4),
    "tcpC2": (lambda: bundle(2, 4), 4),
    "tcpC3": (lambda: bundle(3, 4), 4),
    "tcpC5": (lambda: bundle(5, 5), 5),
    "WbarC3-N0": (lambda: wbar(3, 0), 0),
    "WbarC3-N1": (lambda: wbar(3, 1), 1),
    "tcpC3-N0": (lambda: bundle(3, 0), 0),
    "tcpC3-N1": (lambda: bundle(3, 1), 1),
    # one simplex in every level: each chunk a single row
    "WbarC1": (lambda: wbar(1, 3), 3),
    "tcpC1": (lambda: bundle(1, 3), 3),
    # C3 listed as 2, 0, 1: the neutral element is not the first digit
    "WbarC3-listed-210": (lambda: classifying_space(
        constant_group([2, 0, 1], lambda a, b: (a + b) % 3, lambda a: -a % 3, 0, 5), 4),
        4),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_every_entry_equals_bound_and_per_entry_maps(name):
    build, N = SPACES[name]
    X = build()
    levels = formula_levels(X, N)
    assert levels is not None and len(levels) == N + 1
    listed = [X.elements(n) for n in range(N + 2)]
    for n, level in enumerate(levels):
        assert level.size == len(listed[n]) and level.simplices == listed[n]
        assert len(level.faces) == (n + 1 if n else 0) and len(level.degens) == n + 1
        for i, table in enumerate(level.faces):
            got = [listed[n - 1][q] for q in table]
            assert got == [X.face(n, i, x) for x in listed[n]], ("face", n, i)
        for j, table in enumerate(level.degens):
            got = [listed[n + 1][q] for q in table]
            assert got == [X.degeneracy(n, j, x) for x in listed[n]], ("degeneracy", n, j)
    assert verify_simplicial_identities(build(), N) == (True, None)


def test_s3_merge_keeps_the_product_order():
    """d_1 of (a, b) in W̄S3 is (b·a); the pair below does not commute."""
    W = classifying_space(symmetric_group_s3(3), 2)
    a, b = (1, 0, 2), (0, 2, 1)
    level = formula_levels(W, 2)[2]
    p = level.simplices.index((a, b))
    below = W.elements(1)
    assert below[level.faces[1][p]] == (W.G.mult(0, b, a),) != (W.G.mult(0, a, b),)


def test_top_false_leaves_level_n_without_degeneracies():
    levels = formula_levels(bundle(3, 3), 3, top=False)
    assert [len(level.degens) for level in levels] == [1, 2, 3, 0]


# name -> (fresh space, through N) for the corruptions
CORRUPTED = {
    "WbarC3": (lambda: wbar(3, 4), 4),
    "WbarS3": (lambda: classifying_space(symmetric_group_s3(4), 3), 3),
    "tcpC2": (lambda: bundle(2, 4), 4),
    "tcpC3": (lambda: bundle(3, 3), 3),
}
FAMILIES = ("face", "degeneracy", "top degeneracy")


def table_corruption(X, N, family, seed):
    """(kind, n, i, p, q): entry p of X's d_i or s_i table at level n moved
    from its value to q, another simplex of the level it lands in.  A face
    is moved in a level whose level below has more than one simplex; a
    degeneracy of level N is moved on a degenerate simplex, s_j x, which is
    the only kind the check reads it on."""
    rng = random.Random(seed)
    levels = formula_levels(X, N)
    if family == "face":
        n = rng.choice([n for n in range(1, N + 1) if len(levels[n - 1].simplices) > 1])
        i, p = rng.randint(0, n), rng.randrange(len(levels[n].simplices))
        right, size = levels[n].faces[i][p], len(levels[n - 1].simplices)
    else:
        n = rng.randint(0, N - 1) if family == "degeneracy" else N
        i, p = rng.randint(0, n), rng.randrange(len(levels[n].simplices))
        if family == "top degeneracy":
            p = levels[N - 1].degens[rng.randint(0, N - 1)][rng.randrange(len(levels[N - 1].simplices))]
        right, size = levels[n].degens[i][p], len(X.elements(n + 1))
    q = rng.choice([r for r in range(size) if r != right])
    return ("face" if family == "face" else "degeneracy"), n, i, p, q


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_entry_gives_the_reference_verdict(name, family, monkeypatch):
    build, N = CORRUPTED[name]
    failures = 0  # every one of these corruptions breaks an identity
    for seed in range(12):
        kind, n, i, p, q = table_corruption(build(), N, family, seed)
        built = []

        def corrupted_levels(X, M, top=True):
            levels = formula_levels(X, M, top)
            (levels[n].faces if kind == "face" else levels[n].degens)[i][p] = q
            built.append(levels)
            return levels

        monkeypatch.setattr(_simplicial_identities, "formula_levels", corrupted_levels)
        new = verify_simplicial_identities(build(), N)
        monkeypatch.undo()
        assert built, "the check did not read the formula tables"

        X = build()
        x, bad = X.elements(n)[p], X.elements(n - 1 if kind == "face" else n + 1)[q]
        corrupt(X, kind, n, i, lambda y: y == x, lambda value: bad)
        assert new == reference_identities(X, N), (name, family, seed)
        failures += not new[0]
    assert failures == 12, (name, family, failures)


def corrupted_verdict(build, N, entries, monkeypatch):
    """(ok, witness) of the check on X's formula tables with each entry
    (kind, n, i, p) moved to the next simplex of the level it lands in, and
    `reference_identities` on X's maps corrupted the same way."""
    X = build()
    levels, moves = formula_levels(X, N), []
    for kind, n, i, p in entries:
        table = (levels[n].faces if kind == "face" else levels[n].degens)[i]
        target = n - 1 if kind == "face" else n + 1
        moves.append((kind, n, i, p, (table[p] + 1) % len(X.elements(target))))

    def corrupted_levels(Y, M, top=True):
        levels = formula_levels(Y, M, top)
        for kind, n, i, p, q in moves:
            (levels[n].faces if kind == "face" else levels[n].degens)[i][p] = q
        return levels

    monkeypatch.setattr(_simplicial_identities, "formula_levels", corrupted_levels)
    new = verify_simplicial_identities(build(), N)
    monkeypatch.undo()
    for kind, n, i, p, q in moves:
        x, bad = X.elements(n)[p], X.elements(n - 1 if kind == "face" else n + 1)[q]
        corrupt(X, kind, n, i, lambda y, x=x: y == x, lambda value, bad=bad: bad)
    return new, reference_identities(X, N)


CHUNK = _simplicial_identities.CHUNK
TOP = 5 ** 5 * 5  # the simplices of level 5 of the C5 bundle
assert TOP > 4 * CHUNK


# name -> (entries, the failing level and row): the check must find the
# failure at the edge of a chunk, and at an earlier row of a later instance
CHUNK_EDGES = {
    "first-row-of-a-chunk": ([("face", 5, 2, 2 * CHUNK)], 5, 2 * CHUNK),
    "last-row-of-a-chunk": ([("face", 5, 3, 3 * CHUNK - 1)], 5, 3 * CHUNK - 1),
    "last-row-of-the-top-level": ([("face", 5, 1, TOP - 1)], 5, TOP - 1),
    # d0d1 fails at row 2K + 1 first; d0d5, a later instance, fails at row
    # 2K, the only row of the last chunk it is compared on
    "later-instance-earlier-row": ([("face", 5, 0, 2 * CHUNK + 1), ("face", 5, 5, 2 * CHUNK)],
                                   5, 2 * CHUNK),
}


@pytest.mark.parametrize("case", sorted(CHUNK_EDGES))
def test_chunk_edges_give_the_reference_verdict(case, monkeypatch):
    entries, n, p = CHUNK_EDGES[case]
    new, ref = corrupted_verdict(lambda: bundle(5, 5), 5, entries, monkeypatch)
    assert new == ref and not new[0]
    assert new[1]["level"] == n and new[1]["element"] == bundle(5, 5).elements(n)[p]


def test_level_of_one_simplex_locates_its_failure(monkeypatch):
    """Level 0 of W̄C3 has one simplex, so each of its chunks is one bare
    entry; s_0 of it moved fails there."""
    new, ref = corrupted_verdict(lambda: wbar(3, 2), 2, [("degeneracy", 0, 0, 0)], monkeypatch)
    assert new == ref and not new[0] and new[1]["level"] == 0


def spy(X, calls):
    """Count X's face and degeneracy calls, replacing both on the instance."""
    for kind in ("face", "degeneracy"):
        orig = getattr(X, kind)

        def counted(n, i, y, kind=kind, orig=orig):
            calls[kind, n, i, y] += 1
            return orig(n, i, y)

        setattr(X, kind, counted)
    return X


@pytest.mark.parametrize("name", ["WbarC3", "tcpC3"])
def test_spied_space_takes_the_per_call_fill(name):
    build, N = CORRUPTED[name]
    calls = Counter()
    X = spy(build(), calls)
    assert formula_levels(X, N) is None
    assert verify_simplicial_identities(X, N) == (True, None)
    assert calls[("face", N, 0, X.elements(N)[0])] == 1
    calls.clear()
    chains = normalized_chains(X, ZZ, N)
    # call_levels: one call per listed simplex and map, none twice
    assert set(calls.values()) == {1}
    assert len(calls) == sum((n + 1) * len(X.elements(n)) for n in range(1, N + 1)) \
        + sum((n + 1) * len(X.elements(n)) for n in range(N))
    by_formula = normalized_chains(build(), ZZ, N)
    assert io_json.complex_to_dict(chains.complex) == io_json.complex_to_dict(by_formula.complex)


def test_bundle_over_a_spied_base_takes_the_per_call_fill():
    T = bundle(3, 3)
    calls = Counter()
    spy(T.X, calls)
    assert formula_levels(T, 3) is None
    assert verify_simplicial_identities(T, 3) == (True, None)
    assert calls


def test_replaced_listing_takes_the_per_call_fill():
    W = wbar(3, 3)
    W.elements = lambda n, orig=W.elements: orig(n)[::-1]
    assert formula_levels(W, 3) is None


@pytest.mark.parametrize("kind", ["face", "degeneracy"])
def test_map_set_on_the_instance_takes_the_per_call_fill(kind):
    """W̄S3 and the C3 bundle, built with the flagged group and setting no
    map of their own, take the tables.  Once W̄'s face or degeneracy is set
    on the instance, even to the class's own map, neither does."""
    S3, T = classifying_space(symmetric_group_s3(4), 3), bundle(3, 3)
    for X, W in ((S3, S3), (T, T.X)):
        assert formula_levels(X, 3) is not None
        setattr(W, kind, getattr(W, kind))
        assert formula_levels(X, 3) is None


@pytest.mark.parametrize("name", ["WbarC3", "tcpC3"])
def test_intact_space_makes_no_face_or_degeneracy_call(name, monkeypatch):
    """The class's face and degeneracy, counted where the class defines them
    (so the instance sets none of its own), are never called by the
    identity check or by normalized chains."""
    calls = Counter()
    for cls in (ClassifyingSpace, TwistedCartesianProduct):
        for kind in ("face", "degeneracy"):
            orig = getattr(cls, kind)

            def counted(self, n, i, y, kind=kind, orig=orig):
                calls[kind] += 1
                return orig(self, n, i, y)

            monkeypatch.setattr(cls, kind, counted)
    build, N = CORRUPTED[name]
    X = build()
    assert formula_levels(X, N) is not None
    assert verify_simplicial_identities(X, N) == (True, None)
    normalized_chains(X, ZZ, N)
    assert not calls


def test_images_outside_the_listing():
    """In the per-call tables a face or degeneracy that is not listed is
    -1.  Normalized chains drop such a face from d, and such a degeneracy
    marks no listed simplex degenerate."""
    W = wbar(3, 3)
    x = (1, 2)
    corrupt(W, "face", 2, 1, lambda y: y == x, lambda value: ("outside",))
    corrupt(W, "degeneracy", 1, 0, lambda y: y == (1,), lambda value: ("outside", "too"))
    levels = call_levels(W, 3)
    p = W.elements(2).index(x)
    assert levels[2].faces[1][p] == -1 and levels[1].degens[0][1] == -1
    assert all(q >= 0 for q in levels[2].faces[0])
    C = normalized_chains(W, ZZ, 3).complex
    # (2, 2), the last simplex of level 2, stays nondegenerate
    assert C.basis.names(2)[-1] == "<(2, 2)>"
    assert C.d_of(2, "<(1, 2)>") == {"<(1,)>": 1, "<(2,)>": 1}


def listings(monkeypatch, cls):
    """The levels cls.elements is asked for, in order."""
    asked = []
    orig = cls.elements

    def elements(self, n):
        asked.append(n)
        return orig(self, n)

    monkeypatch.setattr(cls, "elements", elements)
    return asked


def test_build_does_not_list_the_level_above(monkeypatch):
    """The level-N degeneracy tables number simplices of level N + 1 by
    position only, and the build lists no level at all: a level is listed
    the first time its simplices are read."""
    asked = listings(monkeypatch, ClassifyingSpace)
    levels = formula_levels(wbar(3, 3), 3)
    assert levels is not None and asked == []
    assert all(0 <= q < 3 ** 4 for table in levels[3].degens for q in table)
    assert levels[2].simplices == levels[2].simplices == wbar(3, 3).elements(2)
    assert asked == [2, 2]  # once for the level, once for the comparison


def test_passing_check_lists_no_simplex(monkeypatch):
    """A passing check on the C3 bundle through 4 lists no level of the
    bundle or of its base."""
    T = bundle(3, 4)
    asked = listings(monkeypatch, TwistedCartesianProduct), listings(monkeypatch, ClassifyingSpace)
    assert verify_simplicial_identities(T, 4) == (True, None)
    assert asked == ([], [])


def test_check_memory_stays_below_a_level_listing():
    """The check on the C5 bundle through 5 (15625 top simplices) holds its
    tables, their ramp and two composites of one level, no listing of a
    level."""
    X = bundle(5, 5)
    tracemalloc.start()
    try:
        assert verify_simplicial_identities(X, 5) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 2 ** 20, peak
