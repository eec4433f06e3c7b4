import random

import pytest

from htwist import chains, complexes, sparse
from htwist._simplicial_identities import by_contraction
from htwist._simplicial_tables import extra_degeneracy, formula_levels
from htwist.chains import (
    acyclicity_of_universal_bundle,
    chains_map,
    chains_of_simplicial_group,
    normalized_chains,
    verify_aw_axioms,
    verify_pontryagin_axioms,
)
from htwist.complexes import ChainComplex, GradedBasis, homology, verify_differential
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import (
    boundary_delta2,
    classifying_space,
    cyclic_constant_group,
    minimal_circle,
    point_space,
    universal_bundle,
)
from test_constant_group_parity import symmetric_group_s3
from test_simplicial_parity import corrupt


def test_chains_of_point():
    C = normalized_chains(point_space(4), QQ, 4)
    assert C.complex.basis.total_dim() == 1
    H = homology(C.complex, 3)
    assert H.by_degree[0] == (1, [])


def test_chains_boundary_delta2_is_circle():
    X = boundary_delta2(5)
    C = normalized_chains(X, ZZ, 5)
    ok, w = verify_differential(C.complex)
    assert ok, w
    H = homology(C.complex, 3)
    assert H.by_degree[0] == (1, [])
    assert H.by_degree[1] == (1, [])
    assert H.by_degree[2] == (0, [])


def test_chains_minimal_circle():
    C = normalized_chains(minimal_circle(5), ZZ, 5)
    H = homology(C.complex, 3)
    assert H.by_degree[0] == (1, [])
    assert H.by_degree[1] == (1, [])
    assert not C.is_one_connected()  # nondegenerate 1-simplex present


def test_chains_wbar_c2_integral_homology():
    # H(RP^infty; Z) pattern: Z, Z/2, 0, Z/2, 0 through degree 4
    G = cyclic_constant_group(2, 6)
    W = classifying_space(G, 6)
    C = normalized_chains(W, ZZ, 6)
    ok, w = verify_differential(C.complex)
    assert ok, w
    H = homology(C.complex, 4)
    assert H.by_degree[0] == (1, [])
    assert H.by_degree[1] == (0, [2])
    assert H.by_degree[2] == (0, [])
    assert H.by_degree[3] == (0, [2])
    assert H.by_degree[4] == (0, [])
    # over F2 the ranks are 1,1,1,1,1: the mod-2 group homology of C2
    C2 = normalized_chains(W, GF(2), 6)
    H2 = homology(C2.complex, 4)
    assert all(H2.by_degree[n] == (1, []) for n in range(5))


def test_aw_axioms_on_fixtures():
    for X in (point_space(4), minimal_circle(4), boundary_delta2(4)):
        ok, w = verify_aw_axioms(X, 4)
        assert ok, (X.name, w)
    G = cyclic_constant_group(2, 4)
    W = classifying_space(G, 4)
    ok, w = verify_aw_axioms(W, 4)
    assert ok, w


def test_chains_map_is_coalgebra_map():
    from htwist.barcobar import is_coalgebra_map

    S = minimal_circle(5)
    CS = normalized_chains(S, QQ, 5)
    # collapse S1 -> pt
    P = point_space(5)
    CP = normalized_chains(P, QQ, 5)
    f = chains_map(lambda n, x: P.basepoint(n), CS, CP)
    ok, _ = f.is_chain_map()
    assert ok
    assert is_coalgebra_map(f, CS, CP)
    # identity self-map
    g = chains_map(lambda n, x: x, CS, CS)
    assert is_coalgebra_map(g, CS, CS)


def test_pontryagin_constant_c2():
    G = cyclic_constant_group(2, 5)
    ok, report = verify_pontryagin_axioms(G, GF(2), 4)
    assert ok, report
    assert report["connected"] is False  # two vertices: connectivity reported
    C, table, algebra, rep = chains_of_simplicial_group(G, GF(2), 4)
    # constant group: everything above degree 0 is degenerate
    assert C.complex.basis.dim(0) == 2
    assert all(C.complex.basis.dim(n) == 0 for n in range(1, 5))
    # degree-0 Pontryagin product is the group algebra: g·g = e
    g = C.complex.basis.name_of(0, 1)
    e = C.complex.basis.name_of(0, 0)
    assert table[((0, g), (0, g))] == {e: GF(2).one}


def test_pontryagin_trivial_group():
    G = cyclic_constant_group(1, 4)
    C, table, algebra, rep = chains_of_simplicial_group(G, QQ, 4)
    assert rep["connected"] is True
    assert algebra is not None and algebra.complex.basis.total_dim() == 1


def test_universal_bundle_acyclicity_c2():
    G = cyclic_constant_group(2, 7)
    ok, H = acyclicity_of_universal_bundle(G, ZZ, 5)
    assert ok, H.pretty()


def test_universal_bundle_acyclicity_c3():
    G = cyclic_constant_group(3, 7)
    ok, H = acyclicity_of_universal_bundle(G, ZZ, 5)
    assert ok, H.pretty()


# ---------------------------------------------------------------------
# Acyclicity by certificate: the extra degeneracy h of W̄G ×_ν G
# (docs/DECISIONS.md, sections 4 and 14).
# ---------------------------------------------------------------------

# name -> (fresh group built high enough for the bundle through N, N)
BUNDLE_GROUPS = {
    **{f"C{k}": (lambda k=k: cyclic_constant_group(k, 7), 5) for k in (1, 2, 3, 4, 5)},
    "S3": (lambda: symmetric_group_s3(6), 4),
}


def homology_verdict(G, ring, N):
    """(acyclic, H) read from `homology` of the bundle's normalized chains:
    the oracle the certificate must agree with."""
    H = homology(normalized_chains(universal_bundle(G, N)[0], ring, N).complex, N - 1)
    return H.by_degree.get(0) == (1, []) and all(H.by_degree.get(n) == (0, []) for n in range(1, N)), H


def homology_calls(monkeypatch):
    """The `through` of each `complexes.homology` call, which still runs."""
    calls = []

    def counted(X, through, real=complexes.homology):
        calls.append(through)
        return real(X, through)

    monkeypatch.setattr(complexes, "homology", counted)
    return calls


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
@pytest.mark.parametrize("name", sorted(BUNDLE_GROUPS))
def test_certificate_agrees_with_the_homology_oracle(name, ring, monkeypatch):
    """Each bundle through 1..N is acyclic by certificate alone, with
    `complexes.homology` patched to raise, and gives the (acyclic, H) that
    `homology` gives."""
    build, top = BUNDLE_GROUPS[name]
    oracle = {N: homology_verdict(build(), ring, N) for N in range(1, top + 1)}

    def refuse(X, through):
        raise AssertionError("the homology path ran")

    monkeypatch.setattr(complexes, "homology", refuse)
    for N in range(1, top + 1):
        acyclic, H = acyclicity_of_universal_bundle(build(), ring, N)
        assert (acyclic, H.by_degree) == (oracle[N][0], oracle[N][1].by_degree) and acyclic, (name, N)


def test_group_not_marked_constant_takes_the_homology_path(monkeypatch):
    calls = homology_calls(monkeypatch)
    G = cyclic_constant_group(3, 6)
    G.constant = False
    assert formula_levels(universal_bundle(G, 4)[0], 4) is None
    assert acyclicity_of_universal_bundle(G, ZZ, 4)[0] and calls == [3]


def test_through_0_takes_the_homology_path():
    """Through 0 nothing is computed, and the verdict stays the vacuous
    one `homology` gives."""
    assert acyclicity_of_universal_bundle(cyclic_constant_group(3, 2), ZZ, 0) == \
        homology_verdict(cyclic_constant_group(3, 2), ZZ, 0)


def reference_contraction(X, N, h):
    """What `by_contraction` must return, by X's own maps and h(n, x) a
    function on simplices: the first level, then the first row (position in
    X.elements(n)), then the first identity in the check's order."""
    for n in range(N):
        for p, x in enumerate(X.elements(n)):
            hx = h(n, x)
            checks = [("d0h", X.face(n + 1, 0, hx) == x)]
            if n:
                checks += [(f"d{i + 1}h", X.face(n + 1, i + 1, hx) == h(n - 1, X.face(n, i, x)))
                           for i in range(n + 1)]
            else:
                checks.append(("d1h", X.face(1, 1, hx) == X.basepoint(0)))
            if n + 1 < N:
                checks += [(f"s{j + 1}h", X.degeneracy(n + 1, j + 1, hx) == h(n + 1, X.degeneracy(n, j, x)))
                           for j in range(n + 1)]
            label = next((label for label, ok in checks if not ok), None)
            if label:
                return n, (p, label)
    return None


def h_of(X, h):
    """h(n, x) for index tables h of X."""
    listed = {}

    def at(n):
        return listed.setdefault(n, X.elements(n))

    return lambda n, x: at(n + 1)[h[n][at(n).index(x)]]


# name -> (fresh bundle, N)
CORRUPTED_BUNDLES = {
    "C2": (lambda: universal_bundle(cyclic_constant_group(2, 6), 4)[0], 4),
    "C3": (lambda: universal_bundle(cyclic_constant_group(3, 5), 3)[0], 3),
    "S3": (lambda: universal_bundle(symmetric_group_s3(5), 3)[0], 3),
}


@pytest.mark.parametrize("name", sorted(CORRUPTED_BUNDLES))
def test_intact_contraction_passes_the_reference(name):
    build, N = CORRUPTED_BUNDLES[name]
    X = build()
    levels = formula_levels(X, N, top=False)
    h, v = extra_degeneracy(X, levels)
    assert v == X.elements(0).index(X.basepoint(0))
    assert all(X.elements(n + 1)[h[n][p]] == (x + (y,), X.Y.neutral(n + 1))
               for n in range(N) for p, (x, y) in enumerate(X.elements(n)))
    assert by_contraction(levels, h, v) is None is reference_contraction(X, N, h_of(X, h))


@pytest.mark.parametrize("name", sorted(CORRUPTED_BUNDLES))
def test_corrupted_h_entry_is_located(name):
    build, N = CORRUPTED_BUNDLES[name]
    X = build()
    for seed in range(8):
        rng = random.Random(seed)
        levels = formula_levels(X, N, top=False)
        h, v = extra_degeneracy(X, levels)
        n = rng.randrange(N)
        p = rng.randrange(levels[n].size)
        h[n][p] = rng.choice([q for q in range(levels[n + 1].size) if q != h[n][p]])
        fail = by_contraction(levels, h, v)
        assert fail is not None and fail == reference_contraction(X, N, h_of(X, h)), (name, seed)


@pytest.mark.parametrize("name", sorted(CORRUPTED_BUNDLES))
def test_corrupted_face_entry_is_located(name):
    """A face of levels 1..N - 1, or of level N on a simplex h lands on
    (the only ones the check reads there), moved to another simplex."""
    build, N = CORRUPTED_BUNDLES[name]
    for seed in range(8):
        rng = random.Random(seed)
        X = build()
        levels = formula_levels(X, N, top=False)
        h, v = extra_degeneracy(X, levels)
        n = rng.randint(1, N)
        i = rng.randint(0, n)
        p = rng.choice(h[N - 1]) if n == N else rng.randrange(levels[n].size)
        q = rng.choice([q for q in range(levels[n - 1].size) if q != levels[n].faces[i][p]])
        levels[n].faces[i][p] = q
        fail = by_contraction(levels, h, v)
        x, bad = X.elements(n)[p], X.elements(n - 1)[q]
        corrupt(X, "face", n, i, lambda y: y == x, lambda value: bad)
        assert fail is not None and fail == reference_contraction(X, N, h_of(X, h)), (name, seed)


def test_failing_certificate_falls_back_to_homology(monkeypatch):
    """With one entry of h moved the certificate fails, and the verdict is
    the one `homology` gives: never one taken from an unchecked h."""
    def corrupted(X, levels, real=extra_degeneracy):
        h, v = real(X, levels)
        h[2][5] += 1
        return h, v

    monkeypatch.setattr(chains, "extra_degeneracy", corrupted)
    calls = homology_calls(monkeypatch)
    got = acyclicity_of_universal_bundle(cyclic_constant_group(3, 6), ZZ, 4)
    assert calls == [3] and got == homology_verdict(cyclic_constant_group(3, 6), ZZ, 4)


def wbar_c3_tcp_chains(N):
    """Normalized chains of W̄C3 ×_ν C3 through degree N, over Z."""
    tcp, _, _ = universal_bundle(cyclic_constant_group(3, N + 2), N)
    return normalized_chains(tcp, ZZ, N).complex


def wbar_c3_chains(N):
    return normalized_chains(classifying_space(cyclic_constant_group(3, N + 2), N), ZZ, N).complex


def shuffled_basis(X, seed):
    """The same complex with the basis order of every degree shuffled."""
    rng = random.Random(seed)
    by_degree = {}
    for n in X.basis.degrees():
        names = list(X.basis.names(n))
        rng.shuffle(names)
        by_degree[n] = names
    Y = ChainComplex(X.ring, GradedBasis(X.truncation, by_degree))
    for n in range(1, X.truncation + 1):
        for src in X.basis.names(n):
            for dst, c in X.d_of(n, src).items():
                Y.set_d_entry(n, src, dst, c)
    return Y


def sympy_homology(X, through):
    """{n: (free rank, torsion)} from sympy SNFs of the differentials."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    facs = []
    for n in range(through + 2):
        d = X.dmat(n)
        if d.nrows == 0 or d.ncols == 0:
            facs.append([])
            continue
        S = sympy_snf(sympy.Matrix(d.nrows, d.ncols, lambda i, j: d[i, j]), domain=sympy.ZZ)
        facs.append(sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0))
    return {n: (X.basis.dim(n) - len(facs[n]) - len(facs[n + 1]),
                [f for f in facs[n + 1] if f > 1])
            for n in range(through + 1)}


@pytest.mark.parametrize("build", [wbar_c3_tcp_chains, wbar_c3_chains])
def test_z_homology_independent_of_basis_order_and_matches_sympy(build):
    N = 5
    X = build(N)
    H = homology(X, N - 1)
    assert H.by_degree == sympy_homology(X, N - 1)
    for seed in (1, 2, 3):
        Y = shuffled_basis(X, seed)
        assert [Y.basis.names(n) for n in range(N + 1)] != [X.basis.names(n) for n in range(N + 1)]
        assert homology(Y, N - 1).by_degree == H.by_degree
    if build is wbar_c3_tcp_chains:  # contractible total space
        assert H.by_degree == {0: (1, []), **{n: (0, []) for n in range(1, N)}}
    else:
        assert H.torsion(1) == [3] and H.torsion(3) == [3]


def test_z_homology_eliminates_each_differential_once_without_transforms(monkeypatch):
    """One diagonalisation per degree, with no U or V, of d_n less exactly
    the rows that the diagonalisation of d_{n-1} settled
    (docs/DECISIONS.md, section 10)."""
    X = wbar_c3_tcp_chains(4)
    real = sparse._z_diagonalize
    calls = []

    def spy(rows, U, V):
        eliminated = {i: dict(row) for i, row in rows.items()}
        pivots, settled = real(rows, U, V)
        calls.append((eliminated, U, V, settled))
        return pivots, settled

    monkeypatch.setattr(sparse, "_z_diagonalize", spy)
    homology(X, 3)
    assert len(calls) == 5, "one elimination per degree, d_0 to d_4"
    assert all(U is None and V is None for _, U, V, _ in calls), "U and V were built"
    settled, pruned = set(), 0
    for n, (eliminated, _, _, now) in enumerate(calls):
        full = {}
        for (i, j), v in X.dmat(n).entries.items():
            full.setdefault(i, {})[j] = v
        assert eliminated == {i: row for i, row in full.items() if i not in settled}
        pruned += len(full) - len(eliminated)
        settled = now
    assert pruned > 0
