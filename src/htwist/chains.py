"""Normalized chains of finite simplicial sets with the Alexander-Whitney
coalgebra structure, and the Pontryagin chain algebra of a levelwise-finite
simplicial group via Eilenberg-Zilber shuffles.

The AW and EZ formulas are the classical ones; their axioms (coassociativity,
counits, associativity, the derivation property) are machine-verified on the
fixtures rather than trusted.  Chains of symbolic (free-group) levels are
refused: the cited chain-level comparison with the cobar construction is out
of scope here.
"""

from __future__ import annotations

from array import array
from functools import cache
from itertools import combinations, compress

from ._simplicial_tables import call_levels, extra_degeneracy, formula_levels
from ._structure_maps import Action, Coaction, _rows_by_name
from .complexes import ChainComplex, GradedBasis, HomologySummary
from .hopf import ChainAlgebra, ChainCoalgebra, _product_failures
from .rings import Ring, ZZ
from .simplicial import NotFinite, SimplicialGroup, SimplicialSet


def _nondegenerate_levels(X: SimplicialSet, N: int):
    """(levels, nd): X's index tables through level N, by formula where
    `_simplicial_tables.formula_levels` has one and otherwise one call per
    simplex, and per level the positions of its nondegenerate simplices,
    those on which no degeneracy of the level below lands."""
    levels = formula_levels(X, N, top=False) or call_levels(X, N)
    if levels is None:
        symbolic = next(n for n in range(N + 1) if X.elements(n) is None)
        raise NotFinite(f"{X.name} level {symbolic}")
    nd = []
    for n, level in enumerate(levels):
        # one spare slot at the end, which a -1 (a degeneracy that is not
        # listed) marks
        alive = bytearray(b"\x01") * (level.size + 1)
        for table in levels[n - 1].degens if n else ():
            for q in table:
                alive[q] = 0
        nd.append(list(compress(range(level.size), alive)))
    return levels, nd


def _basis_and_faces(X: SimplicialSet, N: int):
    """(basis, faces): the nondegenerate simplices x through level N, named
    <x> and keyed by x, and faces[n][i][col], the basis row of d_i of the
    col-th basis simplex of degree n, or -1 for a face off the basis.  The
    simplices and full tables are dropped on return, before d is built."""
    levels, nd = _nondegenerate_levels(X, N)
    basis, faces, below = GradedBasis(N), [], None
    for n, level in enumerate(levels):
        # position -> basis row; the spare last slot is what a -1 face (one
        # that is not listed) reads
        rows = array("i", [-1]) * (level.size + 1)
        for row, p in enumerate(nd[n]):
            x = level.simplices[p]
            basis.add(n, f"<{x}>", x)
            rows[p] = row
        faces.append([array("i", map(below.__getitem__, map(table.__getitem__, nd[n])))
                      for table in level.faces])
        below = rows
    return basis, faces


def _aw_faces(X: SimplicialSet, n: int, x, nondegenerate):
    """(p, front, back) for p = 0..n, front = d_{p+1}...d_n x the front
    p-face and back = d_0^{n-p} x the back (n-p)-face of x in X_n, where
    ``nondegenerate(k, y)`` holds for both: the Alexander-Whitney terms."""
    fronts, backs = [x], [x]  # index i: in level n - i
    for k in range(n, 0, -1):
        fronts.append(X.face(k, k, fronts[-1]))
        backs.append(X.face(k, 0, backs[-1]))
    for p in range(n + 1):
        front, back = fronts[n - p], backs[p]
        if nondegenerate(p, front) and nondegenerate(n - p, back):
            yield p, front, back


def normalized_chains(X: SimplicialSet, ring: Ring, N: int) -> ChainCoalgebra:
    """C_*X with the Alexander-Whitney diagonal, on the nondegenerate
    simplices x named <x> and keyed by x; Δx is computed when first read.

    The result always carries a valid complex.  It is a 1-connected
    coaugmented coalgebra (``is_one_connected``) exactly when X is 1-reduced,
    and downstream coalgebra operations refuse inputs where it is not.
    """
    basis, faces = _basis_and_faces(X, N)
    Z = ChainComplex(ring, basis)
    # row[r], not r: the keys of d share one int per row
    Z._set_d(lambda n: (((row[r], col), -1 if i % 2 else 1)
                        for row in [list(range(basis.dim(n - 1)))]
                        for col, rs in enumerate(zip(*faces[n])) for i, r in enumerate(rs) if r >= 0))
    one, names, positions = ring.one, basis.names, basis.positions

    @cache
    def diagonal(n, j):
        # x⊗1 and 1⊗x, then the inner AW terms; the coaugmentation is row 0
        return [(n, j, 0, one), (0, 0, j, one)] + [
            (p, positions(p)[front], positions(n - p)[back], one)
            for p, front, back in _aw_faces(X, n, basis.keys[names(n)[j]], lambda k, y: y in positions(k))
            if 0 < p < n]

    return ChainCoalgebra(Z, names(0)[0], Coaction(diagonal, Z, Z, Z), name=f"C({X.name})")


def verify_aw_axioms(X: SimplicialSet, N: int):
    """Coassociativity and counit of the AW diagonal, exhaustively over Z;
    valid for any finite X (reduced or not), using the honest total counit."""
    levels, positions = _nondegenerate_levels(X, N)
    nd = [[level.simplices[p] for p in ps] for level, ps in zip(levels, positions)]
    ndsets = [set(simplices) for simplices in nd]

    def diagonal(n, x):
        return [((p, f), (n - p, b), 1) for p, f, b in _aw_faces(X, n, x, lambda k, y: y in ndsets[k])]

    for n in range(N + 1):
        for x in nd[n]:
            terms = diagonal(n, x)
            # counit: (ε⊗1)Δ = id = (1⊗ε)Δ with ε = 1 on every vertex
            left = ZZ.lincomb((k2, c) for k1, k2, c in terms if k1[0] == 0)
            right = ZZ.lincomb((k1, c) for k1, k2, c in terms if k2[0] == 0)
            if left != {(n, x): 1} or right != {(n, x): 1}:
                return False, {"axiom": "counit", "element": x}
            lhs = ZZ.lincomb(((j1, j2, k2), c * c2) for k1, k2, c in terms
                             for j1, j2, c2 in diagonal(*k1))
            rhs = ZZ.lincomb(((k1, j1, j2), c * c2) for k1, k2, c in terms
                             for j1, j2, c2 in diagonal(*k2))
            if lhs != rhs:
                return False, {"axiom": "coassociativity", "element": x}
    return True, None


def chains_map(g, CX: ChainCoalgebra, CY: ChainCoalgebra):
    """C_*(g) for a simplicial map g given as a callable (n, x) -> y;
    degenerate images die."""
    from .complexes import ChainMap

    f = ChainMap(CX.complex, CY.complex)
    simplices, image_basis = CX.complex.basis.keys, CY.complex.basis
    for n in range(CX.truncation + 1):
        for name in CX.basis(n):
            yname = image_basis.name_of(n, g(n, simplices[name]))
            if yname is not None:
                f.set_entry(n, name, yname, 1)
    return f


# ---------------------------------------------------------------------
# Pontryagin product via Eilenberg-Zilber shuffles.
# ---------------------------------------------------------------------

def _shuffles(p: int, q: int):
    """(p,q)-shuffles as (mu, nu, sign): mu ∪ nu = {0..p+q-1}, |mu| = p."""
    out = []
    universe = list(range(p + q))
    for mu in combinations(universe, p):
        nu = tuple(k for k in universe if k not in mu)
        sign = (-1) ** sum(m - i for i, m in enumerate(mu))
        out.append((mu, nu, sign))
    return out


def pontryagin_product_table(G: SimplicialGroup, ring: Ring, C: ChainCoalgebra, N: int):
    """Structure constants of C_*(mult) ∘ EZ on nondegenerate simplices.

    EZ(x⊗y) = Σ ± (s_ν x)·(s_μ y) over (p,q)-shuffles, multiplied levelwise
    in G and normalized."""
    basis = C.complex.basis

    def ez_terms(p, x, q, y):
        for mu, nu, sign in _shuffles(p, q):
            # degeneracy words applied ascending (lowest level first)
            sx = x
            lvl = p
            for j in sorted(nu):
                sx = G.degeneracy(lvl, j, sx)
                lvl += 1
            sy = y
            lvl = q
            for j in sorted(mu):
                sy = G.degeneracy(lvl, j, sy)
                lvl += 1
            zn = basis.name_of(p + q, G.mult(p + q, sx, sy))
            if zn is not None:
                yield zn, ring.of(sign)

    table: dict = {}
    for p in range(N + 1):
        for xn in C.basis(p):
            for q in range(N + 1 - p):
                for yn in C.basis(q):
                    x, y = basis.keys[xn], basis.keys[yn]
                    combo = ring.lincomb(ez_terms(p, x, q, y))
                    if combo and not (p == 0 and x == G.neutral(0)) \
                       and not (q == 0 and y == G.neutral(0)):
                        table[((p, xn), (q, yn))] = combo
    return table


def chains_of_simplicial_group(G: SimplicialGroup, ring: Ring, N: int):
    """(C_*G, product table, algebra, report): the Pontryagin chain algebra.

    When G is reduced (single vertex e) the algebra is a connected
    ChainAlgebra that reads the table; otherwise it is None, the
    connectivity failure is reported and the raw table returned for the
    direct axiom checks.
    """
    from .fixtures import table_product

    C = normalized_chains(G, ring, N)
    table = pontryagin_product_table(G, ring, C, N)
    reduced = len(G.elements(0)) == 1
    report = {"connected": reduced}
    algebra = None
    if reduced:
        unit = C.complex.basis.name_of(0, G.neutral(0))
        algebra = ChainAlgebra(C.complex, unit, table_product(C.complex, table), name=f"C({G.name})")
    return C, table, algebra, report


def verify_pontryagin_axioms(G: SimplicialGroup, ring: Ring, N: int):
    """Associativity and the Leibniz rule for the shuffle product, whose
    ``prod`` makes the unit act strictly, exhaustively through degree N and
    without assuming connectivity: the checks of verify_algebra, over degree
    0 as well when G has several vertices."""
    C, table, _, report = chains_of_simplicial_group(G, ring, N)
    unit = C.complex.basis.name_of(0, G.neutral(0))
    R = ring

    def prod(p, xn, q, yn):
        if p == 0 and xn == unit:
            return {yn: R.one}
        if q == 0 and yn == unit:
            return {xn: R.one}
        return table.get(((p, xn), (q, yn)), {})

    X = C.complex
    triples, pairs = _product_failures(X, Action(_rows_by_name(prod, X, X), X, X), N)
    problems = [{"axiom": "associativity", "triple": (a, b, c)} for (_, a), (_, b), (_, c) in triples]
    problems += [{"axiom": "Leibniz", "pair": (a, b)} for (_, a), (_, b) in pairs]
    report["problems"] = problems
    return (not problems), report


def acyclicity_of_universal_bundle(G: SimplicialGroup, ring: Ring, N: int):
    """(acyclic, H): H(C_*(W̄G ×_ν G)) through N - 1, the contractibility
    certificate, in one of two modes (docs/DECISIONS.md, section 4).

    By certificate, when `formula_levels` has tables for the bundle and
    N >= 1: the extra degeneracy h of `_simplicial_tables.extra_degeneracy`
    passes `_simplicial_identities.by_contraction`, so ∂h + h∂ = id - ηε
    on normalized chains, and H is Z (the ring) in degree 0 and 0 above.
    Otherwise, or when the check fails, by `homology` of the normalized
    chains."""
    from ._simplicial_identities import by_contraction
    from .complexes import homology
    from .simplicial import universal_bundle

    tcp, W, nu = universal_bundle(G, N)
    levels = formula_levels(tcp, N, top=False) if N >= 1 else None
    contraction = extra_degeneracy(tcp, levels) if levels else None
    if contraction and by_contraction(levels, *contraction) is None:
        return True, HomologySummary({0: (1, []), **{n: (0, []) for n in range(1, N)}})
    C = normalized_chains(tcp, ring, N)
    H = homology(C.complex, N - 1)
    acyclic = H.by_degree.get(0) == (1, []) and all(
        H.by_degree.get(n) == (0, []) for n in range(1, N)
    )
    return acyclic, H
