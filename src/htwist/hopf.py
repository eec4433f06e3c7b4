"""Chain algebras and coalgebras, each given by one structure function
(its product or its full coproduct), plus module/comodule structures over
them.  Every structure map is read by basis index (an `Action` or a
`Coaction` of `_structure_maps`); calling it reads the same map by name.

Conventions enforced throughout: algebras are connected (degree 0 spanned by
the unit), coalgebras are 1-connected (degree 0 spanned by the coaugmentation,
degree 1 empty).  Products landing above the truncation are silently dropped;
all axiom checks quantify only over basis tuples whose total degree stays
within the truncation, which keeps them exact rather than approximate.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

from .complexes import (
    ChainComplex,
    ChainMap,
    RingMismatch,
    _chain_map_failures,
    _differing_columns,
    _tensor_kron,
    _tensor_offset,
    tensor_complex,
    tensor_name,
)
from ._structure_maps import Action, Coaction, _Unital
from .sparse import SparseMatrix


Key = tuple[int, str]  # (degree, basis name)


def _sign(ring, k: int):
    return ring.of(-1) if k % 2 else ring.one


class ChainAlgebra:
    """Connected augmented chain algebra whose product is one `Action` by
    basis index; it is asked only for basis elements of positive degree
    with |a| + |b| within the truncation.  ``self.product`` is that Action
    with the unit rule.  A product known by name is read by index through
    the basis where it is loaded (`fixtures.table_product`)."""

    def __init__(self, complex: ChainComplex, unit: str, product: Action, name: str = ""):
        self.complex = complex
        self.unit = unit
        self.name = name
        self.product = _Unital(product.rows, complex, complex, unit, complex.truncation, both=True)

    @property
    def ring(self):
        return self.complex.ring

    @property
    def truncation(self):
        return self.complex.truncation

    def basis(self, n: int):
        return self.complex.basis.names(n)

    def aug(self, n: int, name: str):
        """Augmentation functional: 1 on the unit, 0 elsewhere."""
        return self.ring.one if (n == 0 and name == self.unit) else self.ring.zero

    def is_connected(self) -> bool:
        return self.basis(0) == [self.unit]


class ChainCoalgebra:
    """1-connected coaugmented chain coalgebra whose coproduct is one
    `Coaction` by basis index: the full Δc, counit terms c⊗1 and 1⊗c
    included, asked only for basis elements of positive degree.
    ``self.coproduct`` is the Coaction with the coaugmentation rule: in
    degree 0, Δ(coaug) = 1⊗1 and every other element goes to 0."""

    def __init__(self, complex: ChainComplex, coaug: str, coproduct: Coaction, name: str = ""):
        self.complex = complex
        self.coaug = coaug
        self.name = name
        inner = coproduct.rows
        one, names = complex.ring.one, complex.basis.names

        def rows(n, j):
            if n == 0:
                return [(0, j, j, one)] if names(0)[j] == coaug else []
            return inner(n, j)

        self.coproduct = Coaction(rows, complex, complex, complex)

    @property
    def ring(self):
        return self.complex.ring

    @property
    def truncation(self):
        return self.complex.truncation

    def basis(self, n: int):
        return self.complex.basis.names(n)

    def reduced_coproduct(self, dc: int, c: str):
        return [t for t in self.coproduct(dc, c) if t[0][0] > 0 and t[1][0] > 0]

    def counit(self, n: int, name: str):
        return self.ring.one if (n == 0 and name == self.coaug) else self.ring.zero

    def is_one_connected(self) -> bool:
        return self.basis(0) == [self.coaug] and not self.basis(1)


class ModuleStructure:
    """Action of a ChainAlgebra on a carrier complex (side: left or right),
    given by index, ``rows(|m|, i, |a|, j)`` -> [(row, coeff)] of m·a (right)
    or a·m (left) for m = carrier_|m|[i], a = algebra_|a|[j].  ``act`` is
    that Action with the unit rule."""

    def __init__(self, algebra: ChainAlgebra, carrier: ChainComplex, side: str, rows):
        assert side in ("left", "right")
        self.algebra = algebra
        self.carrier = carrier
        self.side = side
        self.act = _Unital(rows, carrier, algebra.complex, algebra.unit, carrier.truncation, both=False)

    @property
    def ring(self):
        return self.carrier.ring


class ComoduleStructure:
    """Coaction of a ChainCoalgebra on a carrier complex, given by index,
    ``rows(n, j)`` (a `Coaction`'s rows): side "left", λ: M -> C⊗M; side
    "right", ρ: M -> M⊗C.  ``coact`` is that Coaction."""

    def __init__(self, coalgebra: ChainCoalgebra, carrier: ChainComplex, side: str, rows):
        assert side in ("left", "right")
        self.coalgebra = coalgebra
        self.carrier = carrier
        self.side = side
        C = coalgebra.complex
        self.coact = Coaction(rows, carrier, *((C, carrier) if side == "left" else (carrier, C)))

    @property
    def ring(self):
        return self.carrier.ring


# ---------------------------------------------------------------------
# Structure identities as module-map, comodule-map or chain-map identities
# of sparse matrices, one per degree, on tensor_basis layouts; failing
# columns are named only for the witnesses (docs/DECISIONS.md, section 8).
# ---------------------------------------------------------------------

def _pairs(off: list[int], Y: ChainComplex, n: int, lowest: int, cols=None):
    """(col, |x|, i, |y|, j) for the x = X_{|x|}[i], y = Y_{|y|}[j] with
    |x| + |y| = n and |y| >= lowest, col the index of x⊗y in the
    tensor_basis layout of X ⊗ Y whose degree-n offsets are ``off``
    (`_tensor_offset`); all of them, or those at ``cols``."""
    dims = [Y.basis.dim(n - p) for p in range(n + 1)]
    for col in (range(off[-1]) if cols is None else cols):
        p = bisect_right(off, col) - 1
        if n - p >= lowest:
            i, j = divmod(col - off[p], dims[p])
            yield col, p, i, n - p, j


def _action_table(rows, M: ChainComplex, A: ChainComplex, n: int, lowest: int,
                  cols=None) -> SparseMatrix:
    """The action ``rows(|m|, i, |a|, j)`` -> [(row in M_n, coeff)] (an
    Action's) on the pairs _pairs(M ⊗ A, n, lowest, cols), as a matrix from
    the layout of M ⊗ A."""
    off = _tensor_offset(M, A, n)
    out = SparseMatrix(M.ring, M.basis.dim(n), off[-1])
    entries = out.entries
    for col, dm, i, da, j in _pairs(off, A, n, lowest, cols):
        for r, v in rows(dm, i, da, j):
            entries[r, col] = v
    return out


def _coaction_table(rows, C: ChainComplex, M: ChainComplex, n: int, cols=None) -> SparseMatrix:
    """The left coaction ``rows(n, j)`` -> [(|c|, i, k, coeff)] (a
    Coaction's) on M_n (all columns, or those at ``cols``), as a matrix to
    the layout of C ⊗ M."""
    R, off = M.ring, _tensor_offset(C, M, n)
    out = SparseMatrix(R, off[-1], M.basis.dim(n))
    dims = [M.basis.dim(n - p) for p in range(n + 1)]
    # a term listed twice is summed, and a zero sum is no entry
    out.entries = R.lincomb(((off[p] + i * dims[p] + k, j), v)
                            for j in (range(M.basis.dim(n)) if cols is None else cols)
                            for p, i, k, v in rows(n, j))
    return out


def _module_map_failures(f: ChainMap, phi: ChainMap, act: Action, target_act: Action, N: int):
    """The basis pairs ((|m|, m), (|a|, a)) with f(m·a) != f(m)·phi(a) and
    |m| + |a| <= N, in the order (|m|, m, |a|, a): one identity f∘act =
    act'∘(f⊗phi) per degree, act and act' = ``target_act`` tabulated by
    index; act' is read only where f⊗phi reaches.

    a runs over the degrees >= 1 of phi's algebra, as ``product`` makes the
    unit act strictly, and over degree 0 too when that holds more than the
    unit."""
    M, A, M2, A2 = f.source, phi.source, f.target, phi.target
    lowest = 0 if A.basis.dim(0) > 1 else 1
    failures = []
    for n in range(N + 1):
        kron = _tensor_kron(f, phi, n)
        lhs = f.mat(n) @ _action_table(act.rows, M, A, n, lowest)
        rhs = _action_table(target_act.rows, M2, A2, n, lowest, {i for i, _ in kron.entries}) @ kron
        failures += _pairs(_tensor_offset(M, A, n), A, n, lowest, _differing_columns(lhs, rhs))
    return [((dm, M.basis.names(dm)[i]), (da, A.basis.names(da)[j]))
            for _, dm, i, da, j in sorted(failures, key=lambda k: k[1:])]


def _comodule_map_failures(f: ChainMap, phi: ChainMap, coact: Coaction, target_coact: Coaction, N: int):
    """The basis elements (n, m) with λ'(f(m)) != (phi⊗f)(λ(m)) and n <= N, in
    order: one identity λ'∘f = (phi⊗f)∘λ per degree, λ = ``coact`` and λ' =
    ``target_coact`` tabulated by index; λ' is read only where f reaches."""
    M, C, M2, C2 = f.source, phi.source, f.target, phi.target
    failures = []
    for n in range(N + 1):
        fn = f.mat(n)
        lhs = _coaction_table(target_coact.rows, C2, M2, n, {i for i, _ in fn.entries}) @ fn
        rhs = _tensor_kron(phi, f, n) @ _coaction_table(coact.rows, C, M, n)
        failures += [(n, M.basis.names(n)[j]) for j in _differing_columns(lhs, rhs)]
    return failures


def _pair_layout(X: ChainComplex, Y: ChainComplex):
    """(at, factors) for the tensor_basis layout of X ⊗ Y: at(n, p, i) + j is
    the index in degree n of X_p[i] ⊗ Y_{n-p}[j], and factors(n, k) = (p, i,
    j) of the pair at index k of degree n, both by the offsets of
    `_tensor_offset`."""
    dim, off = Y.basis.dim, cache(lambda n: _tensor_offset(X, Y, n))

    def at(n, p, i):
        return off(n)[p] + i * dim(n - p)

    def factors(n, k):
        o = off(n)
        p = bisect_right(o, k) - 1
        return (p, *divmod(k - o[p], dim(n - p)))

    return at, factors


def _right_factor_action(X: ChainComplex, act: Action, carrier: ChainComplex) -> Action:
    """(x⊗y)·a = x⊗(y·a) on carrier = X ⊗ M in the tensor_basis layout, from
    the action ``act`` of an algebra on M, by offset arithmetic."""
    at, factors = _pair_layout(X, act.X)

    def rows(n, i, da, j):
        p, x, y = factors(n, i)
        base = at(n + da, p, x)
        return [(base + r, v) for r, v in act.rows(n - p, y, da, j)]

    return Action(rows, carrier, act.Y)


def _product_failures(X: ChainComplex, product: Action, N: int):
    """The associativity triples ((|a|, a), (|b|, b), (|c|, c)) and Leibniz
    pairs ((|a|, a), (|b|, b)) of ``product`` on X through N, by degrees,
    then basis order.  With μ tabulated on X ⊗ X, associativity is "μ is a
    module map over id, X acting on the right factor of X ⊗ X" and Leibniz
    is "μ is a chain map"."""
    XX = tensor_complex(X, X, N)
    pairs, index = XX.basis.keys, X.basis.index
    mu = ChainMap(XX, X, {n: _action_table(product.rows, X, X, n, 0) for n in range(N + 1)})

    def order(keys):
        return tuple(d for d, _ in keys) + tuple(index(d, x) for d, x in keys)

    triples = sorted(((*pairs[m], c) for (_, m), c in _module_map_failures(
        mu, ChainMap.identity(X), _right_factor_action(X, product, XX), product, N)), key=order)
    leibniz = sorted((pairs[XX.basis.names(n)[j]] for n, j in _chain_map_failures(mu, N)), key=order)
    return triples, leibniz


def verify_algebra(A: ChainAlgebra):
    """Exhaustive connectivity/unit/associativity/Leibniz/augmentation check,
    associativity and Leibniz by _product_failures.

    The unit is strict by construction: `ChainAlgebra.product` answers
    every degree-0 factor by the unit rule, so 1·a = a always holds, and
    a·1 = a for every a of positive degree.  Only a degree-0 basis element
    other than the unit, which a connected algebra has none of, gets
    a·1 = 0 and a right-unit witness.

    Returns (ok, witnesses); each witness names the violated axiom and the
    basis tuple realizing the violation."""
    R = A.ring
    X = A.complex
    N = A.truncation
    witnesses = []

    if not A.is_connected():
        witnesses.append({"axiom": "connected", "degree0": X.basis.names(0), "unit": A.unit})
    witnesses += [{"axiom": "right-unit", "element": (0, a)}
                  for a in X.basis.names(0) if A.product(0, a, 0, A.unit) != {a: R.one}]

    triples, pairs = _product_failures(X, A.product, N)
    witnesses += [{"axiom": "associativity", "triple": (a, b, c)} for (_, a), (_, b), (_, c) in triples]
    witnesses += [{"axiom": "Leibniz", "pair": pair} for pair in pairs]

    # augmentation is a chain algebra map: aug(d x) = 0 for |x| = 1, i.e.
    # the unit's row of d_1 is zero
    if A.unit in X.basis.names(0):
        row = X.basis.index(0, A.unit)
        cols = {j for (i, j), v in X.dmat(1).entries.items() if i == row and not R.is_zero(v)}
        witnesses += [{"axiom": "augmentation-chain", "element": a}
                      for j, a in enumerate(X.basis.names(1)) if j in cols]

    return (not witnesses), witnesses


def verify_coalgebra(C: ChainCoalgebra):
    """Dual check: 1-connectivity, counits, coassociativity, coderivation.

    Δ is tabulated once on X ⊗ X; coassociativity is "Δ is a left comodule
    map over id, C coacting by Δ⊗1 on X ⊗ X" and coderivation "Δ is a chain
    map".  Witnesses follow the basis, and per element the order
    left-counit, right-counit, coassociativity, coderivation."""
    R = C.ring
    X = C.complex
    N = C.truncation
    witnesses = []

    if not C.is_one_connected():
        witnesses.append({
            "axiom": "1-connected",
            "degree0": X.basis.names(0),
            "degree1": X.basis.names(1),
        })

    found = []  # (degree, basis index, axiom rank, witness)
    for n in range(N + 1):
        for i, c in enumerate(X.basis.names(n)):
            cop = C.coproduct(n, c)
            left = R.lincomb((k2, C.counit(*k1) * v) for k1, k2, v in cop if k1[0] == 0)
            right = R.lincomb((k1, C.counit(*k2) * v) for k1, k2, v in cop if k2[0] == 0)
            for rank, (side_name, got) in enumerate((("left-counit", left), ("right-counit", right))):
                if got != {(n, c): R.one}:
                    found.append((n, i, rank, {"axiom": side_name, "element": (n, c)}))

    XX = tensor_complex(X, X, N)
    delta = ChainMap(X, XX, {n: _coaction_table(C.coproduct.rows, X, X, n) for n in range(N + 1)})
    found += [(n, X.basis.index(n, c), 2, {"axiom": "coassociativity", "element": (n, c)})
              for n, c in _comodule_map_failures(delta, ChainMap.identity(X), C.coproduct,
                                                 cofree_comodule_over(C, X, XX).coact, N)]
    found += [(n, j, 3, {"axiom": "coderivation", "element": (n, X.basis.names(n)[j])})
              for n, j in _chain_map_failures(delta, N)]
    witnesses += [w for *_, w in sorted(found, key=lambda t: t[:3])]
    return (not witnesses), witnesses

# ---------------------------------------------------------------------
# Tensor products of algebras and coalgebras (Koszul convention).
# ---------------------------------------------------------------------

def _pair_product(mx: Action, my: Action, Z: ChainComplex) -> Action:
    """(x⊗y)·(x'⊗y') = (-1)^{|y||x'|} xx' ⊗ yy' on Z = X ⊗ Y in the
    tensor_basis layout, from the products ``mx`` on X and ``my`` on Y, by
    `_pair_layout`.  Every pair is computed once, when first asked (the
    algebra checks and each table that reads the product ask it again)."""
    R, (at, factors) = Z.ring, _pair_layout(mx.X, my.X)

    @cache
    def rows(n1, i1, n2, i2):
        (p1, x1, y1), (p2, x2, y2) = factors(n1, i1), factors(n2, i2)
        q1 = n1 - p1
        sgn = -1 if q1 * p2 % 2 else 1
        return list(R.lincomb((at(n1 + n2, p1 + p2, rx) + ry, sgn * vx * vy)
                              for rx, vx in mx.rows(p1, x1, p2, x2)
                              for ry, vy in my.rows(q1, y1, n2 - p2, y2)).items())

    return Action(rows, Z, Z)


def tensor_algebra_product(A: ChainAlgebra, B: ChainAlgebra, through: int | None = None) -> ChainAlgebra:
    """A ⊗ B with the Koszul product of `_pair_product`."""
    if A.ring != B.ring:
        raise RingMismatch(f"{A.ring} vs {B.ring}")
    Z = tensor_complex(A.complex, B.complex, through)
    return ChainAlgebra(Z, tensor_name(A.unit, B.unit), _pair_product(A.product, B.product, Z),
                        name=f"{A.name}⊗{B.name}")


def tensor_coalgebra_product(C: ChainCoalgebra, D: ChainCoalgebra, through: int | None = None) -> ChainCoalgebra:
    """C ⊗ D with Δ(c⊗d) = Σ ± (c1⊗d1) ⊗ (c2⊗d2), sign (-1)^{|d1||c2|}: the
    counit terms z⊗1 and 1⊗z first, then the terms of Δc × Δd whose two
    factors both have positive degree, nonzero ones only; pairs by
    `_pair_layout`, each computed once, when first asked."""
    if C.ring != D.ring:
        raise RingMismatch(f"{C.ring} vs {D.ring}")
    R, X, Y = C.ring, C.complex, D.complex
    Z = tensor_complex(X, Y, through)
    at, factors = _pair_layout(X, Y)
    unit = at(0, 0, X.basis.index(0, C.coaug)) + Y.basis.index(0, D.coaug)

    @cache
    def rows(n, j):
        p, c, d = factors(n, j)
        out = [(n, j, unit, R.one), (0, unit, j, R.one)]
        for e1, c1, c2, v in C.coproduct.rows(p, c):
            for f1, d1, d2, w in D.coproduct.rows(n - p, d):
                e2, f2 = p - e1, n - p - f1
                if e1 + f1 > 0 and e2 + f2 > 0 and (u := R.mul(_sign(R, f1 * e2), R.mul(v, w))):
                    out.append((e1 + f1, at(e1 + f1, e1, c1) + d1, at(e2 + f2, e2, c2) + d2, u))
        return out

    return ChainCoalgebra(Z, tensor_name(C.coaug, D.coaug), Coaction(rows, Z, Z, Z), name=f"{C.name}⊗{D.name}")


def free_module_over(A: ChainAlgebra, X: ChainComplex, carrier: ChainComplex) -> ModuleStructure:
    """Right A-module structure on the pair-basis carrier X ⊗ A, acting on
    the second factor: (x⊗a)·b = x⊗(ab), by offset arithmetic.  Used for
    every free module in this artifact."""
    return ModuleStructure(A, carrier, "right", _right_factor_action(X, A.product, carrier).rows)


def cofree_comodule_over(C: ChainCoalgebra, Y: ChainComplex, carrier: ChainComplex) -> ComoduleStructure:
    """Left C-comodule structure on the pair-basis carrier C ⊗ Y, splitting
    the first factor by Δ: (Δ⊗1)(c⊗y), by offset arithmetic.  Dual of
    free_module_over."""
    at, factors = _pair_layout(C.complex, Y)

    def rows(n, j):
        p, c, y = factors(n, j)
        return [(e, i, at(n - e, p - e, k) + y, v) for e, i, k, v in C.coproduct.rows(p, c)]

    return ComoduleStructure(C, carrier, "left", rows)
