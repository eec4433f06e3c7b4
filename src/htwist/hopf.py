"""Chain algebras and coalgebras, each given by one structure function
(its product or its full coproduct), plus module/comodule structures over
them.

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
    _tensor_offsets,
    tensor_complex,
    tensor_name,
)
from .sparse import SparseMatrix


class NotConnected(Exception):
    pass


class NotOneConnected(Exception):
    pass


Key = tuple[int, str]  # (degree, basis name)


def _sign(ring, k: int):
    return ring.of(-1) if k % 2 else ring.one


class ChainAlgebra:
    """Connected augmented chain algebra whose product is one function,
    ``product(|a|, a, |b|, b) -> {name in degree |a| + |b|: coeff}``, asked
    only for basis elements of positive degree with |a| + |b| within the
    truncation."""

    def __init__(self, complex: ChainComplex, unit: str, product, name: str = ""):
        self.complex = complex
        self.unit = unit
        self.name = name
        self._product = product

    @property
    def ring(self):
        return self.complex.ring

    @property
    def truncation(self):
        return self.complex.truncation

    def basis(self, n: int):
        return self.complex.basis.names(n)

    def product(self, da: int, a: str, db: int, b: str) -> dict[str, object]:
        """Product of two basis elements; unit acts strictly."""
        if da + db > self.truncation:
            return {}
        if da == 0:
            return {b: self.ring.one} if a == self.unit else {}
        if db == 0:
            return {a: self.ring.one} if b == self.unit else {}
        return self._product(da, a, db, b)

    def aug(self, n: int, name: str):
        """Augmentation functional: 1 on the unit, 0 elsewhere."""
        return self.ring.one if (n == 0 and name == self.unit) else self.ring.zero

    def is_connected(self) -> bool:
        return self.basis(0) == [self.unit]


class ChainCoalgebra:
    """1-connected coaugmented chain coalgebra whose coproduct is one
    function, ``coproduct(|c|, c) -> [((|c1|, c1), (|c2|, c2), coeff)]``: the
    full Δc, counit terms c⊗1 and 1⊗c included, asked only for basis
    elements of positive degree (``_full_coproduct`` adds those terms)."""

    def __init__(self, complex: ChainComplex, coaug: str, coproduct, name: str = ""):
        self.complex = complex
        self.coaug = coaug
        self.name = name
        self._coproduct = coproduct

    @property
    def ring(self):
        return self.complex.ring

    @property
    def truncation(self):
        return self.complex.truncation

    def basis(self, n: int):
        return self.complex.basis.names(n)

    def coproduct(self, dc: int, c: str):
        if dc == 0:
            return [((0, self.coaug), (0, self.coaug), self.ring.one)] if c == self.coaug else []
        return self._coproduct(dc, c)

    def reduced_coproduct(self, dc: int, c: str):
        return [t for t in self.coproduct(dc, c) if t[0][0] > 0 and t[1][0] > 0]

    def counit(self, n: int, name: str):
        return self.ring.one if (n == 0 and name == self.coaug) else self.ring.zero

    def is_one_connected(self) -> bool:
        return self.basis(0) == [self.coaug] and not self.basis(1)


def _full_coproduct(ring, coaug: str, n: int, c: str, reduced) -> list:
    """Δc = c⊗1 + 1⊗c + the ``reduced`` terms ((|c1|, c1), (|c2|, c2), coeff)
    in their order, c in positive degree; zero terms are dropped."""
    full = [((n, c), (0, coaug), ring.one), ((0, coaug), (n, c), ring.one)]
    for k1, k2, coeff in reduced:
        v = ring.of(coeff)
        if not ring.is_zero(v):
            full.append((k1, k2, v))
    return full


def table_product(ring, table: dict):
    """The product listed in ``table``, {((|a|, a), (|b|, b)): {name: coeff}};
    a pair not listed multiplies to 0."""
    table = {k: ring.lincomb((r, ring.of(v)) for r, v in combo.items()) for k, combo in table.items()}
    return lambda da, a, db, b: table.get(((da, a), (db, b)), {})


def table_coproduct(ring, coaug: str, table: dict):
    """The coproduct whose reduced part is listed in ``table``, {(|c|, c):
    [((|c1|, c1), (|c2|, c2), coeff)]}; an element not listed is primitive."""
    return cache(lambda n, c: _full_coproduct(ring, coaug, n, c, table.get((n, c), ())))


class ModuleStructure:
    """Action of a ChainAlgebra on a carrier complex (side: left or right),
    computed by ``act_fn(dm, m, da, a)`` -> {result: coeff}."""

    def __init__(self, algebra: ChainAlgebra, carrier: ChainComplex, side: str, act_fn):
        assert side in ("left", "right")
        self.algebra = algebra
        self.carrier = carrier
        self.side = side
        self.act_fn = act_fn

    @property
    def ring(self):
        return self.carrier.ring

    def act(self, dm: int, m: str, da: int, a: str) -> dict[str, object]:
        """m·a (right) or a·m (left, arguments still (m, a))."""
        if dm + da > self.carrier.truncation:
            return {}
        if da == 0:
            return {m: self.ring.one} if a == self.algebra.unit else {}
        return self.act_fn(dm, m, da, a)


class ComoduleStructure:
    """Coaction of a ChainCoalgebra on a carrier complex: ``coact(dm, m)`` is
    the function ``coact_fn``.

    side "left": λ: M -> C⊗M as [((dc, c), (dm2, m2), coeff)].
    side "right": ρ: M -> M⊗C as [((dm2, m2), (dc, c), coeff)].
    """

    def __init__(self, coalgebra: ChainCoalgebra, carrier: ChainComplex, side: str, coact_fn):
        assert side in ("left", "right")
        self.coalgebra = coalgebra
        self.carrier = carrier
        self.side = side
        self.coact = coact_fn

    @property
    def ring(self):
        return self.carrier.ring


# ---------------------------------------------------------------------
# Structure identities as module-map, comodule-map or chain-map identities
# of sparse matrices, one per degree, on tensor_basis layouts; failing
# columns are named only for the witnesses (docs/DECISIONS.md, section 8).
# ---------------------------------------------------------------------

def _pairs(X: ChainComplex, Y: ChainComplex, n: int, lowest: int, cols=None):
    """(col, |x|, i, |y|, j) for the x = X_{|x|}[i], y = Y_{|y|}[j] with
    |x| + |y| = n and |y| >= lowest, col the index of x⊗y in the
    tensor_basis layout of X ⊗ Y; all of them, or those at ``cols``."""
    off, dim = _tensor_offsets(X, Y, n)[n], Y.basis.dim
    for col in (range(off[-1]) if cols is None else cols):
        p = bisect_right(off, col) - 1
        if n - p >= lowest:
            i, j = divmod(col - off[p], dim(n - p))
            yield col, p, i, n - p, j


def _action_table(act, M: ChainComplex, A: ChainComplex, n: int, lowest: int,
                  cols=None) -> SparseMatrix:
    """The action act(|m|, m, |a|, a) -> {name in M_n: coeff} on the pairs
    _pairs(M, A, n, lowest, cols), as a matrix from the layout of M ⊗ A."""
    out = SparseMatrix(M.ring, M.basis.dim(n), _tensor_offsets(M, A, n)[n][-1])
    index, mn, an, entries = M.basis.index, M.basis.names, A.basis.names, out.entries
    for col, dm, i, da, j in _pairs(M, A, n, lowest, cols):
        for r, v in act(dm, mn(dm)[i], da, an(da)[j]).items():
            entries[index(n, r), col] = v
    return out


def _coaction_table(coact, C: ChainComplex, M: ChainComplex, n: int, cols=None) -> SparseMatrix:
    """The left coaction coact(|m|, m) -> [((|c|, c), (|m'|, m'), coeff)] on
    M_n (all columns, or those at ``cols``), as a matrix to the layout of C ⊗ M."""
    off = _tensor_offsets(C, M, n)[n]
    out = SparseMatrix(M.ring, off[-1], M.basis.dim(n))
    cidx, midx, dim, names, entries = C.basis.index, M.basis.index, M.basis.dim, M.basis.names(n), out.entries
    for j in (range(len(names)) if cols is None else cols):
        for (dc, c), (dm, m), v in coact(n, names[j]):
            ij = off[dc] + cidx(dc, c) * dim(dm) + midx(dm, m), j
            entries[ij] = entries.get(ij, 0) + v
    return out


def _module_map_failures(f: ChainMap, phi: ChainMap, act, target_act, N: int):
    """The basis pairs ((|m|, m), (|a|, a)) with f(m·a) != f(m)·phi(a) and
    |m| + |a| <= N, in the order (|m|, m, |a|, a): one identity f∘act =
    act'∘(f⊗phi) per degree, act and act' = ``target_act`` acting on basis
    elements; act' is read only where f⊗phi reaches.

    a runs over the degrees >= 1 of phi's algebra, as ``product`` makes the
    unit act strictly, and over degree 0 too when that holds more than the
    unit."""
    M, A, M2, A2 = f.source, phi.source, f.target, phi.target
    lowest = 0 if A.basis.dim(0) > 1 else 1
    failures = []
    for n in range(N + 1):
        kron = _tensor_kron(f, phi, n)
        lhs = f.mat(n) @ _action_table(act, M, A, n, lowest)
        rhs = _action_table(target_act, M2, A2, n, lowest, {i for i, _ in kron.entries}) @ kron
        failures += _pairs(M, A, n, lowest, _differing_columns(lhs, rhs))
    return [((dm, M.basis.names(dm)[i]), (da, A.basis.names(da)[j]))
            for _, dm, i, da, j in sorted(failures, key=lambda k: k[1:])]


def _comodule_map_failures(f: ChainMap, phi: ChainMap, coact, target_coact, N: int):
    """The basis elements (n, m) with λ'(f(m)) != (phi⊗f)(λ(m)) and n <= N, in
    order: one identity λ'∘f = (phi⊗f)∘λ per degree, λ = ``coact`` and λ' =
    ``target_coact`` coacting on basis elements; λ' is read only where f
    reaches."""
    M, C, M2, C2 = f.source, phi.source, f.target, phi.target
    failures = []
    for n in range(N + 1):
        fn = f.mat(n)
        lhs = _coaction_table(target_coact, C2, M2, n, {i for i, _ in fn.entries}) @ fn
        rhs = _tensor_kron(phi, f, n) @ _coaction_table(coact, C, M, n)
        failures += [(n, M.basis.names(n)[j]) for j in _differing_columns(lhs, rhs)]
    return failures


def _right_factor_action(pairs: dict, act):
    """(x⊗y)·a = x⊗(y·a) on a pair basis with keys ``pairs``, from the
    per-basis action ``act`` on the right factor."""
    def act_fn(dm, m, da, a):
        (_, x), (q, y) = pairs[m]
        return {tensor_name(x, r): v for r, v in act(q, y, da, a).items()}

    return act_fn


def _product_failures(X: ChainComplex, product, N: int):
    """The associativity triples ((|a|, a), (|b|, b), (|c|, c)) and Leibniz
    pairs ((|a|, a), (|b|, b)) of ``product(p, a, q, b)`` on X through N, by
    degrees, then basis order.  With μ tabulated on X ⊗ X, associativity is
    "μ is a module map over id, X acting on the right factor of X ⊗ X" and
    Leibniz is "μ is a chain map"."""
    XX = tensor_complex(X, X, N)
    pairs, index = XX.basis.keys, X.basis.index
    mu = ChainMap(XX, X, {n: _action_table(product, X, X, n, 0) for n in range(N + 1)})

    def order(keys):
        return tuple(d for d, _ in keys) + tuple(index(d, x) for d, x in keys)

    triples = sorted(((*pairs[m], c) for (_, m), c in _module_map_failures(
        mu, ChainMap.identity(X), _right_factor_action(pairs, product), product, N)), key=order)
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
    delta = ChainMap(X, XX, {n: _coaction_table(C.coproduct, X, X, n) for n in range(N + 1)})
    found += [(n, X.basis.index(n, c), 2, {"axiom": "coassociativity", "element": (n, c)})
              for n, c in _comodule_map_failures(delta, ChainMap.identity(X), C.coproduct,
                                                 cofree_comodule_over(C, XX).coact, N)]
    found += [(n, j, 3, {"axiom": "coderivation", "element": (n, X.basis.names(n)[j])})
              for n, j in _chain_map_failures(delta, N)]
    witnesses += [w for *_, w in sorted(found, key=lambda t: t[:3])]
    return (not witnesses), witnesses

# ---------------------------------------------------------------------
# Tensor products of algebras and coalgebras (Koszul convention).
# ---------------------------------------------------------------------

def tensor_algebra_product(A: ChainAlgebra, B: ChainAlgebra, through: int | None = None) -> ChainAlgebra:
    """(a⊗b)·(a'⊗b') = (-1)^{|b||a'|} aa' ⊗ bb', read from the pair keys."""
    if A.ring != B.ring:
        raise RingMismatch(f"{A.ring} vs {B.ring}")
    R = A.ring
    Z = tensor_complex(A.complex, B.complex, through)
    pairs = Z.basis.keys

    @cache
    def product(dx, x, dy, y):
        (p1, a), (q1, b) = pairs[x]
        (p2, a2), (q2, b2) = pairs[y]
        sgn = _sign(R, q1 * p2)
        return R.lincomb((tensor_name(ra, rb), R.mul(sgn, R.mul(va, vb)))
                         for ra, va in A.product(p1, a, p2, a2).items()
                         for rb, vb in B.product(q1, b, q2, b2).items())

    return ChainAlgebra(Z, tensor_name(A.unit, B.unit), product, name=f"{A.name}⊗{B.name}")


def tensor_coalgebra_product(C: ChainCoalgebra, D: ChainCoalgebra, through: int | None = None) -> ChainCoalgebra:
    """Δ(c⊗d) = Σ ± (c1⊗d1) ⊗ (c2⊗d2), sign (-1)^{|d1||c2|}, read from the
    pair keys."""
    if C.ring != D.ring:
        raise RingMismatch(f"{C.ring} vs {D.ring}")
    R = C.ring
    Z = tensor_complex(C.complex, D.complex, through)
    pairs, coaug = Z.basis.keys, tensor_name(C.coaug, D.coaug)

    @cache
    def coproduct(n, z):
        (p, c), (q, d) = pairs[z]
        return _full_coproduct(R, coaug, n, z, [
            ((e1 + f1, tensor_name(c1, d1)), (e2 + f2, tensor_name(c2, d2)),
             R.mul(_sign(R, f1 * e2), R.mul(v, w)))
            for (e1, c1), (e2, c2), v in C.coproduct(p, c)
            for (f1, d1), (f2, d2), w in D.coproduct(q, d)
            if e1 + f1 > 0 and e2 + f2 > 0])

    return ChainCoalgebra(Z, coaug, coproduct, name=f"{C.name}⊗{D.name}")


def free_module_over(A: ChainAlgebra, carrier: ChainComplex) -> ModuleStructure:
    """Right A-module structure on a pair-basis carrier X ⊗ A, acting on the
    second factor: (x⊗a)·b = x⊗(ab), read from the pair keys on demand.
    Used for every free module in this artifact."""
    return ModuleStructure(A, carrier, "right", act_fn=_right_factor_action(carrier.basis.keys, A.product))


def cofree_comodule_over(C: ChainCoalgebra, carrier: ChainComplex) -> ComoduleStructure:
    """Left C-comodule structure on a pair-basis carrier C ⊗ Y, splitting the
    first factor by Δ: (Δ⊗1)(c⊗y), read from the pair keys on demand.  Dual
    of free_module_over."""
    pairs = carrier.basis.keys

    def coact(dm, m):
        (p, c), (q, y) = pairs[m]
        return [((e1, c1), (e2 + q, tensor_name(c2, y)), v)
                for (e1, c1), (e2, c2), v in C.coproduct(p, c)]

    return ComoduleStructure(C, carrier, "left", coact_fn=coact)
