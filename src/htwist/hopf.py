"""Chain algebras and coalgebras presented by exhaustive structure-constant
tables, plus module/comodule structures over them.

Conventions enforced throughout: algebras are connected (degree 0 spanned by
the unit), coalgebras are 1-connected (degree 0 spanned by the coaugmentation,
degree 1 empty).  Products landing above the truncation are silently dropped;
all axiom checks quantify only over basis tuples whose total degree stays
within the truncation, which keeps them exact rather than approximate.
"""

from __future__ import annotations

from .complexes import ChainComplex, ChainMap, RingMismatch, tensor_complex, tensor_name


class NotConnected(Exception):
    pass


class NotOneConnected(Exception):
    pass


Key = tuple[int, str]  # (degree, basis name)


def _sign(ring, k: int):
    return ring.of(-1) if k % 2 else ring.one


class ChainAlgebra:
    """Connected augmented chain algebra with a basis-indexed product table."""

    def __init__(self, complex: ChainComplex, unit: str, name: str = "", product_fn=None):
        self.complex = complex
        self.unit = unit
        self.name = name
        # ((da, a), (db, b)) -> {result name in degree da+db: coeff}
        self.mult: dict[tuple[Key, Key], dict[str, object]] = {}
        # optional computed product (da, a, db, b) -> combo, consulted after
        # the table; lets free constructions avoid exhaustive tables
        self.product_fn = product_fn

    @property
    def ring(self):
        return self.complex.ring

    @property
    def truncation(self):
        return self.complex.truncation

    def basis(self, n: int):
        return self.complex.basis.names(n)

    def set_product(self, da: int, a: str, db: int, b: str, result: dict[str, object]):
        R = self.ring
        self.mult[((da, a), (db, b))] = R.lincomb((k, R.of(v)) for k, v in result.items())

    def product(self, da: int, a: str, db: int, b: str) -> dict[str, object]:
        """Product of two basis elements; unit acts strictly."""
        n = da + db
        if n > self.truncation:
            return {}
        if da == 0:
            return {b: self.ring.one} if a == self.unit else {}
        if db == 0:
            return {a: self.ring.one} if b == self.unit else {}
        key = ((da, a), (db, b))
        if key in self.mult:
            return self.mult[key]
        if self.product_fn is not None:
            return self.product_fn(da, a, db, b)
        return {}

    def mul_combo(self, da: int, ca: dict, db: int, cb: dict) -> dict[str, object]:
        return self.ring.lincomb((r, va * vb * vr) for a, va in ca.items() for b, vb in cb.items()
                                 for r, vr in self.product(da, a, db, b).items())

    def aug(self, n: int, name: str):
        """Augmentation functional: 1 on the unit, 0 elsewhere."""
        return self.ring.one if (n == 0 and name == self.unit) else self.ring.zero

    def is_connected(self) -> bool:
        return self.basis(0) == [self.unit]


class ChainCoalgebra:
    """1-connected coaugmented chain coalgebra with a coproduct table."""

    def __init__(self, complex: ChainComplex, coaug: str, name: str = ""):
        self.complex = complex
        self.coaug = coaug
        self.name = name
        # (dc, c) -> list of ((d1, n1), (d2, n2), coeff): the FULL coproduct
        self.comult: dict[Key, list[tuple[Key, Key, object]]] = {}

    @property
    def ring(self):
        return self.complex.ring

    @property
    def truncation(self):
        return self.complex.truncation

    def basis(self, n: int):
        return self.complex.basis.names(n)

    def set_coproduct_reduced(self, dc: int, c: str, terms):
        """Store Δc = c⊗1 + 1⊗c + (reduced terms), c in positive degree."""
        R = self.ring
        full = [((dc, c), (0, self.coaug), R.one), ((0, self.coaug), (dc, c), R.one)]
        for (d1, n1), (d2, n2), coeff in terms:
            v = R.of(coeff)
            if not R.is_zero(v):
                full.append(((d1, n1), (d2, n2), v))
        self.comult[(dc, c)] = full

    def coproduct(self, dc: int, c: str):
        if dc == 0:
            return [((0, self.coaug), (0, self.coaug), self.ring.one)] if c == self.coaug else []
        return self.comult.get((dc, c), [
            ((dc, c), (0, self.coaug), self.ring.one),
            ((0, self.coaug), (dc, c), self.ring.one),
        ])

    def reduced_coproduct(self, dc: int, c: str):
        return [t for t in self.coproduct(dc, c) if t[0][0] > 0 and t[1][0] > 0]

    def counit(self, n: int, name: str):
        return self.ring.one if (n == 0 and name == self.coaug) else self.ring.zero

    def is_one_connected(self) -> bool:
        return self.basis(0) == [self.coaug] and not self.basis(1)


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

    def act_combo(self, dm: int, cm: dict, da: int, ca: dict) -> dict[str, object]:
        return self.ring.lincomb((r, vm * va * vr) for m, vm in cm.items() for a, va in ca.items()
                                 for r, vr in self.act(dm, m, da, a).items())


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
# Axiom verification.
# ---------------------------------------------------------------------

def verify_algebra(A: ChainAlgebra):
    """Exhaustive associativity/unit/Leibniz/connectivity/augmentation check.

    Returns (ok, witnesses); each witness names the violated axiom and the
    basis tuple realizing the violation.
    """
    R = A.ring
    X = A.complex
    N = A.truncation
    witnesses = []

    if not A.is_connected():
        witnesses.append({"axiom": "connected", "degree0": X.basis.names(0), "unit": A.unit})

    # unit acts as identity (strict by construction, but the table may override)
    for n in range(N + 1):
        for a in X.basis.names(n):
            if A.product(0, A.unit, n, a) != {a: R.one}:
                witnesses.append({"axiom": "left-unit", "element": (n, a)})
            if A.product(n, a, 0, A.unit) != {a: R.one}:
                witnesses.append({"axiom": "right-unit", "element": (n, a)})

    # associativity on basis triples with total degree within truncation
    for p in range(1, N + 1):
        for q in range(1, N + 1 - p):
            for r in range(1, N + 1 - p - q):
                for a in X.basis.names(p):
                    for b in X.basis.names(q):
                        for c in X.basis.names(r):
                            left = A.mul_combo(p + q, A.product(p, a, q, b), r, {c: R.one})
                            right = A.mul_combo(p, {a: R.one}, q + r, A.product(q, b, r, c))
                            if left != right:
                                witnesses.append({"axiom": "associativity", "triple": (a, b, c)})

    # Leibniz: d(ab) = da·b + (-1)^|a| a·db
    for p in range(N + 1):
        for q in range(N + 1 - p):
            if p + q == 0:
                continue
            sgn = _sign(R, p)
            for a in X.basis.names(p):
                for b in X.basis.names(q):
                    lhs = R.lincomb((r2, v * c) for r, v in A.product(p, a, q, b).items()
                                    for r2, c in X.d_of(p + q, r).items())
                    rhs = R.lincomb([
                        *A.mul_combo(p - 1, X.d_of(p, a), q, {b: R.one}).items(),
                        *((r, sgn * v) for r, v in A.mul_combo(p, {a: R.one}, q - 1, X.d_of(q, b)).items()),
                    ])
                    if lhs != rhs:
                        witnesses.append({"axiom": "Leibniz", "pair": ((p, a), (q, b))})

    # augmentation is a chain algebra map: aug(d x) = 0 for |x| = 1
    for a in X.basis.names(1):
        val = R.zero
        for r_name, c in X.d_of(1, a).items():
            val = R.add(val, R.mul(c, A.aug(0, r_name)))
        if not R.is_zero(val):
            witnesses.append({"axiom": "augmentation-chain", "element": a})

    return (not witnesses), witnesses


def verify_coalgebra(C: ChainCoalgebra):
    """Dual check: coassociativity, counit, coderivation, 1-connectivity."""
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

    def coderivation_terms(cop):
        """(d⊗1 + 1⊗d) applied to a coproduct, Koszul sign on 1⊗d."""
        for (d1, n1), (d2, n2), v in cop:
            for m1, cc in X.d_of(d1, n1).items():
                yield ((d1 - 1, m1), (d2, n2)), v * cc
            sgn = _sign(R, d1)
            for m2, cc in X.d_of(d2, n2).items():
                yield ((d1, n1), (d2 - 1, m2)), sgn * v * cc

    for n in range(N + 1):
        for c in X.basis.names(n):
            cop = C.coproduct(n, c)
            # counit on both sides
            left = R.lincomb((k2, C.counit(*k1) * v) for k1, k2, v in cop if k1[0] == 0)
            right = R.lincomb((k1, C.counit(*k2) * v) for k1, k2, v in cop if k2[0] == 0)
            for side_name, got in (("left-counit", left), ("right-counit", right)):
                if got != {(n, c): R.one}:
                    witnesses.append({"axiom": side_name, "element": (n, c)})

            # coassociativity: (Δ⊗1)Δ = (1⊗Δ)Δ, no signs (degree-0 maps)
            lhs = R.lincomb(((j1, j2, k2), v * w) for k1, k2, v in cop
                            for j1, j2, w in C.coproduct(*k1))
            rhs = R.lincomb(((k1, j1, j2), v * w) for k1, k2, v in cop
                            for j1, j2, w in C.coproduct(*k2))
            if lhs != rhs:
                witnesses.append({"axiom": "coassociativity", "element": (n, c)})

            # coderivation: Δ(dc) = (d⊗1 + 1⊗d) Δc
            if n >= 1:
                lhs2 = R.lincomb(((k1, k2), v * w) for c2, v in X.d_of(n, c).items()
                                 for k1, k2, w in C.coproduct(n - 1, c2))
                if lhs2 != R.lincomb(coderivation_terms(cop)):
                    witnesses.append({"axiom": "coderivation", "element": (n, c)})

    return (not witnesses), witnesses


def _module_map_failures(f: ChainMap, phi: ChainMap, act, target_act,
                         algebra: ChainAlgebra, N: int):
    """Yield the basis pairs (m, a) with f(m·a) != f(m)·phi(a).

    m runs over the source of f in degrees 0..N and a over the positive
    degrees of ``algebra``, with |m| + |a| <= N.  ``act(dm, m, da, a)`` is the
    source action on basis elements, ``target_act(dm, cm, da, ca)`` the target
    action on combinations.
    """
    R = f.source.ring
    for dm in range(N + 1):
        for m in f.source.basis.names(dm):
            fm = f.apply(dm, m)
            for da in range(1, N + 1 - dm):
                for a in algebra.basis(da):
                    lhs = R.lincomb((y, v * w) for x, v in act(dm, m, da, a).items()
                                    for y, w in f.apply(dm + da, x).items())
                    if lhs != target_act(dm, fm, da, phi.apply(da, a)):
                        yield m, a


def _comodule_map_failures(f: ChainMap, phi: ChainMap, coact, target_coact, N: int):
    """Yield the basis elements (n, m) with λ'(f(m)) != (phi⊗f)(λ(m)).

    m runs over the source of f in degrees 0..N.  ``coact(n, m)`` and
    ``target_coact(n, y)`` are left coactions as ((dc, c), (dm, m'), coeff)
    terms.
    """
    R = f.source.ring
    for n in range(N + 1):
        for m in f.source.basis.names(n):
            lhs = R.lincomb(((k1, k2), v * w) for y, v in f.apply(n, m).items()
                            for k1, k2, w in target_coact(n, y))
            rhs = R.lincomb((((dc, c2), (dm, y)), v * w1 * w2)
                            for (dc, c), (dm, x), v in coact(n, m)
                            for c2, w1 in phi.apply(dc, c).items()
                            for y, w2 in f.apply(dm, x).items())
            if lhs != rhs:
                yield n, m

# ---------------------------------------------------------------------
# Tensor products of algebras and coalgebras (Koszul convention).
# ---------------------------------------------------------------------

def tensor_algebra_product(A: ChainAlgebra, B: ChainAlgebra, through: int | None = None) -> ChainAlgebra:
    """(a⊗b)·(a'⊗b') = (-1)^{|b||a'|} aa' ⊗ bb'."""
    if A.ring != B.ring:
        raise RingMismatch(f"{A.ring} vs {B.ring}")
    R = A.ring
    Z = tensor_complex(A.complex, B.complex, through)
    out = ChainAlgebra(Z, tensor_name(A.unit, B.unit), name=f"{A.name}⊗{B.name}")
    N = Z.truncation
    for p1 in range(N + 1):
        for q1 in range(N + 1 - p1):
            for p2 in range(N + 1 - p1 - q1):
                for q2 in range(N + 1 - p1 - q1 - p2):
                    if p1 + q1 == 0 or p2 + q2 == 0:
                        continue
                    for a in A.basis(p1):
                        for b in B.basis(q1):
                            for a2 in A.basis(p2):
                                for b2 in B.basis(q2):
                                    sgn = _sign(R, q1 * p2)
                                    res = {}
                                    for ra, va in A.product(p1, a, p2, a2).items():
                                        for rb, vb in B.product(q1, b, q2, b2).items():
                                            res[tensor_name(ra, rb)] = R.mul(sgn, R.mul(va, vb))
                                    if res:
                                        out.set_product(
                                            p1 + q1, tensor_name(a, b),
                                            p2 + q2, tensor_name(a2, b2), res,
                                        )
    return out


def tensor_coalgebra_product(C: ChainCoalgebra, D: ChainCoalgebra, through: int | None = None) -> ChainCoalgebra:
    """Δ(c⊗d) = Σ ± (c1⊗d1) ⊗ (c2⊗d2), sign (-1)^{|d1||c2|}."""
    if C.ring != D.ring:
        raise RingMismatch(f"{C.ring} vs {D.ring}")
    R = C.ring
    Z = tensor_complex(C.complex, D.complex, through)
    out = ChainCoalgebra(Z, tensor_name(C.coaug, D.coaug), name=f"{C.name}⊗{D.name}")
    N = Z.truncation
    for p in range(N + 1):
        for q in range(N + 1 - p):
            if p + q == 0:
                continue
            for c in C.basis(p):
                for d in D.basis(q):
                    terms = []
                    for (e1, c1), (e2, c2), v in C.coproduct(p, c):
                        for (f1, d1), (f2, d2), w in D.coproduct(q, d):
                            sgn = _sign(R, f1 * e2)
                            coeff = R.mul(sgn, R.mul(v, w))
                            k1 = (e1 + f1, tensor_name(c1, d1))
                            k2 = (e2 + f2, tensor_name(c2, d2))
                            if not (k1[0] == 0 and k2 == (p + q, tensor_name(c, d))) and \
                               not (k2[0] == 0 and k1 == (p + q, tensor_name(c, d))):
                                if k1[0] > 0 and k2[0] > 0:
                                    terms.append((k1, k2, coeff))
                    out.set_coproduct_reduced(p + q, tensor_name(c, d), terms)
    return out


def free_module_over(A: ChainAlgebra, carrier: ChainComplex) -> ModuleStructure:
    """Right A-module structure on a pair-basis carrier X ⊗ A, acting on the
    second factor: (x⊗a)·b = x⊗(ab), read from the pair keys on demand.
    Used for every free module in this artifact."""
    pairs = carrier.basis.keys

    def act(dm, m, db, b):
        (_, x), (q, a) = pairs[m]
        return {tensor_name(x, ab): v for ab, v in A.product(q, a, db, b).items()}

    return ModuleStructure(A, carrier, "right", act_fn=act)


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
