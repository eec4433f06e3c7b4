"""Reference structure checks, kept for the tests only.

These are the per-element loops that `htwist.hopf`, `htwist.bundles` and
`htwist.chains` used before every structure identity became a module-map,
comodule-map or chain-map check on sparse matrices (docs/DECISIONS.md,
section 8).  Each walks basis elements by name, applies maps through
`ChainMap.apply` and `ChainComplex.d_of`, and compares linear combinations
as dicts, so it shares no code path with the matrix checks beyond the
structure maps themselves.  Each returns its witnesses in the order the
library reported them then.

The second half keeps the table builders the constructions ran before each
(co)algebra became one structure function (docs/DECISIONS.md, section 11):
the eager tensor-product loops, bar's deconcatenation loop and the
Alexander-Whitney loop of normalized chains, with the lookup rules of the
old tables; and the four pair (co)products as they were written by name
before one product by index replaced them: the tensor algebra and
coalgebra and the two quotient algebras of normality.
"""

from complex_helpers import algebra_by_name, coalgebra_by_name
from htwist.complexes import ChainMap, tensor_complex, tensor_name


def _sign(ring, k: int):
    return ring.of(-1) if k % 2 else ring.one


def mul_combo(A, da: int, ca: dict, db: int, cb: dict) -> dict:
    """The product of two linear combinations in A, term by term."""
    return A.ring.lincomb((r, va * vb * vr) for a, va in ca.items() for b, vb in cb.items()
                          for r, vr in A.product(da, a, db, b).items())


def module_map_failures(f: ChainMap, phi: ChainMap, act, target_act, N: int):
    """The basis pairs (m, a) with f(m·a) != f(m)·phi(a), a in degrees >= 1,
    |m| + |a| <= N; ``act`` and ``target_act`` act on basis elements."""
    R = f.source.ring

    def target_combo(dm, cm, da, ca):
        return R.lincomb((r, vm * va * vr) for m, vm in cm.items() for a, va in ca.items()
                         for r, vr in target_act(dm, m, da, a).items())

    out = []
    for dm in range(N + 1):
        for m in f.source.basis.names(dm):
            fm = f.apply(dm, m)
            for da in range(1, N + 1 - dm):
                for a in phi.source.basis.names(da):
                    lhs = R.lincomb((y, v * w) for x, v in act(dm, m, da, a).items()
                                    for y, w in f.apply(dm + da, x).items())
                    if lhs != target_combo(dm, fm, da, phi.apply(da, a)):
                        out.append((m, a))
    return out


def comodule_map_failures(f: ChainMap, phi: ChainMap, coact, target_coact, N: int):
    """The basis elements (n, m) with λ'(f(m)) != (phi⊗f)(λ(m))."""
    R = f.source.ring
    out = []
    for n in range(N + 1):
        for m in f.source.basis.names(n):
            lhs = R.lincomb(((k1, k2), v * w) for y, v in f.apply(n, m).items()
                            for k1, k2, w in target_coact(n, y))
            rhs = R.lincomb((((dc, c2), (dm, y)), v * w1 * w2)
                            for (dc, c), (dm, x), v in coact(n, m)
                            for c2, w1 in phi.apply(dc, c).items()
                            for y, w2 in f.apply(dm, x).items())
            if lhs != rhs:
                out.append((n, m))
    return out


def verify_algebra(A):
    """Connectivity, units, associativity, Leibniz and augmentation."""
    R = A.ring
    X = A.complex
    N = A.truncation
    witnesses = []

    if not A.is_connected():
        witnesses.append({"axiom": "connected", "degree0": X.basis.names(0), "unit": A.unit})

    for n in range(N + 1):
        for a in X.basis.names(n):
            if A.product(0, A.unit, n, a) != {a: R.one}:
                witnesses.append({"axiom": "left-unit", "element": (n, a)})
            if A.product(n, a, 0, A.unit) != {a: R.one}:
                witnesses.append({"axiom": "right-unit", "element": (n, a)})

    for p in range(1, N + 1):
        for q in range(1, N + 1 - p):
            for r in range(1, N + 1 - p - q):
                for a in X.basis.names(p):
                    for b in X.basis.names(q):
                        for c in X.basis.names(r):
                            left = mul_combo(A, p + q, A.product(p, a, q, b), r, {c: R.one})
                            right = mul_combo(A, p, {a: R.one}, q + r, A.product(q, b, r, c))
                            if left != right:
                                witnesses.append({"axiom": "associativity", "triple": (a, b, c)})

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
                        *mul_combo(A, p - 1, X.d_of(p, a), q, {b: R.one}).items(),
                        *((r, sgn * v) for r, v in mul_combo(A, p, {a: R.one}, q - 1, X.d_of(q, b)).items()),
                    ])
                    if lhs != rhs:
                        witnesses.append({"axiom": "Leibniz", "pair": ((p, a), (q, b))})

    for a in X.basis.names(1):
        val = R.zero
        for r_name, c in X.d_of(1, a).items():
            val = R.add(val, R.mul(c, A.aug(0, r_name)))
        if not R.is_zero(val):
            witnesses.append({"axiom": "augmentation-chain", "element": a})

    return (not witnesses), witnesses


def verify_coalgebra(C):
    """1-connectivity, then counits, coassociativity and coderivation per
    basis element."""
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
        for (d1, n1), (d2, n2), v in cop:
            for m1, cc in X.d_of(d1, n1).items():
                yield ((d1 - 1, m1), (d2, n2)), v * cc
            sgn = _sign(R, d1)
            for m2, cc in X.d_of(d2, n2).items():
                yield ((d1, n1), (d2 - 1, m2)), sgn * v * cc

    for n in range(N + 1):
        for c in X.basis.names(n):
            cop = C.coproduct(n, c)
            left = R.lincomb((k2, C.counit(*k1) * v) for k1, k2, v in cop if k1[0] == 0)
            right = R.lincomb((k1, C.counit(*k2) * v) for k1, k2, v in cop if k2[0] == 0)
            for side_name, got in (("left-counit", left), ("right-counit", right)):
                if got != {(n, c): R.one}:
                    witnesses.append({"axiom": side_name, "element": (n, c)})

            lhs = R.lincomb(((j1, j2, k2), v * w) for k1, k2, v in cop
                            for j1, j2, w in C.coproduct(*k1))
            rhs = R.lincomb(((k1, j1, j2), v * w) for k1, k2, v in cop
                            for j1, j2, w in C.coproduct(*k2))
            if lhs != rhs:
                witnesses.append({"axiom": "coassociativity", "element": (n, c)})

            if n >= 1:
                lhs2 = R.lincomb(((k1, k2), v * w) for c2, v in X.d_of(n, c).items()
                                 for k1, k2, w in C.coproduct(n - 1, c2))
                if lhs2 != R.lincomb(coderivation_terms(cop)):
                    witnesses.append({"axiom": "coderivation", "element": (n, c)})

    return (not witnesses), witnesses


def verify_mixed_bundle(b):
    """Chain, module and comodule maps, then mixed compatibility per pair."""
    R = b.ring
    N = b.truncation
    problems = []
    ok, deg = b.inclusion.is_chain_map()
    if not ok:
        problems.append({"check": "inclusion-chain", "degree": deg})
    ok, deg = b.projection.is_chain_map()
    if not ok:
        problems.append({"check": "projection-chain", "degree": deg})

    A = b.monoid
    problems += [{"check": "inclusion-module", "pair": pair} for pair in module_map_failures(
        b.inclusion, ChainMap.identity(A.complex), A.product, b.module.act, N)]
    problems += [{"check": "projection-comodule", "element": key} for key in comodule_map_failures(
        b.projection, ChainMap.identity(b.comonoid.complex), b.comodule.coact, b.comonoid.coproduct, N)]

    for n in range(N + 1):
        for m in b.total.basis.names(n):
            for q in range(1, N + 1 - n):
                for a in A.basis(q):
                    lhs = R.lincomb(((k1, k2), v * w) for m2, v in b.module.act(n, m, q, a).items()
                                    for k1, k2, w in b.comodule.coact(n + q, m2))
                    rhs = R.lincomb((((dc, c), (dm + q, m3)), v * w)
                                    for (dc, c), (dm, m2), v in b.comodule.coact(n, m)
                                    for m3, w in b.module.act(dm, m2, q, a).items())
                    if lhs != rhs:
                        problems.append({"check": "mixed-compatibility", "pair": (m, a)})
    return (not problems), problems


def verify_pontryagin_axioms(G, ring, N: int):
    """Associativity on all triples and Leibniz on all pairs of the shuffle
    product, degree 0 included; returns the report's problem list."""
    from htwist.chains import chains_of_simplicial_group

    C, table, _, _ = chains_of_simplicial_group(G, ring, N)
    unit = C.complex.basis.name_of(0, G.neutral(0))
    R = ring

    def prod(p, xn, q, yn):
        if p == 0 and xn == unit:
            return {yn: R.one}
        if q == 0 and yn == unit:
            return {xn: R.one}
        return table.get(((p, xn), (q, yn)), {})

    def prod_combo(p, cx, q, cy):
        return R.lincomb((zn, vx * vy * vz) for xn, vx in cx.items() for yn, vy in cy.items()
                         for zn, vz in prod(p, xn, q, yn).items())

    problems = []
    X = C.complex
    for p in range(N + 1):
        for q in range(N + 1 - p):
            for r in range(N + 1 - p - q):
                for a in C.basis(p):
                    for b in C.basis(q):
                        for c in C.basis(r):
                            one = prod_combo(p + q, prod(p, a, q, b), r, {c: R.one})
                            two = prod_combo(p, {a: R.one}, q + r, prod(q, b, r, c))
                            if one != two:
                                problems.append({"axiom": "associativity", "triple": (a, b, c)})
    for p in range(N + 1):
        for q in range(N + 1 - p):
            if p + q == 0:
                continue
            sgn = R.of(-1) if p % 2 else R.one
            for a in C.basis(p):
                for b in C.basis(q):
                    lhs = R.lincomb((z2, v * w) for zn, v in prod(p, a, q, b).items()
                                    for z2, w in X.d_of(p + q, zn).items())
                    rhs = R.lincomb([
                        *prod_combo(p - 1, X.d_of(p, a), q, {b: R.one}).items(),
                        *((r2, sgn * v) for r2, v in prod_combo(p, {a: R.one}, q - 1, X.d_of(q, b)).items()),
                    ])
                    if lhs != rhs:
                        problems.append({"axiom": "Leibniz", "pair": (a, b)})
    return problems


# ---------------------------------------------------------------------
# Structure tables as the constructions filled them before each (co)algebra
# became one structure function (docs/DECISIONS.md, section 11): eagerly,
# name by name, into {((|a|, a), (|b|, b)): combo} and {(|c|, c): full Δc}.
# ---------------------------------------------------------------------

def full_coproduct(R, coaug, n, c, terms):
    """c⊗1 + 1⊗c + the nonzero ``terms``, as a coproduct table stored it."""
    full = [((n, c), (0, coaug), R.one), ((0, coaug), (n, c), R.one)]
    for k1, k2, coeff in terms:
        v = R.of(coeff)
        if not R.is_zero(v):
            full.append((k1, k2, v))
    return full


def table_product(A, table, da, a, db, b):
    """A product read as ChainAlgebra read its table: strict unit, nothing
    above the truncation, a pair not in the table multiplies to 0."""
    R = A.ring
    if da + db > A.truncation:
        return {}
    if da == 0:
        return {b: R.one} if a == A.unit else {}
    if db == 0:
        return {a: R.one} if b == A.unit else {}
    combo = table.get(((da, a), (db, b)), {})
    return R.lincomb((r, R.of(v)) for r, v in combo.items())


def table_coproduct(C, table, dc, c):
    """A coproduct read as ChainCoalgebra read its table: an element not in
    the table is primitive."""
    R = C.ring
    if dc == 0:
        return [((0, C.coaug), (0, C.coaug), R.one)] if c == C.coaug else []
    return table.get((dc, c), full_coproduct(R, C.coaug, dc, c, []))


def tensor_algebra_table(A, B, N):
    """(a⊗b)·(a'⊗b') = (-1)^{|b||a'|} aa' ⊗ bb' on every quadruple of basis
    elements through N."""
    R = A.ring
    table = {}
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
                                        key = ((p1 + q1, tensor_name(a, b)), (p2 + q2, tensor_name(a2, b2)))
                                        table[key] = res
    return table


def tensor_coalgebra_table(C, D, N):
    """Δ(c⊗d) = Σ ± (c1⊗d1) ⊗ (c2⊗d2), sign (-1)^{|d1||c2|}, on every basis
    pair through N."""
    R = C.ring
    coaug = tensor_name(C.coaug, D.coaug)
    table = {}
    for p in range(N + 1):
        for q in range(N + 1 - p):
            if p + q == 0:
                continue
            for c in C.basis(p):
                for d in D.basis(q):
                    terms = []
                    for (e1, c1), (e2, c2), v in C.coproduct(p, c):
                        for (f1, d1), (f2, d2), w in D.coproduct(q, d):
                            coeff = R.mul(_sign(R, f1 * e2), R.mul(v, w))
                            if e1 + f1 > 0 and e2 + f2 > 0:
                                terms.append(((e1 + f1, tensor_name(c1, d1)),
                                              (e2 + f2, tensor_name(c2, d2)), coeff))
                    name = tensor_name(c, d)
                    table[(p + q, name)] = full_coproduct(R, coaug, p + q, name, terms)
    return table


def bar_coproduct_table(B):
    """Deconcatenation on every word of the bar construction B."""
    R, basis = B.ring, B.complex.basis
    table = {}
    for n in range(1, B.truncation + 1):
        for name in basis.names(n):
            w = basis.keys[name]
            terms = []
            for i in range(1, len(w)):
                left, right = w[:i], w[i:]
                dl = sum(k[0] + 1 for k in left)
                terms.append(((dl, basis.name_of(dl, left)),
                              (n - dl, basis.name_of(n - dl, right)), R.one))
            table[(n, name)] = full_coproduct(R, B.coaug, n, name, terms)
    return table


def _iterated_front(X, n, x, p):
    """Front p-face: d_{p+1} d_{p+2} ... d_n applied to x (last faces)."""
    out = x
    for k in range(n, p, -1):
        out = X.face(k, k, out)
    return out


def _iterated_back(X, n, x, q):
    """Back q-face: d_0^{n-q} applied to x."""
    out = x
    for k in range(n, q, -1):
        out = X.face(k, 0, out)
    return out


def aw_coproduct_table(X, C):
    """The Alexander-Whitney diagonal on every simplex of C = C_*X, the
    front and back faces taken one face at a time for each p."""
    R, basis = C.ring, C.complex.basis
    table = {}
    for n in range(1, C.truncation + 1):
        for name in basis.names(n):
            x = basis.keys[name]
            terms = []
            for p in range(1, n):
                f = basis.name_of(p, _iterated_front(X, n, x, p))
                b = basis.name_of(n - p, _iterated_back(X, n, x, n - p))
                if f is not None and b is not None:
                    terms.append(((p, f), (n - p, b), 1))
            table[(n, name)] = full_coproduct(R, C.coaug, n, name, terms)
    return table


# ---------------------------------------------------------------------
# The pair (co)products by name, read from the pair keys of the total basis.
# ---------------------------------------------------------------------

def tensor_algebra_by_name(A, B, through=None):
    """(a⊗b)·(a'⊗b') = (-1)^{|b||a'|} aa' ⊗ bb'."""
    R = A.ring
    Z = tensor_complex(A.complex, B.complex, through)
    pairs = Z.basis.keys

    def product(dx, x, dy, y):
        (p1, a), (q1, b) = pairs[x]
        (p2, a2), (q2, b2) = pairs[y]
        sgn = _sign(R, q1 * p2)
        return R.lincomb((tensor_name(ra, rb), R.mul(sgn, R.mul(va, vb)))
                         for ra, va in A.product(p1, a, p2, a2).items()
                         for rb, vb in B.product(q1, b, q2, b2).items())

    return algebra_by_name(Z, tensor_name(A.unit, B.unit), product, f"{A.name}⊗{B.name}")


def tensor_coalgebra_by_name(C, D, through=None):
    """Δ(c⊗d) = Σ ± (c1⊗d1) ⊗ (c2⊗d2), sign (-1)^{|d1||c2|}."""
    R = C.ring
    Z = tensor_complex(C.complex, D.complex, through)
    pairs, coaug = Z.basis.keys, tensor_name(C.coaug, D.coaug)

    def coproduct(n, z):
        (p, c), (q, d) = pairs[z]
        return full_coproduct(R, coaug, n, z, [
            ((e1 + f1, tensor_name(c1, d1)), (e2 + f2, tensor_name(c2, d2)),
             R.mul(_sign(R, f1 * e2), R.mul(v, w)))
            for (e1, c1), (e2, c2), v in C.coproduct(p, c)
            for (f1, d1), (f2, d2), w in D.coproduct(q, d)
            if e1 + f1 > 0 and e2 + f2 > 0])

    return coalgebra_by_name(Z, coaug, coproduct, f"{C.name}⊗{D.name}")


def shuffle_quotient_by_name(A, A2, N, q):
    """(w⊗a)·(w'⊗a') = (-1)^{|a||w'|} (w·w')⊗aa' on A'//A, with w·w' the
    product of shuffle_product_bar(A, N), a bar of its own."""
    from htwist.barcobar import shuffle_product_bar

    S = shuffle_product_bar(A, N)
    R = A.ring
    total = q.bundle.total
    pairs = total.basis.keys

    def product(da, aname, db, bname):
        (dw, w), (dx, x) = pairs[aname]
        (dw2, w2), (dx2, x2) = pairs[bname]
        sgn = R.of(-1) if (dx * dw2) % 2 else R.one
        return R.lincomb((tensor_name(wname, xname), sgn * v * u)
                         for wname, v in S.product(dw, w, dw2, w2).items()
                         for xname, u in A2.product(dx, x, dx2, x2).items())

    return algebra_by_name(total, tensor_name(q.bundle.comonoid.coaug, A2.unit), product, f"{A2.name}//{A.name}")


def unit_quotient_by_name(q, A2):
    """A//k = Bar(k)⊗A with ([]⊗a)·([]⊗a') = []⊗aa', the unit found by
    scanning the pairs for degree 0."""
    total = q.bundle.total
    pairs = total.basis.keys
    unit = None
    for name, ((dv, v), (da, a)) in pairs.items():
        if dv == 0 and da == 0:
            unit = name

    def product(da_, aname, db_, bname):
        (_, _), (dx, x) = pairs[aname]
        (_, _), (dy, y) = pairs[bname]
        out = {}
        for r, v in A2.product(dx, x, dy, y).items():
            out[tensor_name(q.bundle.comonoid.coaug, r)] = v
        return out

    return algebra_by_name(total, unit, product, f"{A2.name}//k")


# ---------------------------------------------------------------------
# The (co)module structures as the builders gave them before they answered
# by index (docs/DECISIONS.md, section 8): functions of names, through
# ChainMap.apply and the name views of the (co)products, with the rules
# ModuleStructure.act applied then.
# ---------------------------------------------------------------------

def module_act(algebra, carrier, fn):
    """The action ``fn`` with the old ModuleStructure.act rules: nothing
    above the carrier's truncation, and a degree-0 element of the algebra
    acts as the identity when it is the unit and as 0 otherwise."""
    def act(dm, m, da, a):
        if dm + da > carrier.truncation:
            return {}
        if da == 0:
            return {m: carrier.ring.one} if a == algebra.unit else {}
        return fn(dm, m, da, a)

    return act


def self_module_left(A):
    return module_act(A, A.complex, lambda dm, m, da, a: A.product(da, a, dm, m))


def self_module_right(A):
    return module_act(A, A.complex, lambda dm, m, da, a: A.product(dm, m, da, a))


def module_via_map(A, carrier_algebra, f):
    """m·a = m·f(a) on the carrier algebra, f: A -> carrier."""
    R = A.ring

    def fn(dm, m, da, a):
        return R.lincomb((r, v * w) for b, v in f.apply(da, a).items()
                         for r, w in carrier_algebra.product(dm, m, da, b).items())

    return module_act(A, carrier_algebra.complex, fn)


def free_module_over(A, carrier):
    """(x⊗a)·b = x⊗(ab) on the pair basis of carrier = X ⊗ A."""
    pairs = carrier.basis.keys

    def fn(dm, m, da, a):
        (_, x), (q, y) = pairs[m]
        return {tensor_name(x, r): v for r, v in A.product(q, y, da, a).items()}

    return module_act(A, carrier, fn)


def self_comodule(C):
    return C.coproduct


def comodule_via_map(carrier_coalgebra, g):
    """λ = (g⊗1)Δ on the carrier coalgebra, g: carrier -> C."""
    R = g.source.ring

    def coact(dm, m):
        return [((d1, c), (d2, n2), R.mul(v, w)) for (d1, n1), (d2, n2), v in carrier_coalgebra.coproduct(dm, m)
                for c, w in g.apply(d1, n1).items()]

    return coact


def cofree_comodule_over(C, carrier):
    """(Δ⊗1)(c⊗y) on the pair basis of carrier = C ⊗ Y."""
    pairs = carrier.basis.keys

    def coact(dm, m):
        (p, c), (q, y) = pairs[m]
        return [((e1, c1), (e2 + q, tensor_name(c2, y)), v) for (e1, c1), (e2, c2), v in C.coproduct(p, c)]

    return coact
