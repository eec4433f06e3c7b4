"""Reference builds of the construction differentials and of the maps out
of word bases, kept for the tests only.

These are the bodies `htwist` used before its constructions wrote d_n by
integer index: every entry is added one at a time through
`ChainComplex.set_d_entry`, which renders the target name and looks both
names up in the basis.  Each function rebuilds the complex on the same basis
as the construction it mirrors and returns it, so the two d_n can be
compared matrix by matrix.  They share the pair-basis construction with
`htwist` (`tensor_basis`), but none of the differential code; the words of
bar and cobar come from `enumerate_words`, the sort-based enumeration
`htwist` used before it enumerated words block by block in basis order.

The second half holds the name-by-name bodies of α_t, β_t, Bar(f)/Cobar(g),
the Milgram cobar map, `compose_cochain`, `verify_twisting_cochain` and
`is_graded_commutative` from before these were built from each word's
prefix: words are multiplied out letter by letter through `mul_combo` and
entries set through `ChainMap.set_entry`.
"""

from htwist.barcobar import bar_word_name, cobar_word_name
from htwist.complexes import ChainComplex, ChainMap, GradedBasis, tensor_basis, tensor_name
from htwist.hopf import _sign
from htwist.rings import Ring
from htwist.sparse import SparseMatrix
from htwist.twisting import TwistingCochain


def mul_combo(A, da: int, ca: dict, db: int, cb: dict) -> dict:
    """The product of two linear combinations in A, term by term."""
    return A.ring.lincomb((r, va * vb * vr) for a, va in ca.items() for b, vb in cb.items()
                          for r, vr in A.product(da, a, db, b).items())


def act_combo(M, dm: int, cm: dict, da: int, ca: dict) -> dict:
    """The action of a linear combination on one, term by term."""
    return M.ring.lincomb((r, vm * va * vr) for m, vm in cm.items() for a, va in ca.items()
                          for r, vr in M.act(dm, m, da, a).items())


def enumerate_words(letter_pool, N: int) -> dict:
    """All words of total marked degree <= N over the pool of (letter,
    marked degree) pairs, by degree.

    A word of degree n is a word of degree n - |l| followed by its last
    letter l, so each degree is built in one pass over the letters.
    Ordering inside a degree is (length, letter degrees, letter names).
    """
    by_degree = {0: [()]}
    for n in range(1, N + 1):
        words = [w + (key,) for key, ldeg in letter_pool if ldeg <= n
                 for w in by_degree.get(n - ldeg, ())]
        if words:
            words.sort(key=lambda w: (len(w), tuple(k[0] for k in w), tuple(k[1] for k in w)))
            by_degree[n] = words
    return by_degree


def _word_complex(inner: ChainComplex, lowest: int, shift: int, N: int, namer,
                  letter_term) -> ChainComplex:
    R = inner.ring
    pool = [((n, x), n + shift) for n in range(lowest, min(inner.truncation, N - shift) + 1)
            for x in inner.basis.names(n)]
    words = enumerate_words(pool, N)
    basis = GradedBasis(N)
    for n in sorted(words):
        for w in words[n]:
            basis.add(n, namer(w), w)
    X = ChainComplex(R, basis)
    for n in sorted(words):
        if n == 0:
            continue
        for src, w in zip(basis.names(n), words[n]):
            e = 0
            for j, (dj, xj) in enumerate(w):
                if dj - 1 >= lowest:
                    sgn = R.neg(_sign(R, e))
                    for x2, c in inner.d_of(dj, xj).items():
                        w2 = w[:j] + ((dj - 1, x2),) + w[j + 1:]
                        X.set_d_entry(n, src, basis.name_of(n - 1, w2), R.mul(sgn, c))
                for w2, c in letter_term(w, j, e):
                    X.set_d_entry(n, src, basis.name_of(n - 1, w2), c)
                e += dj + shift
    return X


def bar_complex(A, N: int) -> ChainComplex:
    """The complex of bar(A, N)."""
    R = A.ring

    def merge(w, j, e):
        if j + 1 < len(w):
            (dj, aj), (dk, ak) = w[j], w[j + 1]
            sgn = _sign(R, e + dj + 1)
            for prod, c in A.product(dj, aj, dk, ak).items():
                yield w[:j] + ((dj + dk, prod),) + w[j + 2:], R.mul(sgn, c)

    return _word_complex(A.complex, 1, 1, N, bar_word_name, merge)


def cobar_complex(C, N: int) -> ChainComplex:
    """The complex of cobar(C, N)."""
    R = C.ring

    def split(w, j, e):
        sgn = _sign(R, e)
        for (d1, c1), (d2, c2), coeff in C.reduced_coproduct(*w[j]):
            yield w[:j] + ((d1, c1), (d2, c2)) + w[j + 1:], R.mul(R.mul(sgn, _sign(R, d1)), coeff)

    return _word_complex(C.complex, 2, -1, N, cobar_word_name, split)


def tensor_complex(X: ChainComplex, Y: ChainComplex, through: int | None = None) -> ChainComplex:
    N = X.truncation + Y.truncation
    if through is not None:
        N = min(N, through)
    R = X.ring
    Z = ChainComplex(R, tensor_basis(X, Y, N))
    for name, ((p, a), (q, b)) in Z.basis.keys.items():
        for a2, c in X.d_of(p, a).items():
            Z.set_d_entry(p + q, name, tensor_name(a2, b), c)
        sgn = R.of(-1) if p % 2 else R.one
        for b2, c in Y.d_of(q, b).items():
            Z.set_d_entry(p + q, name, tensor_name(a, b2), R.mul(sgn, c))
    return Z


def twisted_tensor_complex(P, M, t, orientation: str, N: int) -> ChainComplex:
    """The complex of twisted_tensor(P, M, t, orientation, N)."""
    R = t.ring
    if orientation == "module-first":
        left_cx, right_cx = M.carrier, P.carrier
    else:
        left_cx, right_cx = P.carrier, M.carrier
    Z = ChainComplex(R, tensor_basis(left_cx, right_cx, N))
    for name, ((p, x), (q, y)) in Z.basis.keys.items():
        n = p + q
        for x2, c in left_cx.d_of(p, x).items():
            Z.set_d_entry(n, name, tensor_name(x2, y), c)
        sgn = _sign(R, p)
        for y2, c in right_cx.d_of(q, y).items():
            Z.set_d_entry(n, name, tensor_name(x, y2), R.mul(sgn, c))
        if orientation == "module-first":
            for (dc, c), (dy, y2), v in P.coact(q, y):
                tval = t.value(dc, c)
                if not tval:
                    continue
                acted = act_combo(M, p, {x: R.one}, dc - 1, tval)
                for m2, w in acted.items():
                    Z.set_d_entry(n, name, tensor_name(m2, y2), R.mul(R.mul(sgn, v), w))
        else:
            for (dx, x2), (dc, c), v in P.coact(p, x):
                tval = t.value(dc, c)
                if not tval:
                    continue
                acted = act_combo(M, q, {y: R.one}, dc - 1, tval)
                for m2, w in acted.items():
                    coeff = R.neg(R.mul(R.mul(_sign(R, dx), v), w))
                    Z.set_d_entry(n, name, tensor_name(x2, m2), coeff)
    return Z


def pushforward_total(f, bundle, N: int, A2) -> ChainComplex:
    """The total complex of pushforward(f, bundle, N, A2)."""
    A, C, R = bundle.monoid, bundle.comonoid, bundle.ring
    total = ChainComplex(R, tensor_basis(C.complex, A2.complex, N))
    pairs = bundle.total.basis.keys
    for name, ((p, c), (q, a2)) in total.basis.keys.items():
        base = tensor_name(c, A.unit)
        for m2, v in bundle.total.d_of(p, base).items():
            (dc2, c2), (da2, a_old) = pairs[m2]
            for b2, w in f.apply(da2, a_old).items():
                for r, u in A2.product(da2, b2, q, a2).items():
                    total.set_d_entry(p + q, name, tensor_name(c2, r), R.mul(R.mul(v, w), u))
        sgn = _sign(R, p)
        for a3, v in A2.complex.d_of(q, a2).items():
            total.set_d_entry(p + q, name, tensor_name(c, a3), R.mul(sgn, v))
    return total


def pullback_total(g, bundle, N: int, C2) -> ChainComplex:
    """The total complex of pullback(g, bundle, N, C2)."""
    A, R = bundle.monoid, bundle.ring
    total = ChainComplex(R, tensor_basis(C2.complex, A.complex, N))
    pairs = bundle.total.basis.keys

    def eps_D(dc, c_img, dy, y):
        d = bundle.total.d_of(dc + dy, tensor_name(c_img, y))
        return R.lincomb((pairs[m2][1], v) for m2, v in d.items() if pairs[m2][0][0] == 0)

    for name, ((p, c2), (q, y)) in total.basis.keys.items():
        for c3, v in C2.complex.d_of(p, c2).items():
            total.set_d_entry(p + q, name, tensor_name(c3, y), v)
        for (d1, c_l), (d2, c_r), v in C2.coproduct(p, c2):
            sgn = _sign(R, d1)
            for c_img, w in g.apply(d2, c_r).items():
                for (dy2, y2), u in eps_D(d2, c_img, q, y).items():
                    total.set_d_entry(p + q, name, tensor_name(c_l, y2),
                                      R.mul(R.mul(sgn, v), R.mul(w, u)))
    return total


def chains_complex(X, ring: Ring, N: int, basis: GradedBasis) -> ChainComplex:
    """The complex of normalized_chains(X, ring, N), on its basis."""
    Z = ChainComplex(ring, basis)
    for n in range(1, N + 1):
        for name in basis.names(n):
            x = basis.keys[name]
            for i in range(n + 1):
                y = basis.name_of(n - 1, X.face(n, i, x))
                if y is not None:
                    Z.set_d_entry(n, name, y, (-1) ** i)
    return Z


# ---------------------------------------------------------------------
# Maps out of word bases, cochain composition and the Maurer-Cartan and
# commutativity checks, name by name.
# ---------------------------------------------------------------------

def bar_map(f, source, target) -> ChainMap:
    """Bar(f) or Cobar(g): each word goes to the words of its letters' images."""
    R = source.ring
    out = ChainMap(source.complex, target.complex)
    words, image_basis = source.complex.basis.keys, target.complex.basis
    for n in range(source.truncation + 1):
        for name in source.basis(n):
            images = [((), R.one)]
            for (d, a) in words[name]:
                val = f.apply(d, a)
                images = [
                    (w + ((d, b),), R.mul(s, v))
                    for (w, s) in images for b, v in val.items()
                ]
                if not images:
                    break
            for w, s in images:
                target_name = image_basis.name_of(n, w)
                if target_name is not None:
                    out.set_entry(n, name, target_name, s)
    return out


def alpha_t(t, Omega, N: int) -> ChainMap:
    """The multiplicative extension ΩC -> A of t, letter by letter."""
    A = t.target
    f = ChainMap(Omega.complex, A.complex)
    words = Omega.complex.basis.keys
    for n in range(N + 1):
        for name in Omega.basis(n):
            combo = {A.unit: A.ring.one}
            deg = 0
            ok = True
            for (dc, c) in words[name]:
                val = t.value(dc, c)
                if not val:
                    ok = False
                    break
                combo = mul_combo(A, deg, combo, dc - 1, val)
                deg += dc - 1
                if not combo:
                    ok = False
                    break
            if ok:
                for r, v in combo.items():
                    f.set_entry(n, name, r, v)
    return f


def beta_t(t, Bar, N: int) -> ChainMap:
    """The adjoint C -> Bar(A) of t, by refining a frontier of right-comb
    splittings of the iterated reduced coproduct."""
    C = t.source
    R = C.ring
    bar_basis = Bar.complex.basis
    f = ChainMap(C.complex, Bar.complex)
    for n in range(N + 1):
        for c in C.basis(n):
            if n == 0:
                f.set_entry(0, c, "[]", R.one)
                continue
            results = []
            frontier = [(((n, c),), R.one)]
            while frontier:
                new_frontier = []
                for keys, coeff in frontier:
                    words = [((), coeff)]
                    for (dc, cc) in keys:
                        val = t.value(dc, cc)
                        words = [(w + ((dc - 1, a),), R.mul(s, av))
                                 for w, s in words for a, av in val.items()]
                        if not words:
                            break
                    for w, s in words:
                        name = bar_basis.name_of(n, w)
                        if name is not None:
                            results.append((name, s))
                    last = keys[-1]
                    for (d1, c1), (d2, c2), v in C.reduced_coproduct(*last):
                        new_frontier.append((keys[:-1] + ((d1, c1), (d2, c2)), R.mul(coeff, v)))
                frontier = new_frontier
            for name, v in R.lincomb(results).items():
                f.set_entry(n, c, name, v)
    return f


def milgram_cobar_map(C, D, N: int, OmegaCD, OmegaC, OmegaD, tensor_cobar) -> ChainMap:
    """q: Cobar(C⊗D) -> Cobar(C) ⊗ Cobar(D), letter by letter."""
    R = C.ring
    f = ChainMap(OmegaCD.complex, tensor_cobar)
    left = {(n, tensor_name(c, D.coaug)): c for n in range(C.truncation + 1) for c in C.basis(n)}
    right = {(n, tensor_name(C.coaug, d)): d for n in range(D.truncation + 1) for d in D.basis(n)}

    def letter_image(dc, name):
        out = []
        if (dc, name) in left:
            out.append((((dc, left[dc, name]),), (), R.one))
        if (dc, name) in right:
            out.append(((), ((dc, right[dc, name]),), R.one))
        return out

    for n in range(N + 1):
        for name in OmegaCD.basis(n):
            word = OmegaCD.complex.basis.keys[name]
            terms = [((), (), R.one)]
            for (dc, cname) in word:
                imgs = letter_image(dc, cname)
                new_terms = []
                for (wa, wb, s) in terms:
                    for (ua, ub, v) in imgs:
                        dwb = sum(k[0] - 1 for k in wb)
                        dua = sum(k[0] - 1 for k in ua)
                        sgn = _sign(R, dwb * dua)
                        new_terms.append((wa + ua, wb + ub, R.mul(R.mul(s, v), sgn)))
                terms = new_terms
                if not terms:
                    break
            for (wa, wb, s) in terms:
                da = sum(k[0] - 1 for k in wa)
                na = OmegaC.complex.basis.name_of(da, wa)
                nb = OmegaD.complex.basis.name_of(n - da, wb)
                if na is not None and nb is not None:
                    f.set_entry(n, name, tensor_name(na, nb), s)
    return f


def compose_cochain(g, t, f, source=None, target=None):
    """f ∘ t ∘ g, through ChainMap.apply."""
    C2 = source if source is not None else t.source
    A2 = target if target is not None else t.target
    R = t.ring
    out = TwistingCochain(C2, A2, name=f"({t.name} composed)")
    for n in range(1, C2.truncation + 1):
        for c in C2.basis(n):
            pre = g.apply(n, c) if g is not None else {c: R.one}
            mid = R.lincomb((a, v * w) for c1, v in pre.items() for a, w in t.value(n, c1).items())
            if f is not None:
                mid = R.lincomb((a2, v * w) for a, v in mid.items()
                                for a2, w in f.apply(n - 1, a).items())
            out.set_value(n, c, mid)
    return out


def verify_twisting_cochain(t, through=None):
    """dt + td = m(t⊗t)Δ on every basis element; (ok, witnesses)."""
    C, A, R = t.source, t.target, t.ring
    N = min(C.truncation, A.truncation + 1)
    if through is not None:
        N = min(N, through)
    witnesses = []
    if t.value(0, C.coaug):
        witnesses.append({"element": (0, C.coaug), "reason": "nonzero on coaugmentation"})
    for n in range(1, N + 1):
        for c in C.basis(n):
            lhs = R.lincomb([
                *((a2, v * w) for a, v in t.value(n, c).items()
                  for a2, w in A.complex.d_of(n - 1, a).items()),
                *((a, v * w) for c2, v in C.complex.d_of(n, c).items()
                  for a, w in t.value(n - 1, c2).items()),
            ])
            rhs = R.lincomb((a, _sign(R, d1) * v * w)
                            for (d1, c1), (d2, c2), v in C.reduced_coproduct(n, c)
                            for a, w in mul_combo(A, d1 - 1, t.value(d1, c1), d2 - 1,
                                                  t.value(d2, c2)).items())
            if lhs != rhs:
                witnesses.append({"element": (n, c), "lhs": lhs, "rhs": rhs})
    return (not witnesses), witnesses


def is_graded_commutative(A) -> bool:
    R = A.ring
    N = A.truncation
    for p in range(1, N + 1):
        for q in range(1, N + 1 - p):
            for a in A.basis(p):
                for b in A.basis(q):
                    sgn = _sign(R, p * q)
                    ba = A.product(q, b, p, a)
                    if A.product(p, a, q, b) != R.lincomb((k, sgn * v) for k, v in ba.items()):
                        return False
    return True


def word_extension(source: ChainComplex, N: int, target: ChainComplex, unit_row: int,
                   letter_image, times) -> ChainMap:
    """`barcobar._word_extension` as it found each word's prefix before the
    block arithmetic: by slicing off the last letter and looking the prefix
    up in ``positions``.  A letter's marked degree is its degree plus the
    shift of the word basis, read from a one-letter word."""
    from functools import cache

    R, basis = source.ring, source.basis
    shift = next((n - basis.keys[x][0][0] for n in range(1, source.truncation + 1)
                  for x in basis.names(n) if len(basis.keys[x]) == 1), 0)
    letter_image = cache(letter_image)
    columns = {0: [{unit_row: R.one}]}
    for n in range(1, min(N, source.truncation) + 1):
        columns[n] = []
        for w in map(basis.keys.get, basis.names(n)):
            p = n - w[-1][0] - shift
            prefix = columns[p][basis.positions(p)[w[:-1]]]
            columns[n].append(R.lincomb((r, v * x * y) for i, v in prefix.items()
                                        for b, x in letter_image(w[-1]) for r, y in times(p, i, b)))
    out = ChainMap(source, target)
    for n, cols in columns.items():
        m = out.components[n] = SparseMatrix(source.ring, target.basis.dim(n), len(cols))
        m.entries = {(r, j): v for j, col in enumerate(cols) for r, v in col.items()}
    return out
