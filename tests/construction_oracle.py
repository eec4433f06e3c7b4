"""Reference builds of the construction differentials, kept for the tests only.

These are the bodies `htwist` used before its constructions wrote d_n by
integer index: every entry is added one at a time through
`ChainComplex.set_d_entry`, which renders the target name and looks both
names up in the basis.  Each function rebuilds the complex on the same basis
as the construction it mirrors and returns it, so the two d_n can be
compared matrix by matrix.  They share the basis construction with `htwist`
(`tensor_basis`, `_enumerate_words`), but none of the differential code.
"""

from htwist.barcobar import _enumerate_words, bar_word_name, cobar_word_name
from htwist.complexes import ChainComplex, GradedBasis, tensor_basis, tensor_name
from htwist.hopf import _sign
from htwist.rings import Ring


def _word_complex(inner: ChainComplex, lowest: int, shift: int, N: int, namer,
                  letter_term) -> ChainComplex:
    R = inner.ring
    pool = [((n, x), n + shift) for n in range(lowest, min(inner.truncation, N - shift) + 1)
            for x in inner.basis.names(n)]
    words = _enumerate_words(pool, N)
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
                acted = M.act_combo(p, {x: R.one}, dc - 1, tval)
                for m2, w in acted.items():
                    Z.set_d_entry(n, name, tensor_name(m2, y2), R.mul(R.mul(sgn, v), w))
        else:
            for (dx, x2), (dc, c), v in P.coact(p, x):
                tval = t.value(dc, c)
                if not tval:
                    continue
                acted = M.act_combo(q, {y: R.one}, dc - 1, tval)
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
