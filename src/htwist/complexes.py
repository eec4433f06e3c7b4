"""Chain complexes of finitely generated free modules, chain maps, and the
homology / quasi-isomorphism oracle (homology from ranks and invariant
factors of the differentials).

A complex carries an explicit truncation degree N: basis and differential
data exist for degrees 0..N, and homology is reported only through N-1 so
that boundaries coming from degree N are always included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

from .rings import Ring, _q
from .sparse import SparseMatrix, kernel_basis, reduce_differential, solve


class TruncationTooLow(Exception):
    pass


class RingMismatch(Exception):
    pass


class GradedBasis:
    """Ordered named basis elements per degree, 0..truncation.

    A keyed basis also records what each element is: ``add(n, name, key)``
    files the key under the name in ``keys`` (name -> key, in basis order),
    and ``fill(n, names, keys)`` files a run of them at once.
    Tensor bases key by factor pair ((|x|, x), (|y|, y)), bar and cobar bases
    by letter word, normalized chains by simplex (docs/DECISIONS.md, section
    6).  ``positions`` inverts the registry degree by degree, key -> index,
    and ``name_of`` reads through it; the inverse is built on first use, so a
    basis only ever read by name or by index arithmetic never holds it."""

    def __init__(self, truncation: int, by_degree: dict[int, list[str]] | None = None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        self.truncation = truncation
        self.by_degree: dict[int, list[str]] = {}
        self._index: dict[int, dict[str, int]] = {}
        self.keys: dict[str, object] = {}
        self._positions: dict[int, dict[object, int]] | None = None  # degree -> key -> index
        for n, names in (by_degree or {}).items():
            for name in names:
                self.add(n, name)

    def add(self, degree: int, name: str, key=None):
        self._check_degree(degree)
        names = self.by_degree.setdefault(degree, [])
        idx = self._index.setdefault(degree, {})
        if name in idx:
            raise ValueError(f"duplicate basis name {name!r} in degree {degree}")
        idx[name] = len(names)
        names.append(name)
        if key is not None:
            self.keys[name] = key
            self._positions = None

    def fill(self, degree: int, names: list[str], keys: list):
        """``add`` of a run of keyed elements of one degree at once, in order;
        an empty run files nothing, so its degree stays absent."""
        self._check_degree(degree)
        if not names:
            return
        idx = self._index.get(degree, {})
        run = dict(zip(names, range(len(idx), len(idx) + len(names))))
        if len(run) < len(names) or not idx.keys().isdisjoint(run):
            seen = set(idx)
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate basis name {name!r} in degree {degree}")
                seen.add(name)
        self._index.setdefault(degree, {}).update(run)
        self.by_degree.setdefault(degree, []).extend(names)
        self.keys.update(zip(names, keys))
        self._positions = None

    def _check_degree(self, degree: int):
        if not (0 <= degree <= self.truncation):
            raise ValueError(f"degree {degree} outside 0..{self.truncation}")

    def positions(self, degree: int) -> dict:
        """key -> index of the keyed elements of ``degree`` (read only)."""
        if self._positions is None:
            keys = self.keys
            self._positions = {n: {keys[x]: i for i, x in enumerate(names) if x in keys}
                               for n, names in self.by_degree.items()}
        return self._positions.get(degree, {})

    def name_of(self, degree: int, key) -> str | None:
        """The name keyed by ``key`` in ``degree``, or None when there is none."""
        i = self.positions(degree).get(key)
        return None if i is None else self.by_degree[degree][i]

    def names(self, degree: int) -> list[str]:
        return self.by_degree.get(degree, [])

    def dim(self, degree: int) -> int:
        return len(self.by_degree.get(degree, ()))

    def index(self, degree: int, name: str) -> int:
        return self._index[degree][name]

    def degrees(self):
        return sorted(self.by_degree)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.by_degree.values())


@dataclass
class HomologySummary:
    """Per-degree free rank plus torsion coefficients (empty over a field)."""

    by_degree: dict[int, tuple[int, list[int]]] = field(default_factory=dict)

    def rank(self, n: int) -> int:
        return self.by_degree.get(n, (0, []))[0]

    def torsion(self, n: int) -> list[int]:
        return self.by_degree.get(n, (0, []))[1]

    def __eq__(self, other):
        degs = set(self.by_degree) | set(other.by_degree)
        return all(
            self.by_degree.get(n, (0, [])) == other.by_degree.get(n, (0, []))
            for n in degs
        )

    def pretty(self) -> str:
        parts = []
        for n in sorted(self.by_degree):
            r, tors = self.by_degree[n]
            terms = []
            if r:
                terms.append(f"free^{r}" if r > 1 else "free")
            terms += [f"Z/{t}" for t in tors]
            parts.append(f"H_{n} = " + (" + ".join(terms) if terms else "0"))
        return "; ".join(parts)


class ChainComplex:
    """Nonnegatively graded complex, differential of degree -1, truncated at N."""

    def __init__(self, ring: Ring, basis: GradedBasis, diff: dict[int, SparseMatrix] | None = None):
        self.ring = ring
        self.basis = basis
        self.diff: dict[int, SparseMatrix] = dict(diff or {})

    @property
    def truncation(self) -> int:
        return self.basis.truncation

    def dmat(self, n: int) -> SparseMatrix:
        """Differential C_n -> C_{n-1} as a matrix (zero when absent)."""
        if n in self.diff:
            return self.diff[n]
        rows = self.basis.dim(n - 1) if n >= 1 else 0
        return SparseMatrix(self.ring, rows, self.basis.dim(n))

    def set_d_entry(self, src_degree: int, src: str, dst: str, coeff):
        """Add coeff * dst to d(src)."""
        n = src_degree
        if n not in self.diff:
            self.diff[n] = SparseMatrix(self.ring, self.basis.dim(n - 1), self.basis.dim(n))
        i = self.basis.index(n - 1, dst)
        j = self.basis.index(n, src)
        self.diff[n].add_to(i, j, self.ring.of(coeff))

    def _set_d(self, terms):
        """Set d_1..d_N from the ((row, col), coeff) terms ``terms(n)`` yields,
        summed in place in first-seen order; a coeff may be an unreduced
        product of ring elements, and zero sums are dropped."""
        p, q = self.ring.p, self.ring.kind == "Q"
        for n in range(1, self.truncation + 1):
            d = self.diff[n] = SparseMatrix(self.ring, self.basis.dim(n - 1), self.basis.dim(n))
            entries = d.entries
            get = entries.get
            for ij, v in terms(n):
                entries[ij] = get(ij, 0) + v
            if p or q:
                for ij, v in entries.items():
                    entries[ij] = v % p if p else _q(v)
            for ij in [ij for ij, v in entries.items() if not v]:
                del entries[ij]

    def d_of(self, degree: int, name: str) -> dict[str, object]:
        """d of a basis element as {name_in_degree-1: coeff}."""
        column = self.dmat(degree).column(self.basis.index(degree, name))
        names = self.basis.names(degree - 1)
        return {names[i]: v for i, v in column.items()}


def verify_differential(X: ChainComplex):
    """Check d∘d = 0 below the truncation; returns (ok, witness)."""
    for n in range(2, X.truncation + 1):
        prod = X.dmat(n - 1) @ X.dmat(n)
        if not prod.is_zero():
            (i, j2), _ = next(iter(sorted(prod.entries.items())))
            return False, {
                "degree": n,
                "element": X.basis.names(n)[j2],
                "hits": X.basis.names(n - 2)[i],
            }
    return True, None


def homology(X: ChainComplex, through: int) -> HomologySummary:
    """H_n = ker d_n / im d_{n+1} for n <= through.

    H_n = free^(dim C_n - rk d_n - rk d_{n+1}) + sum of Z/f over the
    invariant factors f > 1 of d_{n+1}.  The differentials are eliminated
    in order, each once and without transforms, and d_{n+1} without the
    rows that the elimination of d_n settled (`sparse.reduce_differential`;
    docs/DECISIONS.md, section 10).
    """
    if through >= X.truncation and not (X.truncation == 0 and through == 0):
        raise TruncationTooLow(
            f"homology through {through} needs differentials up to degree "
            f"{through + 1}, but truncation is {X.truncation}"
        )
    d, settled = [], frozenset()
    for n in range(through + 2):
        rank, torsion, settled = reduce_differential(X.dmat(n), settled)
        d.append((rank, torsion))
    summary = HomologySummary()
    for n in range(through + 1):
        summary.by_degree[n] = (X.basis.dim(n) - d[n][0] - d[n + 1][0], d[n + 1][1])
    return summary


class ChainMap:
    """Degree-0 map of complexes given by per-degree matrices."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: dict[int, SparseMatrix] | None = None):
        if source.ring != target.ring:
            raise RingMismatch(f"{source.ring} vs {target.ring}")
        self.source = source
        self.target = target
        self.components: dict[int, SparseMatrix] = dict(components or {})

    def mat(self, n: int) -> SparseMatrix:
        if n in self.components:
            return self.components[n]
        return SparseMatrix(self.source.ring, self.target.basis.dim(n), self.source.basis.dim(n))

    def set_entry(self, degree: int, src: str, dst: str, coeff):
        if degree not in self.components:
            self.components[degree] = SparseMatrix(
                self.source.ring, self.target.basis.dim(degree), self.source.basis.dim(degree)
            )
        i = self.target.basis.index(degree, dst)
        j = self.source.basis.index(degree, src)
        self.components[degree].add_to(i, j, self.source.ring.of(coeff))

    def apply(self, degree: int, name: str) -> dict[str, object]:
        column = self.mat(degree).column(self.source.basis.index(degree, name))
        names = self.target.basis.names(degree)
        return {names[i]: v for i, v in column.items()}

    def is_chain_map(self, through: int | None = None):
        hi = min(self.source.truncation, self.target.truncation)
        if through is not None:
            hi = min(hi, through + 1)
        bad = _chain_map_failures(self, hi)
        return (False, bad[0][0]) if bad else (True, None)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self ∘ other."""
        assert other.target is self.source or other.target.basis is self.source.basis
        hi = min(self.source.truncation, other.source.truncation)
        comps = {n: self.mat(n) @ other.mat(n) for n in range(hi + 1)}
        return ChainMap(other.source, self.target, comps)

    @staticmethod
    def identity(X: ChainComplex) -> "ChainMap":
        comps = {n: SparseMatrix.identity(X.ring, X.basis.dim(n)) for n in X.basis.degrees()}
        return ChainMap(X, X, comps)


def _differing_columns(L: SparseMatrix, M: SparseMatrix) -> list[int]:
    """The columns, in order, where two matrices of one shape differ."""
    a, b = L.entries, M.entries
    return sorted({ij[1] for ij in a.keys() | b.keys() if a.get(ij) != b.get(ij)})


def _chain_map_failures(f: ChainMap, N: int):
    """The columns (n, j), 1 <= n <= N, in order, where d∘f != f∘d."""
    return [(n, j) for n in range(1, N + 1) for j in _differing_columns(
        f.target.dmat(n) @ f.mat(n), f.mat(n - 1) @ f.source.dmat(n))]


def is_quasi_iso_through(f: ChainMap, through: int):
    """Induced iso on H_n for n <= through?  Returns (ok, per-degree report).

    Decided on the mapping cone (docs/DECISIONS.md, section 7): f is a
    quasi-isomorphism through t iff H_n(Cone f) = 0 for n <= t and
    H_t(X) = H_t(Y), over Z as over a field.  Each report entry holds H_n of
    source, target and cone as (rank, torsion).  A map that does not commute
    with d through t + 1 has no cone; it reports {"chain-map": degree}.
    """
    ok, bad = f.is_chain_map(through)
    if not ok:
        return False, {"chain-map": bad}
    hx = homology(f.source, through).by_degree
    hy = homology(f.target, through).by_degree
    hc = homology(mapping_cone(f, through + 1), through).by_degree
    report = {n: {"source": hx[n], "target": hy[n], "match": hx[n] == hy[n], "cone": hc[n]}
              for n in range(through + 1)}
    acyclic = all(r == 0 and not t for r, t in hc.values())
    return acyclic and report[through]["match"], report


def induced_zero_on_reduced_homology(f: ChainMap, through: int) -> bool:
    """True iff H_n(f) = 0 for 1 <= n <= through and the sources are
    connected in degree 0 (so reduced H_0 vanishes)."""
    X, Y = f.source, f.target
    r0, t0 = homology(X, 0).by_degree[0]
    if r0 > 1 or t0:
        return False
    for n in range(1, through + 1):
        KX = kernel_basis(X.dmat(n))
        fK = f.mat(n) @ KX
        if fK.is_zero():
            continue
        if solve(Y.dmat(n + 1), fK) is None:
            return False
    return True


# ---------------------------------------------------------------------
# Constructions on complexes.
# ---------------------------------------------------------------------

def tensor_name(a: str, b: str) -> str:
    return f"{a}⊗{b}"


def tensor_basis(X: ChainComplex, Y: ChainComplex, N: int) -> GradedBasis:
    """The basis {x⊗y : |x|+|y| <= N}, ordered by degree, then |x|, then X
    order, then Y order, keyed by factor pair ((|x|, x), (|y|, y)).  This is
    the one place a pair basis is built: factors travel with the basis and
    are never parsed back from names (which may themselves contain ⊗)."""
    basis = GradedBasis(N)
    for n in range(N + 1):
        names, keys = [], []
        for p in range(n + 1):
            ys = Y.basis.names(n - p)
            for x in X.basis.names(p):
                names += [tensor_name(x, y) for y in ys]
                keys += [((p, x), (n - p, y)) for y in ys]
        basis.fill(n, names, keys)
    return basis


def _tensor_offset(X: ChainComplex, Y: ChainComplex, n: int) -> list[int]:
    """off[p] is the index in degree n of the first x⊗y with |x| = p, so in
    tensor_basis order x⊗y sits at off[p] + i_x·dim Y_{n-p} + i_y, with i_x,
    i_y the indices of x in X_p and y in Y_{n-p}; off[n + 1] is the
    dimension of degree n."""
    dx, dy = X.basis.dim, Y.basis.dim
    return list(accumulate((dx(p) * dy(n - p) for p in range(n + 1)), initial=0))


def _tensor_offsets(X: ChainComplex, Y: ChainComplex, N: int) -> list[list[int]]:
    """`_tensor_offset` of every degree 0..N."""
    return [_tensor_offset(X, Y, n) for n in range(N + 1)]


def _tensor_terms(X: ChainComplex, Y: ChainComplex, off, extra=None):
    """The function n -> the ((row, col), coeff) terms of d_n(x⊗y) = dx⊗y +
    (-1)^|x| x⊗dy on the tensor_basis of X ⊗ Y, column by column, rows by
    index arithmetic; ``extra(n, p, i, j)`` yields more (row, coeff) terms
    for X_p[i] ⊗ Y_{n-p}[j].  The factors' d are read through column views
    that live as long as the returned function, so none is left on them."""
    xcols, ycols, dim = cache(lambda p: X.dmat(p).columns()), cache(lambda q: Y.dmat(q).columns()), Y.basis.dim

    def terms(n):
        below, col = off[n - 1], 0
        for p in range(n + 1):
            q = n - p
            dx, dy, ny, ny1 = xcols(p), ycols(q), dim(q), dim(q - 1)
            sgn = -1 if p % 2 else 1
            for i in range(X.basis.dim(p)):
                xcol = dx.get(i, {})
                for j in range(ny):
                    for r, c in xcol.items():
                        yield (below[p - 1] + r * ny + j, col), c
                    for r, c in dy.get(j, {}).items():
                        yield (below[p] + i * ny1 + r, col), sgn * c
                    if extra is not None:
                        for row, c in extra(n, p, i, j):
                            yield (row, col), c
                    col += 1

    return terms


def tensor_complex(X: ChainComplex, Y: ChainComplex, through: int | None = None) -> ChainComplex:
    """X ⊗ Y with the Koszul differential d(x⊗y) = dx⊗y + (-1)^|x| x⊗dy."""
    if X.ring != Y.ring:
        raise RingMismatch(f"{X.ring} vs {Y.ring}")
    N = X.truncation + Y.truncation
    if through is not None:
        N = min(N, through)
    Z = ChainComplex(X.ring, tensor_basis(X, Y, N))
    off = _tensor_offsets(X, Y, N)
    Z._set_d(_tensor_terms(X, Y, off))
    return Z


def _tensor_kron(f: ChainMap, g: ChainMap, n: int) -> SparseMatrix:
    """(f⊗g)_n from the tensor_basis layout of f.source ⊗ g.source to that of
    f.target ⊗ g.target: the block of |x| = p is the Kronecker product
    f_p ⊗ g_{n-p}, placed by the offsets of _tensor_offset.  f and g have
    degree 0, so there is no Koszul sign."""
    X, Y, X2, Y2 = f.source, g.source, f.target, g.target
    src, dst = _tensor_offset(X, Y, n), _tensor_offset(X2, Y2, n)
    R = X.ring
    out = SparseMatrix(R, dst[-1], src[-1])
    mul, entries = R.mul, out.entries
    for p in range(n + 1):
        ny, ny2 = Y.basis.dim(n - p), Y2.basis.dim(n - p)
        gq = g.mat(n - p).entries.items()
        for (i2, i), u in f.mat(p).entries.items():
            r, c = dst[p] + i2 * ny2, src[p] + i * ny
            for (j2, j), v in gq:
                entries[r + j2, c + j] = mul(u, v)
    return out


def tensor_map(f: ChainMap, g: ChainMap, src: ChainComplex, dst: ChainComplex) -> ChainMap:
    """f⊗g: x⊗y -> f(x)⊗g(y) from the pair basis of src to that of dst;
    pass ``ChainMap.identity`` for the factor that does not move."""
    return ChainMap(src, dst, {n: _tensor_kron(f, g, n) for n in range(src.truncation + 1)})


def mapping_cone(f: ChainMap, N: int) -> ChainComplex:
    """Cone(f)_n = X_{n-1} ⊕ Y_n for n <= N, summands named L(x) and R(y),
    with d(x, y) = (-dx, f(x) + dy): d_n is the block matrix
    [[-d_{n-1}, 0], [f_{n-1}, d_n]], built without name lookups."""
    X, Y, R = f.source, f.target, f.source.ring
    basis = GradedBasis(N)
    for n in range(N + 1):
        for x in X.basis.names(n - 1):
            basis.add(n, f"L({x})")
        for y in Y.basis.names(n):
            basis.add(n, f"R({y})")
    C = ChainComplex(R, basis)
    for n in range(1, N + 1):
        top, left = X.basis.dim(n - 2), X.basis.dim(n - 1)
        d = SparseMatrix(R, basis.dim(n - 1), basis.dim(n))
        d.entries = {ij: R.neg(v) for ij, v in X.dmat(n - 1).entries.items()}
        d.entries.update(((top + i, j), v) for (i, j), v in f.mat(n - 1).entries.items())
        d.entries.update(((top + i, left + j), v) for (i, j), v in Y.dmat(n).entries.items())
        C.diff[n] = d
    return C
