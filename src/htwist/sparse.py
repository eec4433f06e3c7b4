"""Sparse exact matrices over Z, Q, F_p: arithmetic, rank, kernels, exact
solving and the Smith normal form.

A matrix stores its nonzero entries in one dict keyed by (row, col).  A
column index is built on the first column read and dropped on every write.
Everything is exact; no floating point anywhere.

Each elimination copies its matrix once into row dicts {row: {col: v}} and
works on those.

Over a field, each row in turn is reduced against the pivot rows found so
far, leftmost column first, and its leading column becomes its pivot.  The
pivot columns are therefore the leftmost independent ones, so the reduced
row echelon form is unique, and with it the kernel basis and the solution
(free variables zero).  `reduce_differential` stops after this forward
pass; `field_kernel_basis` and `field_solve` (on the augmented rows [M | B])
also back-substitute.

Over Z, one diagonalisation by unimodular row and column operations serves
the Smith normal form, the rank and the invariant factors.  It takes unit
pivots first, the cheapest by Markowitz cost (row length - 1) * (column
length - 1) in a lazily updated heap.  When no unit is left it takes an
entry of minimal |v| and reduces its column, then its row, by Euclidean
division; a nonzero remainder is a smaller entry and the search starts
again.  The diagonal is put in divisibility order by gcd/lcm at the end.
The transforms U and V are recorded only when asked for (kernels and
solving); rank and invariant factors run without them.

`reduce_differential` serves homology.  It eliminates one differential
without the rows that the elimination of the previous one settled, and
returns its own settled columns, the rows the next differential may lose
in turn: over a field every pivot column, over Z the columns of the unit
pivots taken before the first non-unit step.  Its rank and invariant
factors are those of the whole differential (docs/DECISIONS.md, section
10).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .rings import Ring, ZZ, _q


class SparseMatrix:
    def __init__(self, ring: Ring, nrows: int, ncols: int, entries=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict = {}
        self._cols = None  # {col: {row: v}}, built by column()
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    # -- basic access --------------------------------------------------
    def __getitem__(self, ij):
        return self.entries.get(ij, self.ring.zero)

    def __setitem__(self, ij, v):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {ij} out of shape {(self.nrows, self.ncols)}")
        self._cols = None
        if self.ring.is_zero(v):
            self.entries.pop(ij, None)
        else:
            self.entries[ij] = v

    def add_to(self, i, j, v):
        self[i, j] = self.ring.add(self[i, j], v)

    def column(self, j) -> dict:
        """Nonzero entries of column j as {row: v}, in entry order (read only);
        the first call keeps `columns` on the matrix."""
        if self._cols is None:
            self._cols = self.columns()
        return self._cols.get(j, {})

    def columns(self) -> dict:
        """{col: {row: v}} of the nonzero entries, in entry order, built anew
        by each call and not kept."""
        cols: dict = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, {})[i] = v
        return cols

    def copy(self) -> "SparseMatrix":
        m = SparseMatrix(self.ring, self.nrows, self.ncols)
        m.entries = dict(self.entries)
        return m

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.ring}, {self.nrows}x{self.ncols}, nnz={len(self.entries)})"

    @staticmethod
    def from_rows(ring: Ring, rows) -> "SparseMatrix":
        m = SparseMatrix(ring, len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m[i, j] = ring.of(v)
        return m

    @staticmethod
    def identity(ring: Ring, n: int) -> "SparseMatrix":
        m = SparseMatrix(ring, n, n)
        for i in range(n):
            m[i, i] = ring.one
        return m

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        m = self.copy()
        for ij, v in other.entries.items():
            m.add_to(*ij, v)
        return m

    def scale(self, c) -> "SparseMatrix":
        m = SparseMatrix(self.ring, self.nrows, self.ncols)
        for ij, v in self.entries.items():
            m[ij] = self.ring.mul(c, v)
        return m

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        assert self.ncols == other.nrows, (self.ncols, other.nrows)
        by_row: dict = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        out = SparseMatrix(self.ring, self.nrows, other.ncols)
        out.entries = self.ring.lincomb(((i, j), u * v) for (i, k), u in self.entries.items()
                                        for j, v in by_row.get(k, ()))
        return out


# ---------------------------------------------------------------------
# Row dicts, shared by both eliminations.
# ---------------------------------------------------------------------

def _row_dicts(M: SparseMatrix, drop=()) -> dict:
    """{row: {col: v}} for the nonzero rows of M not in `drop`, rows in
    increasing order."""
    rows: dict = {}
    for (i, j), v in M.entries.items():
        rows.setdefault(i, {})[j] = v
    return {i: rows[i] for i in sorted(rows) if i not in drop}


def _axpy(dst: dict, c, src: dict, p=None):
    """dst += c * src in place, dropping zeros; reduce mod p when given."""
    for k, w in src.items():
        x = dst.get(k, 0) + c * w
        if p:
            x %= p
        if x:
            dst[k] = x
        else:
            dst.pop(k, None)


# ---------------------------------------------------------------------
# Field elimination: rank, kernel, solving.
# ---------------------------------------------------------------------

def _field_forward(rows, R: Ring) -> dict:
    """Semi-echelon form of the given row dicts (consumed) over the field R.

    Returns {leading column: row}, each row scaled to leading entry 1 and
    holding no column left of its lead.
    """
    p = R.p
    pivots: dict = {}
    for row in rows:
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            v = row.get(c)
            if v is None:
                continue
            prow = pivots.get(c)
            if prow is None:  # c leads: a new pivot row
                if v != 1:
                    inv = R.inv(v)
                    row = {k: (w * inv) % p if p else _q(w * inv) for k, w in row.items()}
                pivots[c] = row
                break
            for k, w in prow.items():
                x = row.get(k)
                if x is None:
                    row[k] = (-v * w) % p if p else -v * w
                    heappush(heap, k)
                else:
                    x = (x - v * w) % p if p else x - v * w
                    if x:
                        row[k] = x
                    else:
                        del row[k]
    return pivots


def _back_substitute(pivots: dict, p):
    """Turn the semi-echelon rows of `_field_forward` into the RREF in place."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            # pivots[k] is already reduced, so this adds no pivot column
            _axpy(row, -row[k], pivots[k], p)


def field_kernel_basis(M: SparseMatrix) -> SparseMatrix:
    """Columns form a basis of ker(M) over the field."""
    R = M.ring
    assert R.is_field
    pivots = _field_forward(_row_dicts(M).values(), R)
    _back_substitute(pivots, R.p)
    free = [j for j in range(M.ncols) if j not in pivots]
    K = SparseMatrix(R, M.ncols, len(free))
    slot = {j: idx for idx, j in enumerate(free)}
    for idx, j in enumerate(free):
        K[j, idx] = R.one
    for c, row in pivots.items():
        for j, v in row.items():
            if j != c:
                K[c, slot[j]] = R.neg(_q(v))
    return K


def field_solve(M: SparseMatrix, B: SparseMatrix):
    """Solve M X = B over a field; returns X or None if inconsistent."""
    R = M.ring
    assert R.is_field
    m = M.ncols
    rows = _row_dicts(M)
    for (i, j), v in B.entries.items():
        rows.setdefault(i, {})[m + j] = v
    pivots = _field_forward([rows[i] for i in sorted(rows)], R)
    if any(c >= m for c in pivots):
        return None
    _back_substitute(pivots, R.p)
    X = SparseMatrix(R, m, B.ncols)
    for c, row in pivots.items():
        for k, v in row.items():
            if k >= m:
                X[c, k - m] = _q(v)
    return X


# ---------------------------------------------------------------------
# Diagonalisation and Smith normal form over Z.
# ---------------------------------------------------------------------

def _z_diagonalize(rows: dict, U: dict | None, V: dict | None):
    """Diagonalise the row dicts `rows` (consumed) by unimodular row and
    column operations.

    Returns (pivots, settled).  `pivots` lists (row, col, d) with d > 0; its
    length is the rank.  `settled` is the set of columns of the unit pivots
    taken before the first non-unit step: a column operation of that phase
    changes only the coordinate of its pivot column.  U (rows as dicts) and
    V (columns as dicts), when given, start as identities and are updated in
    place so that U M V = the matrix holding d at each (row, col) of
    `pivots`, M being the matrix of `rows`.
    """
    cols: dict = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in rows.items() for j, v in row.items()
            if v == 1 or v == -1]
    heapify(heap)

    def unit_pivot():
        while heap:
            key, i, j = heappop(heap)
            v = rows.get(i, {}).get(j)
            if v != 1 and v != -1:
                continue
            now = cost(i, j)
            if now > key:
                heappush(heap, (now, i, j))
                continue
            return i, j
        return None

    def small_pivot():
        best = min((abs(v), cost(i, j), i, j) for i, row in rows.items() for j, v in row.items())
        return best[2:]

    def addmul_row(k, i, c):
        """row k += c * row i."""
        rk = rows[k]
        for j, w in rows[i].items():
            x = rk.get(j, 0) + c * w
            if not x:
                del rk[j]
                cols[j].discard(k)
                continue
            if j not in rk:
                cols[j].add(k)
            rk[j] = x
            if x == 1 or x == -1:
                heappush(heap, (cost(k, j), k, j))
        if not rk:
            del rows[k]
        if U is not None:
            _axpy(U[k], c, U[i])

    pivots, settled = [], set()
    unit_phase = True
    while rows:
        pivot = unit_pivot()
        if pivot is None:
            unit_phase = False
            pivot = small_pivot()
        i, j = pivot
        v = rows[i][j]
        clean = True
        for k in [k for k in cols[j] if k != i]:
            addmul_row(k, i, -(rows[k][j] // v))
            clean = clean and j not in rows.get(k, ())
        if not clean:
            continue
        # column j is now {i}: a column operation changes only row i
        row = rows[i]
        for l in [l for l in row if l != j]:
            q, r = divmod(row[l], v)
            if V is not None:
                _axpy(V[l], -q, V[j])
            if r:
                row[l] = r
                clean = False
                if r == 1 or r == -1:
                    heappush(heap, (cost(i, l), i, l))
            else:
                del row[l]
                cols[l].discard(i)
        if not clean:
            continue
        del rows[i], cols[j]
        if v < 0 and U is not None:
            U[i] = {c: -x for c, x in U[i].items()}
        pivots.append((i, j, abs(v)))
        if unit_phase:
            settled.add(j)
    return pivots, settled


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _combine(a, x: dict, b, y: dict) -> dict:
    """a*x + b*y for sparse vectors as dicts."""
    out = {k: a * w for k, w in x.items()} if a else {}
    _axpy(out, b, y)
    return out


def _divisibility_order(found, U=None, V=None) -> list:
    """The pivots `found` of `_z_diagonalize` as [row, col, d], units first,
    the diagonal put in divisibility order (every d_a dividing each later
    d_b) by gcd/lcm steps, each also applied to U and V when given."""
    piv = [list(p) for p in found if p[2] == 1]
    units = len(piv)
    piv += [list(p) for p in found if p[2] != 1]
    for a in range(units, len(piv)):
        for b in range(a + 1, len(piv)):
            (ia, ja, da), (ib, jb, db) = piv[a], piv[b]
            if db % da == 0:
                continue
            g, s, t = _xgcd(da, db)
            if U is not None:
                # [[s, t], [-db/g, da/g]] diag(da, db) [[1, -t db/g], [1, s da/g]]
                #   = diag(g, lcm)
                U[ia], U[ib] = _combine(s, U[ia], t, U[ib]), _combine(-db // g, U[ia], da // g, U[ib])
                V[ja], V[jb] = _combine(1, V[ja], 1, V[jb]), _combine(-t * db // g, V[ja], s * da // g, V[jb])
            piv[a][2], piv[b][2] = g, da // g * db
    return piv


def smith_normal_form(M: SparseMatrix, transforms: bool = True):
    """Smith normal form over Z.

    Returns (D, U, V) with U @ M @ V == D, U and V unimodular, and the
    diagonal of D positive with d1 | d2 | ... .  With transforms=False only
    D is computed and U, V are None.
    """
    assert M.ring == ZZ
    n, m = M.nrows, M.ncols
    U = {i: {i: 1} for i in range(n)} if transforms else None
    V = {j: {j: 1} for j in range(m)} if transforms else None
    found, _ = _z_diagonalize(_row_dicts(M), U, V)
    piv = _divisibility_order(found, U, V)
    D = SparseMatrix(ZZ, n, m)
    for t, (_, _, d) in enumerate(piv):
        D[t, t] = d
    if not transforms:
        return D, None, None
    prow = {i for i, _, _ in piv}
    pcol = {j for _, j, _ in piv}
    Um = SparseMatrix(ZZ, n, n)
    for t, i in enumerate([p[0] for p in piv] + [i for i in range(n) if i not in prow]):
        for c, x in U[i].items():
            Um[t, c] = x
    Vm = SparseMatrix(ZZ, m, m)
    for t, j in enumerate([p[1] for p in piv] + [j for j in range(m) if j not in pcol]):
        for r, x in V[j].items():
            Vm[r, t] = x
    return D, Um, Vm


def invariant_factors(M: SparseMatrix):
    """Nonzero diagonal of the SNF over Z, in divisibility order."""
    D, _, _ = smith_normal_form(M, transforms=False)
    return [D.entries[t, t] for t in range(len(D.entries))]


def z_kernel_basis(M: SparseMatrix) -> SparseMatrix:
    """Columns form a Z-basis of the (saturated) kernel lattice of M."""
    D, _, V = smith_normal_form(M)
    r = len(D.entries)
    K = SparseMatrix(ZZ, M.ncols, M.ncols - r)
    for idx in range(M.ncols - r):
        for i, v in V.column(r + idx).items():
            K[i, idx] = v
    return K


def z_solve(M: SparseMatrix, B: SparseMatrix):
    """Solve M X = B over Z (exact integral solutions); None if none exist."""
    D, U, V = smith_normal_form(M)
    r = len(D.entries)
    Y = SparseMatrix(ZZ, M.ncols, B.ncols)
    for (i, j), v in (U @ B).entries.items():
        if i >= r or v % D[i, i] != 0:
            return None
        Y[i, j] = v // D[i, i]
    return V @ Y


def reduce_differential(M: SparseMatrix, settled):
    """(rank, invariant factors > 1, settled columns) of M with the rows in
    `settled` deleted, in one elimination without transforms.

    For d_n of a complex, pass the settled columns returned for d_{n-1}:
    deleting those rows changes neither the rank nor the invariant factors
    of d_n (docs/DECISIONS.md, section 10).  The columns returned are those
    the next differential may lose in turn: over a field every pivot
    column, over Z the unit pivots taken before the first non-unit step.
    Over a field there is no torsion and the list is empty.
    """
    R = M.ring
    rows = _row_dicts(M, settled)
    if R.is_field:
        pivots = _field_forward(rows.values(), R)
        return len(pivots), [], set(pivots)
    found, unit_cols = _z_diagonalize(rows, None, None)
    torsion = [d for *_, d in _divisibility_order(found) if d > 1]
    return len(found), torsion, unit_cols


def kernel_basis(M: SparseMatrix) -> SparseMatrix:
    return z_kernel_basis(M) if M.ring == ZZ else field_kernel_basis(M)


def solve(M: SparseMatrix, B: SparseMatrix):
    return z_solve(M, B) if M.ring == ZZ else field_solve(M, B)

