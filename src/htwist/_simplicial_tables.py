"""Per-level index tables of a finite simplicial set: each level's simplices
numbered by position, with integer tables of their faces and degeneracies
(docs/DECISIONS.md, section 14).

`formula_levels` builds complete tables by arithmetic on base-|G| digits
for W̄G of a constant group G, and for X ×_τ Y with a constant Y over such
a base, without calling a face or degeneracy.  `call_levels` fills the
same tables with one call per simplex, for any finite space.
`_simplicial_identities.verify` reads the first, `chains` reads either.
`extra_degeneracy` numbers the contracting homotopy of W̄G ×_ν G on the
first, for `chains.acyclicity_of_universal_bundle` to check.  `composite`
gives a∘s of a formula table s by the slices it was copied by.
"""

from __future__ import annotations

from array import array
from functools import cached_property, partial
from itertools import chain, product, repeat
from operator import add


class Level:
    """One level of a space, its simplices numbered by position, with their
    face and degeneracy tables: faces[i][p] numbers d_i of simplex p in the
    level below, degens[j][p] numbers s_j of it in the level above.

    `size` is the number of simplices.  `simplices`, the listing whose
    positions are the numbers, is made by `listing()` the first time it is
    read, so a reader of the tables alone lists nothing.  `ramp`, one for
    all levels, is the array('i', range(k)) the formula tables were copied
    from, cut after the build to k = the size of level N; None for tables
    filled by call."""

    def __init__(self, size: int, faces: list, degens: list, listing, ramp):
        self.size, self.faces, self.degens, self._listing = size, faces, degens, listing
        self.ramp = ramp

    @cached_property
    def simplices(self) -> list:
        return self._listing()


def call_levels(X, N: int):
    """Levels 0..N of X as `X.elements` lists them, with every face of
    levels 1..N and every degeneracy of levels 0..N - 1, one call each; a
    face or degeneracy that is not listed is -1.  None when a level is
    symbolic."""
    listed = [X.elements(n) for n in range(N + 1)]
    if any(elems is None for elems in listed):
        return None
    index = [{y: p for p, y in enumerate(elems)} for elems in listed]
    levels = []
    for n, elems in enumerate(listed):
        faces = [array("i", (index[n - 1].get(X.face(n, i, x), -1) for x in elems))
                 for i in range(n + 1)] if n else []
        degens = [array("i", (index[n + 1].get(X.degeneracy(n, j, x), -1) for x in elems))
                  for j in range(n + 1)] if n < N else []
        levels.append(Level(len(elems), faces, degens, lambda elems=elems: elems, None))
    return levels


def formula_levels(X, N: int, top: bool = True):
    """Complete tables of levels 0..N of W̄G for a constant G, or of
    X ×_τ Y for a constant Y over such a W̄G, with no face or degeneracy
    call; None for any other space.  A simplex's number is its position in
    `X.elements`, and level N gets degeneracy tables into level N + 1 when
    top is true.  The build lists no level of X or of its base: τ is called
    on the base's simplices as `itertools.product` makes them, one at a
    time, in the order of the base's listing.

    The formula stands in for X's maps only while they and its listing
    are the class's own, none of them set on the instance, and its group
    is marked `constant` (for X ×_τ Y, its fibre and its base's group).
    It reads the group's mult and neutral, the action and τ through
    calls: |G|² mult calls and |Y|·|H| act calls (H the group τ lands in)
    per level they are read at, and one τ call per base simplex
    (docs/DECISIONS.md, section 14)."""
    from .simplicial import ClassifyingSpace, TwistedCartesianProduct

    W, ny, act = X, 1, None
    if _intact(X, TwistedCartesianProduct) and X.Y.constant:
        W, ys, hs = X.X, X.Y.elements(0), X.tau.target.elements(0)
        if hs is None or any(X.Y.elements(n) != ys for n in range(N + 1)):
            return None
        ny, act = len(ys), X.act
    G = W.G if _intact(W, ClassifyingSpace) and W.G.constant else None
    if G is None or any(G.elements(k) != G.elements(0) for k in range(N)):
        return None
    gs = G.elements(0)
    g = len(gs)
    try:
        merge = [[gs.index(G.mult(k, b, a)) for a, b in product(gs, gs)] for k in range(N - 1)]
        unit = [gs.index(G.neutral(j)) for j in range(N + 1)]
        # twist[m][t][py]: act(m, y, h) for y, h at positions py, t, less py
        twist = [[array("i", (ys.index(act(m, y, h)) - py for py, y in enumerate(ys)))
                  for h in hs] for m in range(N)] if act else None
        # the numbers of the largest level a table points into
        ramp = array("i", range(g ** (N + 1 if top else N) * ny))
        levels = []
        for n in range(N + 1):
            faces = _wbar_faces(n, g, ny, merge, ramp) if n else []
            if n and act:
                # τ of the base's simplices, made one at a time in its listing order
                ts = map(hs.index, map(X.tau, repeat(n), product(gs, repeat=n)))
                shifts = chain.from_iterable(map(twist[n - 1].__getitem__, ts))
                faces[0] = array("i", map(add, faces[0], shifts))
            degens = _wbar_degens(n, g, ny, unit, ramp) if top or n < N else []
            levels.append(Level(g ** n * ny, faces, degens, partial(X.elements, n), ramp))
    except ValueError:  # a product, action or τ value outside the listed group
        return None
    # only level N's degeneracies point past level N: the ramp that the
    # tables and levels keep numbers level N, cut in place
    del ramp[g ** N * ny:]
    return levels


def extra_degeneracy(X, levels):
    """(h, v) for X = W̄G ×_ν G with `levels` its formula levels 0..N:
    h[n], n < N, numbers h((a_0..a_{n-1}), y) = ((a_0..a_{n-1}, y), e) in
    level n + 1, and v numbers the vertex ((), e).  By digits,
    h(p) = p·|G| + pos(e).  None unless X's fibre is its base's group.

    Nothing here is trusted: `_simplicial_identities.by_contraction` checks
    that h is an extra degeneracy (docs/DECISIONS.md, sections 4 and 14)."""
    from .simplicial import TwistedCartesianProduct

    if not (_intact(X, TwistedCartesianProduct) and X.Y is X.X.G):
        return None
    ys = X.Y.elements(0)
    ny, v = len(ys), ys.index(X.Y.neutral(0))
    return [_affine(level.size, 1, ny, 1, [v], level.ramp) for level in levels[:-1]], v


def _intact(X, cls) -> bool:
    """X is a cls with no face, degeneracy or elements set on the instance,
    so its maps and listing are the class's own."""
    return type(X) is cls and not {"face", "degeneracy", "elements"} & vars(X).keys()


def _wbar_faces(n: int, g: int, t: int, merge, ramp):
    """d_0..d_n of level n of W̄G, |G| = g, a simplex's number followed by
    t trailing positions (a fibre coordinate): d_0 drops the last digit,
    d_n the first, and d_i merges digits j - 1, j (j = n - i) into
    merge[j - 1] of them."""
    zeros = [0] * g
    inner = (_affine(g ** (n - i - 1), g * g, g, g ** (i - 1) * t, merge[n - i - 1], ramp)
             for i in range(1, n))
    return [_affine(g ** (n - 1), g, 1, t, zeros, ramp), *inner,
            _affine(1, g, 1, g ** (n - 1) * t, zeros, ramp)]


def _wbar_degens(n: int, g: int, t: int, unit, ramp):
    """s_0..s_n of level n of W̄G, as `_wbar_faces`: s_i inserts the digit
    unit[j] of the neutral element at digit j = n - i."""
    return [_affine(g ** (n - i), 1, g, g ** i * t, [unit[n - i]], ramp) for i in range(n + 1)]


class _Table(array):
    """An `_affine` table, with the arguments it was copied by."""
    __slots__ = ("args",)


def _affine(A: int, B: int, C: int, L: int, f, ramp):
    """The table of a level map that rewrites one window of digits by f and
    keeps those before and after it: p = (P·B + w)·L + T goes to
    (P·C + f[w])·L + T, for P < A, w < B and T < L.

    Its values are `_gather`ed out of ramp, array('i', range(k)) for some
    k >= A·C·L, so no entry costs a Python int of its own.  The table, an
    exact-length copy, keeps its arguments as `args`, for `composite`."""
    table = _Table("i", _gather(A, B, C, L, f, ramp))
    table.args = A, B, C, L, f, ramp
    return table


def _gather(A: int, B: int, C: int, L: int, f, a):
    """The array of a[(P·C + f[w])·L + T] at row p = (P·B + w)·L + T: one
    slice of a per (P, w) when A <= L, else one strided slice per (w, T),
    into an array made to size, so that no allocation grows piece by
    piece."""
    table = array("i", [0]) * (A * B * L)
    if A <= L:
        for k, (P, w) in enumerate(product(range(A), range(B))):
            q = (P * C + f[w]) * L
            table[k * L:(k + 1) * L] = a[q:q + L]
        return table
    for w, T in product(range(B), range(L)):
        q = f[w] * L + T
        table[w * L + T::B * L] = a[q:q + A * C * L:C * L]
    return table


def composite(a, s):
    """a∘s, the array of a[s[k]] for every row k of s, when a is an array
    long enough and s is a `range` or an `_affine` table that still equals
    its arguments' gather of the ramp; otherwise None.

    Such a table is a copy of ramp slices, and ramp[q] = q, so a∘s takes
    the same slices out of a: in C, with no Python int per row.  s is
    compared with its arguments' gather on every call, and that gather is
    freed before a's is made, so an entry edited after the build makes
    this None, never a composite of the old table (docs/DECISIONS.md,
    section 12)."""
    if not isinstance(a, array):
        return None
    if type(s) is range:
        return a[s.start:s.stop:s.step] if s.stop <= len(a) else None
    args = getattr(s, "args", None)
    if args is None or min(len(a), len(args[-1])) < args[0] * args[2] * args[3] or s != _gather(*args):
        return None
    return _gather(*args[:-1], a)
