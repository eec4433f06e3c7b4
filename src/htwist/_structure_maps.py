"""Structure maps on graded bases, held by basis index: `Action` for a map
X_p ⊗ Y_q -> X_{p+q} (a product or a module action) and `Coaction` for a
map M_n -> ⊕ X_p ⊗ Y_{n-p} (a coproduct or a comodule coaction).  Calling
one reads the same map by name, the view for reports, io_json and the test
oracles; a map given by name is read by index through the bases
(docs/DECISIONS.md, section 8).
"""

from __future__ import annotations

from .complexes import ChainComplex


class Action:
    """A map X_p ⊗ Y_q -> X_{p+q} on basis elements, held by index:
    ``rows(p, i, q, j)`` lists the (row, coeff) of X_p[i]·Y_q[j] in
    X_{p+q}, each row once.  Products (X = Y the algebra) and module
    actions (X the carrier, Y the algebra, the carrier element first on
    either side) are Actions.  Calling one, ``act(p, x, q, y)``, reads the
    same map by name, {name: coeff}: the view for reports, io_json and the
    test oracles (docs/DECISIONS.md, section 8)."""

    __slots__ = ("rows", "X", "Y")

    def __init__(self, rows, X: ChainComplex, Y: ChainComplex):
        self.rows, self.X, self.Y = rows, X, Y

    def __call__(self, p: int, x: str, q: int, y: str) -> dict[str, object]:
        names = self.X.basis.names(p + q)
        return {names[r]: v for r, v in self.rows(p, self.X.basis.index(p, x), q, self.Y.basis.index(q, y))}


class _Unital(Action):
    """An Action whose unit acts strictly, by name as by index: nothing of
    degree above ``top`` is formed, a degree-0 factor of Y is the identity
    when it is ``unit`` and 0 otherwise, and with ``both`` (a product) the
    same holds for a degree-0 factor of X, asked first.  ``inner`` sees only
    factors of positive degree."""

    __slots__ = ("unit", "top", "both")

    def __init__(self, inner, X: ChainComplex, Y: ChainComplex, unit: str, top: int, both: bool):
        one, xnames, ynames = X.ring.one, X.basis.names, Y.basis.names

        def rows(p, i, q, j):
            if p + q > top:
                return []
            if both and p == 0:
                return [(j, one)] if xnames(0)[i] == unit else []
            if q == 0:
                return [(i, one)] if ynames(0)[j] == unit else []
            return inner(p, i, q, j)

        super().__init__(rows, X, Y)
        self.unit, self.top, self.both = unit, top, both

    def __call__(self, p, x, q, y):
        if p + q > self.top:
            return {}
        if self.both and p == 0:
            return {y: self.X.ring.one} if x == self.unit else {}
        if q == 0:
            return {x: self.X.ring.one} if y == self.unit else {}
        return super().__call__(p, x, q, y)


def _rows_by_name(fn, X: ChainComplex, Y: ChainComplex):
    """The ``rows`` of a map given by name, fn(p, x, q, y) -> {name of
    X_{p+q}: coeff}, read through the bases."""
    xnames, ynames, index = X.basis.names, Y.basis.names, X.basis.index
    return lambda p, i, q, j: [(index(p + q, r), v) for r, v in fn(p, xnames(p)[i], q, ynames(q)[j]).items()]


class Coaction:
    """A map M_n -> ⊕_p X_p ⊗ Y_{n-p} on basis elements, held by index:
    ``rows(n, j)`` lists (p, i, k, coeff) for each term coeff·X_p[i] ⊗
    Y_{n-p}[k] of the image of M_n[j].  Coproducts (M = X = Y the
    coalgebra) and left and right coactions are Coactions.  Calling one,
    ``coact(n, m)``, reads it by name, [((p, x), (n - p, y), coeff)]."""

    __slots__ = ("rows", "M", "X", "Y")

    def __init__(self, rows, M: ChainComplex, X: ChainComplex, Y: ChainComplex):
        self.rows, self.M, self.X, self.Y = rows, M, X, Y

    def __call__(self, n: int, m: str) -> list:
        xnames, ynames = self.X.basis.names, self.Y.basis.names
        return [((p, xnames(p)[i]), (n - p, ynames(n - p)[k]), v)
                for p, i, k, v in self.rows(n, self.M.basis.index(n, m))]


def _corows_by_name(fn, M: ChainComplex, X: ChainComplex, Y: ChainComplex):
    """The ``rows`` of a coaction given by name, fn(n, m) -> [((p, x), (n - p,
    y), coeff)], read through the bases."""
    mnames, xindex, yindex = M.basis.names, X.basis.index, Y.basis.index
    return lambda n, j: [(p, xindex(p, x), yindex(q, y), v) for (p, x), (q, y), v in fn(n, mnames(n)[j])]
