"""Small complexes the tests build on: the ground ring as a complex and the
direct sum of two complexes; and (co)algebras whose structure a test gives
by name."""

from htwist._structure_maps import Action, Coaction, _corows_by_name, _rows_by_name
from htwist.complexes import ChainComplex, GradedBasis, RingMismatch
from htwist.hopf import ChainAlgebra, ChainCoalgebra
from htwist.rings import Ring
from htwist.sparse import SparseMatrix


def algebra_by_name(X: ChainComplex, unit: str, product, name: str = "") -> ChainAlgebra:
    """The algebra on X whose product is given by name, product(|a|, a, |b|,
    b) -> {name: coeff}, read by index through X's basis."""
    return ChainAlgebra(X, unit, Action(_rows_by_name(product, X, X), X, X), name)


def coalgebra_by_name(X: ChainComplex, coaug: str, coproduct, name: str = "") -> ChainCoalgebra:
    """The coalgebra on X whose full coproduct is given by name, coproduct(|c|,
    c) -> [((|c1|, c1), (|c2|, c2), coeff)], read by index through X's basis."""
    return ChainCoalgebra(X, coaug, Coaction(_corows_by_name(coproduct, X, X, X), X, X, X), name)


def ground_complex(ring: Ring, truncation: int = 0) -> ChainComplex:
    basis = GradedBasis(truncation)
    basis.add(0, "1")
    return ChainComplex(ring, basis)


def direct_sum(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """X ⊕ Y through the lower truncation, summands named L(x) and R(y), the
    X block first in each degree."""
    if X.ring != Y.ring:
        raise RingMismatch(f"{X.ring} vs {Y.ring}")
    N = min(X.truncation, Y.truncation)
    basis = GradedBasis(N)
    for n in range(N + 1):
        for a in X.basis.names(n):
            basis.add(n, f"L({a})")
        for b in Y.basis.names(n):
            basis.add(n, f"R({b})")
    Z = ChainComplex(X.ring, basis)
    for n in range(1, N + 1):
        Z.diff[n] = d = SparseMatrix(X.ring, basis.dim(n - 1), basis.dim(n))
        d.entries = dict(X.dmat(n).entries)
        top, left = X.basis.dim(n - 1), X.basis.dim(n)
        d.entries.update(((top + i, left + j), v) for (i, j), v in Y.dmat(n).entries.items())
    return Z
