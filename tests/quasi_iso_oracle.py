"""Reference quasi-isomorphism oracle, kept for the tests only.

This is the oracle `htwist.complexes.is_quasi_iso_through` used before it
decided on the mapping cone.  In each degree n it compares H_n of source
and target from ranks and invariant factors, then certifies that the
induced map H_n(f) is onto: it takes kernel bases K_X, K_Y of d_n, solves
K_Y W = f K_X and K_Y R = d_{n+1}, and asks whether [W | R] has zero
cokernel.  Equal invariants plus a surjection give an isomorphism, since
finitely generated modules are Hopfian.  It shares no code path with the
cone oracle beyond the eliminations in `htwist.sparse`.
"""

from homology_oracle import rank_and_torsion
from htwist.complexes import ChainComplex, ChainMap, TruncationTooLow
from htwist.sparse import SparseMatrix, kernel_basis, reduce_differential, solve


class NotAChainMap(Exception):
    pass


def hstack(blocks) -> SparseMatrix:
    blocks = list(blocks)
    nr = blocks[0].nrows
    assert all(b.nrows == nr for b in blocks)
    out = SparseMatrix(blocks[0].ring, nr, sum(b.ncols for b in blocks))
    off = 0
    for b in blocks:
        for (i, j), v in b.entries.items():
            out[i, j + off] = v
        off += b.ncols
    return out


def is_surjective_onto_cokernel_zero(M: SparseMatrix) -> bool:
    """True iff coker(M) = 0, i.e. M is surjective as a map of free modules."""
    if M.nrows == 0:
        return True
    rank, torsion, _ = reduce_differential(M, frozenset())
    return rank == M.nrows and not torsion


def homology_in_degree(X: ChainComplex, n: int):
    if n + 1 > X.truncation:
        raise TruncationTooLow(f"degree {n} needs d_{n + 1}")
    rn, _ = rank_and_torsion(X, n)
    rn1, torsion = rank_and_torsion(X, n + 1)
    return (X.basis.dim(n) - rn - rn1, torsion)


def _induced_surjective(f: ChainMap, n: int) -> bool:
    X, Y = f.source, f.target
    KX = kernel_basis(X.dmat(n))
    KY = kernel_basis(Y.dmat(n))
    fK = f.mat(n) @ KX
    W = solve(KY, fK)
    if W is None:  # cycles not carried to cycles: not even well defined
        return False
    RY = solve(KY, Y.dmat(n + 1))
    assert RY is not None
    if KY.ncols == 0:
        return True
    return is_surjective_onto_cokernel_zero(hstack([W, RY]))


def is_quasi_iso_through(f: ChainMap, through: int, check_chain_map: bool = True):
    """Induced iso on H_n for n <= through?  Returns (ok, per-degree report)."""
    if check_chain_map:
        ok, bad = f.is_chain_map(through)
        if not ok:
            raise NotAChainMap(f"does not commute with d at degree {bad}")
    X, Y = f.source, f.target
    report = {}
    all_ok = True
    for n in range(through + 1):
        hx = homology_in_degree(X, n)
        hy = homology_in_degree(Y, n)
        same = hx == hy
        surj = _induced_surjective(f, n)
        report[n] = {"source": hx, "target": hy, "match": same, "surjective": surj}
        all_ok = all_ok and same and surj
    return all_ok, report


def verdict(f: ChainMap, through: int) -> bool:
    """The reference verdict; a map that is not a chain map is not a
    quasi-isomorphism."""
    try:
        return is_quasi_iso_through(f, through)[0]
    except NotAChainMap:
        return False
