"""Reference homology, kept for the tests only.

This is `htwist.complexes.homology` as it was before it pruned settled rows
across degrees: every differential d_n is eliminated in full, on its own,
and H_n is read from the ranks and invariant factors of d_n and d_{n+1}.
It shares with the pruned path only `htwist.sparse.reduce_differential`,
called with no rows deleted, so that each d_n is one full elimination.
"""

from htwist.complexes import ChainComplex, HomologySummary, TruncationTooLow
from htwist.sparse import reduce_differential


def rank_and_torsion(X: ChainComplex, n: int):
    """(rank of d_n, its invariant factors > 1): one elimination of d_n."""
    rank, torsion, _ = reduce_differential(X.dmat(n), frozenset())
    return rank, torsion


def homology(X: ChainComplex, through: int) -> HomologySummary:
    """H_n = ker d_n / im d_{n+1} for n <= through, each d_n eliminated in full."""
    if through >= X.truncation and not (X.truncation == 0 and through == 0):
        raise TruncationTooLow(f"homology through {through} needs d_{through + 1}")
    d = [rank_and_torsion(X, n) for n in range(through + 2)]
    summary = HomologySummary()
    for n in range(through + 1):
        summary.by_degree[n] = (X.basis.dim(n) - d[n][0] - d[n + 1][0], d[n + 1][1])
    return summary
