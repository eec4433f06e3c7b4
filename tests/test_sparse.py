import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htwist import sparse
from htwist.rings import ZZ, QQ, GF
from htwist.sparse import (
    SparseMatrix,
    field_kernel_basis,
    field_solve,
    invariant_factors,
    kernel_basis,
    reduce_differential,
    smith_normal_form,
    solve,
    z_kernel_basis,
    z_solve,
)
from quasi_iso_oracle import is_surjective_onto_cokernel_zero


def mat(rows, ring=ZZ):
    return SparseMatrix.from_rows(ring, rows)


def rank(M):
    """The rank of M, from one elimination with no rows deleted."""
    return reduce_differential(M, frozenset())[0]


def is_unimodular(U):
    # determinant +-1 via SNF of U itself: all invariant factors 1 and full rank
    facs = invariant_factors(U)
    return len(facs) == U.nrows == U.ncols and all(f == 1 for f in facs)


def test_snf_spec_examples():
    # [[2,4],[6,8]] -> diag(2,4): derived by independent row/column reduction
    D, U, V = smith_normal_form(mat([[2, 4], [6, 8]]))
    assert [D[0, 0], D[1, 1]] == [2, 4]
    assert U @ mat([[2, 4], [6, 8]]) @ V == D
    # identity stays identity
    D, _, _ = smith_normal_form(mat([[1, 0], [0, 1]]))
    assert [D[0, 0], D[1, 1]] == [1, 1]
    # zero matrix
    D, _, _ = smith_normal_form(mat([[0]]))
    assert D.is_zero()


def test_snf_divisibility_and_transforms():
    M = mat([[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]])
    D, U, V = smith_normal_form(M)
    assert U @ M @ V == D
    facs = invariant_factors(M)
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    assert is_unimodular(U) and is_unimodular(V)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
def test_snf_random_matches_sympy(n, m, seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
    M = mat(rows)
    D, U, V = smith_normal_form(M)
    assert U @ M @ V == D
    assert is_unimodular(U) and is_unimodular(V)
    ours = invariant_factors(M)
    S = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    theirs = sorted(abs(S[i, i]) for i in range(min(n, m)) if S[i, i] != 0)
    assert sorted(ours) == theirs


def test_z_kernel_and_solve():
    M = mat([[2, 4], [6, 8]])
    K = z_kernel_basis(M)
    assert K.ncols == 0
    M2 = mat([[1, 2, 3]])
    K2 = z_kernel_basis(M2)
    assert K2.ncols == 2
    assert (M2 @ K2).is_zero()
    # exact solve: 2x = 4 solvable, 2x = 3 not
    assert z_solve(mat([[2]]), mat([[4]])) == mat([[2]])
    assert z_solve(mat([[2]]), mat([[3]])) is None


def test_field_ops():
    M = mat([[2, 4], [6, 8]], QQ)
    assert rank(M) == 2
    K = field_kernel_basis(mat([[1, 2, 3]], QQ))
    assert K.ncols == 2
    X = field_solve(M, SparseMatrix.identity(QQ, 2))
    assert M @ X == SparseMatrix.identity(QQ, 2)
    M5 = mat([[2, 4], [6, 8]], GF(5))
    # det = -8 = 2 mod 5, invertible
    assert rank(M5) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_kernel_is_saturated_and_solve_consistent(n, m, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
    M = mat(rows)
    K = kernel_basis(M)
    assert (M @ K).is_zero()
    assert rank(K) == K.ncols  # independent columns
    # rank-nullity over Q agrees
    MQ = mat(rows, QQ)
    assert K.ncols == m - rank(MQ)
    # anything M maps out is solvable back
    X = SparseMatrix.from_rows(ZZ, [[rng.randint(-3, 3)] for _ in range(m)])
    B = M @ X
    Y = solve(M, B)
    assert Y is not None and M @ Y == B


def test_cokernel_surjectivity():
    assert is_surjective_onto_cokernel_zero(mat([[1, 0], [0, 1]]))
    assert not is_surjective_onto_cokernel_zero(mat([[2, 0], [0, 1]]))
    assert is_surjective_onto_cokernel_zero(mat([[2, 0], [0, 1]], QQ))
    assert not is_surjective_onto_cokernel_zero(mat([[1, 1], [1, 1]], QQ))


# ---------------------------------------------------------------------
# sympy oracle on sparse matrices shaped like boundary matrices: 1-15 rows
# and columns, mostly 0 and ±1, with a few larger entries for torsion.
# ---------------------------------------------------------------------

ENTRY = st.sampled_from([0] * 8 + [1, -1] * 3 + [2, -2, 3])


@st.composite
def sparse_rows(draw, max_dim=15, entry=ENTRY):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    return draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))


def sympy_det(M):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows = [[sympy.ZZ(int(M[i, j])) for j in range(M.ncols)] for i in range(M.nrows)]
    return DomainMatrix(rows, (M.nrows, M.ncols), sympy.ZZ).det()


@settings(max_examples=80, deadline=None)
@given(sparse_rows())
def test_sparse_snf_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    M = mat(rows)
    S = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    theirs = sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0)
    facs = invariant_factors(M)
    assert facs == theirs
    assert all(b % a == 0 for a, b in zip(facs, facs[1:]))
    assert reduce_differential(M, frozenset())[:2] == (len(theirs), [f for f in theirs if f > 1])
    D, U, V = smith_normal_form(M)
    assert U @ M @ V == D
    assert abs(sympy_det(U)) == 1 and abs(sympy_det(V)) == 1
    assert [D[i, i] for i in range(len(facs))] == facs and len(D.entries) == len(facs)
    assert is_surjective_onto_cokernel_zero(M) == (facs == [1] * M.nrows)


@settings(max_examples=60, deadline=None)
@given(sparse_rows(), st.integers(0, 10**6))
def test_sparse_z_kernel_and_solve(rows, seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    M = mat(rows)
    K = z_kernel_basis(M)
    assert (M @ K).is_zero()
    assert K.ncols == M.ncols - sympy.Matrix(rows).rank()
    if K.ncols:  # saturated: every invariant factor of K is 1
        S = sympy_snf(sympy.Matrix(K.nrows, K.ncols, lambda i, j: K[i, j]), domain=sympy.ZZ)
        assert [abs(int(S[i, i])) for i in range(K.ncols)] == [1] * K.ncols
    rng = random.Random(seed)
    X0 = SparseMatrix.from_rows(ZZ, [[rng.choice([0, 0, 1, -1, 2]) for _ in range(2)]
                                     for _ in range(M.ncols)])
    B = M @ X0
    X = z_solve(M, B)
    assert X is not None and M @ X == B
    # 2B + e_0 is solvable iff some integer vector maps to it; sympy decides
    # via the invariant factors of [M | b] against those of M
    b = SparseMatrix.from_rows(ZZ, [[2 * B[i, 0] + (i == 0)] for i in range(M.nrows)])
    ext = sympy.Matrix([r + [b[i, 0]] for i, r in enumerate(rows)])
    diag = lambda A: sorted(abs(int(A[i, i])) for i in range(min(A.shape)) if A[i, i] != 0)
    solvable = diag(sympy_snf(ext, domain=sympy.ZZ)) == diag(sympy_snf(sympy.Matrix(rows),
                                                                       domain=sympy.ZZ))
    Y = z_solve(M, b)
    assert (Y is not None) == solvable
    if Y is not None:
        assert M @ Y == b


def sympy_rank(rows, ring):
    sympy = pytest.importorskip("sympy")
    if ring == QQ:
        return sympy.Matrix(rows).rank()
    from sympy.polys.matrices import DomainMatrix

    F = sympy.GF(ring.p)
    return DomainMatrix([[F(v) for v in r] for r in rows], (len(rows), len(rows[0])), F).rank()


@settings(max_examples=60, deadline=None)
@given(sparse_rows(), st.sampled_from([QQ, GF(2), GF(3), GF(7)]), st.integers(0, 10**6))
def test_sparse_field_ops_match_sympy(rows, ring, seed):
    M = mat(rows, ring)
    r = sympy_rank(rows, ring)
    assert rank(M) == r
    K = field_kernel_basis(M)
    assert K.ncols == M.ncols - r
    assert (M @ K).is_zero()
    assert rank(K) == K.ncols
    rng = random.Random(seed)
    B = SparseMatrix.from_rows(ring, [[rng.choice([0, 0, 1, -1, 2]) for _ in range(3)]
                                      for _ in range(M.nrows)])
    consistent = sympy_rank([r_ + [B[i, j] for j in range(3)] for i, r_ in enumerate(rows)],
                            ring) == r
    X = field_solve(M, B)
    assert (X is not None) == consistent
    if X is not None:
        assert M @ X == B
    X0 = SparseMatrix.from_rows(ring, [[rng.choice([0, 1, -1])] for _ in range(M.ncols)])
    Y = field_solve(M, M @ X0)
    assert Y is not None and M @ Y == M @ X0


# ---------------------------------------------------------------------
# Canonical Q values (an int when integral) against raw Fraction entries,
# the representation the field kernels also accept.
# ---------------------------------------------------------------------

Q_ENTRY = st.sampled_from([0] * 8 + [1, -1] * 3 + [2, -3, Fraction(1, 2), Fraction(-2, 3)])


def canonical_q_entries(M):
    """Every entry an int when integral, a Fraction only otherwise."""
    return all(type(v) is int or v.denominator != 1 for v in M.entries.values())


def raw_fraction_matrix(rows):
    """Q matrix holding every entry as a Fraction, bypassing QQ.of."""
    M = SparseMatrix(QQ, len(rows), len(rows[0]))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            M[i, j] = Fraction(v)
    return M


@settings(max_examples=60, deadline=None)
@given(sparse_rows(10, Q_ENTRY), st.integers(0, 10**6))
def test_field_ops_same_on_canonical_and_raw_fraction_entries(rows, seed):
    M, F = mat(rows, QQ), raw_fraction_matrix(rows)
    assert all(type(v) is Fraction for v in F.entries.values())
    assert rank(M) == rank(F)
    K = field_kernel_basis(M)
    assert K == field_kernel_basis(F) and canonical_q_entries(K)
    rng = random.Random(seed)
    brows = [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)]) for _ in range(2)]
             for _ in range(len(rows))]
    X, Y = field_solve(M, mat(brows, QQ)), field_solve(F, raw_fraction_matrix(brows))
    assert (X is None) == (Y is None)
    if X is not None:
        assert X == Y and canonical_q_entries(X) and canonical_q_entries(Y)


def test_integer_q_elimination_stays_on_ints(monkeypatch):
    # node-edge incidence matrix of a directed graph on 4 vertices: integer
    # valued with ±1 pivots, like the fixtures' differentials; row 0 leads
    # with -1 and rows 1 and 2 do after reduction, so their pivot rows are
    # rescaled by inv(-1)
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)]
    rows = [[-1 if v == a else 1 if v == b else 0 for a, b in edges] for v in range(4)]
    M = mat(rows, QQ)
    assert type(QQ.inv(-1)) is int
    seen = []
    forward = sparse._field_forward

    def spy(rows, R):
        pivots = forward(rows, R)
        seen.extend(v for row in pivots.values() for v in row.values())
        return pivots

    monkeypatch.setattr(sparse, "_field_forward", spy)
    assert rank(M) == 3
    K = field_kernel_basis(M)
    assert K.ncols == 3 and (M @ K).is_zero()
    assert seen and all(type(v) is int for v in seen)
    assert all(type(v) is int for v in K.entries.values())


def test_kernel_and_solution_entries_are_canonical():
    # back-substitution gives 3/2 - 1/2 * 1 = Fraction(1, 1); it is returned as 1
    M = mat([[2, 1, 3], [0, 1, 1]], QQ)
    K = field_kernel_basis(M)
    assert K == mat([[-1], [-1], [1]], QQ) and canonical_q_entries(K)
    X = field_solve(M, mat([[3], [1]], QQ))
    assert X == mat([[1], [1], [0]], QQ) and canonical_q_entries(X)
