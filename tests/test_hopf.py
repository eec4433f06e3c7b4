from htwist.fixtures import (
    acyclic_algebra,
    algebra_corpus,
    coacyclic_coalgebra,
    coalgebra_corpus,
    dual_truncated_polynomial,
    exterior,
    exterior_pair,
    noncommutative_algebra,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.complexes import verify_differential
from complex_helpers import algebra_by_name
from htwist.hopf import (
    _coaction_table,
    tensor_algebra_product,
    tensor_coalgebra_product,
    verify_algebra,
    verify_coalgebra,
)
from htwist.rings import GF, QQ, ZZ


def test_exterior_passes():
    ok, w = verify_algebra(exterior(QQ, 6))
    assert ok, w


def test_truncated_polynomial_passes():
    ok, w = verify_algebra(truncated_polynomial(QQ, 8))
    assert ok, w


def test_corrupted_koszul_sign_fails_leibniz():
    # tensor square with one wrong Koszul sign in μ must fail the Leibniz check
    T = tensor_algebra_product(exterior(QQ, 6, "x"), acyclic_algebra(QQ, 6), through=6)
    ok, _ = verify_algebra(T)
    assert ok
    # correct value of (1⊗z)·(x⊗1) is (-1)^{|z||x|} x⊗z = -x⊗z; drop the sign
    def product(da, a, db, b):
        return {"x⊗z": 1} if (da, a, db, b) == (3, "1⊗z", 1, "x⊗1") else T.product(da, a, db, b)

    ok, w = verify_algebra(algebra_by_name(T.complex, T.unit, product, T.name))
    assert not ok
    assert any(x["axiom"] == "Leibniz" for x in w)


def test_sphere_coalgebra_passes():
    ok, w = verify_coalgebra(sphere_coalgebra(QQ, 6, 2))
    assert ok, w


def test_coalgebra_one_connected_guard():
    C = sphere_coalgebra(QQ, 6, 2)
    C.complex.basis.add(1, "bad")
    ok, w = verify_coalgebra(C)
    assert not ok
    assert any(x["axiom"] == "1-connected" for x in w)


def test_dual_truncated_polynomial_passes():
    ok, w = verify_coalgebra(dual_truncated_polynomial(QQ, 8))
    assert ok, w


def test_tensor_algebra_koszul_formula():
    T = exterior_pair(QQ, 6)
    # (x⊗1)(1⊗y) = x⊗y ; (1⊗y)(x⊗1) = -x⊗y   [|x| = |y| = 1]
    assert T.product(1, "x⊗1", 1, "1⊗y") == {"x⊗y": QQ.one}
    assert T.product(1, "1⊗y", 1, "x⊗1") == {"x⊗y": QQ.of(-1)}
    ok, w = verify_algebra(T)
    assert ok, w


def test_tensor_coalgebra_dual_triple():
    T = tensor_coalgebra_product(sphere_coalgebra(QQ, 6, 2), sphere_coalgebra(QQ, 6, 3), through=6)
    ok, w = verify_coalgebra(T)
    assert ok, w
    red = T.reduced_coproduct(5, "c2⊗c3")
    assert sorted((a, b) for (_, a), (_, b), _ in red) == [("1⊗c3", "c2⊗1"), ("c2⊗1", "1⊗c3")]


def test_full_corpus_axioms():
    for A in algebra_corpus(QQ, 6):
        ok, w = verify_algebra(A)
        assert ok, (A.name, w)
        okd, wd = verify_differential(A.complex)
        assert okd, (A.name, wd)
    for C in coalgebra_corpus(QQ, 6):
        ok, w = verify_coalgebra(C)
        assert ok, (C.name, w)


def test_aug_of_tensor_is_tensor_of_augs():
    T = exterior_pair(QQ, 5)
    assert T.aug(0, "1⊗1") == QQ.one
    assert T.aug(2, "x⊗y") == QQ.zero


def test_acyclic_and_coacyclic_fixtures():
    ok, _ = verify_algebra(acyclic_algebra(QQ, 6))
    assert ok
    ok, _ = verify_coalgebra(coacyclic_coalgebra(QQ, 6))
    assert ok
    ok, _ = verify_algebra(noncommutative_algebra(QQ, 6))
    assert ok


def test_coaction_table_sums_a_term_listed_twice():
    # λ(c2) listing 1⊗c2 twice: over F_2 the two sum to 0, which is no entry
    for R, twice in ((GF(2), None), (QQ, 2)):
        X = sphere_coalgebra(R, 4, 2).complex
        table = _coaction_table(lambda n, j: [(0, 0, j, R.one), (0, 0, j, R.one)], X, X, 2)
        assert table.is_zero() == (twice is None)
        assert list(table.entries.values()) == ([] if twice is None else [twice])
