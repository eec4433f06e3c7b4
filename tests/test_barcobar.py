from fractions import Fraction

import pytest

from htwist.barcobar import (
    EMPTY_NAME,
    bar,
    bar_map,
    bar_word_name,
    cobar,
    cobar_map,
    cobar_word_name,
    counit_map,
    is_algebra_map,
    is_coalgebra_map,
    NotCommutative,
    shuffle_product_bar,
    unit_map,
)
from htwist.complexes import ChainMap, homology, is_quasi_iso_through, verify_differential
from htwist.fixtures import (
    algebra_corpus,
    coalgebra_corpus,
    dual_truncated_polynomial,
    exterior,
    exterior_pair,
    noncommutative_algebra,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.hopf import verify_algebra, verify_coalgebra
from htwist.rings import QQ, ZZ
from htwist.twisting import couniversal_cochain, universal_cochain, verify_twisting_cochain
from htwist.barcobar import alpha_t, beta_t


def test_bar_exterior_structure():
    A = exterior(QQ, 8)
    B = bar(A, 8)
    # one word (sx)^k in each even degree 2k, zero differential (x^2 = 0)
    assert B.basis(2) == [bar_word_name(((1, "x"),))]
    assert B.complex.basis.dim(4) == 1 and B.complex.basis.dim(3) == 0
    assert all(B.complex.dmat(n).is_zero() for n in range(1, 9))
    okc, w = verify_coalgebra(B)
    assert okc, w
    H = homology(B.complex, 6)
    for n in range(7):
        assert H.by_degree[n] == ((1, []) if n % 2 == 0 else (0, []))


def test_bar_truncated_polynomial_multiplication_term():
    A = truncated_polynomial(QQ, 8)
    B = bar(A, 8)
    w = bar_word_name(((2, "x"), (2, "x")))
    d = B.complex.d_of(6, w)
    # d(sx|sx) = ± s(x^2), nonzero
    assert list(d.keys()) == [bar_word_name(((4, "x^2"),))]
    assert d[bar_word_name(((4, "x^2"),))] in (QQ.of(1), QQ.of(-1))
    ok, wit = verify_differential(B.complex)
    assert ok, wit
    okc, wit = verify_coalgebra(B)
    assert okc, wit


def test_bar_of_ground_is_ground():
    from htwist.complexes import ChainComplex, GradedBasis
    from htwist.fixtures import table_product
    from htwist.hopf import ChainAlgebra

    X = ChainComplex(QQ, GradedBasis(6, {0: ["1"]}))
    k = ChainAlgebra(X, "1", table_product(X, {}), name="k")
    B = bar(k, 6)
    assert B.complex.basis.total_dim() == 1
    assert B.basis(0) == [EMPTY_NAME]


def test_cobar_sphere2():
    C = sphere_coalgebra(QQ, 8, 2)
    O = cobar(C, 8)
    ok, w = verify_differential(O.complex)
    assert ok, w
    # tensor algebra on one degree-1 generator, d = 0
    H = homology(O.complex, 6)
    for n in range(7):
        assert H.by_degree[n] == (1, [])
    oka, w = verify_algebra(O)
    assert oka, w


def test_cobar_sphere3():
    C = sphere_coalgebra(QQ, 8, 3)
    O = cobar(C, 8)
    H = homology(O.complex, 6)
    for n in range(7):
        expected = (1, []) if n % 2 == 0 else (0, [])
        assert H.by_degree[n] == expected


def test_cobar_of_trivial_coalgebra():
    from htwist.complexes import ChainComplex, GradedBasis
    from htwist.fixtures import table_coproduct
    from htwist.hopf import ChainCoalgebra

    X = ChainComplex(QQ, GradedBasis(6, {0: ["1"]}))
    k = ChainCoalgebra(X, "1", table_coproduct(X, "1", {}), name="k")
    O = cobar(k, 6)
    assert O.complex.basis.total_dim() == 1


def test_d_squared_zero_corpus_truncation_8():
    for A in algebra_corpus(QQ, 8):
        B = bar(A, 8)
        ok, w = verify_differential(B.complex)
        assert ok, (A.name, w)
    for C in coalgebra_corpus(QQ, 8):
        O = cobar(C, 8)
        ok, w = verify_differential(O.complex)
        assert ok, (C.name, w)


def test_word_length_filtration():
    C = dual_truncated_polynomial(QQ, 8)
    O = cobar(C, 8)
    for n in range(1, 9):
        for name in O.basis(n):
            k = len(O.complex.basis.keys[name])
            for name2, v in O.complex.d_of(n, name).items():
                assert len(O.complex.basis.keys[name2]) <= k + 1
    A = truncated_polynomial(QQ, 8)
    B = bar(A, 8)
    for n in range(1, 9):
        for name in B.basis(n):
            k = len(B.complex.basis.keys[name])
            for name2, v in B.complex.d_of(n, name).items():
                assert len(B.complex.basis.keys[name2]) >= k - 1


def test_bar_output_one_connected():
    for A in algebra_corpus(QQ, 6):
        B = bar(A, 6)
        H = homology(B.complex, 1)
        assert H.by_degree[0] == (1, [])
        assert H.by_degree[1] == (0, [])


def test_universal_cochain_mc():
    C = dual_truncated_polynomial(QQ, 8)
    O = cobar(C, 8)
    t = universal_cochain(C, O)
    ok, w = verify_twisting_cochain(t)
    assert ok, w
    # corrupt: drop the degree-4 value; MC then fails on g2 since the
    # quadratic term t(g1)·t(g1) survives
    t.set_value(4, "g2", {})
    ok, wit = verify_twisting_cochain(t)
    assert not ok
    assert wit[0]["element"] == (4, "g2")


def test_couniversal_cochain_mc():
    A = truncated_polynomial(QQ, 8)
    B = bar(A, 8)
    t = couniversal_cochain(B, A)
    ok, w = verify_twisting_cochain(t)
    assert ok, w
    assert t.value(3, bar_word_name(((2, "x"),))) == {"x": QQ.one}
    assert t.value(6, bar_word_name(((2, "x"), (2, "x")))) == {}


def test_alpha_of_universal_is_identity():
    C = dual_truncated_polynomial(QQ, 7)
    O = cobar(C, 7)
    t = universal_cochain(C, O)
    f = alpha_t(t, O, 7)
    ident = ChainMap.identity(O.complex)
    for n in range(8):
        assert f.mat(n) == ident.mat(n)


def test_beta_of_couniversal_is_identity():
    A = exterior_pair(QQ, 6)
    B = bar(A, 6)
    t = couniversal_cochain(B, A)
    g = beta_t(t, B, 6)
    ident = ChainMap.identity(B.complex)
    for n in range(7):
        assert g.mat(n) == ident.mat(n)


def test_unit_map_quasi_iso_and_coalgebra():
    for C in (sphere_coalgebra(QQ, 8, 2), dual_truncated_polynomial(QQ, 8)):
        O = cobar(C, 8)
        BO = bar(O, 8)
        u = unit_map(C, 8, O, BO)
        ok, n = u.is_chain_map()
        assert ok, (C.name, n)
        assert is_coalgebra_map(u, C, BO)
        ok, report = is_quasi_iso_through(u, 6)
        assert ok, report
        # coaugmentation goes to the empty word
        assert u.apply(0, "1") == {EMPTY_NAME: QQ.one}


def test_unit_map_naturality_square():
    # coalgebra self-map of H(S^2) multiplying the generator by k
    C = sphere_coalgebra(QQ, 6, 2)
    g = ChainMap(C.complex, C.complex)
    g.set_entry(0, "1", "1", 1)
    g.set_entry(2, "c2", "c2", 3)
    assert is_coalgebra_map(g, C, C)
    O = cobar(C, 6)
    BO = bar(O, 6)
    u = unit_map(C, 6, O, BO)
    Og = cobar_map(g, O, O)
    BOg = bar_map(Og, BO, BO)
    lhs = BOg.compose(u)
    rhs = u.compose(g)
    for n in range(7):
        assert lhs.mat(n) == rhs.mat(n)


def test_counit_map_quasi_iso_and_examples():
    for A in (exterior(QQ, 6), truncated_polynomial(QQ, 7)):
        B = bar(A, A.truncation)
        OB = cobar(B, A.truncation)
        v = counit_map(A, A.truncation, B, OB)
        ok, _ = v.is_chain_map()
        assert ok
        assert is_algebra_map(v, OB, A)
        ok, report = is_quasi_iso_through(v, 5)
        assert ok, (A.name, report)
    # one-letter cobar word on a one-letter bar word -> the element
    A = exterior(QQ, 6)
    B = bar(A, 6)
    OB = cobar(B, 6)
    v = counit_map(A, 6, B, OB)
    one_letter = cobar_word_name(((2, bar_word_name(((1, "x"),))),))
    assert v.apply(1, one_letter) == {"x": QQ.one}
    # s-1 of a two-letter bar word dies
    two_letter = cobar_word_name(((4, bar_word_name(((1, "x"), (1, "x")))),))
    assert v.apply(3, two_letter) == {}


def test_adjunction_triangles():
    A = exterior(QQ, 6)
    B = bar(A, 6)
    OB = cobar(B, 6)
    v = counit_map(A, 6, B, OB)
    BOB = bar(OB, 6)
    u_on_bar = unit_map(B, 6, OB, BOB)
    Bv = bar_map(v, BOB, B)
    comp = Bv.compose(u_on_bar)
    ident = ChainMap.identity(B.complex)
    for n in range(7):
        assert comp.mat(n) == ident.mat(n)
    # dual triangle on Cobar(C)
    C = sphere_coalgebra(QQ, 6, 2)
    O = cobar(C, 6)
    BO = bar(O, 6)
    u = unit_map(C, 6, O, BO)
    OBO = cobar(BO, 6)
    v_on_cobar = counit_map(O, 6, BO, OBO)
    Ou = cobar_map(u, O, OBO)
    comp2 = v_on_cobar.compose(Ou)
    ident2 = ChainMap.identity(O.complex)
    for n in range(7):
        assert comp2.mat(n) == ident2.mat(n)


def test_factorizations_for_a_fixture_cochain():
    # t := t_Bar on Bar(A); then beta_t = Id and t = t_Bar ∘ beta_t trivially;
    # check the nontrivial one: alpha_t = eps_A ∘ Cobar(beta_t) on fixtures
    A = truncated_polynomial(QQ, 6)
    B = bar(A, 6)
    OB = cobar(B, 6)
    t = couniversal_cochain(B, A)
    al = alpha_t(t, OB, 6)
    be = beta_t(t, B, 6)
    Obeta = cobar_map(be, OB, OB)
    v = counit_map(A, 6, B, OB)
    lhs = al
    rhs = v.compose(Obeta)
    for n in range(7):
        assert lhs.mat(n) == rhs.mat(n)


def test_shuffle_product_bar():
    A = exterior_pair(QQ, 6)
    S = shuffle_product_bar(A, 6)
    x = bar_word_name(((1, "x⊗1"),))
    y = bar_word_name(((1, "1⊗y"),))
    prod = S.product(2, x, 2, y)
    xy = bar_word_name(((1, "x⊗1"), (1, "1⊗y")))
    yx = bar_word_name(((1, "1⊗y"), (1, "x⊗1")))
    # (sx)(sy) = sx|sy + (-1)^{(|x|+1)(|y|+1)} sy|sx with |x| = |y| = 1
    assert prod == {xy: QQ.one, yx: QQ.one}
    # unit, commutativity, associativity, Leibniz: exhaustive through 6
    ok, w = verify_algebra(S)
    assert ok, w
    R = QQ
    for p in range(1, 7):
        for q in range(1, 7 - p):
            for a in S.basis(p):
                for b in S.basis(q):
                    ab = S.product(p, a, q, b)
                    ba = S.product(q, b, p, a)
                    sgn = R.of(-1) if (p * q) % 2 else R.one
                    assert ab == {k: R.mul(sgn, v) for k, v in ba.items()}


def test_shuffle_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        shuffle_product_bar(noncommutative_algebra(QQ, 6), 6)


def test_map_checks_reject_scaled_generators():
    # x -> 2x is a chain map but not multiplicative on k[x]/x^3: f(x·x) = x^2
    # while f(x)·f(x) = 4x^2; dually g1 -> 2 g1 breaks Δ̄(g2) = g1⊗g1
    A = truncated_polynomial(QQ, 8)
    f = ChainMap.identity(A.complex)
    f.set_entry(2, "x", "x", 1)
    assert is_algebra_map(ChainMap.identity(A.complex), A, A)
    assert not is_algebra_map(f, A, A)
    C = dual_truncated_polynomial(QQ, 8)
    g = ChainMap.identity(C.complex)
    g.set_entry(2, "g1", "g1", 1)
    assert is_coalgebra_map(ChainMap.identity(C.complex), C, C)
    assert not is_coalgebra_map(g, C, C)
