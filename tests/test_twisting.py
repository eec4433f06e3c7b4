import pytest

from htwist.barcobar import bar, cobar
from htwist.complexes import homology, tensor_complex, verify_differential
from htwist.fixtures import (
    dual_truncated_polynomial,
    exterior,
    exterior_pair,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.rings import QQ, ZZ
from htwist.twisting import (
    NotATwistingCochain,
    TwistingCochain,
    compose_cochain,
    couniversal_cochain,
    self_comodule_right,
    self_module_left,
    twisted_tensor,
    universal_cochain,
    verify_twisting_cochain,
)


def acyclic_bar_total(A, N):
    B = bar(A, N)
    t = couniversal_cochain(B, A)
    P = self_comodule_right(B)
    M = self_module_left(A)
    return twisted_tensor(P, M, t, "comodule-first", N), B, t


def acyclic_cobar_total(C, N):
    O = cobar(C, N)
    t = universal_cochain(C, O)
    P = self_comodule_right(C)
    M = self_module_left(O)
    return twisted_tensor(P, M, t, "comodule-first", N), O, t


def test_zero_cochain_gives_plain_tensor():
    A = exterior(QQ, 6)
    C = sphere_coalgebra(QQ, 6, 2)
    t = TwistingCochain(C, A, name="zero")
    ok, _ = verify_twisting_cochain(t)
    assert ok  # primitive coproduct, zero values: MC holds
    from htwist.twisting import self_comodule_right, self_module_left

    T = twisted_tensor(self_comodule_right(C), self_module_left(A), t, "comodule-first", 6)
    plain = tensor_complex(C.complex, A.complex, 6)
    assert T.complex.basis.by_degree == plain.basis.by_degree
    for n in range(1, 7):
        assert T.complex.dmat(n) == plain.dmat(n)


def test_acyclic_bar_construction():
    T, _, _ = acyclic_bar_total(exterior(QQ, 7), 7)
    ok, w = verify_differential(T.complex)
    assert ok, w
    H = homology(T.complex, 5)
    assert H.by_degree[0] == (1, [])
    for n in range(1, 6):
        assert H.by_degree[n] == (0, []), (n, H.pretty())


def test_acyclic_bar_construction_more_fixtures():
    for A in (truncated_polynomial(QQ, 7), exterior_pair(QQ, 7)):
        T, _, _ = acyclic_bar_total(A, 7)
        ok, _ = verify_differential(T.complex)
        assert ok
        H = homology(T.complex, 5)
        assert H.by_degree[0] == (1, [])
        assert all(H.by_degree[n] == (0, []) for n in range(1, 6))


def test_acyclic_cobar_construction():
    for C in (sphere_coalgebra(QQ, 7, 2), dual_truncated_polynomial(QQ, 7)):
        T, _, _ = acyclic_cobar_total(C, 7)
        ok, _ = verify_differential(T.complex)
        assert ok
        H = homology(T.complex, 5)
        assert H.by_degree[0] == (1, [])
        assert all(H.by_degree[n] == (0, []) for n in range(1, 6))


def test_dt_squared_iff_mc():
    # both directions: honest cochain passes, corrupted one fails with D^2 != 0
    C = dual_truncated_polynomial(QQ, 6)
    O = cobar(C, 6)
    t = universal_cochain(C, O)
    P = self_comodule_right(C)
    M = self_module_left(O)
    T = twisted_tensor(P, M, t, "comodule-first", 6)
    ok, _ = verify_differential(T.complex)
    assert ok
    t.set_value(4, "g2", {})
    ok, _ = verify_twisting_cochain(t)
    assert not ok
    with pytest.raises(NotATwistingCochain):
        twisted_tensor(P, M, t, "comodule-first", 6)
    T_bad = twisted_tensor(P, M, t, "comodule-first", 6, verify=False)
    okd, _ = verify_differential(T_bad.complex)
    assert not okd


def test_orientation_swap_isomorphic_homology():
    # module-first with the same data: left comodule + right module;
    # dual_truncated_polynomial exercises nontrivial quadratic terms
    from htwist.twisting import self_comodule_left, self_module_right

    for C in (sphere_coalgebra(QQ, 6, 2), dual_truncated_polynomial(QQ, 6)):
        O = cobar(C, 6)
        t = universal_cochain(C, O)
        T1 = twisted_tensor(self_comodule_right(C), self_module_left(O), t, "comodule-first", 6)
        T2 = twisted_tensor(self_comodule_left(C), self_module_right(O), t, "module-first", 6)
        ok1, _ = verify_differential(T1.complex)
        ok2, _ = verify_differential(T2.complex)
        assert ok1 and ok2, C.name
        assert homology(T1.complex, 4) == homology(T2.complex, 4)


def test_compose_cochain_identity_and_postcompose():
    C = sphere_coalgebra(QQ, 6, 2)
    O = cobar(C, 6)
    t = universal_cochain(C, O)
    t2 = compose_cochain(None, t, None)
    assert all(t2.mat(n) == t.mat(n) for n in range(7))
    t2.set_value(2, "c2", {})  # t2 holds copies: t keeps its value
    assert t.value(2, "c2") and not t2.value(2, "c2")
    # postcompose with Cobar(x2 self-map): still a twisting cochain
    from htwist.complexes import ChainMap
    from htwist.barcobar import cobar_map

    g = ChainMap(C.complex, C.complex)
    g.set_entry(0, "1", "1", 1)
    g.set_entry(2, "c2", "c2", 2)
    Og = cobar_map(g, O, O)
    t3 = compose_cochain(None, t, Og)
    ok, w = verify_twisting_cochain(t3)
    assert ok, w
    # precompose t_Bar with beta_t recovers t (couniversality)
    A = truncated_polynomial(QQ, 6)
    B = bar(A, 6)
    tb = couniversal_cochain(B, A)
    from htwist.barcobar import beta_t

    be = beta_t(tb, B, 6)
    t4 = compose_cochain(be, tb, None, source=B)
    assert all(tb.value(n, c) == t4.value(n, c) for n in range(7) for c in B.basis(n))
