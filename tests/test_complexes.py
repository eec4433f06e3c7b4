from fractions import Fraction

import pytest

from complex_helpers import direct_sum, ground_complex
from htwist.rings import GF, ZZ, QQ
from htwist.complexes import (
    ChainComplex,
    ChainMap,
    GradedBasis,
    HomologySummary,
    TruncationTooLow,
    homology,
    induced_zero_on_reduced_homology,
    is_quasi_iso_through,
    _tensor_offsets,
    mapping_cone,
    tensor_basis,
    tensor_complex,
    tensor_name,
    verify_differential,
)


def two_step(ring=ZZ, mult=2, N=2):
    """0 -> R -(x mult)-> R -> 0 in degrees 1, 0."""
    basis = GradedBasis(N, {0: ["a"], 1: ["b"]})
    X = ChainComplex(ring, basis)
    X.set_d_entry(1, "b", "a", mult)
    return X


def test_fill_leaves_an_empty_degree_absent():
    basis = GradedBasis(3)
    basis.fill(1, ["a"], [("a",)])
    basis.fill(2, [], [])
    assert basis.by_degree == {1: ["a"]} and basis.degrees() == [1]
    assert basis.dim(2) == 0 and basis.positions(2) == {}


@pytest.mark.parametrize("runs", [
    [["a", "b", "a"]],   # twice in one run
    [["a"], ["b", "a"]],  # in an earlier run
], ids=["one-run", "earlier-run"])
def test_fill_refuses_a_duplicate_name_and_files_nothing(runs):
    basis = GradedBasis(2)
    *before, bad = runs
    for names in before:
        basis.fill(1, names, [(x,) for x in names])
    with pytest.raises(ValueError, match="duplicate basis name 'a' in degree 1"):
        basis.fill(1, bad, [(x,) for x in bad])
    assert basis.names(1) == [x for names in before for x in names]
    assert set(basis.keys) == set(basis.names(1))


def test_add_refuses_a_name_a_fill_filed():
    basis = GradedBasis(2)
    basis.fill(1, ["a"], [("a",)])
    with pytest.raises(ValueError, match="duplicate basis name 'a' in degree 1"):
        basis.add(1, "a")


@pytest.mark.parametrize("degree", [-1, 4])
def test_fill_and_add_refuse_a_degree_outside_the_truncation(degree):
    basis = GradedBasis(3)
    for fill in (lambda: basis.fill(degree, ["a"], [("a",)]), lambda: basis.fill(degree, [], []),
                 lambda: basis.add(degree, "a")):
        with pytest.raises(ValueError, match=f"degree {degree} outside 0..3"):
            fill()
    assert basis.by_degree == {}


def test_positions_are_rebuilt_after_a_fill():
    basis = GradedBasis(2)
    basis.fill(1, ["a"], [("a",)])
    assert basis.positions(1) == {("a",): 0}
    basis.fill(1, ["b", "c"], [("b",), ("c",)])
    assert basis.positions(1) == {("a",): 0, ("b",): 1, ("c",): 2}
    assert basis.name_of(1, ("c",)) == "c" and basis.index(1, "c") == 2
    basis.fill(2, ["d"], [("d",)])
    assert basis.name_of(2, ("d",)) == "d"


def test_homology_mod2():
    # H_0 = Z/2, H_1 = 0: derived from SNF of (2)
    X = two_step()
    H = homology(X, 1)
    assert H.by_degree[0] == (0, [2])
    assert H.by_degree[1] == (0, [])


def test_homology_zero_differential_over_Q():
    basis = GradedBasis(3, {0: ["a"], 1: ["b"], 2: ["c"]})
    X = ChainComplex(QQ, basis)
    H = homology(X, 2)
    assert all(H.by_degree[n] == (1, []) for n in (0, 1, 2))


def test_homology_cone_is_acyclic():
    X = two_step(ZZ, 3)
    C = mapping_cone(ChainMap.identity(X), X.truncation + 1)
    ok, _ = verify_differential(C)
    assert ok
    H = homology(C, 2)
    assert all(H.by_degree[n] == (0, []) for n in (0, 1, 2))
    # contractible model (apex added): H_0 = ground ring, H_{>0} = 0
    P = direct_sum(ground_complex(ZZ, C.truncation), C)
    HP = homology(P, 2)
    assert HP.by_degree[0] == (1, [])
    assert HP.by_degree[1] == HP.by_degree[2] == (0, [])


def test_truncation_guard():
    X = two_step()
    with pytest.raises(TruncationTooLow):
        homology(X, 2)


def test_verify_differential_witness():
    basis = GradedBasis(2, {0: ["a"], 1: ["b"], 2: ["c"]})
    X = ChainComplex(ZZ, basis)
    X.set_d_entry(1, "b", "a", 1)
    X.set_d_entry(2, "c", "b", 1)  # d1 d2 = a != 0
    ok, witness = verify_differential(X)
    assert not ok
    assert witness == {"degree": 2, "element": "c", "hits": "a"}


def test_empty_complex_passes():
    X = ChainComplex(ZZ, GradedBasis(3))
    ok, _ = verify_differential(X)
    assert ok


def test_quasi_iso_identity_and_zero():
    X = two_step()
    assert is_quasi_iso_through(ChainMap.identity(X), 1)[0]
    # zero map between two non-acyclic complexes fails
    Y = two_step()
    z = ChainMap(X, Y)
    ok, report = is_quasi_iso_through(z, 0)
    assert not ok and report[0]["cone"] != (0, [])


def test_quasi_iso_needs_torsion_match():
    X = two_step(ZZ, 2)
    Y = two_step(ZZ, 4)
    f = ChainMap(X, Y)
    f.set_entry(0, "a", "a", 1)
    f.set_entry(1, "b", "b", 2)  # chain map: 2*4 = 2*... check: f d = 4? d f
    # f(d b) = f(2a) = 2a ; d(f b) = d(2b) = 8a -> not a chain map; fix
    f.components.clear()
    f.set_entry(0, "a", "a", 2)
    f.set_entry(1, "b", "b", 1)
    assert f.is_chain_map()[0]
    ok, _ = is_quasi_iso_through(f, 1)
    assert not ok  # Z/2 vs Z/4


def test_tensor_unit_and_koszul_sign():
    X = two_step(ZZ, 2)
    U = ground_complex(ZZ)
    T = tensor_complex(X, U)
    assert homology(T, 1) == homology(X, 1)

    # sign check: |x| = 1 forces coefficient -1 on x1 ⊗ dy1
    A = ChainComplex(ZZ, GradedBasis(4, {1: ["x1"]}))
    B = two_step(ZZ, 1, N=2)  # d(b) = a
    T2 = tensor_complex(A, B)
    d = T2.d_of(2, "x1⊗b")
    assert d == {"x1⊗a": -1}


def test_tensor_index_arithmetic_matches_basis():
    """In tensor_basis order x⊗y sits at off[n][p] + i_x·dim Y_{n-p} + i_y:
    checked against the name index for factors whose names contain ⊗ (a
    tensor of tensors) and for a factor with an empty degree."""
    from htwist.fixtures import exterior_pair, sphere_coalgebra

    X = exterior_pair(QQ, 4).complex          # names contain ⊗
    S = sphere_coalgebra(QQ, 5, 2).complex    # degree 1 is empty
    XS = tensor_complex(X, S, 5)              # a tensor of tensors
    for L, R in [(X, S), (S, X), (XS, X), (S, XS)]:
        basis, off = tensor_basis(L, R, 6), _tensor_offsets(L, R, 6)
        for n in range(7):
            seen = 0
            for p in range(n + 1):
                for i, x in enumerate(L.basis.names(p)):
                    for j, y in enumerate(R.basis.names(n - p)):
                        index = off[n][p] + i * R.basis.dim(n - p) + j
                        assert index == basis.index(n, tensor_name(x, y))
                        seen += 1
            assert seen == basis.dim(n)


def test_tensor_of_two_acyclics_is_acyclic():
    I = two_step(ZZ, 1, N=2)  # 0 -> Z -id-> Z: acyclic
    T = tensor_complex(I, I)
    ok, _ = verify_differential(T)
    assert ok
    H = homology(T, 2)
    assert all(H.by_degree[n] == (0, []) for n in (0, 1, 2))


def test_tensor_associative_on_homology():
    X = two_step(ZZ, 2, N=2)
    Y = two_step(ZZ, 3, N=2)
    Z = two_step(ZZ, 0, N=2)
    left = tensor_complex(tensor_complex(X, Y), Z)
    right = tensor_complex(X, tensor_complex(Y, Z))
    assert homology(left, 3) == homology(right, 3)


def test_universal_coefficients_rank_check():
    X = two_step(ZZ, 2, N=3)
    XQ = two_step(QQ, 2, N=3)
    HZ = homology(X, 2)
    HQ = homology(XQ, 2)
    for n in range(3):
        assert HQ.by_degree[n][0] == HZ.by_degree[n][0]


def test_composite_quasi_iso():
    X = two_step(ZZ, 2)
    f = ChainMap.identity(X)
    g = ChainMap.identity(X)
    ok, _ = is_quasi_iso_through(f.compose(g), 1)
    assert ok


def test_induced_zero_on_reduced_homology():
    X = two_step(ZZ, 0, N=2)  # H_1 = Z
    f = ChainMap.identity(X)
    assert not induced_zero_on_reduced_homology(f, 1)
    z = ChainMap(X, X)
    z.set_entry(0, "a", "a", 1)
    assert induced_zero_on_reduced_homology(z, 1)


@pytest.mark.parametrize("R", [ZZ, GF(5)], ids=["Z", "F5"])
def test_ring_of_rejects_non_integral_fraction(R):
    with pytest.raises(ValueError):
        R.of(Fraction(1, 2))
    assert R.of(Fraction(6, 2)) == 3
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)
