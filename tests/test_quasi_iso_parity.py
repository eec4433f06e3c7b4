"""The mapping-cone quasi-isomorphism oracle against the reference oracle
of `quasi_iso_oracle` (kernel bases, lattice solves and a cokernel test per
degree): equal verdicts on random chain maps over Z, Q and F_3, on every
oracle call the acceptance suite makes, and on a map that is not a chain
map.

Random complexes have d_{n+1} = kernel_basis(d_n)·R for a random R, so
d∘d = 0 by construction and, over Z, R puts torsion into the homology.
Random maps are f = c·id + dh + hd for a random h of degree +1 (always a
chain map, homotopic to c·id), the zero map, composites of two such maps,
and such a map followed by the inclusion X -> X ⊕ Y.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasi_iso_oracle as reference
from complex_helpers import direct_sum
from htwist import bundles, complexes, normality
from htwist.complexes import ChainComplex, ChainMap, GradedBasis, is_quasi_iso_through
from htwist.rings import GF, QQ, ZZ
from htwist.sparse import SparseMatrix, kernel_basis

RINGS = [ZZ, QQ, GF(3)]
IDS = ["Z", "Q", "F3"]
N = 3  # truncation of the drawn complexes; the oracle runs through N - 1


def random_matrix(R, rows, cols, pick, lo=-2, hi=2):
    M = SparseMatrix(R, rows, cols)
    for i in range(rows):
        for j in range(cols):
            M[i, j] = R.of(pick(lo, hi))
    return M


def random_complex(R, pick) -> ChainComplex:
    dims = [pick(0, 3) for _ in range(N + 1)]
    basis = GradedBasis(N, {n: [f"e{n}_{i}" for i in range(k)] for n, k in enumerate(dims)})
    X = ChainComplex(R, basis)
    for n in range(N):
        K = kernel_basis(X.dmat(n))
        X.diff[n + 1] = K @ random_matrix(R, K.ncols, dims[n + 1], pick)
    return X


def homotopy_map(X: ChainComplex, pick) -> ChainMap:
    """c·id + dh + hd for a random h: X_n -> X_{n+1}."""
    R = X.ring
    h = {n: random_matrix(R, X.basis.dim(n + 1), X.basis.dim(n), pick, -1, 1)
         for n in range(N)}
    c = R.of(pick(-2, 2))
    comps = {}
    for n in range(N + 1):
        f = SparseMatrix.identity(R, X.basis.dim(n)).scale(c)
        if n < N:
            f = f + X.dmat(n + 1) @ h[n]
        if n > 0:
            f = f + h[n - 1] @ X.dmat(n)
        comps[n] = f
    return ChainMap(X, X, comps)


def inclusion(X: ChainComplex, Y: ChainComplex) -> ChainMap:
    """x -> L(x) into direct_sum(X, Y), whose degree-n basis lists X first."""
    S = direct_sum(X, Y)
    comps = {}
    for n in range(N + 1):
        m = SparseMatrix(X.ring, S.basis.dim(n), X.basis.dim(n))
        m.entries = {(i, i): X.ring.one for i in range(X.basis.dim(n))}
        comps[n] = m
    return ChainMap(X, S, comps)


def random_chain_map(R, pick) -> ChainMap:
    X = random_complex(R, pick)
    kind = pick(0, 3)
    if kind == 0:
        return homotopy_map(X, pick)
    if kind == 1:
        return ChainMap(X, X)
    if kind == 2:
        return homotopy_map(X, pick).compose(homotopy_map(X, pick))
    return inclusion(X, random_complex(R, pick)).compose(homotopy_map(X, pick))


def both_verdicts(f: ChainMap, through: int):
    assert f.is_chain_map()[0]
    ok, report = is_quasi_iso_through(f, through)
    ref_ok, ref_report = reference.is_quasi_iso_through(f, through)
    assert ok == ref_ok, (report, ref_report)
    for n in range(through + 1):
        assert (report[n]["source"], report[n]["target"]) == \
            (ref_report[n]["source"], ref_report[n]["target"])
    return ok


@pytest.mark.parametrize("R", RINGS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cone_oracle_matches_reference(R, data):
    f = random_chain_map(R, lambda lo, hi: data.draw(st.integers(lo, hi)))
    both_verdicts(f, N - 1)


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_seeded_maps_reach_both_verdicts(R):
    rng = random.Random(2024)
    verdicts = [both_verdicts(random_chain_map(R, rng.randint), N - 1) for _ in range(150)]
    assert 10 <= sum(verdicts) <= 140


def test_cone_oracle_matches_reference_on_acceptance_calls(monkeypatch):
    import test_acceptance

    real = complexes.is_quasi_iso_through
    calls = []

    def spy(f, through):
        ok, report = real(f, through)
        calls.append((ok, reference.verdict(f, through)))
        return ok, report

    for module in (complexes, bundles, normality, test_acceptance):
        monkeypatch.setattr(module, "is_quasi_iso_through", spy)
    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            try:
                getattr(test_acceptance, name)()
            except AssertionError:
                # criteria 6 and 8 fail honestly (docs/DECISIONS.md, section 2)
                assert name in ("test_criterion_6_abelian_normality",
                                "test_criterion_8_chcx_extremes"), name
    assert len(calls) >= 20
    assert [ok for ok, _ in calls] == [ref for _, ref in calls]


def test_non_chain_map_is_not_a_quasi_iso():
    # 0 -> Z -(2)-> Z with f_0 = id, f_1 = 0: f d != d f in degree 1, though
    # f_0 alone induces the identity on H_0 = Z/2
    basis = GradedBasis(2, {0: ["a"], 1: ["b"]})
    X = ChainComplex(ZZ, basis)
    X.set_d_entry(1, "b", "a", 2)
    f = ChainMap(X, X)
    f.set_entry(0, "a", "a", 1)
    assert is_quasi_iso_through(f, 0) == (False, {"chain-map": 1})
    assert reference.verdict(f, 0) is False
    with pytest.raises(reference.NotAChainMap):
        reference.is_quasi_iso_through(f, 0)
