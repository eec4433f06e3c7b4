import random

import pytest

from htwist.simplicial import (
    DEFAULT_SEED,
    GroupWord,
    allsimpl_certificate,
    boundary_delta2,
    check_unit_counit_triangle,
    classify_twisting_function,
    classifying_space,
    couniversal_twisting_function,
    cyclic_constant_group,
    homotopy_fiber,
    kan_loop_group,
    loop_group_pi0,
    minimal_circle,
    point_space,
    sampled_pi0_trivial,
    simpl_good_iso,
    twisted_cartesian_product,
    universal_bundle,
    universal_twisting_function,
    unit_simplicial_map,
    verify_group_structure,
    verify_loop_comparison,
    verify_simplicial_identities,
    verify_twisting_function,
    NoExtension,
)
from test_constant_group_parity import symmetric_group_s3
from test_simplicial_parity import circle_path_fibration, corrupt, reference_identities


def test_group_words():
    a = GroupWord([("x", 1)])
    b = GroupWord([("x", -1)])
    assert (a * b).is_identity()
    w = GroupWord([("x", 1), ("y", 1)])
    assert (w * w.inverse()).is_identity()
    assert w.inverse().letters == (("y", -1), ("x", -1))


def test_wbar_c2_sizes_and_identities():
    G = cyclic_constant_group(2, 6)
    W = classifying_space(G, 5)
    for n in range(6):
        assert len(W.elements(n)) == 2 ** n
    ok, w = verify_simplicial_identities(W, 5)
    assert ok, w


def test_wbar_s3_identities_nonabelian():
    G = symmetric_group_s3(4)
    W = classifying_space(G, 4)
    ok, w = verify_simplicial_identities(W, 4)
    assert ok, w
    nu = couniversal_twisting_function(W)
    ok, w = verify_twisting_function(nu, 4)
    assert ok, w


def test_nu_identities_exhaustive_c2():
    G = cyclic_constant_group(2, 6)
    W = classifying_space(G, 6)
    nu = couniversal_twisting_function(W)
    ok, w = verify_twisting_function(nu, 5)
    assert ok, w


def test_corrupted_twisting_function_fails():
    from htwist.simplicial import TwistingFunction

    G = cyclic_constant_group(2, 5)
    W = classifying_space(G, 5)
    # ν must read the last tuple entry; reading the first violates d0
    tau = TwistingFunction(W, G, lambda n, a: a[0], name="nu-corrupted")
    ok, witness = verify_twisting_function(tau, 4)
    assert not ok
    assert "identity" in witness and "element" in witness


def test_tcp_trivial_twisting_is_product():
    from htwist.simplicial import TwistingFunction

    G = cyclic_constant_group(3, 5)
    S = minimal_circle(5)
    tau = TwistingFunction(S, G, lambda n, x: 0, name="e")
    assert verify_twisting_function(tau, 5)[0]
    T = twisted_cartesian_product(S, tau, G, act=lambda n, y, g: G.mult(n, y, g), N=5)
    ok, w = verify_simplicial_identities(T, 5)
    assert ok, w
    # d_i componentwise for i > 0
    x = (("m", 1), 1)
    assert T.face(1, 1, x) == (S.face(1, 1, ("m", 1)), 1)


def test_universal_bundle_identities():
    G = cyclic_constant_group(2, 7)
    tcp, W, nu = universal_bundle(G, 5)
    ok, w = verify_simplicial_identities(tcp, 5)
    assert ok, w


def test_loop_group_circle():
    S = minimal_circle(8)
    G = kan_loop_group(S, 7)
    # level 0 free on one generator sigma-bar
    assert len(G.generators(0)) == 1
    rank, torsion = loop_group_pi0(G)
    assert (rank, torsion) == (1, [])  # pi_1(S^1) = Z
    ok, w = verify_group_structure(G, 4, samples=120)
    assert ok, w
    # s0-images die
    x = S.degeneracy(1, 0, ("m", 1))
    assert G.generator(1, x).is_identity()


def test_tau_circle_sampled():
    S = minimal_circle(8)
    G = kan_loop_group(S, 7)
    tau = universal_twisting_function(G)
    ok, w = verify_twisting_function(tau, 6, samples=1000, seed=DEFAULT_SEED)
    assert ok, w


def test_loop_group_of_boundary_delta2():
    B = boundary_delta2(6)
    # not reduced: three vertices
    from htwist.simplicial import NotReduced

    with pytest.raises(NotReduced):
        kan_loop_group(B, 5)


def test_classify_twisting_function_roundtrip():
    G = cyclic_constant_group(2, 6)
    W = classifying_space(G, 6)
    nu = couniversal_twisting_function(W)
    phi = classify_twisting_function(nu, 5, W)
    # couniversality: classifying nu gives the identity of W̄G
    for n in range(5):
        for a in W.elements(n):
            assert phi(n, a) == a
    # classify tau for the circle: eta_X, then nu∘phi = tau by construction
    S = minimal_circle(6)
    phiS, WS, GS, tauS = unit_simplicial_map(S, 5)
    for n in range(1, 5):
        for x in S.elements(n):
            assert phiS(n, x)[-1] == tauS(n, x)


def test_unit_counit_triangle():
    G = cyclic_constant_group(2, 5)
    ok, w = check_unit_counit_triangle(G, 4, samples=150)
    assert ok, w


def test_homotopy_fiber_identity_map():
    S = minimal_circle(7)
    hf = homotopy_fiber(lambda n, x: x, S, S, 6, kan_loop_group(S, 6))
    ok, w = verify_simplicial_identities(hf.total, 4, samples=400)
    assert ok, w
    assert sampled_pi0_trivial(hf.total, 800, DEFAULT_SEED)


def test_homotopy_fiber_over_point():
    S = minimal_circle(6)
    P = point_space(6)
    # g: S -> point; GY is trivial, total = S x trivial
    hf = homotopy_fiber(lambda n, x: P.basepoint(n), S, P, 5, kan_loop_group(P, 5))
    for n in range(5):
        # fiber group has no generators: all words empty
        assert hf.GY.sample(n, random.Random(1)).is_identity()


def test_simpl_good_iso_identity():
    S = minimal_circle(8)
    cmp, hf = simpl_good_iso(lambda n, x: x, S, S, 6)
    ok, report = verify_loop_comparison(cmp, 5, samples=1000, seed=DEFAULT_SEED)
    assert ok, report


def degree_two_circle_map():
    """S1 -> S1 wrapping twice is not simplicial on the minimal model;
    instead use the collapse dDelta2 -> S1-like... here: the simplicial
    self-map of S1min induced by swapping nothing (identity) is the only
    pointed self-map; use the collapse map from the double circle model.

    For a genuinely non-identity fixture we take g: S1 -> S1 constant."""
    S = minimal_circle(8)

    def g(n, x):
        return S.basepoint(n)

    return S, g


def test_simpl_good_iso_nonidentity():
    S, g = degree_two_circle_map()
    cmp, hf = simpl_good_iso(g, S, S, 6)
    ok, report = verify_loop_comparison(cmp, 5, samples=1000, seed=DEFAULT_SEED)
    assert ok, report


def test_allsimpl_certificate():
    S = minimal_circle(8)
    ok, report = allsimpl_certificate(lambda n, x: x, S, S, 5, samples=600)
    assert ok, report
    S2, g = degree_two_circle_map()
    ok, report = allsimpl_certificate(g, S2, S2, 5, samples=600)
    assert ok, report
    P = point_space(8)
    ok, report = allsimpl_certificate(lambda n, x: P.basepoint(n), S, P, 4, samples=300)
    assert ok, report


def test_corrupted_face_table_fails():
    S = minimal_circle(5)
    orig = S.face

    def bad_face(n, i, x):
        if n == 2 and i == 1 and x == ("m", 1):
            return ("c", 1)
        return orig(n, i, x)

    S.face = bad_face
    ok, witness = verify_simplicial_identities(S, 5)
    assert not ok
    assert witness is not None


def test_corrupted_degeneracy_fails_s_s():
    # s_0 s_1 (m,1) = (m,2) = s_2 s_0 (m,1) at level 1; move s_0 of (m,1) in level 2
    S = minimal_circle(5)
    orig = S.degeneracy
    S.degeneracy = lambda n, i, x: ("m", 3) if (n, i, x) == (2, 0, ("m", 1)) else orig(n, i, x)
    ok, witness = verify_simplicial_identities(S, 5)
    assert not ok
    assert witness == {"identity": "s0s1", "level": 1, "element": ("m", 1)}


def test_corrupted_degeneracy_fails_d_s():
    # s_0 (c,0) = (m,1) breaks d_2 s_0 (c,1) = (c,1) at level 1, since s_0 d_1 (c,1)
    # is now (m,1); the s_i s_i instance catches it first, at level 0:
    # s_0 s_0 (c,0) = s_0 (m,1) = (m,2), but s_1 s_0 (c,0) = s_1 (m,1) = (m,1)
    S = minimal_circle(5)
    orig = S.degeneracy
    S.degeneracy = lambda n, i, x: ("m", 1) if (n, i, x) == (0, 0, ("c", 0)) else orig(n, i, x)
    ok, witness = verify_simplicial_identities(S, 5)
    assert not ok
    assert witness == {"identity": "s0s0", "level": 0, "element": ("c", 0)}


def test_check_asks_only_for_the_maps_the_loop_reaches():
    """In W̄C3 through 3, d_1 (1, 2) is moved to another vertex, which
    fails d_1 d_2 at (0, 1, 2), and d_0 (2, 2, 2) is sent to an unlisted
    simplex whose faces raise KeyError.  The loop stops at the first
    failure and never asks for those faces."""
    def make():
        W = classifying_space(cyclic_constant_group(3, 4), 3)
        corrupt(W, "face", 2, 1, lambda y: y == (1, 2), lambda value: (1,))
        corrupt(W, "face", 3, 0, lambda y: y == (2, 2, 2), lambda value: ("outside",))
        face = W.face

        def guarded(n, i, y):
            if y == ("outside",):
                raise KeyError(y)
            return face(n, i, y)

        W.face = guarded
        return W

    witness = {"identity": "d1d2", "level": 3, "element": (0, 1, 2)}
    assert reference_identities(make(), 3) == (False, witness)
    assert verify_simplicial_identities(make(), 3) == (False, witness)


def test_maps_are_asked_in_the_reference_loop_order():
    """The check asks for each face and degeneracy where the reference loop
    first does.  On the sampled path fibration of the circle the draws of
    one family are not those of another, so in d_i s_j both sides are new
    requests, and the side got is asked first."""
    def spied(log):
        total = circle_path_fibration()
        for kind in ("face", "degeneracy"):
            orig = getattr(total, kind)

            def spy(n, i, y, kind=kind, orig=orig):
                log.append((kind, n, i, y))
                return orig(n, i, y)

            setattr(total, kind, spy)
        return total

    new, old = [], []
    assert verify_simplicial_identities(spied(new), 4, samples=40) == (True, None)
    assert reference_identities(spied(old), 4, samples=40) == (True, None)
    assert new == list(dict.fromkeys(old))
