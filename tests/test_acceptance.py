"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 6 and 8 assert full normal-pair verification; the strict form of
those zigzag squares is unsatisfiable in this realization (see
docs/DECISIONS.md, section 2, for the blocking analysis), so those assertions
are expected to fail honestly rather than being weakened here.  Everything
else is green.
"""

import time

import pytest

from htwist.barcobar import bar, cobar, counit_map, unit_map
from htwist.bundles import (
    amusing_comparison,
    amusing_comparison_dual,
    check_thc_axioms,
    classifying_bundle_xi,
    classifying_bundle_zeta,
    pushforward_pullback_commute,
    twist_axiom_1,
    twist_axiom_2,
    twist_axiom_3,
)
from htwist.chains import acyclicity_of_universal_bundle, normalized_chains
from htwist.complexes import (
    ChainMap,
    GradedBasis,
    ChainComplex,
    homology,
    is_quasi_iso_through,
    verify_differential,
)
from htwist.fixtures import (
    acyclic_extension_inclusion,
    algebra_corpus,
    coacyclic_collapse,
    coalgebra_corpus,
    dual_truncated_polynomial,
    exterior,
    exterior_pair,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.hopf import verify_algebra, verify_coalgebra
from htwist.normality import (
    HypothesisFailed,
    abelian_normality,
    chcx_identity_certificate,
    chcx_unit_certificate,
    trivial_extension_check,
    verify_normal_pair,
)
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import (
    DEFAULT_SEED,
    classifying_space,
    couniversal_twisting_function,
    cyclic_constant_group,
    kan_loop_group,
    minimal_circle,
    point_space,
    universal_twisting_function,
    verify_loop_comparison,
    verify_simplicial_identities,
    verify_twisting_function,
    simpl_good_iso,
    allsimpl_certificate,
)
from htwist.twisting import (
    couniversal_cochain,
    self_comodule_right,
    self_module_left,
    twisted_tensor,
    universal_cochain,
    verify_twisting_cochain,
)
from sign_dropped import sign_dropped_normality


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    return ok


def inclusion_fixture(N):
    A = exterior(QQ, N, "x")
    A2 = exterior_pair(QQ, N)
    f = ChainMap(A.complex, A2.complex)
    f.set_entry(0, "1", "1⊗1", 1)
    f.set_entry(1, "x", "x⊗1", 1)
    return f, A, A2


def test_criterion_1_differentials():
    """d_Ω²=0, d_B̄²=0, D_t²=0 on the corpus, truncation 8, < 10 s."""
    t0 = time.time()
    ok = True
    algebras = algebra_corpus(QQ, 8)
    coalgebras = coalgebra_corpus(QQ, 8)
    assert len(algebras) >= 6 and len(coalgebras) >= 4
    for A in algebras:
        B = bar(A, 8)
        okd, _ = verify_differential(B.complex)
        ok = ok and okd
        t = couniversal_cochain(B, A)
        okt, _ = verify_twisting_cochain(t)
        ok = ok and okt
        T = twisted_tensor(self_comodule_right(B), self_module_left(A), t,
                           "comodule-first", 8, verify=False)
        okD, _ = verify_differential(T.complex)
        ok = ok and okD
    for C in coalgebras:
        O = cobar(C, 8)
        okd, _ = verify_differential(O.complex)
        ok = ok and okd
        t = universal_cochain(C, O)
        okt, _ = verify_twisting_cochain(t)
        ok = ok and okt
        T = twisted_tensor(self_comodule_right(C), self_module_left(O), t,
                           "comodule-first", 8, verify=False)
        okD, _ = verify_differential(T.complex)
        ok = ok and okD
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    assert report(f"1. differentials (corpus, trunc 8, {elapsed:.1f}s)", ok)


def test_criterion_2_adjunction_unit_counit():
    """η_C quasi-iso through 6; v_A quasi-iso through 5."""
    ok = True
    for C in (sphere_coalgebra(QQ, 8, 2), sphere_coalgebra(QQ, 8, 3),
              dual_truncated_polynomial(QQ, 8)):
        O = cobar(C, 8)
        BO = bar(O, 8)
        u = unit_map(C, 8, O, BO)
        okq, _ = is_quasi_iso_through(u, 6)
        ok = ok and okq
    for A in (exterior(QQ, 7), truncated_polynomial(QQ, 7)):
        B = bar(A, 7)
        OB = cobar(B, 6)
        v = counit_map(A, 6, B, OB)
        okq, _ = is_quasi_iso_through(v, 5)
        ok = ok and okq
    assert report("2. adjunction unit through 6 / counit through 5", ok)


def test_criterion_3_thc_conditions():
    """Def. thc (1)-(6): acyclicity through 5, two quasi-isos each for (5)/(6)."""
    N = 6
    A1 = exterior(QQ, N + 1)
    A2q = truncated_polynomial(QQ, N + 1)
    C1 = sphere_coalgebra(QQ, N + 1, 2)
    C2q = dual_truncated_polynomial(QQ, N + 1)
    f1, AE1 = acyclic_extension_inclusion(A1, N + 1)
    f2, AE2 = acyclic_extension_inclusion(A2q, N + 1)
    g1, CF1 = coacyclic_collapse(C1, N + 1)
    g2, CF2 = coacyclic_collapse(C2q, N + 1)
    fixtures = {
        "algebras": [A1, A2q],
        "coalgebras": [C1, C2q],
        "algebra_quasi_isos": [(f1, A1, AE1), (f2, A2q, AE2)],
        "coalgebra_quasi_isos": [(g1, CF1, C1), (g2, CF2, C2q)],
    }
    ok, rep = check_thc_axioms(fixtures, N)
    assert report("3. twisted-homotopical-category conditions (1)-(6)", ok), rep


def test_criterion_4_twist_axioms():
    """Axioms (1)-(3): exact basis bijections through 6 on three triples."""
    from htwist.barcobar import beta_t, is_coalgebra_map

    N = 6
    ok = True
    # triple 1: C = H(S2) with g = beta of the universal cochain
    C = sphere_coalgebra(QQ, N + 1, 2)
    O = cobar(C, N)
    BO = bar(O, N + 1)
    t = universal_cochain(C, O)
    g = beta_t(t, BO, N)
    ok1, _ = twist_axiom_1(g, C, O, N, BO)
    ok = ok and ok1
    # triple 2: f the exterior inclusion
    f, A, A2 = inclusion_fixture(N + 1)
    ok2, _ = twist_axiom_2(f, A, A2, N)
    ok = ok and ok2
    # triple 3: g the coacyclic collapse on H(S2)
    gq, CF = coacyclic_collapse(C, N + 1)
    ok3, _ = twist_axiom_3(gq, CF, C, N)
    ok = ok and ok3
    # commutation of pushforward and pullback
    BarA = bar(A, N)
    z = classifying_bundle_zeta(A, N, BarA)
    gb, CFb = coacyclic_collapse(BarA, N)
    ok4 = pushforward_pullback_commute(f, gb, z, N, A2, CFb)
    ok = ok and ok4
    assert report("4. twisting-structure axioms (1)-(3) as basis bijections", ok)


def test_criterion_5_amusing_ladders():
    """Both ladder diagrams for f: Λx -> ΛxΛy and a self-map of H(S2)."""
    N = 6
    f, A, A2 = inclusion_fixture(N + 2)
    ok1, rep1 = amusing_comparison(f, A, A2, N)
    C = sphere_coalgebra(QQ, N + 1, 2)
    g = ChainMap(C.complex, C.complex)
    g.set_entry(0, "1", "1", 1)
    g.set_entry(2, "c2", "c2", 1)
    ok2, rep2 = amusing_comparison_dual(g, C, C, N)
    ok = ok1 and ok2
    assert report("5. bundle-ladder comparison (both versions, through 5)", ok), (rep1, rep2)


def test_criterion_6_abelian_normality():
    """Certificates for two commutative fixtures; Koszul corruption detected."""
    corrupted = False
    try:
        sign_dropped_normality(exterior_pair(QQ, 7), 6)
    except HypothesisFailed:
        corrupted = True
    ok = corrupted
    results = []
    for A, label in ((exterior(QQ, 9), "Λ(x)"), (truncated_polynomial(QQ, 9), "k[x]/(x³)")):
        cert = abelian_normality(ChainMap.identity(A.complex), A, A, 7)
        okv, _ = verify_normal_pair(cert, 6)
        results.append(okv)
    ok = ok and all(results)
    report_line = report("6. abelian normality certificates + corruption control", ok)
    assert corrupted, "corruption control must be detected"
    assert report_line, (
        "strict normal-pair verification fails on the projection arrow; "
        "see docs/DECISIONS.md, section 2 (paper's rigid ladder unsatisfiable strictly)"
    )


def test_criterion_7_trivial_extensions():
    """trivial_extension_check on (Λx, Λx) and (H(S2), H(S2)) through 5."""
    A = exterior(QQ, 8, "x")
    B = exterior(QQ, 8, "y")
    C = sphere_coalgebra(QQ, 8, 2)
    D = sphere_coalgebra(QQ, 8, 2)
    ok1, rep1 = trivial_extension_check(A, B, C, D, 5)
    A2 = exterior(QQ, 8, "x")
    ok = ok1
    assert report("7. trivial extensions (Λ(x),Λ(x)) and (H(S²),H(S²))", ok), rep1


def test_criterion_8_chcx_extremes():
    """(η, id-like) and (id, counit-like) pairs for A = Λ(x)."""
    A = exterior(QQ, 8)
    cert_eta = chcx_unit_certificate(A, 5)
    ok_eta, _ = verify_normal_pair(cert_eta, 4)
    cert_id = chcx_identity_certificate(A, 5)
    ok_id, _ = verify_normal_pair(cert_id, 4)
    ok = ok_eta and ok_id
    assert report("8. extreme normal pairs (unit and identity of Λ(x))", ok), (
        "strict verification fails on the projection arrow; see docs/DECISIONS.md, section 2"
    )


def test_criterion_9_simplicial_axioms():
    """ν exhaustive through level 5; τ_{S¹} on 1000 samples; W̄(C2) identities."""
    G = cyclic_constant_group(2, 6)
    W = classifying_space(G, 6)
    nu = couniversal_twisting_function(W)
    ok1, _ = verify_twisting_function(nu, 5)
    S = minimal_circle(8)
    GS = kan_loop_group(S, 7)
    tau = universal_twisting_function(GS)
    ok2, _ = verify_twisting_function(tau, 6, samples=1000, seed=DEFAULT_SEED)
    ok3, _ = verify_simplicial_identities(W, 5)
    ok = ok1 and ok2 and ok3
    assert report("9. simplicial and twisting-function identities", ok)


def test_criterion_10_universal_bundle_contractibility():
    """H(C(W̄G×G); Z) = (Z,0,0,0,0) for C2, C3; H(C(W̄C2); Z) pattern; < 60 s."""
    t0 = time.time()
    ok = True
    for k in (2, 3):
        G = cyclic_constant_group(k, 7)
        acyc, H = acyclicity_of_universal_bundle(G, ZZ, 5)
        ok = ok and acyc
    G2 = cyclic_constant_group(2, 6)
    W = classifying_space(G2, 6)
    CW = normalized_chains(W, ZZ, 6)
    H = homology(CW.complex, 4)
    expected = {0: (1, []), 1: (0, [2]), 2: (0, []), 3: (0, [2]), 4: (0, [])}
    ok = ok and all(H.by_degree[n] == expected[n] for n in range(5))
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert report(f"10. universal bundle contractibility (bundles by extra-degeneracy certificate, "
                  f"W̄C2 by SNF oracle, {elapsed:.1f}s)", ok)


def test_criterion_11_simpl_good_and_allsimpl():
    """Round-trip on 1000 samples for id and a non-identity map; allsimpl report."""
    S = minimal_circle(8)
    cmp1, _ = simpl_good_iso(lambda n, x: x, S, S, 6)
    ok1, _ = verify_loop_comparison(cmp1, 5, samples=1000, seed=DEFAULT_SEED)

    def collapse(n, x):
        return S.basepoint(n)

    cmp2, _ = simpl_good_iso(collapse, S, S, 6)
    ok2, _ = verify_loop_comparison(cmp2, 5, samples=1000, seed=DEFAULT_SEED)
    ok3, rep = allsimpl_certificate(lambda n, x: x, S, S, 5, samples=800)
    ok = ok1 and ok2 and ok3
    assert report("11. loop-group comparison + h-conormality hypotheses", ok), rep


def test_criterion_12_negative_controls():
    """Every verifier fails with a localized witness on a corrupted input."""
    ok = True
    # chain complex: d² != 0
    basis = GradedBasis(2, {0: ["a"], 1: ["b"], 2: ["c"]})
    X = ChainComplex(ZZ, basis)
    X.set_d_entry(1, "b", "a", 1)
    X.set_d_entry(2, "c", "b", 1)
    okd, wit = verify_differential(X)
    ok = ok and (not okd) and wit["degree"] == 2

    # algebra: broken Koszul sign
    from htwist.hopf import tensor_algebra_product
    from htwist.fixtures import acyclic_algebra

    from complex_helpers import algebra_by_name

    T = tensor_algebra_product(exterior(QQ, 6, "x"), acyclic_algebra(QQ, 6), through=6)
    bad = algebra_by_name(T.complex, T.unit, lambda da, a, db, b: {"x⊗z": 1} if (da, a, db, b) == (
        3, "1⊗z", 1, "x⊗1") else T.product(da, a, db, b), T.name)
    oka, wa = verify_algebra(bad)
    ok = ok and (not oka) and any(w["axiom"] == "Leibniz" for w in wa)

    # coalgebra: 1-connectivity violation
    C = sphere_coalgebra(QQ, 6, 2)
    C.complex.basis.add(1, "junk")
    okc, wc = verify_coalgebra(C)
    ok = ok and (not okc) and any(w["axiom"] == "1-connected" for w in wc)

    # twisting cochain: dropped value
    C2 = dual_truncated_polynomial(QQ, 6)
    O = cobar(C2, 6)
    t = universal_cochain(C2, O)
    t.set_value(4, "g2", {})
    okt, wt = verify_twisting_cochain(t)
    ok = ok and (not okt) and wt[0]["element"] == (4, "g2")

    # quasi-iso oracle: zero map
    A = exterior(QQ, 4)
    z = ChainMap(A.complex, A.complex)
    okq, _ = is_quasi_iso_through(z, 1)
    ok = ok and not okq

    # simplicial identities: corrupted face
    S = minimal_circle(5)
    orig = S.face
    S.face = lambda n, i, x: ("c", 1) if (n, i, x) == (2, 1, ("m", 1)) else orig(n, i, x)
    oks, ws = verify_simplicial_identities(S, 5)
    ok = ok and (not oks) and ws is not None

    # twisting function: corrupted ν
    from htwist.simplicial import TwistingFunction

    G = cyclic_constant_group(2, 5)
    W = classifying_space(G, 5)
    bad = TwistingFunction(W, G, lambda n, a: a[0], name="bad")
    okn, wn = verify_twisting_function(bad, 4)
    ok = ok and (not okn) and "identity" in wn

    # elementary equivalence: corrupted component (covered in unit tests too)
    from htwist.bundles import borel_quotient
    from htwist.normality import truncated_np, verify_elementary_equivalence
    from htwist.normality import ExtendedBundleMorphism

    f = ChainMap.identity(A.complex)
    BarA = bar(A, 3)
    tau = truncated_np(f, A, BarA, bar(A, 3), borel_quotient(f, A, A, 3, BarA))
    m = ExtendedBundleMorphism(
        tau, tau,
        ChainMap.identity(tau.monoid.complex),
        ChainMap.identity(tau.M),
        ChainMap(tau.N, tau.N),
        ChainMap.identity(tau.comonoid.complex),
    )
    oke, re_ = verify_elementary_equivalence(m, 2)
    ok = ok and not oke

    assert report("12. negative controls (localized witnesses)", ok)
