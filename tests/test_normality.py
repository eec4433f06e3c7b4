import pytest

from htwist.barcobar import bar, cobar
from htwist.bundles import borel_kernel, borel_quotient
from htwist.complexes import ChainMap
from htwist.fixtures import (
    exterior,
    exterior_pair,
    sphere_coalgebra,
    trivial_coalgebra,
    truncated_polynomial,
)
from htwist.normality import (
    EndpointMismatch,
    HypothesisFailed,
    NormalPairCertificate,
    abelian_normality,
    chcx_identity_certificate,
    chcx_unit_certificate,
    rigid_conormality_certificate,
    trivial_extension_check,
    truncated_dual_np,
    truncated_np,
    verify_elementary_equivalence,
    verify_normal_pair,
)
from htwist.normality import ExtendedBundleMorphism
from htwist.rings import QQ
from sign_dropped import sign_dropped_normality


def identity_morphism(T):
    return ExtendedBundleMorphism(
        T, T,
        ChainMap.identity(T.monoid.complex),
        ChainMap.identity(T.M),
        ChainMap.identity(T.N),
        ChainMap.identity(T.comonoid.complex),
        label="identity",
    )


def identity_tau(A, N):
    """τ(id_A) through N."""
    f = ChainMap.identity(A.complex)
    BarA = bar(A, N)
    return truncated_np(f, A, BarA, bar(A, N), borel_quotient(f, A, A, N, BarA))


def test_truncated_np_and_identity_morphism():
    A = exterior(QQ, 7)
    tau = identity_tau(A, 5)
    m = identity_morphism(tau)
    ok, report = verify_elementary_equivalence(m, 4)
    assert ok, report


def test_truncated_dual_np_and_corruption():
    C = sphere_coalgebra(QQ, 7, 2)
    g = ChainMap.identity(C.complex)
    OmegaC = cobar(C, 5)
    theta = truncated_dual_np(g, C, cobar(C, 5), OmegaC, borel_kernel(g, C, C, 5, OmegaC))
    m = identity_morphism(theta)
    ok, report = verify_elementary_equivalence(m, 4)
    assert ok, report
    # corrupt one component: quasi-iso check must fail and be localized
    bad = identity_morphism(theta)
    bad.nu = ChainMap(theta.N, theta.N)  # zero map
    ok, report = verify_elementary_equivalence(bad, 4)
    assert not ok
    assert report["nu-quasi-iso"] is False or report["d-square"] is False


def test_abelian_certificate_honest_state():
    """The counit-ladder arrow is a strict elementary equivalence; the
    lemma's projection arrow fails exactly on the comodule condition and
    the p-square (unsatisfiable strictly: see the decisions ledger)."""
    A = exterior(QQ, 8)
    cert = abelian_normality(ChainMap.identity(A.complex), A, A, 5)
    ok, reports = verify_normal_pair(cert, 4)
    arrow0 = reports["arrow0:counit-ladder"]
    assert arrow0["ok"], arrow0["detail"]
    arrow1 = reports["arrow1:rigid-projection"]
    failing = {k for k, v in arrow1["detail"].items() if v is not True}
    assert failing == {"nu-comodule-map", "p-square"}
    assert not ok


def test_abelian_corruption_detected():
    # the dropped Koszul sign only matters when odd-degree factors meet:
    # Λ(x)⊗Λ(y) has odd bar words and odd algebra elements
    A = exterior_pair(QQ, 7)
    with pytest.raises(HypothesisFailed) as exc:
        sign_dropped_normality(A, 5)
    assert exc.value.axiom in ("algebra-structure", "algebra-map")


def test_abelian_build_verifies_the_quotient_algebra_once(monkeypatch):
    """The shuffle quotient Q is checked by the rigid builder alone, clean
    or corrupted."""
    from htwist import normality

    calls = []
    real = normality.verify_algebra

    def spy(Q):
        calls.append(Q)
        return real(Q)

    monkeypatch.setattr(normality, "verify_algebra", spy)
    A = exterior_pair(QQ, 7)
    abelian_normality(ChainMap.identity(A.complex), A, A, 5)
    assert len(calls) == 1
    with pytest.raises(HypothesisFailed) as exc:
        sign_dropped_normality(A, 5)
    assert len(calls) == 2 and exc.value.axiom == "algebra-structure"
    assert exc.value.detail == real(calls[1])[1][:3]


def test_abelian_on_inclusion_fixture():
    A = exterior(QQ, 7, "x")
    A2 = exterior_pair(QQ, 7)
    f = ChainMap(A.complex, A2.complex)
    f.set_entry(0, "1", "1⊗1", 1)
    f.set_entry(1, "x", "x⊗1", 1)
    cert = abelian_normality(f, A, A2, 4)
    ok, reports = verify_normal_pair(cert, 3)
    assert reports["arrow0:counit-ladder"]["ok"]
    assert cert.notes and "fails strictly" in cert.notes[0]


def test_chcx_unit_certificate():
    A = exterior(QQ, 8)
    cert = chcx_unit_certificate(A, 5)
    ok, reports = verify_normal_pair(cert, 4)
    assert reports["arrow0:counit-ladder"]["ok"]


def test_chcx_identity_certificate():
    A = exterior(QQ, 8)
    cert = chcx_identity_certificate(A, 4)
    ok, reports = verify_normal_pair(cert, 3)
    assert reports["arrow0:counit-ladder"]["ok"]


def test_endpoint_mismatch_guard():
    A = exterior(QQ, 7)
    tau = identity_tau(A, 4)
    tau2 = identity_tau(A, 4)
    cert = NormalPairCertificate("f", "g", tau, tau2, arrows=[])
    with pytest.raises(EndpointMismatch):
        verify_normal_pair(cert, 3)


def test_trivial_extension_exterior_pair():
    A = exterior(QQ, 8, "x")
    B = exterior(QQ, 8, "y")
    C = sphere_coalgebra(QQ, 8, 2)
    D = sphere_coalgebra(QQ, 8, 2)
    ok, report = trivial_extension_check(A, B, C, D, 5)
    assert ok, report


def test_rigid_conormality_hypotheses():
    # g: C' -> trivial coalgebra; the Borel kernel is C' itself (renamed)
    from htwist.fixtures import table_coproduct
    from htwist.hopf import ChainCoalgebra

    C2 = sphere_coalgebra(QQ, 7, 2)
    triv = trivial_coalgebra(QQ, 7)
    g = ChainMap(C2.complex, triv.complex)
    g.set_entry(0, "1", "1", 1)
    OmegaC = cobar(triv, 5)
    kernel = borel_kernel(g, C2, triv, 5, OmegaC)
    # transport C2's coalgebra structure to the kernel total (c' ⊗ [])
    total = kernel.bundle.total
    names = {c: f"{c}⊗[]" for n in range(6) for c in C2.basis(n)}
    K = ChainCoalgebra(total, names["1"], table_coproduct(total, names["1"], {
        (n, names[c]): [((d1, names[c1]), (d2, names[c2]), v)
                        for (d1, c1), (d2, c2), v in C2.reduced_coproduct(n, c)]
        for n in range(1, 6) for c in C2.basis(n)}), name="kernel")
    OmegaC2 = cobar(C2, 5)
    kernel2 = borel_kernel(kernel.iota, K, C2, 5, OmegaC2)
    iota_tilde = ChainMap(OmegaC.complex, kernel2.bundle.total)
    iota_tilde.set_entry(0, "[]", kernel2.bundle.total.basis.names(0)[0], 1)
    cert = rigid_conormality_certificate(
        g, C2, triv, K, iota_tilde, 5,
        OmegaC2=OmegaC2, OmegaC=OmegaC, kernel=kernel, kernel2=kernel2,
    )
    assert cert.notes and "partial" in cert.notes[0]
    ok, reports = verify_normal_pair(cert, 4)
    assert reports["arrow0:unit-ladder"]["ok"], reports


def test_rigid_conormality_bad_comultiplication():
    from complex_helpers import coalgebra_by_name
    from htwist.fixtures import table_coproduct

    C2 = sphere_coalgebra(QQ, 7, 2)
    triv = trivial_coalgebra(QQ, 7)
    g = ChainMap(C2.complex, triv.complex)
    g.set_entry(0, "1", "1", 1)
    OmegaC = cobar(triv, 5)
    kernel = borel_kernel(g, C2, triv, 5, OmegaC)
    total = kernel.bundle.total
    # corrupt: make the generator non-counital by doubling the coproduct
    bad = [((2, "c2⊗[]"), (0, "1⊗[]"), QQ.of(2)), ((0, "1⊗[]"), (2, "c2⊗[]"), QQ.one)]
    primitive = table_coproduct(total, "1⊗[]", {})
    K = coalgebra_by_name(total, "1⊗[]", lambda n, c: bad if (n, c) == (2, "c2⊗[]") else primitive(n, c),
                          name="bad")
    OmegaC2 = cobar(C2, 5)
    with pytest.raises(HypothesisFailed):
        rigid_conormality_certificate(
            g, C2, triv, K, ChainMap(OmegaC.complex, total), 5,
            OmegaC2=OmegaC2, OmegaC=OmegaC, kernel=kernel,
            kernel2=borel_kernel(kernel.iota, K, C2, 5, OmegaC2),
        )


def test_mu_module_map_detects_non_module_map():
    A = exterior(QQ, 7)
    tau = identity_tau(A, 5)
    m = identity_morphism(tau)
    # mu([]⊗x) = 2 []⊗x, while mu([]⊗1)·alpha(x) = []⊗x
    m.mu.set_entry(1, "[]⊗x", "[]⊗x", 1)
    ok, report = verify_elementary_equivalence(m, 4)
    assert not ok
    assert report["mu-module-map"] is False
    assert report["nu-comodule-map"] is True


def test_trivial_extension_check_on_tensor_names():
    # basis names of Λx⊗Λy and of H(S2)⊗H(S3) contain ⊗ themselves; the
    # Milgram comparison maps used to split names at the first ⊗
    from htwist.hopf import tensor_coalgebra_product

    ok, report = trivial_extension_check(exterior_pair(QQ, 7), exterior(QQ, 7, "z"),
                                         sphere_coalgebra(QQ, 7, 2), sphere_coalgebra(QQ, 7, 3), 4)
    assert ok, report
    C = tensor_coalgebra_product(sphere_coalgebra(QQ, 7, 2), sphere_coalgebra(QQ, 7, 3), through=7)
    ok, report = trivial_extension_check(exterior(QQ, 7, "x"), exterior(QQ, 7, "z"),
                                         C, sphere_coalgebra(QQ, 7, 2), 5)
    assert ok, report
