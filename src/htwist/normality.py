"""Extended bundles, elementary equivalences, normal-pair certificates, and
the concrete certificate builders: rigid (co)normality, commutative algebras,
trivial extensions, and the extreme unit/identity examples.

A certificate is an explicit finite zigzag of extended-bundle morphisms
joining a truncated dual Nomura-Puppe window to a truncated Nomura-Puppe
window.  Verification is strict: all three squares commute as matrices,
structure maps are preserved, and every component is a quasi-isomorphism
through the declared degree.  Certificate *construction* uses a library of
closed-form bridges, each re-verified at build time; where the source
text's ladder is strictly unsatisfiable the builder reports the failure
with a witness instead of papering over it (docs/DECISIONS.md, section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .barcobar import (
    bar,
    bar_map,
    cobar,
    cobar_map,
    counit_map,
    is_algebra_map,
    is_coalgebra_map,
    unit_map,
    NotCommutative,
    _shuffle_product,
)
from .bundles import BorelKernel, BorelQuotient, borel_kernel, borel_quotient, twisted_bundle
from .complexes import ChainComplex, ChainMap, is_quasi_iso_through, tensor_map, tensor_name
from .hopf import (
    ChainAlgebra,
    ChainCoalgebra,
    ComoduleStructure,
    ModuleStructure,
    _comodule_map_failures,
    _module_map_failures,
    _pair_product,
    verify_algebra,
)
from .twisting import couniversal_cochain, universal_cochain


class EndpointMismatch(Exception):
    pass


class HypothesisFailed(Exception):
    def __init__(self, axiom: str, detail=None):
        super().__init__(axiom)
        self.axiom = axiom
        self.detail = detail


@dataclass
class ExtendedBundle:
    """A -> M -> N -> C: monoid, right-A-module, left-C-comodule, comonoid."""

    monoid: ChainAlgebra
    module: ModuleStructure          # right action of monoid on M
    comodule: ComoduleStructure      # left coaction of comonoid on N
    comonoid: ChainCoalgebra
    j: ChainMap                      # A -> M, module map
    d: ChainMap                      # M -> N, plain chain map
    p: ChainMap                      # N -> C, comodule map

    @property
    def M(self) -> ChainComplex:
        return self.module.carrier

    @property
    def N(self) -> ChainComplex:
        return self.comodule.carrier


@dataclass
class ExtendedBundleMorphism:
    source: ExtendedBundle
    target: ExtendedBundle
    alpha: ChainMap                  # monoids
    mu: ChainMap                     # M-slots
    nu: ChainMap                     # N-slots
    beta: ChainMap                   # comonoids
    label: str = ""


def verify_elementary_equivalence(m: ExtendedBundleMorphism, through: int):
    """Squares, structure preservation, and four quasi-isomorphism checks.

    Returns (ok, report); the report localizes each failed check."""
    S, T = m.source, m.target
    report = {}

    for nm, f in (("alpha", m.alpha), ("mu", m.mu), ("nu", m.nu), ("beta", m.beta)):
        ok, deg = f.is_chain_map()
        report[f"{nm}-chain"] = ok if ok else {"failed-at": deg}

    report["alpha-algebra-map"] = is_algebra_map(m.alpha, S.monoid, T.monoid)
    report["beta-coalgebra-map"] = is_coalgebra_map(m.beta, S.comonoid, T.comonoid)

    # mu is a module map over alpha: mu(x·a) = mu(x)·alpha(a)
    report["mu-module-map"] = not _module_map_failures(
        m.mu, m.alpha, S.module.act, T.module.act, min(S.M.truncation, T.M.truncation))

    # nu is a comodule map over beta: λ' ∘ nu = (beta ⊗ nu) ∘ λ
    report["nu-comodule-map"] = not _comodule_map_failures(
        m.nu, m.beta, S.comodule.coact, T.comodule.coact, min(S.N.truncation, T.N.truncation))

    for nm, lhs, rhs in (("j", m.mu.compose(S.j), T.j.compose(m.alpha)),
                         ("d", m.nu.compose(S.d), T.d.compose(m.mu)),
                         ("p", m.beta.compose(S.p), T.p.compose(m.nu))):
        report[f"{nm}-square"] = all(lhs.mat(n) == rhs.mat(n) for n in range(through + 1))

    for nm, f in (("alpha", m.alpha), ("mu", m.mu), ("nu", m.nu), ("beta", m.beta)):
        okq, _ = is_quasi_iso_through(f, through)
        report[f"{nm}-quasi-iso"] = okq

    ok = all(v is True for v in report.values())
    return ok, report


@dataclass
class NormalPairCertificate:
    """Zigzag of elementary equivalences from θ(g) to τ(f)."""

    f_label: str
    g_label: str
    theta: ExtendedBundle
    tau: ExtendedBundle
    arrows: list = field(default_factory=list)  # (direction, morphism); "fwd" points toward tau
    notes: list = field(default_factory=list)


def verify_normal_pair(cert: NormalPairCertificate, through: int):
    """Endpoints plus every arrow; (ok, per-arrow reports)."""
    reports = {}
    cur = cert.theta
    for idx, (direction, m) in enumerate(cert.arrows):
        here, there = (m.source, m.target) if direction == "fwd" else (m.target, m.source)
        if here is not cur:
            raise EndpointMismatch(f"arrow {idx} does not continue the zigzag")
        ok, rep = verify_elementary_equivalence(m, through)
        reports[f"arrow{idx}:{m.label}"] = {"ok": ok, "detail": rep}
        cur = there
    if cur is not cert.tau:
        raise EndpointMismatch("zigzag does not end at tau(f)")
    ok_all = all(r["ok"] for r in reports.values())
    return ok_all, reports


# ---------------------------------------------------------------------
# The truncated Nomura-Puppe windows.
# ---------------------------------------------------------------------

def truncated_np(f: ChainMap, A2: ChainAlgebra, BarA: ChainCoalgebra, BarA2: ChainCoalgebra,
                 quotient: BorelQuotient) -> ExtendedBundle:
    """τ(f) = (A' -> A'//A -> Bar A -> Bar A'), for ``quotient`` =
    borel_quotient(f, A, A2, N, BarA)."""
    from .twisting import comodule_via_map

    bf = bar_map(f, BarA, BarA2)
    comod = comodule_via_map(BarA2, BarA, bf)
    return ExtendedBundle(
        monoid=A2,
        module=quotient.bundle.module,
        comodule=comod,
        comonoid=BarA2,
        j=quotient.pi,
        d=quotient.delta,
        p=bf,
    )


def truncated_dual_np(g: ChainMap, C2: ChainCoalgebra, OmegaC2: ChainAlgebra, OmegaC: ChainAlgebra,
                      kernel: BorelKernel) -> ExtendedBundle:
    """θ(g) = (Ω C' -> Ω C -> C\\C' -> C'), for ``kernel`` =
    borel_kernel(g, C2, C, N, OmegaC)."""
    from .twisting import module_via_map

    og = cobar_map(g, OmegaC2, OmegaC)
    module = module_via_map(OmegaC2, OmegaC, og)
    return ExtendedBundle(
        monoid=OmegaC2,
        module=module,
        comodule=kernel.bundle.comodule,
        comonoid=C2,
        j=og,
        d=kernel.del_map,
        p=kernel.iota,
    )


def left_np_window(h: ChainMap, B: ChainAlgebra, B2: ChainAlgebra, BarB: ChainCoalgebra,
                   quotient: BorelQuotient) -> ExtendedBundle:
    """The shifted window (B -> B' -> B'//B -> Bar B) of the NP sequence of h,
    for ``quotient`` = borel_quotient(h, B, B2, N, BarB)."""
    from .twisting import module_via_map

    module = module_via_map(B, B2, h)
    return ExtendedBundle(
        monoid=B,
        module=module,
        comodule=quotient.bundle.comodule,
        comonoid=BarB,
        j=h,
        d=quotient.pi,
        p=quotient.delta,
    )


# ---------------------------------------------------------------------
# Closed-form bridges.  Pair decompositions come from the pair bases of the
# realized bundles (never from parsing names: word names may contain ⊗).
# ---------------------------------------------------------------------

def bridge_counit_ladder(theta: ExtendedBundle, wl: ExtendedBundle,
                         vB: ChainMap, vB2: ChainMap,
                         BarB: ChainCoalgebra) -> ExtendedBundleMorphism:
    """θ(Bar h) -> W_L(h) for h: B -> B', components (v_B, v_{B'}, 1⊗v_{B'}, id)
    on the kernel total Bar(B) ⊗ Cobar(Bar B')."""
    one = ChainMap.identity(BarB.complex)
    return ExtendedBundleMorphism(theta, wl, vB, vB2, tensor_map(one, vB2, theta.N, wl.N),
                                  one, label="counit-ladder")


# ---------------------------------------------------------------------
# Certificate builders.
# ---------------------------------------------------------------------

def rigid_normality_certificate(f: ChainMap, A: ChainAlgebra, A2: ChainAlgebra,
                                quotient_algebra: ChainAlgebra, pi_tilde: ChainMap, N: int, *,
                                BarA: ChainCoalgebra, BarA2: ChainCoalgebra,
                                quotient: BorelQuotient, quotient2: BorelQuotient):
    """The rigid route with normality structure g = Bar(π_f), given Bar A and
    Bar A' through N + 1 and the Borel quotients of f and of π_f.

    Verified hypotheses (HypothesisFailed otherwise): the supplied
    multiplication is a chain algebra, π_f is an algebra map for it,
    π̃ is a quasi-isomorphism and its left square π̃∘π_{π_f} = δ_f
    commutes.  The companion square Bar(f)∘π̃ = δ_{π_f} is checked and
    reported; it cannot hold strictly in this realization whenever Bar(f)
    is faithful (composite obstruction, docs/DECISIONS.md section 2), so the final
    arrow of the emitted zigzag fails verification honestly there.
    """
    q, q2, Q = quotient, quotient2, quotient_algebra

    ok, witnesses = verify_algebra(Q)
    if not ok:
        raise HypothesisFailed("algebra-structure", witnesses[:3])
    pi_f = q.pi
    if not is_algebra_map(pi_f, A2, Q):
        raise HypothesisFailed("algebra-map", "pi_f is not multiplicative for the supplied product")

    tau = truncated_np(f, A2, BarA, BarA2, q)
    wl = left_np_window(pi_f, A2, Q, BarA2, q2)

    OmegaBarA2 = cobar(BarA2, N)
    BarQ = bar(Q, N + 1)
    OmegaBarQ = cobar(BarQ, N)
    bpi = bar_map(pi_f, BarA2, BarQ)
    kernel = borel_kernel(bpi, BarA2, BarQ, N, OmegaBarQ)
    theta = truncated_dual_np(bpi, BarA2, OmegaBarA2, OmegaBarQ, kernel)
    vA2 = counit_map(A2, N, BarA2, OmegaBarA2)
    vQ = counit_map(Q, N, BarQ, OmegaBarQ)
    arrow1 = bridge_counit_ladder(theta, wl, vA2, vQ, BarA2)

    okq, _ = is_quasi_iso_through(pi_tilde, N - 1)
    if not okq:
        raise HypothesisFailed("pi-tilde-quasi-iso")
    left_ok = all(
        pi_tilde.compose(q2.pi).mat(n) == q.delta.mat(n) for n in range(N + 1)
    )
    if not left_ok:
        raise HypothesisFailed("left-square", "pi_tilde ∘ π_{π_f} ≠ δ_f")
    right_ok = all(
        tau.p.compose(pi_tilde).mat(n) == q2.delta.mat(n) for n in range(N + 1)
    )

    arrow2 = ExtendedBundleMorphism(
        wl, tau,
        ChainMap.identity(A2.complex),
        ChainMap.identity(q.bundle.total),
        pi_tilde,
        ChainMap.identity(BarA2.complex),
        label="rigid-projection",
    )
    cert = NormalPairCertificate(
        f_label=f"f:{A.name}->{A2.name}",
        g_label=f"Bar(pi_f):{BarA2.name}->{BarQ.name}",
        theta=theta,
        tau=tau,
        arrows=[("fwd", arrow1), ("fwd", arrow2)],
        notes=[
            "right square Bar(f)∘π̃ = δ_(π_f): "
            + ("holds" if right_ok else "fails strictly (see ledger)"),
        ],
    )
    return cert


def _quotient_algebra(q: BorelQuotient, A2: ChainAlgebra, name: str) -> ChainAlgebra:
    """A'//A = Bar A ⊗ A' with (w⊗a)·(w'⊗a') = (-1)^{|a||w'|} (w·w')⊗aa',
    w·w' the shuffle product on q's own Bar A (`hopf._pair_product`)."""
    total, Bar = q.bundle.total, q.bundle.comonoid
    return ChainAlgebra(total, tensor_name(Bar.coaug, A2.unit),
                        _pair_product(_shuffle_product(Bar.complex), A2.product, total), name=name)


def shuffle_quotient_algebra(A: ChainAlgebra, A2: ChainAlgebra, q: BorelQuotient) -> ChainAlgebra:
    """The shuffle product of Bar(A) tensored with that of A' on A'//A;
    requires graded-commutative inputs."""
    from .barcobar import is_graded_commutative

    if not (is_graded_commutative(A) and is_graded_commutative(A2)):
        raise NotCommutative("abelian route needs graded-commutative algebras")
    return _quotient_algebra(q, A2, f"{A2.name}//{A.name}")


def natural_quotient_projection(q: BorelQuotient, q2: BorelQuotient,
                                BarA: ChainCoalgebra) -> ChainMap:
    """(A'//A)//A' -> Bar A: (v ⊗ (w⊗a')) -> ε(v)·ε(a')·w in the realized
    coordinates (the proof's 'obvious projection')."""
    total = q2.bundle.total
    out = ChainMap(total, BarA.complex)
    pairs = q.bundle.total.basis.keys
    for name, ((dv, v), (dq, qname)) in total.basis.keys.items():
        if dv != 0:
            continue
        (dw, w), (da, a2) = pairs[qname]
        if da == 0:
            out.set_entry(dv + dq, name, w, 1)
    return out


def abelian_normality(f: ChainMap, A: ChainAlgebra, A2: ChainAlgebra, N: int):
    """Commutative algebras: shuffle multiplication on the Borel quotient
    plus the natural projection, fed to the rigid certificate builder."""
    BarA = bar(A, N + 1)
    BarA2 = bar(A2, N + 1)
    q = borel_quotient(f, A, A2, N, BarA)
    Q = shuffle_quotient_algebra(A, A2, q)
    q2 = borel_quotient(q.pi, A2, Q, N, BarA2)
    pi_tilde = natural_quotient_projection(q, q2, BarA)
    return rigid_normality_certificate(f, A, A2, Q, pi_tilde, N,
                                       BarA=BarA, BarA2=BarA2, quotient=q, quotient2=q2)


def unit_algebra_structure_on_quotient(q: BorelQuotient, A2: ChainAlgebra) -> ChainAlgebra:
    """For f = η: k -> A the quotient A//k = Bar(k)⊗A is A itself, []⊗a
    for each a; its product ([]⊗a)·([]⊗a') = []⊗aa' is that of
    `_quotient_algebra`, Bar(k) = k·[] holding only the unit."""
    return _quotient_algebra(q, A2, f"{A2.name}//k")


def chcx_unit_certificate(A: ChainAlgebra, N: int):
    """The extreme case f = η: k -> A (always h-normal).  Routed through the
    rigid builder with the quotient A//k carrying A's own multiplication."""
    from .fixtures import unit_algebra_map

    eta, k = unit_algebra_map(A)
    Bark = bar(k, N + 1)
    q = borel_quotient(eta, k, A, N, Bark)
    Q = unit_algebra_structure_on_quotient(q, A)
    BarA = bar(A, N + 1)
    q2 = borel_quotient(q.pi, A, Q, N, BarA)
    # π̃: (A//k)//A -> Bar(k) = k: the total augmentation
    pi_tilde = ChainMap(q2.bundle.total, Bark.complex)
    for name, ((dv, v), (dq, qname)) in q2.bundle.total.basis.keys.items():
        if dv == 0 and dq == 0:
            pi_tilde.set_entry(0, name, Bark.coaug, 1)
    return rigid_normality_certificate(eta, k, A, Q, pi_tilde, N,
                                       BarA=Bark, BarA2=BarA, quotient=q, quotient2=q2)


def chcx_identity_certificate(A: ChainAlgebra, N: int):
    """The extreme case f = id_A for commutative A (h-normal, structure the
    counit up to the equivalence Bar(EA) ~ k): the abelian route."""
    return abelian_normality(ChainMap.identity(A.complex), A, A, N)


# ---------------------------------------------------------------------
# Dual side: conormality hypotheses (the simplicial engine's chain mirror).
# ---------------------------------------------------------------------

def rigid_conormality_certificate(g: ChainMap, C2: ChainCoalgebra, C: ChainCoalgebra,
                                  kernel_coalgebra: ChainCoalgebra, iota_tilde: ChainMap,
                                  N: int, *, OmegaC2: ChainAlgebra, OmegaC: ChainAlgebra,
                                  kernel: BorelKernel, kernel2: BorelKernel):
    """Dual hypotheses for h-conormality of g with structure Cobar(ι_g), for
    ``kernel`` = borel_kernel(g, C2, C, N, OmegaC) and ``kernel2`` =
    borel_kernel(kernel.iota, kernel_coalgebra, C2, N, OmegaC2).

    Verifies: the supplied comultiplication on C\\C' is a chain coalgebra,
    ι_g is a coalgebra map for it, ι̃ is a quasi-isomorphism, and the
    strict square ι_{ι_g}∘ι̃ = ∂_g.  Emits the B1-bridge zigzag stub from
    θ(g); the remaining dual rigid arrow carries the mirrored strict-square
    obstruction (docs/DECISIONS.md, section 2), so the emitted certificate is
    partial and says so.
    """
    from .hopf import verify_coalgebra

    ok, witnesses = verify_coalgebra(kernel_coalgebra)
    if not ok:
        raise HypothesisFailed("coalgebra-structure", witnesses[:3])
    if not is_coalgebra_map(kernel.iota, kernel_coalgebra, C2):
        raise HypothesisFailed("coalgebra-map", "iota_g is not comultiplicative")
    okq, _ = is_quasi_iso_through(iota_tilde, N - 1)
    if not okq:
        raise HypothesisFailed("iota-tilde-quasi-iso")
    theta = truncated_dual_np(g, C2, OmegaC2, OmegaC, kernel)

    # strict square: ι_{ι_g} ∘ ι̃ = ∂_g (the half that does hold on the
    # simplicial side); here ι̃: ΩC -> C'\\(C\\C')
    right_ok = all(
        kernel2.iota.compose(iota_tilde).mat(n) == kernel.del_map.mat(n)
        for n in range(N + 1)
    )
    if not right_ok:
        raise HypothesisFailed("iota-square", "ι_{ι_g} ∘ ι̃ ≠ ∂_g")

    # B1 bridge: θ(g) -> W_L(Ωg) with components (id, id, u⊗1, u)
    og = cobar_map(g, OmegaC2, OmegaC)
    BarOmegaC2 = bar(OmegaC2, N)
    q = borel_quotient(og, OmegaC2, OmegaC, N, BarOmegaC2)
    wl = left_np_window(og, OmegaC2, OmegaC, BarOmegaC2, q)
    u = unit_map(C2, N, OmegaC2, BarOmegaC2)
    one = ChainMap.identity(OmegaC.complex)
    arrow1 = ExtendedBundleMorphism(
        theta, wl,
        ChainMap.identity(OmegaC2.complex),
        one,
        tensor_map(u, one, theta.N, wl.N), u, label="unit-ladder",
    )
    cert = NormalPairCertificate(
        f_label=f"Cobar(iota_g): partial", g_label=f"g:{C2.name}->{C.name}",
        theta=theta, tau=wl,  # partial: ends at the shifted window
        arrows=[("fwd", arrow1)],
        notes=["partial dual certificate: the remaining rigid arrow is "
               "obstructed strictly (dual of the normal-side ledger entry)"],
    )
    return cert


# ---------------------------------------------------------------------
# Trivial extensions.
# ---------------------------------------------------------------------

def permutation_chain_iso(X: ChainComplex, Y: ChainComplex, rename):
    """Basis bijection check: rename: (n, name) -> Y-name must be a
    degreewise bijection commuting with the differentials on the nose.
    Returns (ok, failure)."""
    phi = ChainMap(X, Y)
    for n in range(min(X.truncation, Y.truncation) + 1):
        if X.basis.dim(n) != Y.basis.dim(n):
            return False, {"reason": "dimension", "degree": n}
        seen = set()
        for name in X.basis.names(n):
            target = rename(n, name)
            if target is None or target in seen:
                return False, {"reason": "not-bijective", "degree": n, "name": name}
            seen.add(target)
            phi.set_entry(n, name, target, 1)
    ok, deg = phi.is_chain_map()
    if not ok:
        return False, {"reason": "differential-mismatch", "degree": deg}
    return True, None


def trivial_extension_check(A: ChainAlgebra, B: ChainAlgebra,
                            C: ChainCoalgebra, D: ChainCoalgebra, N: int):
    """Machine-checkable content of the trivial-extension statements.

    Normal side (A⊗η: A -> A⊗B): the Borel quotient (A⊗B)//A collapses to
    EA⊗B by an exact basis bijection, its homology is that of B (the middle
    weak equivalence), and the word-interleaving comparison map
    Bar A ⊗ Bar B -> Bar(A⊗B) is a chain quasi-isomorphism.  Conormal side
    (ε⊗D: C⊗D -> D) dually with D\\(C⊗D) ≅ C⊗PD and
    Cobar(C⊗D) -> Cobar C ⊗ Cobar D.  Returns (ok, report); HypothesisFailed
    when a collapse bijection cannot be built.
    """
    from .barcobar import milgram_bar_map, milgram_cobar_map
    from .complexes import homology, tensor_complex
    from .hopf import tensor_algebra_product, tensor_coalgebra_product

    report = {}

    # --- normal side -------------------------------------------------
    AB = tensor_algebra_product(A, B, through=N + 1)
    f = ChainMap(A.complex, AB.complex)
    for n in range(min(A.truncation, N + 1) + 1):
        for a in A.basis(n):
            f.set_entry(n, a, tensor_name(a, B.unit), 1)
    BarA = bar(A, N + 1)
    q = borel_quotient(f, A, AB, N, BarA)
    zetaA = twisted_bundle(BarA, A, couniversal_cochain(BarA, A), N)
    EAB = tensor_complex(zetaA.total, B.complex, N)

    q_pairs, ab_pairs = q.bundle.total.basis.keys, AB.complex.basis.keys

    def rename_quotient(n, name):
        (dw, w), (dab, ab) = q_pairs[name]
        (da, a), (db, b) = ab_pairs[ab]
        return tensor_name(tensor_name(w, a), b)

    ok_bij, fail = permutation_chain_iso(q.bundle.total, EAB, rename_quotient)
    if not ok_bij:
        raise HypothesisFailed("quotient-collapse", fail)
    report["quotient-collapse-bijection"] = True
    report["quotient-middle-equivalence"] = (
        homology(q.bundle.total, N - 1) == homology(B.complex, N - 1)
    )

    BarB = bar(B, N + 1)
    BarAB = bar(AB, N)
    TB = tensor_complex(BarA.complex, BarB.complex, N)
    nabla = milgram_bar_map(A, B, BarA, BarB, BarAB, TB)
    okc, _ = nabla.is_chain_map()
    report["milgram-bar-chain-map"] = okc
    okq, _ = is_quasi_iso_through(nabla, N - 1)
    report["milgram-bar-quasi-iso"] = okq
    report["bar-rank-hypothesis"] = homology(TB, N - 1) == homology(BarAB.complex, N - 1)

    # --- conormal side -----------------------------------------------
    CD = tensor_coalgebra_product(C, D, through=N + 1)
    cd_pairs = CD.complex.basis.keys
    g = ChainMap(CD.complex, D.complex)
    for name, ((dc, c), (dd, d)) in cd_pairs.items():
        if dc == 0:
            g.set_entry(dd, name, d, 1)
    OmegaD = cobar(D, N)
    k2 = borel_kernel(g, CD, D, N, OmegaD)
    xiD = twisted_bundle(D, OmegaD, universal_cochain(D, OmegaD), N)
    CPD = tensor_complex(C.complex, xiD.total, N)

    k2_pairs = k2.bundle.total.basis.keys

    def rename_kernel(n, name):
        (dcd, cd), (dw, w) = k2_pairs[name]
        (dc, c), (dd, d) = cd_pairs[cd]
        return tensor_name(c, tensor_name(d, w))

    ok_bij2, fail2 = permutation_chain_iso(k2.bundle.total, CPD, rename_kernel)
    if not ok_bij2:
        raise HypothesisFailed("kernel-collapse", fail2)
    report["kernel-collapse-bijection"] = True
    report["kernel-middle-equivalence"] = (
        homology(k2.bundle.total, N - 1) == homology(C.complex, N - 1)
    )

    OmegaC = cobar(C, N)
    OmegaCD = cobar(CD, N)
    TO = tensor_complex(OmegaC.complex, OmegaD.complex, N)
    qmap = milgram_cobar_map(C, D, N, OmegaCD, OmegaC, OmegaD, TO)
    okc2, _ = qmap.is_chain_map()
    report["milgram-cobar-chain-map"] = okc2
    okq2, _ = is_quasi_iso_through(qmap, N - 1)
    report["milgram-cobar-quasi-iso"] = okq2
    report["cobar-rank-hypothesis"] = homology(TO, N - 1) == homology(OmegaCD.complex, N - 1)

    ok = all(v is True for v in report.values())
    return ok, report
