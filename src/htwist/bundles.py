"""Classifying bundles, induced bundles, Borel quotients and kernels,
Nomura-Puppe sequences, the bundle-ladder comparison, and executable checks
of the twisting-structure and twisted-homotopical-category axioms.

Every bundle here is a twisted tensor product C ⊗_t A, built by
`twisted_bundle` from its cochain t on the pair basis {c ⊗ a}, with the
comonoid acting by splitting the left factor and the monoid by multiplying
into the right factor.  The induced bundles are the same construction on
the composed cochain: f_*(C ⊗_t A) = C ⊗_{f∘t} A' and g^*(C ⊗_t A) =
C' ⊗_{t∘g} A (docs/DECISIONS.md, section 16).  The twisting-structure
axioms then compare two such bundles as exact basis bijections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .barcobar import alpha_t, bar, bar_map, cobar, cobar_map, counit_map, unit_map
from .complexes import (
    ChainComplex,
    ChainMap,
    homology,
    _differing_columns,
    induced_zero_on_reduced_homology,
    is_quasi_iso_through,
    tensor_basis,
    tensor_map,
)
from .hopf import (
    ChainAlgebra,
    ChainCoalgebra,
    ComoduleStructure,
    ModuleStructure,
    _coaction_table,
    _comodule_map_failures,
    _module_map_failures,
    _right_factor_action,
    cofree_comodule_over,
    free_module_over,
)
from .sparse import SparseMatrix
from .twisting import (
    TwistingCochain,
    compose_cochain,
    couniversal_cochain,
    self_comodule_right,
    self_module_left,
    twisted_tensor,
    universal_cochain,
)


class NotCoprincipal(Exception):
    pass


class NotPrincipal(Exception):
    pass


class ShapeMismatch(Exception):
    pass


@dataclass
class MixedBundle:
    """A -> total -> C with compatible module/comodule structure, realized
    on the pair basis C ⊗ A of total."""

    monoid: ChainAlgebra
    comonoid: ChainCoalgebra
    total: ChainComplex
    inclusion: ChainMap          # i: A -> total, right A-module map
    projection: ChainMap         # p: total -> C, left C-comodule map
    module: ModuleStructure      # right action of monoid on total
    comodule: ComoduleStructure  # left coaction of comonoid on total
    cochain: TwistingCochain     # t, with total = C ⊗_t A
    kind: str

    @property
    def ring(self):
        return self.total.ring

    @property
    def truncation(self):
        return self.total.truncation


def twisted_bundle(C: ChainCoalgebra, A: ChainAlgebra, t: TwistingCochain, N: int,
                   kind: str = "") -> MixedBundle:
    """The biprincipal bundle (A -> C ⊗_t A -> C) in the standard realization:
    i(a) = coaug⊗a, p(c⊗a) = ε(a)·c, A acting freely on the right factor
    and C coacting cofreely on the left one."""
    total = twisted_tensor(self_comodule_right(C), self_module_left(A), t,
                           "comodule-first", N, verify=False).complex
    i, p = _standard_maps(C, A, total)
    return MixedBundle(A, C, total, i, p, free_module_over(A, C.complex, total),
                       cofree_comodule_over(C, A.complex, total), t, kind)


def _standard_maps(C: ChainCoalgebra, A: ChainAlgebra, total: ChainComplex):
    """(i, p) with i(a) = coaug⊗a and p(c⊗a) = ε(a)·c, written by index on
    the tensor_basis layout of total = C ⊗ A, where the block of degree n
    with |a| = 0 comes last."""
    R, cb, ab, tb = total.ring, C.complex.basis, A.complex.basis, total.basis
    e, u, a0 = cb.index(0, C.coaug), ab.index(0, A.unit), ab.dim(0)
    i = ChainMap(A.complex, total, {n: SparseMatrix(R, tb.dim(n), ab.dim(n), {
        (e * ab.dim(n) + j, j): R.one for j in range(ab.dim(n))})
        for n in range(min(A.truncation, total.truncation) + 1)})
    p = ChainMap(total, C.complex, {n: SparseMatrix(R, cb.dim(n), tb.dim(n), {
        (k, tb.dim(n) - (cb.dim(n) - k) * a0 + u): R.one for k in range(cb.dim(n))})
        for n in range(total.truncation + 1)})
    return i, p


def classifying_bundle_zeta(A: ChainAlgebra, N: int,
                            Bar: ChainCoalgebra | None = None) -> MixedBundle:
    """ζ(A) = (A -> Bar(A) ⊗_{t_Bar} A -> Bar(A)), the acyclic bar bundle."""
    B = Bar if Bar is not None else bar(A, N)
    t = couniversal_cochain(B, A)
    return twisted_bundle(B, A, t, N, kind=f"zeta({A.name})")


def classifying_bundle_xi(C: ChainCoalgebra, N: int,
                          Omega: ChainAlgebra | None = None) -> MixedBundle:
    """ξ(C) = (Cobar(C) -> C ⊗_{t_Ω} Cobar(C) -> C), the acyclic cobar bundle."""
    O = Omega if Omega is not None else cobar(C, N)
    t = universal_cochain(C, O)
    return twisted_bundle(C, O, t, N, kind=f"xi({C.name})")


# ---------------------------------------------------------------------
# Structure verification.
# ---------------------------------------------------------------------

def verify_mixed_bundle(b: MixedBundle):
    """i is a module map, p a comodule map, both chain maps, and the mixed
    compatibility λ(m·a) = λ(m)·a holds: the coaction λ: total -> C⊗total
    is a module map over id, A acting on the right factor of C⊗total."""
    N = b.truncation
    problems = []
    ok, deg = b.inclusion.is_chain_map()
    if not ok:
        problems.append({"check": "inclusion-chain", "degree": deg})
    ok, deg = b.projection.is_chain_map()
    if not ok:
        problems.append({"check": "projection-chain", "degree": deg})

    A, C = b.monoid, b.comonoid.complex
    one = ChainMap.identity(A.complex)
    problems += [{"check": "inclusion-module", "pair": (m, a)} for (_, m), (_, a) in
                 _module_map_failures(b.inclusion, one, A.product, b.module.act, N)]
    problems += [{"check": "projection-comodule", "element": key} for key in _comodule_map_failures(
        b.projection, ChainMap.identity(C), b.comodule.coact, b.comonoid.coproduct, N)]

    CT = ChainComplex(b.ring, tensor_basis(C, b.total, N))
    coaction = ChainMap(b.total, CT, {n: _coaction_table(b.comodule.coact.rows, C, b.total, n)
                                      for n in range(N + 1)})
    problems += [{"check": "mixed-compatibility", "pair": (m, a)} for (_, m), (_, a) in
                 _module_map_failures(coaction, one, b.module.act,
                                      _right_factor_action(C, b.module.act, CT), N)]
    return (not problems), problems


def verify_biprincipal(b: MixedBundle):
    """Principality in the free/cofree realization: i and p equal, degree by
    degree, the standard i(a) = coaug⊗a and p(c⊗a) = ε(a)·c of twisted_bundle."""
    i, p = _standard_maps(b.comonoid, b.monoid, b.total)
    problems = [{"check": "principal", "element": (n, b.monoid.basis(n)[j])}
                for n in range(min(b.monoid.truncation, b.truncation) + 1)
                for j in _differing_columns(b.inclusion.mat(n), i.mat(n))]
    problems += [{"check": "coprincipal", "element": b.total.basis.names(n)[j]}
                 for n in range(b.truncation + 1)
                 for j in _differing_columns(b.projection.mat(n), p.mat(n))]
    return (not problems), problems


# ---------------------------------------------------------------------
# Induced bundles: pushforward along algebra maps, pullback along
# coalgebra maps, both the twisted bundle of the composed cochain.
# ---------------------------------------------------------------------

def pushforward(f: ChainMap, bundle: MixedBundle, N: int,
                target_algebra: ChainAlgebra) -> MixedBundle:
    """f_*(bundle) = (A' -> total ⊗_A A' -> C) for f: A -> A'.

    Requires the coprincipal free realization total = C ⊗_t A; the result
    is C ⊗_{f∘t} A'."""
    ok, _ = verify_biprincipal(bundle)
    if not ok:
        raise NotCoprincipal(bundle.kind or "bundle")
    t = compose_cochain(None, bundle.cochain, f, target=target_algebra)
    return twisted_bundle(bundle.comonoid, target_algebra, t, N, f"pushforward({bundle.kind})")


def pullback(g: ChainMap, bundle: MixedBundle, N: int,
             source_coalgebra: ChainCoalgebra) -> MixedBundle:
    """g^*(bundle) = (A -> C' □_C total -> C') for g: C' -> C.

    Requires the principal cofree realization total = C ⊗_t A; the result
    is C' ⊗_{t∘g} A."""
    ok, _ = verify_biprincipal(bundle)
    if not ok:
        raise NotPrincipal(bundle.kind or "bundle")
    t = compose_cochain(g, bundle.cochain, None, source=source_coalgebra)
    return twisted_bundle(source_coalgebra, bundle.monoid, t, N, f"pullback({bundle.kind})")


def bundles_equal(b1: MixedBundle, b2: MixedBundle) -> bool:
    """Exact basis bijection: same pair names degreewise, same differential,
    inclusion and projection matrices."""
    return b1.total.basis.by_degree == b2.total.basis.by_degree and all(
        b1.total.dmat(n) == b2.total.dmat(n) and b1.inclusion.mat(n) == b2.inclusion.mat(n)
        and b1.projection.mat(n) == b2.projection.mat(n)
        for n in range(min(b1.truncation, b2.truncation) + 1))


@dataclass
class BundleMap:
    """(α, γ, β): componentwise map of mixed bundles."""

    alpha: ChainMap
    gamma: ChainMap
    beta: ChainMap

    def verify(self, src: MixedBundle, dst: MixedBundle, through: int):
        """Squares commute; returns (ok, report).  Weak equivalence is a
        separate check (see is_weak_equivalence)."""
        report = {}
        for nm, lhs, rhs in (("inclusion", self.gamma.compose(src.inclusion), dst.inclusion.compose(self.alpha)),
                             ("projection", self.beta.compose(src.projection), dst.projection.compose(self.gamma))):
            report[f"{nm}-square"] = all(lhs.mat(n) == rhs.mat(n) for n in range(through + 1))
        report["total-chain-map"] = self.gamma.is_chain_map()[0]
        return all(report.values()), report

    def is_weak_equivalence(self, through: int):
        out = {}
        for nm, f in (("alpha", self.alpha), ("gamma", self.gamma), ("beta", self.beta)):
            ok, _ = is_quasi_iso_through(f, through)
            out[nm] = ok
        return all(out.values()), out


def natural_map_to_pushforward(f: ChainMap, bundle: MixedBundle,
                               pushed: MixedBundle) -> BundleMap:
    """ζ -> f_*(ζ): (f, 1⊗f, id) in the free realization."""
    one = ChainMap.identity(bundle.comonoid.complex)
    return BundleMap(f, tensor_map(one, f, bundle.total, pushed.total), one)


def natural_map_from_pullback(g: ChainMap, pulled: MixedBundle,
                              bundle: MixedBundle) -> BundleMap:
    """g^*(ζ) -> ζ: (id, g⊗1, g) in the cofree realization."""
    one = ChainMap.identity(bundle.monoid.complex)
    return BundleMap(one, tensor_map(g, one, pulled.total, bundle.total), g)


# ---------------------------------------------------------------------
# Borel quotient / kernel and Nomura-Puppe sequences.
# ---------------------------------------------------------------------

@dataclass
class BorelQuotient:
    bundle: MixedBundle          # f_*(zeta(A)): (A' -> Bar(A)⊗A' -> Bar(A))
    pi: ChainMap                 # A' -> total
    delta: ChainMap              # total -> Bar(A)


def borel_quotient(f: ChainMap, A: ChainAlgebra, A2: ChainAlgebra, N: int,
                   Bar: ChainCoalgebra | None = None) -> BorelQuotient:
    """A'//A = Bar(A) ⊗_{f t_Bar} A' with π_f(a') = []⊗a', δ_f(w⊗a') = ε(a')w."""
    B = Bar if Bar is not None else bar(A, N)
    t = compose_cochain(None, couniversal_cochain(B, A), f, target=A2)
    bundle = twisted_bundle(B, A2, t, N, kind=f"borel({A.name}->{A2.name})")
    return BorelQuotient(bundle, bundle.inclusion, bundle.projection)


@dataclass
class BorelKernel:
    bundle: MixedBundle          # g^*(xi(C)): (ΩC -> C'⊗ΩC -> C')
    del_map: ChainMap            # ΩC -> total
    iota: ChainMap               # total -> C'


def borel_kernel(g: ChainMap, C2: ChainCoalgebra, C: ChainCoalgebra, N: int,
                 Omega: ChainAlgebra) -> BorelKernel:
    """C\\C' = C' ⊗_{t_Ω g} Cobar(C) with ∂_g(u) = 1⊗u, ι_g(c'⊗u) = ε(u)c',
    for ``Omega`` = cobar(C, N)."""
    t = compose_cochain(g, universal_cochain(C, Omega), None, source=C2)
    bundle = twisted_bundle(C2, Omega, t, N, kind=f"kernel({C2.name}->{C.name})")
    return BorelKernel(bundle, bundle.inclusion, bundle.projection)


def _verify_sequence(maps, middle: MixedBundle, composites, through: int):
    """Each of the four maps is a chain map, the middle bundle is
    biprincipal, and each composite of consecutive maps (named by
    ``composites``) is zero on reduced homology through ``through``."""
    report = {f"map{idx}-chain": m.is_chain_map()[0] for idx, m in enumerate(maps)}
    report["middle-biprincipal"] = verify_biprincipal(middle)[0]
    for nm, first, second in zip(composites, maps, maps[1:]):
        report[f"{nm}-null"] = induced_zero_on_reduced_homology(second.compose(first), through)
    return all(report.values()), report


@dataclass
class NomuraPuppe:
    """A -> A' -> A'//A -> Bar(A) -> Bar(A') with the three structure maps."""

    f: ChainMap
    quotient: BorelQuotient
    bar_f: ChainMap

    def maps(self):
        return [self.f, self.quotient.pi, self.quotient.delta, self.bar_f]

    def verify(self, through: int):
        return _verify_sequence(self.maps(), self.quotient.bundle,
                                ("pi∘f", "delta∘pi", "barf∘delta"), through)


def nomura_puppe(f: ChainMap, A: ChainAlgebra, A2: ChainAlgebra, N: int) -> NomuraPuppe:
    BarA = bar(A, N)
    BarA2 = bar(A2, N)
    q = borel_quotient(f, A, A2, N, BarA)
    bf = bar_map(f, BarA, BarA2)
    return NomuraPuppe(f, q, bf)


@dataclass
class DualNomuraPuppe:
    """ΩC' -> ΩC -> C\\C' -> C' -> C with the three structure maps."""

    g: ChainMap
    kernel: BorelKernel
    cobar_g: ChainMap

    def maps(self):
        return [self.cobar_g, self.kernel.del_map, self.kernel.iota, self.g]

    def verify(self, through: int):
        return _verify_sequence(self.maps(), self.kernel.bundle,
                                ("del∘cobarg", "iota∘del", "g∘iota"), through)


def dual_nomura_puppe(g: ChainMap, C2: ChainCoalgebra, C: ChainCoalgebra, N: int) -> DualNomuraPuppe:
    OmegaC2 = cobar(C2, N)
    OmegaC = cobar(C, N)
    k = borel_kernel(g, C2, C, N, OmegaC)
    og = cobar_map(g, OmegaC2, OmegaC)
    return DualNomuraPuppe(g, k, og)


# ---------------------------------------------------------------------
# The bundle-ladder comparison between Nomura-Puppe data and its dual.
# ---------------------------------------------------------------------

def amusing_comparison(f: ChainMap, A: ChainAlgebra, A2: ChainAlgebra, N: int):
    """Ladder (Cobar Bar A' -> Bar A'\\Bar A -> Bar A) over (A' -> A'//A -> Bar A).

    Builds the top row as (Bar f)^*(xi(Bar A')) and the bottom as f_*(zeta(A)),
    with verticals (v_{A'}, 1⊗v_{A'}, id); checks both squares as matrices and
    the two non-identity verticals as quasi-isomorphisms through N-1.

    The bar constructions are built one degree above N so that the cobar
    letters (hence the homology through N-1) are complete.
    """
    BarA = bar(A, N + 1)
    BarA2 = bar(A2, N + 1)
    bf = bar_map(f, BarA, BarA2)
    OmegaBarA2 = cobar(BarA2, N)
    xi_top = classifying_bundle_xi(BarA2, N, OmegaBarA2)
    top = pullback(bf, xi_top, N, BarA)

    tB = couniversal_cochain(BarA, A)
    t_bottom = compose_cochain(None, tB, f, target=A2)
    bottom = twisted_bundle(BarA, A2, t_bottom, N, kind="f_*zeta(A)")

    v = counit_map(A2, N, BarA2, OmegaBarA2)
    one = ChainMap.identity(BarA.complex)
    return _ladder_report(BundleMap(v, tensor_map(one, v, top.total, bottom.total), one),
                          top, bottom, N)


def _ladder_report(bmap: BundleMap, top: MixedBundle, bottom: MixedBundle, N: int):
    """Both squares of a bundle ladder as matrices, and its verticals as
    quasi-isomorphisms through N-1; (ok, report)."""
    ok_sq, squares = bmap.verify(top, bottom, N)
    ok_we, verts = bmap.is_weak_equivalence(N - 1)
    report = {
        "squares": squares,
        "verticals": verts,
        "top-kind": top.kind,
        "bottom-kind": bottom.kind,
    }
    return (ok_sq and ok_we), report


def amusing_comparison_dual(g: ChainMap, C2: ChainCoalgebra, C: ChainCoalgebra, N: int):
    """Dual ladder (ΩC -> C\\C' -> C') over (ΩC -> ΩC//ΩC' -> Bar ΩC'),
    verticals (id, u_{C'}⊗1, u_{C'}); checked and reported as in
    amusing_comparison."""
    OmegaC2 = cobar(C2, N)
    OmegaC = cobar(C, N)
    og = cobar_map(g, OmegaC2, OmegaC)
    top = borel_kernel(g, C2, C, N, OmegaC).bundle

    BarOmegaC2 = bar(OmegaC2, N)
    tB = couniversal_cochain(BarOmegaC2, OmegaC2)
    t_bottom = compose_cochain(None, tB, og, target=OmegaC)
    bottom = twisted_bundle(BarOmegaC2, OmegaC, t_bottom, N, kind="(Ωg)_*zeta(ΩC')")

    u = unit_map(C2, N, OmegaC2, BarOmegaC2)
    one = ChainMap.identity(OmegaC.complex)
    return _ladder_report(BundleMap(one, tensor_map(u, one, top.total, bottom.total), u),
                          top, bottom, N)


# ---------------------------------------------------------------------
# Twisting-structure axioms (exact basis bijections) and thc conditions.
# ---------------------------------------------------------------------

def _twist_axiom_1_sides(g: ChainMap, C: ChainCoalgebra, A: ChainAlgebra, N: int,
                         BarA: ChainCoalgebra) -> tuple[MixedBundle, MixedBundle]:
    """(g^*(zeta(A)), (g♭)_*(xi(C))) for a coalgebra map g: C -> BarA = Bar(A):
    C ⊗_{t_Bar∘g} A and C ⊗_{g♭∘t_Ω} A, with the transpose g♭ = v_A ∘
    Cobar(g) realized as α of the composed cochain."""
    OmegaC = cobar(C, N)
    zeta = classifying_bundle_zeta(A, N, BarA)
    left = pullback(g, zeta, N, C)
    t_flat = compose_cochain(g, couniversal_cochain(BarA, A), None, source=C)
    g_flat = alpha_t(t_flat, OmegaC, N)
    xi = classifying_bundle_xi(C, N, OmegaC)
    return left, pushforward(g_flat, xi, N, A)


def twist_axiom_1(g: ChainMap, C: ChainCoalgebra, A: ChainAlgebra, N: int, BarA: ChainCoalgebra):
    """g^*(zeta(A)) == (g♭)_*(xi(C)) for a coalgebra map g: C -> BarA = Bar(A),
    the two sides of `_twist_axiom_1_sides` compared as exact basis
    bijections."""
    left, right = _twist_axiom_1_sides(g, C, A, N, BarA)
    return bundles_equal(left, right), {"left": left, "right": right}


def twist_axiom_2(f: ChainMap, A: ChainAlgebra, A2: ChainAlgebra, N: int):
    """(Bar f)^*(zeta(A')) == f_*(zeta(A)): Bar(A) ⊗_{t_Bar'∘Bar f} A' and
    Bar(A) ⊗_{f∘t_Bar} A', compared as exact basis bijections."""
    BarA = bar(A, N)
    BarA2 = bar(A2, N)
    bf = bar_map(f, BarA, BarA2)
    zeta2 = classifying_bundle_zeta(A2, N, BarA2)
    left = pullback(bf, zeta2, N, BarA)
    zeta1 = classifying_bundle_zeta(A, N, BarA)
    right = pushforward(f, zeta1, N, A2)
    return bundles_equal(left, right), {"left": left, "right": right}


def twist_axiom_3(g: ChainMap, C2: ChainCoalgebra, C: ChainCoalgebra, N: int):
    """g^*(xi(C)) == (Cobar g)_*(xi(C')): C' ⊗_{t_Ω∘g} Cobar(C) and
    C' ⊗_{Cobar g∘t_Ω'} Cobar(C), compared as exact basis bijections."""
    OmegaC2 = cobar(C2, N)
    OmegaC = cobar(C, N)
    og = cobar_map(g, OmegaC2, OmegaC)
    xiC = classifying_bundle_xi(C, N, OmegaC)
    left = pullback(g, xiC, N, C2)
    xiC2 = classifying_bundle_xi(C2, N, OmegaC2)
    right = pushforward(og, xiC2, N, OmegaC)
    return bundles_equal(left, right), {"left": left, "right": right}


def pushforward_pullback_commute(f: ChainMap, g: ChainMap, bundle: MixedBundle,
                                 N: int, A2: ChainAlgebra, C2: ChainCoalgebra) -> bool:
    """f_* g^*(ζ) and g^* f_*(ζ) produce identical complexes."""
    one = pushforward(f, pullback(g, bundle, N, C2), N, A2)
    two = pullback(g, pushforward(f, bundle, N, A2), N, C2)
    return bundles_equal(one, two)


def is_classifiable(bundle: MixedBundle, g: ChainMap, A: ChainAlgebra, N: int, BarA: ChainCoalgebra):
    """bundle ≅ g^*(zeta(A)) for the candidate classifying map g: C -> BarA =
    Bar(A), checked as an exact basis bijection, plus the equivalent
    transpose form (g♭)_*(xi(C)): the two sides of twist_axiom_1."""
    if bundle.comonoid.complex.basis.by_degree != g.source.basis.by_degree:
        raise ShapeMismatch("candidate map must start at the bundle comonoid")
    left, right = _twist_axiom_1_sides(g, bundle.comonoid, A, N, BarA)
    direct = bundles_equal(bundle, left)
    transpose = bundles_equal(bundle, right)
    return (direct and transpose), {"direct": direct, "transpose": transpose}


def check_thc_axioms(fixtures: dict, N: int):
    """Conditions (1)-(6) of the twisted-homotopical-category compatibility,
    evaluated on a supplied fixture family.

    fixtures = {
      "coalgebras": [C, ...],            # for (1) unit side and (4)
      "algebras": [A, ...],              # for (1) counit side and (3)
      "algebra_quasi_isos": [(f, A, A2), ...],   # for (2) and (5)
      "coalgebra_quasi_isos": [(g, C2, C), ...], # for (2) and (6)
    }
    Returns (ok, per-condition report).  Scope note: (5)/(6) quantify over
    classifiable bundles; here they are checked on zeta(A)/xi-shaped
    fixtures only, and the report says so.
    """
    report = {"scope": "fixture family only (conditions 5/6 on classifying bundles)"}

    cond1 = {}
    for C in fixtures.get("coalgebras", []):
        O = cobar(C, N)
        BO = bar(O, N)
        u = unit_map(C, N, O, BO)
        ok, _ = is_quasi_iso_through(u, N - 1)
        cond1[f"unit:{C.name}"] = ok
    for A in fixtures.get("algebras", []):
        B = bar(A, N + 1)  # one extra degree keeps Cobar(Bar A) exact through N-1
        OB = cobar(B, N)
        v = counit_map(A, N, B, OB)
        ok, _ = is_quasi_iso_through(v, N - 1)
        cond1[f"counit:{A.name}"] = ok
    report["(1) unit/counit weak equivalences"] = cond1

    cond2 = {}
    for (f, A, A2) in fixtures.get("algebra_quasi_isos", []):
        BarA, BarA2 = bar(A, N), bar(A2, N)
        bf = bar_map(f, BarA, BarA2)
        ok, _ = is_quasi_iso_through(bf, N - 1)
        cond2[f"Bar({A.name}->{A2.name})"] = ok
    for (g, C2, C) in fixtures.get("coalgebra_quasi_isos", []):
        O2, O = cobar(C2, N), cobar(C, N)
        og = cobar_map(g, O2, O)
        ok, _ = is_quasi_iso_through(og, N - 1)
        cond2[f"Cobar({C2.name}->{C.name})"] = ok
    report["(2) Bar and Cobar homotopical"] = cond2

    cond3 = {}
    for A in fixtures.get("algebras", []):
        zeta = classifying_bundle_zeta(A, N)
        H = homology(zeta.total, N - 1)
        ok = H.by_degree[0] == (1, []) and all(
            H.by_degree[n] == (0, []) for n in range(1, N)
        )
        cond3[f"EA acyclic:{A.name}"] = ok
    report["(3) acyclicity of EA"] = cond3

    cond4 = {}
    for C in fixtures.get("coalgebras", []):
        xi = classifying_bundle_xi(C, N)
        H = homology(xi.total, N - 1)
        ok = H.by_degree[0] == (1, []) and all(
            H.by_degree[n] == (0, []) for n in range(1, N)
        )
        cond4[f"PC acyclic:{C.name}"] = ok
    report["(4) acyclicity of PC"] = cond4

    cond5 = {}
    for (f, A, A2) in fixtures.get("algebra_quasi_isos", []):
        zeta = classifying_bundle_zeta(A, N)
        pushed = pushforward(f, zeta, N, A2)
        bmap = natural_map_to_pushforward(f, zeta, pushed)
        ok_sq, _ = bmap.verify(zeta, pushed, N)
        ok_we, _ = bmap.is_weak_equivalence(N - 1)
        cond5[f"zeta->f_*zeta:{A.name}->{A2.name}"] = ok_sq and ok_we
    report["(5) pushforward along quasi-isos"] = cond5

    cond6 = {}
    for (g, C2, C) in fixtures.get("coalgebra_quasi_isos", []):
        xi = classifying_bundle_xi(C, N)
        pulled = pullback(g, xi, N, C2)
        bmap = natural_map_from_pullback(g, pulled, xi)
        ok_sq, _ = bmap.verify(pulled, xi, N)
        ok_we, _ = bmap.is_weak_equivalence(N - 1)
        cond6[f"g^*xi->xi:{C2.name}->{C.name}"] = ok_sq and ok_we
    report["(6) pullback along quasi-isos"] = cond6

    flat_ok = all(
        all(v.values()) if isinstance(v, dict) else True
        for k, v in report.items()
        if k != "scope"
    )
    return flat_ok, report
