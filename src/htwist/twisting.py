"""Twisting cochains, their Maurer-Cartan verification, the universal and
couniversal examples, and twisted tensor products with the D_t differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .barcobar import _letters_of
from .complexes import ChainComplex, ChainMap, _tensor_offsets, _tensor_terms, tensor_basis
from .hopf import ChainAlgebra, ChainCoalgebra, ComoduleStructure, ModuleStructure, _sign
from .sparse import SparseMatrix


class NotATwistingCochain(Exception):
    pass


class StructureMismatch(Exception):
    pass


class CompositionMismatch(Exception):
    pass


class TwistingCochain:
    """Degree -1 map t: C -> A held by basis index: ``components[n]`` is the
    matrix from C_n to A_{n-1}, and a degree with none is zero.  ``value``
    and ``set_value`` read and write it by name."""

    def __init__(self, source: ChainCoalgebra, target: ChainAlgebra, name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        self.components: dict[int, SparseMatrix] = {}

    @property
    def ring(self):
        return self.source.ring

    def mat(self, n: int) -> SparseMatrix:
        if n in self.components:
            return self.components[n]
        return SparseMatrix(self.ring, self.target.complex.basis.dim(n - 1), self.source.complex.basis.dim(n))

    def set_value(self, dc: int, c: str, combo: dict[str, object]):
        """Replace t(c) by ``combo``, {name in A of degree dc - 1: coeff}."""
        R, m = self.ring, self.components.setdefault(dc, self.mat(dc))
        j, index = self.source.complex.basis.index(dc, c), self.target.complex.basis.index
        for ij in [ij for ij in m.entries if ij[1] == j]:
            m[ij] = R.zero
        for a, v in R.lincomb((a, R.of(v)) for a, v in combo.items()).items():
            m[index(dc - 1, a), j] = v

    def value(self, dc: int, c: str) -> dict[str, object]:
        """t(c) by name, {name in A of degree dc - 1: coeff}."""
        names = self.target.basis(dc - 1)
        return {names[r]: v for r, v in self.mat(dc).column(self.source.complex.basis.index(dc, c)).items()}


def verify_twisting_cochain(t: TwistingCochain, through: int | None = None):
    """Check dt + td = m(t⊗t)Δ on every basis element; (ok, witnesses)."""
    C, A, R = t.source, t.target, t.ring
    N = min(C.truncation, A.truncation + 1)
    if through is not None:
        N = min(N, through)
    witnesses = []
    for n in range(1, N + 1):
        for c in C.basis(n):
            # d_A(t(c)) + t(d_C(c))
            lhs = R.lincomb([
                *((a2, v * w) for a, v in t.value(n, c).items()
                  for a2, w in A.complex.d_of(n - 1, a).items()),
                *((a, v * w) for c2, v in C.complex.d_of(n, c).items()
                  for a, w in t.value(n - 1, c2).items()),
            ])
            # m(t⊗t)Δ(c): Koszul sign (-1)^{|c1|} from moving t past c1; each
            # t(c1)·t(c2) is summed on its own, which fixes the order of the
            # witness terms
            rhs = R.lincomb((r, _sign(R, d1) * v * w)
                            for (d1, c1), (d2, c2), v in C.reduced_coproduct(n, c)
                            for r, w in R.lincomb(
                                (r, x * y * z) for a, x in t.value(d1, c1).items()
                                for b, y in t.value(d2, c2).items()
                                for r, z in A.product(d1 - 1, a, d2 - 1, b).items()).items())
            if lhs != rhs:
                witnesses.append({"element": (n, c), "lhs": lhs, "rhs": rhs})
    return (not witnesses), witnesses


def universal_cochain(C: ChainCoalgebra, Omega: ChainAlgebra) -> TwistingCochain:
    """t_Ω: C -> Cobar(C), c -> s-1(c)  (0 on the coaugmentation): the
    letters (|c|, c) open each degree of Ω in order, so s-1(c) is row i of
    Ω_{|c|-1} for the i-th letter."""
    t = TwistingCochain(C, Omega, name="t_Omega")
    R, index, dim = C.ring, C.complex.basis.index, Omega.complex.basis.dim
    for d, run in _letters_of(Omega.complex.basis, Omega.truncation).items():
        t.components[d + 1] = SparseMatrix(R, dim(d), C.complex.basis.dim(d + 1),
                                           {(i, index(n, c)): R.one for i, (n, c) in enumerate(run)})
    return t


def couniversal_cochain(Bar: ChainCoalgebra, A: ChainAlgebra) -> TwistingCochain:
    """t_Bar: Bar(A) -> A: s(a) -> a on one-letter words, 0 on longer ones:
    the letters (|a|, a) open each degree of Bar(A) in order, so s(a) is
    column i of Bar_{|a|+1} for the i-th letter."""
    t = TwistingCochain(Bar, A, name="t_Bar")
    R, index, dim = A.ring, A.complex.basis.index, Bar.complex.basis.dim
    for d, run in _letters_of(Bar.complex.basis, Bar.truncation).items():
        t.components[d] = SparseMatrix(R, A.complex.basis.dim(d - 1), dim(d),
                                       {(index(n, a), i): R.one for i, (n, a) in enumerate(run)})
    return t


def compose_cochain(g: ChainMap | None, t: TwistingCochain, f: ChainMap | None,
                    source: ChainCoalgebra | None = None,
                    target: ChainAlgebra | None = None) -> TwistingCochain:
    """f ∘ t ∘ g for a coalgebra map g: C' -> C and algebra map f: A -> A':
    f_{n-1} @ t_n @ g_n in each degree n, a missing f or g the identity;
    the result shares no matrix with t."""
    C2 = source if source is not None else t.source
    A2 = target if target is not None else t.target
    if g is not None and g.target.basis is not t.source.complex.basis:
        raise CompositionMismatch("g must land in the cochain source")
    if f is not None and f.source.basis is not t.target.complex.basis:
        raise CompositionMismatch("f must start at the cochain target")
    out = TwistingCochain(C2, A2, name=f"({t.name} composed)")
    for n in range(1, C2.truncation + 1):
        m = t.mat(n).copy() if g is None else t.mat(n) @ g.mat(n)
        out.components[n] = m if f is None else f.mat(n - 1) @ m
    return out


@dataclass
class TwistedTensorProduct:
    complex: ChainComplex
    comodule: ComoduleStructure
    module: ModuleStructure
    cochain: TwistingCochain


def twisted_tensor(P: ComoduleStructure, M: ModuleStructure, t: TwistingCochain,
                   orientation: str, N: int, verify: bool = True) -> TwistedTensorProduct:
    """Twisted tensor product with differential d⊗1 + 1⊗d + twist term.

    orientation "module-first": total = M ⊗ P-carrier, M a right A-module,
    P a left C-comodule; twist(m⊗n) = Σ (-1)^{|m|} m·t(c) ⊗ n'.

    orientation "comodule-first": total = P-carrier ⊗ M, P a right
    C-comodule, M a left A-module; twist(p⊗m) = Σ (-1)^{|p'|} p' ⊗ t(c)·m.
    """
    if orientation not in ("module-first", "comodule-first"):
        raise ValueError(orientation)
    if P.coalgebra is not t.source:
        raise StructureMismatch("comodule is not over the cochain source")
    if M.algebra is not t.target:
        raise StructureMismatch("module is not over the cochain target")
    if verify:
        ok, w = verify_twisting_cochain(t)
        if not ok:
            raise NotATwistingCochain(str(w[:1]))
    R = t.ring
    if orientation == "module-first":
        if M.side != "right" or P.side != "left":
            raise StructureMismatch("module-first needs a right module and a left comodule")
        left_cx, right_cx = M.carrier, P.carrier
    else:
        if P.side != "right" or M.side != "left":
            raise StructureMismatch("comodule-first needs a right comodule and a left module")
        left_cx, right_cx = P.carrier, M.carrier

    # The twist term.  The relative sign between the two orientations is
    # forced: D_t^2 = 0 must be equivalent to the Maurer-Cartan identity,
    # and the t-operator crosses the surviving tensor factor on opposite
    # sides (tested both ways on fixtures with nontrivial quadratic terms).
    # twist[n, i] holds (|e'|, index of e', |a|, index of a, v·x) for each
    # term v c⊗e' or v e'⊗c of the coaction of comod_n[i] and each term x a
    # of t(c).
    tcols, twist = cache(lambda d: t.mat(d).columns()), {}
    for n in range(N + 1):
        for i in range(P.carrier.basis.dim(n)):
            for p, k1, k2, v in P.coact.rows(n, i):
                (dc, c), (de, e2) = ((p, k1), (n - p, k2)) if P.side == "left" else ((n - p, k2), (p, k1))
                twist.setdefault((n, i), []).extend(
                    (de, e2, dc - 1, a, v * x) for a, x in tcols(dc).get(c, {}).items())
    off, ny = _tensor_offsets(left_cx, right_cx, N), right_cx.basis.dim
    act = cache(M.act.rows)  # (row, coeff) of m·a (right) or a·m (left)

    if orientation == "module-first":
        def twist_terms(n, p, i, j):
            # λ(y) = Σ c ⊗ y2;  m⊗y -> (-1)^{|m|} (m·t(c)) ⊗ y2
            for dy, j2, da, a, v in twist.get((n - p, j), ()):
                for r, w in act(p, i, da, a):
                    yield off[n - 1][p + da] + r * ny(dy) + j2, (-v if p % 2 else v) * w
    else:
        def twist_terms(n, p, i, j):
            # ρ(x) = Σ x2 ⊗ c;  x⊗m -> -(-1)^{|x2|} x2 ⊗ (t(c)·m)
            q = n - p
            for dx, i2, da, a, v in twist.get((p, i), ()):
                for r, w in act(q, j, da, a):
                    yield off[n - 1][dx] + i2 * ny(q + da) + r, (v if dx % 2 else -v) * w

    Z = ChainComplex(R, tensor_basis(left_cx, right_cx, N))
    Z._set_d(_tensor_terms(left_cx, right_cx, off, twist_terms))
    return TwistedTensorProduct(Z, P, M, t)


# ---------------------------------------------------------------------
# Canonical (co)module structures used by the classifying bundles.
# ---------------------------------------------------------------------

def self_comodule_right(C: ChainCoalgebra) -> ComoduleStructure:
    """C as a right comodule over itself via Δ (back part is the C-part)."""
    return ComoduleStructure(C, C.complex, "right", C.coproduct.rows)


def self_comodule_left(C: ChainCoalgebra) -> ComoduleStructure:
    return ComoduleStructure(C, C.complex, "left", C.coproduct.rows)


def self_module_left(A: ChainAlgebra) -> ModuleStructure:
    rows = A.product.rows
    return ModuleStructure(A, A.complex, "left", lambda dm, i, da, j: rows(da, j, dm, i))


def self_module_right(A: ChainAlgebra) -> ModuleStructure:
    return ModuleStructure(A, A.complex, "right", A.product.rows)


def comodule_via_map(C: ChainCoalgebra, carrier_coalgebra: ChainCoalgebra,
                     g: ChainMap) -> ComoduleStructure:
    """carrier as a left C-comodule via a coalgebra map g: carrier -> C,
    λ = (g⊗1)Δ: each term of the carrier's coproduct rows, its first factor
    through column i of g."""
    R, coproduct = C.ring, carrier_coalgebra.coproduct.rows

    def rows(n, j):
        return [(p, r, k, R.mul(v, w)) for p, i, k, v in coproduct(n, j)
                for r, w in g.mat(p).column(i).items()]

    return ComoduleStructure(C, carrier_coalgebra.complex, "left", rows)


def module_via_map(A: ChainAlgebra, carrier_algebra: ChainAlgebra,
                   f: ChainMap) -> ModuleStructure:
    """carrier as a right A-module via an algebra map f: A -> carrier,
    m·a = m·f(a): column j of f against the carrier's product rows."""
    R, product = A.ring, carrier_algebra.product.rows

    def rows(dm, i, da, j):
        return list(R.lincomb((r, v * w) for b, v in f.mat(da).column(j).items()
                              for r, w in product(dm, i, da, b)).items())

    return ModuleStructure(A, carrier_algebra.complex, "right", rows)
