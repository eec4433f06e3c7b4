"""Twisting cochains, their Maurer-Cartan verification, the universal and
couniversal examples, and twisted tensor products with the D_t differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .barcobar import bar_word_name, cobar_word_name
from .complexes import ChainComplex, ChainMap, _tensor_offsets, _tensor_terms, tensor_basis
from .hopf import ChainAlgebra, ChainCoalgebra, ComoduleStructure, Key, ModuleStructure, _sign


class NotATwistingCochain(Exception):
    pass


class StructureMismatch(Exception):
    pass


class CompositionMismatch(Exception):
    pass


class TwistingCochain:
    """Degree -1 map t: C -> A, stored per basis element of C."""

    def __init__(self, source: ChainCoalgebra, target: ChainAlgebra, name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        # (deg, name in C) -> {name in A of degree deg-1: coeff}
        self.values: dict[Key, dict[str, object]] = {}

    @property
    def ring(self):
        return self.source.ring

    def set_value(self, dc: int, c: str, combo: dict[str, object]):
        R = self.ring
        clean = R.lincomb((k, R.of(v)) for k, v in combo.items())
        if clean:
            self.values[(dc, c)] = clean
        else:
            self.values.pop((dc, c), None)

    def value(self, dc: int, c: str) -> dict[str, object]:
        return self.values.get((dc, c), {})


def verify_twisting_cochain(t: TwistingCochain, through: int | None = None):
    """Check dt + td = m(t⊗t)Δ on every basis element; (ok, witnesses)."""
    C, A, R = t.source, t.target, t.ring
    N = min(C.truncation, A.truncation + 1)
    if through is not None:
        N = min(N, through)
    witnesses = []
    if t.value(0, C.coaug):
        witnesses.append({"element": (0, C.coaug), "reason": "nonzero on coaugmentation"})
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
    """t_Ω: C -> Cobar(C), c -> s-1(c)  (0 on the coaugmentation)."""
    t = TwistingCochain(C, Omega, name="t_Omega")
    for n in range(2, C.truncation + 1):
        for c in C.basis(n):
            name = cobar_word_name(((n, c),))
            if n - 1 <= Omega.truncation:
                t.set_value(n, c, {name: 1})
    return t


def couniversal_cochain(Bar: ChainCoalgebra, A: ChainAlgebra) -> TwistingCochain:
    """t_Bar: Bar(A) -> A: s(a) -> a on one-letter words, 0 on longer ones."""
    t = TwistingCochain(Bar, A, name="t_Bar")
    for n in range(1, A.truncation + 1):
        for a in A.basis(n):
            name = bar_word_name(((n, a),))
            if n + 1 <= Bar.truncation:
                t.set_value(n + 1, name, {a: 1})
    return t


def compose_cochain(g: ChainMap | None, t: TwistingCochain, f: ChainMap | None,
                    source: ChainCoalgebra | None = None,
                    target: ChainAlgebra | None = None) -> TwistingCochain:
    """f ∘ t ∘ g for a coalgebra map g: C' -> C and algebra map f: A -> A'."""
    C2 = source if source is not None else t.source
    A2 = target if target is not None else t.target
    if g is not None and g.target.basis is not t.source.complex.basis:
        raise CompositionMismatch("g must land in the cochain source")
    if f is not None and f.source.basis is not t.target.complex.basis:
        raise CompositionMismatch("f must start at the cochain target")
    R = t.ring
    out = TwistingCochain(C2, A2, name=f"({t.name} composed)")
    for n in range(1, C2.truncation + 1):
        if g is not None:
            gn, index, names = g.mat(n), g.source.basis.index, g.target.basis.names(n)
        if f is not None:
            fn, below, images = f.mat(n - 1), f.source.basis.index, f.target.basis.names(n - 1)
        for c in C2.basis(n):
            pre = ({names[r]: v for r, v in gn.column(index(n, c)).items()} if g is not None
                   else {c: R.one})
            mid = R.lincomb((a, v * w) for c1, v in pre.items() for a, w in t.value(n, c1).items())
            if f is not None:
                mid = R.lincomb((images[r], v * w) for a, v in mid.items()
                                for r, w in fn.column(below(n - 1, a)).items())
            out.set_value(n, c, mid)
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
    cnames, aindex = P.coalgebra.basis, M.algebra.complex.basis.index
    twist = {}
    for n in range(N + 1):
        for i in range(P.carrier.basis.dim(n)):
            for p, k1, k2, v in P.coact.rows(n, i):
                (dc, c), (de, e2) = ((p, k1), (n - p, k2)) if P.side == "left" else ((n - p, k2), (p, k1))
                twist.setdefault((n, i), []).extend(
                    (de, e2, dc - 1, aindex(dc - 1, a), v * x) for a, x in t.value(dc, cnames(dc)[c]).items())
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
