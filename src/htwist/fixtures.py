"""Standard small algebras and coalgebras used across the test corpus and
the CLI examples.  Every function builds a fresh object."""

from __future__ import annotations

from functools import cache

from ._structure_maps import Action, Coaction, _corows_by_name, _rows_by_name
from .complexes import ChainComplex, GradedBasis, tensor_name
from .hopf import ChainAlgebra, ChainCoalgebra, tensor_algebra_product, tensor_coalgebra_product
from .rings import QQ, Ring


def table_product(X: ChainComplex, table: dict) -> Action:
    """The product on X listed in ``table``, {((|a|, a), (|b|, b)): {name:
    coeff}}, read by index through X's basis; a pair not listed multiplies
    to 0."""
    R = X.ring
    table = {k: R.lincomb((r, R.of(v)) for r, v in combo.items()) for k, combo in table.items()}
    return Action(_rows_by_name(lambda da, a, db, b: table.get(((da, a), (db, b)), {}), X, X), X, X)


def table_coproduct(X: ChainComplex, coaug: str, table: dict) -> Coaction:
    """The coproduct on X whose reduced part is listed in ``table``, {(|c|,
    c): [((|c1|, c1), (|c2|, c2), coeff)]}, read by index through X's basis;
    an element not listed is primitive.  Δc is c⊗1 and 1⊗c, then the listed
    terms in their order, zero ones dropped; each is built once, when first
    read."""
    R = X.ring

    @cache
    def coproduct(n, c):
        full = [((n, c), (0, coaug), R.one), ((0, coaug), (n, c), R.one)]
        for k1, k2, coeff in table.get((n, c), ()):
            if v := R.of(coeff):
                full.append((k1, k2, v))
        return full

    return Coaction(_corows_by_name(coproduct, X, X, X), X, X, X)


def exterior(ring: Ring = QQ, N: int = 8, gen: str = "x") -> ChainAlgebra:
    """Exterior algebra on one generator of degree 1; x^2 = 0, d = 0."""
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"], 1: [gen]}))
    return ChainAlgebra(X, "1", table_product(X, {}), name=f"Λ({gen}1)")


def truncated_polynomial(ring: Ring = QQ, N: int = 8) -> ChainAlgebra:
    """k[x]/(x^3) with |x| = 2, d = 0."""
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"], 2: ["x"], 4: ["x^2"]}))
    return ChainAlgebra(X, "1", table_product(X, {((2, "x"), (2, "x")): {"x^2": 1}}), name=f"{ring}[x2]/(x^3)")


def acyclic_algebra(ring: Ring = QQ, N: int = 8) -> ChainAlgebra:
    """Commutative acyclic algebra E = <y2, z3 : dz = y>, positive products 0."""
    basis = GradedBasis(N, {0: ["1"], 2: ["y"], 3: ["z"]})
    X = ChainComplex(ring, basis)
    X.set_d_entry(3, "z", "y", 1)
    return ChainAlgebra(X, "1", table_product(X, {}), name="E")


def noncommutative_algebra(ring: Ring = QQ, N: int = 6) -> ChainAlgebra:
    """Two degree-1 generators with xy != 0 = yx: a noncommutativity probe."""
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"], 1: ["x", "y"], 2: ["xy"]}))
    return ChainAlgebra(X, "1", table_product(X, {((1, "x"), (1, "y")): {"xy": 1}}), name="NC")


def sphere_coalgebra(ring: Ring = QQ, N: int = 8, dim: int = 2) -> ChainCoalgebra:
    """H_*(S^dim): one primitive generator in degree dim >= 2, d = 0."""
    assert dim >= 2
    gen = f"c{dim}"
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"], dim: [gen]}))
    return ChainCoalgebra(X, "1", table_coproduct(X, "1", {}), name=f"H(S{dim})")


def dual_truncated_polynomial(ring: Ring = QQ, N: int = 8) -> ChainCoalgebra:
    """Linear dual of k[x2]/(x^3): divided-power pattern Δ̄γ2 = γ1⊗γ1."""
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"], 2: ["g1"], 4: ["g2"]}))
    return ChainCoalgebra(X, "1", table_coproduct(X, "1", {(4, "g2"): [((2, "g1"), (2, "g1"), 1)]}),
                          name="(k[x2]/(x^3))^")


def coacyclic_coalgebra(ring: Ring = QQ, N: int = 8) -> ChainCoalgebra:
    """1-connected coacyclic coalgebra F = <u2, v3 : dv = u>, primitives."""
    basis = GradedBasis(N, {0: ["1"], 2: ["u"], 3: ["v"]})
    X = ChainComplex(ring, basis)
    X.set_d_entry(3, "v", "u", 1)
    return ChainCoalgebra(X, "1", table_coproduct(X, "1", {}), name="F")


def exterior_pair(ring: Ring = QQ, N: int = 8) -> ChainAlgebra:
    """Λ(x1) ⊗ Λ(y1)."""
    return tensor_algebra_product(exterior(ring, N, "x"), exterior(ring, N, "y"), through=N)


def algebra_corpus(ring: Ring = QQ, N: int = 8):
    """Six standing algebra fixtures (acceptance criterion 1)."""
    return [
        exterior(ring, N, "x"),
        truncated_polynomial(ring, N),
        exterior_pair(ring, N),
        acyclic_algebra(ring, N),
        tensor_algebra_product(exterior(ring, N, "x"), acyclic_algebra(ring, N), through=N),
        noncommutative_algebra(ring, min(N, 6)),
    ]


def coalgebra_corpus(ring: Ring = QQ, N: int = 8):
    """Four standing coalgebra fixtures (acceptance criterion 1)."""
    return [
        sphere_coalgebra(ring, N, 2),
        sphere_coalgebra(ring, N, 3),
        dual_truncated_polynomial(ring, N),
        tensor_coalgebra_product(sphere_coalgebra(ring, N, 2), coacyclic_coalgebra(ring, N), through=N),
    ]


def trivial_algebra(ring: Ring = QQ, N: int = 8) -> ChainAlgebra:
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"]}))
    return ChainAlgebra(X, "1", table_product(X, {}), name="k")


def trivial_coalgebra(ring: Ring = QQ, N: int = 8) -> ChainCoalgebra:
    X = ChainComplex(ring, GradedBasis(N, {0: ["1"]}))
    return ChainCoalgebra(X, "1", table_coproduct(X, "1", {}), name="k")


def unit_algebra_map(A: ChainAlgebra):
    """η: k -> A as a ChainMap, together with the trivial algebra."""
    from .complexes import ChainMap

    k = trivial_algebra(A.ring, A.truncation)
    f = ChainMap(k.complex, A.complex)
    f.set_entry(0, "1", A.unit, 1)
    return f, k


def augmentation_algebra_map(A: ChainAlgebra):
    """ε: A -> k as a ChainMap, together with the trivial algebra."""
    from .complexes import ChainMap

    k = trivial_algebra(A.ring, A.truncation)
    f = ChainMap(A.complex, k.complex)
    f.set_entry(0, A.unit, "1", 1)
    return f, k


def acyclic_extension_inclusion(A: ChainAlgebra, N: int):
    """Quasi-isomorphism of algebras A -> A ⊗ E with E acyclic."""
    from .complexes import ChainMap
    from .hopf import tensor_algebra_product

    E = acyclic_algebra(A.ring, N)
    AE = tensor_algebra_product(A, E, through=N)
    f = ChainMap(A.complex, AE.complex)
    for n in range(min(A.truncation, N) + 1):
        for a in A.basis(n):
            f.set_entry(n, a, f"{a}⊗1", 1)
    return f, AE


def coacyclic_collapse(C: ChainCoalgebra, N: int):
    """Quasi-isomorphism of coalgebras C ⊗ F -> C with F coacyclic."""
    from .complexes import ChainMap
    from .hopf import tensor_coalgebra_product

    F = coacyclic_coalgebra(C.ring, N)
    CF = tensor_coalgebra_product(C, F, through=N)
    g = ChainMap(CF.complex, C.complex)
    for n in range(min(C.truncation, CF.truncation) + 1):
        for c in C.basis(n):
            g.set_entry(n, tensor_name(c, F.coaug), c, 1)
    return g, CF
