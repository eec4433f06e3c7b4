"""The structure maps read by index against their name-level references.

(Co)module structures: each of the eight builders of `htwist.twisting` and
`htwist.hopf` answers by index (`Action.rows`, `Coaction.rows`); the
name-level builders of `structure_oracle` give the same structure through
`ChainMap.apply` and the name views of the (co)products.  Their tables
must be equal, over Q, Z and F_3: every pair m⊗a of each degree, the
columns of a unit or other degree-0 factor and of a degree-0 carrier
element included, and every element's coaction.  The cases are both
corpora, a Pontryagin algebra whose degree 0 holds more than the unit, a
shuffle algebra whose products have several terms, maps that are the
identity or rescale one basis element, and free and cofree modules on
pair bases.

Word maps: `barcobar._word_extension` finds each word's prefix by the block
arithmetic of `_word_blocks`; `construction_oracle.word_extension` slices
and looks the prefix up.  α_t, the counit, Bar(f)/Cobar(g) and the Milgram
map must have equal matrices, entries in the same order, on both corpora.
"""

import pytest

import construction_oracle
import structure_oracle as reference
from htwist import barcobar
from htwist.barcobar import (
    alpha_t,
    bar,
    bar_map,
    cobar,
    cobar_map,
    counit_map,
    milgram_cobar_map,
    shuffle_product_bar,
)
from htwist.chains import chains_of_simplicial_group
from htwist.complexes import ChainMap, tensor_basis, tensor_complex, tensor_name
from htwist.fixtures import algebra_corpus, coalgebra_corpus, sphere_coalgebra, table_product
from htwist.hopf import (
    ChainAlgebra,
    _action_table,
    _coaction_table,
    cofree_comodule_over,
    free_module_over,
    tensor_coalgebra_product,
)
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import cyclic_constant_group
from htwist.twisting import (
    comodule_via_map,
    couniversal_cochain,
    module_via_map,
    self_comodule_left,
    self_comodule_right,
    self_module_left,
    self_module_right,
    universal_cochain,
)

RINGS = [QQ, ZZ, GF(3)]
IDS = ["Q", "Z", "F3"]
N = 5


def shuffle_algebra(R):
    """Bar(Λx⊗Λy) with the shuffle product, whose products have several terms."""
    return shuffle_product_bar(algebra_corpus(R, N)[2], N)


def pontryagin(R):
    """C_*(C3) with its shuffle product: degree 0 holds three vertices."""
    G = cyclic_constant_group(3, N)
    C, table, _, _ = chains_of_simplicial_group(G, R, N - 1)
    return ChainAlgebra(C.complex, C.complex.basis.name_of(0, G.neutral(0)), table_product(C.complex, table))


def rescaled(X, n, k):
    """The identity of X with its k-th basis element of degree n doubled."""
    f = ChainMap.identity(X)
    f.mat(n).entries[k, k] = X.ring.of(2)
    return f


def name_action_table(act, M, A, n):
    """The action by name on every pair of degree n, columns in the order
    of tensor_basis(M, A)."""
    R, T = M.ring, tensor_basis(M, A, n)
    table = {}
    for p in range(n + 1):
        for m in M.basis.names(p):
            for a in A.basis.names(n - p):
                col = T.index(n, tensor_name(m, a))
                table.update(((M.basis.index(n, r), col), v) for r, v in act(p, m, n - p, a).items())
    return table


def assert_same_action(S, ref_act):
    M, A = S.carrier, S.algebra.complex
    for n in range(M.truncation + 1):
        assert _action_table(S.act.rows, M, A, n, 0).entries == name_action_table(ref_act, M, A, n), n


def coaction_table(terms, K, X, Y, n):
    """{(row of x⊗y in tensor_basis(X, Y), col): summed coeff} of ``terms(j,
    m)`` -> [((p, x), (q, y), coeff)] over the elements m = K_n[j]."""
    R, T, table = K.ring, tensor_basis(X, Y, n), {}
    for j, m in enumerate(K.basis.names(n)):
        for (_, x), (_, y), v in terms(j, m):
            ij = T.index(n, tensor_name(x, y)), j
            table[ij] = R.add(table.get(ij, R.zero), v)
    return {ij: v for ij, v in table.items() if v}


def assert_same_coaction(S, ref_coact):
    K, (X, Y) = S.carrier, (S.coact.X, S.coact.Y)
    xn, yn = X.basis.names, Y.basis.names
    for n in range(K.truncation + 1):
        by_index = coaction_table(lambda j, m: [((p, xn(p)[i]), (n - p, yn(n - p)[k]), v)
                                                for p, i, k, v in S.coact.rows(n, j)], K, X, Y, n)
        assert by_index == coaction_table(lambda j, m: ref_coact(n, m), K, X, Y, n), n
        if S.side == "left":
            assert _coaction_table(S.coact.rows, X, K, n).entries == by_index, n


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_module_builders_match_reference(R):
    for A in [*algebra_corpus(R, N), pontryagin(R), shuffle_algebra(R)]:
        X = A.complex
        assert_same_action(self_module_left(A), reference.self_module_left(A))
        assert_same_action(self_module_right(A), reference.self_module_right(A))
        for f in [ChainMap.identity(X)] + [rescaled(X, n, 0) for n in (1, 2, 3) if X.basis.dim(n)]:
            assert_same_action(module_via_map(A, A, f), reference.module_via_map(A, A, f))
        for Y in (sphere_coalgebra(R, N, 2).complex, X):
            carrier = tensor_complex(Y, X, N)
            assert_same_action(free_module_over(A, Y, carrier), reference.free_module_over(A, carrier))


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_comodule_builders_match_reference(R):
    for C in coalgebra_corpus(R, N):
        X = C.complex
        assert_same_coaction(self_comodule_left(C), reference.self_comodule(C))
        assert_same_coaction(self_comodule_right(C), reference.self_comodule(C))
        for g in [ChainMap.identity(X)] + [rescaled(X, n, 0) for n in (2, 3, 4) if X.basis.dim(n)]:
            assert_same_coaction(comodule_via_map(C, C, g), reference.comodule_via_map(C, g))
        for Y in (algebra_corpus(R, N)[2].complex, X):
            carrier = tensor_complex(X, Y, N)
            assert_same_coaction(cofree_comodule_over(C, Y, carrier), reference.cofree_comodule_over(C, carrier))


def test_unit_rule_at_degree_0_by_name_and_by_index():
    """Only the unit acts in degree 0, as the identity; the other vertices
    of the Pontryagin algebra act as 0, by name and by index alike."""
    P = pontryagin(QQ)
    S = self_module_right(P)
    vertices = P.basis(0)
    assert len(vertices) == 3
    for n in range(N):
        for i, m in enumerate(P.basis(n)):
            for j, a in enumerate(vertices):
                want = {m: QQ.one} if a == P.unit else {}
                assert S.act(n, m, 0, a) == want
                assert S.act.rows(n, i, 0, j) == [(P.complex.basis.index(n, m), QQ.one) for _ in want]


def word_maps(R):
    """(name, map) of the word-basis maps on the corpora at N."""
    for A in algebra_corpus(R, N):
        B = bar(A, N + 1)
        OB = cobar(B, N)
        yield f"counit {A.name}", counit_map(A, N, B, OB)
        yield f"alpha {A.name}", alpha_t(couniversal_cochain(B, A), OB, N)
        yield f"Bar(id) {A.name}", bar_map(ChainMap.identity(A.complex), B, B)
    for C in coalgebra_corpus(R, N):
        O = cobar(C, N)
        yield f"alpha {C.name}", alpha_t(universal_cochain(C, O), O, N)
        yield f"Cobar(2) {C.name}", cobar_map(rescaled(C.complex, 2, 0) if C.complex.basis.dim(2) else
                                              ChainMap.identity(C.complex), O, O)
    C, D = coalgebra_corpus(R, N)[0], coalgebra_corpus(R, N)[2]
    CD = tensor_coalgebra_product(C, D, through=N)
    OC, OD = cobar(C, N), cobar(D, N)
    yield "milgram", milgram_cobar_map(C, D, N, cobar(CD, N), OC, OD, tensor_complex(OC.complex, OD.complex, N))


@pytest.mark.parametrize("R", [QQ, ZZ, GF(5)], ids=["Q", "Z", "F5"])
def test_word_maps_match_the_slice_and_hash_reference(R, monkeypatch):
    new = dict(word_maps(R))
    monkeypatch.setattr(barcobar, "_word_extension", construction_oracle.word_extension)
    old = dict(word_maps(R))
    assert new.keys() == old.keys()
    for name, f in new.items():
        g = old[name]
        for n in range(f.source.truncation + 1):
            assert list(f.mat(n).entries.items()) == list(g.mat(n).entries.items()), (name, n)
            assert (f.mat(n).nrows, f.mat(n).ncols) == (g.mat(n).nrows, g.mat(n).ncols), (name, n)
