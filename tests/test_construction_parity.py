"""The index-written construction differentials against the name-by-name
reference builds of `construction_oracle`: equal d_n (same shape, same
entries) for bar and cobar of the algebra and coalgebra corpora over Q, Z
and F_5, for tensor complexes, for twisted tensor products in both
orientations, for the pushforward and pullback totals of
`tests/test_bundles.py`, and for normalized chains.  The words of bar and
cobar, enumerated block by block, against the oracle's sort-based
enumeration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import construction_oracle as reference
from htwist.barcobar import _enumerate_words, bar, cobar
from htwist.bundles import classifying_bundle_xi, classifying_bundle_zeta, pullback, pushforward
from htwist.chains import normalized_chains
from htwist.complexes import ChainMap, tensor_complex
from htwist.fixtures import (
    acyclic_extension_inclusion,
    algebra_corpus,
    augmentation_algebra_map,
    coacyclic_collapse,
    coalgebra_corpus,
    exterior,
    exterior_pair,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import boundary_delta2, cyclic_constant_group, universal_bundle
from htwist.twisting import (
    couniversal_cochain,
    self_comodule_left,
    self_comodule_right,
    self_module_left,
    self_module_right,
    twisted_tensor,
    universal_cochain,
)

N = 6
RINGS = [QQ, ZZ, GF(5)]
RING_IDS = ["Q", "Z", "F5"]


def assert_same_d(new, old):
    assert new.ring == old.ring and new.truncation == old.truncation
    for n in range(new.truncation + 1):
        assert new.basis.names(n) == old.basis.names(n)
    for n in range(1, new.truncation + 1):
        a, b = new.dmat(n), old.dmat(n)
        assert (a.nrows, a.ncols) == (b.nrows, b.ncols), n
        assert a.entries == b.entries, n


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_bar_and_cobar_match_reference(R):
    for A in algebra_corpus(R, N):
        assert_same_d(bar(A, N).complex, reference.bar_complex(A, N))
    for C in coalgebra_corpus(R, N):
        assert_same_d(cobar(C, N).complex, reference.cobar_complex(C, N))


def _letters(pool):
    """A pool of (letter, marked degree) pairs as `_enumerate_words` takes
    it: marked degree -> letters in name order, degrees ascending."""
    letters = {}
    for key, d in sorted(pool, key=lambda kd: (kd[1], kd[0][1])):
        letters.setdefault(d, []).append(key)
    return letters


def _words(pool, N):
    """The words `_enumerate_words` yields over ``pool``, by degree, after
    checking that each block holds the words of its composition."""
    marked = dict(pool)
    words = {0: [()]}
    for n, blocks in _enumerate_words(_letters(pool), N):
        for parts, block in blocks:
            assert sum(parts) == n and block
            assert all(tuple(map(marked.get, w)) == parts for w in block)
        words[n] = [w for _, block in blocks for w in block]
    return words


def _basis_words(X):
    basis = X.complex.basis
    return {n: [basis.keys[x] for x in basis.names(n)] for n in basis.degrees()}


@pytest.mark.parametrize("N", [5, 9])
@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_word_enumeration_matches_the_sort(R, N):
    for A in algebra_corpus(R, N):
        pool = [((n, x), n + 1) for n in range(1, min(A.truncation, N - 1) + 1) for x in A.basis(n)]
        words = reference.enumerate_words(pool, N)
        assert _words(pool, N) == words
        assert _basis_words(bar(A, N)) == words
    for C in coalgebra_corpus(R, N):
        pool = [((n, x), n - 1) for n in range(2, min(C.truncation, N + 1) + 1) for x in C.basis(n)]
        words = reference.enumerate_words(pool, N)
        assert _words(pool, N) == words
        assert _basis_words(cobar(C, N)) == words


@st.composite
def letter_pools(draw):
    """Letters x0..x12 in marked degrees 1-4, so that name order puts x10
    before x2; x2 and x10 are always letters, and x2 in two degrees when
    there are two.  The pool comes in a drawn order."""
    shift = draw(st.sampled_from([1, -1]))
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    pool = []
    for i, d in enumerate(degrees):
        names = {f"x{k}" for k in draw(st.lists(st.integers(0, 12), max_size=2))}
        names |= {"x2", "x10"} if i == 0 else {"x2"} if i == len(degrees) - 1 else set()
        pool += [((d - shift, x), d) for x in sorted(names)]
    return draw(st.permutations(pool)), draw(st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(letter_pools())
def test_word_enumeration_matches_the_sort_on_drawn_pools(drawn):
    pool, N = drawn
    assert _words(pool, N) == reference.enumerate_words(pool, N)


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_tensor_complex_matches_reference(R):
    X = exterior_pair(R, 4).complex            # names contain ⊗
    Y = truncated_polynomial(R, 4).complex
    S = sphere_coalgebra(R, 5, 2).complex        # degree 1 is empty
    XY = tensor_complex(X, Y, 5)                 # a tensor of tensors
    for left, right, through in [(X, Y, None), (X, Y, 5), (S, Y, None), (XY, S, 6), (Y, XY, 4)]:
        assert_same_d(tensor_complex(left, right, through),
                      reference.tensor_complex(left, right, through))


def _twisted_cases(R):
    """(P, M, t) in both orientations for the bar of every corpus algebra
    and the cobar of every corpus coalgebra."""
    for A in algebra_corpus(R, N):
        B = bar(A, N)
        t = couniversal_cochain(B, A)
        yield "module-first", self_comodule_left(B), self_module_right(A), t
        yield "comodule-first", self_comodule_right(B), self_module_left(A), t
    for C in coalgebra_corpus(R, N):
        O = cobar(C, N)
        t = universal_cochain(C, O)
        yield "module-first", self_comodule_left(C), self_module_right(O), t
        yield "comodule-first", self_comodule_right(C), self_module_left(O), t


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_twisted_tensor_matches_reference(R):
    for orientation, P, M, t in _twisted_cases(R):
        T = twisted_tensor(P, M, t, orientation, N, verify=False)
        assert_same_d(T.complex, reference.twisted_tensor_complex(P, M, t, orientation, N))


def test_pushforward_totals_match_reference():
    A = exterior(QQ, 6)
    z = classifying_bundle_zeta(A, 6)
    f, k = augmentation_algebra_map(A)
    A1 = exterior(QQ, 6, "x")
    A2 = exterior_pair(QQ, 6)
    inclusion = ChainMap(A1.complex, A2.complex)
    for n in range(2):
        for a in A1.basis(n):
            inclusion.set_entry(n, a, f"{a}⊗1", 1)
    z1 = classifying_bundle_zeta(A1, 6)
    extension, AE = acyclic_extension_inclusion(A, 6)  # AE has a nonzero d
    for g, bundle, target in [(ChainMap.identity(A.complex), z, A), (f, z, k), (inclusion, z1, A2),
                              (extension, z, AE)]:
        assert_same_d(pushforward(g, bundle, 6, target).total,
                      reference.pushforward_total(g, bundle, 6, target))


def test_pullback_totals_match_reference():
    C = sphere_coalgebra(QQ, 6, 2)
    x = classifying_bundle_xi(C, 6)
    g, CF = coacyclic_collapse(C, 6)
    for h, source in [(ChainMap.identity(C.complex), C), (g, CF)]:
        assert_same_d(pullback(h, x, 6, source).total,
                      reference.pullback_total(h, x, 6, source))


@pytest.mark.parametrize("R", [ZZ, GF(5)], ids=["Z", "F5"])
def test_normalized_chains_match_reference(R):
    tcp, _, _ = universal_bundle(cyclic_constant_group(3, 5), 4)
    for X, top in [(tcp, 4), (boundary_delta2(4), 4)]:
        C = normalized_chains(X, R, top).complex
        assert_same_d(C, reference.chains_complex(X, R, top, C.basis))
