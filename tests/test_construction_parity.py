"""The index-written construction differentials against the name-by-name
reference builds of `construction_oracle`: the same basis (names and keys,
in order) and equal d_n (same shape, same entries) for bar and cobar of the
algebra and coalgebra corpora over Q, Z and F_5, for tensor complexes, for
twisted tensor products in both orientations, for normalized chains, and
for the pushforward and pullback totals over Q, Z and F_5 of the inputs of
`tests/test_bundles.py`, the twist axioms and the twisted-homotopical-
category conditions (5) and (6).  `pushforward` and `pullback` build
C ⊗_{f∘t} A' and C' ⊗_{t∘g} A from the composed cochain; the reference
transports the parent bundle's differential through its free or cofree
decomposition, so the two share no differential code.  The words of bar and
cobar, enumerated block by block, against the oracle's sort-based
enumeration.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import construction_oracle as reference
from htwist.barcobar import _word_blocks, alpha_t, bar, bar_map, beta_t, cobar, cobar_map
from htwist.bundles import classifying_bundle_xi, classifying_bundle_zeta, pullback, pushforward
from htwist.chains import normalized_chains
from htwist.complexes import ChainMap, tensor_complex
from htwist.fixtures import (
    acyclic_extension_inclusion,
    algebra_corpus,
    augmentation_algebra_map,
    coacyclic_collapse,
    coalgebra_corpus,
    dual_truncated_polynomial,
    exterior,
    exterior_pair,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import boundary_delta2, cyclic_constant_group, universal_bundle
from htwist.twisting import (
    compose_cochain,
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
    assert list(new.basis.keys.items()) == list(old.basis.keys.items())
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
    """A pool of (letter, marked degree) pairs as `_word_blocks` takes it:
    marked degree -> letters in name order, degrees ascending."""
    letters = {}
    for key, d in sorted(pool, key=lambda kd: (kd[1], kd[0][1])):
        letters.setdefault(d, []).append(key)
    return letters


def _words(pool, N):
    """The words of the blocks `_word_blocks` yields over ``pool``, by
    degree: each block is its prefix block's words, each followed by every
    last letter, which must be the product of its parts' letter lists, sit
    where the block says, and have the degrees of its composition."""
    marked, letters = dict(pool), _letters(pool)
    words = {0: [()]}
    for n, blocks in _word_blocks(letters, N):
        words[n] = []
        for parts, start, first, size in blocks:
            assert sum(parts) == n and start == len(words[n])
            block = [u + (l,) for u in words[n - parts[-1]][first:first + size] for l in letters[parts[-1]]]
            assert block == list(product(*map(letters.__getitem__, parts)))
            assert block and all(tuple(map(marked.get, w)) == parts for w in block)
            words[n] += block
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


def _inclusion(R):
    """f: Λ(x) -> Λ(x)⊗Λ(y), x -> x⊗1, with its source and target."""
    A, A2 = exterior(R, N, "x"), exterior_pair(R, N)
    f = ChainMap(A.complex, A2.complex)
    for n in range(2):
        for a in A.basis(n):
            f.set_entry(n, a, f"{a}⊗1", 1)
    return f, A, A2


def _induced_cases(R):
    """(pushforward cases, pullback cases), each a list of (map, bundle,
    new (co)monoid): those of `tests/test_bundles.py`, those the twist
    axioms build on H(S^2) and the exterior inclusion, both orders of
    `pushforward_pullback_commute`, and conditions (5) and (6) of
    `check_thc_axioms` on Λx, k[x]/x³, H(S^2) and its dual polynomial."""
    A = exterior(R, N)
    z = classifying_bundle_zeta(A, N)
    eps, k = augmentation_algebra_map(A)
    f, Ax, Axy = _inclusion(R)
    C = sphere_coalgebra(R, N + 1, 2)
    pushes = [(ChainMap.identity(A.complex), z, A), (eps, z, k)]
    pulls = [(ChainMap.identity(C.complex), classifying_bundle_xi(C, N), C)]
    for B in (A, truncated_polynomial(R, N)):  # condition (5); A ⊗ E has a nonzero d
        e, BE = acyclic_extension_inclusion(B, N)
        pushes.append((e, classifying_bundle_zeta(B, N), BE))
    for D in (C, dual_truncated_polynomial(R, N + 1)):  # condition (6)
        g, DF = coacyclic_collapse(D, N + 1)
        pulls.append((g, classifying_bundle_xi(D, N), DF))

    # twist axiom 1: g = β of t_Ω, g♭ = α of t_Bar∘g
    O = cobar(C, N)
    BO = bar(O, N + 1)
    g = beta_t(universal_cochain(C, O), BO, N)
    pulls.append((g, classifying_bundle_zeta(O, N, BO), C))
    flat = alpha_t(compose_cochain(g, couniversal_cochain(BO, O), None, source=C), O, N)
    pushes.append((flat, classifying_bundle_xi(C, N, O), O))
    # twist axiom 2: Bar f and f
    BarAx, BarAxy = bar(Ax, N), bar(Axy, N)
    zx = classifying_bundle_zeta(Ax, N, BarAx)
    pulls.append((bar_map(f, BarAx, BarAxy), classifying_bundle_zeta(Axy, N, BarAxy), BarAx))
    pushes.append((f, zx, Axy))
    # twist axiom 3: the collapse g and Cobar g
    gq, CF = coacyclic_collapse(C, N + 1)
    OF = cobar(CF, N)
    pushes.append((cobar_map(gq, OF, O), classifying_bundle_xi(CF, N, OF), O))
    # pushforward_pullback_commute: f_* g^* and g^* f_* of ζ(Λx)
    gb, CFb = coacyclic_collapse(BarAx, N)
    pushes.append((f, pullback(gb, zx, N, CFb), Axy))
    pulls.append((gb, pushforward(f, zx, N, Axy), CFb))
    return pushes, pulls


def test_pushforward_totals_match_reference():
    for R in RINGS:
        for f, bundle, target in _induced_cases(R)[0]:
            assert_same_d(pushforward(f, bundle, N, target).total,
                          reference.pushforward_total(f, bundle, N, target))


def test_pullback_totals_match_reference():
    for R in RINGS:
        for g, bundle, source in _induced_cases(R)[1]:
            assert_same_d(pullback(g, bundle, N, source).total,
                          reference.pullback_total(g, bundle, N, source))


@pytest.mark.parametrize("R", [ZZ, GF(5)], ids=["Z", "F5"])
def test_normalized_chains_match_reference(R):
    tcp, _, _ = universal_bundle(cyclic_constant_group(3, 5), 4)
    for X, top in [(tcp, 4), (boundary_delta2(4), 4)]:
        C = normalized_chains(X, R, top).complex
        assert_same_d(C, reference.chains_complex(X, R, top, C.basis))
