"""The maps out of word bases, built from each word's prefix, against the
letter-by-letter bodies of `construction_oracle`: equal component matrices
for α_t, β_t, Bar(f)/Cobar(g) and the Milgram cobar map, equal values for
composed cochains, equal Maurer-Cartan witness lists and equal verdicts of
`is_graded_commutative`.

Cases: the algebra and coalgebra corpora over Q, Z and F_5 (α and β of the
universal and couniversal cochains, Bar and Cobar of the identity and of a
×2 map); the counit of the abelian quotient algebra of Λx⊗Λy; the Milgram
cobar map on H(S2)⊗H(S3) and on the trivial-extension inputs; corrupted and
rescaled cochains, and twisted tensor products of a rescaled cochain; the
noncommutative probe and corrupted quotients; and every call of these
functions the acceptance suite makes.
"""

import pytest

import construction_oracle as reference
from htwist import barcobar, bundles, normality, twisting
from htwist.barcobar import (
    alpha_t,
    bar,
    bar_map,
    beta_t,
    cobar,
    cobar_map,
    counit_map,
    is_graded_commutative,
    milgram_cobar_map,
    shuffle_product_bar,
)
from htwist.bundles import borel_quotient
from htwist.complexes import ChainMap, tensor_complex
from htwist.fixtures import (
    algebra_corpus,
    coalgebra_corpus,
    exterior_pair,
    noncommutative_algebra,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.hopf import tensor_coalgebra_product
from htwist.normality import shuffle_quotient_algebra
from sign_dropped import sign_dropped_quotient
from htwist.rings import GF, QQ, ZZ
from htwist.sparse import SparseMatrix
from htwist.twisting import (
    compose_cochain,
    couniversal_cochain,
    self_comodule_left,
    self_comodule_right,
    self_module_left,
    self_module_right,
    twisted_tensor,
    universal_cochain,
    verify_twisting_cochain,
)

N = 6
RINGS = [QQ, ZZ, GF(5)]
RING_IDS = ["Q", "Z", "F5"]


def same_map(new: ChainMap, old: ChainMap, ordered: bool = True) -> bool:
    """Equal components in every degree, entry by entry; with ``ordered``
    the entries are also listed in the same order."""
    if new.source.basis is not old.source.basis or new.target.basis is not old.target.basis:
        return False
    for n in range(max([0, *new.components, *old.components]) + 1):
        a, b = new.mat(n), old.mat(n)
        if (a.nrows, a.ncols, a.entries) != (b.nrows, b.ncols, b.entries):
            return False
        if ordered and list(a.entries) != list(b.entries):
            return False
    return True


def times_two(X) -> ChainMap:
    """The identity in degree 0 and 2·id above it (the ×2 self-map)."""
    R = X.ring
    return ChainMap(X, X, {n: SparseMatrix.identity(R, X.basis.dim(n)).scale(R.of(2 if n else 1))
                           for n in X.basis.degrees()})


def same_cochain(new, old) -> bool:
    """Equal values on every basis element, as dicts: a composed cochain's
    terms may come in another order than the reference's."""
    C = new.source
    return C is old.source and all(new.value(n, c) == old.value(n, c)
                                   for n in range(C.truncation + 1) for c in C.basis(n))


def same_repr(new, old) -> bool:
    return repr(new) == repr(old)


def assert_same_mc(t):
    assert same_repr(verify_twisting_cochain(t), reference.verify_twisting_cochain(t))


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_algebra_corpus_maps_match_reference(R):
    for A in algebra_corpus(R, N):
        B = bar(A, N)
        OB = cobar(B, N)
        t = couniversal_cochain(B, A)
        assert same_map(alpha_t(t, OB, N), reference.alpha_t(t, OB, N))     # the counit
        be = beta_t(t, B, N)
        assert same_map(be, reference.beta_t(t, B, N), ordered=False)      # the identity
        for f in (ChainMap.identity(A.complex), times_two(A.complex)):
            assert same_map(bar_map(f, B, B), reference.bar_map(f, B, B))
        assert same_cochain(compose_cochain(be, t, None, source=B),
                            reference.compose_cochain(be, t, None, source=B))
        v = counit_map(A, N, B, OB)
        tO = universal_cochain(B, OB)
        assert same_cochain(compose_cochain(None, tO, v, target=A),
                            reference.compose_cochain(None, tO, v, target=A))
        assert_same_mc(t)


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_coalgebra_corpus_maps_match_reference(R):
    for C in coalgebra_corpus(R, N):
        O = cobar(C, N)
        BO = bar(O, N)
        t = universal_cochain(C, O)
        assert same_map(alpha_t(t, O, N), reference.alpha_t(t, O, N))       # the identity
        assert same_map(beta_t(t, BO, N), reference.beta_t(t, BO, N), ordered=False)  # the unit
        for g in (ChainMap.identity(C.complex), times_two(C.complex)):
            Og = cobar_map(g, O, O)
            assert same_map(Og, reference.bar_map(g, O, O))
            assert same_cochain(compose_cochain(None, t, Og), reference.compose_cochain(None, t, Og))
            assert same_cochain(compose_cochain(g, t, None, source=C),
                                reference.compose_cochain(g, t, None, source=C))
        assert_same_mc(t)


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_corrupted_and_rescaled_cochains(R):
    """Maurer-Cartan witnesses, α and β of cochains that fail it."""
    for C in coalgebra_corpus(R, N):
        O = cobar(C, N)
        BO = bar(O, N)
        t = universal_cochain(C, O)
        doubled = compose_cochain(None, t, times_two(O.complex))
        assert_same_mc(doubled)
        if C.basis(4) == ["g2"]:
            t.set_value(4, "g2", {})   # MC then fails on g2: t(g1)·t(g1) survives
            assert not verify_twisting_cochain(t)[0]
        for s in (t, doubled):
            assert_same_mc(s)
            assert same_map(alpha_t(s, O, N), reference.alpha_t(s, O, N))
            assert same_map(beta_t(s, BO, N), reference.beta_t(s, BO, N), ordered=False)


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_twisted_tensor_of_rescaled_cochain(R):
    """Twist terms with coefficients other than 1: t = 2·t_Ω, in both
    orientations (D_t² = 0 fails; the reference build is the same)."""
    for C in coalgebra_corpus(R, N):
        O = cobar(C, N)
        t = compose_cochain(None, universal_cochain(C, O), times_two(O.complex))
        for orientation, P, M in (("module-first", self_comodule_left(C), self_module_right(O)),
                                  ("comodule-first", self_comodule_right(C), self_module_left(O))):
            T = twisted_tensor(P, M, t, orientation, N, verify=False)
            old = reference.twisted_tensor_complex(P, M, t, orientation, N)
            for n in range(1, N + 1):
                assert T.complex.dmat(n).entries == old.dmat(n).entries, (C.name, orientation, n)


def test_non_identity_cobar_map():
    """The ×2 self-map of H(S2), as in tests/test_twisting.py."""
    C = sphere_coalgebra(QQ, 6, 2)
    O = cobar(C, 6)
    g = ChainMap(C.complex, C.complex)
    g.set_entry(0, "1", "1", 1)
    g.set_entry(2, "c2", "c2", 2)
    Og = cobar_map(g, O, O)
    assert same_map(Og, reference.bar_map(g, O, O))
    assert Og.mat(2).entries == {(0, 0): 4}   # s-1(c2)|s-1(c2) -> 4 s-1(c2)|s-1(c2)


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_lower_target_truncation_drops_missing_words(R):
    """Into a word complex truncated lower, words it lacks are dropped."""
    for A in algebra_corpus(R, N)[:3]:
        B, B4 = bar(A, N), bar(A, 4)
        f = times_two(A.complex)
        assert same_map(bar_map(f, B, B4), reference.bar_map(f, B, B4))
        t = couniversal_cochain(B, A)
        assert same_map(beta_t(t, B4, N), reference.beta_t(t, B4, N), ordered=False)
    for C in coalgebra_corpus(R, N):
        O, O4 = cobar(C, N), cobar(C, 4)
        g = times_two(C.complex)
        assert same_map(cobar_map(g, O, O4), reference.bar_map(g, O, O4))


def abelian_quotient(sign_dropped: bool = False):
    """The shuffle quotient algebra of Λx⊗Λy at N=6, as abelian_normality
    builds it, or the sign-dropped one of the corruption control."""
    A = exterior_pair(QQ, N + 1)
    BarA = bar(A, N + 1)
    q = borel_quotient(ChainMap.identity(A.complex), A, A, N, BarA)
    if sign_dropped:
        return A, sign_dropped_quotient(A, q)
    return A, shuffle_quotient_algebra(A, A, q)


def test_counit_of_abelian_quotient():
    _, Q = abelian_quotient()
    BarQ = bar(Q, N + 1)
    OBQ = cobar(BarQ, N)
    v = counit_map(Q, N, BarQ, OBQ)
    assert same_map(v, reference.alpha_t(couniversal_cochain(BarQ, Q), OBQ, N))
    assert any(m.entries for n, m in v.components.items() if n >= 2)


@pytest.mark.parametrize("C, D, through, signed", [
    (sphere_coalgebra(QQ, 7, 2), sphere_coalgebra(QQ, 7, 3), 5, False),
    (sphere_coalgebra(QQ, 8, 2), sphere_coalgebra(QQ, 8, 2), 5, True),
    (sphere_coalgebra(ZZ, 8, 2), sphere_coalgebra(ZZ, 8, 2), 5, True),
    (tensor_coalgebra_product(sphere_coalgebra(QQ, 7, 2), sphere_coalgebra(QQ, 7, 3), through=7),
     sphere_coalgebra(QQ, 7, 2), 5, True),
], ids=["S2-S3", "S2-S2", "S2-S2-Z", "S2xS3-S2"])
def test_milgram_cobar_map_matches_reference(C, D, through, signed):
    """The inputs of the trivial-extension checks in tests/test_normality.py
    and acceptance criterion 7.  With a class of even degree on both sides,
    s-1(1⊗d)|s-1(c⊗1) -> -s-1(c)⊗s-1(d) carries a Koszul sign."""
    CD = tensor_coalgebra_product(C, D, through=through + 1)
    OmegaC, OmegaD, OmegaCD = cobar(C, through), cobar(D, through), cobar(CD, through)
    TO = tensor_complex(OmegaC.complex, OmegaD.complex, through)
    new = milgram_cobar_map(C, D, through, OmegaCD, OmegaC, OmegaD, TO)
    assert same_map(new, reference.milgram_cobar_map(C, D, through, OmegaCD, OmegaC, OmegaD, TO))
    minus = C.ring.of(-1)
    assert signed == any(v == minus for m in new.components.values() for v in m.entries.values())


@pytest.mark.parametrize("R", RINGS, ids=RING_IDS)
def test_graded_commutativity_matches_reference(R):
    cases = [*algebra_corpus(R, N), noncommutative_algebra(R, N),
             shuffle_product_bar(truncated_polynomial(R, N), N)]
    verdicts = [is_graded_commutative(A) for A in cases]
    assert verdicts == [reference.is_graded_commutative(A) for A in cases]
    assert False in verdicts and True in verdicts


def test_graded_commutativity_of_quotients():
    for dropped in (False, True):
        _, Q = abelian_quotient(dropped)
        assert is_graded_commutative(Q) == reference.is_graded_commutative(Q)


def test_acceptance_calls_match_reference(monkeypatch):
    """Every call of the new functions that the acceptance suite makes,
    recorded with a spy and compared with the reference body on the same
    arguments."""
    import test_acceptance

    checks = {  # name -> (reference, comparison)
        "alpha_t": (reference.alpha_t, same_map),
        "beta_t": (reference.beta_t, lambda a, b: same_map(a, b, ordered=False)),
        "bar_map": (reference.bar_map, same_map),
        "milgram_cobar_map": (reference.milgram_cobar_map, same_map),
        "compose_cochain": (reference.compose_cochain, same_cochain),
        "verify_twisting_cochain": (reference.verify_twisting_cochain, same_repr),
        "is_graded_commutative": (reference.is_graded_commutative, same_repr),
    }
    mismatches = []
    counts = dict.fromkeys(checks, 0)

    def spy(name, real):
        ref, same = checks[name]

        def wrapped(*args, **kwargs):
            got = real(*args, **kwargs)
            if not same(got, ref(*args, **kwargs)):
                mismatches.append(name)
            counts[name] += 1
            return got
        return wrapped

    modules = (barcobar, twisting, bundles, normality, test_acceptance)
    for name in checks:
        real = getattr(barcobar, name, None) or getattr(twisting, name)
        wrapped = spy(name, real)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, wrapped)
    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            try:
                getattr(test_acceptance, name)()
            except AssertionError:
                # criteria 6 and 8 fail honestly (docs/DECISIONS.md, section 2)
                assert name in ("test_criterion_6_abelian_normality",
                                "test_criterion_8_chcx_extremes"), name
    assert not mismatches, mismatches
    assert all(counts.values()), counts
