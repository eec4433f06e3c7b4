"""The structure checks of `htwist.hopf`, `htwist.bundles` and `htwist.chains`
(module-map, comodule-map and chain-map identities on sparse matrices)
against the per-element loops of `structure_oracle`: equal witness lists,
in the same order.

Cases: seeded corruptions of the products and coproducts of the
algebra and coalgebra corpora over Q, Z and F_3; maps between a corpus
fixture and a corrupted copy of it; corrupted classifying bundles; the
Pontryagin algebras of a group with two vertices, of one with three, and
of a reduced group, clean and corrupted; and every (co)module-map call the
acceptance suite makes.
"""

import random

import pytest

import structure_oracle as reference
from complex_helpers import algebra_by_name, coalgebra_by_name
from htwist import barcobar, bundles, chains, hopf, normality
from htwist.bundles import classifying_bundle_xi, classifying_bundle_zeta, verify_mixed_bundle
from htwist.chains import verify_pontryagin_axioms
from htwist.complexes import ChainMap
from htwist.fixtures import algebra_corpus, coalgebra_corpus, exterior, exterior_pair, sphere_coalgebra
from htwist.hopf import ComoduleStructure, ModuleStructure, verify_algebra, verify_coalgebra
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import FiniteSimplicialGroup, classifying_space, cyclic_constant_group
from sign_dropped import sign_dropped_quotient

RINGS = [QQ, ZZ, GF(3)]
IDS = ["Q", "Z", "F3"]
N = 6
SEEDS = range(6)


def _positive_basis(X, lo, hi):
    return [(n, x) for n in range(lo, hi + 1) for x in X.basis.names(n)]


def corrupt_algebra(A, rng):
    """A copy of A with the product of one pair of positive-degree basis
    elements perturbed: a basis element of the product degree added, a term
    scaled by 2, or the product dropped."""
    R = A.ring
    pairs = [(a, b) for a in _positive_basis(A.complex, 1, N - 1)
             for b in _positive_basis(A.complex, 1, N - a[0]) if A.basis(a[0] + b[0])]
    if not pairs:  # Λ(x): no product lands in a nonzero degree
        return A
    (p, a), (q, b) = rng.choice(pairs)
    res = dict(A.product(p, a, q, b))
    kind = rng.randrange(3)
    if kind == 0 or not res:
        r = rng.choice(A.basis(p + q))
        res[r] = R.add(res.get(r, R.zero), R.one)
    elif kind == 1:
        r = rng.choice(sorted(res))
        res[r] = R.mul(R.of(2), res[r])
    else:
        res = {}
    res = R.lincomb(res.items())
    return algebra_by_name(A.complex, A.unit, lambda *k: res if k == (p, a, q, b) else A.product(*k), A.name)


def corrupt_coalgebra(C, rng):
    """A copy of C with the coproduct of one basis element perturbed: a term
    c1⊗c2 of the right degree added, a term scaled by 2, or a term dropped
    (a primitive one breaks a counit)."""
    R = C.ring
    n, c = rng.choice(_positive_basis(C.complex, 2, N))
    terms = list(C.coproduct(n, c))
    kind = rng.randrange(3)
    if kind == 0:
        splits = [(k1, k2) for k1 in _positive_basis(C.complex, 1, n - 1)
                  for k2 in [(n - k1[0], x) for x in C.basis(n - k1[0])]]
        if splits:
            k1, k2 = rng.choice(splits)
            terms.append((k1, k2, R.one))
    elif kind == 1:
        i = rng.randrange(len(terms))
        k1, k2, v = terms[i]
        terms[i] = (k1, k2, R.mul(R.of(2), v))
    else:
        terms.pop(rng.randrange(len(terms)))
    return coalgebra_by_name(C.complex, C.coaug, lambda *k: terms if k == (n, c) else C.coproduct(*k), C.name)


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_algebra_witnesses_match_reference(R):
    seen = set()
    for idx in range(len(algebra_corpus(R, N))):
        for seed in SEEDS:
            A = algebra_corpus(R, N)[idx]
            rng = random.Random(seed)
            for _ in range(1 + seed % 3):
                A = corrupt_algebra(A, rng)
            ok, witnesses = verify_algebra(A)
            assert (ok, witnesses) == reference.verify_algebra(A), (A.name, seed)
            seen |= {w["axiom"] for w in witnesses}
    assert {"associativity", "Leibniz"} <= seen


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_coalgebra_witnesses_match_reference(R):
    seen = set()
    for idx in range(len(coalgebra_corpus(R, N))):
        for seed in SEEDS:
            C = coalgebra_corpus(R, N)[idx]
            rng = random.Random(seed)
            for _ in range(1 + seed % 3):
                C = corrupt_coalgebra(C, rng)
            ok, witnesses = verify_coalgebra(C)
            assert (ok, witnesses) == reference.verify_coalgebra(C), (C.name, seed)
            seen |= {w["axiom"] for w in witnesses}
    assert {"coassociativity", "coderivation", "left-counit", "right-counit"} <= seen


def test_shuffle_quotient_with_wrong_sign_matches_reference():
    # the corruption control of acceptance criterion 6, through degree 5
    A = exterior_pair(QQ, 6)
    BarA = barcobar.bar(A, 6)
    q = bundles.borel_quotient(ChainMap.identity(A.complex), A, A, 5, BarA)
    Q = sign_dropped_quotient(A, q)
    ok, witnesses = verify_algebra(Q)
    assert not ok
    assert (ok, witnesses) == reference.verify_algebra(Q)


def _names(failures):
    """Module-map failures ((|m|, m), (|a|, a)) as the reference's (m, a)."""
    return [(m, a) for (_, m), (_, a) in failures]


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_algebra_map_into_corrupted_copy(R):
    """id: A -> A' with A' a corrupted copy of A is a module map over itself
    exactly where the products agree; also a perturbed map A -> A."""
    seen = 0
    for idx in range(len(algebra_corpus(R, N))):
        for seed in SEEDS:
            A, B = algebra_corpus(R, N)[idx], algebra_corpus(R, N)[idx]
            rng = random.Random(seed)
            B = corrupt_algebra(B, rng)
            f = ChainMap(A.complex, B.complex, ChainMap.identity(A.complex).components)
            got = hopf._module_map_failures(f, f, A.product, B.product, N)
            assert _names(got) == reference.module_map_failures(f, f, A.product, B.product, N)
            g = ChainMap.identity(A.complex)
            n, x = rng.choice(_positive_basis(A.complex, 1, N))
            g.set_entry(n, x, x, 1)  # x -> 2x
            got2 = hopf._module_map_failures(g, g, A.product, A.product, N)
            assert _names(got2) == reference.module_map_failures(g, g, A.product, A.product, N)
            seen += bool(got) + bool(got2)
    assert seen >= 10


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_coalgebra_map_into_corrupted_copy(R):
    seen = 0
    for idx in range(len(coalgebra_corpus(R, N))):
        for seed in SEEDS:
            C, D = coalgebra_corpus(R, N)[idx], coalgebra_corpus(R, N)[idx]
            D = corrupt_coalgebra(D, random.Random(seed))
            f = ChainMap(C.complex, D.complex, ChainMap.identity(C.complex).components)
            got = hopf._comodule_map_failures(f, f, C.coproduct, D.coproduct, N)
            assert got == reference.comodule_map_failures(f, f, C.coproduct, D.coproduct, N)
            seen += bool(got)
    assert seen >= 5


def _bundles(R):
    return [classifying_bundle_zeta(exterior(R, N), N),
            classifying_bundle_zeta(exterior_pair(R, N), N),
            classifying_bundle_xi(sphere_coalgebra(R, N, 2), N)]


def corrupt_bundle(b, rng):
    """m·a gains a term of its degree, and λ(n) loses its last term, for
    random basis elements m, n of the total and a of the monoid: both
    structures are built again from their rows, wrapped."""
    R, index = b.ring, b.total.basis.index
    names = _positive_basis(b.total, 0, N - 1)
    (dm, m), (dn, n) = rng.choice(names), rng.choice(names)
    da = rng.randrange(1, N - dm + 1)
    a = rng.choice(b.monoid.basis(da) or [None])
    extra = rng.choice(b.total.basis.names(dm + da) or [None])
    act, coact = b.module.act.rows, b.comodule.coact.rows
    pair = None if a is None else (dm, index(dm, m), da, b.monoid.complex.basis.index(da, a))

    def rows(*k):
        out = act(*k)
        if k == pair and extra is not None:
            out = list(R.lincomb([*out, (index(dm + da, extra), R.one)]).items())
        return out

    b.module = ModuleStructure(b.monoid, b.total, "right", rows)
    j = index(dn, n)
    b.comodule = ComoduleStructure(b.comonoid, b.total, "left",
                                   lambda d, i: coact(d, i)[:-1] if (d, i) == (dn, j) else coact(d, i))


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_mixed_bundle_witnesses_match_reference(R):
    seen = set()
    for idx in range(3):
        for seed in SEEDS:
            b = _bundles(R)[idx]
            corrupt_bundle(b, random.Random(seed))
            ok, problems = verify_mixed_bundle(b)
            assert (ok, problems) == reference.verify_mixed_bundle(b), (b.kind, seed)
            seen |= {p["check"] for p in problems}
    assert {"inclusion-module", "projection-comodule", "mixed-compatibility"} <= seen


def test_acceptance_module_and_comodule_calls_match_reference(monkeypatch):
    import test_acceptance

    calls = []  # (kind, failures, reference failures)
    real_module, real_comodule = hopf._module_map_failures, hopf._comodule_map_failures

    def module_spy(f, phi, act, target_act, N):
        got = real_module(f, phi, act, target_act, N)
        calls.append(("module", _names(got), reference.module_map_failures(f, phi, act, target_act, N)))
        return got

    def comodule_spy(f, phi, coact, target_coact, N):
        got = real_comodule(f, phi, coact, target_coact, N)
        calls.append(("comodule", got, reference.comodule_map_failures(f, phi, coact, target_coact, N)))
        return got

    for module in (hopf, barcobar, bundles, normality):
        monkeypatch.setattr(module, "_module_map_failures", module_spy)
        monkeypatch.setattr(module, "_comodule_map_failures", comodule_spy)
    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            try:
                getattr(test_acceptance, name)()
            except AssertionError:
                # criteria 6 and 8 fail honestly (docs/DECISIONS.md, section 2)
                assert name in ("test_criterion_6_abelian_normality",
                                "test_criterion_8_chcx_extremes"), name
    assert sum(kind == "module" for kind, _, _ in calls) >= 25
    assert sum(kind == "comodule" for kind, _, _ in calls) >= 15
    # the honest nu-comodule-map failures of criteria 6 and 8 are among them
    assert any(got for kind, got, _ in calls if kind == "comodule")
    assert all(got == ref for _, got, ref in calls)


# ---------------------------------------------------------------------
# Pontryagin algebras: degree 0 is checked when G has several vertices.
# ---------------------------------------------------------------------

def wbar_group(k: int, n_max: int) -> FiniteSimplicialGroup:
    """W̄C_k as a simplicial abelian group under componentwise addition: its
    faces and degeneracies are homomorphisms, and it has one vertex."""
    W = classifying_space(cyclic_constant_group(k, n_max), n_max)
    return FiniteSimplicialGroup(
        n_max, {n: W.elements(n) for n in range(n_max + 1)}, W.face, W.degeneracy,
        mult=lambda n, a, b: tuple((x + y) % k for x, y in zip(a, b)),
        inv=lambda n, a: tuple(-x % k for x in a),
        neutral=lambda n: (0,) * n, name=f"WbarC{k}")


def corrupted_tables(monkeypatch, seed, count=3):
    """Make chains build Pontryagin tables in which the products of
    ``count`` random pairs of non-unit basis elements each gain a basis
    element of their degree."""
    real = chains.pontryagin_product_table

    def table(G, ring, C, n_max):
        out = real(G, ring, C, n_max)
        unit = C.complex.basis.name_of(0, G.neutral(0))
        basis = [(n, x) for n in range(n_max + 1) for x in C.basis(n) if x != unit]
        rng = random.Random(seed)
        for _ in range(count):
            key = rng.choice([(a, b) for a in basis for b in basis
                              if a[0] + b[0] <= n_max and C.basis(a[0] + b[0])])
            res = dict(out.get(key, {}))
            r = rng.choice(C.basis(key[0][0] + key[1][0]))
            res[r] = ring.add(res.get(r, ring.zero), ring.one)
            out[key] = ring.lincomb(res.items())
        return out

    monkeypatch.setattr(chains, "pontryagin_product_table", table)


@pytest.mark.parametrize("G, R, axioms", [
    # a two-element unital algebra is associative, whatever its table
    (cyclic_constant_group(2, 5), GF(2), set()),
    (cyclic_constant_group(2, 5), QQ, set()),
    (cyclic_constant_group(3, 5), GF(3), {"associativity"}),
    (wbar_group(3, 5), GF(3), {"associativity", "Leibniz"}),
    (wbar_group(3, 5), ZZ, {"associativity", "Leibniz"}),
    (wbar_group(2, 5), QQ, {"associativity", "Leibniz"}),
], ids=["C2-F2", "C2-Q", "C3-F3", "WbarC3-F3", "WbarC3-Z", "WbarC2-Q"])
def test_pontryagin_witnesses_match_reference(G, R, axioms, monkeypatch):
    ok, report = verify_pontryagin_axioms(G, R, 4)
    assert ok, report
    assert report["problems"] == reference.verify_pontryagin_axioms(G, R, 4) == []
    seen = set()
    for seed in SEEDS:
        corrupted_tables(monkeypatch, seed)
        ok, report = verify_pontryagin_axioms(G, R, 4)
        assert report["problems"] == reference.verify_pontryagin_axioms(G, R, 4), seed
        seen |= {p["axiom"] for p in report["problems"]}
    assert axioms <= seen
