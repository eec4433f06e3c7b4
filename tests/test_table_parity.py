"""Each (co)algebra's one structure function against the table the
construction filled before (`structure_oracle`, docs/DECISIONS.md, section
11): equal products and coproducts, term order included, on every basis
pair and element.

Cases: the algebra and coalgebra corpora over Q, F_3 and Z, and tensor
products of noncommutative and truncated factors; the bar construction of
each corpus algebra at N=7; normalized chains of ∂Δ[2], the minimal circle,
W̄C3 and the C2 universal bundle; a reduced Pontryagin algebra; JSON round
trips.  Also: building normalized chains, their homology and the
acyclicity certificate never compute the Alexander-Whitney diagonal.

The pair (co)products by index, the tensor algebra and coalgebra and the
quotient algebras of the normality and chcx-unit routes, are compared with
the formulas they replaced, by name (`structure_oracle`), the same way.
"""

import pytest

import structure_oracle as reference
from htwist import chains, io_json
from htwist.barcobar import bar
from htwist.bundles import borel_quotient
from htwist.chains import acyclicity_of_universal_bundle, chains_of_simplicial_group, normalized_chains
from htwist.complexes import ChainComplex, ChainMap, GradedBasis, homology
from htwist.fixtures import (
    acyclic_algebra,
    algebra_corpus,
    coacyclic_coalgebra,
    coalgebra_corpus,
    dual_truncated_polynomial,
    exterior,
    exterior_pair,
    noncommutative_algebra,
    sphere_coalgebra,
    table_product,
    truncated_polynomial,
    unit_algebra_map,
)
from htwist.hopf import ChainAlgebra, tensor_algebra_product, tensor_coalgebra_product, verify_algebra
from htwist.normality import shuffle_quotient_algebra, unit_algebra_structure_on_quotient
from htwist.rings import GF, QQ, ZZ
from htwist.simplicial import (
    boundary_delta2,
    classifying_space,
    cyclic_constant_group,
    minimal_circle,
    universal_bundle,
)
from test_structure_parity import wbar_group

RINGS = [QQ, ZZ, GF(3)]
IDS = ["Q", "Z", "F3"]
N = 8


def assert_product_matches(A, table):
    """A.product equals the table read by the old lookup rules on every
    basis pair through the truncation, term order included."""
    X, top = A.complex, A.truncation
    for p in range(top + 1):
        for a in X.basis.names(p):
            for q in range(top + 1 - p):
                for b in X.basis.names(q):
                    got = A.product(p, a, q, b)
                    want = reference.table_product(A, table, p, a, q, b)
                    assert list(got.items()) == list(want.items()), (A.name, (p, a), (q, b))


def assert_same_product(A, B):
    """A.product and B.product agree on every basis pair through the
    truncation, term order included."""
    X, top = A.complex, A.truncation
    assert (A.unit, A.name) == (B.unit, B.name)
    for p in range(top + 1):
        for a in X.basis.names(p):
            for q in range(top + 1 - p):
                for b in X.basis.names(q):
                    got, want = A.product(p, a, q, b), B.product(p, a, q, b)
                    assert list(got.items()) == list(want.items()), (A.name, (p, a), (q, b))


def assert_coproduct_matches(C, table):
    for n in range(C.truncation + 1):
        for c in C.basis(n):
            assert C.coproduct(n, c) == reference.table_coproduct(C, table, n, c), (C.name, n, c)


def _algebra_cases(R):
    """(algebra, reference table): the corpus, with the tables its plain
    fixtures list, then tensor products with Koszul signs on both sides."""
    x, y, E = exterior(R, N, "x"), exterior(R, N, "y"), acyclic_algebra(R, N)
    plain = {
        "Λ(x1)": {}, "E": {}, f"{R}[x2]/(x^3)": {((2, "x"), (2, "x")): {"x^2": 1}},
        "NC": {((1, "x"), (1, "y")): {"xy": 1}},
    }
    corpus = algebra_corpus(R, N)
    tables = [plain[corpus[0].name], plain[corpus[1].name], reference.tensor_algebra_table(x, y, N),
              plain[corpus[3].name], reference.tensor_algebra_table(x, E, N), plain[corpus[5].name]]
    cases = list(zip(corpus, tables))
    nc, tp = noncommutative_algebra(R, 6), truncated_polynomial(R, N)
    for A, B, top in ((nc, tp, 6), (tp, nc, 6), (nc, nc, 6), (exterior_pair(R, N), tp, N)):
        cases.append((tensor_algebra_product(A, B, top), reference.tensor_algebra_table(A, B, top)))
    return cases


def _coalgebra_cases(R):
    corpus = coalgebra_corpus(R, N)
    tables = [{}, {}, {(4, "g2"): reference.full_coproduct(R, "1", 4, "g2", [((2, "g1"), (2, "g1"), 1)])},
              reference.tensor_coalgebra_table(sphere_coalgebra(R, N, 2), coacyclic_coalgebra(R, N), N)]
    cases = list(zip(corpus, tables))
    dual, s3 = dual_truncated_polynomial(R, N), sphere_coalgebra(R, N, 3)
    for C, D in ((dual, dual), (s3, dual), (corpus[3], dual), (s3, s3), (dual, corpus[3])):
        cases.append((tensor_coalgebra_product(C, D, N), reference.tensor_coalgebra_table(C, D, N)))
    return cases


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_algebra_products_match_tables(R):
    for A, table in _algebra_cases(R):
        assert_product_matches(A, table)


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_coalgebra_coproducts_match_tables(R):
    for C, table in _coalgebra_cases(R):
        assert_coproduct_matches(C, table)


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_bar_deconcatenation_matches_table(R):
    for A in algebra_corpus(R, N):
        B = bar(A, 7)
        assert_coproduct_matches(B, reference.bar_coproduct_table(B))


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_tensor_products_match_name_formulas(R):
    nc, tp, dual = noncommutative_algebra(R, 6), truncated_polynomial(R, N), dual_truncated_polynomial(R, N)
    for A, B, top in ((nc, tp, 6), (tp, nc, 6), (exterior_pair(R, N), tp, N), (exterior(R, N), acyclic_algebra(R, N), N)):
        assert_same_product(tensor_algebra_product(A, B, top), reference.tensor_algebra_by_name(A, B, top))
    for C, D in ((dual, dual), (sphere_coalgebra(R, N, 3), dual), (coalgebra_corpus(R, N)[3], dual)):
        new, old = tensor_coalgebra_product(C, D, N), reference.tensor_coalgebra_by_name(C, D, N)
        assert new.coaug == old.coaug
        assert all(new.coproduct(n, c) == old.coproduct(n, c) for n in range(N + 1) for c in new.basis(n))


def test_shuffle_quotient_matches_name_formula():
    """The product of the normality route: Λx⊗Λy at N=6 over Q."""
    A = exterior_pair(QQ, 7)
    BarA = bar(A, 7)
    q = borel_quotient(ChainMap.identity(A.complex), A, A, 6, BarA)
    assert_same_product(shuffle_quotient_algebra(A, A, q), reference.shuffle_quotient_by_name(A, A, 6, q))


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_unit_quotient_matches_name_formula(R):
    """The product of the chcx-unit route, A//k for the unit η: k -> A."""
    for A in (exterior(R, 7), exterior_pair(R, 7), truncated_polynomial(R, 7)):
        eta, k = unit_algebra_map(A)
        q = borel_quotient(eta, k, A, 6, bar(k, 7))
        assert_same_product(unit_algebra_structure_on_quotient(q, A), reference.unit_quotient_by_name(q, A))


def _simplicial_sets(top):
    G2 = cyclic_constant_group(2, top + 2)
    return [boundary_delta2(top), minimal_circle(top),
            classifying_space(cyclic_constant_group(3, top + 2), top), universal_bundle(G2, top)[0]]


@pytest.mark.parametrize("R", [ZZ, GF(3)], ids=["Z", "F3"])
def test_aw_diagonal_matches_table(R):
    nontrivial = 0
    for X in _simplicial_sets(5):
        C = normalized_chains(X, R, 5)
        table = reference.aw_coproduct_table(X, C)
        assert_coproduct_matches(C, table)
        nontrivial += any(len(terms) > 2 for terms in table.values())
    assert nontrivial == 2  # W̄C3 and the universal bundle; ∂Δ[2] and S1min have none


def test_pontryagin_algebra_reads_its_table():
    C, table, algebra, report = chains_of_simplicial_group(wbar_group(3, 5), GF(3), 4)
    assert report["connected"] and table
    assert_product_matches(algebra, table)


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_json_round_trip_keeps_structure(R):
    for A, _ in _algebra_cases(R):
        B = io_json.algebra_from_dict(io_json.algebra_to_dict(A))
        assert io_json.algebra_to_dict(B) == io_json.algebra_to_dict(A)
        assert all(B.product(p, a, q, b) == A.product(p, a, q, b)
                   for p in range(A.truncation + 1) for a in A.basis(p)
                   for q in range(A.truncation + 1 - p) for b in A.basis(q))
    for C, table in _coalgebra_cases(R):
        D = io_json.coalgebra_from_dict(io_json.coalgebra_to_dict(C))
        assert io_json.coalgebra_to_dict(D) == io_json.coalgebra_to_dict(C)
        assert_coproduct_matches(D, table)


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_json_drops_zero_terms(R):
    # a listed term with coefficient 0 is no term, as when the tables held it
    data = io_json.coalgebra_to_dict(dual_truncated_polynomial(R, 6))
    data["delta"][0]["reduced"].append([[2, "g1"], [2, "g1"], "0"])
    C = io_json.coalgebra_from_dict(data)
    assert_coproduct_matches(C, {(4, "g2"): reference.full_coproduct(R, "1", 4, "g2", [((2, "g1"), (2, "g1"), 1)])})
    data = io_json.algebra_to_dict(truncated_polynomial(R, 6))
    data["mu"][0]["result"] = [["x^2", "0"]]
    assert_product_matches(io_json.algebra_from_dict(data), {})


def test_chains_never_compute_the_diagonal(monkeypatch):
    def unread(*args):
        raise AssertionError("the Alexander-Whitney diagonal was computed")

    monkeypatch.setattr(chains, "_aw_faces", unread)
    C = normalized_chains(boundary_delta2(4), ZZ, 4)
    assert homology(C.complex, 3).by_degree[1] == (1, [])
    acyclic, _ = acyclicity_of_universal_bundle(cyclic_constant_group(2, 6), ZZ, 4)
    assert acyclic
    with pytest.raises(AssertionError, match="diagonal"):
        C.coproduct(1, C.basis(1)[0])


@pytest.mark.parametrize("R", RINGS, ids=IDS)
def test_augmentation_chain_reads_the_unit_row(R):
    # d(e) = 0, d(f) = 2·1 + u with u a second vertex, d(g) = u
    X = ChainComplex(R, GradedBasis(2, {0: ["1", "u"], 1: ["e", "f", "g"]}))
    X.set_d_entry(1, "f", "1", 2)
    X.set_d_entry(1, "f", "u", 1)
    X.set_d_entry(1, "g", "u", 1)
    ok, witnesses = verify_algebra(ChainAlgebra(X, "1", table_product(X, {})))
    assert not ok
    assert (ok, witnesses) == reference.verify_algebra(ChainAlgebra(X, "1", table_product(X, {})))
    assert [w for w in witnesses if w["axiom"] == "augmentation-chain"] == [
        {"axiom": "augmentation-chain", "element": "f"}]
    # a unit outside degree 0 is no row of d_1: no augmentation witness
    ok, witnesses = verify_algebra(ChainAlgebra(X, "e", table_product(X, {})))
    assert (ok, witnesses) == reference.verify_algebra(ChainAlgebra(X, "e", table_product(X, {})))
    assert all(w["axiom"] != "augmentation-chain" for w in witnesses)
