"""Parity of the constant-group structure maps with the per-entry formulas.

For a constant group G, `ClassifyingSpace` and `TwistedCartesianProduct`
bind `face` and `degeneracy` to tuple slices that call no group face or
degeneracy (docs/DECISIONS.md, section 13).  The per-entry class methods,
called unbound, are the reference: every face and every degeneracy of every
simplex must agree.  S3 is non-abelian, so the order of the merged product
a_j·a_{j-1} is checked as well.
"""

import itertools

import pytest

from htwist.simplicial import (
    ClassifyingSpace,
    FiniteSimplicialGroup,
    TwistedCartesianProduct,
    classifying_space,
    constant_group,
    couniversal_twisting_function,
    cyclic_constant_group,
    kan_loop_group,
    minimal_circle,
    universal_bundle,
)


def symmetric_group_s3(N):
    perms = list(itertools.permutations(range(3)))

    def mult(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inv(a):
        out = [0] * 3
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    return constant_group(perms, mult, inv, tuple(range(3)), N, name="S3")


def assert_structure_parity(X, cls, N):
    """Every face (levels 1..N) and degeneracy (levels 0..N) of X against
    the per-entry methods of cls."""
    assert "face" in vars(X) and "degeneracy" in vars(X)
    for n in range(N + 1):
        for x in X.elements(n):
            for i in range(n + 1):
                if n:
                    assert X.face(n, i, x) == cls.face(X, n, i, x), ("face", n, i, x)
                assert X.degeneracy(n, i, x) == cls.degeneracy(X, n, i, x), ("degeneracy", n, i, x)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_wbar_cyclic_slices_equal_per_entry(k):
    W = classifying_space(cyclic_constant_group(k, 6), 5)
    assert_structure_parity(W, ClassifyingSpace, 5)


def test_wbar_s3_slices_equal_per_entry():
    W = classifying_space(symmetric_group_s3(5), 4)
    assert_structure_parity(W, ClassifyingSpace, 4)
    # the merged entry is a_j·a_{j-1}, not a_{j-1}·a_j, on a pair that does not commute
    a, b = (1, 0, 2), (0, 2, 1)
    assert W.G.mult(0, b, a) != W.G.mult(0, a, b)
    assert W.face(2, 1, (a, b)) == (W.G.mult(0, b, a),)


@pytest.mark.parametrize("k", [2, 3])
def test_universal_bundle_slices_equal_per_entry(k):
    T, W, _ = universal_bundle(cyclic_constant_group(k, 6), 4)
    assert_structure_parity(T, TwistedCartesianProduct, 4)


def test_only_constant_group_sets_the_flag():
    assert cyclic_constant_group(3, 2).constant
    assert not kan_loop_group(minimal_circle(3), 2).constant
    assert not minimal_circle(3).constant
    assert not classifying_space(cyclic_constant_group(3, 2), 2).constant


def test_identity_maps_without_the_flag_take_the_per_entry_path():
    """A group whose faces and degeneracies are identities, built without
    `constant_group`, keeps the per-entry bodies, which ask the group."""
    asked = []

    def face(n, i, x):
        asked.append(("face", n, i))
        return x

    def degeneracy(n, i, x):
        asked.append(("degeneracy", n, i))
        return x

    G = FiniteSimplicialGroup(4, {n: [0, 1, 2] for n in range(5)}, face, degeneracy,
                              mult=lambda n, a, b: (a + b) % 3, inv=lambda n, a: -a % 3,
                              neutral=lambda n: 0, name="C3")
    W = classifying_space(G, 4)
    T = TwistedCartesianProduct(W, couniversal_twisting_function(W), G,
                                lambda n, y, g: G.mult(n, y, g), 3)
    assert not G.constant
    for X in (W, T):
        assert "face" not in vars(X) and "degeneracy" not in vars(X)
    assert W.face(3, 3, (0, 1, 2)) == (1, 2) and ("face", 1, 1) in asked
    asked.clear()
    assert W.degeneracy(2, 1, (1, 2)) == (1, 0, 2) and ("degeneracy", 1, 0) in asked
    asked.clear()
    assert T.face(3, 1, ((0, 1, 2), 1)) == ((0, 0), 1) and ("face", 3, 1) in asked
