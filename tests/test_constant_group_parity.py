"""The constant-group flag and the one set of structure maps of W̄G and
W̄G ×_ν G.

`constant_group` marks its group with `constant = True`; the flag lets
`formula_levels` build the index tables (docs/DECISIONS.md, section 14),
and nothing else reads it.  `face` and `degeneracy` are the per-entry
formulas for every group; `tests/test_simplicial_tables.py` compares them
with every table entry.  S3 is non-abelian, so the order of the merged
product a_j·a_{j-1} is checked here.
"""

import itertools

from htwist._simplicial_tables import formula_levels
from htwist.simplicial import (
    FiniteSimplicialGroup,
    TwistedCartesianProduct,
    classifying_space,
    constant_group,
    couniversal_twisting_function,
    cyclic_constant_group,
    kan_loop_group,
    minimal_circle,
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


def test_wbar_s3_merge_keeps_the_product_order():
    """The merged entry is a_j·a_{j-1}, not a_{j-1}·a_j, on a pair that does
    not commute."""
    W = classifying_space(symmetric_group_s3(5), 4)
    a, b = (1, 0, 2), (0, 2, 1)
    assert W.G.mult(0, b, a) != W.G.mult(0, a, b)
    assert W.face(2, 1, (a, b)) == (W.G.mult(0, b, a),)


def test_only_constant_group_sets_the_flag():
    assert cyclic_constant_group(3, 2).constant
    assert not kan_loop_group(minimal_circle(3), 2).constant
    assert not minimal_circle(3).constant
    assert not classifying_space(cyclic_constant_group(3, 2), 2).constant


def test_identity_maps_without_the_flag_take_the_per_entry_path():
    """A group whose faces and degeneracies are identities, built without
    `constant_group`, gets no formula tables, as W̄, as a bundle over its W̄
    or as the fibre over a flagged W̄: they ask the group."""
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
    flagged = classifying_space(cyclic_constant_group(3, 4), 4)
    over_flagged = TwistedCartesianProduct(flagged, couniversal_twisting_function(flagged), G,
                                           lambda n, y, g: G.mult(n, y, g), 3)
    assert not G.constant and formula_levels(flagged, 3) is not None
    for X in (W, T, over_flagged):
        assert "face" not in vars(X) and "degeneracy" not in vars(X)
        assert formula_levels(X, 3) is None
    assert W.face(3, 3, (0, 1, 2)) == (1, 2) and ("face", 1, 1) in asked
    asked.clear()
    assert W.degeneracy(2, 1, (1, 2)) == (1, 0, 2) and ("degeneracy", 1, 0) in asked
    asked.clear()
    assert T.face(3, 1, ((0, 1, 2), 1)) == ((0, 0), 1) and ("face", 3, 1) in asked
