"""Parity of `verify_simplicial_identities` with the triple loop it replaced.

`reference_identities` is the earlier implementation, kept here as the
oracle: it recomputes every face and degeneracy for each identity instance.
On seeded corruptions of face and degeneracy maps both must return the same
(ok, witness), on finite spaces, on a symbolic one (sampled path), and when
a face lands outside the listed level below.
"""

import random
from collections import Counter

import pytest

from htwist.simplicial import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ComplexSimplicialSet,
    boundary_delta2,
    classifying_space,
    cyclic_constant_group,
    homotopy_fiber,
    kan_loop_group,
    minimal_circle,
    universal_bundle,
    verify_simplicial_identities,
)


def circle_path_fibration():
    """The homotopy fiber of the identity of the minimal circle through 5,
    a space with sampled levels."""
    Y = minimal_circle(6)
    return homotopy_fiber(lambda m, y: y, minimal_circle(6), Y, 5, kan_loop_group(Y, 5)).total


def reference_identities(X, N, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    rng = random.Random(seed)

    def elements_at(n):
        elems = X.elements(n)
        if elems is not None:
            return elems, True
        return [X.sample(n, rng) for _ in range(max(1, samples // max(1, N)))], False

    for n in range(2, N + 1):
        elems, exhaustive = elements_at(n)
        for x in elems:
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    # d_i d_j = d_{j-1} d_i  (i < j)
                    lhs = X.face(n - 1, i, X.face(n, j, x))
                    rhs = X.face(n - 1, j - 1, X.face(n, i, x))
                    if lhs != rhs:
                        return False, {"identity": f"d{i}d{j}", "level": n, "element": x}
    for n in range(0, N):
        elems, _ = elements_at(n)
        for x in elems:
            for i in range(n + 1):
                for j in range(n + 1):
                    if n + 2 > N + 1:
                        continue
                    si = X.degeneracy(n, j, x)
                    if i <= j:
                        lhs = X.degeneracy(n + 1, i, si)
                        rhs = X.degeneracy(n + 1, j + 1, X.degeneracy(n, i, x))
                        if lhs != rhs:
                            return False, {"identity": f"s{i}s{j}", "level": n, "element": x}
    for n in range(1, N):
        elems, _ = elements_at(n)
        for x in elems:
            for j in range(n + 1):
                sx = X.degeneracy(n, j, x)
                for i in range(n + 2):
                    # d_i s_j
                    got = X.face(n + 1, i, sx)
                    if i < j:
                        want = X.degeneracy(n - 1, j - 1, X.face(n, i, x))
                    elif i in (j, j + 1):
                        want = x
                    else:
                        want = X.degeneracy(n - 1, j, X.face(n, i - 1, x))
                    if got != want:
                        return False, {"identity": f"d{i}s{j}", "level": n, "element": x}
    return True, None


# name -> (fresh space, check through N, a map sending a simplex to one
# outside the listed levels)
FINITE = {
    "S1min": (lambda: minimal_circle(6), 5, lambda z: ("m", 99)),
    "dDelta2": (lambda: boundary_delta2(5), 4,
                lambda z: (tuple(v + 10 for v in z[0]), z[1])),
    "WbarC3": (lambda: classifying_space(cyclic_constant_group(3, 6), 5), 4,
               lambda z: z[:-1] + (z[-1] + 3,)),
    "tcpC2": (lambda: universal_bundle(cyclic_constant_group(2, 7), 5)[0], 4,
              lambda z: (z[0], z[1] + 2)),
}
SEEDS = range(32)


def corrupt(X, kind, n, i, target, replacement):
    """Replace X.<kind>(n, i, y) by replacement(correct value) where target(y)."""
    orig = getattr(X, kind)

    def corrupted(m, k, y):
        value = orig(m, k, y)
        return replacement(value) if (m, k) == (n, i) and target(y) else value

    setattr(X, kind, corrupted)


def seeded_corruption(X, N, seed):
    """One to three face or degeneracy values of X moved to other listed
    simplices; with several, the order of the checks picks the witness."""
    rng = random.Random(seed)
    for _ in range(1 + seed % 3):
        kind = rng.choice(("face", "degeneracy"))
        n = rng.randint(1, N) if kind == "face" else rng.randint(0, N)
        i = rng.randint(0, n)
        x = rng.choice(X.elements(n))
        bad = rng.choice(X.elements(n - 1 if kind == "face" else n + 1))
        corrupt(X, kind, n, i, lambda y, x=x: y == x, lambda value, bad=bad: bad)


def both(make, N, **kw):
    return verify_simplicial_identities(make(), N, **kw), reference_identities(make(), N, **kw)


@pytest.mark.parametrize("name", sorted(FINITE))
def test_parity_on_seeded_corruptions(name):
    build, N, _ = FINITE[name]
    failures = 0
    for seed in SEEDS:
        def make():
            X = build()
            seeded_corruption(X, N, seed)
            return X

        new, old = both(make, N)
        assert new == old, (name, seed)
        failures += not new[0]
    assert failures >= len(SEEDS) // 3, (name, failures)


@pytest.mark.parametrize("name", sorted(FINITE))
def test_parity_with_face_outside_listed_level(name):
    build, N, foreign = FINITE[name]
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(2, N)
        i = rng.randint(0, n)
        x = rng.choice(build().elements(n))
        z = foreign(build().face(n, i, x))
        assert z not in build().elements(n - 1)

        def make():
            X = build()
            corrupt(X, "face", n, i, lambda y: y == x, foreign)
            return X

        new, old = both(make, N)
        assert new == old, (name, seed)
        assert not new[0]


def test_parity_on_symbolic_space_sampled():
    """X ×_τ GX for the circle: the loop group levels are symbolic, so both
    checkers draw the same samples; the corruption squares the word part."""
    N, samples = 3, 90
    failures = 0
    for seed in range(12):
        rng = random.Random(seed)
        picks = []
        for _ in range(1 + seed % 3):
            kind = rng.choice(("face", "degeneracy"))
            n = rng.randint(1, N) if kind == "face" else rng.randint(0, N - 1)
            picks.append((kind, n, rng.randint(0, n),
                          rng.choice(minimal_circle(6).elements(n)), rng.randint(0, 2)))

        def make():
            total = circle_path_fibration()
            for kind, n, i, x, length in picks:
                corrupt(total, kind, n, i,
                        lambda y, x=x, length=length: y[0] == x and len(y[1].letters) == length,
                        lambda value: (value[0], value[1] * value[1]))
            return total

        new, old = both(make, N, samples=samples, seed=DEFAULT_SEED + seed)
        assert new == old, seed
        failures += not new[0]
    assert failures >= 3, failures


def test_first_witness_follows_i_then_j():
    """With d_2 and d_3 of one simplex corrupted so that d_0d_3 and d_1d_2
    fail while d_0d_2 holds, the i-major order reports d0d3."""
    x = ("c", 3)

    def make():
        S = minimal_circle(6)
        corrupt(S, "face", 3, 2, lambda y: y == x, lambda value: ("m", 1))
        corrupt(S, "face", 3, 3, lambda y: y == x, lambda value: ("m", 2))
        return S

    new, old = both(make, 5)
    assert new == old == (False, {"identity": "d0d3", "level": 3, "element": x})


def test_sampled_path_draws_in_the_same_order():
    draws = []

    def make():
        total = circle_path_fibration()
        orig = total.sample

        def sample(n, rng):
            y = orig(n, rng)
            draws[-1].append((n, y))
            return y

        total.sample = sample
        draws.append([])
        return total

    new, old = both(make, 4, samples=40)
    assert new == old == (True, None)
    assert draws[0] == draws[1] and len(draws[0]) == 10 * (3 + 4 + 3)


class SphereQuotient(ComplexSimplicialSet):
    """Δ[2]/∂Δ[2]: the boundary collapsed to the base point *, each level
    listing the degeneracies of the 2-simplex σ before *.  σ has
    d_0 = d_1 = d_2 = * as s_0 * does, and s_0 σ has d_2 = d_3 = * as s_2 *
    does: in levels 2 and 3 a degenerate * shares the faces by which it is
    placed with a simplex listed before it."""

    def __init__(self, N):
        super().__init__(N, [(0, 1, 2)], name="S2")
        self.levels = {n: [x for x in level if x[0] == (0, 1, 2)] + [self.basepoint(n)]
                       for n, level in self.levels.items()}

    def _collapse(self, n, x):
        return x if x[0] == (0, 1, 2) else self.basepoint(n)

    def face(self, n, i, x):
        return self._collapse(n - 1, super().face(n, i, x))

    def degeneracy(self, n, i, x):
        return self._collapse(n + 1, super().degeneracy(n, i, x))


# FINITE and a space whose top level has simplices with equal faces d_j,
# d_{j+1} that are not s_j of that face
TOP = dict(FINITE, S2=(lambda: SphereQuotient(5), 3, lambda z: ((0, 1, 3), z[1])))


@pytest.mark.parametrize("name", sorted(TOP))
def test_parity_with_degeneracy_outside_top_level(name):
    """s_j x at level N - 1 moved to a simplex not listed in level N: the
    top level has no dict, so the image is appended there unmatched."""
    build, N, foreign = TOP[name]
    failures = 0
    for seed in range(8):
        rng = random.Random(seed)
        j = rng.randint(0, N - 1)
        x = rng.choice(build().elements(N - 1))
        assert foreign(build().degeneracy(N - 1, j, x)) not in build().elements(N)

        def make():
            X = build()
            corrupt(X, "degeneracy", N - 1, j, lambda y: y == x, foreign)
            return X

        new, old = both(make, N)
        assert new == old, (name, seed)
        failures += not new[0]
    assert failures >= 4, (name, failures)


def with_duplicate(X, n, k, m):
    """X whose listed level n holds its m-th simplex a second time, at k."""
    orig = X.elements

    def elements(level):
        elems = orig(level)
        if level == n:
            elems.insert(k, elems[m])
        return elems

    X.elements = elements
    return X


@pytest.mark.parametrize("name", sorted(TOP))
def test_parity_with_duplicate_in_top_level(name):
    build, N, _ = TOP[name]
    size = len(build().elements(N))
    for seed in SEEDS:
        rng = random.Random(seed)
        k, m = rng.randint(0, size), rng.randrange(size)

        def make():
            X = build()
            if seed % 4:
                seeded_corruption(X, N, seed)
            return with_duplicate(X, N, k, m)

        new, old = both(make, N)
        assert new == old, (name, seed)
        if seed % 4 == 0:
            assert new == (True, None), (name, seed)


def top_corruption(X, N, seed):
    """A corruption confined to levels N - 1 and N.  Even seeds move one or
    two face or degeneracy values there to other listed simplices.  Odd
    seeds swap a degenerate simplex y = s_j x of level N with another, w,
    in the degeneracies into level N and out of it, but not in its faces:
    d_i d_j and s_i s_j still hold, and only d_i s_j can fail."""
    rng = random.Random(seed)
    if seed % 2:
        x = rng.choice(X.elements(N - 1))
        y = X.degeneracy(N - 1, rng.randint(0, N - 1), x)
        w = rng.choice(X.elements(N))
        swap = {y: w, w: y}
        orig = X.degeneracy

        def swapped(n, i, z):
            value = orig(n, i, swap.get(z, z) if n == N else z)
            return swap.get(value, value) if n == N - 1 else value

        X.degeneracy = swapped
        return
    for _ in range(1 + seed % 4 // 2):
        kind = rng.choice(("face", "degeneracy"))
        n = rng.choice((N - 1, N))
        i = rng.randint(0, n)
        x = rng.choice(X.elements(n))
        bad = rng.choice(X.elements(n - 1 if kind == "face" else n + 1))
        corrupt(X, kind, n, i, lambda y, x=x: y == x, lambda value, bad=bad: bad)


@pytest.mark.parametrize("name", sorted(FINITE))
def test_parity_on_corruptions_of_the_two_top_levels(name):
    build, N, _ = FINITE[name]
    families = set()
    for seed in range(48):
        def make():
            X = build()
            top_corruption(X, N, seed)
            return X

        new, old = both(make, N)
        assert new == old, (name, seed)
        if not new[0]:
            families.add("".join(c for c in new[1]["identity"] if c.isalpha()))
    assert families == {"dd", "ss", "ds"}, (name, families)


SPIED = dict(TOP, tcpC3=(lambda: universal_bundle(cyclic_constant_group(3, 6), 4)[0], 3, None))


@pytest.mark.parametrize("name", sorted(SPIED))
def test_each_face_and_degeneracy_requested_once(name):
    """Every (n, i, simplex) face and degeneracy is computed at most once,
    save s_i of level N, which the s_i s_j instances at level N - 1 read
    and which lands beyond the tables."""
    build, N, _ = SPIED[name]
    X = build()
    requests = Counter()
    for kind in ("face", "degeneracy"):
        orig = getattr(X, kind)

        def spy(n, i, y, kind=kind, orig=orig):
            requests[kind, n, i, y] += 1
            return orig(n, i, y)

        setattr(X, kind, spy)
    assert verify_simplicial_identities(X, N) == (True, None)
    repeated = {key: c for key, c in requests.items()
                if c > 1 and key[:2] != ("degeneracy", N)}
    assert not repeated, list(repeated.items())[:5]
    assert {key[:2] for key in requests} >= {("face", N), ("degeneracy", N - 1), ("degeneracy", N)}
