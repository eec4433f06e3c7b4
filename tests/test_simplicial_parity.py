"""Parity of `verify_simplicial_identities` with the triple loop it replaced.

`reference_identities` is the earlier implementation, kept here as the
oracle: it recomputes every face and degeneracy for each identity instance.
On seeded corruptions of face and degeneracy maps both must return the same
(ok, witness), on finite spaces, on a symbolic one (sampled path), and when
a face lands outside the listed level below.
"""

import random

import pytest

from htwist.simplicial import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    boundary_delta2,
    classifying_space,
    cyclic_constant_group,
    homotopy_fiber,
    minimal_circle,
    universal_bundle,
    verify_simplicial_identities,
)


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
            total = homotopy_fiber(lambda m, y: y, minimal_circle(6), minimal_circle(6), 5).total
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
        total = homotopy_fiber(lambda m, y: y, minimal_circle(6), minimal_circle(6), 5).total
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
