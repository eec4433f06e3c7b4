"""The body of `simplicial.verify_simplicial_identities`.

Where `_simplicial_tables.formula_levels` builds a space's index tables,
each identity instance is a comparison of table lookups, made a level at
a time (docs/DECISIONS.md, sections 12 and 14).  Any other space runs the
plain loop over its own face and degeneracy maps, memoised so that each
(n, i, simplex) is computed once.
This sits in its own module because `simplicial`, which every CLI command
imports, is the largest module: without a bytecode cache each import
compiles it from source, the compiler's peak memory grows with the module,
and code added there raised the peak RSS of commands that never check an
identity.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import compress, count, islice
from operator import ne

from ._simplicial_tables import formula_levels


def at(table, positions):
    """The entries of a table at these positions."""
    return map(table.__getitem__, positions)


def first_failure(instances):
    """(row, label) of the first failure in row, then instance order, or
    None; instances yields (label, flags), flags[k] true where row k fails."""
    first = None
    for label, flags in instances:
        if first is not None:
            flags = islice(flags, first[0])
        k = next(compress(count(), flags), None)
        if k is not None:
            first = (k, label)
    return first


def by_tables(levels, N: int):
    """The check on complete tables: the first failing row of each level,
    and among its failures the earliest instance."""
    for n in range(2, N + 1):  # d_i d_j = d_{j-1} d_i  (i < j)
        below, faces = levels[n - 1].faces, levels[n].faces
        fail = first_failure((f"d{i}d{j}", map(ne, at(below[i], faces[j]), at(below[j - 1], faces[i])))
                             for i in range(n + 1) for j in range(i + 1, n + 1))
        if fail:
            return n, fail
    for n in range(N):  # s_i s_j = s_{j+1} s_i  (i <= j)
        s, above = levels[n].degens, levels[n + 1].degens
        fail = first_failure((f"s{i}s{j}", map(ne, at(above[i], s[j]), at(above[j + 1], s[i])))
                             for i in range(n + 1) for j in range(i, n + 1))
        if fail:
            return n, fail
    for n in range(1, N):  # d_i s_j = s_{j-1} d_i (i < j), id (i = j, j+1), s_j d_{i-1} (i > j+1)
        s, d, rows = levels[n].degens, levels[n].faces, range(len(levels[n].simplices))
        up, down = levels[n + 1].faces, levels[n - 1].degens
        fail = first_failure(
            (f"d{i}s{j}", map(ne, at(up[i], s[j]), at(down[j - 1], d[i]) if i < j
                              else rows if i <= j + 1 else at(down[j], d[i - 1])))
            for j in range(n + 1) for i in range(n + 2))
        if fail:
            return n, fail
    return None


def verify(X, N: int, samples: int, seed: int):
    """See `simplicial.verify_simplicial_identities`."""
    levels = formula_levels(X, N)
    if levels is not None:
        fail = by_tables(levels, N)
        if fail is None:
            return True, None
        n, (k, label) = fail
        return False, {"identity": label, "level": n, "element": levels[n].simplices[k]}

    rng = random.Random(seed)
    face, degeneracy = cache(X.face), cache(X.degeneracy)

    def rows(n):
        elems = X.elements(n)
        return elems if elems is not None else [X.sample(n, rng) for _ in range(max(1, samples // max(1, N)))]

    def witness(label, n, x):
        return False, {"identity": label, "level": n, "element": x}

    for n in range(2, N + 1):
        for x in rows(n):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    if face(n - 1, i, face(n, j, x)) != face(n - 1, j - 1, face(n, i, x)):
                        return witness(f"d{i}d{j}", n, x)
    for n in range(N):
        for x in rows(n):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if degeneracy(n + 1, i, degeneracy(n, j, x)) \
                            != degeneracy(n + 1, j + 1, degeneracy(n, i, x)):
                        return witness(f"s{i}s{j}", n, x)
    for n in range(1, N):
        for x in rows(n):
            for j in range(n + 1):
                sx = degeneracy(n, j, x)
                for i in range(n + 2):
                    got = face(n + 1, i, sx)
                    if i < j:
                        want = degeneracy(n - 1, j - 1, face(n, i, x))
                    elif i <= j + 1:
                        want = x
                    else:
                        want = degeneracy(n - 1, j, face(n, i - 1, x))
                    if got != want:
                        return witness(f"d{i}s{j}", n, x)
    return True, None
