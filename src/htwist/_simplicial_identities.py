"""The body of `simplicial.verify_simplicial_identities`.

Where `_simplicial_tables.formula_levels` builds a space's index tables,
each identity instance compares two composites of table lookups.  A side
whose inner table is a formula table is composed whole by
`_simplicial_tables.composite`, in C, and the two are compared with one
array `==`; a side without one (the twisted d_0 of X ×_τ Y) is gathered
CHUNK rows at a time by `operator.itemgetter`.  Only an instance that
differs is searched for the witness, CHUNK rows at a time.  The check
lists no simplex unless it fails (docs/DECISIONS.md, sections 12 and 14).
Any other space runs the plain loop over its own face and degeneracy maps,
memoised so that each (n, i, simplex) is computed once.
This sits in its own module because `simplicial`, which every CLI command
imports, is the largest module: without a bytecode cache each import
compiles it from source, the compiler's peak memory grows with the module,
and code added there raised the peak RSS of commands that never check an
identity.
"""

from __future__ import annotations

import random
from array import array
from functools import cache
from operator import itemgetter

from ._simplicial_tables import composite, formula_levels


CHUNK = 512  # rows per gather and per witness search (docs/DECISIONS.md, section 12)


def first_failure(instances, rows: int):
    """(row, label) of the first failure in row, then instance order, or
    None.  instances yields (label, a, s, b, t): row k < rows fails when
    a[s[k]] != b[t[k]].  An instance whose two sides have composites is
    compared whole, and searched only when they differ; rows are searched
    CHUNK at a time, and each instance only on the rows before the best
    failure found so far."""
    first, end = None, rows
    for label, a, s, b, t in instances:
        x = composite(a, s)
        y = None if x is None else composite(b, t)
        if y is not None:
            if x == y:
                continue
            a, s, b, t = x, range(rows), y, range(rows)
        for c in range(0, end, CHUNK):
            e = min(c + CHUNK, end)
            # itemgetter of one position gives a bare entry: both sides do
            if itemgetter(*s[c:e])(a) != itemgetter(*t[c:e])(b):
                k = next(k for k in range(c, e) if a[s[k]] != b[t[k]])
                first, end = (k, label), k
                break
    return first


def by_tables(levels, N: int):
    """The check on complete tables: the first failing row of each level,
    and among its failures the earliest instance."""
    for n in range(2, N + 1):  # d_i d_j = d_{j-1} d_i  (i < j)
        below, faces = levels[n - 1].faces, levels[n].faces
        fail = first_failure(((f"d{i}d{j}", below[i], faces[j], below[j - 1], faces[i])
                              for i in range(n + 1) for j in range(i + 1, n + 1)), levels[n].size)
        if fail:
            return n, fail
    for n in range(N):  # s_i s_j = s_{j+1} s_i  (i <= j)
        s, above = levels[n].degens, levels[n + 1].degens
        fail = first_failure(((f"s{i}s{j}", above[i], s[j], above[j + 1], s[i])
                              for i in range(n + 1) for j in range(i, n + 1)), levels[n].size)
        if fail:
            return n, fail
    for n in range(1, N):  # d_i s_j = s_{j-1} d_i (i < j), id (i = j, j+1), s_j d_{i-1} (i > j+1)
        s, d, ids = levels[n].degens, levels[n].faces, range(levels[n].size)
        up, down, ramp = levels[n + 1].faces, levels[n - 1].degens, levels[n].ramp
        fail = first_failure(
            ((f"d{i}s{j}", up[i], s[j], *((down[j - 1], d[i]) if i < j else (ramp, ids) if i <= j + 1
                                          else (down[j], d[i - 1])))
             for j in range(n + 1) for i in range(n + 2)), levels[n].size)
        if fail:
            return n, fail
    return None


def by_contraction(levels, h, v: int):
    """The first failing (level, (row, label)) of h as an extra degeneracy
    on complete tables of levels 0..N, h[n] numbering level n in level
    n + 1, or None: d_0 h = id and d_{i+1} h = h d_i on levels 0..N - 1,
    d_1 h = v on level 0, and s_{j+1} h = h s_j on levels 0..N - 2
    (docs/DECISIONS.md, section 4).  The identity is ramp[k] = k."""
    for n, level in enumerate(levels[:-1]):
        up, ids = levels[n + 1].faces, range(level.size)
        instances = [("d0h", up[0], h[n], level.ramp, ids)]
        if n:
            instances += [(f"d{i + 1}h", up[i + 1], h[n], h[n - 1], level.faces[i]) for i in range(n + 1)]
        else:
            instances.append(("d1h", up[1], h[0], array("i", [v]) * level.size, ids))
        if n + 2 < len(levels):
            instances += [(f"s{j + 1}h", levels[n + 1].degens[j + 1], h[n], h[n + 1], level.degens[j])
                          for j in range(n + 1)]
        fail = first_failure(instances, level.size)
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
