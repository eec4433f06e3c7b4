"""The body of `simplicial.verify_simplicial_identities`, on index tables.

Each level's simplices are numbered once, and each face and degeneracy is
computed once into per-level `array('i')` tables; the identity instances
are then comparisons of table lookups (docs/DECISIONS.md, section 12).
Where `_simplicial_tables.formula_levels` builds a space's tables whole,
the check reads those and fills nothing (section 14).
This sits in its own module because `simplicial`, which every CLI command
imports, is the largest module: without a bytecode cache each import
compiles it from source, the compiler's peak memory grows with the module,
and code added there raised the peak RSS of commands that never check an
identity.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain, compress, count, islice
from operator import eq, ne

from ._simplicial_tables import Level, formula_levels


def column(table, positions):
    """The entries of a table at these positions: the table itself when
    they are all of its positions, in order."""
    if positions == range(len(table)):
        return table
    return map(table.__getitem__, positions)


def images(tables, positions):
    """The numbers the tables give the simplices at these positions."""
    return chain.from_iterable(column(t, positions) for t in tables)


def fill_faces(X, level: Level, below: Level, positions):
    """Compute every face of the simplices at these positions once."""
    level.grow()
    n, simplices, tables, face = level.n, level.simplices, level.faces, X.face
    known, number = below.index.get, below.number
    done = tables[0]
    for p in positions:
        if done[p] < 0:
            y = simplices[p]
            for i, table in enumerate(tables):
                z = face(n, i, y)
                q = known(z)
                table[p] = number(z) if q is None else q


def fill_degeneracies(X, level: Level, place, positions):
    """Compute every degeneracy of the simplices at these positions once;
    place(j, p, y) numbers y = s_j of simplex p in the level above."""
    level.grow()
    n, simplices, tables, degeneracy = level.n, level.simplices, level.degens, X.degeneracy
    done = tables[0]
    for p in positions:
        if done[p] < 0:
            z = simplices[p]
            for j, table in enumerate(tables):
                table[p] = place(j, p, degeneracy(n, j, z))


def top_placement(top: Level, below: Level, rows):
    """place(j, z, y) for y = s_j of simplex z into the top level, which has
    no dict.  A top simplex equal to s_j z has d_j = d_{j+1} = z, so y is
    looked for among the rows with those faces and appended when none of
    them equals it.  The rows are chained per j and z from the face tables:
    first[z] is the first such row, after[y] the next one after row y."""
    simplices, chains = top.simplices, []
    for j in range(top.n):
        lo, hi = top.faces[j], top.faces[j + 1]
        first, after = array("i", [-1]) * len(below.simplices), {}
        for y in reversed(list(compress(rows, map(eq, column(lo, rows), column(hi, rows))))):
            z = lo[y]
            if first[z] >= 0:
                after[y] = first[z]
            first[z] = y
        chains.append((first, after))

    def place(j, z, y):
        first, after = chains[j]
        q = first[z] if z < len(first) else -1
        while q >= 0 and simplices[q] != y:
            q = after.get(q, -1)
        return q if q >= 0 else top.number(y)

    return place


def face_tables(X, levels, dd, ds):
    """Faces, top down: of the d_i d_j and d_i s_j rows, and of the faces of
    the d_i d_j rows one level up."""
    for n in range(len(levels) - 1, 0, -1):
        level, below = levels[n], levels[n - 1]
        for family in (dd, ds):
            if n in family:
                fill_faces(X, level, below, family[n][1])
        if n + 1 in dd:
            fill_faces(X, level, below, images(levels[n + 1].faces, dd[n + 1][1]))


def degeneracy_tables(X, levels, dd, ss, ds):
    """Degeneracies, bottom up: of the s_i s_j and d_i s_j rows, of the s_j
    images of the s_i s_j rows one level down, and of the faces of the
    d_i s_j rows one level up."""
    N = len(levels) - 1
    for n in range(N):
        level = levels[n]
        if n == N - 1:
            place = top_placement(levels[N], level, dd[N][1] if N in dd else ())
        else:
            place = lambda j, p, y, above=levels[n + 1]: above.number(y)
        for family in (ss, ds):
            if n in family:
                fill_degeneracies(X, level, place, family[n][1])
        if n - 1 in ss:
            fill_degeneracies(X, level, place, images(levels[n - 1].degens, ss[n - 1][1]))
        if n + 1 in ds:
            fill_degeneracies(X, level, place, images(levels[n + 1].faces, ds[n + 1][1]))


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


def verify(X, N: int, samples: int, seed: int):
    """See `simplicial.verify_simplicial_identities`."""
    rng = random.Random(seed)
    draw = max(1, samples // max(1, N))
    filled = formula_levels(X, N)
    levels = filled or [Level(n, top=n == N) for n in range(N + 1)]
    listed = {}

    def rows_at(n):
        """(simplices, numbers) that one family runs over at level n."""
        if filled:
            return levels[n].simplices, range(len(levels[n].simplices))
        if n not in listed:
            elems = X.elements(n)
            listed[n] = None if elems is None else (elems, levels[n].number_all(elems))
        if listed[n] is not None:
            return listed[n]
        elems = [X.sample(n, rng) for _ in range(draw)]
        return elems, levels[n].number_all(elems)

    dd = {n: rows_at(n) for n in range(2, N + 1)}
    ss = {n: rows_at(n) for n in range(N)}
    ds = {n: rows_at(n) for n in range(1, N)}

    def witness(family, n, fail):
        k, label = fail
        return False, {"identity": label, "level": n, "element": family[n][0][k]}

    if not filled:
        face_tables(X, levels, dd, ds)

    # d_i d_j = d_{j-1} d_i  (i < j)
    for n, (_, rows) in dd.items():
        below, faces = levels[n - 1].faces, levels[n].faces
        fail = first_failure((f"d{i}d{j}", map(ne, column(below[i], column(faces[j], rows)),
                                               column(below[j - 1], column(faces[i], rows))))
                             for i in range(n + 1) for j in range(i + 1, n + 1))
        if fail:
            return witness(dd, n, fail)

    if not filled:
        degeneracy_tables(X, levels, dd, ss, ds)

    # s_i s_j = s_{j+1} s_i  (i <= j)
    for n, (_, rows) in ss.items():
        s = [array("i", column(t, rows)) for t in levels[n].degens]
        pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
        if n == N - 1 and not filled:
            degeneracy, simplices = X.degeneracy, levels[N].simplices
            for k in range(len(rows)):
                sx = [simplices[t[k]] for t in s]
                for i, j in pairs:
                    if degeneracy(N, i, sx[j]) != degeneracy(N, j + 1, sx[i]):
                        return witness(ss, n, (k, f"s{i}s{j}"))
            continue
        above = levels[n + 1].degens
        if filled or n + 2 < N:
            differ = ne
        else:  # top positions: equal ones hold one simplex, unequal ones may too
            top = levels[N].simplices
            differ = lambda p, q: p != q and top[p] != top[q]
        fail = first_failure((f"s{i}s{j}", map(differ, column(above[i], s[j]),
                                               column(above[j + 1], s[i])))
                             for i, j in pairs)
        if fail:
            return witness(ss, n, fail)

    # d_i s_j = s_{j-1} d_i (i < j), id (i = j, j+1), s_j d_{i-1} (i > j+1)
    for n, (_, rows) in ds.items():
        s = [array("i", column(t, rows)) for t in levels[n].degens]
        if not filled:
            fill_faces(X, levels[n + 1], levels[n], chain.from_iterable(s))
        d = [array("i", column(t, rows)) for t in levels[n].faces]
        up, down = levels[n + 1].faces, levels[n - 1].degens
        fail = first_failure(
            (f"d{i}s{j}", map(ne, column(up[i], s[j]),
                              column(down[j - 1], d[i]) if i < j
                              else rows if i <= j + 1
                              else column(down[j], d[i - 1])))
            for j in range(n + 1) for i in range(n + 2))
        if fail:
            return witness(ds, n, fail)
    return True, None
