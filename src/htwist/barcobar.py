"""The cobar and bar constructions with explicit Koszul-rule differentials,
their adjunction unit/counit, and the shuffle product on the bar construction
of a commutative algebra.

Words are tuples of (degree, name) letters drawn from the positive part of
the underlying (co)algebra.  A bar letter s(a) has marked degree |a|+1, a
cobar letter s-1(c) has marked degree |c|-1.  All signs below are produced
mechanically by the Koszul rule on marked degrees; the d^2 = 0, derivation
and coderivation checks in the test suite pin the convention down.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from . import NotConnected, NotOneConnected
from ._structure_maps import Action, Coaction
from .complexes import ChainComplex, ChainMap, GradedBasis, _differing_columns, _tensor_offsets, tensor_name
from .hopf import (
    ChainAlgebra,
    ChainCoalgebra,
    Key,
    _action_table,
    _comodule_map_failures,
    _module_map_failures,
    _sign,
)
from .sparse import SparseMatrix


class NotCommutative(Exception):
    pass


Word = tuple[Key, ...]  # letters as (underlying degree, underlying name)

EMPTY_NAME = "[]"


def bar_letter_degree(key: Key) -> int:
    return key[0] + 1


def cobar_letter_degree(key: Key) -> int:
    return key[0] - 1


def bar_word_name(word: Word) -> str:
    return EMPTY_NAME if not word else "|".join(f"s({n})" for (_, n) in word)


def cobar_word_name(word: Word) -> str:
    return EMPTY_NAME if not word else "|".join(f"s-1({n})" for (_, n) in word)


def _word_blocks(letters: dict[int, list], N: int):
    """The composition blocks of the words of marked degree 1..N over
    ``letters`` (marked degree -> letters in name order, degrees ascending),
    degree by degree, as (n, [(parts, start, first, size), ...]) in basis
    order.  The words of the block ``parts`` (a composition of n into letter
    degrees) sit in degree n from index ``start`` on: the ``size`` words of
    the block parts[:-1], from index ``first`` of degree n - parts[-1] on,
    each followed by every letter of degree parts[-1] in turn, so a block's
    words are the product of its parts' letter lists.

    Inside a degree the order is (length, letter degrees, letter names), a
    total order on distinct words: deterministic matrices everywhere
    downstream.  The blocks of one length run lexicographically
    (docs/DECISIONS.md, section 9).  Nothing is sorted, and no word is built.
    """
    compositions = {0: {0: [()]}}  # degree -> length -> parts, lexicographically
    placed = {(): (0, 1)}  # parts -> (index of the block's first word, its size)
    for n in range(1, N + 1):
        by_length = compositions[n] = {}
        for d in letters:
            for k, tails in compositions.get(n - d, {}).items():
                by_length.setdefault(k + 1, []).extend((d,) + t for t in tails)
        blocks, start = [], 0
        for k in range(1, n + 1):
            for parts in by_length.get(k, ()):
                first, size = placed[parts[:-1]]
                placed[parts] = start, size * len(letters[parts[-1]])
                blocks.append((parts, start, first, size))
                start += size * len(letters[parts[-1]])
        if blocks:
            yield n, blocks


def _letters_of(basis: GradedBasis, N: int) -> dict[int, list]:
    """The letters of a word basis through marked degree N, by marked degree
    in name order: its one-letter words, which open each degree."""
    letters = {}
    for n in range(1, N + 1):
        for name in basis.names(n):
            word = basis.keys[name]
            if len(word) > 1:
                break
            letters.setdefault(n, []).append(word[0])
    return letters


def _word_complex(inner: ChainComplex, lowest: int, shift: int, N: int, mark: str,
                  span: int, rewrite) -> ChainComplex:
    """The complex on all words of marked degree <= N over the letters of
    ``inner`` in degrees >= ``lowest`` (marked degree |x| + shift), keyed by
    word and named by joining its letters' ``mark(x)`` with |, with
    d = Σ_j (-1)^{e_j} (-(internal d on letter j) + rewrite).

    e_j is the total marked degree of the letters before j;
    ``rewrite(w[j:j+span])`` lists the (letters, coeff) that replace those
    letters in the bar merge (span 2) or the cobar split (span 1).  Internal
    d that leaves the letter degrees >= ``lowest`` is dropped (augmentation,
    1-connectivity).

    d is written from each word's prefix (docs/DECISIONS.md, section 9):
    d(u·ℓ) is d(u) with ℓ appended, plus the terms whose window holds ℓ.
    Letters are numbered, and a word u·ℓ is found from the index of u by
    the append table (|u|, ℓ) -> [index of u·ℓ for each u of degree |u|],
    filled block by block as the words are enumerated; each word's prefix
    and last letter come from its block.  The tables are
    locals of this call, freed once d is written.
    """
    top = min(inner.truncation, N - shift)
    letters = {n + shift: [(n, x) for x in sorted(inner.basis.names(n))]
               for n in range(lowest, top + 1) if inner.basis.dim(n)}
    keys = [key for run in letters.values() for key in run]
    number = {key: i for i, key in enumerate(keys)}
    ids = {d: [number[key] for key in run] for d, run in letters.items()}
    text = {d: [f"{mark}({x})" for _, x in run] for d, run in letters.items()}
    marked = [n + shift for n, _ in keys]
    basis = GradedBasis(N)
    basis.fill(0, [EMPTY_NAME], [()])
    runs, firsts, append = {}, {}, {}  # degree -> blocks; parts -> first; (|u|, ℓ) -> table
    for n, blocks in _word_blocks(letters, N):
        names, words, runs[n] = [], [], blocks
        for parts, start, first, size in blocks:
            m, ls, firsts[parts] = n - parts[-1], ids[parts[-1]], first
            for i, l in enumerate(ls, start):
                if (m, l) not in append:
                    append[m, l] = [0] * basis.dim(m)
                append[m, l][first:first + size] = range(i, i + size * len(ls), len(ls))
            words += product(*map(letters.__getitem__, parts))
            names += map("|".join, product(*map(text.__getitem__, parts)))
        basis.fill(n, names, words)
    X = ChainComplex(inner.ring, basis)

    def extend(m, p, rep):
        """The index of the word of degree m at p followed by the letters rep."""
        for l in rep:
            p = append[m, l][p]
            m += marked[l]
        return p

    @cache
    def window(*ls):
        return [(tuple(map(number.__getitem__, rep)), c)
                for rep, c in rewrite(tuple(map(keys.__getitem__, ls)))]

    def at_letter(l):
        n, x = keys[l]
        if n <= lowest:
            internal = []
        else:
            below = inner.basis.names(n - 1)
            internal = [((number[n - 1, below[r]],), -c)
                        for r, c in inner.dmat(n).column(inner.basis.index(n, x)).items()]
        return internal + (window(l) if span == 1 else [])

    single = [at_letter(l) for l in range(len(keys))]
    columns = {0: [[]]}  # degree -> d of each word as (row, coeff) pairs

    def terms(n):
        if n > 1:  # d_{n-1} is written
            columns[n - 1] = cols = [[] for _ in range(basis.dim(n - 1))]
            for (r, j), v in X.diff[n - 1].entries.items():
                cols[j].append((r, v))
        col = 0
        for parts, _, first, size in runs.get(n, ()):
            # the words u·ℓ of the block: u = u'·λ runs over the block
            # parts[:-1] of degree m, ℓ over the letters of degree parts[-1]
            m, ls = n - parts[-1], ids[parts[-1]]
            merge = span == 2 and m > 0
            if merge:
                m2, ls2, first2 = m - parts[-2], ids[parts[-2]], firsts[parts[:-1]]
            for k, p in enumerate(range(first, first + size)):
                du = columns[m][p]
                for l in ls:
                    if du:
                        rows = append[m - 1, l]
                        for r, c in du:
                            yield (rows[r], col), c
                    # the windows that hold ℓ, the merge before the internal d
                    # and the split, so entries come in the order of the sum
                    # over j
                    if merge:
                        p2, l2 = divmod(k, len(ls2))
                        for rep, c in window(ls2[l2], l):
                            yield (extend(m2, first2 + p2, rep), col), -c if m2 % 2 else c
                    for rep, c in single[l]:
                        yield (extend(m, p, rep), col), -c if m % 2 else c
                    col += 1

    X._set_d(terms)
    return X


# ---------------------------------------------------------------------
# Bar construction.
# ---------------------------------------------------------------------

def bar(A: ChainAlgebra, N: int) -> ChainCoalgebra:
    """Cofree coalgebra on s(A_{>0}) words with the bar differential.

    d(s a1|...|s an) = Σ_j -(-1)^{e_j} (internal d on letter j)
                     + Σ_j (-1)^{e_{j+1}} (merge letters j, j+1),
    where e_j is the total marked degree of the letters before j.  The
    coproduct is deconcatenation, read from the word keys.
    """
    if not A.is_connected():
        raise NotConnected(f"bar needs a connected algebra, degree 0 = {A.basis(0)}")
    R = A.ring

    def merge(pair):
        (dj, aj), (dk, ak) = pair
        return [(((dj + dk, prod),), c if dj % 2 else -c)
                for prod, c in A.product(dj, aj, dk, ak).items()]

    X = _word_complex(A.complex, 1, 1, N, "s", 2, merge)
    keys, names, positions = X.basis.keys, X.basis.names, X.basis.positions

    @cache
    def deconcatenate(n, j):
        # w⊗[] and []⊗w, then the splits after letters 1..len(w) - 1
        w, dl, terms = keys[names(n)[j]], 0, [(n, j, 0, R.one), (0, 0, j, R.one)]
        for i in range(1, len(w)):
            dl += w[i - 1][0] + 1
            terms.append((dl, positions(dl)[w[:i]], positions(n - dl)[w[i:]], R.one))
        return terms

    return ChainCoalgebra(X, EMPTY_NAME, Coaction(deconcatenate, X, X, X), name=f"Bar({A.name})")


# ---------------------------------------------------------------------
# Cobar construction.
# ---------------------------------------------------------------------

def cobar(C: ChainCoalgebra, N: int) -> ChainAlgebra:
    """Free algebra on s-1(C_{>0}) words with the cobar differential.

    d(s-1 c1|...|s-1 cn) = Σ_j -(-1)^{e_j} (internal d on letter j)
                         + Σ_j (-1)^{e_j} Σ (-1)^{|c'|} (split letter j by Δ̄),
    Δ̄c_j = Σ c'⊗c''.  Product is concatenation (computed, not tabulated).
    """
    if not C.is_one_connected():
        raise NotOneConnected(
            f"cobar needs a 1-connected coalgebra, degrees 0/1 = {C.basis(0)}/{C.basis(1)}"
        )
    R = C.ring

    def split(letter):
        return [((k1, k2), -v if k1[0] % 2 else v) for k1, k2, v in C.reduced_coproduct(*letter[0])]

    X = _word_complex(C.complex, 2, -1, N, "s-1", 1, split)
    keys, names, positions = X.basis.keys, X.basis.names, X.basis.positions

    def concat(p, i, q, j):
        return [(positions(p + q)[keys[names(p)[i]] + keys[names(q)[j]]], R.one)]

    return ChainAlgebra(X, EMPTY_NAME, Action(concat, X, X), name=f"Cobar({C.name})")


# ---------------------------------------------------------------------
# Shuffles and the commutative bar multiplication.
# ---------------------------------------------------------------------

def shuffles_with_signs(ring, u: Word, v: Word, degree):
    """All (|u|,|v|)-shuffles of the letters with Koszul signs.

    ``degree(letter)`` gives the marked degree used by the sign rule: moving
    a letter of v past a letter of u costs (-1)^{deg*deg}.
    """
    out = []

    def rec(uu, vv, acc, sign):
        if not uu and not vv:
            out.append((tuple(acc), sign))
            return
        if uu:
            rec(uu[1:], vv, acc + [uu[0]], sign)
        if vv:
            passed = sum(degree(k) for k in uu)
            s2 = ring.mul(sign, _sign(ring, degree(vv[0]) * passed))
            rec(uu, vv[1:], acc + [vv[0]], s2)

    rec(list(u), list(v), [], ring.one)
    return out


def is_graded_commutative(A: ChainAlgebra) -> bool:
    """ab = (-1)^{|a||b|} ba, as one identity of product tables per degree
    (docs/DECISIONS.md, section 8)."""
    R, X, rows = A.ring, A.complex, A.product.rows

    def swapped(p, i, q, j):
        return list(R.lincomb((r, _sign(R, p * q) * v) for r, v in rows(q, j, p, i)).items())

    return not any(_differing_columns(_action_table(rows, X, X, n, 1),
                                      _action_table(swapped, X, X, n, 1))
                   for n in range(A.truncation + 1))


def shuffle_product_bar(A: ChainAlgebra, N: int) -> ChainAlgebra:
    """The commutative multiplication Bμ∘∇ on Bar(A) for commutative A.

    Words multiply by shuffling their letters with Koszul signs on the
    marked degrees.  Returns a ChainAlgebra on the bar complex (the bar
    coalgebra keeps living alongside it).
    """
    if not is_graded_commutative(A):
        raise NotCommutative(f"{A.name or 'algebra'} is not graded-commutative")
    X = bar(A, N).complex
    return ChainAlgebra(X, EMPTY_NAME, _shuffle_product(X), name=f"Bar({A.name})-shuffle")


def _shuffle_product(X: ChainComplex) -> Action:
    """The signed shuffles of the word keys of the bar complex X, found by
    position; the empty word is the unit.  Each pair is computed once, when
    first asked (the quotient algebra of normality asks each pair again)."""
    R, keys, names, positions = X.ring, X.basis.keys, X.basis.names, X.basis.positions

    @cache
    def product(p, i, q, j):
        return list(R.lincomb((positions(p + q)[w], sgn) for w, sgn in shuffles_with_signs(
            R, keys[names(p)[i]], keys[names(q)[j]], bar_letter_degree)).items())

    return Action(product, X, X)


# ---------------------------------------------------------------------
# Functoriality: Bar(f) and Cobar(g), letterwise (degree-0, no signs).
# ---------------------------------------------------------------------

def bar_map(f: ChainMap, source: ChainCoalgebra | ChainAlgebra,
            target: ChainCoalgebra | ChainAlgebra) -> ChainMap:
    """Bar(f) for an algebra map f: A -> A', and (as ``cobar_map``) Cobar(g)
    for a coalgebra map g: C -> C': each word goes to the sum of the words
    of the letters' images; a word that is not in the target is dropped."""
    R = source.ring
    degree = bar_letter_degree if isinstance(source, ChainCoalgebra) else cobar_letter_degree
    index, image_names = f.source.basis.index, f.target.basis.names
    words, names, positions = target.complex.basis.keys, target.basis, target.complex.basis.positions

    def letters(letter):
        d, a = letter
        return [((d, image_names(d)[r]), v) for r, v in f.mat(d).column(index(d, a)).items()]

    def append(p, i, b):
        row = positions(p + degree(b)).get(words[names(p)[i]] + (b,))
        return () if row is None else ((row, R.one),)

    return _word_extension(source.complex, source.truncation, target.complex,
                           positions(0)[()], letters, append)


cobar_map = bar_map


def is_algebra_map(f: ChainMap, A: ChainAlgebra, B: ChainAlgebra) -> bool:
    """f(unit) = unit and f(a·a') = f(a)·f(a') on all basis pairs."""
    N = min(A.truncation, B.truncation)
    if f.apply(0, A.unit) != {B.unit: A.ring.one}:
        return False
    return not _module_map_failures(f, f, A.product, B.product, N)


def is_coalgebra_map(f: ChainMap, C: ChainCoalgebra, D: ChainCoalgebra) -> bool:
    """Δ_D ∘ f = (f⊗f) ∘ Δ_C on every basis element, plus counit compat."""
    R = C.ring
    N = min(C.truncation, D.truncation)
    for c in C.basis(0):  # counits vanish above degree 0
        if R.of(sum(v * D.counit(0, d) for d, v in f.apply(0, c).items())) != C.counit(0, c):
            return False
    return not _comodule_map_failures(f, f, C.coproduct, D.coproduct, N)


# ---------------------------------------------------------------------
# alpha_t / beta_t and the adjunction unit and counit.
# ---------------------------------------------------------------------

def _word_extension(source: ChainComplex, N: int, target: ChainComplex,
                    unit_row: int, letter_image, times) -> ChainMap:
    """The map f: source -> target through degree N on a word basis with
    f([]) = e_unit_row and f(w·ℓ) = Σ v·x·y e_r over v e_i in f(w), (b, x) in
    letter_image(ℓ) and (r, y) in times(|w|, i, b), |w| = |w·ℓ| - |ℓ|: the
    multiplicative extension of ℓ -> Σ x·b when ``times`` multiplies by b
    (docs/DECISIONS.md, section 9).  Each word's prefix and last letter come
    from the block arithmetic of `_word_blocks`, so no word is sliced or
    looked up; a prefix precedes its words, so its column is already
    written."""
    R = source.ring
    top = min(N, source.truncation)
    letters = _letters_of(source.basis, top)
    images = {d: [letter_image(letter) for letter in run] for d, run in letters.items()}
    columns = {0: [{unit_row: R.one}]}  # the empty word spans degree 0
    for n, blocks in _word_blocks(letters, top):
        cols = columns[n] = []
        for parts, _, first, size in blocks:
            p = n - parts[-1]
            for prefix in columns[p][first:first + size]:
                cols += [R.lincomb((r, v * x * y) for i, v in prefix.items()
                                   for b, x in image for r, y in times(p, i, b))
                         for image in images[parts[-1]]]
    return _column_map(source, target, columns)


def _column_map(source: ChainComplex, target: ChainComplex, columns: dict) -> ChainMap:
    """The map whose degree-n component has the columns ``columns[n]``, each
    {row: coeff}."""
    out = ChainMap(source, target)
    for n, cols in columns.items():
        m = out.components[n] = SparseMatrix(source.ring, target.basis.dim(n), len(cols))
        m.entries = {(r, j): v for j, col in enumerate(cols) for r, v in col.items()}
    return out


def alpha_t(t, Omega: ChainAlgebra, N: int) -> ChainMap:
    """Multiplicative extension ΩC -> A of a twisting cochain t: C -> A.

    ``Omega`` must be cobar(t.source, N); letters map by s-1(c) -> t(c).
    """
    A, index = t.target, t.source.complex.basis.index

    def letter_image(c):
        return [((c[0] - 1, r), v) for r, v in t.mat(c[0]).column(index(*c)).items()]

    return _word_extension(Omega.complex, N, A.complex, A.complex.basis.index(0, A.unit), letter_image,
                           lambda p, i, b: A.product.rows(p, i, *b))


def beta_t(t, Bar: ChainCoalgebra, N: int) -> ChainMap:
    """Adjoint coalgebra map C -> Bar(A) of a twisting cochain t: C -> A.

    β(c) = [t(c)] + Σ_{Δ̄c = c'⊗c''} [t(c')]|β(c''): the length-k component
    applies (s t)^{⊗k} to the right-comb k-fold reduced coproduct
    (docs/DECISIONS.md, section 9).  |c''| < |c|, so each column is written
    from columns written before it.  The couniversal cochain picks out
    exactly length-one words, so t = t_Bar ∘ beta_t holds on the nose.
    """
    C, R = t.source, t.ring
    basis, letters = Bar.complex.basis, t.target.basis
    words, names, positions = basis.keys, basis.names, basis.positions
    columns = {0: [{positions(0)[()]: R.one} for _ in C.basis(0)]}

    def terms(n, j):
        # a Bar word is keyed by its letters (|a|, a), so each t term names a
        for r, x in t.mat(n).column(j).items():
            yield ((n - 1, letters(n - 1)[r]),), x
        for d1, i, k, v in C.coproduct.rows(n, j):
            if 0 < d1 < n:
                for r, x in t.mat(d1).column(i).items():
                    for s, y in columns[n - d1][k].items():
                        yield ((d1 - 1, letters(d1 - 1)[r]),) + words[names(n - d1)[s]], v * x * y

    for n in range(1, N + 1):
        rows = positions(n)
        columns[n] = [R.lincomb((rows[w], v) for w, v in terms(n, j) if w in rows)
                      for j in range(C.complex.basis.dim(n))]
    return _column_map(C.complex, Bar.complex, columns)


def unit_map(C: ChainCoalgebra, N: int, Omega: ChainAlgebra, BarOmega: ChainCoalgebra) -> ChainMap:
    """η_C : C -> BarOmega = Bar(Omega), Omega = Cobar(C): the adjunction unit (a coalgebra map)."""
    from .twisting import universal_cochain

    t = universal_cochain(C, Omega)
    return beta_t(t, BarOmega, N)


def counit_map(A: ChainAlgebra, N: int, Bar: ChainCoalgebra, OmegaBar: ChainAlgebra) -> ChainMap:
    """v_A : OmegaBar = Cobar(Bar) -> A, Bar = Bar(A): the adjunction counit (an algebra map)."""
    from .twisting import couniversal_cochain

    t = couniversal_cochain(Bar, A)
    return alpha_t(t, OmegaBar, N)


# ---------------------------------------------------------------------
# Milgram comparison maps (used by the trivial-extension machinery).
# ---------------------------------------------------------------------

def milgram_bar_map(A: ChainAlgebra, B: ChainAlgebra,
                    BarA: ChainCoalgebra, BarB: ChainCoalgebra,
                    BarAB: ChainCoalgebra, tensor_bar: ChainComplex) -> ChainMap:
    """∇: Bar(A) ⊗ Bar(B) -> Bar(A⊗B), interleaving words by shuffles.

    ``tensor_bar`` is tensor_complex(BarA.complex, BarB.complex); BarAB is
    bar(tensor_algebra_product(A, B)).  Letters go to s(a⊗1) and s(1⊗b).
    """
    R = A.ring
    f = ChainMap(tensor_bar, BarAB.complex)
    words_a, words_b = BarA.complex.basis.keys, BarB.complex.basis.keys
    for n in range(tensor_bar.truncation + 1):
        for p in range(n + 1):
            for la in BarA.basis(p):
                wa = tuple((d, tensor_name(a, B.unit)) for (d, a) in words_a[la])
                for lb in BarB.basis(n - p):
                    wb = tuple((d, tensor_name(A.unit, b)) for (d, b) in words_b[lb])
                    for w, sgn in shuffles_with_signs(R, wa, wb, bar_letter_degree):
                        target = BarAB.complex.basis.name_of(n, w)
                        if target is not None:
                            f.set_entry(n, tensor_name(la, lb), target, sgn)
    return f


def milgram_cobar_map(C: ChainCoalgebra, D: ChainCoalgebra, N: int,
                      OmegaCD: ChainAlgebra, OmegaC: ChainAlgebra, OmegaD: ChainAlgebra,
                      tensor_cobar: ChainComplex) -> ChainMap:
    """q: Cobar(C⊗D) -> Cobar(C) ⊗ Cobar(D), the multiplicative comparison.

    Generators s-1(c⊗1) -> s-1(c)⊗[], s-1(1⊗d) -> []⊗s-1(d), mixed
    generators die; extended multiplicatively with Koszul signs:
    (wa⊗wb)·(ua⊗ub) = (-1)^{|wb||ua|} wa·ua ⊗ wb·ub.  ``tensor_cobar`` is
    tensor_complex(OmegaC.complex, OmegaD.complex, N).
    """
    R = C.ring
    # letters c⊗1 and 1⊗d of C⊗D, by (degree, name)
    left = {(n, tensor_name(c, D.coaug)): c for n in range(C.truncation + 1) for c in C.basis(n)}
    right = {(n, tensor_name(C.coaug, d)): d for n in range(D.truncation + 1) for d in D.basis(n)}

    def letter_image(letter):
        out = []
        if letter in left:
            out.append(((((letter[0], left[letter]),), ()), R.one))
        if letter in right:
            out.append((((), ((letter[0], right[letter]),)), R.one))
        return out

    OC, OD = OmegaC.complex, OmegaD.complex
    off, pairs, names = _tensor_offsets(OC, OD, N), tensor_cobar.basis.keys, tensor_cobar.basis.names

    def times(p, i, b):
        # (wa⊗wb)·(ua⊗ub), wa⊗wb the element at row i of degree p
        (da, wa), (db, wb) = pairs[names(p)[i]]
        ua, ub = b
        du = sum(map(cobar_letter_degree, ua))
        ea, eb = da + du, db + sum(map(cobar_letter_degree, ub))
        ia = OC.basis.positions(ea).get(OC.basis.keys[wa] + ua)
        ib = OD.basis.positions(eb).get(OD.basis.keys[wb] + ub)
        if ia is None or ib is None:
            return ()
        return ((off[ea + eb][ea] + ia * OD.basis.dim(eb) + ib, _sign(R, db * du)),)

    return _word_extension(OmegaCD.complex, N, tensor_cobar, 0, letter_image, times)
