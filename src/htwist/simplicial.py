"""Finite and symbolic simplicial sets and groups: twisting functions,
twisted cartesian products, the classifying space W̄, the Kan loop group,
homotopy fibers, and the loop-group comparison isomorphism.

Conventions.  The printed W̄ face list in our source text indexes faces in
the reverse order and swaps one product; machine-checking the simplicial
identities together with the couniversal twisting function forced the
May-coherent variant used here (docs/DECISIONS.md, section 1):

    d_0(a_0..a_{n-1}) = (a_0..a_{n-2})
    d_i(a_0..a_{n-1}) = (a_0,...,a_{n-i-2}, d_0(a_{n-i})·a_{n-i-1},
                         d_1(a_{n-i+1}), ..., d_{i-1}(a_{n-1}))   0<i<n
    d_n(a_0..a_{n-1}) = (d_1(a_1), ..., d_{n-1}(a_{n-1}))

with ν_G(a_0..a_{n-1}) = a_{n-1} and the twisting-function identities

    d_0 τ(x) = τ(d_1 x) · τ(d_0 x)^{-1}
    d_i τ(x) = τ(d_{i+1} x)            (i > 0)
    s_i τ(x) = τ(s_{i+1} x)            (i >= 0)
    τ(s_0 x) = e

and twisted cartesian products  d_0(x, y) = (d_0 x, d_0 y · τ(x)),
d_i and s_i componentwise otherwise.  These four identities are exactly
what makes the TCP face identities close up, which the test suite checks
exhaustively on finite fixtures and by seeded sampling on symbolic ones.

W̄G and X ×_τ Y have one face and one degeneracy each, the per-entry
formulas above, whatever the group.  A constant group (``constant`` true,
set only by `constant_group`) has identity faces and degeneracies, and
there the formulas only move, drop, insert or merge tuple entries.

`verify_simplicial_identities` compares every instance of d_i d_j (i < j),
s_i s_j (i <= j) and d_i s_j on each finite level.  For W̄G of a constant
group and a TCP with a constant fibre over it, while their maps are the
class's own, it compares lookups in per-level integer tables built whole
by digit arithmetic, with no face or degeneracy call (`_simplicial_tables`,
docs/DECISIONS.md, section 14), a level at a time;
`chains.normalized_chains` reads the tables too.  Any other space is
checked by the plain loop over its own maps, memoised so that each face
and degeneracy is computed once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from . import DEFAULT_SAMPLES, DEFAULT_SEED, NotReduced, _simplicial_identities


class NotFinite(Exception):
    pass


class NoExtension(Exception):
    pass


# ---------------------------------------------------------------------
# Simplicial sets.
# ---------------------------------------------------------------------

class SimplicialSet:
    """Levelwise element sets with face/degeneracy rules, through level N.

    Levels may be finite (``elements(n)`` returns a list) or symbolic
    (``elements(n)`` returns None and only ``sample`` produces elements).
    ``constant`` is true when every face and degeneracy is the identity;
    only `constant_group` sets it.
    """

    constant = False

    def __init__(self, N: int, name: str = ""):
        self.N = N
        self.name = name

    def elements(self, n: int):
        raise NotImplementedError

    def face(self, n: int, i: int, x):
        raise NotImplementedError

    def degeneracy(self, n: int, i: int, x):
        raise NotImplementedError

    def basepoint(self, n: int):
        raise NotImplementedError

    def sample(self, n: int, rng: random.Random):
        elems = self.elements(n)
        if elems is None:
            raise NotImplementedError
        return rng.choice(elems)

    def is_reduced(self) -> bool:
        e0 = self.elements(0)
        return e0 is not None and len(e0) == 1


class FiniteSimplicialSet(SimplicialSet):
    """Simplicial set given by explicit element lists; a subclass gives the
    face and degeneracy rules."""

    def __init__(self, N: int, levels: dict[int, list],
                 basepoints: dict[int, object] | None = None, name: str = ""):
        super().__init__(N, name)
        self.levels = levels
        self.basepoints = basepoints or {}

    def elements(self, n: int):
        return list(self.levels.get(n, []))

    def basepoint(self, n: int):
        if n in self.basepoints:
            return self.basepoints[n]
        # iterated degeneracy of the base vertex
        pt = self.basepoints[0]
        for k in range(n):
            pt = self.degeneracy(k, 0, pt)
        return pt


def verify_simplicial_identities(X: SimplicialSet, N: int, samples: int = DEFAULT_SAMPLES,
                                 seed: int = DEFAULT_SEED):
    """All face/degeneracy identities through level N: exhaustive on finite
    levels, seeded sampling on symbolic ones.  Returns (ok, witness).

    Every instance of d_i d_j (i < j), s_i s_j (i <= j) and d_i s_j is
    compared, and the first failure in (family, n, x, i, j) order is the
    witness.  Where `_simplicial_tables.formula_levels` builds X's tables,
    an instance is a comparison of table lookups, made for a whole level
    at a time.  Otherwise the loop runs over the listed simplices, or over
    one fresh draw per family and level of a symbolic one, and stops at
    the first failure; X's face and degeneracy are memoised for the call,
    so each (n, i, simplex) is computed once, and a face or degeneracy
    that lands outside the listed levels is compared as it is
    (docs/DECISIONS.md, section 12)."""
    return _simplicial_identities.verify(X, N, samples, seed)


# ---------------------------------------------------------------------
# Simplicial groups and free-group words.
# ---------------------------------------------------------------------

class GroupWord:
    """Reduced word in free-group generators: tuple of (generator, ±1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple(letters)

    @staticmethod
    def reduce(letters):
        out = []
        for g, e in letters:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
        return GroupWord(out)

    def __mul__(self, other):
        return GroupWord.reduce(self.letters + other.letters)

    def inverse(self):
        return GroupWord([(g, -e) for g, e in reversed(self.letters)])

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "e"
        return "·".join(f"{g}" if e == 1 else f"{g}^-1" for g, e in self.letters)

    def is_identity(self):
        return not self.letters


class SimplicialGroup(SimplicialSet):
    def mult(self, n: int, a, b):
        raise NotImplementedError

    def inv(self, n: int, a):
        raise NotImplementedError

    def neutral(self, n: int):
        raise NotImplementedError

    def basepoint(self, n: int):
        return self.neutral(n)


class FiniteSimplicialGroup(SimplicialGroup):
    """Levelwise finite group given by multiplication tables or callables."""

    def __init__(self, N: int, levels: dict[int, list], faces, degeneracies,
                 mult, inv, neutral, name: str = ""):
        super().__init__(N, name)
        self.levels = levels
        # the structure callables are the methods themselves, one call each
        self.face = faces
        self.degeneracy = degeneracies
        self.mult = mult
        self.inv = inv
        self.neutral = neutral

    def elements(self, n: int):
        return list(self.levels[n])


def constant_group(table_elements, mult, inv, neutral, N: int, name: str = "") -> FiniteSimplicialGroup:
    """Constant simplicial group on a finite group (all faces/degens = id)."""
    levels = {n: list(table_elements) for n in range(N + 1)}
    G = FiniteSimplicialGroup(
        N, levels,
        faces=lambda n, i, x: x,
        degeneracies=lambda n, i, x: x,
        mult=lambda n, a, b: mult(a, b),
        inv=lambda n, a: inv(a),
        neutral=lambda n: neutral,
        name=name,
    )
    G.constant = True
    return G


def cyclic_constant_group(k: int, N: int) -> FiniteSimplicialGroup:
    return constant_group(
        list(range(k)),
        mult=lambda a, b: (a + b) % k,
        inv=lambda a: (-a) % k,
        neutral=0,
        N=N,
        name=f"C{k}",
    )


def verify_group_structure(G: SimplicialGroup, N: int, samples: int = 200):
    """Faces and degeneracies are homomorphisms; neutral behaves."""
    rng = random.Random(DEFAULT_SEED)
    for n in range(N + 1):
        elems = G.elements(n)
        pool = elems if elems is not None else [G.sample(n, rng) for _ in range(samples)]
        pairs = (
            [(a, b) for a in pool for b in pool]
            if elems is not None and len(pool) <= 30
            else [(rng.choice(pool), rng.choice(pool)) for _ in range(samples)]
        )
        for a, b in pairs:
            ab = G.mult(n, a, b)
            for i in range(n + 1):
                if n >= 1:
                    if G.face(n, i, ab) != G.mult(n - 1, G.face(n, i, a), G.face(n, i, b)):
                        return False, {"check": "face-hom", "level": n, "i": i}
                if n + 1 <= G.N:
                    if G.degeneracy(n, i, ab) != G.mult(n + 1, G.degeneracy(n, i, a),
                                                        G.degeneracy(n, i, b)):
                        return False, {"check": "degeneracy-hom", "level": n, "i": i}
            if G.mult(n, a, G.inv(n, a)) != G.neutral(n):
                return False, {"check": "inverse", "level": n}
    return True, None


# ---------------------------------------------------------------------
# Twisting functions.
# ---------------------------------------------------------------------

class TwistingFunction:
    """Degree -1 map τ: X_n -> G_{n-1} given by a callable."""

    def __init__(self, source: SimplicialSet, target: SimplicialGroup, fn, name: str = ""):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def __call__(self, n: int, x):
        return self.fn(n, x)


def verify_twisting_function(tau: TwistingFunction, N: int, samples: int = DEFAULT_SAMPLES,
                             seed: int = DEFAULT_SEED):
    """The four identities, exhaustive on finite levels, sampled otherwise.

    Returns (ok, witness) where a witness labels the violated identity."""
    X, G = tau.source, tau.target
    rng = random.Random(seed)
    for n in range(1, N + 1):
        elems = X.elements(n)
        pool = elems if elems is not None else [X.sample(n, rng)
                                                for _ in range(max(1, samples // N))]
        for x in pool:
            tx = tau(n, x)
            if n >= 2:
                # d_0 τ(x) = τ(d_1 x) · τ(d_0 x)^{-1}
                lhs = G.face(n - 1, 0, tx)
                rhs = G.mult(n - 2, tau(n - 1, X.face(n, 1, x)),
                             G.inv(n - 2, tau(n - 1, X.face(n, 0, x))))
                if lhs != rhs:
                    return False, {"identity": "d0", "level": n, "element": x}
                for i in range(1, n):
                    if G.face(n - 1, i, tx) != tau(n - 1, X.face(n, i + 1, x)):
                        return False, {"identity": f"d{i}", "level": n, "element": x}
            if n <= N - 1:
                for i in range(n):
                    if G.degeneracy(n - 1, i, tx) != tau(n + 1, X.degeneracy(n, i + 1, x)):
                        return False, {"identity": f"s{i}", "level": n, "element": x}
    for n in range(1, N):
        elems = X.elements(n)
        pool = elems if elems is not None else [X.sample(n, rng)
                                                for _ in range(max(1, samples // N))]
        for x in pool:
            if tau(n + 1, X.degeneracy(n, 0, x)) != G.neutral(n):
                return False, {"identity": "s0-normalization", "level": n, "element": x}
    return True, None


# ---------------------------------------------------------------------
# Kan classifying space W̄G with its couniversal twisting function.
# ---------------------------------------------------------------------

class ClassifyingSpace(SimplicialSet):
    """W̄G: level n is G_0 × ... × G_{n-1} (tuples), reduced.

    `face` and `degeneracy` are the per-entry formulas for every G.  The
    identity check and normalized chains of W̄G for a constant G read index
    tables built from the same formulas instead (docs/DECISIONS.md,
    section 14)."""

    def __init__(self, G: SimplicialGroup, N: int):
        super().__init__(N, name=f"Wbar({G.name})")
        self.G = G

    def elements(self, n: int):
        if n == 0:
            return [()]
        out = [()]
        for k in range(n):
            lev = self.G.elements(k)
            if lev is None:
                return None
            out = [t + (g,) for t in out for g in lev]
        return out

    def sample(self, n: int, rng: random.Random):
        return tuple(self.G.sample(k, rng) for k in range(n))

    def basepoint(self, n: int):
        return tuple(self.G.neutral(k) for k in range(n))

    def face(self, n: int, i: int, a):
        G = self.G
        if i == 0:
            return a[: n - 1]
        if i == n:
            return tuple(G.face(k, k, a[k]) for k in range(1, n))
        # 0 < i < n: merge at position n-i-1 with d_0 of the next entry
        j = n - i
        head = a[: j - 1]
        merged = G.mult(j - 1, G.face(j, 0, a[j]), a[j - 1])
        tail = tuple(G.face(j + 1 + k, 1 + k, a[j + 1 + k]) for k in range(n - j - 1))
        return head + (merged,) + tail

    def degeneracy(self, n: int, i: int, a):
        G = self.G
        if i == 0:
            return a + (G.neutral(n),)
        j = n - i
        head = a[:j]
        tail = tuple(G.degeneracy(j + k, k, a[j + k]) for k in range(n - j))
        return head + (G.neutral(j),) + tail


def classifying_space(G: SimplicialGroup, N: int) -> ClassifyingSpace:
    return ClassifyingSpace(G, N)


def couniversal_twisting_function(W: ClassifyingSpace) -> TwistingFunction:
    """ν_G(a_0,...,a_{n-1}) = a_{n-1}."""
    return TwistingFunction(W, W.G, lambda n, a: a[n - 1], name=f"nu({W.G.name})")


# ---------------------------------------------------------------------
# Twisted cartesian products.
# ---------------------------------------------------------------------

class TwistedCartesianProduct(SimplicialSet):
    """X ×_τ Y: pairs with d_0(x, y) = (d_0 x, d_0 y · τ(x)); the action of
    G on Y is a callable act(n, y, g)."""

    def __init__(self, X: SimplicialSet, tau: TwistingFunction, Y: SimplicialSet,
                 act, N: int):
        super().__init__(N, name=f"{X.name}x_tau{Y.name}")
        self.X = X
        self.Y = Y
        self.tau = tau
        self.act = act

    def elements(self, n: int):
        ex = self.X.elements(n)
        ey = self.Y.elements(n)
        if ex is None or ey is None:
            return None
        return [(x, y) for x in ex for y in ey]

    def sample(self, n: int, rng: random.Random):
        ex = self.X.elements(n)
        x = rng.choice(ex) if ex is not None else self.X.sample(n, rng)
        ey = self.Y.elements(n)
        y = rng.choice(ey) if ey is not None else self.Y.sample(n, rng)
        return (x, y)

    def basepoint(self, n: int):
        return (self.X.basepoint(n), self.Y.basepoint(n))

    def face(self, n: int, i: int, xy):
        x, y = xy
        if i == 0:
            return (self.X.face(n, 0, x),
                    self.act(n - 1, self.Y.face(n, 0, y), self.tau(n, x)))
        return (self.X.face(n, i, x), self.Y.face(n, i, y))

    def degeneracy(self, n: int, i: int, xy):
        x, y = xy
        return (self.X.degeneracy(n, i, x), self.Y.degeneracy(n, i, y))


def twisted_cartesian_product(X: SimplicialSet, tau: TwistingFunction, Y: SimplicialSet,
                              act, N: int):
    return TwistedCartesianProduct(X, tau, Y, act, N)


def universal_bundle(G: SimplicialGroup, N: int):
    """W̄G ×_ν G with G acting on itself by right translation in the twist
    slot; the left-multiplication module structure commutes with it."""
    W = classifying_space(G, N + 1)
    nu = couniversal_twisting_function(W)
    tcp = twisted_cartesian_product(
        W, nu, G, act=lambda n, y, g: G.mult(n, y, g), N=N
    )
    return tcp, W, nu


# ---------------------------------------------------------------------
# Kan loop group.
# ---------------------------------------------------------------------

class KanLoopGroup(SimplicialGroup):
    """Free simplicial group on generators x̄, x ∈ X_{n+1}, with s0-images
    trivialized.  Structure maps are forced by the twisting identities on
    τ_X(x) = x̄:

        d_0(x̄) = (d_1 x)‾ · ((d_0 x)‾)^{-1}
        d_i(x̄) = (d_{i+1} x)‾           (i >= 1)
        s_i(x̄) = (s_{i+1} x)‾           (i >= 0)
        (s_0 y)‾ = e

    extended homomorphically to reduced words.  Levels are symbolic (free
    groups); sampling draws short random words.
    """

    def __init__(self, X: SimplicialSet, N: int):
        if not X.is_reduced():
            raise NotReduced(f"{X.name} is not reduced: a Kan loop group needs one vertex")
        super().__init__(N, name=f"G({X.name})")
        self.X = X
        self._s0_images: dict[int, set] = {}

    def _is_s0_image(self, level_above: int, x) -> bool:
        """x ∈ X_{level_above}: is x = s_0(y)?"""
        if level_above == 0:
            return False
        if level_above not in self._s0_images:
            below = self.X.elements(level_above - 1)
            if below is None:
                raise NotFinite(f"{self.X.name} level {level_above - 1}")
            self._s0_images[level_above] = {
                self.X.degeneracy(level_above - 1, 0, y) for y in below
            }
        return x in self._s0_images[level_above]

    def generator(self, n: int, x) -> GroupWord:
        """x̄ for x ∈ X_{n+1}, reduced modulo the s0 relation."""
        if self._is_s0_image(n + 1, x):
            return GroupWord()
        return GroupWord([((n, x), 1)])

    def elements(self, n: int):
        return None  # free groups: symbolic levels

    def generators(self, n: int):
        elems = self.X.elements(n + 1)
        if elems is None:
            raise NotFinite(f"{self.X.name} level {n + 1}")
        return [x for x in elems if not self._is_s0_image(n + 1, x)]

    def sample(self, n: int, rng: random.Random) -> GroupWord:
        gens = self.generators(n)
        word = GroupWord()
        if not gens:
            return word
        for _ in range(rng.randint(0, 4)):
            g = rng.choice(gens)
            word = word * GroupWord([((n, g), rng.choice((1, -1)))])
        return word

    def neutral(self, n: int):
        return GroupWord()

    def mult(self, n: int, a: GroupWord, b: GroupWord):
        return a * b

    def inv(self, n: int, a: GroupWord):
        return a.inverse()

    def _apply_hom(self, word: GroupWord, letter_image) -> GroupWord:
        out = GroupWord()
        for (lvl_x, e) in word.letters:
            img = letter_image(lvl_x)
            out = out * (img if e == 1 else img.inverse())
        return out

    def face(self, n: int, i: int, w: GroupWord) -> GroupWord:
        X = self.X

        def letter_image(key):
            _, x = key
            if i == 0:
                a = self.generator(n - 1, X.face(n + 1, 1, x))
                b = self.generator(n - 1, X.face(n + 1, 0, x))
                return a * b.inverse()
            return self.generator(n - 1, X.face(n + 1, i + 1, x))

        return self._apply_hom(w, letter_image)

    def degeneracy(self, n: int, i: int, w: GroupWord) -> GroupWord:
        X = self.X

        def letter_image(key):
            _, x = key
            return self.generator(n + 1, X.degeneracy(n + 1, i + 1, x))

        return self._apply_hom(w, letter_image)


def kan_loop_group(X: SimplicialSet, N: int) -> KanLoopGroup:
    return KanLoopGroup(X, N)


def universal_twisting_function(G: KanLoopGroup) -> TwistingFunction:
    """τ_X(x) = x̄ ∈ (GX)_{n-1}."""
    return TwistingFunction(G.X, G, lambda n, x: G.generator(n - 1, x),
                            name=f"tau({G.X.name})")


def loop_group_morphism_from_twisting(tau: TwistingFunction):
    """The universal bijection: a twisting function X -> H induces the
    simplicial group morphism GX -> H with x̄ -> τ(x)."""
    H = tau.target

    def phi(n: int, w: GroupWord):
        out = H.neutral(n)
        for ((lvl, x), e) in w.letters:
            img = tau(lvl + 1, x)
            if e == -1:
                img = H.inv(n, img)
            out = H.mult(n, out, img)
        return out

    return phi


def loop_group_pi0(G: KanLoopGroup):
    """π0 as an abelian group: level-0 generators modulo the abelianized
    relations d0(v)·d1(v)^{-1} for level-1 generators v.  Returns
    (free rank, torsion list) via Smith normal form."""
    from .rings import ZZ
    from .sparse import SparseMatrix, invariant_factors

    gens = G.generators(0)
    index = {((0, x)): k for k, x in enumerate(gens)}
    rels = []
    for v in G.generators(1):
        w = G.face(1, 0, G.generator(1, v)) * G.face(1, 1, G.generator(1, v)).inverse()
        rels.append(ZZ.lincomb(w.letters))
    M = SparseMatrix(ZZ, len(gens), len(rels))
    for j, row in enumerate(rels):
        for key, c in row.items():
            M.add_to(index[key], j, c)
    facs = invariant_factors(M)
    rank = len(gens) - len(facs)
    torsion = [f for f in facs if f > 1]
    return rank, torsion


def loop_group_map(G2: KanLoopGroup, g):
    """G(g) for a simplicial map g: X -> Y (g given as a callable (n, x))."""

    def fn(n: int, w: GroupWord) -> GroupWord:
        out = GroupWord()
        for ((lvl, x), e) in w.letters:
            img = G2.generator(lvl, g(lvl + 1, x))
            out = out * (img if e == 1 else img.inverse())
        return out

    return fn


# ---------------------------------------------------------------------
# Homotopy fibers and the loop-group comparison isomorphism.
# ---------------------------------------------------------------------

@dataclass
class HomotopyFiber:
    total: TwistedCartesianProduct   # X ×_{τ_Y ∘ g} GY
    iota: object                     # projection (n, (x, v)) -> x
    GY: KanLoopGroup
    tau: TwistingFunction


def homotopy_fiber(g, X: SimplicialSet, Y: SimplicialSet, N: int,
                   GY: KanLoopGroup) -> HomotopyFiber:
    """hofib(g) = X ×_{τ_Y g} GY for reduced X, Y, with GY = kan_loop_group(Y, N);
    ι is projection onto X."""
    if not X.is_reduced() or not Y.is_reduced():
        raise NotReduced(f"{X.name} or {Y.name} is not reduced")
    tau = TwistingFunction(X, GY, lambda n, x: GY.generator(n - 1, g(n, x)),
                           name=f"tau_Y∘{getattr(g, 'name', 'g')}")
    tcp = twisted_cartesian_product(
        X, tau, GY, act=lambda n, v, w: GY.mult(n, v, w), N=N
    )
    return HomotopyFiber(tcp, lambda n, xv: xv[0], GY, tau)


@dataclass
class LoopComparison:
    """The simplicial isomorphism
    (X ×_{τ_Y g} GY) ×_{τ_X ι} GX  ≅  (X ×_{τ_X} GX) × GY,
    (x, v, w) -> (x, w, v·Gg(w)^{-1}), with inverse (x, w, u) -> (x, u·Gg(w), w).
    """

    source: TwistedCartesianProduct
    target_base: TwistedCartesianProduct  # X ×_{τ_X} GX
    GX: KanLoopGroup
    GY: KanLoopGroup
    Gg: object

    def forward(self, n: int, xvw):
        (x, v), w = xvw
        return ((x, w), self.GY.mult(n, v, self.GY.inv(n, self.Gg(n, w))))

    def backward(self, n: int, xwu):
        (x, w), u = xwu
        return ((x, self.GY.mult(n, u, self.Gg(n, w))), w)


def simpl_good_iso(g, X: SimplicialSet, Y: SimplicialSet, N: int):
    """Build hofib(g), hofib(ι_g) and the comparison isomorphism."""
    GX = kan_loop_group(X, N)
    GY = kan_loop_group(Y, N)
    hf = homotopy_fiber(g, X, Y, N, GY)
    tau_x_iota = TwistingFunction(
        hf.total, GX, lambda n, xv: GX.generator(n - 1, xv[0]),
        name="tau_X∘iota",
    )
    source = twisted_cartesian_product(
        hf.total, tau_x_iota, GX, act=lambda n, v, w: GX.mult(n, v, w), N=N
    )
    tau_x = universal_twisting_function(GX)
    path = twisted_cartesian_product(
        X, tau_x, GX, act=lambda n, v, w: GX.mult(n, v, w), N=N
    )
    Gg = loop_group_map(GY, g)
    return LoopComparison(source, path, GX, GY, Gg), hf


def verify_loop_comparison(cmp: LoopComparison, N: int, samples: int = DEFAULT_SAMPLES,
                           seed: int = DEFAULT_SEED):
    """Round-trip, simpliciality (the twisted d0 included), and the strict
    square ι_{ι_g} ∘ ι̃ = ∂_g; equivariance of the comparison for the
    diagonal GX-action.  Sampled with a fixed seed; (ok, report)."""
    rng = random.Random(seed)
    report = {"roundtrip": True, "simplicial-d0": True, "faces": True,
              "right-square": True, "equivariance": True}
    S = cmp.source
    for _ in range(samples):
        n = rng.randint(1, max(1, N - 1))
        t = S.sample(n, rng)
        if cmp.backward(n, cmp.forward(n, t)) != t:
            report["roundtrip"] = False
        # d0 is the only twisted face; check it and one untwisted face
        lhs = cmp.forward(n - 1, S.face(n, 0, t))
        target = _product_face(cmp, n, 0, cmp.forward(n, t))
        if lhs != target:
            report["simplicial-d0"] = False
        i = rng.randint(1, n)
        lhs2 = cmp.forward(n - 1, S.face(n, i, t))
        rhs2 = _product_face(cmp, n, i, cmp.forward(n, t))
        if lhs2 != rhs2:
            report["faces"] = False
        # equivariance: forward((x,v,w)·w0) = forward(x,v,w)·w0 with the
        # action carried across the isomorphism, ((x,w'),u)·w0 = ((x,w'w0), u·Gg(w0)^{-1})
        w0 = cmp.GX.sample(n, rng)
        (xv, w) = t
        t2 = (xv, cmp.GX.mult(n, w, w0))
        lhs3 = cmp.forward(n, t2)
        ((x_, w_), u_) = cmp.forward(n, t)
        rhs3 = ((x_, cmp.GX.mult(n, w_, w0)),
                cmp.GY.mult(n, u_, cmp.GY.inv(n, cmp.Gg(n, w0))))
        if lhs3 != rhs3:
            report["equivariance"] = False
    # right square: ι_{ι_g}(ι̃(u)) = ∂_g(u) for sampled u ∈ GY
    for _ in range(samples // 10 + 10):
        n = rng.randint(0, max(0, N - 1))
        u = cmp.GY.sample(n, rng)
        # ι̃(u) = backward of ((basept, e), u)
        base = cmp.target_base.basepoint(n)
        t = cmp.backward(n, (base, u))
        (xv, w) = t
        if not (w.is_identity() and xv == (cmp.source.X.X.basepoint(n), u)):
            report["right-square"] = False
    return all(report.values()), report


def _product_face(cmp: LoopComparison, n: int, i: int, xwu):
    """Face of ((x,w),u) in (X ×_{τ_X} GX) × GY."""
    (xw, u) = xwu
    return (cmp.target_base.face(n, i, xw), cmp.GY.face(n, i, u))


def sampled_pi0_trivial(T: SimplicialSet, samples: int, seed: int) -> bool:
    """Every sampled vertex is connected to the basepoint through sampled
    edges (sound for contractibility-style checks, not a completeness proof)."""
    rng = random.Random(seed)
    base = T.basepoint(0)
    seen = {base}
    # grow the reachable set via sampled 1-simplices
    edges = []
    for _ in range(samples):
        e = T.sample(1, rng)
        edges.append((T.face(1, 1, e), T.face(1, 0, e)))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in seen and b not in seen:
                seen.add(b)
                changed = True
            if b in seen and a not in seen:
                seen.add(a)
                changed = True
    for _ in range(samples // 10 + 5):
        v = T.sample(0, rng)
        if v not in seen:
            return False
    return True


def allsimpl_certificate(g, X: SimplicialSet, Y: SimplicialSet, N: int,
                         samples: int = DEFAULT_SAMPLES):
    """Machine-checkable hypotheses behind 'all simplicial maps are
    h-conormal': the comparison isomorphism data feeding the rigid
    conormality argument.

    Verified here: the comparison is a simplicial isomorphism (sampled),
    its equivariance, the strict square ι_{ι_g}∘ι̃ = ∂_g, contractibility
    invariants of X ×_{τ_X} GX (simplicial identities plus sampled π0
    triviality), and the (automatic) comonoid structure in simplicial sets
    via diagonals.  The weak-equivalence content of the contractibility and
    the remaining ladder columns are paper-cited, not machine-checked; the
    companion square ι̃∘Gg = ∂_{ι_g} holds only up to the twisting
    correction (x, Gg(w), e) ~ (x, e, w) and is recorded as such.
    """
    cmp, hf = simpl_good_iso(g, X, Y, N)
    ok_cmp, rep = verify_loop_comparison(cmp, N, samples, DEFAULT_SEED)
    ok_path, wit = verify_simplicial_identities(cmp.target_base, min(N, 4), samples, DEFAULT_SEED)
    ok_total, wit2 = verify_simplicial_identities(cmp.source, min(N, 3), samples, DEFAULT_SEED)
    ok_pi0 = sampled_pi0_trivial(cmp.target_base, samples, DEFAULT_SEED)
    report = {
        "comparison": rep,
        "comparison-verified": ok_cmp,
        "path-space-identities": ok_path,
        "double-fiber-identities": ok_total,
        "path-space-pi0-trivial (sampled)": ok_pi0,
        "comonoid-structure": "automatic in sSet (diagonal); ι_g a comonoid map",
        "left-square": "homotopy-only: recorded, not strict (see ledger)",
        "verification-mode": {
            "exhaustive": [],
            "sampled": ["comparison", "identities", "pi0"],
            "paper-cited": ["path fibration contractibility as weak equivalence"],
        },
    }
    return (ok_cmp and ok_path and ok_total and ok_pi0), report


# ---------------------------------------------------------------------
# The couniversal bijection: twisting functions <-> maps into W̄G.
# ---------------------------------------------------------------------

def classify_twisting_function(tau: TwistingFunction, N: int, W: ClassifyingSpace):
    """The unique simplicial map φ: X -> W = W̄G with ν_G ∘ φ = τ.

    Forced level by level: the 0-th face of W̄G drops the last tuple entry,
    so φ(x) = φ(d_0 x) + (τ(x),).  Simpliciality of the result is then
    verified on the finite levels; failure raises NoExtension (a τ bug).
    """
    X = tau.source

    cache: dict = {}

    def phi(n: int, x):
        if n == 0:
            return ()
        key = (n, x)
        if key not in cache:
            cache[key] = phi(n - 1, X.face(n, 0, x)) + (tau(n, x),)
        return cache[key]

    # verify simpliciality exhaustively on finite levels
    for n in range(1, N + 1):
        elems = X.elements(n)
        if elems is None:
            continue
        for x in elems:
            for i in range(n + 1):
                if phi(n - 1, X.face(n, i, x)) != W.face(n, i, phi(n, x)):
                    raise NoExtension({"level": n, "face": i, "element": x})
            if n < N:
                for i in range(n + 1):
                    if phi(n + 1, X.degeneracy(n, i, x)) != W.degeneracy(n, i, phi(n, x)):
                        raise NoExtension({"level": n, "degeneracy": i, "element": x})
    return phi


def unit_simplicial_map(X: SimplicialSet, N: int):
    """η_X: X -> W̄GX, classified from the universal twisting function.
    The weak-equivalence claim for η is recorded, not machine-checked."""
    G = kan_loop_group(X, N)
    tau = universal_twisting_function(G)
    W = classifying_space(G, N)
    return classify_twisting_function(tau, N, W), W, G, tau


def check_unit_counit_triangle(G: SimplicialGroup, N: int, samples: int = 200):
    """ν_G = ε_G ∘ ν_{GW̄G} ∘ (η_{W̄G}-image): the coherence triangle of the
    two couniversal structures, checked on sampled tuples."""
    W = classifying_space(G, N)
    nu = couniversal_twisting_function(W)
    GW = kan_loop_group(W, N)
    tauW = universal_twisting_function(GW)
    # ε_G: GW̄G -> G is the group morphism classified by ν_G
    eps = loop_group_morphism_from_twisting(nu)
    rng = random.Random(DEFAULT_SEED)
    for _ in range(samples):
        n = rng.randint(1, N)
        a = W.sample(n, rng)
        lhs = nu(n, a)
        rhs = eps(n - 1, tauW(n, a))
        if lhs != rhs:
            return False, {"level": n, "element": a}
    return True, None


# ---------------------------------------------------------------------
# Finite fixtures.
# ---------------------------------------------------------------------

class MinimalCircle(FiniteSimplicialSet):
    """S¹ as Δ[1]/∂Δ[1], modeled on monotone maps [n] -> [1].

    Level n: ("c", n) is the collapsed constant class; ("m", a) with
    1 <= a <= n is the map with a zeros and n+1-a ones."""

    def __init__(self, N: int):
        levels = {n: [("c", n)] + [("m", a) for a in range(1, n + 1)] for n in range(N + 1)}
        super().__init__(N, levels, basepoints={n: ("c", n) for n in range(N + 1)},
                         name="S1min")

    def _canon(self, n: int, a: int):
        if a <= 0 or a >= n + 1:
            return ("c", n)
        return ("m", a)

    def face(self, n: int, i: int, x):
        kind, a = x
        if kind == "c":
            return ("c", n - 1)
        return self._canon(n - 1, a - 1 if i < a else a)

    def degeneracy(self, n: int, i: int, x):
        kind, a = x
        if kind == "c":
            return ("c", n + 1)
        return self._canon(n + 1, a + 1 if i < a else a)


def minimal_circle(N: int) -> MinimalCircle:
    return MinimalCircle(N)


class ComplexSimplicialSet(FiniteSimplicialSet):
    """Simplicial set generated by an ordered simplicial complex.

    Elements are (nd, J): a nondegenerate simplex nd (sorted vertex tuple)
    with a strictly descending degeneracy word J in Eilenberg-Zilber normal
    form.  Faces and degeneracies rewrite through the simplicial identities.
    """

    def __init__(self, N: int, simplices: list[tuple], name: str = ""):
        # every nonempty face of every listed simplex
        self.simplices = {face for s in simplices for top in [tuple(sorted(set(s)))]
                          for k in range(1, len(top) + 1) for face in combinations(top, k)}
        levels: dict[int, list] = {}
        for n in range(N + 1):
            lv = []
            for nd in sorted(self.simplices):
                k = len(nd) - 1
                if k > n:
                    continue
                for J in _descending_words(n - k, n):
                    lv.append((nd, J))
            levels[n] = lv
        bp = sorted(self.simplices)[0][0]
        bps = {}
        for n in range(N + 1):
            J = tuple(range(n - 1, -1, -1))
            bps[n] = ((bp,), J)
        super().__init__(N, levels, basepoints=bps, name=name or "complex")

    def face(self, n: int, i: int, x):
        nd, J = x
        J = list(J)
        out = []
        for pos, j in enumerate(J):
            if i < j:
                out.append(j - 1)
            elif i in (j, j + 1):
                return (nd, tuple(out + J[pos + 1:]))
            else:
                out.append(j)
                i -= 1
        nd2 = nd[:i] + nd[i + 1:]
        return (nd2, tuple(out))

    def degeneracy(self, n: int, i: int, x):
        nd, J = x
        J2 = sorted([j + 1 if j >= i else j for j in J] + [i], reverse=True)
        return (nd, tuple(J2))


def _descending_words(length: int, level: int):
    """Strictly descending degeneracy words of the given length whose
    application lands in the given level (EZ normal forms)."""
    if length == 0:
        return [()]
    out = []

    def rec(word, remaining):
        if remaining == 0:
            out.append(tuple(word))
            return
        lo = remaining - 1
        hi = (word[-1] - 1) if word else (level - 1)
        for j in range(hi, lo - 1, -1):
            rec(word + [j], remaining - 1)

    rec([], length)
    return out


def boundary_delta2(N: int) -> ComplexSimplicialSet:
    """∂Δ[2]: the triangle boundary, a simplicial circle."""
    return ComplexSimplicialSet(N, [(0, 1), (0, 2), (1, 2)], name="dDelta2")


def point_space(N: int) -> ComplexSimplicialSet:
    return ComplexSimplicialSet(N, [(0,)], name="pt")
