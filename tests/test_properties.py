"""Property-based checks of the algebraic primitives."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from htwist.barcobar import bar_letter_degree, shuffles_with_signs
from htwist.rings import QQ, ZZ
from htwist.simplicial import GroupWord


letters = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=8
)


@given(letters, letters)
def test_group_word_associativity(u, v):
    a, b = GroupWord.reduce(u), GroupWord.reduce(v)
    assert (a * b) * b.inverse() == a
    assert a.inverse().inverse() == a


@given(letters, letters, letters)
def test_group_word_mult_associative(u, v, w):
    a, b, c = (GroupWord.reduce(x) for x in (u, v, w))
    assert (a * b) * c == a * (b * c)


@given(letters)
def test_group_word_inverse_law(u):
    a = GroupWord.reduce(u)
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()


words = st.lists(st.tuples(st.integers(1, 3), st.sampled_from("xyz")), max_size=4)


@settings(max_examples=60)
@given(words, words)
def test_shuffle_count_and_sign_symmetry(u, v):
    u, v = tuple(u), tuple(v)
    out = shuffles_with_signs(QQ, u, v, bar_letter_degree)
    # number of shuffles is binomial(|u|+|v|, |u|)
    from math import comb

    assert len(out) == comb(len(u) + len(v), len(u))
    # graded commutativity of the shuffle sum: swapping arguments flips each
    # shuffle's sign by (-1)^{deg(u)·deg(v)} on marked degrees
    du = sum(bar_letter_degree(k) for k in u)
    dv = sum(bar_letter_degree(k) for k in v)
    sgn = QQ.of(-1) if (du * dv) % 2 else QQ.one

    def aggregate(pairs):
        total = {}
        for w, s in pairs:
            total[w] = QQ.add(total.get(w, QQ.zero), s)
        return {k: v for k, v in total.items() if not QQ.is_zero(v)}

    total = aggregate(out)
    swapped = aggregate(shuffles_with_signs(QQ, v, u, bar_letter_degree))
    assert swapped == {w: QQ.mul(sgn, s) for w, s in total.items()}


terms = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-6, 6), st.integers(-6, 6)), max_size=12)


@given(terms, st.sampled_from(["Z", "Q", "Fp:5"]))
def test_lincomb_matches_accumulation(ts, tag):
    from htwist.rings import Ring

    R = Ring.from_tag(tag)
    want = {}
    for k, a, b in ts:
        want[k] = R.add(want.get(k, R.zero), R.mul(R.of(a), R.of(b)))
    want = {k: v for k, v in want.items() if not R.is_zero(v)}
    # coefficients may be unreduced products; keys keep first-appearance order
    got = R.lincomb((k, R.of(a) * R.of(b)) for k, a, b in ts)
    assert list(got.items()) == list(want.items())


# Q values: integers, and fractions of small ints (Fraction(4, 2) is an
# integral Fraction, the representation the canonical values replace).
q_values = st.one_of(st.integers(-40, 40),
                     st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))


def is_canonical_q(v):
    """Over Q, an int when integral and a Fraction only otherwise."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@given(q_values, q_values)
def test_q_arithmetic_is_canonical_and_matches_fraction(a, b):
    x, y = QQ.of(a), QQ.of(b)
    fa, fb = Fraction(a), Fraction(b)
    cases = [(x, fa), (y, fb), (QQ.add(x, y), fa + fb), (QQ.sub(x, y), fa - fb),
             (QQ.mul(x, y), fa * fb), (QQ.neg(x), -fa)]
    if fb:
        cases.append((QQ.inv(y), 1 / fb))
    for got, want in cases:
        assert got == want and is_canonical_q(got), (got, want)


@given(st.lists(st.tuples(st.sampled_from("abcd"), q_values, q_values), max_size=12))
def test_q_lincomb_is_canonical_and_matches_fraction(ts):
    want = {}
    for k, a, b in ts:
        want[k] = want.get(k, 0) + Fraction(a) * Fraction(b)
    want = {k: v for k, v in want.items() if v}
    # products of canonical values, such as 2 * 1/2, may be integral Fractions
    got = QQ.lincomb((k, QQ.of(a) * QQ.of(b)) for k, a, b in ts)
    assert list(got.items()) == list(want.items())
    assert all(is_canonical_q(v) for v in got.values())
