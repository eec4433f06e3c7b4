"""Exact ground rings: the integers, the rationals, and prime fields.

Ring elements are plain Python values: ``int`` over Z; over Q ``int`` when
integral, else ``Fraction``; ``0..p-1`` over F_p.  A ``Ring`` bundles the
arithmetic so matrices and complexes never branch on the kind.
"""

from __future__ import annotations

from fractions import Fraction


def _q(v):
    """The canonical value of the rational v: an int when v is integral.

    int and Fraction compare and hash equal, so this changes no verdict."""
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Ring:
    """One of Z, Q, or F_p (p prime), with exact element arithmetic."""

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if p is None or not _is_prime(p):
                raise ValueError(f"Fp requires a prime, got {p!r}")
        self.kind = kind
        self.p = p if kind == "Fp" else None
        self.zero = self.of(0)
        self.one = self.of(1)

    # -- constructors -------------------------------------------------
    def of(self, n):
        """Coerce an integer (or Fraction over Q) into the ring; over Z and
        F_p a Fraction must be integral."""
        if self.kind == "Q":
            return n if type(n) is int else _q(Fraction(n))
        if isinstance(n, Fraction) and n.denominator != 1:
            raise ValueError(f"{n} is not an integer")
        return int(n) if self.kind == "Z" else int(n) % self.p

    # -- arithmetic ---------------------------------------------------
    def add(self, a, b):
        c = a + b
        if self.kind == "Q":
            return _q(c)
        return c % self.p if self.kind == "Fp" else c

    def sub(self, a, b):
        c = a - b
        if self.kind == "Q":
            return _q(c)
        return c % self.p if self.kind == "Fp" else c

    def mul(self, a, b):
        c = a * b
        if self.kind == "Q":
            return _q(c)
        return c % self.p if self.kind == "Fp" else c

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a) -> bool:
        return a == 0

    def lincomb(self, terms) -> dict:
        """Sum (key, coeff) pairs into {key: coeff}, dropping zero coefficients.

        A coefficient may be an unreduced product of ring elements; each sum
        is reduced once.  Ring elements are canonical, so two results are
        the same linear combination exactly when they compare equal.
        """
        out: dict = {}
        get = out.get
        for k, v in terms:
            out[k] = get(k, 0) + v
        p = self.p
        if p:
            return {k: r for k, v in out.items() if (r := v % p)}
        if self.kind == "Q":
            return {k: _q(v) for k, v in out.items() if v}
        return {k: v for k, v in out.items() if v}

    def inv(self, a):
        if self.kind == "Q":
            return _q(Fraction(1) / a)
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit in Z")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    # -- identification -----------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Fp({self.p})" if self.kind == "Fp" else self.kind

    def tag(self) -> str:
        """Serialization tag: "Z", "Q" or "Fp:<p>"."""
        return f"Fp:{self.p}" if self.kind == "Fp" else self.kind

    @staticmethod
    def from_tag(tag: str) -> "Ring":
        if tag == "Z":
            return ZZ
        if tag == "Q":
            return QQ
        if tag.startswith("Fp:"):
            return Ring("Fp", int(tag.split(":", 1)[1]))
        raise ValueError(f"bad ring tag {tag!r}")


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("Fp", p)
