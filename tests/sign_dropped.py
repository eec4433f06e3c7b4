"""The sign-dropped shuffle quotient, the corruption control of the abelian
normality route.

`shuffle_quotient_algebra` multiplies (w⊗a)·(w'⊗a') by the Koszul sign
(-1)^{|a||w'|}.  Multiplying each of its products by that sign once more
drops it: the result is the product without the sign, which is not
associative on Λx⊗Λy, where odd bar words meet odd algebra elements.
"""

from complex_helpers import algebra_by_name
from htwist.barcobar import bar
from htwist.bundles import borel_quotient
from htwist.complexes import ChainMap
from htwist.hopf import ChainAlgebra
from htwist.normality import (
    natural_quotient_projection,
    rigid_normality_certificate,
    shuffle_quotient_algebra,
)


def sign_dropped_quotient(A: ChainAlgebra, q) -> ChainAlgebra:
    """shuffle_quotient_algebra(A, A, q) with the Koszul sign dropped."""
    Q = shuffle_quotient_algebra(A, A, q)
    R, pairs = A.ring, q.bundle.total.basis.keys

    def product(da, aname, db, bname):
        _, (dx, _) = pairs[aname]
        (dw2, _), _ = pairs[bname]
        prod = Q.product(da, aname, db, bname)
        return {k: R.neg(v) for k, v in prod.items()} if (dx * dw2) % 2 else prod

    return algebra_by_name(Q.complex, Q.unit, product, name=Q.name)


def sign_dropped_normality(A: ChainAlgebra, N: int):
    """abelian_normality(id_A, A, A, N) with the sign-dropped quotient fed
    to the rigid builder in place of the shuffle quotient."""
    f = ChainMap.identity(A.complex)
    BarA = bar(A, N + 1)
    BarA2 = bar(A, N + 1)
    q = borel_quotient(f, A, A, N, BarA)
    Q = sign_dropped_quotient(A, q)
    q2 = borel_quotient(q.pi, A, Q, N, BarA2)
    pi_tilde = natural_quotient_projection(q, q2, BarA)
    return rigid_normality_certificate(f, A, A, Q, pi_tilde, N,
                                       BarA=BarA, BarA2=BarA2, quotient=q, quotient2=q2)
