"""The Pi/L, Pi/M and B/H transitions as whole-matrix displays, and their
inverse checks.

hopfscf.qsym and hopfscf.nsym change basis through one 2x2 hub factor per
basis (`qsym._m_factor`, `nsym._h_factor`), expanded coordinate by
coordinate.  The closed forms here give one entry of a transition matrix at
a time over the subsets of [n-1], each written from its formula and not from
a hub factor, so they are the reference the conversion kernel is compared
against: `convert_oracle` expands Pi and B labels through them, and the
acceptance sweep (criterion 05) checks that each pair of displays multiplies
to the identity both ways.  The Pi displays refuse a nu that is not an int
of at least 2, as the Pi basis does.
"""

from __future__ import annotations

from fractions import Fraction

from hopfscf.compositions import _full_mask
from hopfscf.linear import extend
from hopfscf.scalars import ONE, ZERO, Q, T, ScalarQT, _exact_nu


# ---------------------------------------------------------------------------
# Pi(nu) against L and M (fixed degree n, masks over [n-1])


def pi_from_L_entry(n: int, imask: int, jmask: int, nu: int) -> Fraction:
    """Coefficient of Pi_{comp(J)} in L_{comp(I)}."""
    _exact_nu(nu)
    j_minus_i = (jmask & ~imask).bit_count()
    meet = (imask & jmask).bit_count()
    return Fraction((-1) ** j_minus_i * (nu - 1) ** meet)


def L_from_pi_entry(n: int, jmask: int, imask: int, nu: int) -> Fraction:
    """Coefficient of L_{comp(I)} in Pi_{comp(J)}."""
    _exact_nu(nu)
    if n == 0:
        return Fraction(1)
    j_minus_i = (jmask & ~imask).bit_count()
    union_c = (n - 1) - (imask | jmask).bit_count()
    return Fraction((-1) ** j_minus_i * (nu - 1) ** union_c, nu ** (n - 1))


def pi_from_M_entry(n: int, imask: int, jmask: int, nu: int) -> Fraction:
    """Coefficient of Pi_{comp(J)} in M_{comp(I)}; zero unless I u J = [n-1]."""
    _exact_nu(nu)
    if (imask | jmask) != _full_mask(n):
        return Fraction(0)
    j_minus_i = (jmask & ~imask).bit_count()
    meet = (imask & jmask).bit_count()
    return Fraction((-nu) ** j_minus_i * (nu - 1) ** meet)


def M_from_pi_entry(n: int, jmask: int, imask: int, nu: int) -> Fraction:
    """Coefficient of M_{comp(I)} in Pi_{comp(J)}; zero unless I n J is empty."""
    _exact_nu(nu)
    if n == 0:
        return Fraction(1)
    if imask & jmask:
        return Fraction(0)
    jj = jmask.bit_count()
    ii = imask.bit_count()
    return Fraction(1, (1 - nu) ** jj) * Fraction(nu - 1, nu) ** ((n - 1) - ii)


# ---------------------------------------------------------------------------
# B(q,t) against H


def b_matrix_entry(n: int, imask: int, jmask: int) -> ScalarQT:
    """The transition-matrix entry M_{I,J} = q^{|J\\I|} t^{|J n I|} [I u J = [n-1]]."""
    if (imask | jmask) != _full_mask(n):
        return ZERO
    return Q ** (jmask & ~imask).bit_count() * T ** (jmask & imask).bit_count()


def b_inverse_entry(n: int, imask: int, jmask: int) -> ScalarQT:
    """The inverse-matrix entry N_{I,J} = q^{|J|-(n-1)} (-t)^{(n-1)-|I|-|J|} [I n J empty]."""
    if n == 0:
        return ONE
    if imask & jmask:
        return ZERO
    si, sj = imask.bit_count(), jmask.bit_count()
    return Q ** (sj - (n - 1)) * (-T) ** ((n - 1) - si - sj)


# ---------------------------------------------------------------------------
# the inverse checks


def pi_L_matrices_inverse(n: int, nu: int) -> bool:
    """The two Pi/L displays multiply to the identity, both ways."""
    _exact_nu(nu)
    size = 1 << max(n - 1, 0)
    scale = nu ** max(n - 1, 0)
    A = [
        [int(pi_from_L_entry(n, r, c, nu)) for c in range(size)]
        for r in range(size)
    ]
    Bs = [
        [int(L_from_pi_entry(n, r, c, nu) * scale) for c in range(size)]
        for r in range(size)
    ]
    # L_I = sum_J A[I][J] Pi_J and Pi_J = (1/scale) sum_I Bs[J][I] L_I
    for X, Y in ((A, Bs), (Bs, A)):
        Yt = list(zip(*Y))
        for i in range(size):
            row = X[i]
            for j in range(size):
                s = sum(a * b for a, b in zip(row, Yt[j]))
                if s != (scale if i == j else 0):
                    return False
    return True


def _sparse_inverses(n: int, x_entry, y_entry) -> bool:
    """XY = YX = I for the two 2^(n-1)-square matrices with entries
    x_entry(row, col) and y_entry(row, col), multiplied as sparse rows."""
    size = 1 << max(n - 1, 0)
    X, Y = (
        [{j: v for j in range(size) if (v := entry(i, j))} for i in range(size)]
        for entry in (x_entry, y_entry)
    )
    for A, B in ((X, Y), (Y, X)):
        for i, row in enumerate(A):
            if extend(row.items(), lambda l: B[l].items()) != {i: 1}:
                return False
    return True


def pi_M_matrices_inverse(n: int, nu: int) -> bool:
    """The two Pi/M displays multiply to the identity, both ways (sparse)."""
    _exact_nu(nu)
    return _sparse_inverses(
        n, lambda i, j: pi_from_M_entry(n, i, j, nu), lambda i, j: M_from_pi_entry(n, i, j, nu)
    )


def bh_matrices_inverse(n: int) -> bool:
    """The B-to-H matrix and its stated inverse satisfy MN = NM = I symbolically."""
    return _sparse_inverses(
        n, lambda i, j: b_matrix_entry(n, i, j), lambda i, j: b_inverse_entry(n, i, j)
    )
