"""The parts of a scalar print as they always have.

For a fixed family of scalars (Laurent values, true quotients, values with
Fraction coefficients, zero) the test pins `str()` of `num`, `den`, `as_poly()`
and `as_integer_poly()`.  A digest pins the same four strings for every
structure constant C^K_IJ(q,t) with k <= 4.

Print the current values with `python tests/test_scalar_guard.py`.
"""

import hashlib
from fractions import Fraction

import pytest

from hopfscf import nsym
from hopfscf.compositions import subsets_of
from hopfscf.scalars import ONE, Q, T, ZERO, rational

MAX_K = 4

FAMILY = {
    "laurent": Q**-2 + T,
    "laurent-poly": Q * T + T**2,
    "monomial": Q**-1 * T**3,
    "quotient": (Q + T) / (ONE - Q),
    "quotient-inverse": ONE / (Q + T),
    "quotient-fraction": rational(Fraction(1, 2)) / (Q - 3),
    "fraction-poly": Q / 2 + T,
    "fraction-constant": rational(Fraction(2, 3)),
    "fraction-laurent": Q**-1 * Fraction(3, 4) + T / 6,
    "zero": ZERO,
}


def parts(x) -> tuple[str, str, str, str]:
    return str(x.num), str(x.den), str(x.as_poly()), str(x.as_integer_poly())


def table_digest() -> tuple[int, str]:
    """The number of nonzero constants, and the digest of every constant's parts."""
    h, nonzero = hashlib.sha256(), 0
    for k in range(MAX_K + 1):
        for K in subsets_of(k):
            for m in range(k + 1):
                for I in subsets_of(m):
                    for J in subsets_of(k - m):
                        c = nsym.structure_constant(k, K, m, I, J)
                        nonzero += not c.is_zero()
                        h.update(f"{k} {K} {m} {I} {J}: {' | '.join(parts(c))}\n".encode())
    return nonzero, h.hexdigest()


# as_poly() is the scalar itself, so a polynomial with a non-integer
# coefficient prints in the canonical 'num / den' form.
PINNED = {
    "laurent": ("q^2*t + 1", "q^2", "None", "None"),
    "laurent-poly": ("q*t + t^2", "1", "q*t + t^2", "q*t + t^2"),
    "monomial": ("t^3", "q", "None", "None"),
    "quotient": ("-q - t", "q - 1", "None", "None"),
    "quotient-inverse": ("1", "q + t", "None", "None"),
    "quotient-fraction": ("1", "2*q - 6", "None", "None"),
    "fraction-poly": ("q + 2*t", "2", "q + 2*t / 2", "None"),
    "fraction-constant": ("2", "3", "2 / 3", "None"),
    "fraction-laurent": ("2*q*t + 9", "12*q", "None", "None"),
    "zero": ("0", "1", "0", "0"),
}
TABLE_DIGEST = (107, "8003025e238c7000e996e311cd3bd9e0aea077365388906d747642df6be1c4ad")


def test_every_member_is_pinned():
    assert set(PINNED) == set(FAMILY)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_parts_print_unchanged(name):
    assert parts(FAMILY[name]) == PINNED[name]


def test_structure_constant_parts_unchanged():
    assert table_digest() == TABLE_DIGEST


if __name__ == "__main__":
    for name, x in FAMILY.items():
        print(f"    {name!r}: {parts(x)!r},")
    print(f"TABLE_DIGEST = {table_digest()!r}")
