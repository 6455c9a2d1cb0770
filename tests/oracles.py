"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (math.comb, Fraction
arithmetic, the literal defining recurrences) so that agreement with
the package is evidence, not circularity.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, repeat
from math import comb

# Rows 0..8 of the triangle, keyed in by hand from the A119326 entry:
# T(n,k) sums C(k,j)*C(n-k,j) over even j.
EXACT_ROWS = [
    [1],
    [1, 1],
    [1, 1, 1],
    [1, 1, 1, 1],
    [1, 1, 2, 1, 1],
    [1, 1, 4, 4, 1, 1],
    [1, 1, 7, 10, 7, 1, 1],
    [1, 1, 11, 19, 19, 11, 1, 1],
    [1, 1, 16, 31, 38, 31, 16, 1, 1],
]

PARITY_ROWS = [[t % 2 for t in row] for row in EXACT_ROWS]


def t_entry(n: int, k: int) -> int:
    return sum(
        comb(k, j) * comb(n - k, j) for j in range(0, n - k + 1, 2)
    )


def t_parity(n: int, k: int) -> int:
    return t_entry(n, k) % 2


def row_sum(n: int) -> int:
    return sum(t_parity(n, k) for k in range(n + 1))


def diag_sum(n: int) -> int:
    return sum(t_parity(n - k, k) for k in range(n // 2 + 1))


def binary_run_lengths(n: int) -> tuple[int, ...]:
    if n == 0:
        return ()
    return tuple(len(list(g)) for _bit, g in groupby(bin(n)[2:]))


def cf_numerator(terms) -> int:
    """Numerator of [m0; m1, ..., mk] computed with exact fractions."""
    terms = list(terms)
    if not terms:
        return 1
    value = Fraction(terms[-1])
    for m in reversed(terms[:-1]):
        value = m + 1 / value
    return value.numerator


@lru_cache(maxsize=None)
def stern_naive(n: int) -> int:
    if n < 2:
        return n
    if n % 2 == 0:
        return stern_naive(n // 2)
    return stern_naive(n // 2) + stern_naive(n // 2 + 1)


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def stern_bits(n: int) -> int:
    """s(n) from (s(0), s(1)) = (0, 1), one bit of n at a time: appending
    bit 0 to m gives (s(2m), s(2m+1)), bit 1 gives (s(2m+1), s(2m+2))."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            a = a + b
        else:
            b = a + b
    return a


def rep_state_bits(rep, n: int) -> tuple[int, int]:
    """A linear representation's state at n: v0 times m0 or m1 (as
    matrices acting on a column vector) for each bit of n, none for
    n = 0."""
    x, y = rep.v0
    bits = bin(n)[2:] if n else ""  # bin(0) is "0", but 0 has no bits
    for bit in bits:
        (a, b), (c, d) = rep.m1 if bit == "1" else rep.m0
        x, y = a * x + b * y, c * x + d * y
    return x, y


def scan(name, indices, lhs, rhs):
    """verify's scan index by index: the value streams lhs(indices) and
    rhs(indices) side by side, a side that has ended read as None, the
    first mismatch kept and every index counted.  Returns (name, checked,
    first), with first an (index, lhs, rhs) tuple or None."""
    checked = 0
    first = None
    sides = zip(indices, chain(lhs(indices), repeat(None)),
                chain(rhs(indices), repeat(None)))
    for i, a, b in sides:
        checked += 1
        if first is None and (a != b or a is None):
            first = (i, a, b)
    return name, checked, first
