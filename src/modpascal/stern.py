"""Stern's diatomic sequence and the Carlitz binomial-parity sum.

Stern's sequence is defined by s(0) = 0, s(1) = 1, s(2n) = s(n),
s(2n+1) = s(n) + s(n+1).  It ties the triangle's diagonal sums to the
ordinary Pascal triangle mod 2: d(2n) = d(2n+1) = s(2n+1), and by a
result of Carlitz

    s(n+1) = sum over k <= n/2 of (C(n - k, k) mod 2),

the parity diagonal of Pascal's triangle.  For odd n, s(n) also equals
the continuant of the binary run lengths of n.

stern scans the bits of n with one addition per bit.  Up to _LEAF bits
the scan carries one pair of ints; a longer n is cut into leaves of
_LEAF bits, each leaf runs the scan from both unit rows to get its 2x2
matrix, and continuant._row_product multiplies the start row (0, 1) by
the leaves as a balanced tree, which keeps the bit cost subquadratic
(see the continuant module).  The scan never goes through continuant(),
so the two stay independent routes to the same values.
"""

from .continuant import _LEAF, _ONE, _not_int, _row_product
from .triangle import binom_parity

__all__ = ["carlitz_sum", "stern"]


def stern(n: int) -> int:
    """s(n) in O(log n) big-int operations, scanning the bits of n
    most-significant-first.

    The state is the pair (s(m), s(m+1)) for the prefix m of n consumed
    so far; appending a 0 bit maps it to (s(2m), s(2m+1)) = (a, a+b) and
    a 1 bit to (s(2m+1), s(2m+2)) = (a+b, b).  These are the standard
    Stern-Brocot matrices L = [[1,0],[1,1]] and R = [[1,1],[0,1]] acting
    on the pair.  No recursion, no memo table.  Past _LEAF bits the
    pair becomes a product of leaf matrices (see _stern_leaf).
    """
    if type(n) is not int:  # also rejects bool
        raise _not_int("n", n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    if n.bit_length() > _LEAF:
        bits = bin(n)[2:]
        leaves = (_stern_leaf(bits[i:i + _LEAF])
                  for i in range(0, len(bits), _LEAF))
        return _row_product((0, 1), leaves)[0]  # from (s(0), s(1))
    a, b = 1, 1  # (s(1), s(2)) after the leading 1 bit
    for ch in bin(n)[3:]:
        if ch == "1":
            a += b
        else:
            b += a
    return a


def _stern_leaf(bits):
    """Matrix of a block of bits acting on the row (s(m), s(m+1)): the
    scan run from the unit rows (1, 0) and (0, 1)."""
    a, b, c, d = _ONE
    for ch in bits:
        if ch == "1":
            a += b
            c += d
        else:
            b += a
            d += c
    return a, b, c, d


def carlitz_sum(n: int) -> int:
    """Sum of C(n - k, k) mod 2 for k <= n/2; equals s(n+1).  O(n)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    bp = binom_parity
    return sum(bp(n - k, k) for k in range(n // 2 + 1))
