"""Stern's diatomic sequence and the Carlitz binomial-parity sum.

Stern's sequence is defined by s(0) = 0, s(1) = 1, s(2n) = s(n),
s(2n+1) = s(n) + s(n+1).  It ties the triangle's diagonal sums to the
ordinary Pascal triangle mod 2: d(2n) = d(2n+1) = s(2n+1), and by a
result of Carlitz

    s(n+1) = sum over k <= n/2 of (C(n - k, k) mod 2),

the parity diagonal of Pascal's triangle.  For odd n, s(n) also equals
the continuant of the binary run lengths of n.

stern states its recurrence once, as _stern_scan over the bits of n
with one addition per bit, and continuant._bits_product either runs it
over all the bits or, past one leaf, multiplies the matrices of the
bytes of n, looked up in the scan's byte table (built on first use), as
a balanced tree, which keeps the bit cost subquadratic (see the
continuant module).  The scan never goes through continuant(), so the
two stay independent routes to the same values.

A range costs O(1) big-int operations per term: _stern_terms seeds
itself with one scan, then steps by Newman's successor rule s(m+2) =
s(m) + s(m+1) - 2 (s(m) mod s(m+1)) (Calkin & Wilf, 2000), and _d_terms
sums adjacent terms of that sweep into e(j) = d(2j), which
continuant._evens repeats into d: the fast streams of bfile.ROUTES.
"""

from itertools import pairwise, starmap
from operator import add

from .continuant import _bits_product, _evens, _require_index
from .triangle import _odd_diagonal

__all__ = ["carlitz_sum", "stern"]


def _stern_scan(bits, a, b):
    """The row (s(m), s(m+1)) after appending bits to the prefix m.

    A 0 bit maps it to (s(2m), s(2m+1)) = (a, a+b) and a 1 bit to
    (s(2m+1), s(2m+2)) = (a+b, b): the Stern-Brocot matrices
    L = [[1,0],[1,1]] and R = [[1,1],[0,1]] acting on the pair.
    """
    for ch in bits:
        if ch == "1":
            a += b
        else:
            b += a
    return a, b


def stern(n: int) -> int:
    """s(n) in O(log n) big-int operations, scanning the bits of n
    most-significant-first from (s(0), s(1)) = (0, 1).  No recursion,
    no memo table."""
    _require_index("n", n)
    return _bits_product((0, 1), n, _stern_scan)[0]


def carlitz_sum(n: int) -> int:
    """Sum of C(n - k, k) mod 2 for k <= n/2; equals s(n+1).  n/2 + 1
    carry tests (Kummer's theorem), streamed in O(1) memory."""
    _require_index("n", n)
    return _odd_diagonal(n)


def _newman(a, b):
    """s(m), s(m+1), ... from (a, b) = (s(m), s(m+1)), by Newman's rule;
    s(m+1) >= 1 for every m >= 0, so the remainder is defined."""
    while True:
        yield a
        a, b = b, a + b - 2 * (a % b)


def _stern_terms(start: int):
    """The endless stream s(start), s(start+1), ...; start is checked at
    the call, not at the first term.  One scan of start gives the whole
    row (s(start), s(start+1))."""
    _require_index("start", start)
    return _newman(*_bits_product((0, 1), start, _stern_scan, readout=False))


@_evens
def _d_terms(j):
    """e(j), e(j+1), ..., with e(j) = d(2j) = s(2j+1) = s(j) + s(j+1):
    the sums of adjacent terms of the Stern sweep from j."""
    return starmap(add, pairwise(_stern_terms(j)))
