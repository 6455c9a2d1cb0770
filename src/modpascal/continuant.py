"""Binary run lengths and continuants: the fast route to the diagonal sums.

The run lengths of a binary string are the lengths of its maximal blocks
of equal symbols, e.g. 111000011111 -> (3, 4, 5).  For an integer n >= 1
the run lengths of its binary expansion are read most-significant-first,
so they alternate 1-run, 0-run, 1-run, ... starting with a 1-run; n = 0
maps to the empty sequence.

The continuant K(m_0, ..., m_k) of a sequence of positive integers is
the numerator of the continued fraction [m_0; m_1, ..., m_k].  It obeys

    K() = 1,  K(m_0) = m_0,
    K(m_0..m_j) = m_j * K(m_0..m_{j-1}) + K(m_0..m_{j-2}),

and is invariant under reversing the sequence.  Equivalently, K is the
top-left entry of the product of the 2x2 matrices [[m_j, 1], [1, 0]].

The diagonal sum d(n) of the mod-2 triangle (A114214) equals the
continuant of the run lengths of n, which turns an O(n) sum over a
triangle diagonal into O(log n) big-int operations.  The empty-sequence
convention K() = 1 makes this hold at n = 0 as well, where the diagonal
is the single entry T(0, 0) = 1.

Up to _LEAF terms are folded by the recurrence, one small multiply per
term.  A longer sequence is cut into leaves of _LEAF terms; each leaf
runs the same recurrence from both unit rows, which yields its matrix
product in small ints, and _row_product multiplies the start row (1, 0)
by the leaves as a balanced tree.  Folding left to right multiplies an
ever-growing accumulator by a small term each time, a cost quadratic in
the bit length b of the result; the tree multiplies operands of equal
size, so CPython's Karatsuba multiply brings it down to O(b^1.585).
Stern's scan and the matrix representation (modules stern and regular)
build their own leaves and run on the same _row_product.
"""

import re
from collections.abc import Iterable
from itertools import chain, zip_longest

__all__ = ["continuant", "diagonal_sum_fast", "run_lengths", "runs_to_int"]

_RUN = re.compile(r"1+|0+")

# Terms, or bits, per leaf of the product tree: inputs up to this long
# take the plain left-to-right loop.
_LEAF = 64

_ONE = (1, 0, 0, 1)  # the identity matrix, as (a, b, c, d) = [[a, b], [c, d]]


def _not_int(name, value):
    """The TypeError for a non-int argument; bool counts as non-int."""
    return TypeError(f"{name} must be an int, got {type(value).__name__}")


def _mul(x, y):
    """Product x @ y of 2x2 matrices given as 4-tuples like _ONE."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _row_product(row, mats):
    """The row vector row @ M_0 @ M_1 @ ... for an iterable of matrices,
    multiplied as a balanced product tree.

    Adjacent pairs are multiplied level by level until one matrix is
    left, so both operands of every multiply are about the same size.
    The row enters first, as a matrix whose second row is zero:
    multiplying by 0 is free, so the products down the tree's left
    spine cost half.  The bottom level is paired as the matrices
    arrive, so the iterable is never held as a list.
    """
    mats = chain([(*row, 0, 0)], mats)
    while True:
        pairs = iter(mats)
        mats = [_mul(x, y) for x, y in zip_longest(pairs, pairs, fillvalue=_ONE)]
        if len(mats) == 1:
            return mats[0][:2]


def run_lengths(n: int) -> tuple[int, ...]:
    """Run lengths of the binary expansion of n, most significant first."""
    if type(n) is not int:  # also rejects bool
        raise _not_int("n", n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return ()
    return tuple(m.end() - m.start() for m in _RUN.finditer(bin(n)[2:]))


def runs_to_int(runs: Iterable[int]) -> int:
    """Rebuild the integer whose binary run lengths are `runs`.

    Inverse of run_lengths: blocks alternate 1s, 0s, 1s, ... starting
    with 1s; the empty sequence gives 0.
    """
    bits = []
    symbol = "1"
    for length in runs:
        if length < 1:
            raise ValueError(f"run lengths must be >= 1, got {length}")
        bits.append(symbol * length)
        symbol = "0" if symbol == "1" else "1"
    if not bits:
        return 0
    return int("".join(bits), 2)


def _continuant_leaf(terms):
    """Product of [[m, 1], [1, 0]] over terms: the two-term recurrence
    run from the unit rows (1, 0) and (0, 1)."""
    a, b, c, d = _ONE
    for term in terms:
        if term < 1:
            raise ValueError(f"continuant terms must be >= 1, got {term}")
        a, b = term * a + b, a
        c, d = term * c + d, c
    return a, b, c, d


def continuant(m: Iterable[int]) -> int:
    """Continuant K(m_0, ..., m_k) of a sequence of positive integers.

    Up to _LEAF terms: the two-term linear recurrence (two rolling
    big-int accumulators); denominators of the underlying continued
    fraction are never formed.  Longer: leaves of _LEAF terms multiplied
    as a balanced product tree.  O(k) big-int operations either way.
    """
    terms = tuple(m)
    if len(terms) > _LEAF:
        leaves = (_continuant_leaf(terms[i:i + _LEAF])
                  for i in range(0, len(terms), _LEAF))
        return _row_product((1, 0), leaves)[0]
    p, q = 1, 0  # K of the terms consumed so far, and of one term fewer
    for term in terms:
        if term < 1:
            raise ValueError(f"continuant terms must be >= 1, got {term}")
        p, q = term * p + q, p
    return p


def diagonal_sum_fast(n: int) -> int:
    """d(n) as the continuant of the run lengths of n; O(log n) big-int
    operations, subquadratic in the bit length of n."""
    return continuant(run_lengths(n))
