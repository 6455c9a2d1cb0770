"""Exact and mod-2 arithmetic for the modified Pascal triangle A119326.

The triangle, introduced by Paul Barry in the OEIS, is defined for
0 <= k <= n by

    T(n, k) = sum of C(k, j) * C(n - k, j) over even j,

with C(a, b) = 0 whenever b > a.  Reducing mod 2 gives the 0/1 triangle
A114213, whose row sums r(n) form A114212 and whose diagonal sums d(n)
form A114214.

Each mode of the triangle, "exact" or "parity", is one rows function in
the table _ROWS, and _triangle_terms, and so iter_triangle_terms and the
t-row route of the b-files, reads its entries from that function: a
row at a time for "exact", a window of a row at a time for "parity".

Exact rows have two routes.  The generating function of T, with u
marking k and v marking n - k, splits as

    G(u, v) = 1 / ((1 - u)(1 - v)(1 - w^2)),  w = uv / ((1 - u)(1 - v)),
            = 1/2 [1 / (1 - u - v) + 1 / (1 - u - v + 2uv)],

so T(n, k) = (C(n, k) + E(n, k)) / 2, where the second fraction gives
E(n, k) = sum of (-1)^j C(k, j) C(n - k, j) over all j and the rule

    E(n, k) = E(n-1, k-1) + E(n-1, k) - 2 E(n-2, k-1),

while C(n, k) follows Pascal's rule.  Together they give

    T(n, k) = T(n-1, k-1) + T(n-1, k) - E(n-2, k-1).

_exact_rows builds each row past the second of a stream this way, from
three half rows (T and E are both symmetric in k and n - k), by a few
C-level maps of additions: no multiply, no division and no Python step
per entry.  _exact_row runs an order-2 recurrence in k instead, O(n)
big-int operations per row, one multiply and one exact division per
entry, and serves where a row stands alone: a stream's first row,
which may start mid-row, its seeds, and triangle_row.  triangle_entry
evaluates the defining sum and is the reference that `verify rows` and
the tests compare both against.

The parity of T(n, k) never requires the defining sum: it collapses to
the parity of a single ordinary binomial coefficient (C(n, k) when n + k
is even, C(n - 1, k) otherwise), and binomial parity itself is a bitwise
subset test by Lucas' congruence.  That reduction is what makes the
parity row sums and diagonal sums tractable at large n; this module
keeps both routes so they can be checked against each other.  A row
alone (_parity_row) runs the subset test as maps over its entries; the
parity stream (_parity_rows) reads each row as bitsets, a window of
4096 entries at a time, by Lucas' theorem on the window's position and
the low bits of n, with no Python step per entry.  One row sum
(row_sum_brute) adds up _parity_row; a range of them sweeps Pascal's
rows mod 2 as bitsets by Pascal's rule, P_n = P_(n-1) ^ (P_(n-1) << 1),
one masked bit count per row (_pascal_row_sums).  One diagonal sum
counts Kummer's carry test along its diagonal (diagonal_sum_brute, and
carlitz_sum, Stern's reference, along Pascal's own); a range of them
sweeps the diagonals as bitsets by Pascal's rule, D_t = D_(t-1) ^
(D_(t-2) << 1), one shift and xor per diagonal (_diagonal_sum_terms,
and _carlitz_terms for Stern).

Everything here is a pure function of its arguments (no shared state),
safe to call from any number of threads.  Values are plain Python ints,
which are arbitrary precision; T(n, k) grows roughly like 3^n along the
middle of a row, so fixed-width types are not an option.
"""

import os
import sys
from collections import namedtuple
from itertools import chain, count, cycle, islice
from math import isqrt
from operator import add, and_, countOf, eq, not_, sub
from types import MappingProxyType

from .kernel import _evens, _require_index, to_decimal

__all__ = [
    "TriangleRow",
    "binom_parity",
    "carlitz_sum",
    "diagonal_sum_brute",
    "iter_triangle_terms",
    "row_sum_brute",
    "row_sum_closed",
    "triangle_entry",
    "triangle_entry_parity",
    "triangle_row",
    "triangle_row_parity",
]


def _require_pair(n, k):
    if not 0 <= k <= n:
        raise ValueError(
            f"need 0 <= k <= n, got n={to_decimal(n)}, k={to_decimal(k)}")


class TriangleRow(namedtuple("TriangleRow", "n entries mode")):
    """One row of the triangle: entries[k] = T(n, k), exact or mod 2.

    mode is "exact" or "parity".  An immutable named tuple, checked when
    it is built, also by _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[int, ...], mode: str):
        _require_index("n", n)
        _row_fn(mode)
        if len(entries) != n + 1:
            raise ValueError(
                f"row {to_decimal(n)} must have {to_decimal(n + 1)} entries, "
                f"got {len(entries)}"
            )
        return super().__new__(cls, n, entries, mode)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# The fused two-term step of triangle_entry divides by ((j+1)(j+2))^2,
# which fits one 30-bit digit of a CPython int for even j below this.
# Past it, CPython's multi-digit long division costs more than two
# one-term steps with one-digit divisors.
_FUSED = 180


def triangle_entry(n: int, k: int) -> int:
    """Exact T(n, k) by the defining sum over even j.

    One product p = C(k, j) * C(n - k, j) is carried along the sum, from
    one even j to the next:

        p_(j+2) = p_j (k-j)(k-j-1)(n-k-j)(n-k-j-1) / ((j+1)(j+2))^2,

    which is exact, as p_(j-1) (k-j+1) (n-k-j+1) = j^2 p_j.  From j =
    _FUSED on, the step is taken as those two one-term steps, with the
    smaller divisors (j+1)^2 and (j+2)^2.  Cost is min(k, n - k) / 2
    steps of a few big-by-small-int operations.  This is the reference
    route: the exact streams run the recurrence of _exact_row instead.
    """
    _require_pair(n, k)
    m = n - k
    p = total = 1  # p = C(k, j) * C(m, j), starting at j = 0
    last = min(k, m) - 1  # each step goes from j to j + 2 <= min(k, m)
    for j in range(0, min(last, _FUSED), 2):
        p = p * ((k - j) * (k - j - 1) * (m - j) * (m - j - 1)) // (
            (j + 1) * (j + 2)) ** 2
        total += p
    for j in range(_FUSED, last, 2):
        p = p * ((k - j) * (m - j)) // ((j + 1) * (j + 1))
        p = p * ((k - j - 1) * (m - j - 1)) // ((j + 2) * (j + 2))
        total += p
    return total


def binom_parity(n: int, k: int) -> int:
    """C(n, k) mod 2 as a bitwise subset test (Lucas' congruence).

    C(n, k) is odd exactly when every binary digit of k is at most the
    corresponding digit of n.  k > n is allowed and gives 0, matching
    C(n, k) = 0.
    """
    if n < 0 or k < 0:
        raise ValueError(
            f"n and k must be >= 0, got n={to_decimal(n)}, k={to_decimal(k)}")
    return 1 if n & k == k else 0


def triangle_entry_parity(n: int, k: int) -> int:
    """T(n, k) mod 2 without evaluating the defining sum.

    The even-j sum reduces to a single binomial parity: C(n, k) when
    n + k is even, C(n - 1, k) otherwise.
    """
    _require_pair(n, k)
    if (n + k) % 2 == 0:
        return binom_parity(n, k)
    return binom_parity(n - 1, k)


def _exact_row(n, k, t_half=None, e_half=None):
    """T(n, k), ..., T(n, n), each yielded as soon as it is known.

    By the split of the generating function in the module docstring (or
    by Vandermonde), T(n, k) = (C(n, k) + E(k)) / 2 with

        E(k) = E(n, k) = sum of (-1)^j C(k, j) C(n - k, j) over all j
             = [x^k] (1 + x)^k (1 - x)^(n - k).

    Across rows, E follows E(n, k) = E(n-1, k-1) + E(n-1, k) -
    2 E(n-2, k-1), which _exact_rows runs by additions past a stream's
    second row.  Along one row, which is what this function needs for a
    row that stands alone (a stream's first row, the seeds of the
    additions, triangle_row), E satisfies, for 1 <= k <= n, the order-2
    recurrence in k

        c0(k) E(k) + c1(k) E(k-1) + c2(k) E(k-2) = 0,
        c0 = k (k-n-1) (2k-n-3),
        c1 = -(2k-n-2) (6k^2 - 6kn - 12k + n^2 + 5n + 4),
        c2 = (k-1) (k-n-2) (2k-n-1).

    c2 vanishes at k = 1, where it gives E(1) = 2 - n from E(0) = 1.
    For 1 <= k <= n/2, c0 has no zero (the one at 2k = n + 3 lies past
    the middle of the row), so each step's division is exact.  The
    binomial is carried alongside as C(n, k) = C(n, k-1) (n-k+1) / k.
    So the row is run forward from k = 0, past the middle only as far
    as n - k, and then mirrored with T(n, k) = T(n, n - k): a term at
    either end of a row costs O(1) operations and a whole row O(n).
    The pass appends T(n, i) and E(n, i) to the lists t_half and e_half
    (fresh ones if not given) as it runs, for i = 0 to min(n/2, n - k):
    when k <= n - n/2 that is the whole half row of both, which
    _exact_rows reuses.

    Proof by creative telescoping (Zeilberger's algorithm; Petkovsek,
    Wilf and Zeilberger, A=B, 1996, ch. 6).  Let F(k, j) = (-1)^j C(k, j)
    C(n-k, j) and f(j) = c0 F(k, j) + c1 F(k-1, j) + c2 F(k-2, j).  Gosper's
    algorithm on f finds the certificate

        R(j) = -j^2 / (2j^2 - jn - 2j - k^2 + kn + 2k),

    with f(j) = G(j+1) - G(j) for G(j) = R(j) f(j).  The denominator of R
    is a factor of f / F(k, j), and G simplifies to a form with no poles:

        G(j) = (-1)^j (2k-n-1) (2k-n-2) (2k-n-3) C(k-1, j-1) C(n-k+1, j-1).

    G(0) = 0, and G(j) = 0 = f(j) for j > k, so summing f over j
    telescopes to 0, which is the recurrence.
    tests/test_triangle.py checks both identities in exact arithmetic.
    """
    if t_half is None:
        t_half, e_half = [], []
    c = e = 1  # C(n, i) and E(i) at i = 0
    e_prev = 0  # E(-1), whose coefficient c2(1) is 0
    for i in range(min(n // 2, n - k) + 1):
        if i:
            c = c * (n - i + 1) // i
            m = 2 * i - n
            e, e_prev = ((m - 2) * (6 * i * (i - n - 2) + n * n + 5 * n + 4) * e
                         - (i - 1) * (i - n - 2) * (m - 1) * e_prev) // (
                             i * (i - n - 1) * (m - 3)), e
        t_half.append((c + e) // 2)
        e_half.append(e)
        if i >= k:
            yield t_half[i]
    yield from (t_half[n - i] for i in range(max(k, n // 2 + 1), n + 1))


def _split(m):
    """The half rows T(m, 0..m/2) and E(m, 0..m/2), from one pass of
    _exact_row: started at k = m/2, its first term comes once the pass
    has run the whole half row."""
    t, e = [], []
    next(_exact_row(m, m // 2, t, e))
    return t, e


_ZERO = (0,)


def _pascal_half(half, size):
    """Pascal's rule on a symmetric row held as its half: the first size
    entries of x(k-1) + x(k) for the next row.  Reading half on into its
    mirror gives the one entry past the half that an odd row's successor
    needs."""
    return map(add, chain(_ZERO, half),
               islice(chain(half, reversed(half)), size))


def _mirror(half, n):
    """Row n, symmetric in k and n - k, from its half 0..n/2."""
    return half + half[n % 2 - 2::-1]


def _exact_rows(n, k):
    """The exact rows n (from entry k on), n + 1, n + 2, ..., each an
    iterable of its entries (_added_rows); a MemoryError at the call
    when row n's pass would outgrow the machine's memory before its
    first term.

    That pass keeps T(n, i) and E(n, i) for i from 0 up to h - 1, h =
    min(k, n - k) + 1, before it gives T(n, k), and most T(n, i) have
    about as many bits as C(n, i), at least i log2(n/i).  Summed over
    i < h, that is estimated from n and k alone as
    h^2 (2n // h).bit_length() / 16 bytes, about half of what the two
    lists hold (measured for n up to 8000).  So from linear index 2^64,
    entry 2,746,052,116 of row 6,074,000,999, the stream refuses at
    once (about 10^18 bytes) instead of growing until it is killed,
    while the first and last entries of a huge row still come at once.
    Read on along such a row, the pass still grows with every entry,
    with no such check.
    """
    h = min(k, n - k) + 1
    need = h * h * (2 * n // h).bit_length() // 16
    if need > _memory_bytes():
        raise MemoryError(
            f"exact row {to_decimal(n)} to entry {to_decimal(k)} holds "
            f"about {to_decimal(need)} bytes")
    return _added_rows(n, k)


def _added_rows(n, k):
    """The rows of _exact_rows, unchecked.

    Row n comes from _exact_row(n, k), so a stream that ends inside it
    does no other work.  The additions are seeded by the half rows of T
    and E of two consecutive rows: row n's, kept by its own pass when
    that ran the whole half row (k <= n - n/2), and row n + 1's from
    _split, which also gives row n + 1; otherwise rows n + 1 and n + 2
    both come from _split.  Each later row is the module docstring's
    rule on half rows,

        T(n, k) = T(n-1, k-1) + T(n-1, k) - E(n-2, k-1),
        E(n, k) = E(n-1, k-1) + E(n-1, k) - 2 E(n-2, k-1),

    for k <= n/2, then mirrored: a few C-level maps per row and three
    half rows held.
    """
    t, e = [], []
    yield _exact_row(n, k, t, e)
    if len(t) <= n // 2:  # row n's pass stopped short of its middle
        n += 1
        t, e = _split(n)
        yield _mirror(t, n)
    e_prev = e
    n += 1
    t, e = _split(n)
    yield _mirror(t, n)
    for n in count(n + 1):
        size = n // 2 + 1
        t = list(map(sub, _pascal_half(t, size), chain(_ZERO, e_prev)))
        e, e_prev = list(map(sub, _pascal_half(e, size),
                             chain(_ZERO, map(add, e_prev, e_prev)))), e
        yield _mirror(t, n)


def _pascal_rows():
    """The rows of Pascal's triangle, C(n, 0..n) for n = 0, 1, ..., each
    a list built from the one before by Pascal's rule, with no multiply
    and no Python step per entry."""
    row = [1]
    while True:
        yield row
        row = list(map(add, chain(_ZERO, row), chain(row, _ZERO)))


def _parity_row(n, k):
    """T(n, k), ..., T(n, n) mod 2: T(n, i) is C(n - (n + i) % 2, i) mod 2,
    so the tops alternate n and n - 1 from the phase of n + k, each
    tested by binom_parity's subset test as maps, with no Python step
    per entry."""
    tops = (n, n - 1) if (n + k) % 2 == 0 else (n - 1, n)
    ks = range(k, n + 1)
    return map(int, map(eq, map(and_, cycle(tops), ks), ks))


# _parity_rows cuts each row into windows of _WINDOW entries, so that it
# holds one window at any n.  A power of two, for Lucas' theorem.
_WINDOW_BITS = 12
_WINDOW = 1 << _WINDOW_BITS
_LOW = _WINDOW - 1

# A window's bits at its even and at its odd positions.
_EVEN = int("01" * (_WINDOW // 2), 2)
_ODD = _EVEN << 1

# binary digits to bytes that iterate as the ints 0 and 1
_ENTRIES = bytes.maketrans(b"01", b"\0\1")
_ZEROS = bytes(_WINDOW)


def _lucas(m):
    """The int whose bit j is C(m, j) mod 2, for m >= 0: by Lucas, bit j
    is set iff j is a binary subset of m, so one shift and or per set
    bit b of m adds the subsets that hold b."""
    bits = 1
    while m:
        low = m & -m
        bits |= bits << low
        m ^= low
    return bits


def _entries(bits, width):
    """Bits 0 to width - 1 of bits, from bit 0 up, as bytes that iterate
    as the ints 0 and 1: one binary text, with no Python step per bit."""
    return f"{bits:0{width}b}"[::-1].encode().translate(_ENTRIES)


def _pascal_bits(n):
    """P_n, P_(n+1), ...: Pascal's rows mod 2 as bitsets, bit k of P_m
    being C(m, k) mod 2.  Seeded by Lucas (_lucas(n)), then stepped by
    Pascal's rule C(m+1, k) = C(m, k) + C(m, k-1), which mod 2 is

        P_(m+1) = P_m ^ (P_m << 1),

    one shift and one xor of ints of about m bits per row."""
    bits = _lucas(n)
    while True:
        yield bits
        bits ^= bits << 1


def _parity_rows(n, k):
    """The mod-2 entries of row n from T(n, k) on and of every row after
    it, as bytes that iterate as the ints 0 and 1, a window of at most
    _WINDOW = W entries at a time, with no Python step per entry.

    By Lucas' theorem, with n = hW + m and m < W, window c of Pascal's
    row n mod 2 (entries cW to cW + W - 1) is _lucas(m) when c & ~h is
    0, and 0 otherwise.  T(n, i) mod 2 reads Pascal's row n at the i of
    n's parity and row n - 1 at the others, so each window mixes the two
    rows' windows by one alternating mask.  The first row starts at
    window k // W, and each row's last window ends at entry n.  The
    stream holds one window and two ints below 2^W at any n; _parity_row
    is the per-row reference it is tested against.
    """
    bits = _lucas((n - 1) & _LOW) if n else 0
    skip = k & _LOW  # entries of the first window before T(n, k)
    for n in count(n):
        prev, bits = bits, _lucas(n & _LOW)
        mine, other = (_EVEN, _ODD) if n % 2 == 0 else (_ODD, _EVEN)
        here, before = bits & mine, prev & other
        high, high_prev = n >> _WINDOW_BITS, (n - 1) >> _WINDOW_BITS
        for c in range(k >> _WINDOW_BITS, high + 1):
            window = ((here if c & ~high == 0 else 0)
                      | (before if c & ~high_prev == 0 else 0))
            width = (_WINDOW if c < high else (n & _LOW) + 1) - skip
            yield _entries(window >> skip, width) if window else _ZEROS[:width]
            skip = 0
        k = 0


# Each mode of the triangle and its rows function rows(n, k), which
# streams the entries of row n from T(n, k) on and of every row after
# it, as iterables of consecutive entries: one per row for "exact", one
# per window of a row for "parity".  The one place that maps a mode to
# code.
_ROWS = MappingProxyType({"exact": _exact_rows, "parity": _parity_rows})


def _row_fn(mode: str):
    if mode not in _ROWS:
        raise ValueError(f"mode must be 'exact' or 'parity', got {mode!r}")
    return _ROWS[mode]


def triangle_row(n: int) -> TriangleRow:
    """Exact row n from the exact stream: O(n) big-int operations."""
    _require_index("n", n)
    return TriangleRow(n, tuple(_exact_row(n, 0)), "exact")


def triangle_row_parity(n: int) -> TriangleRow:
    """Mod-2 row n via the binomial-parity reduction."""
    _require_index("n", n)
    return TriangleRow(n, tuple(_parity_row(n, 0)), "parity")


def row_sum_brute(n: int) -> int:
    """r(n) summed entry by entry across the parity row; O(n)."""
    _require_index("n", n)
    return sum(_parity_row(n, 0))


def row_sum_closed(n: int) -> int:
    """r(n) in closed form from the binary digit sum; O(log n).

    r(n) = 2^s2(n) for odd n and 2^s2(n) + 2^s2(n-2) for even n >= 2,
    where s2 is the binary popcount.  The even branch has no meaning at
    n = 0; there the row is the single entry T(0, 0) = 1.
    """
    _require_index("n", n)
    if n == 0:
        return 1
    if n % 2 == 1:
        return 1 << n.bit_count()
    return (1 << n.bit_count()) + (1 << (n - 2).bit_count())


# _row_sum_terms sweeps blocks of 2 * 2^_ROW_SUM_BITS row sums.  The
# block is built per call, so a small one keeps the first term cheap;
# the sweep runs as fast at any larger size.
_ROW_SUM_BITS = 8

# _row_sum_blocks keeps block 0's tail shifted by each binary weight
# below this one that it meets: at most this many lists of small ints.
_ROW_SUM_WEIGHTS = 32


def _row_sum_blocks(c, tail):
    """The row sums from block c on, as two iterables per block: its
    first term, then tail (block 0 less its first term) times 2^s2(c).
    For a weight s2(c) below _ROW_SUM_WEIGHTS that is one list, shifted
    once and read again by every block of that weight; past it, a
    multiply per term, so the sweep holds no big ints of its own."""
    scaled = {}
    for c in count(c):
        w = c.bit_count()
        # r(2cB) = 2^s2(cB) + 2^s2(cB - 1), and cB - 1 = (c - 1)B + B - 1
        yield ((1 << w) + (1 << ((c - 1).bit_count() + _ROW_SUM_BITS))
               if c else 1,)
        if w >= _ROW_SUM_WEIGHTS:
            yield map((1 << w).__mul__, tail)
        else:
            if w not in scaled:
                scaled[w] = [v << w for v in tail]
            yield scaled[w]


def _row_sum_terms(start: int):
    """The endless stream r(start), r(start+1), ...; start is checked at
    the call, not at the first term.

    The binary weight adds over blocks: s2(cB + m) = s2(c) + s2(m) for
    B = 2^_ROW_SUM_BITS and m < B.  So with n = 2j + e and j = cB + m,

        r(2j + 1) = 2^s2(c) * 2 * 2^s2(m),
        r(2j) = 2^s2(c) * (2^s2(m) + 2^s2(m - 1))   for m >= 1,

    and the 2B row sums of block c are those of block 0 times 2^s2(c),
    one C-level multiply per term, except for the block's first term
    r(2cB), which _row_sum_blocks computes on its own.
    """
    _require_index("start", start)
    weights = [1 << m.bit_count() for m in range(1 << _ROW_SUM_BITS)]
    evens = map(add, weights[1:], weights)  # r(2m), 0 < m < B
    odds = [w << 1 for w in weights]  # r(2m + 1), m < B
    tail = [odds[0], *chain.from_iterable(zip(evens, odds[1:]))]
    c, offset = divmod(start, 2 << _ROW_SUM_BITS)
    return islice(chain.from_iterable(_row_sum_blocks(c, tail)), offset, None)


def _pascal_row_sums(n):
    """r(n), r(n+1), ... summed across the parity rows as bitsets.

    By triangle_entry_parity's reduction, T(m, k) mod 2 is bit k of
    Pascal's row P_m (_pascal_bits) for k of m's parity and of P_(m-1)
    for the others.  So with h(m) the bit count of P_m at the k of m's
    parity, one AND with an alternating mask, r(m) = h(m) + h(m - 1),
    and h(-1) = 0: one masked bit count per row, each row read once.
    The masks cover twice the last row they were built for, so they are
    rebuilt each time the row index doubles."""
    width = 0  # the masks cover the bits below width
    last = 0  # h(m - 1)
    first = max(n - 1, 0)
    for m, bits in zip(count(first), _pascal_bits(first)):
        if m >= width:
            width = 2 * m + 2
            even = ((1 << width) - 1) // 3  # the bits 0, 2, ..., width - 2
            masks = (even, even << 1)
        h = (bits & masks[m & 1]).bit_count()
        if m >= n:
            yield h + last
        last = h


def _pascal_row_sum_terms(start: int):
    """The endless stream r(start), r(start+1), ... by Pascal's rule on
    bitsets (_pascal_row_sums); start is checked at the call, not at the
    first term.  It holds two rows of about start bits and two masks of
    twice that, about start bytes in all, so a start whose start bytes
    pass the machine's memory is a MemoryError at the call.  Its seed
    reads Lucas' subset test and its steps Pascal's rule mod 2, never the
    closed form, so it is a reference route for r's sweep, as
    row_sum_brute is for one index."""
    _require_index("start", start)
    _within_memory("Pascal row sweep", start, start)
    return _pascal_row_sums(start)


def _odd_diagonal(top):
    """How many C(top - k, k) are odd for 0 <= k <= top/2, as a count of
    zeros with no Python step per k.  By Kummer's theorem C(top - k, k)
    is odd iff adding k and top - 2k carries nowhere, that is iff
    k & (top - 2k) == 0, and top - 2k runs down top, top - 2, ..."""
    return countOf(map(and_, range(top // 2 + 1), range(top, -1, -2)), 0)


def diagonal_sum_brute(n: int) -> int:
    """d(n) summed along the diagonal of the parity triangle: n/2 + 1
    carry tests, streamed in O(1) memory.

    This is the slow reference route for the diagonal sums; the
    continuant and matrix-recurrence routes must agree with it.
    """
    _require_index("n", n)
    # (n - k) + k = n, so T(n - k, k) is C(top - k, k) mod 2 for every k
    return _odd_diagonal(n - n % 2)


def carlitz_sum(n: int) -> int:
    """Sum of C(n - k, k) mod 2 for k <= n/2, the parity diagonal of
    Pascal's triangle: n/2 + 1 carry tests, streamed in O(1) memory.

    By a result of Carlitz it equals s(n+1), Stern's sequence, so it is
    the reference route for kernel.stern's scan.
    """
    _require_index("n", n)
    return _odd_diagonal(n)


# _diagonal_bits reads Kummer's carry test as binary text this many
# bits at a time, so the text stays small beside the int it builds.
_SEED_BITS = 1 << 15

# bool bytes to binary digits: b"\0" is "0", b"\1" is "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _diagonal_bits(top):
    """The int D_top whose bit k is C(top - k, k) mod 2, 0 <= k <= top/2,
    by _odd_diagonal's carry test: each piece of _SEED_BITS tests, from
    the high k down, becomes the binary text of that piece and one
    int(text, 2), with no Python step per k.  D_(-1) is 0."""
    bits = 0
    for high in range(top // 2, -1, -_SEED_BITS):
        ks = range(high, max(high - _SEED_BITS, -1), -1)
        odd = map(not_, map(and_, ks, range(top - 2 * high, top + 1, 2)))
        bits = bits << len(ks) | int(bytes(odd).translate(_DIGITS), 2)
    return bits


def _diagonals(top):
    """D_top, D_(top+1), ... for top >= 0.  Pascal's rule C(t - k, k) =
    C(t - 1 - k, k) + C(t - 2 - (k - 1), k - 1) is, on the bitsets of
    _diagonal_bits,

        D_t = D_(t-1) ^ (D_(t-2) << 1),

    so past its two seeds, D_(top-1) and D_top, the stream takes one
    shift and one xor of ints of about t/2 bits per top t."""
    low, high = _diagonal_bits(top - 1), _diagonal_bits(top)
    while True:
        yield high
        low, high = high, high ^ (low << 1)


@_evens
def _diagonal_sums(j):
    """e(j) = d(2j), e(j+1), ...: D_top.bit_count() for the even tops
    from 2j (_diagonals)."""
    return map(int.bit_count, islice(_diagonals(2 * j), 0, None, 2))


def _memory_bytes():
    """The machine's physical memory in bytes, or sys.maxsize, the most
    one object can hold, where os.sysconf does not say (as on
    Windows)."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def _within_memory(sweep, start, need):
    """MemoryError, naming the sweep and its start, when the need bytes
    it holds pass the machine's memory."""
    if need > _memory_bytes():
        raise MemoryError(
            f"the {sweep} from {to_decimal(start)} holds about "
            f"{to_decimal(need)} bytes")


def _diagonal_sum_terms(start: int):
    """The endless stream d(start), d(start+1), ... summed along the
    diagonals of the parity triangle, by Pascal's rule on bitsets
    (_diagonal_sums); start is checked at the call, not at the first
    term.  It holds a few ints of about start/2 bits, about start/4
    bytes in all, so a start whose start/4 bytes pass the machine's
    memory is a MemoryError at the call, before any seed is read.  Its
    seeds read Kummer's carry test and its steps Pascal's rule mod 2,
    never the continuant or Stern's sequence, so it is a reference route
    for the d sweeps, as diagonal_sum_brute is for one index."""
    _require_index("start", start)
    _within_memory("brute sweep", start, start // 4)
    return _diagonal_sums(start)


def _carlitz_terms(start: int):
    """The endless stream s(start), s(start+1), ... of Stern's sequence,
    s(n) being the bit count of D_(n-1) (carlitz_sum) and s(0) = 0, by
    Pascal's rule on the diagonals' bitsets (_diagonals); start is
    checked at the call, not at the first term.  Like d's brute sweep it
    holds about start/4 bytes and refuses a start past memory at the
    call.  Its seeds read Kummer's carry test and its steps Pascal's rule
    mod 2, never Stern's bit scan, so it is a reference route for the
    Stern sweep, as carlitz_sum is for one index."""
    _require_index("start", start)
    _within_memory("Carlitz sweep", start, start // 4)
    sums = map(int.bit_count, _diagonals(max(start - 1, 0)))
    return sums if start else chain((0,), sums)


def _entry_at(index):
    """The (n, k) of linear index index: index 0 is T(0, 0), and row n
    occupies indices n(n+1)/2 .. n(n+1)/2 + n."""
    # largest n with n(n+1)/2 <= index; isqrt is exact, so no correction
    n = (isqrt(8 * index + 1) - 1) // 2
    return n, index - n * (n + 1) // 2


def _triangle_terms(start: int, mode: str):
    """The endless stream of triangle entries read by rows, from linear
    index start on (see _entry_at), the rows from the mode's rows
    function."""
    _require_index("start", start)
    rows = _row_fn(mode)
    return chain.from_iterable(rows(*_entry_at(start)))


def iter_triangle_terms(start: int, stop: int, mode: str = "exact"):
    """Iterator over triangle entries read by rows, for linear indices in
    range(start, stop).

    Bad arguments raise at the call.  This is _triangle_terms cut at
    stop: the first two exact rows cost O(n) big-int operations each,
    with a term at either end of the first row O(1), and each later row
    O(n) big-int additions; parity terms come a window of 4096 at a
    time, in O(1) memory at any n.
    """
    _require_index("start", start)
    _require_index("stop", stop)
    if stop < start:
        raise ValueError(f"stop must be >= start, got start={to_decimal(start)}, "
                         f"stop={to_decimal(stop)}")
    terms = _triangle_terms(start, mode)
    return (term for _index, term in zip(range(start, stop), terms))
