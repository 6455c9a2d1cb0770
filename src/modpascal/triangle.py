"""Exact and mod-2 arithmetic for the modified Pascal triangle A119326.

The triangle, introduced by Paul Barry in the OEIS, is defined for
0 <= k <= n by

    T(n, k) = sum of C(k, j) * C(n - k, j) over even j,

with C(a, b) = 0 whenever b > a.  Reducing mod 2 gives the 0/1 triangle
A114213, whose row sums r(n) form A114212 and whose diagonal sums d(n)
form A114214.

The parity of T(n, k) never requires the defining sum: it collapses to
the parity of a single ordinary binomial coefficient (C(n, k) when n + k
is even, C(n - 1, k) otherwise), and binomial parity itself is a bitwise
subset test by Lucas' congruence.  That reduction is what makes the
parity row sums and diagonal sums tractable at large n; this module
keeps both routes so they can be checked against each other.

Everything here is a pure function of its arguments (no shared state),
safe to call from any number of threads.  Values are plain Python ints,
which are arbitrary precision; T(n, k) grows roughly like 3^n along the
middle of a row, so fixed-width types are not an option.
"""

from dataclasses import dataclass
from math import isqrt
from types import MappingProxyType

from .continuant import _require_index

__all__ = [
    "TriangleRow",
    "binom_parity",
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
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")


@dataclass(frozen=True)
class TriangleRow:
    """One row of the triangle: entries[k] = T(n, k), exact or mod 2."""

    n: int
    entries: tuple[int, ...]
    mode: str  # "exact" | "parity"

    def __post_init__(self):
        _entry_fn(self.mode)
        if len(self.entries) != self.n + 1:
            raise ValueError(
                f"row {self.n} must have {self.n + 1} entries, got {len(self.entries)}"
            )


def triangle_entry(n: int, k: int) -> int:
    """Exact T(n, k) by the defining sum over even j.

    One product p = C(k, j) * C(n - k, j) is carried along the sum; each
    division is exact, as p_(j-1) * (k-j+1) * (n-k-j+1) = j^2 * p_j.  Cost
    is O(min(k, n - k)) small-int steps, so a stream of entries
    (iter_triangle_terms) computes only those it yields, at O(1) memory
    per term.
    """
    _require_pair(n, k)
    m = n - k
    p = total = 1  # p = C(k, j) * C(m, j), starting at j = 0
    for j in range(1, min(k, m) + 1):
        p = p * ((k - j + 1) * (m - j + 1)) // (j * j)
        if j % 2 == 0:
            total += p
    return total


def binom_parity(n: int, k: int) -> int:
    """C(n, k) mod 2 as a bitwise subset test (Lucas' congruence).

    C(n, k) is odd exactly when every binary digit of k is at most the
    corresponding digit of n.  k > n is allowed and gives 0, matching
    C(n, k) = 0.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got n={n}, k={k}")
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


# Each mode of the triangle and its entry function, named only here.
_ENTRIES = MappingProxyType({"exact": triangle_entry, "parity": triangle_entry_parity})


def _entry_fn(mode: str):
    if mode not in _ENTRIES:
        raise ValueError(f"mode must be 'exact' or 'parity', got {mode!r}")
    return _ENTRIES[mode]


def triangle_row(n: int) -> TriangleRow:
    """Exact row n, computed entry by entry from the defining sum."""
    _require_index("n", n)
    return TriangleRow(n, tuple(triangle_entry(n, k) for k in range(n + 1)), "exact")


def triangle_row_parity(n: int) -> TriangleRow:
    """Mod-2 row n via the binomial-parity reduction."""
    _require_index("n", n)
    return TriangleRow(
        n, tuple(triangle_entry_parity(n, k) for k in range(n + 1)), "parity"
    )


def row_sum_brute(n: int) -> int:
    """r(n) summed entry by entry across the parity row; O(n)."""
    _require_index("n", n)
    return sum(triangle_entry_parity(n, k) for k in range(n + 1))


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


def diagonal_sum_brute(n: int) -> int:
    """d(n) summed along the diagonal of the parity triangle; O(n).

    This is the slow reference route for the diagonal sums; the
    continuant and matrix-recurrence routes must agree with it.
    """
    _require_index("n", n)
    return sum(triangle_entry_parity(n - k, k) for k in range(n // 2 + 1))


def iter_triangle_terms(start: int, stop: int, mode: str = "exact"):
    """Yield triangle entries read by rows, for linear indices in
    range(start, stop).

    Index 0 is T(0, 0); row n occupies indices n(n+1)/2 .. n(n+1)/2 + n.
    Each term is one entry call and no row is built: the stream computes
    only the entries it yields, at O(1) memory per term.
    """
    _require_index("start", start)
    _require_index("stop", stop)
    if stop < start:
        raise ValueError(f"stop must be >= start, got start={start}, stop={stop}")
    entry = _entry_fn(mode)
    # largest n with n(n+1)/2 <= start; isqrt is exact, so no correction
    n = (isqrt(8 * start + 1) - 1) // 2
    k = start - n * (n + 1) // 2
    for _ in range(start, stop):
        yield entry(n, k)
        k += 1
        if k > n:
            n, k = n + 1, 0
