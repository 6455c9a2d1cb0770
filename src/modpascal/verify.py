"""Cross-checking suites for every identity the library relies on.

The suites are one table, _SUITES: each names its identities as rows
(name, indices, lhs, rhs), and whether "all" runs it.  indices(max_n)
gives the indices to scan, a sequence (a range, (0,), or the pairs of
_Pairs) that may be read more than once, and lhs and rhs are two
independently computed sides of the identity, each a value stream
values(indices) that yields the side's value at each index in turn.  A
per-index function enters as partial(map, fn), and an endless route of
bfile.ROUTES, such as the exact row stream or a sweep, enters as that
route started at the first index: `thm1` checks the per-index continuant
against three streams of d, each a sweep of e(j) = d(2j): the brute
route, Pascal's rule on the parity diagonals' bitsets, the recurrence
route, a tower of half-rate streams, and the matrix representation, a
block of 256 states at a time (regular._rep_terms); `eq3` reads d's
continuant route, a block of 256 values of e at a time, a stream per
row, against the Stern sweep.  Pascal's rule mod 2 on bitsets gives
three more sides: `thm2`'s brute force is r's brute route, the parity
rows' bits counted against the closed form, `carlitz`'s diagonal sums
are Stern's carlitz route, the parity diagonals' bits counted against
the per-index scan, and `glaisher` counts the bits of each Pascal row
against 2^s2(n).  Over the pairs (n, k), which start at (0, 0), a side
may also be rows built from row 0 on: `proposition` reads the parity
triangle stream, Lucas' reduction on bitsets a window of a row at a
time, against the exact row stream, `lucas` the subset test as the
bits of each row's _lucas(n) against the exact Pascal rows by Pascal's
rule, and `rows` the exact row stream, which builds rows by additions,
against both the defining sum and rows by the order-2 recurrence in k.
run_suite scans the rows of one suite, or of every suite "all" runs in
table order, each by _scan, which compares the two sides a block of
values at a time, and reports per-identity check counts plus the first
counterexample, if any.  A route that disagrees, the matrix
representation included, or a stream that ends before its indices do,
is reported as a counterexample in the report, never raised; the CLI
maps a failing report to its exit status.
"""

from collections import namedtuple
from functools import partial
from itertools import chain, count, islice, repeat, starmap
from operator import and_
from types import MappingProxyType

from . import regular, triangle
from .bfile import ROUTES
from .kernel import _require_int, diagonal_sum_fast as _d, stern, to_decimal

__all__ = [
    "Counterexample",
    "IdentityResult",
    "SUITE_CHOICES",
    "SUITE_NAMES",
    "VerifyReport",
    "run_suite",
]


class Counterexample(namedtuple("Counterexample", "index lhs rhs")):
    """The two sides of an identity that disagree at index, an int or a
    tuple like (n, k); a side is None where its stream had ended."""

    __slots__ = ()


class IdentityResult(namedtuple(
        "IdentityResult", "name checked counterexample", defaults=(None,))):
    """checked indices of one identity, and its first Counterexample or
    None."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None


class VerifyReport(namedtuple("VerifyReport", "suite max_n results")):
    """The IdentityResults of one suite, or of all, scanned to max_n."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        """The report as text; numbers of any length print in full."""
        out = [f"suite {self.suite} (max_n={to_decimal(self.max_n)})"]
        for r in self.results:
            if r.passed:
                out.append(f"  PASS {r.name}: {r.checked} checks")
            else:
                index, lhs, rhs = r.counterexample
                index = (f"({', '.join(map(to_decimal, index))})"
                         if isinstance(index, tuple) else to_decimal(index))
                lhs, rhs = ("(ended)" if v is None else to_decimal(v)
                            for v in (lhs, rhs))
                out.append(
                    f"  FAIL {r.name}: counterexample at {index}: "
                    f"lhs={lhs} rhs={rhs} ({r.checked} checks ran)"
                )
        status = "pass" if self.passed else "FAIL"
        out.append(f"  => {status}")
        return out


# _scan reads and compares each side this many values at a time.
_SCAN_BLOCK = 1024


def _scan(name, indices, lhs, rhs):
    """Compare the value streams lhs(indices) and rhs(indices) a block of
    _SCAN_BLOCK values at a time, with one list == per block; keep the
    first mismatch.  indices is a sequence (len and indexing).  Each
    side is read exactly as far as indices go, also past the first
    mismatch, so an endless route needs no cut.  Only a block that
    differs, or that a side fills short because it ended, is searched
    for its first position, reported as Counterexample(indices[pos],
    lhs, rhs) with None for a side that had ended there: a side that
    ends early is a mismatch at its first missing index, never a pass."""
    left, right = lhs(indices), rhs(indices)
    first = None
    # len() stops at sys.maxsize; a range (in steps of 1) is counted by
    # its ends, so any max_n scans for as long as it runs
    total = (indices.stop - indices.start if isinstance(indices, range)
             else indices.__len__())
    for start in range(0, total, _SCAN_BLOCK):
        size = min(_SCAN_BLOCK, total - start)
        a = list(islice(left, size))
        b = list(islice(right, size))
        if first is None and (a != b or len(a) < size):
            pos = next((pos for pos, (x, y) in enumerate(zip(a, b))
                        if x != y), min(len(a), len(b)))
            first = Counterexample(
                indices[start + pos],
                a[pos] if pos < len(a) else None,
                b[pos] if pos < len(b) else None)
    return IdentityResult(name, total, first)


def _route(terms, at=None, step=1):
    """The side read off an endless route terms(start): started at the
    first index i, or at at(i), and read at every step-th term, so it
    stands for consecutive indices."""
    def values(indices):
        first = next(iter(indices))
        return islice(terms(first if at is None else at(first)), 0, None, step)
    return values


def _upto(max_n):
    return range(max_n + 1)


def _past_2_64(max_n):
    return range(1 << 64, (1 << 64) + max_n + 1)


class _Pairs:
    """The pairs (n, k), 0 <= k <= n <= max_n, by rows: a sequence with
    len and indexing for _scan, iterated anew each time, so that both
    sides can read them too."""

    __slots__ = ("max_n",)

    def __init__(self, max_n):
        self.max_n = max_n

    def __len__(self):
        return (self.max_n + 1) * (self.max_n + 2) // 2

    def __getitem__(self, index):
        return triangle._entry_at(index)

    def __iter__(self):
        return chain.from_iterable(
            zip(repeat(n), range(n + 1)) for n in range(self.max_n + 1))


def _linear(nk):
    """The index of T(n, k) in the triangle read by rows."""
    n, k = nk
    return n * (n + 1) // 2 + k


# The exact triangle read by rows, as the A119326 b-file streams it: past
# its second row, each row by additions from the rows before it
# (triangle._exact_rows).
_exact_stream = _route(ROUTES["t-row"]["exact"], at=_linear)


def _parity_entry(index):
    """T(n, k) mod 2 by Lucas' reduction, at the linear index of (n, k)."""
    return triangle.triangle_entry_parity(*triangle._entry_at(index))


# s(2n+1) for consecutive n: every second term of the Stern sweep, a
# block of 256 terms from each row (s(c), s(c+1)), one kernel._sweep
# call like every block sweep (kernel._stern_terms)
_odd_stern = _route(ROUTES["stern"]["fast"], at=lambda n: 2 * n + 1, step=2)


class _Suite(namedtuple("_Suite", "rows in_all", defaults=(True,))):
    """The identities of one suite, each a row (name, indices, lhs, rhs),
    and whether "all" runs it."""

    __slots__ = ()


# suite -> its identities, each a row (name, indices, lhs, rhs) scanned by
# _scan over indices(max_n), and lhs and rhs each a value stream
# values(indices).  "all" runs the rows of every suite with in_all, in
# this order; the others run only by name.
_SUITES = MappingProxyType({
    "proposition": _Suite((
        # Lucas' reduction on the bitsets of the parity stream, a window
        # of a row at a time, against the exact row stream
        ("parity entry = exact entry mod 2", _Pairs,
         _route(ROUTES["t-row"]["parity"], at=_linear),
         lambda pairs: map(and_, _exact_stream(pairs), repeat(1))),
    )),
    "thm1": _Suite((
        # the brute force as Pascal's rule on the diagonals' bitsets
        ("continuant route = triangle brute force", _upto,
         partial(map, _d), _route(ROUTES["d"]["brute"])),
        # the scalar identities by a tower of half-rate streams
        ("continuant route = scalar recurrence", _upto,
         partial(map, _d), _route(ROUTES["d"]["recurrence"])),
        # the matrix representation, a block of 256 states at a time
        ("continuant route = matrix representation", _upto,
         partial(map, _d), _route(regular._rep_terms)),
    )),
    "thm2": _Suite((
        # the brute force as Pascal's rule on the parity rows' bitsets
        ("row sum closed form = brute force",
         lambda max_n: range(1, max_n + 1),
         partial(map, triangle.row_sum_closed), _route(ROUTES["r"]["brute"])),
        ("row sum at 0 is the single entry", lambda _max_n: (0,),
         partial(map, triangle.row_sum_closed),
         partial(map, lambda _n: 1)),
    )),
    "eq2": _Suite((
        ("d(2n) = d(2n+1)", _upto,
         partial(map, lambda n: _d(2 * n)),
         partial(map, lambda n: _d(2 * n + 1))),
    )),
    "eq3": _Suite((
        # d by its byte table in the kernel, a block of 256 d(2j) at a time
        ("d(2n) = s(2n+1)", _upto,
         _route(ROUTES["d"]["continuant"], at=lambda n: 2 * n, step=2),
         _odd_stern),
        ("d(2n+1) = s(2n+1)", _upto,
         _route(ROUTES["d"]["continuant"], at=lambda n: 2 * n + 1, step=2),
         _odd_stern),
    )),
    "carlitz": _Suite((
        # the bit count of D_n, by Pascal's rule on the diagonals'
        # bitsets: Stern's carlitz route, read from n + 1
        ("binomial-parity diagonal = s(n+1)", _upto,
         _route(ROUTES["stern"]["carlitz"], at=lambda n: n + 1),
         partial(map, lambda n: stern(n + 1))),
    )),
    "remark": _Suite((
        ("d(2n+1) = d(2n)", _upto,
         partial(map, lambda n: _d(2 * n + 1)),
         partial(map, lambda n: _d(2 * n))),
        ("d(4n+2) = 3 d(2n) - d(4n)", _upto,
         partial(map, lambda n: _d(4 * n + 2)),
         partial(map, lambda n: 3 * _d(2 * n) - _d(4 * n))),
        ("d(8n) = -d(2n) + 2 d(4n)", _upto,
         partial(map, lambda n: _d(8 * n)),
         partial(map, lambda n: -_d(2 * n) + 2 * _d(4 * n))),
        ("d(8n+4) = 4 d(2n) - d(4n)", _upto,
         partial(map, lambda n: _d(8 * n + 4)),
         partial(map, lambda n: 4 * _d(2 * n) - _d(4 * n))),
    )),
    "lucas": _Suite((
        # the subset test a row at a time, C(n, k) for k in range(n + 1)
        # as the bits of _lucas(n), against exact Pascal rows by Pascal's
        # rule, reduced mod 2; like the order-2 recurrence in rows below,
        # both read from row 0, where _Pairs starts
        ("bitwise binomial parity = exact binomial mod 2", _Pairs,
         lambda pairs: chain.from_iterable(map(
             triangle._entries, map(triangle._lucas, count(0)), count(1))),
         lambda pairs: map(and_, chain.from_iterable(triangle._pascal_rows()),
                           repeat(1))),
    )),
    "glaisher": _Suite((
        # the bit count of each row's bitset by Pascal's rule mod 2
        ("odd entries in Pascal row n = 2^popcount(n)", _upto,
         _route(lambda n: map(int.bit_count, triangle._pascal_bits(n))),
         partial(map, lambda n: 1 << n.bit_count())),
    )),
    "rows": _Suite((
        ("exact row stream = defining sum", _Pairs,
         _exact_stream, partial(starmap, triangle.triangle_entry)),
        ("exact row stream = order-2 recurrence in k", _Pairs,
         _exact_stream, lambda pairs: chain.from_iterable(
             map(triangle._exact_row, count(0), repeat(0)))),
    ), in_all=False),
    # each sweep of bfile.ROUTES against its per-index kernel, from 0 and
    # from 2^64, where the kernels read n a byte at a time and the parity
    # triangle is in row 6,074,000,999, of about 1.5 million windows
    "sweeps": _Suite(tuple(
        (f"{name} from {where}", indices, _route(stream), per_index)
        for name, stream, per_index in (
            *((f"{which} fast = {kernel}", ROUTES[which]["fast"],
               _route(ROUTES[which][kernel]))
              for which, kernel in (("d", "continuant"), ("r", "closed"),
                                    ("stern", "scan"))),
            ("t-row parity stream = Lucas per entry",
             ROUTES["t-row"]["parity"], partial(map, _parity_entry)))
        for where, indices in (("0", _upto), ("2^64", _past_2_64))
    ), in_all=False),
})

# "all" and the suites it runs, in order
SUITE_NAMES = ("all",) + tuple(key for key, suite in _SUITES.items()
                               if suite.in_all)
# every name run_suite takes: SUITE_NAMES, then the suites run only by name
SUITE_CHOICES = SUITE_NAMES + tuple(key for key, suite in _SUITES.items()
                                    if not suite.in_all)


def run_suite(suite: str, max_n: int) -> VerifyReport:
    """Run one named suite (or 'all') up to max_n and return its report."""
    _require_int("max_n", max_n)
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {to_decimal(max_n)}")
    if suite not in SUITE_CHOICES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {SUITE_CHOICES}")
    return VerifyReport(suite, max_n, tuple(
        _scan(name, indices(max_n), lhs, rhs)
        for key, (rows, in_all) in _SUITES.items()
        if key == suite or (suite == "all" and in_all)
        for name, indices, lhs, rhs in rows
    ))
