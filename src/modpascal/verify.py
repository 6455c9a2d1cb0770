"""Cross-checking suites for every identity the library relies on.

The suites are one table, _SUITES: each names its identities as rows
(name, indices, lhs, rhs), where indices(max_n) gives the indices to
scan and lhs and rhs are two independently computed sides of the
identity.  run_suite scans the rows of one suite, or of every suite in
table order for "all", and reports per-identity check counts plus the
first counterexample, if any.  A route that disagrees, the matrix
representation included, is reported as a counterexample in the
report, never raised; the CLI maps a failing report to its exit status.
"""

from collections import namedtuple
from itertools import repeat
from math import comb
from types import MappingProxyType

from . import regular, triangle
from .continuant import _require_int, to_decimal
from .continuant import diagonal_sum_fast as _d
from .stern import carlitz_sum, stern

__all__ = [
    "Counterexample",
    "IdentityResult",
    "SUITE_NAMES",
    "VerifyReport",
    "run_suite",
]


class Counterexample(namedtuple("Counterexample", "index lhs rhs")):
    """The two sides of an identity that disagree at index, an int or a
    tuple like (n, k)."""

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
                out.append(
                    f"  FAIL {r.name}: counterexample at {index}: "
                    f"lhs={to_decimal(lhs)} rhs={to_decimal(rhs)} "
                    f"({r.checked} checks ran)"
                )
        status = "pass" if self.passed else "FAIL"
        out.append(f"  => {status}")
        return out


def _scan(name, indices, lhs_fn, rhs_fn):
    """Compare lhs_fn and rhs_fn across indices; keep the first mismatch."""
    checked = 0
    first = None
    for i in indices:
        lhs = lhs_fn(i)
        rhs = rhs_fn(i)
        checked += 1
        if lhs != rhs and first is None:
            first = Counterexample(i, lhs, rhs)
    return IdentityResult(name, checked, first)


def _upto(max_n):
    return range(max_n + 1)


def _pairs_to(max_n):
    for n in range(max_n + 1):
        for k in range(n + 1):
            yield (n, k)


# suite -> its identities, each a row (name, indices, lhs, rhs) scanned by
# _scan over indices(max_n).  "all" runs every row in this order.
_SUITES = MappingProxyType({
    "proposition": (
        ("parity entry = exact entry mod 2", _pairs_to,
         lambda nk: triangle.triangle_entry_parity(*nk),
         lambda nk: triangle.triangle_entry(*nk) % 2),
    ),
    "thm1": (
        ("continuant route = triangle brute force", _upto,
         _d, triangle.diagonal_sum_brute),
        ("continuant route = scalar recurrence", _upto,
         _d, regular.diagonal_sum_recurrence),
        ("continuant route = matrix representation", _upto,
         _d, lambda n: regular.linear_rep_eval(regular._REP, n)),
    ),
    "thm2": (
        ("row sum closed form = brute force",
         lambda max_n: range(1, max_n + 1),
         triangle.row_sum_closed, triangle.row_sum_brute),
        ("row sum at 0 is the single entry", lambda _max_n: (0,),
         triangle.row_sum_closed, lambda _n: 1),
    ),
    "eq2": (
        ("d(2n) = d(2n+1)", _upto,
         lambda n: _d(2 * n), lambda n: _d(2 * n + 1)),
    ),
    "eq3": (
        ("d(2n) = s(2n+1)", _upto,
         lambda n: _d(2 * n), lambda n: stern(2 * n + 1)),
        ("d(2n+1) = s(2n+1)", _upto,
         lambda n: _d(2 * n + 1), lambda n: stern(2 * n + 1)),
    ),
    "carlitz": (
        ("binomial-parity diagonal = s(n+1)", _upto,
         carlitz_sum, lambda n: stern(n + 1)),
    ),
    "remark": (
        ("d(2n+1) = d(2n)", _upto,
         lambda n: _d(2 * n + 1), lambda n: _d(2 * n)),
        ("d(4n+2) = 3 d(2n) - d(4n)", _upto,
         lambda n: _d(4 * n + 2), lambda n: 3 * _d(2 * n) - _d(4 * n)),
        ("d(8n) = -d(2n) + 2 d(4n)", _upto,
         lambda n: _d(8 * n), lambda n: -_d(2 * n) + 2 * _d(4 * n)),
        ("d(8n+4) = 4 d(2n) - d(4n)", _upto,
         lambda n: _d(8 * n + 4), lambda n: 4 * _d(2 * n) - _d(4 * n)),
    ),
    "lucas": (
        ("bitwise binomial parity = exact binomial mod 2", _pairs_to,
         lambda nk: triangle.binom_parity(*nk),
         lambda nk: comb(*nk) % 2),
    ),
    "glaisher": (
        ("odd entries in Pascal row n = 2^popcount(n)", _upto,
         lambda n: sum(triangle._odd_binomials(repeat(n), range(n + 1))),
         lambda n: 1 << n.bit_count()),
    ),
})

SUITE_NAMES = ("all",) + tuple(_SUITES)


def run_suite(suite: str, max_n: int) -> VerifyReport:
    """Run one named suite (or 'all') up to max_n and return its report."""
    _require_int("max_n", max_n)
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {to_decimal(max_n)}")
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return VerifyReport(suite, max_n, tuple(
        _scan(name, indices(max_n), lhs, rhs)
        for key, rows in _SUITES.items() if suite in ("all", key)
        for name, indices, lhs, rhs in rows
    ))
