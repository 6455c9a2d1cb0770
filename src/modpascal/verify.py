"""Cross-checking suites for every identity the library relies on.

Each suite scans a range of indices, compares two independently computed
sides of an identity, and reports per-identity pass counts plus the
first counterexample, if any.  Failures are data in the report, never
exceptions; the CLI maps them to its exit status.
"""

from dataclasses import dataclass
from math import comb

from . import regular, triangle
from .continuant import _require_int, diagonal_sum_fast
from .stern import carlitz_sum, stern

__all__ = [
    "Counterexample",
    "IdentityResult",
    "SUITE_NAMES",
    "VerifyReport",
    "run_suite",
    "verify_regular_identities",
]


@dataclass(frozen=True)
class Counterexample:
    index: object  # int, or a tuple like (n, k)
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityResult:
    name: str
    checked: int
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    max_n: int
    results: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"suite {self.suite} (max_n={self.max_n})"]
        for r in self.results:
            if r.passed:
                out.append(f"  PASS {r.name}: {r.checked} checks")
            else:
                ce = r.counterexample
                out.append(
                    f"  FAIL {r.name}: counterexample at {ce.index}: "
                    f"lhs={ce.lhs} rhs={ce.rhs} ({r.checked} checks ran)"
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


def _pairs_to(max_n):
    for n in range(max_n + 1):
        for k in range(n + 1):
            yield (n, k)


def _suite_proposition(max_n):
    return [
        _scan(
            "parity entry = exact entry mod 2",
            _pairs_to(max_n),
            lambda nk: triangle.triangle_entry_parity(*nk),
            lambda nk: triangle.triangle_entry(*nk) % 2,
        )
    ]


def _suite_thm1(max_n):
    rep = regular.derive_linear_rep()
    rng = range(max_n + 1)
    return [
        _scan(
            "continuant route = triangle brute force",
            rng,
            diagonal_sum_fast,
            triangle.diagonal_sum_brute,
        ),
        _scan(
            "continuant route = scalar recurrence",
            rng,
            diagonal_sum_fast,
            regular.diagonal_sum_recurrence,
        ),
        _scan(
            "continuant route = matrix representation",
            rng,
            diagonal_sum_fast,
            lambda n: regular.linear_rep_eval(rep, n),
        ),
    ]


def _suite_thm2(max_n):
    results = [
        _scan(
            "row sum closed form = brute force",
            range(1, max_n + 1),
            triangle.row_sum_closed,
            triangle.row_sum_brute,
        ),
        _scan(
            "row sum at 0 is the single entry",
            (0,),
            triangle.row_sum_closed,
            lambda _n: 1,
        ),
    ]
    return results


def _suite_eq2(max_n):
    return [
        _scan(
            "d(2n) = d(2n+1)",
            range(max_n + 1),
            lambda n: diagonal_sum_fast(2 * n),
            lambda n: diagonal_sum_fast(2 * n + 1),
        )
    ]


def _suite_eq3(max_n):
    return [
        _scan(
            "d(2n) = s(2n+1)",
            range(max_n + 1),
            lambda n: diagonal_sum_fast(2 * n),
            lambda n: stern(2 * n + 1),
        ),
        _scan(
            "d(2n+1) = s(2n+1)",
            range(max_n + 1),
            lambda n: diagonal_sum_fast(2 * n + 1),
            lambda n: stern(2 * n + 1),
        ),
    ]


def _suite_carlitz(max_n):
    return [
        _scan(
            "binomial-parity diagonal = s(n+1)",
            range(max_n + 1),
            carlitz_sum,
            lambda n: stern(n + 1),
        )
    ]


def verify_regular_identities(max_n: int) -> VerifyReport:
    """Check the four 2-regular identities for d against the continuant
    route, for every parameter n up to max_n."""
    return run_suite("remark", max_n)


def _suite_remark(max_n):
    d = diagonal_sum_fast
    rng = range(max_n + 1)
    return [
        _scan("d(2n+1) = d(2n)", rng,
              lambda n: d(2 * n + 1), lambda n: d(2 * n)),
        _scan("d(4n+2) = 3 d(2n) - d(4n)", rng,
              lambda n: d(4 * n + 2), lambda n: 3 * d(2 * n) - d(4 * n)),
        _scan("d(8n) = -d(2n) + 2 d(4n)", rng,
              lambda n: d(8 * n), lambda n: -d(2 * n) + 2 * d(4 * n)),
        _scan("d(8n+4) = 4 d(2n) - d(4n)", rng,
              lambda n: d(8 * n + 4), lambda n: 4 * d(2 * n) - d(4 * n)),
    ]


def _suite_lucas(max_n):
    return [
        _scan(
            "bitwise binomial parity = exact binomial mod 2",
            _pairs_to(max_n),
            lambda nk: triangle.binom_parity(*nk),
            lambda nk: comb(*nk) % 2,
        )
    ]


def _suite_glaisher(max_n):
    return [
        _scan(
            "odd entries in Pascal row n = 2^popcount(n)",
            range(max_n + 1),
            lambda n: sum(triangle.binom_parity(n, k) for k in range(n + 1)),
            lambda n: 1 << n.bit_count(),
        )
    ]


_SUITES = {
    "proposition": _suite_proposition,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "eq2": _suite_eq2,
    "eq3": _suite_eq3,
    "carlitz": _suite_carlitz,
    "remark": _suite_remark,
    "lucas": _suite_lucas,
    "glaisher": _suite_glaisher,
}

SUITE_NAMES = ("all",) + tuple(_SUITES)


def run_suite(suite: str, max_n: int) -> VerifyReport:
    """Run one named suite (or 'all') up to max_n and return its report."""
    _require_int("max_n", max_n)
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if suite == "all":
        results = []
        for fn in _SUITES.values():
            results.extend(fn(max_n))
        return VerifyReport("all", max_n, tuple(results))
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return VerifyReport(suite, max_n, tuple(_SUITES[suite](max_n)))
