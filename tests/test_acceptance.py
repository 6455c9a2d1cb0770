"""Acceptance gate: the eleven shipping criteria, one test each.

Each test prints a single "[criterion N] PASS/FAIL ..." line (visible
with pytest -s) and then asserts, so a red run names exactly which
contract broke.  Ranges and time limits are pinned here on purpose;
loosening them is a release decision, not a refactor.
"""

import random
from math import comb
from time import perf_counter

from modpascal import (
    binom_parity,
    carlitz_sum,
    continuant,
    derive_linear_rep,
    diagonal_sum_brute,
    diagonal_sum_fast,
    diagonal_sum_recurrence,
    linear_rep_eval,
    row_sum_brute,
    row_sum_closed,
    run_lengths,
    run_suite,
    stern,
    triangle_row,
    triangle_row_parity,
)
from modpascal.cli import main as cli_main
from oracles import EXACT_ROWS, PARITY_ROWS, fib


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_triangle_fixtures():
    start = perf_counter()
    exact_ok = all(
        triangle_row(n).entries == tuple(row)
        for n, row in enumerate(EXACT_ROWS)
    )
    parity_ok = all(
        triangle_row_parity(n).entries == tuple(row)
        for n, row in enumerate(PARITY_ROWS)
    )
    spot_ok = EXACT_ROWS[6][3] == 10 and EXACT_ROWS[8][4] == 38
    elapsed = perf_counter() - start
    _criterion(
        1,
        exact_ok and parity_ok and spot_ok and elapsed < 1.0,
        f"rows 0..8 exact and parity fixtures ({elapsed:.3f}s, limit 1s)",
    )


def test_criterion_02_parity_entries_match_exact_entries():
    start = perf_counter()
    pairs = 0
    mismatches = 0
    for n in range(257):
        row = triangle_row(n).entries
        parity = triangle_row_parity(n).entries
        pairs += n + 1
        mismatches += sum(
            1 for e, p in zip(row, parity) if p != e % 2
        )
    elapsed = perf_counter() - start
    _criterion(
        2,
        mismatches == 0 and pairs == 33153 and elapsed < 30.0,
        f"entry parity = exact entry mod 2 on {pairs} pairs "
        f"({mismatches} mismatches, {elapsed:.1f}s, limit 30s)",
    )


def test_criterion_03_diagonal_sum_routes_agree():
    start = perf_counter()
    brute_bad = sum(
        1
        for n in range(2**12 + 1)
        if diagonal_sum_fast(n) != diagonal_sum_brute(n)
    )
    rep = derive_linear_rep()
    triple_bad = sum(
        1
        for n in range(2**16 + 1)
        if not (
            diagonal_sum_fast(n)
            == diagonal_sum_recurrence(n)
            == linear_rep_eval(rep, n)
        )
    )
    elapsed = perf_counter() - start
    _criterion(
        3,
        brute_bad == 0 and triple_bad == 0 and elapsed < 60.0,
        f"continuant = brute force to 2^12 and = recurrence = matrix "
        f"rep to 2^16 ({brute_bad + triple_bad} mismatches, "
        f"{elapsed:.1f}s, limit 60s)",
    )


def test_criterion_04_consecutive_diagonal_sums_give_stern():
    bad = sum(
        1
        for n in range(2**15 + 1)
        if not (
            diagonal_sum_fast(2 * n)
            == diagonal_sum_fast(2 * n + 1)
            == stern(2 * n + 1)
        )
    )
    _criterion(
        4,
        bad == 0,
        f"d(2n) = d(2n+1) = s(2n+1) for n <= 2^15 ({bad} mismatches)",
    )


def test_criterion_05_row_sum_closed_form():
    bad = sum(
        1 for n in range(1, 4097) if row_sum_brute(n) != row_sum_closed(n)
    )
    zero_ok = row_sum_closed(0) == 1
    _criterion(
        5,
        bad == 0 and zero_ok,
        f"row sums brute = closed for 1 <= n <= 4096 and r(0) = 1 "
        f"({bad} mismatches)",
    )


def test_criterion_06_carlitz_sum_is_shifted_stern():
    bad = sum(1 for n in range(2**14 + 1) if carlitz_sum(n) != stern(n + 1))
    _criterion(
        6,
        bad == 0,
        f"binomial-parity diagonal sum = s(n+1) for n <= 2^14 "
        f"({bad} mismatches)",
    )


def test_criterion_07_regular_identities():
    report = run_suite("remark", 10**4)
    _criterion(
        7,
        report.passed and len(report.results) == 4,
        "four 2-regular identities for d hold to n = 10^4 "
        f"({sum(r.checked for r in report.results)} checks)",
    )


def test_criterion_08_binomial_parity():
    lucas_bad = sum(
        1
        for n in range(513)
        for k in range(n + 1)
        if binom_parity(n, k) != comb(n, k) % 2
    )
    glaisher_bad = sum(
        1
        for n in range(4097)
        if sum(binom_parity(n, k) for k in range(n + 1)) != 1 << n.bit_count()
    )
    _criterion(
        8,
        lucas_bad == 0 and glaisher_bad == 0,
        "bitwise binomial parity to n = 512 and odd-entry row counts "
        f"to n = 4096 ({lucas_bad + glaisher_bad} mismatches)",
    )


def test_criterion_09_continuant_identities():
    even_bad = sum(
        1
        for n in range(0, 2**20 + 1, 2)
        if continuant(run_lengths(n)) != continuant(run_lengths(n + 1))
    )
    rng = random.Random(1009)
    tail_bad = 0
    for _ in range(10**4):
        m = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        if continuant(m + [1]) != continuant(m[:-1] + [m[-1] + 1]):
            tail_bad += 1
        if m[-1] >= 2 and continuant(m) != continuant(
            m[:-1] + [m[-1] - 1, 1]
        ):
            tail_bad += 1
    fib_bad = sum(
        1 for k in range(301) if continuant((1,) * k) != fib(k + 1)
    )
    _criterion(
        9,
        even_bad == 0 and tail_bad == 0 and fib_bad == 0,
        "even-n continuant equality to 2^20, tail identities on 10^4 "
        "random sequences, all-ones continuants are Fibonacci "
        f"({even_bad + tail_bad + fib_bad} mismatches)",
    )


def test_criterion_10_fast_paths_are_fast():
    rng = random.Random(4242)
    n = rng.getrandbits(10**5 - 1) | 1 << (10**5 - 1)
    start = perf_counter()
    diagonal_sum_fast(n)
    d_elapsed = perf_counter() - start
    m = 10**18 + 4242
    r_elapsed = min(
        _timed(row_sum_closed, m) for _ in range(5)
    )
    _criterion(
        10,
        d_elapsed < 1.0 and r_elapsed < 0.001,
        f"d on a 10^5-bit n in {d_elapsed * 1000:.0f}ms (limit 1s); "
        f"closed row sum near 10^18 in {r_elapsed * 1000:.4f}ms "
        "(limit 1ms)",
    )


def _timed(fn, arg):
    start = perf_counter()
    fn(arg)
    return perf_counter() - start


def test_criterion_11_bfile_round_trip(tmp_path, capsys):
    failures = []
    for seq_id in ("A119326", "A114213", "A114212", "A114214"):
        path = tmp_path / f"b{seq_id[1:]}.txt"
        wrote = cli_main(["bfile", seq_id, "10000", str(path)])
        compared = cli_main(["bfile-compare", seq_id, str(path)])
        if wrote != 0 or compared != 0:
            failures.append(seq_id)
    capsys.readouterr()
    _criterion(
        11,
        not failures,
        "b-file write/compare round trip to index 10^4 for all four "
        f"sequence ids (failing: {failures or 'none'})",
    )
