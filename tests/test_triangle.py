import os
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpascal import (
    TriangleRow,
    binom_parity,
    carlitz_sum,
    diagonal_sum_brute,
    diagonal_sum_fast,
    iter_triangle_terms,
    row_sum_brute,
    row_sum_closed,
    stern,
    triangle_entry,
    triangle_entry_parity,
    triangle_row,
    triangle_row_parity,
)
from modpascal import triangle
from modpascal.triangle import _exact_row, _parity_row, _pascal_rows
from oracles import EXACT_ROWS, PARITY_ROWS, diag_sum, row_sum, t_entry

# r(0..8) and d(0..16), keyed down from the first nine triangle rows.
R_STREAM = [1, 2, 3, 4, 4, 4, 6, 8, 6]
D_STREAM = [1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 5, 4, 4, 5]


def test_first_rows_exact():
    for n, row in enumerate(EXACT_ROWS):
        assert triangle_row(n).entries == tuple(row)


def test_first_rows_parity():
    for n, row in enumerate(PARITY_ROWS):
        assert triangle_row_parity(n).entries == tuple(row)


@pytest.mark.parametrize(
    "n, k, value",
    [(0, 0, 1), (4, 2, 2), (5, 2, 4), (6, 3, 10), (8, 4, 38), (8, 2, 16)],
)
def test_entry_fixtures(n, k, value):
    assert triangle_entry(n, k) == value


def test_entry_matches_defining_sum():
    for n in range(49):
        for k in range(n + 1):
            assert triangle_entry(n, k) == t_entry(n, k)


@settings(deadline=None)
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_entry_matches_defining_sum_to_300(nk):
    # the carried product's division is exact well past the grid above
    assert triangle_entry(*nk) == t_entry(*nk)


@pytest.mark.parametrize("n, ks", [
    # the fused step's divisor ((j+1)(j+2))^2 passes one 30-bit digit at
    # j = 180, so these rows take both kinds of step
    *((n, range(n + 1)) for n in range(359, 363)),
    *((n, range(0, n + 1, 7)) for n in (1000, 1001)),
    (4001, [2000]), (4000, [1999]),
])
def test_entry_matches_defining_sum_past_one_digit(n, ks):
    for k in ks:
        assert triangle_entry(n, k) == t_entry(n, k), k


def test_entry_row_symmetry():
    for n in range(257):
        entries = triangle_row(n).entries
        assert entries == entries[::-1]


@pytest.mark.parametrize("n, k", [(-1, 0), (0, -1), (2, 3)])
def test_entry_rejects_bad_pairs(n, k):
    with pytest.raises(ValueError):
        triangle_entry(n, k)
    with pytest.raises(ValueError):
        triangle_entry_parity(n, k)


def test_entry_rejects_a_huge_pair_in_its_own_words():
    # str() refuses 10**5000, past CPython's int/str digit limit.
    n = "1" + "0" * 5000
    with pytest.raises(ValueError,
                       match=f"^need 0 <= k <= n, got n={n}, k={n[:-1]}1$"):
        triangle_entry(10**5000, 10**5000 + 1)


def test_parity_entry_is_exact_mod_2():
    for n in range(97):
        for k in range(n + 1):
            assert triangle_entry_parity(n, k) == triangle_entry(n, k) % 2


def test_row_objects_carry_mode_and_length():
    exact = triangle_row(5)
    parity = triangle_row_parity(5)
    assert exact.mode == "exact" and parity.mode == "parity"
    assert exact.n == parity.n == 5
    assert len(exact.entries) == len(parity.entries) == 6


def test_row_validation():
    with pytest.raises(ValueError):
        TriangleRow(2, (1, 1), "exact")
    with pytest.raises(ValueError):
        TriangleRow(1, (1, 1), "lowercase")
    with pytest.raises(ValueError):
        TriangleRow(-1, (), "exact")


def test_binom_parity_matches_comb():
    for n in range(65):
        for k in range(n + 5):
            assert binom_parity(n, k) == comb(n, k) % 2
    with pytest.raises(ValueError):
        binom_parity(-1, 0)


def test_parity_row_matches_entries():
    # Every start k, so both phases of n + k begin a row.
    for n in range(301):
        row = [triangle_entry_parity(n, k) for k in range(n + 1)]
        assert {type(t) for t in _parity_row(n, 0)} == {int}
        for k in range(n + 1):
            assert list(_parity_row(n, k)) == row[k:]


def test_row_sum_brute_matches_reference():
    for n in range(301):
        assert row_sum_brute(n) == row_sum(n)


def test_row_sum_stream_fixture():
    assert [row_sum_closed(n) for n in range(9)] == R_STREAM


def test_row_sum_closed_matches_brute():
    assert row_sum_closed(0) == 1
    for n in range(1, 513):
        assert row_sum_closed(n) == row_sum_brute(n)


def test_row_sum_closed_large_arguments():
    n = 10**18  # even
    weight = bin(n).count("1")
    weight2 = bin(n - 2).count("1")
    assert row_sum_closed(n) == 2**weight + 2**weight2
    m = 10**18 + 1  # odd
    assert row_sum_closed(m) == 2 ** bin(m).count("1")


def test_disjoint_binary_expansions_give_odd_entries():
    # For n even or k even, the entry T(n+k, k), the binomial C(n+k, k),
    # and the test "n and k share no binary digit" all have the same
    # parity.  Both odd factors would break it: T(2, 1) is odd while
    # C(2, 1) is even.
    for n in range(257):
        for k in range(257):
            if n % 2 == 1 and k % 2 == 1:
                continue
            disjoint = 1 if n & k == 0 else 0
            assert triangle_entry_parity(n + k, k) == disjoint
            assert binom_parity(n + k, k) == disjoint


def test_consecutive_diagonal_sums_agree_brute_force():
    for n in range(4097):
        assert diagonal_sum_brute(2 * n) == diagonal_sum_brute(2 * n + 1)


def test_diagonal_sum_brute_matches_reference():
    for n in range(301):
        assert diagonal_sum_brute(n) == diag_sum(n)


def test_parity_diagonals_match_binomials_to_3000():
    # d(n) and carlitz_sum(n) count the odd C(top - k, k), k <= top/2,
    # for top = n - n % 2 and top = n.  Pascal's rule mod 2 gives the
    # parity of row a as the bits of one int; math.comb sums check it
    # where they are quick (to 3000 they take minutes).
    rows = [1]
    for _ in range(3000):
        rows.append(rows[-1] ^ rows[-1] << 1)
    odd = [sum(rows[top - k] >> k & 1 for k in range(top // 2 + 1))
           for top in range(3001)]
    for top in range(1001):
        assert odd[top] == sum(comb(top - k, k) % 2 for k in range(top // 2 + 1))
    for n in range(3001):
        assert diagonal_sum_brute(n) == odd[n - n % 2], n
        assert carlitz_sum(n) == odd[n], n


def test_parity_diagonals_at_a_million():
    n = 10**6
    assert diagonal_sum_brute(n) == diagonal_sum_fast(n)
    assert carlitz_sum(n) == stern(n + 1)


def test_diagonal_sum_brute_streams():
    tracemalloc.start()
    try:
        diagonal_sum_brute(2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_diagonal_bitset_sweep_matches_brute_from_every_start_to_300():
    # The sweep seeds D_(top-1) and D_top by the carry test and steps by
    # Pascal's rule; from each start, 40 terms cross 20 steps.
    for start in range(301):
        assert (list(islice(triangle._diagonal_sum_terms(start), 40))
                == [diagonal_sum_brute(n) for n in range(start, start + 40)]
                ), start


@pytest.mark.parametrize("start", [2**20 - 3, 2**20 - 2, 2**20 - 1, 2**20,
                                   2**20 + 1, 2**20 + 2])
def test_diagonal_bitset_sweep_matches_brute_near_2_20(start):
    # Seeds of 2^19 carry tests each, cut into several _SEED_BITS pieces.
    assert (list(islice(triangle._diagonal_sum_terms(start), 6))
            == [diagonal_sum_brute(n) for n in range(start, start + 6)])


def test_diagonal_bitset_sweep_memory():
    # At start 10^6 the sweep holds ints of about 5 * 10^5 bits and reads
    # its seeds in pieces: about start/4 bytes, well under 1 MB.
    tracemalloc.start()
    try:
        terms = list(islice(triangle._diagonal_sum_terms(10**6), 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert terms[0] == diagonal_sum_fast(10**6)


def test_diagonal_bitset_sweep_refuses_seeds_past_memory(monkeypatch):
    # The sweep holds about start/4 bytes: with 1000 bytes of memory,
    # start 4003 is within it and 4004 is a MemoryError at the call, and
    # so is the odd 4005, named as given, not as its even index 4004.
    monkeypatch.setattr(triangle, "_memory_bytes", lambda: 1000)
    assert next(triangle._diagonal_sum_terms(4003)) == diagonal_sum_fast(4003)
    with pytest.raises(MemoryError, match="^the brute sweep from 4004 holds "
                                          "about 1001 bytes$"):
        triangle._diagonal_sum_terms(4004)
    with pytest.raises(MemoryError, match="^the brute sweep from 4005 holds "
                                          "about 1001 bytes$"):
        triangle._diagonal_sum_terms(4005)


def test_bitset_sweeps_of_r_and_stern_refuse_starts_past_memory(monkeypatch):
    # r's sweep holds about start bytes, Stern's about start/4 (as d's):
    # with 1000 bytes of memory, 1000 and 4003 are within it, and 1001
    # and 4004 are a MemoryError at the call.
    monkeypatch.setattr(triangle, "_memory_bytes", lambda: 1000)
    assert next(triangle._pascal_row_sum_terms(1000)) == row_sum_closed(1000)
    assert next(triangle._carlitz_terms(4003)) == stern(4003)
    with pytest.raises(MemoryError, match="^the Pascal row sweep from 1001 "
                                          "holds about 1001 bytes$"):
        triangle._pascal_row_sum_terms(1001)
    with pytest.raises(MemoryError, match="^the Carlitz sweep from 4004 "
                                          "holds about 1001 bytes$"):
        triangle._carlitz_terms(4004)


@settings(deadline=None)
@given(st.integers(0, 2**14), st.integers(1, 40))
def test_pascal_bitsets_by_pascals_rule_follow_lucas(n, rows):
    assert (list(islice(triangle._pascal_bits(n), rows))
            == [triangle._lucas(m) for m in range(n, n + rows)])


def test_pascal_bitsets_hold_binomial_parity():
    for n, bits in zip(range(130), triangle._pascal_bits(0)):
        assert bits == sum((comb(n, k) % 2) << k for k in range(n + 1)), n


def test_diagonal_bitsets_hold_every_top():
    for top, bits in zip(range(260), triangle._diagonals(0)):
        assert bits.bit_count() == carlitz_sum(top), top
        assert bits == sum((comb(top - k, k) % 2) << k
                           for k in range(top // 2 + 1)), top


def test_exact_stream_refuses_a_first_term_past_memory(monkeypatch):
    # From linear index 2^64, entry k = 2,746,052,116 of row n =
    # 6,074,000,999, the pass would hold T and E for i <= k before its
    # first term: h^2 (2n // h).bit_length() / 16 bytes, h = k + 1.
    n, k = triangle._entry_at(2**64)
    h = k + 1
    need = h * h * (2 * n // h).bit_length() // 16
    assert (n, k, need > 10**18) == (6074000999, 2746052116, True)
    for start in (lambda: triangle._triangle_terms(2**64, "exact"),
                  lambda: iter_triangle_terms(2**64, 2**64 + 5)):
        with pytest.raises(MemoryError, match=(
                f"^exact row {n} to entry {k} holds about {need} bytes$")):
            start()
    # The ends of that row hold a few entries before their first term.
    first = n * (n + 1) // 2
    assert list(iter_triangle_terms(first, first + 3)) == [
        triangle_entry(n, i) for i in range(3)]
    assert list(iter_triangle_terms(first + n - 2, first + n + 1)) == [
        triangle_entry(n, i) for i in range(2, -1, -1)]
    # With 300 bytes of memory, row 100 is within it from entries 0 to 39
    # (h <= 40, 300 bytes) and from 61 to 100, and refused between.
    monkeypatch.setattr(triangle, "_memory_bytes", lambda: 300)
    for k in (39, 61):
        row = next(triangle._exact_rows(100, k))
        assert next(iter(row)) == triangle_entry(100, k)
    for k in (40, 60):
        with pytest.raises(MemoryError, match=(
                f"^exact row 100 to entry {k} holds about 315 bytes$")):
            triangle._exact_rows(100, k)


def test_machine_memory_is_a_positive_int(monkeypatch):
    memory = triangle._memory_bytes()
    assert type(memory) is int and memory > 0
    # Where os.sysconf is missing, as on Windows, no object passes it.
    monkeypatch.delattr(os, "sysconf", raising=False)
    assert triangle._memory_bytes() == sys.maxsize


def test_diagonal_sum_stream_fixture():
    assert [diagonal_sum_brute(n) for n in range(17)] == D_STREAM


def test_iter_triangle_terms_row_major():
    flat_exact = [t for n in range(15) for t in triangle_row(n).entries]
    flat_parity = [t for n in range(15) for t in triangle_row_parity(n).entries]
    total = len(flat_exact)
    assert list(iter_triangle_terms(0, total)) == flat_exact
    assert list(iter_triangle_terms(0, total, "parity")) == flat_parity
    # starting inside a row
    assert list(iter_triangle_terms(12, 21)) == flat_exact[12:21]
    assert list(iter_triangle_terms(37, 38)) == flat_exact[37:38]
    assert list(iter_triangle_terms(9, 9)) == []


def test_iter_triangle_terms_starts_in_the_right_row():
    # the row lookup does not depend on the mode; parity rows are cheap
    flat = [t for n in range(101) for t in triangle_row_parity(n).entries]
    for s in range(5001):
        assert list(iter_triangle_terms(s, s + 3, "parity")) == flat[s:s + 3]


def test_iter_triangle_terms_window_past_sys_maxsize():
    # The window is a bound on an endless stream, so its stop may be any
    # int: the first term comes at once, with no work done for the rest.
    assert next(iter(iter_triangle_terms(0, 10**30))) == 1
    assert next(iter(iter_triangle_terms(0, 10**30, "parity"))) == 1


def test_iter_triangle_terms_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(iter_triangle_terms(-1, 3))
    with pytest.raises(ValueError):
        list(iter_triangle_terms(5, 4))
    with pytest.raises(ValueError):
        list(iter_triangle_terms(0, 3, "binary"))
    with pytest.raises(ValueError):
        list(iter_triangle_terms(5, 5, "binary"))


def test_one_term_builds_no_row():
    # Index 10**11 lies in row 447,213: one term must cost one entry,
    # not a row of 447,214 of them.
    a = 10**11
    n = (isqrt(8 * a + 1) - 1) // 2
    k = a - n * (n + 1) // 2
    assert 0 <= k <= n
    tracemalloc.start()
    try:
        terms = list(iter_triangle_terms(a, a + 1, "parity"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == [triangle_entry_parity(n, k)]
    assert peak < 2**20


def _parity_by_entry(n, k, size):
    """size entries of the parity triangle read by rows from T(n, k),
    each by triangle_entry_parity."""
    want = []
    for _ in range(size):
        want.append(triangle_entry_parity(n, k))
        n, k = (n + 1, 0) if k == n else (n, k + 1)
    return want


_W = triangle._WINDOW


@pytest.mark.parametrize("n", [_W - 1, _W, _W + 1, 2 * _W])
def test_parity_stream_at_window_edges(n):
    # Starts at the edges of the first two windows and at the row's end,
    # read on through row n + 1 into row n + 2; every piece is one
    # window or less.
    for k in sorted({0, 1, _W - 1, _W, _W + 1, n - 1, n} & set(range(n + 1))):
        size = n + 1 - k + n + 2 + 2
        pieces = triangle._parity_rows(n, k)
        got = []
        while len(got) < size:
            piece = next(pieces)
            assert 0 < len(piece) <= _W
            got += piece
        assert got[:size] == _parity_by_entry(n, k, size), (n, k)


@settings(deadline=None, max_examples=60)
@given(n=st.one_of(st.integers(0, 4 * _W), st.integers(0, 2**70)),
       data=st.data())
def test_parity_stream_matches_entries_in_deep_rows(n, data):
    # 40 terms from a start near either end of a row, or anywhere in it
    k = data.draw(st.one_of(st.integers(0, min(n, 50)),
                            st.integers(max(n - 50, 0), n),
                            st.integers(0, n)), label="k")
    start = n * (n + 1) // 2 + k
    assert (list(islice(triangle._triangle_terms(start, "parity"), 40))
            == _parity_by_entry(n, k, 40))


def test_parity_terms_across_a_deep_row_end_hold_one_window():
    # The last three entries of row 6*10^9 and the first two of the next:
    # the stream holds one window, not a row of 6*10^9 bits.
    n = 6 * 10**9
    last = n * (n + 1) // 2 + n
    tracemalloc.start()
    try:
        terms = list(iter_triangle_terms(last - 2, last + 3, "parity"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == _parity_by_entry(n, n - 2, 5)
    assert peak < 2**20


@lru_cache(maxsize=None)
def _flat_rows(mode):
    row = triangle_row if mode == "exact" else triangle_row_parity
    return tuple(t for n in range(151) for t in row(n).entries)


@settings(deadline=None)
@given(st.sampled_from(["exact", "parity"]), st.data())
def test_iter_triangle_terms_matches_rows_in_windows(mode, data):
    # windows inside rows 0..150, up to a few rows long, so most cross
    # the end of a row (k = n) into the next
    flat = _flat_rows(mode)
    start = data.draw(st.integers(0, len(flat)), label="start")
    stop = data.draw(st.integers(start, min(len(flat), start + 400)), label="stop")
    assert tuple(iter_triangle_terms(start, stop, mode)) == flat[start:stop]


def _coefficients(n, k):
    # c0, c1, c2 of the recurrence c0 E(k) + c1 E(k-1) + c2 E(k-2) = 0
    return (
        k * (k - n - 1) * (2 * k - n - 3),
        -(2 * k - n - 2) * (6 * k * k - 6 * k * n - 12 * k + n * n + 5 * n + 4),
        (k - 1) * (k - n - 2) * (2 * k - n - 1),
    )


def _binomial(a, b):
    return comb(a, b) if 0 <= b <= a else 0


def _summand(n, k, j):
    # F(k, j) = (-1)^j C(k, j) C(n - k, j), whose sum over j is E(k)
    return (-1) ** j * _binomial(k, j) * _binomial(n - k, j)


def test_recurrence_certificate_telescopes():
    # The creative-telescoping proof in _exact_row's docstring, in
    # exact arithmetic: with f(j) = sum_i c_i F(k - i, j), the rational
    # certificate R gives G(j) = R(j) f(j), and G(j+1) - G(j) = f(j).  At
    # a pole of R, f(j) is 0 and G(j) is the pole-free binomial form.
    poles = 0
    for n in range(61):
        for k in range(2, n // 2 + 1):
            coeffs = _coefficients(n, k)
            f = [sum(c * _summand(n, k - i, j) for i, c in enumerate(coeffs))
                 for j in range(k + 3)]
            closed = [(-1) ** j * (2 * k - n - 1) * (2 * k - n - 2) * (2 * k - n - 3)
                      * _binomial(k - 1, j - 1) * _binomial(n - k + 1, j - 1)
                      for j in range(k + 3)]
            g = []
            for j in range(k + 3):
                den = 2 * j * j - j * n - 2 * j - k * k + k * n + 2 * k
                if den == 0:
                    poles += 1
                    assert f[j] == 0
                    g.append(closed[j])
                else:
                    g.append(Fraction(-j * j, den) * f[j])
            assert g == closed
            assert all(g[j + 1] - g[j] == f[j] for j in range(k + 2))
            # G vanishes at j = 0 and past j = k, so the sum of f is 0
            assert g[0] == g[k + 1] == 0 and f[k + 1] == 0
    assert poles > 0


def test_recurrence_holds_on_defining_sum():
    # E(k) = 2 T(n, k) - C(n, k) from the oracle: Vandermonde's
    # alternating sum, and the recurrence for 1 <= k <= n from E(-1) = 0
    for n in range(61):
        e = [2 * t_entry(n, k) - comb(n, k) for k in range(n + 1)]
        assert e == [sum(_summand(n, k, j) for j in range(k + 1)) for k in range(n + 1)]
        assert e[0] == 1 and (n == 0 or e[1] == 2 - n)
        for k in range(1, n + 1):
            c0, c1, c2 = _coefficients(n, k)
            e2 = e[k - 2] if k >= 2 else 0
            assert c0 * e[k] + c1 * e[k - 1] + c2 * e2 == 0, (n, k)


def test_exact_rows_match_defining_sum_to_300():
    for n in range(301):
        assert list(triangle_row(n).entries) == [t_entry(n, k) for k in range(n + 1)]


@settings(deadline=None)
@given(st.sampled_from(["exact", "parity"]), st.data())
def test_exact_windows_match_triangle_entry(mode, data):
    # windows inside rows 0..600 that start on either side of the middle
    # of a row and run up to 1500 terms, so they cross row ends
    n = data.draw(st.integers(0, 600), label="n")
    k = data.draw(st.one_of(st.integers(0, n // 2), st.integers(n // 2, n)), label="k")
    start = n * (n + 1) // 2 + k
    end = 601 * 602 // 2
    stop = data.draw(st.integers(start, min(end, start + 1500)), label="stop")
    want = []
    for _ in range(start, stop):
        t = triangle_entry(n, k)
        want.append(t % 2 if mode == "parity" else t)
        n, k = (n + 1, 0) if k == n else (n, k + 1)
    assert list(iter_triangle_terms(start, stop, mode)) == want


def test_one_exact_term_at_row_end_is_cheap():
    # The last entry of row 1500 needs T(1500, 0) only, not the row.
    last = 1500 * 1501 // 2 + 1500
    tracemalloc.start()
    try:
        terms = list(iter_triangle_terms(last, last + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == [triangle_entry(1500, 1500)]
    assert peak < 2**20


def test_split_rules_hold_on_defining_sum():
    # The split of the generating function, on the oracle's entries: with
    # E = 2T - C, both E and T follow their rules across rows.
    def e(n, k):
        return 2 * t_entry(n, k) - comb(n, k) if 0 <= k <= n else 0

    def t(n, k):
        return t_entry(n, k) if 0 <= k <= n else 0

    for n in range(2, 61):
        for k in range(n + 1):
            assert e(n, k) == e(n - 1, k - 1) + e(n - 1, k) - 2 * e(n - 2, k - 1)
            assert t(n, k) == t(n - 1, k - 1) + t(n - 1, k) - e(n - 2, k - 1)


def _recurrence_rows(n, k=0):
    """Row n from entry k, then every row after it, all by _exact_row."""
    yield from _exact_row(n, k)
    for m in count(n + 1):
        yield from _exact_row(m, 0)


def test_additions_stream_matches_recurrence_rows_to_300():
    size = 301 * 302 // 2
    assert (list(islice(triangle._triangle_terms(0, "exact"), size))
            == list(islice(_recurrence_rows(0), size)))


def test_additions_stream_from_every_start_to_row_40():
    # every start in rows 0..40, read on for three more rows
    want = list(islice(_recurrence_rows(0), 46 * 47 // 2))
    for start in range(41 * 42 // 2):
        got = list(islice(triangle._triangle_terms(start, "exact"), 4 * 44))
        assert got == want[start:start + 4 * 44], start


def test_additions_stream_across_rows_1499_to_1502():
    for n, k in [(1499, 0), (1499, 700), (1499, 1499), (1500, 0), (1500, 1500)]:
        start = n * (n + 1) // 2 + k
        got = islice(triangle._triangle_terms(start, "exact"), 2 * 1502)
        assert list(got) == list(islice(_recurrence_rows(n, k), 2 * 1502)), (n, k)


def test_pascal_rows_match_comb_to_300():
    for n, row in enumerate(islice(_pascal_rows(), 301)):
        assert row == [comb(n, k) for k in range(n + 1)]


def test_stream_cut_inside_its_first_row_never_seeds(monkeypatch):
    def seeds(m):
        raise AssertionError(f"seeded the additions at row {m}")

    monkeypatch.setattr(triangle, "_split", seeds)
    for n, k in [(0, 0), (7, 3), (1500, 0), (1500, 1499)]:
        start = n * (n + 1) // 2 + k
        got = list(iter_triangle_terms(start, start + n + 1 - k))
        assert got == list(_exact_row(n, k))
        with pytest.raises(AssertionError, match=f"row {n + 1}$"):
            list(iter_triangle_terms(start, start + n + 2 - k))
