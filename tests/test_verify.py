from collections import Counter
from functools import partial
from itertools import chain, count, islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpascal import kernel, regular, run_suite, stern, triangle, verify
from modpascal.cli import main
from modpascal.verify import (
    Counterexample,
    IdentityResult,
    SUITE_CHOICES,
    SUITE_NAMES,
    VerifyReport,
    _route,
    _scan,
)
from oracles import scan as scan_per_index

# `modpascal verify all --max-n 24` in full: a change to any label, count
# or line of the report fails here, not only in the benchmark's digest.
ALL_24 = """\
suite all (max_n=24)
  PASS parity entry = exact entry mod 2: 325 checks
  PASS continuant route = triangle brute force: 25 checks
  PASS continuant route = scalar recurrence: 25 checks
  PASS continuant route = matrix representation: 25 checks
  PASS row sum closed form = brute force: 24 checks
  PASS row sum at 0 is the single entry: 1 checks
  PASS d(2n) = d(2n+1): 25 checks
  PASS d(2n) = s(2n+1): 25 checks
  PASS d(2n+1) = s(2n+1): 25 checks
  PASS binomial-parity diagonal = s(n+1): 25 checks
  PASS d(2n+1) = d(2n): 25 checks
  PASS d(4n+2) = 3 d(2n) - d(4n): 25 checks
  PASS d(8n) = -d(2n) + 2 d(4n): 25 checks
  PASS d(8n+4) = 4 d(2n) - d(4n): 25 checks
  PASS bitwise binomial parity = exact binomial mod 2: 325 checks
  PASS odd entries in Pascal row n = 2^popcount(n): 25 checks
  => pass
"""


@pytest.mark.parametrize("suite", [s for s in SUITE_CHOICES if s != "all"])
def test_every_suite_passes_at_small_range(suite):
    report = run_suite(suite, 32)
    assert report.suite == suite
    assert report.max_n == 32
    assert report.passed
    assert all(r.checked > 0 for r in report.results)


def test_all_suite_concatenates_everything():
    report = run_suite("all", 24)
    assert report.passed
    assert len(report.results) == 16
    alone = [r for s in SUITE_NAMES[1:] for r in run_suite(s, 24).results]
    assert report.results == tuple(alone)
    # rows and sweeps run only by name, so "all" keeps its text
    assert SUITE_CHOICES == SUITE_NAMES + ("rows", "sweeps")
    assert not {"rows", "sweeps"} & set(SUITE_NAMES)


def test_verify_all_text_is_pinned(capsys):
    assert main(["verify", "all", "--max-n", "24"]) == 0
    assert capsys.readouterr().out == ALL_24


def test_rows_and_sweeps_reports():
    rows = run_suite("rows", 40)
    assert rows.lines() == [
        "suite rows (max_n=40)",
        "  PASS exact row stream = defining sum: 861 checks",
        "  PASS exact row stream = order-2 recurrence in k: 861 checks",
        "  => pass",
    ]
    sweeps = run_suite("sweeps", 40)
    assert sweeps.passed
    assert [(r.name, r.checked) for r in sweeps.results] == [
        (f"{name} from {where}", 41)
        for name in ("d fast = continuant", "r fast = closed",
                     "stern fast = scan",
                     "t-row parity stream = Lucas per entry")
        for where in ("0", "2^64")
    ]


def test_sweeps_catch_a_corrupt_parity_stream(monkeypatch):
    # T(6, 3) (linear index 24) flipped in the parity stream: the sweeps
    # row from 0 names that index, the one from 2^64 still passes.
    def rows(n, k):
        terms = chain.from_iterable(triangle._parity_rows(n, k))
        yield (t ^ (i == 24) for i, t in enumerate(terms, n * (n + 1) // 2 + k))

    monkeypatch.setattr(triangle, "_ROWS", {**triangle._ROWS, "parity": rows})
    results = {r.name: r for r in run_suite("sweeps", 40).results}
    flipped = results["t-row parity stream = Lucas per entry from 0"]
    parity = triangle.triangle_entry_parity(6, 3)
    assert flipped.counterexample == (24, 1 - parity, parity)
    assert results["t-row parity stream = Lucas per entry from 2^64"].passed


def _exact_rows_off_by_one_at(n0, k0):
    """triangle._ROWS with T(n0, k0) one too large in the exact rows that
    the exact stream reads, whichever route builds row n0."""
    def rows(n, k):
        for m, row in enumerate(triangle._exact_rows(n, k), n):
            yield [t + (m == n0 and i == k0)
                   for i, t in enumerate(row, k if m == n else 0)]
    return {**triangle._ROWS, "exact": rows}


def test_corrupt_exact_entry_fails_at_its_pair(monkeypatch, capsys):
    monkeypatch.setattr(triangle, "_ROWS", _exact_rows_off_by_one_at(200, 77))
    result, = run_suite("proposition", 250).results
    parity = triangle.triangle_entry_parity(200, 77)
    assert result == IdentityResult(
        "parity entry = exact entry mod 2", 31626,
        Counterexample((200, 77), parity, 1 - parity))
    assert main(["verify", "rows", "--max-n", "210"]) == 1
    out, err = capsys.readouterr()
    entry = triangle.triangle_entry(200, 77)
    for rhs in ("defining sum", "order-2 recurrence in k"):
        assert (f"  FAIL exact row stream = {rhs}: counterexample at "
                f"(200, 77): lhs={entry + 1} rhs={entry} (22366 checks ran)"
                in out.splitlines())
    assert err == ""


def test_stream_that_stops_early_is_a_fail(monkeypatch, capsys):
    (name, indices, lhs, rhs), = verify._SUITES["proposition"].rows
    short = (name, indices, lhs, lambda pairs: islice(rhs(pairs), 100))
    monkeypatch.setattr(verify, "_SUITES", {
        **verify._SUITES,
        "proposition": verify._Suite((short,)),
    })
    fail = ("  FAIL parity entry = exact entry mod 2: counterexample at "
            "(13, 9): lhs=1 rhs=(ended) (325 checks ran)")
    assert run_suite("proposition", 24).lines()[1] == fail
    assert main(["verify", "all", "--max-n", "24"]) == 1
    out, err = capsys.readouterr()
    assert fail in out.splitlines()
    assert err == ""


def test_suite_validation():
    with pytest.raises(ValueError):
        run_suite("thm3", 10)
    with pytest.raises(ValueError):
        run_suite("thm1", 0)


def test_suite_rejects_a_huge_negative_max_n_in_its_own_words():
    # str() refuses -10**5000, past CPython's int/str digit limit.
    with pytest.raises(ValueError,
                       match=f"^max_n must be >= 1, got -1{'0' * 5000}$"):
        run_suite("thm1", -10**5000)


def test_regular_identity_audit_report_shape():
    report = run_suite("remark", 100)
    assert report.suite == "remark"
    assert report.passed
    assert len(report.results) == 4
    assert all(r.checked == 101 for r in report.results)
    with pytest.raises(ValueError):
        run_suite("remark", 0)


def test_disagreeing_matrix_route_is_a_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(regular, "_rep_scan",
                        lambda rep: lambda bits, x, y: (0, 0))
    fail = ("  FAIL continuant route = matrix representation: "
            "counterexample at 0: lhs=1 rhs=0 (9 checks ran)")
    report = run_suite("thm1", 8)
    assert not report.passed
    assert [line for line in report.lines() if "FAIL " in line] == [fail]
    assert main(["verify", "thm1", "--max-n", "8"]) == 1
    out, err = capsys.readouterr()
    assert fail in out.splitlines()
    assert err == ""


THM1_2500 = """\
suite thm1 (max_n=2500)
  PASS continuant route = triangle brute force: 2501 checks
  PASS continuant route = scalar recurrence: 2501 checks
  PASS continuant route = matrix representation: 2501 checks
  => pass
"""


def test_thm1_text_is_pinned(capsys):
    assert main(["verify", "thm1", "--max-n", "2500"]) == 0
    assert capsys.readouterr().out == THM1_2500


def test_recurrence_side_is_the_tower_from_base(monkeypatch, capsys):
    # thm1's recurrence side is d's recurrence route, whose tower reads
    # only d(0) from _BASE from index 0 on: doubling it doubles every
    # value the side gives.
    monkeypatch.setattr(regular, "_BASE", {0: 2, 2: 4, 4: 6})
    fail = ("  FAIL continuant route = scalar recurrence: "
            "counterexample at 0: lhs=1 rhs=2 (9 checks ran)")
    report = run_suite("thm1", 8)
    assert [line for line in report.lines() if "FAIL " in line] == [fail]
    assert main(["verify", "thm1", "--max-n", "8"]) == 1
    assert fail in capsys.readouterr().out.splitlines()


def test_thm1_reference_sides_are_sweeps(monkeypatch):
    # The recurrence side seeds each level of its tower by one _pair,
    # about log2(1251) levels for e(0..1250), and the matrix side runs
    # one block per 512 indices, not one evaluation per index, from one
    # bit scan of its rows for all 1251 states.  The per-index side of
    # each of the three identities scans d's bits once an index.
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            if name == "_bits_product" and args[2] is not kernel._d_scan:
                calls["rep rows"] += 1
            return fn(*args, **kwargs)
        return call

    for module, name in ((regular, "_pair"), (regular, "linear_rep_eval"),
                         (kernel, "_bits_product"), (kernel, "_values")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert run_suite("thm1", 2500).passed
    assert 0 < calls["_pair"] <= (1250).bit_length() + 2
    assert calls["_values"] == 5
    assert calls["rep rows"] == 1
    assert calls["_bits_product"] == 3 * 2501 + 1
    assert calls["linear_rep_eval"] == 0


def test_eq3_builds_each_row_once_over_e(monkeypatch):
    # Each eq3 row reads d(0..80001) from d's continuant route, which
    # sweeps e(j) = d(2j) for j <= 40000: 157 blocks of 256 per row, all
    # of h = 0, so one scan of their rows.  A sweep that built d itself,
    # each value twice, would make 313.  Each row's Stern side, s(1..80001),
    # spans h = 0 and 1: two scans.
    d_columns = []  # the columns of d's continuant route, built per row
    calls = Counter()
    sweep, columns_of, bits_product, values = (
        kernel._sweep, kernel._columns, kernel._bits_product, kernel._values)
    sweep_scans = []  # the scan of each sweep, as it builds its columns

    def spied_sweep(j, row, scan, **flags):
        sweep_scans.append(scan)
        return sweep(j, row, scan, **flags)

    def spied_columns(a, c):
        columns = columns_of(a, c)
        if sweep_scans[-1] is kernel._d_scan:
            d_columns.append(columns)
        return columns

    def counted_scan(row, n, scan, **kwargs):
        calls[scan.__name__] += 1
        return bits_product(row, n, scan, **kwargs)

    def counted_values(x, y, columns):
        mine = any(columns is built for built in d_columns)
        calls["d blocks" if mine else "Stern blocks"] += 1
        return values(x, y, columns)

    monkeypatch.setattr(kernel, "_sweep", spied_sweep)
    monkeypatch.setattr(kernel, "_columns", spied_columns)
    monkeypatch.setattr(kernel, "_bits_product", counted_scan)
    monkeypatch.setattr(kernel, "_values", counted_values)
    assert run_suite("eq3", 40000).passed
    assert calls == {"_d_scan": 2, "d blocks": 2 * 157,
                     "_stern_scan": 4, "Stern blocks": 2 * 313}


def test_passing_report_rendering():
    report = run_suite("eq2", 16)
    lines = report.lines()
    assert lines[0] == "suite eq2 (max_n=16)"
    assert any(line.startswith("  PASS ") and "17 checks" in line
               for line in lines)
    assert lines[-1] == "  => pass"


def test_failing_report_rendering():
    failing = IdentityResult("lhs = rhs", 9, Counterexample(5, 3, 4))
    passing = IdentityResult("other", 9, None)
    report = VerifyReport("demo", 8, (passing, failing))
    assert not report.passed
    assert not failing.passed and passing.passed
    lines = report.lines()
    assert "  FAIL lhs = rhs: counterexample at 5: lhs=3 rhs=4 (9 checks ran)" in lines
    assert lines[-1] == "  => FAIL"


def test_failing_report_renders_numbers_past_the_digit_limit():
    # 5001 digits is past CPython's default int/str limit of 4300.
    big, text = 10**5000, "1" + "0" * 5000
    report = VerifyReport(
        "demo", 8, (IdentityResult("x", 1, Counterexample(5, big, 0)),))
    assert report.lines()[1] == (
        f"  FAIL x: counterexample at 5: lhs={text} rhs=0 (1 checks ran)")
    report = VerifyReport("demo", big, (
        IdentityResult("x", 1, Counterexample((big, 3), -big, 1)),
        IdentityResult("y", 2, Counterexample((3, 2), 1, 0))))
    assert report.lines()[:3] == [
        f"suite demo (max_n={text})",
        f"  FAIL x: counterexample at ({text}, 3): lhs=-{text} rhs=1 "
        "(1 checks ran)",
        "  FAIL y: counterexample at (3, 2): lhs=1 rhs=0 (2 checks ran)",
    ]


def test_scan_keeps_first_counterexample_and_keeps_counting():
    cubes = _route(lambda start: (n**3 for n in count(start)))
    for rhs in (partial(map, lambda n: n**3), cubes):
        result = _scan("squares = cubes", range(5),
                       partial(map, lambda n: n * n), rhs)
        assert result.checked == 5
        assert result.counterexample == Counterexample(2, 4, 8)
    # an endless route is read only as far as the indices go
    assert _scan("cubes", range(10**6, 10**6 + 3), cubes,
                 partial(map, lambda n: n**3)) == IdentityResult("cubes", 3)


def test_scan_fails_a_side_that_ends_early():
    squares = partial(map, lambda n: n * n)
    three = lambda ns: islice(squares(ns), 3)
    empty = lambda ns: iter(())
    for lhs, rhs, counterexample in [
        (three, squares, Counterexample(3, None, 9)),
        (squares, empty, Counterexample(0, 0, None)),
        (empty, empty, Counterexample(0, None, None)),
    ]:
        result = _scan("short", range(5), lhs, rhs)
        assert result == IdentityResult("short", 5, counterexample)


# _scan's block size, and the positions around its block edges
BLOCK = verify._SCAN_BLOCK
EDGES = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK)
_POSITIONS = st.one_of(st.sampled_from((0,) + EDGES),
                       st.integers(0, 3 * BLOCK))


@st.composite
def _index_sequences(draw):
    """A range, a tuple or the pairs of _Pairs, of 0 to about 3 blocks."""
    kind = draw(st.sampled_from(["range", "tuple", "pairs"]))
    if kind == "pairs":
        return verify._Pairs(draw(st.integers(0, isqrt(6 * BLOCK))))
    start = draw(st.sampled_from([0, 7, 2**64]))
    indices = range(start, start + draw(_POSITIONS))
    return indices if kind == "range" else tuple(indices)


def _side(end, wrong, reads, key):
    """The value stream 0, 1, 2, ... with -1 at the positions in wrong,
    ended after end values (endless if None), counting in reads[key] the
    values read from it."""
    def values(_indices):
        for pos in count() if end is None else range(end):
            reads[key] += 1
            yield -1 if pos in wrong else pos
    return values


@settings(deadline=None, max_examples=300)
@given(indices=_index_sequences(),
       ends=st.tuples(st.none() | _POSITIONS, st.none() | _POSITIONS),
       wrong=st.tuples(st.sets(_POSITIONS, max_size=3),
                       st.sets(_POSITIONS, max_size=3)))
def test_block_scan_is_the_per_index_scan(indices, ends, wrong):
    # Mismatches and early ends anywhere and at the block edges, on either
    # side or both, over every kind of index sequence _SUITES uses: the
    # same result as the per-index scan, and each side read exactly as far
    # as the indices go, or to its end.
    reads = Counter()
    sides = [_side(end, bad, reads, (how, which))
             for how in ("blocks", "per index")
             for which, (end, bad) in enumerate(zip(ends, wrong))]
    got = _scan("x", indices, sides[0], sides[1])
    assert got == scan_per_index("x", indices, sides[2], sides[3])
    for which, end in enumerate(ends):
        want = len(indices) if end is None else min(end, len(indices))
        assert reads["blocks", which] == reads["per index", which] == want


def test_pairs_is_a_sequence_of_its_pairs():
    for max_n in range(61):
        pairs = verify._Pairs(max_n)
        listed = list(pairs)
        assert len(pairs) == len(listed) == (max_n + 1) * (max_n + 2) // 2
        assert [pairs[i] for i in range(len(pairs))] == listed
        assert list(pairs) == listed  # iterated anew


@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK])
def test_proposition_names_a_corrupt_entry_at_a_block_edge(monkeypatch, at):
    n, k = triangle._entry_at(at)
    monkeypatch.setattr(triangle, "_ROWS", _exact_rows_off_by_one_at(n, k))
    result, = run_suite("proposition", 250).results
    parity = triangle.triangle_entry_parity(n, k)
    assert result == IdentityResult(
        "parity entry = exact entry mod 2", 31626,
        Counterexample((n, k), parity, 1 - parity))


@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK])
def test_lucas_names_a_flipped_pascal_entry_at_a_block_edge(monkeypatch, at):
    n, k = triangle._entry_at(at)
    pascal_rows = triangle._pascal_rows

    def flipped():
        for m, row in enumerate(pascal_rows()):
            yield [c + (m == n and i == k) for i, c in enumerate(row)]

    monkeypatch.setattr(triangle, "_pascal_rows", flipped)
    result, = run_suite("lucas", 250).results
    parity = triangle.binom_parity(n, k)
    assert result == IdentityResult(
        "bitwise binomial parity = exact binomial mod 2", 31626,
        Counterexample((n, k), parity, 1 - parity))


def _flip_bit(bitsets, at, k):
    """The stream bitsets(first), with bit k of the one at index at
    flipped: its state, which the next index steps from, unchanged."""
    def flipped(first):
        for index, bits in enumerate(bitsets(first), first):
            yield bits ^ ((index == at) << k)
    return flipped


@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK])
def test_lucas_names_a_flipped_subset_bit_at_a_block_edge(monkeypatch, at):
    n, k = triangle._entry_at(at)
    lucas = triangle._lucas
    monkeypatch.setattr(triangle, "_lucas",
                        lambda m: lucas(m) ^ ((m == n) << k))
    result, = run_suite("lucas", 250).results
    parity = triangle.binom_parity(n, k)
    assert result == IdentityResult(
        "bitwise binomial parity = exact binomial mod 2", 31626,
        Counterexample((n, k), 1 - parity, parity))


@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK])
def test_proposition_names_a_flipped_parity_entry_at_a_block_edge(
        monkeypatch, at):
    n, k = triangle._entry_at(at)

    def rows(m, i):
        terms = chain.from_iterable(triangle._parity_rows(m, i))
        first = m * (m + 1) // 2 + i
        yield (t ^ (j == at) for j, t in enumerate(terms, first))

    monkeypatch.setattr(triangle, "_ROWS", {**triangle._ROWS, "parity": rows})
    result, = run_suite("proposition", 250).results
    parity = triangle.triangle_entry_parity(n, k)
    assert result == IdentityResult(
        "parity entry = exact entry mod 2", 31626,
        Counterexample((n, k), 1 - parity, parity))


@pytest.mark.parametrize("n, k", [(200, 100), (201, 77), (201, 0)])
def test_thm2_and_glaisher_name_a_flipped_pascal_bit(monkeypatch, n, k):
    # Bit k of P_n is read by r(n) when k has n's parity (and by r(n + 1),
    # so r(n) names it first), and by Glaisher's count of row n always.
    monkeypatch.setattr(triangle, "_pascal_bits",
                        _flip_bit(triangle._pascal_bits, n, k))
    delta = 1 - 2 * triangle.binom_parity(n, k)
    thm2, _at_0 = run_suite("thm2", 250).results
    closed = triangle.row_sum_closed(n)
    assert thm2 == IdentityResult(
        "row sum closed form = brute force", 250,
        Counterexample(n, closed, closed + delta) if (n - k) % 2 == 0
        else None)
    glaisher, = run_suite("glaisher", 250).results
    odd = 1 << n.bit_count()
    assert glaisher == IdentityResult(
        "odd entries in Pascal row n = 2^popcount(n)", 251,
        Counterexample(n, odd + delta, odd))


@pytest.mark.parametrize("top, k", [(0, 0), (150, 40), (249, 124)])
def test_carlitz_names_a_flipped_diagonal_bit(monkeypatch, top, k):
    # s(top + 1) is the bit count of D_top, at index top of the suite
    monkeypatch.setattr(triangle, "_diagonals",
                        _flip_bit(triangle._diagonals, top, k))
    result, = run_suite("carlitz", 250).results
    delta = 1 - 2 * triangle.binom_parity(top - k, k)
    value = stern(top + 1)
    assert result == IdentityResult(
        "binomial-parity diagonal = s(n+1)", 251,
        Counterexample(top, value + delta, value))


@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK])
def test_eq3_names_a_corrupt_stern_value_at_a_block_edge(monkeypatch, at):
    # s(2 at + 1) one too large in Stern's sweep, which both rows read
    sweep, target = kernel._sweep, 2 * at + 1

    def corrupt(j, row, scan, **flags):
        values = sweep(j, row, scan, **flags)
        if scan is not kernel._stern_scan or flags:  # not Stern's route
            return values
        return (v + (i == target) for i, v in enumerate(values, j))

    monkeypatch.setattr(kernel, "_sweep", corrupt)
    value = stern(target)
    assert run_suite("eq3", 3000).results == tuple(
        IdentityResult(name, 3001, Counterexample(at, value, value + 1))
        for name in ("d(2n) = s(2n+1)", "d(2n+1) = s(2n+1)"))
