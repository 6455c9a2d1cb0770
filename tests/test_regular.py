import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modpascal
from modpascal import kernel, regular
from modpascal import (
    LinearRep,
    derive_linear_rep,
    diagonal_sum_brute,
    diagonal_sum_fast,
    diagonal_sum_recurrence,
    linear_rep_eval,
    linear_rep_state,
    run_suite,
    stern,
)
from modpascal.bfile import ROUTES
from modpascal.kernel import _bits_product, _d_scan, _doubled, _stern_scan
from oracles import binary_run_lengths, cf_numerator, rep_state_bits
from test_stern import BIG_N, ROW_EDGES, alternating


def test_recurrence_matches_continuant_route():
    for n in range(4097):
        assert diagonal_sum_recurrence(n) == diagonal_sum_fast(n)


def test_recurrence_matches_brute_force():
    for n in range(257):
        assert diagonal_sum_recurrence(n) == diagonal_sum_brute(n)


def test_recurrence_fixtures():
    assert diagonal_sum_recurrence(0) == 1
    assert diagonal_sum_recurrence(8) == 4
    assert diagonal_sum_recurrence(3615) == 68


def test_recurrence_large_arguments():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.getrandbits(80)
        assert diagonal_sum_recurrence(n) == diagonal_sum_fast(n)


def test_recurrence_rejects_negative():
    with pytest.raises(ValueError):
        diagonal_sum_recurrence(-1)


def test_recurrence_reports_negative_value(monkeypatch):
    # The identities are linear, so d(0) = -1 negates every value.
    monkeypatch.setattr(regular, "_BASE", {0: -1})
    with pytest.raises(RuntimeError, match="negative value -3 at index 6$"):
        diagonal_sum_recurrence(6)


def test_recurrence_reports_huge_numbers_in_its_own_words(monkeypatch):
    # 10**5000, and the negative value this base value gives there, are
    # past CPython's int/str digit limit, which str() would refuse.
    monkeypatch.setattr(regular, "_BASE", {0: -1})
    with pytest.raises(RuntimeError,
                       match=f"^recurrence produced negative value -[0-9]+ "
                             f"at index 1{'0' * 5000}$"):
        diagonal_sum_recurrence(10**5000)


@pytest.mark.parametrize("shape", ["random", "alternating", "all-ones"])
def test_recurrence_memory_is_linear_in_bits(shape):
    # The scan holds the pair (e(i), e(i // 2)) and its two children, so
    # O(bits) memory; holding every dependency index would be O(bits^2),
    # about 18 MB at this size.
    bits = 10**4
    n = {"random": random.Random(35).getrandbits(bits) | 1 << (bits - 1),
         "alternating": alternating(bits),
         "all-ones": (1 << bits) - 1}[shape]
    want = diagonal_sum_fast(n)
    tracemalloc.start()
    try:
        got = diagonal_sum_recurrence(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1 << 20


def test_recurrence_leaves_no_module_state_behind():
    def sizes():
        return {name: len(value) for name, value in vars(regular).items()
                if isinstance(value, (dict, list, set))}

    before = sizes()
    diagonal_sum_recurrence((1 << 4000) - 12345)
    assert sizes() == before


# A fresh process, since other tests here evaluate the routes: a
# profile hook sees every call made while the CLI is imported.
IMPORT_EVALUATES = """
import sys
routes = {"diagonal_sum_fast", "_bits_product", "stern", "linear_rep_eval"}
calls = []

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_name in routes:
        calls.append(frame.f_code.co_name)

sys.setprofile(hook)
import modpascal.cli
sys.setprofile(None)
print(*calls)
"""


def test_cli_import_evaluates_no_sequence():
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", IMPORT_EVALUATES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


@pytest.fixture
def without_other_routes(monkeypatch):
    """Every kernel the scalar recurrence could lean on, made to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the scalar recurrence read another route")

    for module, name in ((regular, "diagonal_sum_fast"),
                         (regular, "_bits_product"), (regular, "_sweep"),
                         (kernel, "_bits_product"), (kernel, "_sweep")):
        monkeypatch.setattr(module, name, refuse)


def test_recurrence_reads_no_other_route(without_other_routes):
    rng = random.Random(36)
    for n in [*range(4097), *(rng.getrandbits(4096) for _ in range(8))]:
        assert (diagonal_sum_recurrence(n)
                == cf_numerator(binary_run_lengths(n))), n


@pytest.mark.parametrize("start", [0, 2**4098 - 3], ids=["0", "2^4098-3"])
def test_recurrence_route_reads_no_other_route(without_other_routes, start):
    got = list(islice(ROUTES["d"]["recurrence"](start), 1000))
    assert got == [cf_numerator(binary_run_lengths(n))
                   for n in range(start, start + 1000)]


@given(st.integers(0, 2**200))
def test_scalar_and_matrix_routes_match_continued_fraction(n):
    want = cf_numerator(binary_run_lengths(n))
    assert diagonal_sum_recurrence(n) == want
    assert linear_rep_eval(derive_linear_rep(), n) == want


def test_brute_agreement_spot_checks_above_routine_range():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randrange(1 << 12, 1 << 16)
        assert diagonal_sum_fast(n) == diagonal_sum_brute(n)


def test_identity_audit_passes_at_wide_range():
    report = run_suite("remark", 2**16)
    assert report.passed
    assert len(report.results) == 4


def test_derived_rep_constants():
    rep = derive_linear_rep()
    assert rep.v0 == (1, 1)
    assert rep.m0 == ((0, 1), (-1, 2))
    assert rep.m1 == ((3, -1), (4, -1))


def test_derive_validation_catches_disagreement(monkeypatch):
    monkeypatch.setattr(regular, "diagonal_sum_fast", lambda n: 999)
    with pytest.raises(RuntimeError, match="disagrees"):
        derive_linear_rep()


def test_state_fixture():
    rep = derive_linear_rep()
    assert linear_rep_state(rep, 0) == (1, 1)
    assert linear_rep_state(rep, 1) == (2, 3)


def test_state_components_are_even_index_diagonal_sums():
    rep = derive_linear_rep()
    for n in range(301):
        assert linear_rep_state(rep, n) == (
            diagonal_sum_fast(2 * n),
            diagonal_sum_fast(4 * n),
        )


def test_eval_fixtures():
    rep = derive_linear_rep()
    assert linear_rep_eval(rep, 0) == 1
    assert linear_rep_eval(rep, 8) == 4
    assert linear_rep_eval(rep, 3615) == 68


def test_eval_matches_continuant_route():
    rep = derive_linear_rep()
    for n in range(2049):
        assert linear_rep_eval(rep, n) == diagonal_sum_fast(n)
    rng = random.Random(33)
    for _ in range(50):
        n = rng.getrandbits(96)
        assert linear_rep_eval(rep, n) == diagonal_sum_fast(n)


def test_eval_readout_is_positive():
    rep = derive_linear_rep()
    for n in range(5000):
        assert linear_rep_eval(rep, n) >= 1


def test_eval_rejects_negative():
    rep = derive_linear_rep()
    with pytest.raises(ValueError):
        linear_rep_state(rep, -1)
    with pytest.raises(ValueError):
        linear_rep_eval(rep, -2)


def test_rep_is_frozen():
    rep = derive_linear_rep()
    with pytest.raises(AttributeError):
        rep.v0 = (0, 0)
    assert isinstance(rep, LinearRep)


@settings(deadline=None)
@given(BIG_N)
def test_tree_matrix_route_matches_continued_fraction(n):
    rep = derive_linear_rep()
    assert linear_rep_eval(rep, n) == cf_numerator(binary_run_lengths(n))
    assert linear_rep_state(rep, n) == (
        diagonal_sum_fast(2 * n), diagonal_sum_fast(4 * n))


# Neither v0 is fixed by its m0 (m0 v0 != v0), so padding n with zero
# bits on top would change the state; the second rep's matrices are not
# _REP's, so _REP's byte table would give wrong states.
CUSTOM_REPS = [
    LinearRep(v0=(1, 2), m0=((0, 1), (-1, 2)), m1=((3, -1), (4, -1))),
    LinearRep(v0=(1, 1), m0=((1, 2), (0, 1)), m1=((1, 0), (3, 1))),
]


@pytest.mark.parametrize("rep", CUSTOM_REPS)
def test_custom_rep_state_past_one_leaf(rep, monkeypatch):
    rng = random.Random(36)
    ns = [rng.getrandbits(bits) | 1 << (bits - 1)
          for bits in (*range(60, 90), *range(3000, 3008))]
    for n in ns:
        assert linear_rep_state(rep, n) == rep_state_bits(rep, n)
    # A rep put in _REP's place does not read _REP's table either.
    monkeypatch.setattr(regular, "_REP", rep)
    for n in ns:
        assert linear_rep_state(regular._REP, n) == rep_state_bits(rep, n)


def test_custom_rep_state_at_zero_is_v0():
    # n = 0 has no bits, so no m0 acts: m0 v0 = (2, 3) != v0 here.
    rep = LinearRep(v0=(1, 2), m0=((0, 1), (-1, 2)), m1=((3, -1), (4, -1)))
    assert linear_rep_state(rep, 0) == (1, 2) == rep_state_bits(rep, 0)
    assert linear_rep_eval(rep, 0) == linear_rep_eval(rep, 1) == 1
    # The same holds in the kernel for every scan, from a row that each
    # scan's 0 bit would move.
    for scan in (_d_scan, _stern_scan, regular._rep_scan(rep)):
        assert _bits_product((1, 2), 0, scan, readout=False) == (1, 2)


def test_byte_table_cache_is_bounded():
    # _REP's table is cached first; each custom rep then shares _REP's
    # m1 or not, but never its m0, so a table keyed by less than both
    # one-bit matrices gives some rep a wrong state.
    rng = random.Random(25)
    ns = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (65, 70, 300)]
    for n in ns:
        assert linear_rep_state(regular._REP, n) == rep_state_bits(
            regular._REP, n)
    reps = [LinearRep(v0=(1, i), m0=((i % 3, 1), (-1, 3 + i)),
                      m1=regular._REP.m1 if i % 2 else ((3, -1), (4, i)))
            for i in range(10)]
    for rep in reps:
        for n in ns:
            assert linear_rep_state(rep, n) == rep_state_bits(rep, n)
    info = _doubled.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for n in ns:  # _REP's table was evicted, and is built again
        assert linear_rep_state(regular._REP, n) == rep_state_bits(
            regular._REP, n)
        assert linear_rep_eval(regular._REP, n) == diagonal_sum_fast(n)


@pytest.mark.parametrize("shape", ["random", "alternating"])
def test_three_routes_agree_at_1e5_bits(shape):
    bits = 10**5
    n = (random.Random(34).getrandbits(bits) | 1 << (bits - 1)
         if shape == "random" else alternating(bits))
    p, q, mod = 1, 0, 2**61 - 1  # the two-term recurrence mod a prime
    for term in binary_run_lengths(n):
        p, q = (term * p + q) % mod, p
    d = diagonal_sum_fast(n)
    assert d % mod == p
    assert linear_rep_eval(derive_linear_rep(), n) == d
    assert stern(n | 1) == d


@pytest.mark.parametrize("bad", [2.5, True, "5"])
def test_non_int_arguments_raise_type_error(bad):
    rep = derive_linear_rep()
    for call in (diagonal_sum_recurrence,
                 lambda n: linear_rep_eval(rep, n),
                 lambda n: linear_rep_state(rep, n)):
        with pytest.raises(TypeError, match="^n must be an int, got "):
            call(bad)


# Starts of the recurrence route's windows: the first indices, and both
# sides of every power of two to 2^70, where the tower's seeds cross a
# bit length.
RECURRENCE_STARTS = sorted({*range(6), 2**64, 2**200 + 3, *(
    2**k + delta for k in range(1, 71) for delta in (-1, 0, 1))})

# Every d sweep streams e(j) = d(2j) and repeats each value into d, so
# the d indices 2j and 2j + 1 start each sweep at j; with j = 256c - 1,
# 256c and 256c + 1 they start just before, at and just after the edge
# of the block sweeps' block c, for c = 2^k - 1 and 2^k.
EDGE_STARTS = sorted({2 * j + odd for k in (1, 2, 8, 9, 64)
                      for c in (2**k - 1, 2**k)
                      for j in (256 * c - 1, 256 * c, 256 * c + 1)
                      for odd in (0, 1)})

# Each d sweep and its windows' starts: the brute sweep, whose seeds
# take O(start) steps, only below 2^20, well within its memory check.
D_WINDOWS = [
    (ROUTES["d"]["fast"], EDGE_STARTS),
    (ROUTES["d"]["continuant"], EDGE_STARTS),
    (ROUTES["d"]["brute"], [start for start in EDGE_STARTS if start < 2**20]),
    (ROUTES["d"]["recurrence"], sorted({*RECURRENCE_STARTS, *EDGE_STARTS})),
    (regular._rep_terms, EDGE_STARTS),
]


def test_recurrence_route_windows():
    # 40 terms climb five levels of the tower, each seeded anew, and
    # cross the edge of a block of e from 2j and 2j + 1.
    for terms, starts in D_WINDOWS:
        for start in starts:
            got = list(islice(terms(start), 40))
            assert got == [diagonal_sum_fast(n) for n in
                           range(start, start + 40)], (terms.__name__, start)
            assert got[::7] == [diagonal_sum_recurrence(n) for n in
                                range(start, start + 40, 7)], start


# Starts up to 2^4096, and starts just below a power of two, whose
# state index ends in a long run of one bits.
HUGE_STARTS = st.one_of(
    st.integers(0, 2**4096),
    st.builds(lambda k, delta: 2**k - delta, st.integers(2, 4096),
              st.integers(1, 4)))


@settings(deadline=None, max_examples=20)
@given(HUGE_STARTS, st.integers(0, 600))
def test_recurrence_route_matches_per_index_kernel_at_huge_starts(start,
                                                                    size):
    assert (list(islice(ROUTES["d"]["recurrence"](start), size))
            == [diagonal_sum_fast(n) for n in range(start, start + size)])


def test_recurrence_route_past_2_4096_is_not_deep():
    # A tower made down to its seeds at once would be 4097 generators
    # deep, past the recursion limit; made as the window needs it, it is
    # about ten.
    start = 2**4097 + 12345
    got = list(islice(ROUTES["d"]["recurrence"](start), 1000))
    assert len(got) == 1000
    for n in (0, 1, 2, 511, 998, 999):
        assert got[n] == diagonal_sum_fast(start + n)


@pytest.mark.parametrize("start", [2**4098 - 3, 2**4098 - 2, 2**4098 - 1],
                         ids=["2^4098-3", "2^4098-2", "2^4098-1"])
def test_recurrence_route_after_a_long_run_of_ones(start):
    # start >> 1 ends in 4096 or 4097 one bits, so the first levels of
    # the tower start at odd indices, one after another.
    recurrence = ROUTES["d"]["recurrence"]
    for size in (3, 4, 5, 40):
        assert (list(islice(recurrence(start), size))
                == [diagonal_sum_fast(n) for n in range(start, start + size)])
    got = list(islice(recurrence(start), 1000))
    for n in (0, 1, 2, 3, 511, 998, 999):
        assert got[n] == diagonal_sum_fast(start + n)


@pytest.mark.parametrize("start", [0, 5, 2**64 - 1, 2**200 + 3,
                                   2**4098 - 2, 2**4098 - 1],
                         ids=["0", "5", "2^64-1", "2^200+3", "2^4098-2",
                              "2^4098-1"])
@pytest.mark.parametrize("size", [1, 3, 4, 40, 1000])
def test_recurrence_tower_height_follows_the_window(monkeypatch, start,
                                                    size):
    # Every level makes the level above it through the module's _tower,
    # so counting those calls counts the levels a window makes.
    tower, levels = regular._tower, []

    def counted(i):
        levels.append(i)
        return tower(i)

    monkeypatch.setattr(regular, "_tower", counted)
    deque(islice(regular._recurrence_terms(start), size), 0)
    assert len(levels) <= size.bit_length() + 2


def _e(j):
    """e(j) = d(2j) by the per-index continuant route."""
    return diagonal_sum_fast(2 * j)


def test_pair_is_e_at_i_and_i_halved():
    for i in range(4096):
        assert (regular._pair(i) == (_e(i), _e(i // 2))
                == (diagonal_sum_recurrence(2 * i),
                    diagonal_sum_recurrence(2 * (i // 2)))), i


@settings(deadline=None, max_examples=50)
@given(HUGE_STARTS)
def test_pair_matches_the_continuant_route_to_2_4096(i):
    assert regular._pair(i) == (_e(i), _e(i // 2))


@pytest.mark.parametrize("i", [0, 1])
def test_self_nested_towers_give_every_pair(i):
    # _tower(0) and _tower(1) read themselves as the level above.
    got = list(islice(regular._tower(i), 4096))
    assert got == [(_e(j), _e(j // 2)) for j in range(2 * i, 2 * i + 4096)]


@pytest.mark.parametrize("start", [0, 1, 6, 2**64 - 1, 2**200 + 3,
                                   2**4098 - 3, 2**4098 - 1])
def test_recurrence_tower_seeds_each_level_by_one_pair(monkeypatch, start):
    # A level is started at its body's first next, so wrapping _tower in
    # a generator records each level as it starts: each start makes one
    # _pair call, for the level's own first index, and no other.
    tower, pair, started, seeds = regular._tower, regular._pair, [], []

    def counted_tower(i):
        started.append(i)
        yield from tower(i)

    def counted_pair(i):
        seeds.append(i)
        return pair(i)

    monkeypatch.setattr(regular, "_tower", counted_tower)
    monkeypatch.setattr(regular, "_pair", counted_pair)
    deque(islice(regular._recurrence_terms(start), 1000), 0)
    assert seeds == started
    assert 2 < len(seeds) <= (1000).bit_length() + 2


def test_recurrence_route_memory_is_logarithmic_in_the_window():
    # About 20 levels, a few ints each: a tower that kept what it made
    # would hold 10^6 ints.
    tracemalloc.start()
    try:
        deque(islice(ROUTES["d"]["recurrence"](0), 10**6), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("c", sorted({1, 2, 3, 255, 256, 2**56 - 1, 2**56,
                                      2**64 - 1, 2**70, *ROW_EDGES}))
def test_matrix_sweep_across_block_edges(c):
    # Block c of the matrix sweep is the state row after c times two
    # columns of the byte table, each value twice: d indices 512c - 1,
    # 512c and 512c + 1 start just before, at and just after its edge.
    for start in (512 * c - 1, 512 * c, 512 * c + 1):
        got = list(islice(regular._rep_terms(start), 1030))
        assert got == [linear_rep_eval(regular._REP, n)
                       for n in range(start, start + 1030)], start


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**4096))
def test_matrix_sweep_matches_per_index_eval_at_huge_starts(start):
    assert (list(islice(regular._rep_terms(start), 600))
            == [linear_rep_eval(regular._REP, n)
                for n in range(start, start + 600)])


# A block of states whose row fits the packed 64-bit slots, while those
# on each side of it do not: found among alternating-bit c near 2**81.
REP_FLIP = alternating(81) + 3


def test_matrix_sweep_across_the_packing_bound(block_paths):
    start = 512 * (REP_FLIP - 1)
    got = list(islice(regular._rep_terms(start), 3 * 512))
    assert got == [linear_rep_eval(regular._REP, n)
                   for n in range(start, start + 3 * 512)]
    assert block_paths == [False, True, False]


def test_a_wrong_rep_streams_its_own_values(monkeypatch):
    # One entry of m1 off by one (5 in place of 4): the matrix side leaves d
    # at d(4) and gives negative values, which the packed blocks decode
    # exactly, and thm1 names the first index where it leaves d.  With
    # m0's -1 made -2, m0 moves v0 to (1, 0), so the leading zeros of a
    # state's byte are not free: the stream still gives the per-index
    # values, and thm1 names d(8), not a value the rep does not give.
    wrongs = [(((0, 1), (-1, 2)), ((3, -1), (5, -1)), "at 4: lhs=3 rhs=4"),
              (((0, 1), (-2, 2)), ((3, -1), (4, -1)), "at 8: lhs=4 rhs=2")]
    for m0, m1, at in wrongs:
        wrong = regular._REP._replace(m0=m0, m1=m1)
        monkeypatch.setattr(regular, "_REP", wrong)
        for start in (0, 2**64 + 5):
            got = list(islice(regular._rep_terms(start), 3000))
            assert got == [linear_rep_eval(wrong, n)
                           for n in range(start, start + 3000)], (m0, start)
            assert min(got) < 0
        fail = ("  FAIL continuant route = matrix representation: "
                f"counterexample {at} (2501 checks ran)")
        report = run_suite("thm1", 2500)
        assert [line for line in report.lines() if "FAIL " in line] == [fail]


def test_matrix_sweep_from_the_first_indices():
    for start in range(6):
        assert (list(islice(regular._rep_terms(start), 600))
                == [diagonal_sum_fast(n) for n in range(start, start + 600)])


@pytest.mark.parametrize("terms", [ROUTES["d"]["recurrence"],
                                   regular._rep_terms])
def test_sweeps_check_start_at_the_call(terms):
    with pytest.raises(ValueError, match="^start must be >= 0, got -1$"):
        terms(-1)
    with pytest.raises(TypeError, match="^start must be an int, got float$"):
        terms(2.0)
