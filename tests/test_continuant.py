import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modpascal
from modpascal import (
    LinearRep,
    TriangleRow,
    carlitz_sum,
    continuant,
    derive_linear_rep,
    diagonal_sum_brute,
    diagonal_sum_fast,
    generate_bfile,
    iter_triangle_terms,
    linear_rep_eval,
    linear_rep_state,
    row_sum_brute,
    row_sum_closed,
    run_lengths,
    run_suite,
    runs_to_int,
    stern,
    triangle_row,
    triangle_row_parity,
)
from modpascal import kernel, regular
from modpascal.kernel import (
    _CHUNK,
    _LANE_LEAVES,
    _LEAF,
    _bits_product,
    _byte_table,
    _columns,
    _d_scan,
    _doubled,
    _one_bit,
    _stern_scan,
    _values,
)
from modpascal.bfile import ROUTES
from oracles import (
    binary_run_lengths,
    cf_numerator,
    fib,
    rep_state_bits,
    stern_bits,
    stern_naive,
)
from test_stern import ROW_EDGES, alternating


def test_run_lengths_fixtures():
    assert run_lengths(0) == ()
    assert run_lengths(1) == (1,)
    assert run_lengths(2) == (1, 1)
    assert run_lengths(12) == (2, 2)
    assert run_lengths(0b111000011111) == (3, 4, 5)


def test_run_lengths_matches_groupby():
    for n in range(2049):
        assert run_lengths(n) == binary_run_lengths(n)
    rng = random.Random(11)
    for _ in range(200):
        n = rng.getrandbits(300)
        assert run_lengths(n) == binary_run_lengths(n)


# run_lengths splits the text after the leading bit _CHUNK characters at
# a time: n of up to _CHUNK + 1 bits is one chunk.
@pytest.mark.parametrize("bits", [_CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2,
                                  2 * _CHUNK + 1, 2 * _CHUNK + 2])
def test_run_lengths_at_chunk_edges(bits):
    rng = random.Random(bits)
    ns = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(20)]
    ns += [alternating(bits), (1 << bits) - 1, 1 << (bits - 1)]
    for n in ns:
        assert n.bit_length() == bits
        assert run_lengths(n) == binary_run_lengths(n)


@pytest.mark.parametrize("n", [(1 << 3 * _CHUNK) - 1, 1 << 3 * _CHUNK])
def test_run_spanning_three_chunks(n):
    assert run_lengths(n) == binary_run_lengths(n)


def test_run_lengths_of_long_inputs():
    rng = random.Random(13)
    for n in (rng.getrandbits(10**5) | 1 << (10**5 - 1), alternating(10**5)):
        assert run_lengths(n) == binary_run_lengths(n)


@settings(deadline=None)
@given(st.integers(0, 2**40000))
def test_runs_to_int_inverts_run_lengths_of_any_size(n):
    assert runs_to_int(run_lengths(n)) == n


@pytest.mark.parametrize("shape", ["random", "alternating"])
def test_run_lengths_memory_is_its_result(shape):
    # The runs are split a chunk at a time: splitting the whole text at
    # once holds every piece beside the result, 2 to 4 times its size.
    bits = 10**6
    n = random.Random(14).getrandbits(bits) if shape == "random" else alternating(bits)
    tracemalloc.start()
    try:
        runs = run_lengths(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sys.getsizeof(runs) + 2**20


def test_run_lengths_rejects_negative():
    with pytest.raises(ValueError):
        run_lengths(-1)


def test_runs_to_int_inverts_run_lengths():
    assert runs_to_int(()) == 0
    assert runs_to_int((3, 4, 5)) == 0b111000011111
    for n in range(2**20 + 1):
        assert runs_to_int(run_lengths(n)) == n
    rng = random.Random(12)
    for _ in range(100):
        n = rng.getrandbits(256)
        assert runs_to_int(run_lengths(n)) == n


def test_runs_to_int_rejects_nonpositive_runs():
    with pytest.raises(ValueError):
        runs_to_int((2, 0, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: continuant((2.5,)), "continuant term 0 must be an int, got float"),
    (lambda: continuant([2.0] * 70),
     "continuant term 0 must be an int, got float"),
    (lambda: continuant([2] * 69 + [2.0]),
     "continuant term 69 must be an int, got float"),
    (lambda: continuant((True, 2)), "continuant term 0 must be an int, got bool"),
    (lambda: runs_to_int([True, 2]), "run length 0 must be an int, got bool"),
    (lambda: runs_to_int(iter([1, 2.0])),
     "run length 1 must be an int, got float"),
])
def test_non_int_terms_raise_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_diagonal_sum_fast_skips_the_term_type_check(monkeypatch):
    # Run lengths are ints by construction; the check is for callers'
    # sequences only.
    def refuse(name, values):
        raise AssertionError("diagonal_sum_fast checked its run lengths")
    monkeypatch.setattr(kernel, "_require_ints", refuse)
    for n in [*range(64), int("110" * 50, 2)]:  # 100 runs: past _LEAF
        assert diagonal_sum_fast(n) == cf_numerator(binary_run_lengths(n))


def test_continuant_fixtures():
    assert continuant(()) == 1
    assert continuant((7,)) == 7
    assert continuant((2, 1)) == 3
    assert continuant((1, 3)) == 4
    assert continuant((3, 4, 5)) == 68


def test_continuant_rejects_nonpositive_terms():
    with pytest.raises(ValueError):
        continuant((3, 0, 2))


def test_continuant_is_continued_fraction_numerator():
    rng = random.Random(13)
    for _ in range(500):
        m = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        assert continuant(m) == cf_numerator(m)


def test_continuant_reversal_invariance():
    rng = random.Random(14)
    for _ in range(500):
        m = [rng.randint(1, 9) for _ in range(rng.randint(0, 12))]
        assert continuant(m) == continuant(reversed(m))


def test_continuant_tail_identities():
    # [.., a, 1] = [.., a+1] and [.., a] = [.., a-1, 1]: the two ways of
    # ending a continued fraction give the same numerator.
    rng = random.Random(15)
    for _ in range(500):
        m = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        assert continuant(m + [1]) == continuant(m[:-1] + [m[-1] + 1])
        if m[-1] >= 2:
            assert continuant(m) == continuant(m[:-1] + [m[-1] - 1, 1])


def test_all_ones_continuant_is_fibonacci():
    for k in range(61):
        assert continuant((1,) * k) == fib(k + 1)


def test_even_n_continuant_equality():
    for n in range(0, 4097, 2):
        assert continuant(run_lengths(n)) == continuant(run_lengths(n + 1))


def test_diagonal_sum_fast_fixtures():
    assert diagonal_sum_fast(0) == 1
    assert diagonal_sum_fast(12) == 5
    assert diagonal_sum_fast(0b111000011111) == 68


def test_diagonal_sum_fast_matches_brute():
    for n in range(513):
        assert diagonal_sum_fast(n) == diagonal_sum_brute(n)


# Past _LEAF terms the continuant is a product tree of leaves; these
# inputs cross several leaf boundaries.
@settings(deadline=None)
@given(st.integers(0, 400).flatmap(
    lambda k: st.lists(st.integers(1, 5), min_size=k, max_size=k)))
def test_tree_continuant_is_continued_fraction_numerator(terms):
    want = cf_numerator(terms)
    assert continuant(terms) == want
    assert continuant(term for term in terms) == want


# The sizes at which a route switches between one scan and the tree,
# and where the tree gains a leaf.
LEAF_SIZES = [0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 2 * _LEAF + 1]


@pytest.mark.parametrize("shape", ["random", "alternating"])
@pytest.mark.parametrize("size", LEAF_SIZES)
def test_routes_at_leaf_boundaries(size, shape):
    rng = random.Random(size)
    # size terms for continuant, and an n of size bits for the bit scans
    if shape == "random":
        terms = [rng.randint(1, 9) for _ in range(size)]
        n = rng.getrandbits(size) | (1 << size) >> 1  # top bit set
    else:  # every run of bits has length 1
        terms = [1] * size
        n = alternating(size)
    assert n.bit_length() == size
    assert continuant(terms) == cf_numerator(terms)
    assert stern(n) == stern_naive(n)
    rep = derive_linear_rep()
    assert linear_rep_state(rep, n) == (
        cf_numerator(binary_run_lengths(2 * n)),
        cf_numerator(binary_run_lengths(4 * n)))
    for m in (2 * n, 2 * n + 1):  # both read the state at n
        assert linear_rep_eval(rep, m) == cf_numerator(binary_run_lengths(m))


# Past _LEAF bits the bit routes look each byte of n up in a table
# built from their own scan by doubling its one-bit matrices.
@pytest.mark.parametrize("scan", [
    pytest.param(_d_scan, id="d"),
    pytest.param(_stern_scan, id="stern"),
    pytest.param(regular._rep_scan(regular._REP), id="matrix"),
])
def test_byte_table_is_the_scan_of_each_byte(scan):
    table = _byte_table(scan)
    assert len(table) == 256
    for byte in range(256):
        bits = format(byte, "08b")
        assert table[byte] == scan(bits, 1, 0) + scan(bits, 0, 1), bits


# A fresh process, since other tests here build the tables: importing the
# CLI builds none, n of one leaf (64 bits) still none, and 65 bits one
# table each for d, Stern and the matrix route, in the one cache.
BUILT_PAST_ONE_LEAF = """
import modpascal.cli
from modpascal import kernel, regular
built = lambda: kernel._doubled.cache_info().currsize
print(built())
for n in ((1 << 64) - 1, 1 << 64):
    kernel.diagonal_sum_fast(n)
    kernel.stern(n)
    regular.linear_rep_state(regular._REP, n)
    print(built())
"""


def test_byte_tables_are_built_past_one_leaf_only():
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", BUILT_PAST_ONE_LEAF], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.stderr, done.stdout.split("\n")) == ("", ["0", "0", "3", ""])


def _check_bit_routes(n):
    """d, stern and the matrix route at n against references that use
    neither a byte table nor the product tree."""
    d = continuant(run_lengths(n))
    assert diagonal_sum_fast(n) == d
    assert stern(n) == stern_bits(n)
    rep = derive_linear_rep()
    assert linear_rep_eval(rep, n) == d
    assert linear_rep_state(rep, n) == rep_state_bits(rep, n)


# Every bit length up to three leaves, which covers each number of bits
# scanned before the first whole leaf, and lengths far past one leaf.
BIT_LENGTHS = [*range(1, 201), *range(8000, 8008)]


@pytest.mark.parametrize("bits", BIT_LENGTHS)
def test_bit_routes_at_every_bit_length(bits):
    rng = random.Random(bits)
    for n in (rng.getrandbits(bits) | 1 << (bits - 1), alternating(bits),
              (1 << bits) - 1, 1 << (bits - 1), 1 << (bits - 1) | 1):
        assert n.bit_length() == bits
        _check_bit_routes(n)
        if bits <= 200:
            assert stern(n) == stern_naive(n)


@settings(deadline=None)
@given(st.one_of(
    st.integers(0, 2**5000),
    st.integers(0, 5000).map(alternating),
    st.integers(0, 5000).map(lambda k: (1 << k) - 1),
    st.integers(1, 5000).map(lambda k: (1 << k) + 1),
))
def test_bit_routes_match_their_references(n):
    _check_bit_routes(n)


# Past _LANE_LEAVES leaves, _bits_product finds the leaves' matrices in
# 64-bit lanes, by a step derived from the scan's one-bit matrices.
# These scans fit the lanes: d, Stern, Stern's matrices as a LinearRep,
# and two reps whose steps add 2y under a mask and select between 2y and
# x, the column forms that d and Stern do not use.
LANE_SCANS = [
    pytest.param(_d_scan, id="d"),
    pytest.param(_stern_scan, id="stern"),
    pytest.param(regular._rep_scan(LinearRep(
        v0=(0, 1), m0=((1, 0), (1, 1)), m1=((1, 1), (0, 1)))), id="stern-rep"),
    pytest.param(regular._rep_scan(LinearRep(
        v0=(1, 1), m0=((1, 0), (0, 1)), m1=((1, 2), (0, 1)))), id="add-2y"),
    pytest.param(regular._rep_scan(LinearRep(
        v0=(1, 1), m0=((0, 2), (1, 0)), m1=((1, 0), (0, 1)))), id="select-2y"),
]

# These do not: _REP has negative entries, and 3I's byte table has row
# sums of 3^8.
BYTE_SCANS = [
    pytest.param(regular._rep_scan(regular._REP), id="matrix"),
    pytest.param(regular._rep_scan(LinearRep(
        v0=(1, 1), m0=((3, 0), (0, 3)), m1=((3, 0), (0, 3)))), id="3I"),
]


@st.composite
def lane_inputs(draw):
    """n of one leaf below the lane crossover to several above it, with
    0, 1, 7 or 63 bits over its whole leaves: random, all ones, a power
    of two, alternating, or with every leaf distinct, so that leaves
    read in the wrong order give a wrong product."""
    leaves = draw(st.integers(_LANE_LEAVES - 1, _LANE_LEAVES + 6))
    bits = _LEAF * leaves + draw(st.sampled_from([0, 1, 7, 63]))
    shape = draw(st.sampled_from(
        ["random", "ones", "power", "alternating", "distinct"]))
    if shape == "random":
        return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    if shape == "ones":
        return (1 << bits) - 1
    if shape == "power":
        return 1 << (bits - 1)
    if shape == "alternating":
        return alternating(bits)
    start = draw(st.integers(0, 2**64 - 1))  # leaf i is (start + i) K
    words = (((start + i) * 0x9E3779B97F4A7C15) % 2**64 for i in range(leaves))
    low = int.from_bytes(b"".join(w.to_bytes(8, "little") for w in words),
                         "little")
    return low | 1 << (bits - 1)


def _check_bits_product(scan, n):
    for row in ((1, 0), (0, 1), (2, 3)):
        want = scan(bin(n)[2:], *row)
        assert _bits_product(row, n, scan, readout=False) == want
        assert _bits_product(row, n, scan)[0] == want[0]


@pytest.mark.parametrize("scan", LANE_SCANS + BYTE_SCANS)
@settings(deadline=None, max_examples=60)
@given(lane_inputs())
def test_bits_product_is_the_scan_at_the_lane_crossover(scan, n):
    _check_bits_product(scan, n)


def _count_lane_calls(monkeypatch):
    calls = []
    lanes = kernel._lane_leaves

    def counted(n, leaves, ones):
        calls.append(leaves)
        return lanes(n, leaves, ones)
    monkeypatch.setattr(kernel, "_lane_leaves", counted)
    return calls


@pytest.mark.parametrize("scan", LANE_SCANS)
def test_lanes_are_taken_past_the_crossover(scan, monkeypatch):
    assert _doubled(_one_bit(scan))[1]
    calls = _count_lane_calls(monkeypatch)
    rng = random.Random(41)
    for leaves in (_LANE_LEAVES, _LANE_LEAVES + 1, 3 * _LANE_LEAVES):
        n = rng.getrandbits(_LEAF * leaves) | 1 << (_LEAF * leaves - 1)
        _check_bits_product(scan, n)
    assert calls == [_LANE_LEAVES + 1] * 6 + [3 * _LANE_LEAVES] * 6


def test_stern_as_a_linear_rep_past_the_crossover():
    rep = LinearRep(v0=(0, 1), m0=((1, 0), (1, 1)), m1=((1, 1), (0, 1)))
    rng = random.Random(43)
    for bits in (_LEAF * (_LANE_LEAVES + 1), 5000):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert linear_rep_state(rep, n) == (stern(n), stern_bits(n + 1))


@pytest.mark.parametrize("scan", BYTE_SCANS)
def test_scans_that_do_not_fit_lanes_keep_the_byte_tables(scan, monkeypatch):
    assert not _doubled(_one_bit(scan))[1]
    calls = _count_lane_calls(monkeypatch)
    rng = random.Random(42)
    for bits in (_LEAF * (_LANE_LEAVES + 1), _LEAF * 3 * _LANE_LEAVES + 5):
        _check_bits_product(scan, rng.getrandbits(bits) | 1 << (bits - 1))
    assert calls == []


@pytest.mark.parametrize("at", [_LEAF, _LEAF + 1, 3 * _LEAF + 7, 5 * _LEAF - 1])
def test_tree_continuant_rejects_nonpositive_term_in_any_leaf(at):
    terms = [2] * (5 * _LEAF)
    terms[at] = 0
    with pytest.raises(ValueError, match="got 0"):
        continuant(terms)
    with pytest.raises(ValueError, match="got 0"):
        continuant(iter(terms))


@pytest.mark.parametrize("bad", [2.5, True, "5"])
def test_non_int_arguments_raise_type_error(bad):
    calls = [("n", fn) for fn in (
        run_lengths, diagonal_sum_fast, diagonal_sum_brute, row_sum_brute,
        row_sum_closed, triangle_row, triangle_row_parity, carlitz_sum)]
    calls += [("start", lambda v: list(iter_triangle_terms(v, 3))),
              ("stop", lambda v: list(iter_triangle_terms(0, v))),
              ("max_index", lambda v: generate_bfile("A114214", v)),
              ("max_n", lambda v: run_suite("thm2", v)),
              ("n", lambda v: TriangleRow(v, (), "exact"))]
    for name, call in calls:
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            call(bad)


def _d_window(method, start, size):
    """d(start..start + size - 1) from one of d's block sweeps, and from
    the per-index kernel."""
    got = list(islice(ROUTES["d"][method](start), size))
    return got, [diagonal_sum_fast(n) for n in range(start, start + size)]


@pytest.mark.parametrize("method", ["fast", "continuant"])
@pytest.mark.parametrize("c", sorted({1, 255, 256, 2**64 - 1, 2**64,
                                      *ROW_EDGES}))
def test_d_sweeps_across_block_edges(method, c):
    # Both d sweeps run blocks of 256 values of e(j) = d(2j), 512 terms
    # of d; check three blocks from just before, at and just after the
    # edge of block c.
    for start in (512 * c - 1, 512 * c, 512 * c + 1):
        got, want = _d_window(method, start, 3 * 512)
        assert got == want, start


# Blocks of e(j) = d(2j) whose row fits the packed 64-bit slots, while
# those on each side of it do not, for both d sweeps: found among
# alternating-bit c near 2**83.  The fast route's rows are Stern's, the
# continuant route's those after t(c); the bound falls at the same c.
D_FLIP = alternating(83) + 3


@pytest.mark.parametrize("method", ["fast", "continuant"])
def test_d_sweeps_across_the_packing_bound(method, block_paths):
    got, want = _d_window(method, 512 * (D_FLIP - 1), 3 * 512)
    assert got == want
    assert block_paths == [False, True, False]


@pytest.mark.parametrize("sweep, builds", [
    (ROUTES["d"]["fast"], 1), (ROUTES["stern"]["fast"], 1),
    (regular._rep_terms, 1), (ROUTES["d"]["continuant"], 2)])
def test_each_sweep_packs_its_columns_once(monkeypatch, sweep, builds):
    # A short window pays for its columns once per order of the byte
    # table it reads: d's continuant route reads one for each parity.
    packed = []
    columns_of = kernel._columns

    def counted(a, c):
        packed.append(len(a))
        return columns_of(a, c)

    monkeypatch.setattr(kernel, "_columns", counted)
    assert len(list(islice(sweep(10**6), 300))) == 300
    assert packed == [256] * builds


def test_packed_blocks_are_exact_at_the_bound():
    # Signed columns, and rows on both sides of the bound
    # |x| max|A| + |y| max|C| < 2**63: a block at the bound is packed,
    # one past it goes value by value, and both are exact.
    rng = random.Random(44)
    a = [rng.randrange(-2**20, 2**20) for _ in range(256)]
    c = [rng.randrange(1 - 2**12, 2**12) for _ in range(256)]
    a[7], c[9] = -2**20, 2**12 - 1  # the largest sizes
    columns = _columns(a, c)
    for y in (0, 1, -5, 2**40):
        for room in (0, 1):  # x at the bound, and one past it
            x = (2**63 - 1 - abs(y) * (2**12 - 1)) // 2**20 + room
            for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                got = _values(sx * x, sy * y, columns)
                assert isinstance(got, list) == (room == 0)
                assert list(got) == [sx * x * p + sy * y * q
                                     for p, q in zip(a, c)]


def test_packed_blocks_hold_values_next_to_the_slot_edges():
    # Values up to 2**63 - 2 in size, next to values of the other sign,
    # and 2**63 - 1 itself: no slot borrows from or carries into its
    # neighbour.
    a = [(-1) ** m * (2**62 + m) for m in range(256)]
    c = [(-1) ** (m // 3) * (2**62 - 257) for m in range(256)]
    assert _values(1, 1, _columns(a, c)) == [p + q for p, q in zip(a, c)]
    for x in (1, -1):
        assert _values(x, 5, _columns([2**63 - 1] * 256, [0] * 256)) == [
            x * (2**63 - 1)] * 256


def test_columns_past_a_slot_go_value_by_value():
    for big in (2**63, -2**63 - 1, 10**30):
        a = [1] * 256
        a[100] = big
        columns = _columns(a, list(range(256)))
        assert columns[2] is None
        assert list(_values(3, -2, columns)) == [3 * p - 2 * q for p, q in
                                                  zip(a, range(256))]
