import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpascal import carlitz_sum, continuant, kernel, run_lengths, stern
from modpascal.bfile import ROUTES
from oracles import stern_naive


def alternating(k):
    """The k-bit number 1010...: every run has length 1."""
    return int("10" * (k // 2) + "1" * (k % 2), 2) if k else 0


# Past _LEAF bits stern multiplies leaf matrices as a product tree.
BIG_N = st.one_of(st.integers(0, 2**3000), st.integers(0, 3000).map(alternating))

# s(0..15), the defining recurrence unrolled by hand.
STERN_STREAM = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4]


def test_stern_stream_fixture():
    assert [stern(n) for n in range(16)] == STERN_STREAM


def test_stern_rejects_a_huge_negative_index_in_its_own_words():
    # str() refuses -10**5000, past CPython's int/str digit limit.
    with pytest.raises(ValueError, match=f"^n must be >= 0, got -1{'0' * 5000}$"):
        stern(-10**5000)


def test_stern_matches_recurrence():
    for n in range(4097):
        assert stern(n) == stern_naive(n)


def test_stern_satisfies_defining_recurrence():
    for n in range(2**16 + 1):
        assert stern(2 * n) == stern(n)
        assert stern(2 * n + 1) == stern(n) + stern(n + 1)
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(1, 1 << 64)
        assert stern(2 * n) == stern(n)
        assert stern(2 * n + 1) == stern(n) + stern(n + 1)


def test_stern_bridges_consecutive_diagonal_sums():
    from modpascal import diagonal_sum_fast

    for n in range(2**16 + 1):
        s = stern(2 * n + 1)
        assert diagonal_sum_fast(2 * n) == s
        assert diagonal_sum_fast(2 * n + 1) == s


def test_stern_rejects_negative():
    with pytest.raises(ValueError):
        stern(-1)


def test_consecutive_stern_values_are_coprime():
    import math

    for n in range(1, 2000):
        assert math.gcd(stern(n), stern(n + 1)) == 1


def test_carlitz_fixtures():
    assert carlitz_sum(0) == 1
    assert carlitz_sum(4) == 3
    assert carlitz_sum(6) == 3


def test_carlitz_sum_is_shifted_stern():
    for n in range(2049):
        assert carlitz_sum(n) == stern(n + 1)


def test_carlitz_rejects_negative():
    with pytest.raises(ValueError):
        carlitz_sum(-1)


def test_odd_stern_is_run_length_continuant():
    for n in range(1, 4097, 2):
        assert stern(n) == continuant(run_lengths(n))
    rng = random.Random(22)
    for _ in range(200):
        n = rng.getrandbits(200) | 1
        assert stern(n) == continuant(run_lengths(n))


@settings(deadline=None)
@given(BIG_N)
def test_tree_stern_is_run_length_continuant(n):
    m = 2 * n + 1
    assert stern(m) == continuant(run_lengths(m))


@pytest.mark.parametrize("bad", [2.5, True, "5"])
def test_stern_rejects_non_int(bad):
    with pytest.raises(TypeError, match="^n must be an int, got "):
        stern(bad)


def _stern_window(start, size):
    """The Stern sweep's terms s(start..start + size - 1) and those of the
    per-index kernel."""
    got = list(islice(ROUTES["stern"]["fast"](start), size))
    return got, [stern(n) for n in range(start, start + size)]


# Block indices c = 256h - 1, 256h and 256h + 1 around the edges where a
# block sweep scans the row after h = c >> 8 anew: from odd h - 1 to even
# h (h = 2, 2**48, 2**64) and from even to odd (h = 1, 2**48 + 1,
# 2**64 + 1).
ROW_EDGES = [256 * h + k for h in (1, 2, 2**48, 2**48 + 1, 2**64, 2**64 + 1)
             for k in (-1, 0, 1)]


@pytest.mark.parametrize("c", sorted({1, 255, 256, 2**64 - 1, 2**64,
                                      *ROW_EDGES}))
def test_stern_sweep_across_block_edges(c):
    # Block c of the Stern sweep is the row (s(c), s(c+1)), the row after
    # c >> 8 times the byte matrix of c & 255, times two columns of
    # Stern's byte table; check three blocks from just before, at and
    # just after its edge.
    for start in (256 * c - 1, 256 * c, 256 * c + 1):
        got, want = _stern_window(start, 3 * 256)
        assert got == want, start


# The row (s(c), s(c+1)) of this block fits the packed 64-bit slots
# (|x| max|A| + |y| max|C| < 2**63), and those of the blocks on each side
# of it do not: found among alternating-bit c near 2**84, where Stern's
# values are largest for their bit length.
STERN_FLIP = alternating(84) - 3


def test_stern_sweep_across_the_packing_bound(block_paths):
    got, want = _stern_window(256 * (STERN_FLIP - 1), 3 * 256)
    assert got == want
    assert block_paths == [False, True, False]


def test_stern_sweep_scans_once_and_steps_once_a_block(monkeypatch):
    # 3000 terms from 77 into block 2**56 span 13 blocks, all of h =
    # 2**48: one bit scan for the row after h, and one byte matrix step
    # to each block's row, evaluated once.
    start = 2**64 + 77
    want = [stern(n) for n in range(start, start + 3000)]
    calls = Counter()
    for name in ("_bits_product", "_values"):
        def counted(*args, name=name, fn=getattr(kernel, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(kernel, name, counted)
    assert list(islice(ROUTES["stern"]["fast"](start), 3000)) == want
    assert calls == {"_bits_product": 1, "_values": 13}
