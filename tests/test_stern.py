import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpascal import carlitz_sum, continuant, run_lengths, stern
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
