"""The diagonal sums as a 2-regular sequence: scalar recurrences and a
matrix linear representation.

d(n) satisfies four identities that close the sequence under the maps
n -> 2n and n -> 2n+1:

    d(2n+1) = d(2n)
    d(4n+2) = 3 d(2n) -   d(4n)
    d(8n)   =  -d(2n) + 2 d(4n)
    d(8n+4) = 4 d(2n) -   d(4n)

Three evaluators are built from them.  Both scalar ones read the
identities on e(j) = d(2j), where they become

    e(2i+1) = 3 e(i) - e(2i),   e(4i) = 2 e(2i) - e(i),
    e(4i+2) = 4 e(i) - e(2i) = e(i) + e(2i+1),

so one step, _children, gives e(2i) and e(2i+1) from the pair
(e(i), e(i // 2)) in O(1) big-int operations, and d(n) = e(n >> 1).
_pair(i) carries the pair down the bits of i from (e(0), e(0)) = (1, 1),
d(0) = T(0, 0) = 1 being the one value in _BASE, so it takes O(log i)
big-int additions and holds two ints, and diagonal_sum_recurrence(n) is
its e(n >> 1).

The scalar recurrence's sweep, d's `recurrence` route (_recurrence_terms),
runs the same step over a tower of generators (_tower): each level
yields the pairs (e(j), e(j // 2)) for consecutive j, as the children of
the pairs of the level above it, which runs at half its rate, so a
window of W terms takes O(W) operations in all.  A level's first
parent pair is one _pair, its seed, and it starts the level above only
once the seed's two children are used, so the tower is at most about
log2(W) + 2 levels high whatever the start, and it holds a few ints
per level.  Neither scalar evaluator reads the continuant,
Stern or matrix routes.

The linear representation packs the same four identities into 2x2
integer matrices acting on the state vector v(n) = (d(2n), d(4n)):

    v(2n)   = M0 v(n),  M0 = [[ 0,  1], [-1,  2]]   (rows: d(4n), d(8n))
    v(2n+1) = M1 v(n),  M1 = [[ 3, -1], [ 4, -1]]   (rows: d(4n+2), d(8n+4))

with v(0) = (1, 1).  Coefficients are signed (the identities subtract),
so everything stays in plain signed Python ints; the readout is still
positive for every n.  Reading out d(n) uses d(n) = d(2*floor(n/2)) --
immediate for even n and exactly the first identity for odd n -- so
d(n) is component 0 of v(floor(n/2)).

The state is carried by one scan over the bits of n, one matrix-vector
product per bit, and kernel._bits_product either runs it over all
the bits or, past one leaf, multiplies v0 by the matrices of the bytes
of n as a balanced tree.  That is O(log n) big-int operations at a
subquadratic bit cost (see the kernel module).  A rep's byte table
is built the first time its state passes one leaf, in the kernel's
bounded cache keyed by m0 and m1, so every rep, _REP or another, gets
the table of its own matrices.  _REP's matrices have negative entries,
so its leaves always come from that table; a rep with small enough
nonnegative matrices takes the kernel's 64-bit lanes past their
crossover, as d and Stern do.  n = 0 has no bits, so v(0) is v0.

A range of states needs no product per state: _rep_terms, the matrix
side of `verify thm1`, gives each state's component 0, e(s) = d(2s),
by one call of the kernel's block sweep, kernel._sweep, which packs
the columns of the rep's byte table and takes one _bits_product per
2**16 states.  The sweep reads a byte's leading zeros,
so for a rep whose v0 is not fixed by m0 the states below 2**16 are
evaluated one at a time.  The packed values are signed, so a
representation that gives negative values gives them exactly.  Both
sweeps stream e alone, and kernel._evens repeats it into d.
"""

from collections import namedtuple
from itertools import chain, islice
from operator import itemgetter
from types import MappingProxyType

from .kernel import (
    _bits_product,
    _evens,
    _require_index,
    _require_ints,
    _sweep,
    diagonal_sum_fast,
    to_decimal,
)

__all__ = [
    "LinearRep",
    "derive_linear_rep",
    "diagonal_sum_recurrence",
    "linear_rep_eval",
    "linear_rep_state",
]

# d(0) = T(0, 0) = 1, by the definition: the one value the scalar
# recurrence does not derive.
_BASE = MappingProxyType({0: 1})


def _children(a, b, odd):
    """(e(2i), e(2i + 1)) from a = e(i), b = e(i // 2) and whether i is
    odd, where e(j) = d(2j)."""
    even = a + b if odd else a + a - b
    return even, 3 * a - even


def _pair(i):
    """(e(i), e(i // 2)), where e(j) = d(2j): the pair steps from
    (e(0), e(0)) at i' = 0 to i' = 2i' + bit by _children for each bit
    of i, most significant first."""
    a = b = _BASE[0]
    odd = 0
    for bit in map(int, bin(i)[2:]):
        a, b, odd = _children(a, b, odd)[bit], a, bit
    return a, b


def diagonal_sum_recurrence(n: int) -> int:
    """d(n) = e(n >> 1), from d(0) = _BASE[0] by the scalar identities
    (_pair): O(log n) big-int additions, memory linear in the bits of n."""
    _require_index("n", n)
    a = _pair(n >> 1)[0]
    if a < 0:
        raise RuntimeError(
            f"recurrence produced negative value {to_decimal(a)} "
            f"at index {to_decimal(n)}"
        )
    return a


def _tower(i):
    """The pairs (e(j), e(j // 2)) for j = 2i, 2i + 1, ..., where e(j) =
    d(2j): the _children of the pair _pair(i), then of those of the
    level above, _tower((i + 1) // 2), past its first for even i.  A
    generator's body runs only at its first next, so that level, even
    _tower(0) inside _tower(0), starts only once the seed's two children
    are used."""
    odd = i & 1
    parents = islice(_tower((i + 1) // 2), odd ^ 1, None)
    for a, b in chain((_pair(i),), parents):
        even, odd_child = _children(a, b, odd)
        yield even, a
        yield odd_child, a
        odd ^= 1


@_evens
def _recurrence_terms(j):
    """e(j), e(j+1), ..., with e(j) = d(2j), by the tower of the scalar
    identities, O(1) big-int operations a value amortized and a few
    ints per level of the tower."""
    return map(itemgetter(0), islice(_tower(j >> 1), j & 1, None))


def _require_two(name, items, kind="entries"):
    """ValueError unless the sequence items has 2 items."""
    if len(items) != 2:
        raise ValueError(f"{name} must have 2 {kind}, got {len(items)}")


class LinearRep(namedtuple("LinearRep", "v0 m0 m1")):
    """2x2 integer linear representation of the diagonal sums.

    State vector at n is (d(2n), d(4n)), the pair v0 at n = 0; m0/m1,
    pairs of rows, append a 0/1 bit to n; d(n) is component 0 of the
    state at floor(n/2).  v0 and each row must have 2 entries, m0 and
    m1 2 rows, and every entry must be an int (bool is not), checked
    when built, also by _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, v0, m0, m1):
        _require_ints("v0 entry", tuple(v0))
        _require_two("v0", tuple(v0))
        for name, rows in (("m0", m0), ("m1", m1)):
            _require_two(name, tuple(rows), "rows")
            for pos, row in enumerate(rows):
                _require_ints(f"{name} row {pos} entry", tuple(row))
                _require_two(f"{name} row {pos}", tuple(row))
        return super().__new__(cls, v0, m0, m1)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# verify's thm1 suite reads this directly, so a wrong representation shows
# up there as a counterexample rather than as derive_linear_rep's error.
_REP = LinearRep(v0=(1, 1), m0=((0, 1), (-1, 2)), m1=((3, -1), (4, -1)))


def derive_linear_rep() -> LinearRep:
    """The matrix representation, checked against the continuant route
    on 0..256 before it is handed out."""
    for n in range(257):
        got = linear_rep_eval(_REP, n)
        want = diagonal_sum_fast(n)
        if got != want:
            raise RuntimeError(
                f"linear representation disagrees with the continuant route "
                f"at n={n}: {to_decimal(got)} != {to_decimal(want)}"
            )
    return _REP


def _rep_scan(rep: LinearRep):
    """The scan of rep: the state after appending bits to the index,
    through m0 or m1 for each bit."""
    (a0, b0), (c0, d0) = rep.m0
    (a1, b1), (c1, d1) = rep.m1

    def scan(bits, x, y):
        for ch in bits:
            if ch == "1":
                x, y = a1 * x + b1 * y, c1 * x + d1 * y
            else:
                x, y = a0 * x + b0 * y, c0 * x + d0 * y
        return x, y

    return scan


def linear_rep_state(rep: LinearRep, n: int) -> tuple[int, int]:
    """State vector (d(2n), d(4n)): v0 times one matrix per bit of n,
    multiplied as a product tree past one leaf of bits."""
    _require_index("n", n)
    return _bits_product(rep.v0, n, _rep_scan(rep), readout=False)


def linear_rep_eval(rep: LinearRep, n: int) -> int:
    """d(n) read out of the state at floor(n/2)."""
    _require_index("n", n)
    return _bits_product(rep.v0, n >> 1, _rep_scan(rep))[0]


@_evens
def _rep_terms(j):
    """e(j), e(j+1), ..., where e(s) = d(2s) is component 0 of _REP's
    state v(s), a block of 256 states at a time.

    The state index s = 256c + m has the bits of c, then the byte m, so
    component 0 of v(s) is entry 0 of the row after c, v0 times the
    matrices of its bits, times the byte table's matrix of m: one
    kernel._sweep over the rep's scan.  If m0 moves v0, the leading
    zeros of a byte are not free, and the states below 2**16, whose rows
    the sweep reads with leading zeros, come one at a time.  _REP and
    _rep_scan are read here, at the call, so a rep or scan put in their
    place is what the stream runs.
    """
    rep = _REP
    scan = _rep_scan(rep)
    start = j if scan("0", *rep.v0) == tuple(rep.v0) else max(j, 2**16)
    head = (_bits_product(rep.v0, s, scan)[0] for s in range(j, start))
    return chain(head, _sweep(start, rep.v0, scan))
