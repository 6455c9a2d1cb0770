"""Run lengths, continuants and Stern's sequence: the fast routes' kernel.

The run lengths of a binary string are the lengths of its maximal blocks
of equal symbols, e.g. 111000011111 -> (3, 4, 5).  For an integer n >= 1
the run lengths of its binary expansion are read most-significant-first,
so they alternate 1-run, 0-run, 1-run, ... starting with a 1-run; n = 0
maps to the empty sequence.  run_lengths reads them off the transitions
of n: each 1 bit of n ^ (n >> 1) starts a run, so splitting its binary
text at the 1s gives one piece per run, one shorter than the run.

The continuant K(m_0, ..., m_k) of a sequence of positive integers is
the numerator of the continued fraction [m_0; m_1, ..., m_k].  It obeys

    K() = 1,  K(m_0) = m_0,
    K(m_0..m_j) = m_j * K(m_0..m_{j-1}) + K(m_0..m_{j-2}),

and is invariant under reversing the sequence.  Equivalently, K is the
top-left entry of the product of the 2x2 matrices [[m_j, 1], [1, 0]].

The diagonal sum d(n) of the mod-2 triangle (A114214) equals the
continuant of the run lengths of n, which turns an O(n) sum over a
triangle diagonal into O(log n) big-int operations.  The empty-sequence
convention K() = 1 makes this hold at n = 0 as well, where the diagonal
is the single entry T(0, 0) = 1.

Stern's diatomic sequence is defined by s(0) = 0, s(1) = 1, s(2n) = s(n),
s(2n+1) = s(n) + s(n+1).  It ties the diagonal sums to the ordinary
Pascal triangle mod 2: d(2n) = d(2n+1) = s(2n+1), and by a result of
Carlitz

    s(n+1) = sum over k <= n/2 of (C(n - k, k) mod 2),

the parity diagonal of Pascal's triangle (triangle.carlitz_sum).  For
odd n, s(n) also equals the continuant of the binary run lengths of n,
but stern never goes through continuant(): its scan, _stern_scan, is
its own recurrence, so the two stay independent routes to the same
values.

The kernel under all three fast routes (d and Stern here, and the
matrix representation in the regular module) is _bits_product.  Each
route states its recurrence once, as a scan that carries a row (x, y)
through part of its sequence.  Up to _LEAF items the scan is the whole
computation.  Past that, _bits_product multiplies the start row by the
matrices of the leaves of n, 64 bits each, as a balanced tree
(_row_product), and finds those matrices in one of two ways:

  - by bytes: _byte_table turns a route's scan into one 2x2 matrix per
    byte value, built the first time a route's n passes one leaf or
    one of its block sweeps is called, and kept in one small cache
    keyed by the scan's two one-bit matrices,
    and the matrices of each leaf's eight bytes are multiplied;
  - by lanes, past _LANE_LEAVES leaves: leaf i is lane i, 64 bits wide,
    of four big ints that hold its matrix, and 64 broadword steps, one
    per bit position, apply M0 or M1 in every lane at once
    (_lane_leaves).  The step is one function compiled from the scan's
    two one-bit matrices, kept beside the byte table (_lane_step).  A
    lane holds every partial product only if both matrices are
    nonnegative and max(N8**8, N8**7 * N1**7) < 2**64, where N8 and N1
    are the largest row sums of the byte table and of the one-bit
    matrices (_lanes_fit).  N8 is 55 for d and for Stern, so both take
    lanes; _REP has negative entries and N8 = 233, so it keeps the
    bytes, as does every representation that fails the test.

The term route, continuant(), cuts its terms into leaves of _LEAF and
takes each leaf's matrix from two scans.
Folding left to right multiplies an ever-growing accumulator by a small
term each time, a cost quadratic in the bit length b of the result; the
tree multiplies operands of equal size, so CPython's Karatsuba multiply
brings it down to O(b^1.585).

A range costs no product per term.  Every sweep of d, Stern and the
matrix representation runs by blocks of 256 values: with c = j >> 8,
value j is entry 0 of the row after the bits of c and then the byte
j & 255, that is x A(m) + y C(m) for the row (x, y) after c and two
columns A, C of the route's byte table (the 2-regular block evaluation,
Allouche & Shallit, Automatic Sequences, 2003, ch. 16).  _values
evaluates a block.  Every sweep is one call of _sweep, the only code
that knows how a block reads the byte table: it packs the columns of
the table, in the order the blocks read it, once per call, entry m in
64-bit slot m of one int each (_columns), and while
|x| max|A| + |y| max|C| < 2**63 a block is x PA + y PC, two big-int
multiplies, read back as 256 signed C int64s through one bias constant
(_BIAS), negative values included.  Past that bound, which d's and
Stern's rows reach at starts of about 2**88, and for columns whose
entries do not fit a slot, each value is two C-level multiplies and an
addition, exact at any size.

_sweep is also the one row source.  Write the block index c as 256h + b
with b < 256: the bits of c are those of h and then the byte b, so the
row after c is the row after h times b's byte matrix, four
big-by-small multiplies, and one _bits_product gives the row after h
for 256 blocks, 2**16 values.  Two flags say what a sweep reads.  With
gray, d's continuant route (_d_block_terms) scans the Gray code
t(c) = c ^ (c >> 1), whose top bits are t(h) and whose low byte is
b ^ (b >> 1) ^ ((h & 1) << 7), so the table is read in that order, one
for each parity of h.  With pair, a value is the sum of the entries of
its row, not entry 0: d's fast route (_d_terms) reads Stern's rows
(s(c), s(c+1)), as e(j) = d(2j) = s(j) + s(j+1), so its columns are
entries 0 + 1 and 2 + 3 of Stern's table, and d's continuant route
reads d's table so too.  Every d sweep streams e, and _evens alone
repeats it into d: the fast streams of bfile.ROUTES.
"""

import sys
from collections.abc import Iterable
from functools import lru_cache, wraps
from itertools import chain, count, cycle, islice, tee, zip_longest
from operator import add

__all__ = [
    "continuant",
    "diagonal_sum_fast",
    "run_lengths",
    "runs_to_int",
    "stern",
    "to_decimal",
]

# Characters of n ^ (n >> 1)'s text that run_lengths splits at a time:
# the pieces of two chunks at most are alive at once.
_CHUNK = 1024

_plus_one = (1).__add__

# Terms, or bits, per leaf of the product tree: sequences up to this
# long are scanned in one pass.  For bits it must be 8 times a power of
# two, so that pairing byte matrices ends at one matrix per leaf, and it
# is the width of a lane of _lane_leaves, read back as a C uint64.
_LEAF = 64

# Leaves of n past which _bits_product finds every leaf's matrix at once
# in 64-bit lanes (_lane_leaves), not from byte tables.  Measured in
# process on CPython 3.11 (x86-64), the time of a _bits_product call by
# lanes over its time by bytes, min of 15, random and alternating n:
# d 1.18-1.22 at 12 leaves, 0.98-1.14 at 16, 0.95-1.00 at 20, 0.88-0.92
# at 24 and 0.80 at 32; Stern 1.25-1.31, 1.04-1.09, 0.99-1.00,
# 0.88-0.91 and 0.80-0.85.
_LANE_LEAVES = 24

# The step that reads the lanes of a to_bytes in the host's byte order
# from the most significant one.
_FIRST = -1 if sys.byteorder == "little" else 1

# 2**63 in each of the 256 64-bit slots of a packed block (_values).
_BIAS = int.from_bytes(b"\x80\0\0\0\0\0\0\0" * 256, "big")

_ONE = (1, 0, 0, 1)  # the identity matrix, as (a, b, c, d) = [[a, b], [c, d]]

# The column (1, 0) as a matrix with a zero second column: the last
# factor of a product tree whose caller keeps only entry 0 of its row.
_READOUT = (1, 0, 0, 0)


def _require_int(name, value):
    """TypeError unless value is an int (bool is not)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _require_ints(name, values):
    """_require_int for each item of the sequence values, as one test of
    the set of their types; the TypeError names the first bad item."""
    if not set(map(type, values)) <= {int}:
        for pos, value in enumerate(values):
            _require_int(f"{name} {pos}", value)


def _require_index(name, value):
    """_require_int, then ValueError if value is negative."""
    _require_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {to_decimal(value)}")


def to_decimal(value: int) -> str:
    """str(value) at any size: str() refuses ints past the int/str digit
    limit, so those are split by a power of ten near half their digits
    until each piece is within it.  Messages that quote a number format
    it with this, so a huge bad argument gets the library's own error."""
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + to_decimal(-value)
    k = value.bit_length() * 3 // 20  # about half its digits
    high, low = divmod(value, 10**k)
    return to_decimal(high) + to_decimal(low).zfill(k)


def _mul(x, y):
    """Product x @ y of 2x2 matrices given as 4-tuples like _ONE."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _row_product(row, mats):
    """The row vector row @ M_0 @ M_1 @ ... for an iterable of matrices,
    multiplied as a balanced product tree.

    Adjacent pairs are multiplied level by level until one matrix is
    left, so both operands of every multiply are about the same size.
    The row enters first, as a matrix whose second row is zero:
    multiplying by 0 is free, so the products down the tree's left
    spine cost half.  A caller that keeps only entry 0 ends mats with
    _READOUT, whose second column is zero: then the products down the
    right spine cost half too, and the root 2 multiplies, not 4.  The
    bottom level is paired as the matrices arrive, so the iterable is
    never held as a list.
    """
    mats = chain([(*row, 0, 0)], mats)
    while True:
        pairs = iter(mats)
        mats = [_mul(x, y) for x, y in zip_longest(pairs, pairs, fillvalue=_ONE)]
        if len(mats) == 1:
            return mats[0][:2]


@lru_cache(maxsize=4)
def _doubled(ones):
    """The 256 byte matrices from ones, the one-bit matrices of bits 0
    and 1, and their lane step (_lane_step), or None where their leaves
    do not fit 64-bit lanes (_lanes_fit).  Each doubling pairs every
    entry (the high bits) with every entry (the low bits), so
    4 + 16 + 256 products build the table.  The library's only cache:
    keyed by content, so every scan with the same one-bit matrices
    shares a table and a step, and bounded, as d, Stern, _REP and one
    other representation need four."""
    table = ones
    for _ in range(3):
        table = tuple(_mul(high, low) for high in table for low in table)
    return table, _lane_step(ones) if _lanes_fit(ones, table) else None


def _one_bit(scan):
    """The one-bit matrices (M0, M1) of a bit scan, each from its rows
    scan(bit, 1, 0) and scan(bit, 0, 1)."""
    return tuple(scan(bit, 1, 0) + scan(bit, 0, 1) for bit in "01")


def _byte_table(scan):
    """The matrices of a bit scan for the 256 bytes, indexed by byte
    value, bits most significant first, from its two one-bit matrices."""
    return _doubled(_one_bit(scan))[0]


def _row_sum(mats):
    """The largest row sum of the matrices mats: their entries in pairs."""
    entries = chain.from_iterable(mats)
    return max(map(add, entries, entries))


def _lanes_fit(ones, table):
    """Whether a leaf's lanes hold every partial product of its one-bit
    matrices, and every candidate a step discards: both one-bit matrices
    are nonnegative, and with N1 and N8 the largest row sums of those
    and of the byte table, max(N8**8, N8**7 * N1**7) < 2**64."""
    if min(chain.from_iterable(ones)) < 0:
        return False
    n1, n8 = _row_sum(ones), _row_sum(table)
    return max(n8**8, n8**7 * n1**7) < 2**_LEAF


def _term(p, q, x, y):
    """The source text of p x + q y for ints p, q >= 0 and the names x
    and y: a coefficient 0 drops its name and 1 takes no multiply."""
    parts = [v if k == 1 else f"{k} * {v}" for k, v in ((p, x), (q, y)) if k]
    return f"({' + '.join(parts)})" if parts else "0"


def _lane_column(col0, col1, x, y, temp):
    """The source text of one output column of the lane step in every
    lane at once, from its coefficients (p, q) of x and y in M0 and in
    M1, and whether it reads not1, the mask of the lanes whose bit is 0.
    one1 has the 64 bits set of each lane whose bit is 1.

    Where M0 and M1 agree the column is one linear combination.  Where
    one matrix's column dominates the other's, it is the smaller plus
    the nonnegative difference in the lanes of the larger's bit.
    Otherwise each lane keeps one of two candidates by a select, through
    the name temp."""
    if col0 == col1:
        return _term(*col0, x, y), False
    for mask, (lo, hi) in (("not1", (col1, col0)), ("one1", (col0, col1))):
        if lo[0] <= hi[0] and lo[1] <= hi[1]:
            delta = _term(hi[0] - lo[0], hi[1] - lo[1], x, y)
            return f"{_term(*lo, x, y)} + ({delta} & {mask})", mask == "not1"
    v0, v1 = _term(*col0, x, y), _term(*col1, x, y)
    return f"({temp} := {v0}) ^ (({temp} ^ {v1}) & one1)", False


def _lane_step(ones):
    """The lane step of the one-bit matrices ones = (M0, M1), and whether
    it reads not1: step(x1, y1, x2, y2, one1, not1) applies M0 or M1 to
    both rows of every lane, by the columns of _lane_column.  The step is
    one function, compiled from their source text with every coefficient
    in place, so a step makes one Python call."""
    m0, m1 = ones
    columns = [_lane_column(m0[k::2], m1[k::2], f"x{row}", f"y{row}",
                            f"t{row}{k}")
               for row in (1, 2) for k in (0, 1)]
    text = ", ".join(source for source, _ in columns)
    # the text holds only ints and the names above
    step = eval(f"lambda x1, y1, x2, y2, one1, not1: ({text})", {})
    return step, any(reads for _, reads in columns)


def _lane_leaves(n, leaves, lanes):
    """The matrices of the low leaves of n, most significant first,
    from one scan of their bits in 64-bit lanes (broadword arithmetic,
    Knuth, TAOCP 4A, 7.1.3).

    Leaf i, bits 64i..64i+63 of n, is lane i of four ints: the rows of
    its matrix from (1, 0) and from (0, 1).  Step j = 63..0 reads bit j
    of every lane into one mask and applies M0 or M1 to every lane at
    once, by the step of lanes = _lane_step(ones), so each step is a few
    big-int operations whatever the number of leaves.  The lanes are
    read back with one to_bytes each, in the host's byte order.
    """
    step, reads_not1 = lanes
    one = int.from_bytes(b"\1\0\0\0\0\0\0\0" * leaves, "little")  # 1 a lane
    every = (1 << leaves * _LEAF) - 1 if reads_not1 else 0  # for not1
    x1 = y2 = one
    y1 = x2 = 0
    for j in range(_LEAF - 1, -1, -1):
        m = (n >> j) & one
        m = (m << _LEAF) - m  # m * (2**64 - 1), a shift being cheaper
        x1, y1, x2, y2 = step(x1, y1, x2, y2, m, m ^ every if every else None)
    views = (memoryview(v.to_bytes(leaves * 8, sys.byteorder)).cast("Q")
             for v in (x1, y1, x2, y2))
    return zip(*(v[::_FIRST] for v in views))


def _bits_product(row, n, scan, readout=True):
    """The row (x, y) after the bits of n, most significant first,
    starting from row.  With readout, the default, the caller keeps only
    x, and past one leaf y comes back as 0; readout=False gives the
    whole row.

    scan(bits, x, y) is a route's recurrence over a bit string.  Up to
    _LEAF bits it is the whole computation, and n = 0 has no bits, so
    its row is row itself.  Past that, the top n.bit_length() % _LEAF
    bits are scanned, since a start row need not be fixed by the 0-bit
    matrix, and the bits after them make whole leaves of _LEAF bits.
    _row_product multiplies the leaves' matrices as a product tree, with
    _READOUT last for a readout.  Up to _LANE_LEAVES leaves, and for a
    scan whose leaves do not fit 64-bit lanes (_lanes_fit), each byte of
    n is looked up in _byte_table, and the byte matrices are paired as
    they arrive, up to one per leaf, so only the leaves' level is ever
    held as a list.  Past that, _lane_leaves gives every leaf's matrix
    from 64 big-int steps, one per bit position of a leaf, which beats
    the 7 small products per leaf of the byte pairing.
    """
    size = n.bit_length()
    if size <= _LEAF:
        x, y = row  # a faster call than scan(bits, *row) on small inputs
        return scan(bin(n)[2:] if n else "", x, y)
    body = size - size % _LEAF  # the bits of the whole leaves
    if body < size:
        row = scan(bin(n >> body)[2:], *row)
    table, lanes = _doubled(_one_bit(scan))
    leaves = body // _LEAF
    if lanes and leaves > _LANE_LEAVES:
        mats = _lane_leaves(n, leaves, lanes)
    else:
        # byteorder is passed, as Python 3.10 requires
        data = (n & ((1 << body) - 1)).to_bytes(body // 8, "big")
        mats = map(table.__getitem__, data)
        width = 8  # bits per matrix
        while width < _LEAF:  # the same iterator twice: adjacent pairs
            mats = map(_mul, mats, mats)
            width *= 2
    return _row_product(row, chain(mats, (_READOUT,) if readout else ()))


def _chunk_runs(text):
    """run_lengths of the n with text = bin(n ^ (n >> 1)), as iterables
    to chain, from one split of each _CHUNK characters.  A run that
    crosses a chunk's edge is carried, as its length so far, into the
    next chunk's first piece."""
    run = 1  # text[2] is the 1 that starts the first run
    for start in range(3, len(text), _CHUNK):
        pieces = text[start:start + _CHUNK].split("1")
        if len(pieces) > 1:
            yield run + len(pieces[0]),
            yield map(_plus_one, map(len, islice(pieces, 1, len(pieces) - 1)))
            run = 1
        run += len(pieces[-1])
    yield run,


def run_lengths(n: int) -> tuple[int, ...]:
    """Run lengths of the binary expansion of n, most significant first.

    Each 1 of n ^ (n >> 1) starts a run, so the runs are the pieces of
    its binary text split at "1", each plus 1, with no Python step per
    run.  Past _CHUNK characters the text is split chunk by chunk, so
    the memory beside the result is that of a chunk's pieces.
    """
    _require_index("n", n)
    if n == 0:
        return ()
    text = bin(n ^ (n >> 1))
    if len(text) <= 3 + _CHUNK:
        return tuple(map(_plus_one, map(len, text[3:].split("1"))))
    return tuple(chain.from_iterable(_chunk_runs(text)))


def runs_to_int(runs: Iterable[int]) -> int:
    """Rebuild the integer whose binary run lengths are `runs`.

    Inverse of run_lengths: blocks alternate 1s, 0s, 1s, ... starting
    with 1s; the empty sequence gives 0.
    """
    runs = tuple(runs)
    _require_ints("run length", runs)
    bits = []
    symbol = "1"
    for length in runs:
        if length < 1:
            raise ValueError(
                f"run lengths must be >= 1, got {to_decimal(length)}")
        bits.append(symbol * length)
        symbol = "0" if symbol == "1" else "1"
    if not bits:
        return 0
    return int("".join(bits), 2)


def _continuant_scan(terms, p, q):
    """The row (p, q) times [[m, 1], [1, 0]] for each term m: from (1, 0),
    p is K of the terms so far and q is K of one term fewer."""
    for term in terms:
        if term < 1:
            raise ValueError(
                f"continuant terms must be >= 1, got {to_decimal(term)}")
        p, q = term * p + q, p
    return p, q


def continuant(m: Iterable[int]) -> int:
    """Continuant K(m_0, ..., m_k) of a sequence of positive integers.

    The two-term linear recurrence, with denominators of the underlying
    continued fraction never formed.  Past _LEAF terms, each leaf of
    _LEAF terms is scanned from both unit rows, which gives the two rows
    of its matrix, and the leaves are multiplied as a product tree.
    O(k) big-int operations either way.
    """
    terms = tuple(m)
    _require_ints("continuant term", terms)
    if len(terms) <= _LEAF:
        return _continuant_scan(terms, 1, 0)[0]
    leaves = (terms[i:i + _LEAF] for i in range(0, len(terms), _LEAF))
    return _row_product((1, 0), chain((
        _continuant_scan(part, 1, 0) + _continuant_scan(part, 0, 1)
        for part in leaves), (_READOUT,)))[0]


def _d_scan(bits, p, q):
    """The row (p, q) times F = [[1, 1], [1, 0]] for each 1 bit and
    L = [[1, 0], [1, 1]] for each 0 bit of bits, the run starts of n
    (the bits of n ^ (n >> 1))."""
    for ch in bits:
        if ch == "1":
            p, q = p + q, p
        else:
            p += q
    return p, q


def diagonal_sum_fast(n: int) -> int:
    """d(n), the continuant of the run lengths of n, scanned over the
    bits of t = n ^ (n >> 1), in O(log n) big-int operations and
    subquadratic in the bit length of n.

    Each 1 bit of t starts a run of n, so a run of length m is the bits
    1 0^(m-1) of t, with t's top bit at n's.  Since L^k = [[1, 0], [k, 1]],
    F L^(m-1) = [[1 + (m - 1), 1], [1, 0]] = [[m, 1], [1, 0]], the
    continuant's matrix for the term m, so the product of F and L over
    the bits of t is the continuant's product over the runs of n, and
    from the row (1, 0) its first entry is K of the runs.  t = 0 has no
    bits, so d(0) is 1 = K().
    """
    _require_index("n", n)
    return _bits_product((1, 0), n ^ (n >> 1), _d_scan)[0]


def _evens(sweep):
    """The d stream terms(start) of sweep(j), an endless stream of
    e(j) = d(2j), e(j+1), ...: as d(2j + 1) = d(2j), it runs the sweep
    from j = start >> 1, gives each value twice, and drops the first for
    odd start.  start is checked at the call, not at the first term."""
    @wraps(sweep)
    def terms(start):
        _require_index("start", start)
        twice = chain.from_iterable(zip(*tee(sweep(start >> 1))))
        return islice(twice, start & 1, None)
    return terms


def _pack(column):
    """The ints of column, each below 2**63 in size, as one int with
    entry i in 64-bit slot i in the order that to_bytes in the host's
    byte order reads back.  array("q") holds each entry in two's
    complement; XOR with _BIAS makes slot i entry i + 2**63, with no
    borrow between slots, and subtracting _BIAS leaves the signed sum
    of entry i times 2**(64 i).  array is imported here, so that
    importing the CLI does not load it."""
    from array import array
    return (int.from_bytes(array("q", column), sys.byteorder) ^ _BIAS) - _BIAS


def _columns(a, c):
    """The columns (A, C) of a block sweep, as _values reads them: with
    each packed (_pack) and the largest size of its entries, or with
    None in their place if an entry does not fit a 64-bit slot."""
    sizes = [max(max(column), -min(column)) for column in (a, c)]
    if max(sizes) >= 2**63:
        return a, c, None
    return a, c, (_pack(a), _pack(c), *sizes)


def _values(x, y, columns):
    """The list or iterator of x A + y C for the block columns (A, C)
    (_columns).

    If |x| max|A| + |y| max|C| < 2**63, every value fits a signed 64-bit
    slot, and the block is x PA + y PC for the packed columns: two
    big-int multiplies and an addition for the whole block.  Adding
    _BIAS makes slot i value i + 2**63, in [0, 2**64), so no slot
    borrows from the next, and XOR with _BIAS leaves each value in two's
    complement, read back by to_bytes in the host's byte order and a
    cast to C int64s, negative values included.  Otherwise each value
    is two C-level multiplies and one addition, exact at any size."""
    a, c, packed = columns
    if packed:
        pa, pc, size_a, size_c = packed
        if abs(x) * size_a + abs(y) * size_c < 2**63:
            block = (x * pa + y * pc + _BIAS) ^ _BIAS
            return memoryview(block.to_bytes(8 * len(a), sys.byteorder)
                              ).cast("q").tolist()
    return map(add, map(x.__mul__, a), map(y.__mul__, c))


def _sweep(j, row, scan, pair=False, gray=False):
    """v(j), v(j+1), ..., where v(256c + m) is entry 0 of the row after
    the bits of c from row and then the byte m, or with pair the sum of
    its two entries; with gray, the bits of the Gray code t(c) = c ^
    (c >> 1) and then t(j)'s low byte, m ^ (m >> 1) ^ ((c & 1) << 7).

    The only code that knows how a block reads _byte_table(scan): in
    byte order, or with gray in the order m -> m ^ (m >> 1) ^ (p << 7)
    for each parity p.  The columns (A, C) of each order are its
    entries 0 and 2, or with pair the sums 0 + 1 and 2 + 3, packed once
    (_columns), so that v(256c + m) = x A(m) + y C(m) for the row (x, y)
    after c (or t(c)) and the order of c's parity, which _values
    evaluates a block at a time.

    With c = 256h + b, b < 256, one _bits_product gives the row after h
    (or t(h)) for the 256 blocks of h, and each block's row is that row
    times entry b of the order of h's parity.  At h = 0 the byte's
    leading zeros are read too, so row must be fixed by the scan's 0-bit
    matrix, as d's, Stern's and _REP's start rows are.
    """
    table = _byte_table(scan)
    orders = ([tuple(table[m ^ (m >> 1) ^ flip] for m in range(256))
               for flip in (0, 0x80)] if gray else [table])
    columns = []
    for a, b, c, d in (zip(*order) for order in orders):
        if pair:
            a, c = tuple(map(add, a, b)), tuple(map(add, c, d))
        columns.append(_columns(a, c))

    def blocks(low):
        for h in count(j >> 16):
            x, y = _bits_product(row, h ^ (h >> 1) if gray else h, scan,
                                 readout=False)
            # the order of h's parity, and the columns of each c's
            reads = zip(orders[h % len(orders)], cycle(columns))
            for (a, b, c, d), cols in islice(reads, low, None):
                yield _values(x * a + y * c, x * b + y * d, cols)
            low = 0

    return islice(chain.from_iterable(blocks(j >> 8 & 255)), j & 255, None)


@_evens
def _d_block_terms(j):
    """e(j), e(j+1), ..., with e(j) = d(2j), a block of 256 at a time.

    With t(j) = j ^ (j >> 1), t(2j) is t(j) << 1 | (j & 1), and F and L
    both send the row (x, y) to a row whose entry 0 is x + y, so e(j) is
    the sum of the row after the bits of t(j).  Write j = 256c + m with
    m < 256: t(j) >> 8 = t(c), and the low byte of t(j) is
    m ^ (m >> 1) ^ ((c & 1) << 7).  So with (x, y) the row after t(c),

        e(256c + m) = x A(m) + y C(m)

    for A and C the sums of entries 0 + 1 and 2 + 3 of d's byte matrices
    of those low bytes, the 2-regular block evaluation (Allouche &
    Shallit, Automatic Sequences, 2003, ch. 16): _sweep with pair and
    gray.  At c = 0, t(c) has no bits, so its row is (1, 0).
    """
    return _sweep(j, (1, 0), _d_scan, pair=True, gray=True)


def _stern_scan(bits, a, b):
    """The row (s(m), s(m+1)) after appending bits to the prefix m.

    A 0 bit maps it to (s(2m), s(2m+1)) = (a, a+b) and a 1 bit to
    (s(2m+1), s(2m+2)) = (a+b, b): the Stern-Brocot matrices
    L = [[1,0],[1,1]] and R = [[1,1],[0,1]] acting on the pair.
    """
    for ch in bits:
        if ch == "1":
            a += b
        else:
            b += a
    return a, b


def stern(n: int) -> int:
    """s(n) in O(log n) big-int operations, scanning the bits of n
    most-significant-first from (s(0), s(1)) = (0, 1).  No recursion,
    no memo table."""
    _require_index("n", n)
    return _bits_product((0, 1), n, _stern_scan)[0]


def _stern_terms(start: int):
    """The endless stream s(start), s(start+1), ..., a block of 256 at a
    time, each s(256c + m) entry 0 of Stern's row (s(c), s(c+1)) times
    the byte matrix of m (_sweep); start is checked at the call, not at
    the first term."""
    _require_index("start", start)
    return _sweep(start, (0, 1), _stern_scan)


@_evens
def _d_terms(j):
    """e(j), e(j+1), ..., with e(j) = d(2j) = s(2j+1) = s(j) + s(j+1),
    the sum of the entries of Stern's row after j: Stern's sweep
    (_sweep) with pair."""
    return _sweep(j, (0, 1), _stern_scan, pair=True)
