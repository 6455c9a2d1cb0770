"""OEIS b-file generation, parsing, and regression comparison.

A b-file is the OEIS bulk-term format: one "<index> <value>" pair per
line, decimal, single space, no header.  Four sequences are exported
here, all indexed from 0:

    A119326  the triangle read by rows (linear index over entries)
    A114213  the parity triangle read by rows
    A114212  row sums of the parity triangle
    A114214  diagonal sums of the parity triangle

Each id is the stream of one route in ROUTES, the table of evaluation
routes behind the `seq` command: an endless stream terms(start) that
each reader cuts with its own range, so b-files stream a block of
records at a time.  Every route checks start at the call.  The fast
routes of d, r and stern are sweeps by blocks: d and stern from Stern's
rows (s(c), s(c+1)) and two columns of Stern's byte table
(kernel._stern_terms), r by blocks of the binary weight, each block's
terms one list of block 0's shifted by its weight (see
triangle._row_sum_terms).  The routes beside them, continuant, closed
and scan, check them term for term: closed and scan per index.  Every
route of d is a sweep of e(j) = d(2j) = d(2j + 1), repeated into d by
kernel._evens: the continuant route a block of 256 values at a time
from d's byte table (kernel._d_block_terms), the brute route the parity
diagonals by Pascal's rule on bitsets (triangle._diagonal_sum_terms),
and the recurrence route the 2-regular identities by a tower of
half-rate streams (regular._recurrence_terms).  Pascal's rule on
bitsets also gives the reference routes of r and stern: r's brute
route counts the parity rows' bits (triangle._pascal_row_sum_terms),
and stern's carlitz route the parity diagonals' bits, every top of
them (triangle._carlitz_terms).
The block sweeps of d, stern and the matrix representation are each
one call of kernel._sweep, which reads their byte table: one bit scan
per 2**16 values, and one byte matrix per block of 256.

The b-file layer is a stream of (index, value) records: records gives
a b-file's records, record_lines writes them, read_records reads them
back and compare_records checks them.  These per-record functions are
the reference for two block routes, which the CLI runs and which build
no pair per record: _text renders a block's lines from two columns, an
index range and a list of terms, with the index digits of each thousand
lines cut from one template (_LINES) and one conversion of index //
1000.  record_blocks(indices, values) writes the text of an index range
and a term stream that way, for `seq` and `bfile` alike, its blocks
growing from one record to at most twice the last, so a slow route's
first lines come out while it runs on; and compare_stream gives
compare_records' result over read_records from the text itself: a
block of the file that equals its rendered terms is never parsed.  Both
readers take the text with .read() in blocks of whole lines, and
_block_records parses a block: canonical records take one regex match
and one split, any other block goes line by line under the grammar
_RECORD.  Only to_decimal (from the kernel module) and
from_decimal convert ints to decimal text and back, at any length.  The
whole-file functions (generate_bfile, parse_bfile, ...) are views over
this stream.

Files downloaded from the OEIS may use a different starting index; the
comparison maps the i-th record of the file to the i-th term of the
local sequence, so a constant offset shift is reconciled rather than
reported as a mismatch.
"""

import io
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import count, islice
from types import MappingProxyType

from .kernel import (
    _d_block_terms,
    _d_terms,
    _require_index,
    _require_int,
    _stern_terms,
    stern,
    to_decimal,
)
from .regular import _recurrence_terms
from .triangle import (
    _ROWS,
    _carlitz_terms,
    _diagonal_sum_terms,
    _pascal_row_sum_terms,
    _row_sum_terms,
    _triangle_terms,
    row_sum_closed,
)

__all__ = [
    "BFile",
    "BFileComparison",
    "BFileParseError",
    "ROUTES",
    "SEQUENCES",
    "compare_bfile",
    "compare_records",
    "compare_stream",
    "from_decimal",
    "generate_bfile",
    "parse_bfile",
    "read_records",
    "record_blocks",
    "record_lines",
    "records",
    "serialize_bfile",
    "to_decimal",
]


class BFileParseError(Exception):
    """Raised when text does not parse as a b-file.

    line_no is 1-based; 0 means the file as a whole (e.g. no records).
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no
        self.message = message


class BFile(namedtuple("BFile", "sequence_id offset records")):
    """A parsed b-file: (index, value) records whose indices run up by
    one from offset, checked when built, also by _make and _replace."""

    __slots__ = ()

    def __new__(cls, sequence_id: str, offset: int,
                records: tuple[tuple[int, int], ...]):
        for pos, (index, _value) in enumerate(records):
            if index != offset + pos:
                raise ValueError(
                    f"record {pos} has index {to_decimal(index)}, "
                    f"expected {to_decimal(offset + pos)}"
                )
        return super().__new__(cls, sequence_id, offset, records)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _per_index(fn: Callable[[int], int]) -> Callable[[int], Iterator[int]]:
    def terms(start: int) -> Iterator[int]:
        _require_index("start", start)
        return map(fn, count(start))
    return terms


# Every evaluation route of every `seq` sequence, as an endless stream
# terms(start) of the terms from index start on; the first one listed is
# the default.  The routes of d, r and stern must agree term for term, and
# t-row's parity route gives its exact entries mod 2.
ROUTES = MappingProxyType({
    "d": MappingProxyType({
        "fast": _d_terms,
        "continuant": _d_block_terms,
        "brute": _diagonal_sum_terms,
        "recurrence": _recurrence_terms,
    }),
    "r": MappingProxyType({
        "fast": _row_sum_terms,
        "closed": _per_index(row_sum_closed),
        "brute": _pascal_row_sum_terms,
    }),
    "stern": MappingProxyType({
        "fast": _stern_terms,
        "scan": _per_index(stern),
        "carlitz": _carlitz_terms,
    }),
    "t-row": MappingProxyType(
        {mode: partial(_triangle_terms, mode=mode) for mode in _ROWS}),
})

# The OEIS ids with b-files: each is the stream of one `seq` route,
# indexed from 0.
SEQUENCES = MappingProxyType({
    "A119326": ("t-row", "exact"),
    "A114213": ("t-row", "parity"),
    "A114212": ("r", "fast"),
    "A114214": ("d", "fast"),
})


def _terms(sequence_id: str) -> Callable[[int], Iterator[int]]:
    if sequence_id not in SEQUENCES:
        raise ValueError(
            f"unknown sequence id {sequence_id!r}; "
            f"known: {', '.join(sorted(SEQUENCES))}"
        )
    which, route = SEQUENCES[sequence_id]
    return ROUTES[which][route]


def records(sequence_id: str, max_index: int) -> Iterator[tuple[int, int]]:
    """The lazy (i, term i) records of sequence_id for i in 0..max_index;
    both arguments are checked at the call."""
    terms = _terms(sequence_id)
    _require_int("max_index", max_index)
    if max_index < 0:
        raise ValueError(
            f"max index {to_decimal(max_index)} is below the sequence offset 0"
        )
    return zip(range(max_index + 1), terms(0))


def generate_bfile(sequence_id: str, max_index: int) -> BFile:
    """Build the b-file for sequence_id covering indices 0..max_index."""
    return BFile(sequence_id, 0, tuple(records(sequence_id, max_index)))


def from_decimal(digits: str) -> int:
    """int(digits) for an ASCII '-?[0-9]+' string of any length (leading
    zeros allowed), the inverse of to_decimal; any other text, also what
    int() would take (spaces, '_', '+', non-ASCII digits), raises
    ValueError."""
    negative = digits.startswith("-")
    body = digits[1:] if negative else digits
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"not a decimal integer: {digits!r}")
    value = _from_digits(body)
    return -value if negative else value


def _from_digits(digits):
    """int(digits) for ASCII digits: int() refuses strings past the
    int/str digit limit, so those are read in halves until each piece is
    within it."""
    try:
        return int(digits)
    except ValueError:
        pass
    k = len(digits) // 2
    return _from_digits(digits[:-k]) * 10**k + _from_digits(digits[-k:])


def record_lines(pairs: Iterable[tuple[int, int]]) -> Iterator[str]:
    """One "<index> <value>\n" line per pair, at any size."""
    for index, value in pairs:
        try:
            line = f"{index} {value}\n"
        except ValueError:  # a number past the int/str digit limit
            line = f"{to_decimal(index)} {to_decimal(value)}\n"
        yield line


# record_blocks writes at most this many records a block: it holds a
# block's values as a list, for its fallback, and blocks of 4096 wrote
# slower than blocks of 1024.  Each next block is sized to about
# _WRITE_CHARS characters by the mean line length of the last, so a
# block of long values holds only a few lines, and to at most twice the
# last, so a slow route's first lines are written while it runs on.
_WRITE_RECORDS = 1024
_WRITE_CHARS = 1 << 16


# The lines of the thousand indices 1000q .. 1000q + 999, "\0DDD %s\n"
# for DDD = 000 .. 999, 8 characters a line: _text puts the decimal of q
# in place of "\0" and formats the values into the "%s".  Ten lines are
# copied with each tens digit, and those hundred with each hundreds
# digit: about 10 us at each import, against over 100 us to format a
# thousand lines.
_TEN = "".join(f"\0HT{d} %s\n" for d in range(10))
_HUNDRED = "".join(_TEN.replace("T", d) for d in "0123456789")
_LINES = "".join(_HUNDRED.replace("H", d) for d in "0123456789")


def _flat(indices: range, values: list[int]) -> str:
    """The lines of _text with each index formatted beside its value."""
    flat = [0] * (2 * len(values))
    flat[0::2] = indices
    flat[1::2] = values
    return ("%s %s\n" * len(values)) % tuple(flat)


def _text(indices: range, values: list[int]) -> str:
    """The "<index> <value>\n" lines of two columns of equal length as
    one string, with no pair built per line; ValueError if a value is
    past the int/str digit limit.  %s, not %d, prints True as True.

    A range in steps of 1 from 0 up is rendered a thousand indices at a
    time.  From index 1000 on, the lines of each thousand are cut from
    _LINES, and one to_decimal(index // 1000) replaces their "\0"
    before the values are formatted in: no index is converted on its
    own, and no value's text is touched.  Indices below 1000, a
    negative start and other steps are formatted beside the values
    (_flat), where a negative index past the digit limit raises
    ValueError too."""
    if indices.step != 1 or indices.start < 0:
        return _flat(indices, values)
    q, m = divmod(indices.start, 1000)
    pieces = []
    pos = 0
    while pos < len(values):
        take = min(1000 - m, len(values) - pos)
        chunk = values[pos:pos + take]
        pieces.append(_LINES[8 * m:8 * (m + take)].replace(
            "\0", to_decimal(q)) % tuple(chunk) if q
            else _flat(range(m, m + take), chunk))
        pos += take
        q, m = q + 1, 0
    return "".join(pieces)


def record_blocks(indices: range, values: Iterable[int]) -> Iterator[str]:
    """The text of record_lines(zip(indices, values)) in blocks of whole
    lines: the first block one record, and each next one at most twice
    the last and _WRITE_RECORDS records, sized by the text of the last.
    A block with a value past the int/str digit limit goes line by line
    through record_lines, and the next block is one record; indices
    take their text from _text's template at any size (a negative one
    past the limit goes line by line too)."""
    values = iter(values)
    size = 1
    while chunk := list(islice(values, len(indices[:size]))):
        block, indices = indices[:len(chunk)], indices[len(chunk):]
        try:
            text = _text(block, chunk)
        except ValueError:  # a number past the int/str digit limit
            yield from record_lines(zip(block, chunk))
            size = 1
            continue
        yield text
        size = min(2 * len(chunk), _WRITE_RECORDS,
                   max(1, _WRITE_CHARS * len(chunk) // len(text)))


def serialize_bfile(bfile: BFile) -> str:
    return "".join(record_lines(bfile.records))


_RECORD = re.compile(r"[ \t]*(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*\r?")

# Characters read_records reads at a time.  The greedy star of
# _CANONICAL keeps a backtracking stack in proportion to the block it
# matches, and larger blocks read no faster.  8 KiB is also the chunk
# size of io.TextIOWrapper, so each read decodes the same bytes that
# line-by-line iteration would: a file that is both malformed and
# undecodable reports the same first error either way.
_BLOCK = 8192

# Lines of "<index> <value>" in ASCII digits and nothing else, all ended
# by LF or all by CRLF: a strict subset of what _RECORD accepts.  Two
# branches, not one "\r?", leave the LF branch as fast as it was.
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)*|(?:[0-9]+ [0-9]+\r\n)*")


def _blocks(stream: io.TextIOBase) -> Iterator[str]:
    r"""The text of stream.read() in blocks of whole lines: each read of
    _BLOCK characters is cut after its last "\n" and the rest carried to
    the next, so a line longer than a read is gathered whole.  The text
    after the last "\n", if any, is the last block."""
    parts = []
    while chunk := stream.read(_BLOCK):
        cut = chunk.rfind("\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        yield "".join(parts)
        parts = [chunk[cut:]]
    if tail := "".join(parts):
        yield tail


def _canonical_records(
        block: str, expected: int | None,
) -> tuple[list[int], list[int]] | None:
    """The (indices, values) lists of a block whose lines all match
    _CANONICAL, with indices consecutive from expected (from the first,
    if expected is None) and every field within the int/str digit limit;
    None for any other block."""
    if not _CANONICAL.fullmatch(block):
        return None
    fields = block.split()
    try:
        indices = list(map(int, fields[::2]))
        values = list(map(int, fields[1::2]))
    except ValueError:  # a field past the int/str digit limit
        return None
    first = indices[0] if expected is None else expected
    if indices != list(range(first, first + len(indices))):
        return None
    return indices, values


def _block_records(
        block: str, expected: int | None, line_no: int,
) -> tuple[list[int], list[int]]:
    """The (indices, values) lists of the records of block, a block of
    _blocks whose first line is line line_no + 1 of the file, with the
    first index expected (any, if None); raises BFileParseError."""
    canonical = _canonical_records(block, expected)
    if canonical is not None:
        return canonical
    indices, values = [], []
    for line in block.removesuffix("\n").split("\n"):
        line_no += 1
        match = _RECORD.fullmatch(line)
        if match is None:
            stripped = line.removesuffix("\r").strip(" \t")
            if not stripped or stripped.startswith("#"):
                continue
            raise BFileParseError(line_no, (
                f"expected 'index value', got {line!r}"
                if len(line.split()) != 2 else
                f"non-integer field in {line!r}"))
        try:
            index, value = int(match[1]), int(match[2])
        except ValueError:  # a field past the int/str digit limit
            index, value = map(from_decimal, match.groups())
        if expected is not None and index != expected:
            raise BFileParseError(
                line_no, f"index {to_decimal(index)} not consecutive "
                f"(expected {to_decimal(expected)})"
            )
        expected = index + 1
        indices.append(index)
        values.append(value)
    return indices, values


def read_records(stream: io.TextIOBase) -> Iterator[tuple[int, int]]:
    r"""The (index, value) records of a text stream, whose text is split
    into lines at "\n" only, whatever the stream's newline mode.

    A record matches _RECORD, with indices consecutive.  Any other line
    must be blank or a comment starting with '#' (OEIS files carry such
    comments) once spaces, tabs and a final "\r" are stripped.  Fields
    of any length are read, also past the interpreter's int/str digit
    limit.

    The stream is read in blocks of whole lines by _block_records: only
    a block that is not canonical goes line by line, and only that path
    accepts comments, tabs, signs and long fields, or raises
    BFileParseError.
    """
    expected = None
    line_no = 0
    for block in _blocks(stream):
        indices, values = _block_records(block, expected, line_no)
        # only the last block may lack a final "\n"
        line_no += block.count("\n")
        if indices:
            expected = indices[-1] + 1
        yield from zip(indices, values)
    if expected is None:
        raise BFileParseError(0, "no records")


def parse_bfile(text: str, sequence_id: str) -> BFile:
    """Parse b-file text, one record per line as read_records reads them."""
    pairs = tuple(read_records(io.StringIO(text)))
    return BFile(sequence_id, pairs[0][0], pairs)


class BFileComparison(
        namedtuple("BFileComparison", "sequence_id checked mismatch")):
    """checked records of a b-file against sequence_id; mismatch is
    (file index, file value, recomputed value) of the first
    disagreement, or None when every record matches."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.mismatch is None


def compare_records(sequence_id: str, records: Iterable) -> BFileComparison:
    """Check the i-th (index, value) record against term i of sequence_id."""
    values = _terms(sequence_id)(0)
    mismatch = None
    checked = 0
    for (index, file_value), computed in zip(records, values):
        checked += 1
        if file_value != computed and mismatch is None:
            mismatch = (index, file_value, computed)
    return BFileComparison(sequence_id, checked, mismatch)


def _counted(block: str, expected: int) -> bool:
    r"""Whether block is canonical records indexed from expected on: its
    value fields are ASCII digits, and _text renders those fields as
    strings beside their indices back into the block, so it ends in
    "\n" and holds no "\r".  Then its lines are its records, counted
    with no int() per record."""
    values = block.split()[1::2]
    digits = "".join(values)
    try:
        return (digits.isascii() and digits.isdigit() and block == _text(
            range(expected, expected + len(values)), values))
    except ValueError:  # a negative index past the digit limit
        return False


def compare_stream(sequence_id: str, stream: io.TextIOBase) -> BFileComparison:
    r"""compare_records(sequence_id, read_records(stream)), with the
    same result or BFileParseError, a block of text at a time.

    A block of L lines that ends in "\n" and holds no "\r" draws the
    next L terms and renders them by _text beside the L indices from the
    file's running index (from the first line's own index in the first
    block), with no pair built per record.  If that text is the block,
    all L records agree, with no parse.  Any other block is read by
    _block_records, as read_records reads it, and its values compared
    with the terms drawn for them; terms drawn for lines that held no
    record serve the next records.  Once a record disagrees, the rest
    of the file is only counted: by its text in a block that _counted
    accepts, with no int() per record, and by _block_records in any
    other, so its errors and line numbers are those of read_records.
    """
    terms = _terms(sequence_id)(0)
    drawn = []  # terms drawn for records not yet checked
    mismatch = None
    checked = 0
    expected = None
    line_no = 0
    for block in _blocks(stream):
        lines = block.count("\n")
        if mismatch is not None and _counted(block, expected):
            checked += lines
            line_no += lines
            expected += lines
            continue
        if mismatch is None and block[-1] == "\n" and "\r" not in block:
            drawn += islice(terms, max(lines - len(drawn), 0))
            try:
                first = (int(block[:block.find(" ")]) if expected is None
                         else expected)
                agree = _text(range(first, first + lines),
                              drawn[:lines]) == block
            except ValueError:  # no index first, or past the digit limit
                agree = False
            if agree:
                del drawn[:lines]
                checked += lines
                line_no += lines
                expected = first + lines
                continue
        indices, values = _block_records(block, expected, line_no)
        line_no += lines
        checked += len(values)
        if not indices:
            continue
        expected = indices[-1] + 1
        if mismatch is None:
            drawn += islice(terms, max(len(values) - len(drawn), 0))
            if values != drawn[:len(values)]:
                pos = next(pos for pos, (value, term)
                           in enumerate(zip(values, drawn)) if value != term)
                mismatch = (indices[pos], values[pos], drawn[pos])
            del drawn[:len(values)]
    if expected is None:
        raise BFileParseError(0, "no records")
    return BFileComparison(sequence_id, checked, mismatch)


def compare_bfile(bfile: BFile) -> BFileComparison:
    """Recompute every record of bfile and report the first disagreement:
    the i-th record, whatever its offset, is checked against term i."""
    return compare_records(bfile.sequence_id, bfile.records)
