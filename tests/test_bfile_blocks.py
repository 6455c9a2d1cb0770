"""The block routes of the b-file layer against the per-record routes:
record_blocks against record_lines, and compare_stream against
compare_records over read_records."""

import io
import random
import statistics
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpascal import SEQUENCES, bfile
from modpascal.bfile import (
    BFileParseError,
    compare_records,
    compare_stream,
    read_records,
    record_blocks,
    record_lines,
    records,
)

# Enough records for several 8 KiB read blocks of every id.
SIZES = {"A119326": 1500, "A114213": 3000, "A114212": 3000, "A114214": 3000}
LINES = {sid: list(record_lines(records(sid, size)))
         for sid, size in SIZES.items()}


def _outcome(compare, sid, text):
    """compare's result, or the line number and message of its parse
    error."""
    try:
        return compare(sid, text)
    except BFileParseError as exc:
        return exc.line_no, exc.message


def _reference(sid, text):
    return compare_records(sid, read_records(io.StringIO(text)))


def _blocks(sid, text):
    return compare_stream(sid, io.StringIO(text))


def _assert_same(sid, text):
    want = _outcome(_reference, sid, text)
    assert _outcome(_blocks, sid, text) == want
    return want


def _first_block_end(lines):
    """The number of lines in the first read block of "".join(lines)."""
    text = "".join(lines)
    return text.count("\n", 0, text.rfind("\n", 0, bfile._BLOCK) + 1)


def _with_value(lines, pos, delta):
    index, value = lines[pos].split()
    return [*lines[:pos], f"{index} {int(value) + delta}\n", *lines[pos + 1:]]


def _mutations(sid, lines=None):
    """(name, text) pairs: the b-file of sid, or lines in its place, and
    its edits."""
    lines = LINES[sid] if lines is None else lines
    mid = len(lines) // 2
    edge = _first_block_end(lines)
    yield "clean", "".join(lines)
    for pos in (0, edge - 1, edge):
        for delta in (-1, 1):
            yield (f"value {delta:+} at {pos}",
                   "".join(_with_value(lines, pos, delta)))
    yield "crlf", "".join(lines).replace("\n", "\r\n")
    yield "one crlf line", "".join(
        [*lines[:mid], lines[mid].replace("\n", "\r\n"), *lines[mid + 1:]])
    # A run of blank lines draws more terms than the blocks after it
    # have lines.
    for extra in ("# a comment\n", "\n", "  \t\n", "\n" * 50):
        yield f"{extra!r} first", extra + "".join(lines)
        yield f"{extra!r} midway", "".join([*lines[:mid], extra, *lines[mid:]])
    index, value = lines[mid].split()
    for name, line in [("leading zeros", f"00{index} 00{value}\n"),
                       ("tabs", f"\t{index}\t{value}\t\n"),
                       ("plus sign", f"{index} +{value}\n"),
                       ("gap", f"{int(index) + 1} {value}\n"),
                       ("non-integer", f"{index} x{value}\n"),
                       ("three fields", f"{index} {value} 1\n"),
                       ("past the digit limit", f"{index} {'7' * 5000}\n")]:
        yield name, "".join([*lines[:mid], line, *lines[mid + 1:]])
    # Files from other first indices: where _text's thousands begin and
    # end (999, and 10^40 - 1500, whose index text grows a digit midway),
    # from a negative index, which _text formats beside its values, and
    # past 2^64.
    for first in (1, 999, -2, 2**64 + 1, 10**40 - 1500):
        yield f"from index {first}", "".join(
            f"{first + pos} {line.split()[1]}\n"
            for pos, line in enumerate(lines))
    # Blocks whose rendered text differs from the file only in the index
    # column: one index off at a read block's edge, and every index from
    # there on.
    yield "gap at the block edge", "".join(
        [*lines[:edge], f"{edge + 1} {lines[edge].split()[1]}\n",
         *lines[edge + 1:]])
    yield "indices shifted from the block edge", "".join(
        [*lines[:edge], *(f"{pos + 1} {line.split()[1]}\n"
                          for pos, line in enumerate(lines[edge:], edge))])
    yield "no final newline", "".join(lines).removesuffix("\n")
    yield "empty", ""
    yield "only comments", "# nothing\n\n"


@pytest.mark.parametrize("sid", SIZES)
def test_compare_stream_is_compare_records(sid):
    for name, text in _mutations(sid):
        want = _assert_same(sid, text)
        if name == "clean":
            assert want.passed and want.checked == SIZES[sid] + 1


@pytest.mark.parametrize("sid", SIZES)
def test_compare_stream_is_compare_records_on_small_blocks(sid):
    # Blocks of one line and of a few: each edit is then at a block's
    # edge, and lines without a record leave drawn terms over.
    for block in (1, 7, 256):
        with mock.patch.object(bfile, "_BLOCK", block):
            for _name, text in _mutations(sid):
                _assert_same(sid, text)


def test_compare_stream_finds_each_mutation():
    # The cases above are not all vacuous agreements.
    lines = LINES["A114212"]
    edge = _first_block_end(lines)
    for pos in (0, edge - 1, edge):
        got = _blocks("A114212", "".join(_with_value(lines, pos, 1)))
        value = int(lines[pos].split()[1])
        assert got.mismatch == (pos, value + 1, value)
        assert got.checked == len(lines)
    assert _blocks("A114212", "".join(lines).replace("\n", "\r\n")).passed


@pytest.mark.parametrize("sid", SIZES)
def test_compare_stream_after_a_mismatch_is_compare_records(sid):
    # Past the first mismatch, at record 0, every edit is in the tail that
    # is only counted: the same count, or the same error and line number.
    wrong = _with_value(LINES[sid], 0, 1)
    for block in (1, 7, 256, bfile._BLOCK):
        with mock.patch.object(bfile, "_BLOCK", block):
            for _name, text in _mutations(sid, wrong):
                _assert_same(sid, text)
    # negative indices past the int/str digit limit, which _text refuses
    first = -10**5000
    _assert_same(sid, "".join(
        f"{bfile.to_decimal(first + pos)} {line.split()[1]}\n"
        for pos, line in enumerate(wrong[:50])))


def test_compare_stream_counts_a_canonical_tail_without_parsing(monkeypatch):
    # Only the first block, which holds the mismatch, is parsed.
    parsed = []
    block_records = bfile._block_records
    monkeypatch.setattr(bfile, "_block_records", lambda *args: (
        parsed.append(args[2]) or block_records(*args)))
    lines = _with_value(LINES["A114212"], 5, 1)
    got = _blocks("A114212", "".join(lines))
    value = int(LINES["A114212"][5].split()[1])
    assert got.mismatch == (5, value + 1, value)
    assert got.checked == len(lines)
    assert parsed == [0]


@pytest.mark.parametrize("sid", SIZES)
def test_compare_stream_on_the_wrong_sequence(sid):
    for other in SEQUENCES:
        _assert_same(other, "".join(LINES[sid]))


@settings(deadline=None, max_examples=60)
@given(
    sid=st.sampled_from(sorted(SIZES)),
    edits=st.lists(st.tuples(
        st.integers(0, 2999),
        st.sampled_from(["+1", "-1", "crlf", "comment", "blank", "tab",
                         "zeros", "drop", "cut", "x"])), max_size=4),
    block=st.sampled_from([3, 64, 512, bfile._BLOCK]),
)
def test_compare_stream_is_compare_records_after_random_edits(
        sid, edits, block):
    lines = list(LINES[sid])
    for pos, edit in edits:
        pos %= len(lines)
        index, value = LINES[sid][pos].split()
        lines[pos] = {
            "+1": f"{index} {int(value) + 1}\n",
            "-1": f"{index} {int(value) - 1}\n",
            "crlf": f"{index} {value}\r\n",
            "comment": f"# {index}\n{index} {value}\n",
            "blank": f"\n{index} {value}\n",
            "tab": f"{index}\t{value}\n",
            "zeros": f"0{index} 0{value}\n",
            "drop": "",
            "cut": f"{index} {value}",
            "x": f"{index} {value}x\n",
        }[edit]
    with mock.patch.object(bfile, "_BLOCK", block):
        _assert_same(sid, "".join(lines))


@pytest.mark.parametrize("sid", SIZES)
def test_record_blocks_is_record_lines(sid):
    text = "".join(record_blocks(range(SIZES[sid] + 1), bfile._terms(sid)(0)))
    assert text == "".join(LINES[sid])
    assert list(record_blocks(range(0), bfile._terms(sid)(0))) == []
    assert list(record_blocks(range(5), [])) == []
    # The shorter column ends the text, as zip ends.
    assert "".join(record_blocks(range(3), [7] * 5)) == "0 7\n1 7\n2 7\n"
    assert "".join(record_blocks(range(5), [7] * 3)) == "0 7\n1 7\n2 7\n"


def test_record_blocks_writes_each_block_before_reading_on():
    # A stream that fails after its third term: the blocks of one and
    # two records before it come out first.
    def terms():
        yield from (5, 6, 7)
        raise RuntimeError("the route failed")

    blocks = record_blocks(range(10), terms())
    assert next(blocks) == "0 5\n"
    assert next(blocks) == "1 6\n2 7\n"
    with pytest.raises(RuntimeError, match="the route failed"):
        next(blocks)


# The int/str digit limit is 4300 digits: 10**4299 is the longest value
# str() takes, and 10**4300 goes through record_lines' fallback.
_LONG = st.builds(lambda digits, sign, low: sign * (10 ** (digits - 1) + low),
                  st.sampled_from([4300, 4301]), st.sampled_from([1, -1]),
                  st.integers(0, 10**6))
_VALUES = st.lists(st.one_of(st.integers(), st.sampled_from([0, -1, True]),
                             _LONG), max_size=40)


# 10**4300 has 4301 digits, one past the limit, and is a multiple of 1000.
_PAST_THE_LIMIT = 10**4300
_PAST_THE_LIMIT_STARTS = st.integers(-200, 200).map(
    lambda k: _PAST_THE_LIMIT + k)


def _columns(first, head, filler, tail):
    """The index range and values of a test file.  record_lines takes
    about 0.4 ms a line for an index past the digit limit, so a file
    from there keeps its filler below 200 lines."""
    if abs(first) >= _PAST_THE_LIMIT // 2:
        filler %= 200
    values = [*head, *range(filler), *tail]
    return range(first, first + len(values)), values


@settings(deadline=None, max_examples=80)
@given(first=st.one_of(st.just(0), st.integers(0, 10**9),
                       st.integers(0, 1000).map(lambda k: 2**64 + k),
                       _PAST_THE_LIMIT_STARTS),
       head=_VALUES, filler=st.integers(0, 2500), tail=_VALUES)
def test_record_blocks_is_record_lines_by_columns(first, head, filler, tail):
    # True pins the format to %s: %d prints it as 1, record_lines as True.
    indices, values = _columns(first, head, filler, tail)
    blocks = list(record_blocks(indices, values))
    lines = list(record_lines(zip(indices, values)))
    assert "".join(blocks) == "".join(lines)
    # The block sizes: the first block is one record, each next one is
    # sized by the last block's text to at most twice the last block and
    # _WRITE_RECORDS, and a block with a value past the digit limit goes
    # line by line and is followed by a one-record block.  An index past
    # the limit takes its text from _text's template like any other.
    want, size = [], 1
    while lines:
        chunk, lines = lines[:size], lines[size:]
        if any(len(line.split()[1].lstrip("-")) > 4300 for line in chunk):
            want += [1] * len(chunk)
            size = 1
            continue
        want.append(len(chunk))
        size = min(2 * len(chunk), bfile._WRITE_RECORDS, max(
            1, bfile._WRITE_CHARS * len(chunk) // len("".join(chunk))))
    assert [block.count("\n") for block in blocks] == want


# Starts where _text changes how it renders an index: negative starts
# and 0, which it formats beside the values (a naive divmod would render
# -3 as "-1997"); 998 to 1001, where the first template thousand begins;
# a power of ten less one, past which the index text grows a digit;
# past 2^64; and past the digit limit, on both sides of 0.
_EDGE_STARTS = st.one_of(
    st.integers(-5, 0), st.integers(998, 1001), st.just(-1005),
    st.integers(1, 40).map(lambda k: 10**k - 1),
    st.integers(0, 2000).map(lambda k: 2**64 + k),
    _PAST_THE_LIMIT_STARTS, _PAST_THE_LIMIT_STARTS.map(lambda k: -k))


@settings(deadline=None, max_examples=150)
@given(first=_EDGE_STARTS, head=_VALUES, filler=st.integers(0, 2500),
       tail=_VALUES)
def test_text_is_record_lines_at_index_edges(first, head, filler, tail):
    indices, values = _columns(first, head, filler, tail)
    want = "".join(record_lines(zip(indices, values)))
    assert "".join(record_blocks(indices, values)) == want
    # Only a value, or a negative index, past the limit stops _text.
    if (any(abs(value) >= _PAST_THE_LIMIT for value in values)
            or values and first <= -_PAST_THE_LIMIT):
        with pytest.raises(ValueError):
            bfile._text(indices, values)
    else:
        assert bfile._text(indices, values) == want


@pytest.mark.parametrize("digits", [5000, 30_000])
def test_record_blocks_past_the_digit_limit(digits):
    # Long values among short ones, also negative and as the index.
    rng = random.Random(digits)
    big = [rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(6)]
    values = [big[0], 5, -big[1], *range(3, 40), 7, big[3],
              *(big[4] + i for i in range(42, 46))]
    for first in (0, big[2]):
        indices = range(first, first + len(values))
        assert ("".join(record_blocks(indices, values))
                == "".join(record_lines(zip(indices, values))))


def test_record_blocks_memory_follows_the_text():
    # 300 lines of 30,000 digits take 9 MB; the writer holds a few.
    rng = random.Random(1)
    values = [rng.randrange(10**29_999, 10**30_000) for _ in range(300)]
    line = len("299 \n") + 30_000
    tracemalloc.start()
    try:
        blocks = sum(1 for _block in record_blocks(range(300), values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == 300
    assert peak < 4 * line


def test_record_blocks_size_tracks_the_text():
    # 2,000-digit values: about 32 lines a block, not 1024.
    rng = random.Random(2)
    values = [rng.randrange(10**1999, 10**2000) for _ in range(300)]
    sizes = [block.count("\n") for block in record_blocks(range(300), values)]
    assert sum(sizes) == 300
    assert max(sizes) <= bfile._WRITE_CHARS // 2000


def test_wrong_sequence_compare_costs_no_more_than_compare_records():
    # Every read block of A114212's file disagrees with A114213: the
    # block route must not slow down block by block.
    text = "".join(record_lines(records("A114212", 200_000)))
    assert _blocks("A114213", text) == _reference("A114213", text)
    times = {_reference: [], _blocks: []}
    for _round in range(5):
        for compare in times:
            start = time.perf_counter()
            compare("A114213", text)
            times[compare].append(time.perf_counter() - start)
    reference, blocks = map(statistics.median, times.values())
    assert blocks < 1.5 * reference
