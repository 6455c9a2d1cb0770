import io
import re
import sys
import tracemalloc
from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpascal import (
    BFile,
    BFileParseError,
    SEQUENCES,
    bfile,
    compare_bfile,
    diagonal_sum_fast,
    generate_bfile,
    parse_bfile,
    regular,
    row_sum_closed,
    serialize_bfile,
    stern,
    triangle,
)
from modpascal.bfile import (
    ROUTES,
    compare_records,
    from_decimal,
    read_records,
    record_lines,
    records,
    to_decimal,
)
from oracles import diag_sum, row_sum, stern_naive, t_entry, t_parity
from test_stern import ROW_EDGES


def _oracle_terms(which, method, start, stop):
    if which == "t-row":
        entry = t_parity if method == "parity" else t_entry
        cells = [(n, k) for n in range(stop) for k in range(n + 1)]
        return [entry(n, k) for n, k in cells[start:stop]]
    fn = {"d": diag_sum, "r": row_sum, "stern": stern_naive}[which]
    return [fn(i) for i in range(start, stop)]


def test_every_route_is_an_open_stream():
    # terms(start) has no end: cut by a range, it gives the terms from
    # start on, for starts on either side of each t-row row end.
    for which, routes in ROUTES.items():
        for method, terms in routes.items():
            for start in range(60):
                got = [t for _i, t in zip(range(start, start + 25), terms(start))]
                assert got == _oracle_terms(which, method, start, start + 25), (
                    which, method, start)


def test_every_route_checks_start_at_the_call():
    # A bad start raises when terms(start) is called, before any next:
    # itertools.count would take True as 1.
    for which, routes in ROUTES.items():
        for method, terms in routes.items():
            for bad in (True, 2.0):
                with pytest.raises(TypeError, match="^start must be an int, got "):
                    terms(bad)
            with pytest.raises(ValueError, match="^start must be >= 0, got -1$"):
                terms(-1)


# Each sweep against the per-index kernel of its sequence.
SWEEPS = (("d", "continuant"), ("r", "closed"), ("stern", "scan"))


def test_sweeps_match_per_index_kernels_from_zero():
    for which, kernel in SWEEPS:
        routes = ROUTES[which]
        terms = 2**14 + 1
        assert (list(islice(routes["fast"](0), terms))
                == list(islice(routes[kernel](0), terms))), which


# 64 per-index terms at 4096 bits take about 0.1 s, so fewer examples
# than Hypothesis's default 100.
@pytest.mark.parametrize("parity", [0, 1])
@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**4095))
def test_sweeps_match_per_index_kernels_at_huge_starts(parity, half):
    start = 2 * half + parity
    for which, kernel in SWEEPS:
        routes = ROUTES[which]
        assert (list(islice(routes["fast"](start), 64))
                == list(islice(routes[kernel](start), 64))), (which, start)


@pytest.mark.parametrize("c", [1, 2, 3, 2**9 - 1, 2**9, 2**64 - 1, 2**64, 2**70])
def test_row_sum_sweep_across_block_edges(c):
    # Block c of the r sweep starts at index 2cB and its first term is
    # computed on its own; check three blocks from just before, at and
    # just after that edge.
    block = 2 << triangle._ROW_SUM_BITS
    for start in (c * block - 1, c * block, c * block + 1):
        got = list(islice(ROUTES["r"]["fast"](start), 3 * block))
        assert got == [row_sum_closed(n)
                       for n in range(start, start + 3 * block)], start


# Starts 256c - 1, 256c and 256c + 1 of d, and twice ROW_EDGES, which puts
# 256c at e's block edges 256 (256h + k) where the sweep scans the row
# after h anew.
D_BLOCK_EDGES = sorted({1, 2, 3, 255, 256, 2**56 - 1, 2**56, 2**64 - 1, 2**70,
                        *(2 * c for c in ROW_EDGES)})


@pytest.mark.parametrize("c", D_BLOCK_EDGES)
def test_d_block_sweep_across_block_edges(c):
    # Block c of d's continuant route is t(c)'s row times the columns of
    # the low bytes, flipped at 0x80 for odd c; check three blocks from
    # just before, at and just after its edge against the per-index
    # kernel.
    for start in (256 * c - 1, 256 * c, 256 * c + 1):
        got = list(islice(ROUTES["d"]["continuant"](start), 3 * 256))
        assert got == [diagonal_sum_fast(n)
                       for n in range(start, start + 3 * 256)], start


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**4096))
def test_d_block_sweep_matches_per_index_kernel_at_huge_starts(start):
    assert (list(islice(ROUTES["d"]["continuant"](start), 300))
            == [diagonal_sum_fast(n) for n in range(start, start + 300)])


# The fast block sweeps of Stern and d against their per-index kernels
# over windows that cross at least one block edge (256 terms of Stern,
# 512 of d), from huge starts; d's continuant route has its own test
# above.
BLOCK_SWEEPS = [("stern", "fast", stern), ("d", "fast", diagonal_sum_fast)]


@pytest.mark.parametrize("which, method, kernel", BLOCK_SWEEPS,
                         ids=["stern-fast", "d-fast"])
@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**4096))
def test_block_sweeps_match_per_index_kernels_at_huge_starts(which, method,
                                                             kernel, start):
    size = 600
    assert (list(islice(ROUTES[which][method](start), size))
            == [kernel(n) for n in range(start, start + size)])


# The bitset sweeps of r and stern, each against its per-index reference:
# r(n) across the parity row, and s(n) as the parity diagonal below n.
BITSET_SWEEPS = {
    "r": ("brute", triangle.row_sum_brute),
    "stern": ("carlitz",
              lambda n: triangle.carlitz_sum(n - 1) if n else 0),
}

# 0 and 1 (s(0) = 0, r(0) = 1), 2j and 2j + 1 for j near 2^k, and 10^5.
BITSET_STARTS = sorted({0, 1, 10**5, *(
    2 * j + e for k in (1, 5, 10, 13)
    for j in (2**k - 1, 2**k, 2**k + 1) for e in (0, 1))})


@pytest.mark.parametrize("which", BITSET_SWEEPS)
@pytest.mark.parametrize("start", BITSET_STARTS)
def test_bitset_sweeps_match_per_index_references(which, start):
    method, per_index = BITSET_SWEEPS[which]
    got = list(islice(ROUTES[which][method](start), 40))
    assert got == [per_index(n) for n in range(start, start + 40)]
    assert got == list(islice(ROUTES[which]["fast"](start), 40))


@pytest.mark.parametrize("which", BITSET_SWEEPS)
def test_bitset_sweeps_match_fast_routes_over_a_wide_window(which):
    # 2,000 terms from 1,000, across row 2,000, where r's masks are rebuilt
    method, _per_index = BITSET_SWEEPS[which]
    assert (list(islice(ROUTES[which][method](1000), 2000))
            == list(islice(ROUTES[which]["fast"](1000), 2000)))


def test_known_sequence_ids():
    assert sorted(SEQUENCES) == ["A114212", "A114213", "A114214", "A119326"]


def test_generate_diagonal_sums_fixture():
    bf = generate_bfile("A114214", 3)
    assert bf.offset == 0
    assert bf.records == ((0, 1), (1, 1), (2, 2), (3, 2))
    assert serialize_bfile(bf) == "0 1\n1 1\n2 2\n3 2\n"


def test_generate_row_sums_single_record():
    assert serialize_bfile(generate_bfile("A114212", 0)) == "0 1\n"


def test_generate_parity_triangle_prefix():
    bf = generate_bfile("A114213", 2)
    assert serialize_bfile(bf).splitlines() == ["0 1", "1 1", "2 1"]


def test_generate_exact_triangle_prefix():
    values = [value for _index, value in generate_bfile("A119326", 14).records]
    assert values == [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1]


@pytest.mark.parametrize("sequence_id, max_index, error, message", [
    ("A000045", 10, ValueError, "unknown sequence id 'A000045'; "
     "known: A114212, A114213, A114214, A119326"),
    ("A114214", True, TypeError, "max_index must be an int, got bool"),
    ("A114214", 2.0, TypeError, "max_index must be an int, got float"),
    ("A114214", -1, ValueError, "max index -1 is below the sequence offset 0"),
])
def test_records_checks_at_the_call(sequence_id, max_index, error, message):
    # records raises when called, before any next, as generate_bfile does.
    for make in (records, generate_bfile):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make(sequence_id, max_index)


def test_huge_bad_arguments_get_the_library_messages():
    # str() refuses 10**5000, past CPython's int/str digit limit.
    big = "1" + "0" * 5000
    with pytest.raises(ValueError,
                       match=f"^record 0 has index 0, expected {big}$"):
        BFile("A114214", 10**5000, ((0, 1),))
    with pytest.raises(ValueError,
                       match=f"^max index -{big} is below the sequence offset 0$"):
        records("A114214", -10**5000)


@pytest.mark.parametrize("sequence_id", sorted(SEQUENCES))
def test_stream_layer_is_the_whole_file_layer(sequence_id):
    text = serialize_bfile(generate_bfile(sequence_id, 300))
    assert "".join(record_lines(records(sequence_id, 300))) == text
    *head, last = text.splitlines(keepends=True)
    corrupted = "".join(head) + last.replace(" ", " 1", 1)
    shifted = "# from 1\n" + "".join(
        f"{i + 1} {v}\n" for i, v in read_records(io.StringIO(text)))
    for case in (text, corrupted, shifted):
        assert (compare_records(sequence_id, read_records(io.StringIO(case)))
                == compare_bfile(parse_bfile(case, sequence_id)))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int/str digit limit")
def test_decimal_round_trip_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for digits in (limit - 1, limit, limit + 1):
        for text, value in (("9" * digits, 10**digits - 1),
                            ("1" + "0" * (digits - 1), 10**(digits - 1)),
                            ("-" + "7" * digits, -7 * (10**digits - 1) // 9)):
            assert from_decimal(text) == value, digits
            assert to_decimal(value) == text, digits


@pytest.mark.parametrize("text", [
    "", "-", "--5", "+5", "abc", "1 2", " 7", "7\n", "1_0", "0x1f",
    "\u0663", "-\u0663", "\u00b2", "1\u0663",
])
def test_from_decimal_refuses_all_but_ascii_decimal(text):
    # '1 2', '1_0' and the Arabic-Indic digit three are all text int()
    # takes; '' and '-' once recursed without end.
    with pytest.raises(ValueError, match="^not a decimal integer: "):
        from_decimal(text)


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("007", 7), ("-007", -7), ("123", 123),
    ("-45", -45), ("0" * 6000 + "12", 12), ("-" + "0" * 6000 + "3", -3),
])
def test_from_decimal_values(text, value):
    assert from_decimal(text) == value


@pytest.mark.parametrize("table", [
    pytest.param(ROUTES, id="ROUTES"),
    *(pytest.param(routes, id=f"ROUTES[{which}]")
      for which, routes in ROUTES.items()),
    pytest.param(SEQUENCES, id="SEQUENCES"),
    pytest.param(regular._BASE, id="regular._BASE"),
])
def test_module_tables_are_read_only(table):
    with pytest.raises(TypeError):
        table["d"] = None


def test_generate_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown sequence id"):
        generate_bfile("A000045", 10)


def test_generate_rejects_index_below_offset():
    with pytest.raises(ValueError, match="below the sequence offset"):
        generate_bfile("A114214", -1)


def test_serialization_is_deterministic():
    first = serialize_bfile(generate_bfile("A114212", 500))
    second = serialize_bfile(generate_bfile("A114212", 500))
    assert first == second
    assert first.endswith("\n") and "\r" not in first


def test_parse_round_trip():
    bf = generate_bfile("A114214", 40)
    assert parse_bfile(serialize_bfile(bf), "A114214") == bf


def test_parse_tolerates_comments_and_whitespace():
    text = "# downloaded terms\n\n0 1   \n1 1\t\n# midway note\n2 2\n"
    bf = parse_bfile(text, "A114214")
    assert bf.offset == 0
    assert bf.records == ((0, 1), (1, 1), (2, 2))


def test_parse_reports_bad_field_count():
    with pytest.raises(BFileParseError) as info:
        parse_bfile("0 1\n1 1 extra\n", "A114214")
    assert info.value.line_no == 2
    assert "expected 'index value'" in info.value.message


def test_parse_reports_non_integer():
    with pytest.raises(BFileParseError) as info:
        parse_bfile("0 1\n1 1\n2 2\n3 2\nx y\n", "A114214")
    assert info.value.line_no == 5


@pytest.mark.parametrize(
    "line",
    ["0 1_0", "+0 +1", "0 +1", "0 \u0661", "\u0660 1", "0 \uff11",
     "0 --1", "0 -", "0 0x1", "0 1.0",
     "0\x0b1", "0 1\x0c", "\x0b0 1", "0\r1", "0 1\xa0",
     # past CPython's 4300-digit int/str limit
     pytest.param("0 " + "1" * 5000 + "a", id="long-trailing-letter"),
     pytest.param("0 --" + "1" * 5000, id="long-double-minus"),
     pytest.param("0 +" + "1" * 5000, id="long-plus"),
     pytest.param("0 " + "\u0661" * 5000, id="long-non-ascii")],
)
def test_parse_rejects_fields_outside_ascii_decimal(line):
    with pytest.raises(BFileParseError) as info:
        parse_bfile(f"# header\n{line}\n", "A114214")
    assert info.value.line_no == 2
    assert "non-integer field" in info.value.message


def test_parse_splits_records_on_newline_only():
    with pytest.raises(BFileParseError) as info:
        parse_bfile("0 1\x1c1 1\x0b2 2\n", "A114214")
    assert info.value.line_no == 1


def test_parse_tolerates_crlf_and_tabs():
    bf = parse_bfile("# header\r\n0\t1\r\n\t1 \t1\t\r\n", "A114214")
    assert bf.records == ((0, 1), (1, 1))


def _consecutive_records(first_and_values):
    first, values = first_and_values
    return "".join(f"{first + i} {v}\n" for i, v in enumerate(values))


def _parse_at(block, text):
    """parse_bfile(text) with read_records reading block characters at a
    time: the BFile, or the BFileParseError's (line_no, message)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bfile, "_BLOCK", block)
        try:
            return parse_bfile(text, "A114214")
        except BFileParseError as exc:
            return exc.line_no, exc.message


@given(st.one_of(
    st.text(),
    st.text(alphabet="0123456789 -+_#\t\n\r\x0b\x0c\x1c\u0661x"),
    st.tuples(
        st.integers(-3, 3),
        st.lists(st.one_of(
            st.integers().map(str),
            st.from_regex("[-+]?[0-9_\u0661]+", fullmatch=True),
        )),
    ).map(_consecutive_records),
))
def test_parse_either_round_trips_or_raises_parse_error(text):
    # The same records or error at every block size, blocks of one
    # character included.
    outcomes = {_parse_at(block, text) for block in (1, 7, bfile._BLOCK)}
    assert len(outcomes) == 1
    bf, = outcomes
    if not isinstance(bf, BFile):
        return
    assert parse_bfile(serialize_bfile(bf), "A114214") == bf
    data = [line for line in text.split("\n")
            if line.strip() and not line.strip().startswith("#")]
    assert all(re.fullmatch("[ \t]*-?[0-9]+[ \t]+-?[0-9]+[ \t]*\r?", line)
               for line in data)


# 300 A114214 records take 1,936 characters: eight blocks of 256.
SMALL_BLOCK = 256
RECORDS = generate_bfile("A114214", 299).records
LINES = list(record_lines(RECORDS))


def test_records_split_over_block_edges(monkeypatch):
    # Every cut of the first lines, from one character a block up.
    text = "".join(LINES)
    for block in range(1, 40):
        monkeypatch.setattr(bfile, "_BLOCK", block)
        assert tuple(read_records(io.StringIO(text))) == RECORDS, block


@pytest.mark.parametrize("edit", [
    pytest.param(lambda line: "# a comment\n" + line, id="comment"),
    pytest.param(lambda line: line.replace("\n", "\r\n"), id="crlf"),
    pytest.param(lambda line: line.replace(" ", "\t"), id="tab"),
])
def test_per_line_forms_in_a_middle_block(monkeypatch, edit):
    monkeypatch.setattr(bfile, "_BLOCK", SMALL_BLOCK)
    lines = list(LINES)
    lines[149] = edit(lines[149])
    assert tuple(read_records(io.StringIO("".join(lines)))) == RECORDS


def test_long_field_in_a_middle_block(monkeypatch):
    # 5000 digits is past CPython's int/str limit, so int() refuses it.
    monkeypatch.setattr(bfile, "_BLOCK", SMALL_BLOCK)
    digits = "9" * 5000
    lines = list(LINES)
    lines[149] = f"149 {digits}\n"
    got = tuple(read_records(io.StringIO("".join(lines))))
    assert got == RECORDS[:149] + ((149, 10**5000 - 1),) + RECORDS[150:]


@pytest.mark.parametrize("line_no, line, message", [
    (150, "150 3\n", "index 150 not consecutive (expected 149)"),
    (150, "149 x\n", "non-integer field in '149 x'"),
    (299, "298 3 3\n", "expected 'index value', got '298 3 3'"),
])
def test_parse_error_past_the_first_block(monkeypatch, line_no, line, message):
    lines = list(LINES)
    lines[line_no - 1] = line
    text = "".join(lines)
    # At one character a block, the bad line is a block of its own.
    for block in (1, SMALL_BLOCK, bfile._BLOCK):
        monkeypatch.setattr(bfile, "_BLOCK", block)
        with pytest.raises(BFileParseError) as info:
            deque(read_records(io.StringIO(text)), maxlen=0)
        assert (info.value.line_no, info.value.message) == (line_no, message)


def _crlf(text):
    return text.replace("\n", "\r\n")


@pytest.mark.parametrize("block", [SMALL_BLOCK, bfile._BLOCK])
def test_crlf_file_never_reaches_the_per_line_path(monkeypatch, block):
    # With _RECORD matching nothing the per-line path refuses every
    # record, so only the block path can read these records.
    text = "".join(LINES)
    monkeypatch.setattr(bfile, "_BLOCK", block)
    assert tuple(read_records(io.StringIO(text))) == RECORDS
    monkeypatch.setattr(bfile, "_RECORD", re.compile("(?!)"))
    assert tuple(read_records(io.StringIO(_crlf(text)))) == RECORDS


@pytest.mark.parametrize("line_no, line, message", [
    (150, "150 3\r\n", "index 150 not consecutive (expected 149)"),
    (150, "149 x\r\n", "non-integer field in '149 x\\r'"),
    (299, "298 3 3\r\n", "expected 'index value', got '298 3 3\\r'"),
])
def test_parse_error_past_the_first_block_of_a_crlf_file(
        monkeypatch, line_no, line, message):
    lines = list(map(_crlf, LINES))
    lines[line_no - 1] = line
    text = "".join(lines)
    for block in (1, SMALL_BLOCK, bfile._BLOCK):
        monkeypatch.setattr(bfile, "_BLOCK", block)
        with pytest.raises(BFileParseError) as info:
            deque(read_records(io.StringIO(text)), maxlen=0)
        assert (info.value.line_no, info.value.message) == (line_no, message)


def test_no_final_newline(monkeypatch):
    text = "".join(LINES).removesuffix("\n")
    monkeypatch.setattr(bfile, "_BLOCK", SMALL_BLOCK)
    assert tuple(read_records(io.StringIO(text))) == RECORDS
    with pytest.raises(BFileParseError) as info:
        deque(read_records(io.StringIO(text + "\n300 x")), maxlen=0)
    assert info.value.line_no == 301


def test_read_records_memory_is_one_block():
    # Each block is checked by one greedy regex match, whose backtracking
    # stack grows with the block: with the block's split lists, the peak
    # is about 0.3 MB at 8 KiB and 2 MB at 64 KiB.
    stream = io.StringIO(serialize_bfile(generate_bfile("A114212", 200000)))
    tracemalloc.start()
    try:
        deque(read_records(stream), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("sign", ["", "-"])
def test_values_past_int_str_digit_limit_round_trip(sign):
    # 5000 digits is past CPython's default int/str limit of 4300.
    digits = ("9" + "0123456789" * 500)[:5000]
    value = int(digits[:2500]) * 10**2500 + int(digits[2500:])
    if sign:
        value = -value
    text = f"0 {sign}{digits}\n1 3\n"
    bf = parse_bfile(text, "A114214")
    assert bf.records == ((0, value), (1, 3))
    assert serialize_bfile(bf) == text
    assert serialize_bfile(BFile("A114214", 0, ((0, value),))) == (
        f"0 {sign}{digits}\n")
    with pytest.raises(BFileParseError, match="not consecutive"):
        parse_bfile(f"0 1\n{digits} 1\n", "A114214")


def test_parse_reports_gap_in_indices():
    with pytest.raises(BFileParseError) as info:
        parse_bfile("0 1\n2 2\n", "A114214")
    assert info.value.line_no == 2
    assert "not consecutive" in info.value.message


def test_parse_rejects_empty_input():
    with pytest.raises(BFileParseError, match="no records"):
        parse_bfile("# nothing but comments\n\n", "A114214")


def test_record_indices_validated_on_construction():
    with pytest.raises(ValueError):
        BFile("A114214", 0, ((0, 1), (2, 2)))


def test_compare_agreement():
    result = compare_bfile(generate_bfile("A114213", 100))
    assert result.passed
    assert result.checked == 101
    assert result.mismatch is None


def test_compare_reports_first_mismatch():
    bf = generate_bfile("A114214", 10)
    records = list(bf.records)
    records[3] = (3, 99)
    records[7] = (7, 98)
    corrupted = BFile(bf.sequence_id, bf.offset, tuple(records))
    result = compare_bfile(corrupted)
    assert not result.passed
    assert result.mismatch == (3, 99, 2)
    assert result.checked == 11


def test_compare_reconciles_shifted_offset():
    # A file whose indexing starts at 1 (as OEIS files sometimes do)
    # must be matched record-for-record, not index-for-index.
    records = tuple((i + 1, diagonal_sum_fast(i)) for i in range(20))
    shifted = BFile("A114214", 1, records)
    assert compare_bfile(shifted).passed


def test_compare_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown sequence id"):
        compare_bfile(BFile("A999999", 0, ((0, 1),)))
