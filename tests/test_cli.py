import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import modpascal
from modpascal import diagonal_sum_fast, stern
from modpascal.bfile import (
    ROUTES,
    generate_bfile,
    parse_bfile,
    record_lines,
    serialize_bfile,
    to_decimal,
)
from modpascal.cli import main, run


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_triangle_exact_rows(capsys):
    assert main(["triangle", "9"]) == 0
    lines = _lines(capsys)
    assert len(lines) == 9
    assert lines[0] == "1"
    assert lines[-1] == "1 1 16 31 38 31 16 1 1"


def test_triangle_parity_rows(capsys):
    assert main(["triangle", "9", "--mode", "parity"]) == 0
    assert _lines(capsys)[-1] == "1 1 0 1 0 1 0 1 1"


def test_triangle_single_row(capsys):
    assert main(["triangle", "1"]) == 0
    assert _lines(capsys) == ["1"]


def test_triangle_value_past_digit_limit(capsys, monkeypatch):
    # triangle prints the t-row route; 5000 digits is past CPython's
    # default int/str limit of 4300.
    long = 7 * (10**5000 - 1) // 9
    t_row = dict(ROUTES["t-row"],
                 exact=lambda start: iter([1, long, 1][start:]))
    monkeypatch.setattr(modpascal.bfile, "ROUTES", {**ROUTES, "t-row": t_row})
    assert main(["triangle", "2"]) == 0
    assert capsys.readouterr().out == "1\n" + "7" * 5000 + " 1\n"


def test_triangle_rejects_nonpositive_rows():
    with pytest.raises(SystemExit) as info:
        main(["triangle", "0"])
    assert info.value.code == 2


def test_seq_diagonal_default(capsys):
    assert main(["seq", "d", "0..6"]) == 0
    assert _lines(capsys) == ["0 1", "1 1", "2 2", "3 2", "4 3", "5 3", "6 3"]


def _pairs(capsys):
    return [tuple(map(int, line.split())) for line in _lines(capsys)]


def test_seq_methods_agree(capsys):
    # Every route streams its sequence's default values, except that
    # t-row's parity route streams them mod 2 (the proposition).
    for which, routes in ROUTES.items():
        assert main(["seq", which, "0..40"]) == 0
        default = _pairs(capsys)
        assert len(default) == 41
        for method in routes:
            assert main(["seq", which, "0..40", "--method", method]) == 0
            expected = default
            if method == "parity":
                expected = [(n, value % 2) for n, value in default]
            assert _pairs(capsys) == expected, (which, method)


def test_seq_fast_method_streams_agree_at_width(capsys):
    # The logarithmic-time routes for d must emit byte-identical
    # streams over a wide range; the O(n) brute-force routes are held
    # to the same standard over a narrower one (they exist as oracles,
    # not as ways to spend minutes in a test run).
    top = 2**14
    assert main(["seq", "d", f"0..{top}", "--method", "fast"]) == 0
    fast = capsys.readouterr().out
    assert main(["seq", "d", f"0..{top}", "--method", "recurrence"]) == 0
    assert capsys.readouterr().out == fast
    narrow = 2**10
    assert main(["seq", "d", f"0..{narrow}", "--method", "brute"]) == 0
    brute = capsys.readouterr().out
    assert fast.startswith(brute)
    assert main(["seq", "r", f"0..{narrow}", "--method", "closed"]) == 0
    closed = capsys.readouterr().out
    assert main(["seq", "r", f"0..{narrow}", "--method", "brute"]) == 0
    assert capsys.readouterr().out == closed
    assert main(["seq", "stern", f"0..{2**11}", "--method", "fast"]) == 0
    fast_stern = capsys.readouterr().out
    assert main(["seq", "stern", f"0..{2**11}", "--method", "carlitz"]) == 0
    assert capsys.readouterr().out == fast_stern


def test_seq_row_sums(capsys):
    assert main(["seq", "r", "0..8"]) == 0
    assert _lines(capsys) == [
        "0 1", "1 2", "2 3", "3 4", "4 4", "5 4", "6 6", "7 8", "8 6",
    ]


def test_seq_stern(capsys):
    assert main(["seq", "stern", "0..5"]) == 0
    assert _lines(capsys) == ["0 0", "1 1", "2 1", "3 2", "4 1", "5 3"]


def test_seq_single_value_range(capsys):
    assert main(["seq", "stern", "5"]) == 0
    assert _lines(capsys) == ["5 3"]


def test_seq_triangle_terms(capsys):
    assert main(["seq", "t-row", "10..14"]) == 0
    assert _lines(capsys) == ["10 1", "11 1", "12 2", "13 1", "14 1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "d", "5..2"],
        ["seq", "d", "-3..4"],
        ["seq", "d", "x..y"],
        ["seq", "d", "0..9", "--method", "closed"],
        ["seq", "r", "0..9", "--method", "scan"],
        ["seq", "nope", "0..9"],
        ["seq", "d", "0..3", "--method", ""],
        # int() takes these, but a range is ASCII [0-9]+
        ["seq", "d", "1_0"],
        ["seq", "d", "+5"],
        ["seq", "d", "\u0663"],
    ],
)
def test_seq_usage_errors(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # int() takes these, but a CLI number is ASCII [0-9]+
        ["triangle", "1_0"],
        ["triangle", "+2"],
        ["triangle", "\u0663"],
        ["bfile", "A114214", "1_0", "out"],
        ["verify", "thm2", "--max-n", "\u0661\u0660"],
        ["bfile", "A114214", "-1", "out"],
    ],
)
def test_number_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_seq_index_past_digit_limit(capsys):
    # 4400 digits is past CPython's default int/str limit of 4300.
    text = "7" * 4400
    n = 7 * (10**4400 - 1) // 9
    assert main(["seq", "d", text]) == 0
    assert _lines(capsys) == [f"{text} {to_decimal(diagonal_sum_fast(n))}"]
    assert main(["seq", "stern", f"{text}..{text[:-1]}8"]) == 0
    assert _lines(capsys) == [f"{text} {to_decimal(stern(n))}",
                              f"{text[:-1]}8 {to_decimal(stern(n + 1))}"]


def test_seq_stream_is_a_bfile(capsys):
    # seq and the b-files write their lines through one writer.
    long = "7" * 4400
    runs = [(["seq", which, "7..40", "--method", method], 7)
            for which, routes in ROUTES.items() for method in routes]
    runs.append((["seq", "d", long], 7 * (10**4400 - 1) // 9))
    for argv, offset in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        parsed = parse_bfile(out, argv[1])
        assert parsed.offset == offset, argv
        assert serialize_bfile(parsed) == out, argv


def test_seq_by_blocks_past_the_digit_limit(capsys):
    # From an index of 4300 digits across 10**4300, the first of 4301,
    # and the multiple of 1000 after it: seq writes by blocks, with the
    # index digits of each thousand from one template.
    first, last = 10**4300 - 3, 10**4300 + 1002
    assert main(["seq", "d", f"{to_decimal(first)}..{to_decimal(last)}"]) == 0
    indices = range(first, last + 1)
    want = record_lines(zip(indices, ROUTES["d"]["fast"](first)))
    assert capsys.readouterr().out == "".join(want)


def test_seq_t_row_ends_of_a_huge_row(capsys):
    # The first two and last two entries of row 10^4400 are all 1; each
    # costs O(1) operations, not a walk along the row.
    n = 10**4400
    first = n * (n + 1) // 2
    for lo, hi in ((first, first + 1), (first + n - 1, first + n)):
        assert main(["seq", "t-row", f"{to_decimal(lo)}..{to_decimal(hi)}"]) == 0
        assert [line.split(" ")[1] for line in _lines(capsys)] == ["1", "1"]


def test_cli_without_int_max_str_digits(tmp_path, capsys, monkeypatch):
    # CPython 3.10.0-3.10.6 has neither this function nor the limit.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert main(["seq", "d", "0..3"]) == 0
    assert _lines(capsys) == ["0 1", "1 1", "2 2", "3 2"]
    assert main(["seq", "d", "7" * 4400]) == 0
    assert _lines(capsys)[0].startswith("7" * 4400 + " ")
    out = tmp_path / "b.txt"
    assert main(["bfile", "A114214", "20", str(out)]) == 0
    assert main(["bfile-compare", "A114214", str(out)]) == 0
    assert _lines(capsys) == [f"wrote 21 records to {out}",
                              "A114214: all 21 records agree"]


@pytest.mark.parametrize("seq_id", ["A119326", "A114213", "A114212", "A114214"])
def test_bfile_round_trip(tmp_path, capsys, seq_id):
    out = tmp_path / f"b{seq_id[1:]}.txt"
    assert main(["bfile", seq_id, "50", str(out)]) == 0
    capsys.readouterr()
    assert main(["bfile-compare", seq_id, str(out)]) == 0
    assert "all 51 records agree" in capsys.readouterr().out


def test_bfile_bytes_are_stable(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    main(["bfile", "A114212", "200", str(first)])
    main(["bfile", "A114212", "200", str(second)])
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"0 1\n1 2\n2 3\n")


def test_bfile_unknown_id(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["bfile", "A000001", "5", str(tmp_path / "x.txt")])
    assert info.value.code == 2


def test_broken_pipe_is_quiet():
    # The reader takes two lines and closes the pipe, as `| head -2` does.
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    argv = [sys.executable, "-c", "from modpascal.cli import run; run()",
            "seq", "d", "0..200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert [proc.stdout.readline() for _ in range(2)] == [b"0 1\n", b"1 1\n"]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == 0


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_interrupt_is_quiet():
    # Ctrl-C sends SIGINT: the CLI stops with exit 130 and no traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    argv = [sys.executable, "-m", "modpascal", "seq", "d", "0..100000000",
            "--method", "brute"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"0 1\n"
        proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert (proc.returncode, err) == (130, b"")


def test_out_of_memory_is_an_error(capsys, monkeypatch):
    # A route that runs out of memory (as a huge t-row does under a small
    # ulimit -v) ends with exit 3 and one line on stderr, not a traceback.
    def terms(start):
        yield 1
        raise MemoryError

    monkeypatch.setattr(modpascal.bfile, "ROUTES",
                        {**ROUTES, "d": dict(ROUTES["d"], fast=terms)})
    assert main(["seq", "d", "0..5"]) == 3
    out, err = capsys.readouterr()
    assert out == "0 1\n"
    assert err == "error: out of memory\n"


def test_brute_sweep_past_memory_is_out_of_memory(capsys):
    # From 2^64 the brute sweep's seeds would hold about 2^62 bytes and
    # take about 2^63 carry tests: the command ends at once with exit 3,
    # having allocated nothing near that.
    first = 2**64
    tracemalloc.start()
    try:
        code = main(["seq", "d", f"{first}..{first + 10}", "--method", "brute"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert peak < 2**20


@pytest.mark.parametrize("which, method", [("r", "brute"),
                                           ("stern", "carlitz")])
def test_bitset_sweeps_past_memory_are_out_of_memory(capsys, which, method):
    # From 2^64 the bitsets of r's and Stern's reference sweeps would hold
    # about 2^64 and 2^62 bytes: exit 3 within seconds, not a run with no
    # end and no output.
    first = 2**64
    began = time.monotonic()
    code = main(["seq", which, f"{first}..{first + 4}", "--method", method])
    assert time.monotonic() - began < 5
    assert code == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_exact_stream_past_memory_is_out_of_memory(capsys):
    # 2^64 is entry 2,746,052,116 of row 6,074,000,999: the exact row's
    # pass would hold about 10^18 bytes before its first term, so the
    # command ends at once with exit 3 and nothing on stdout.
    first = 2**64
    tracemalloc.start()
    try:
        code = main(["seq", "t-row", f"{first}..{first + 4}",
                     "--method", "exact"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert peak < 2**20


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file descriptors")
@pytest.mark.parametrize("argv", [
    ["triangle", "3"],
    ["seq", "d", "0..3"],
    ["bfile", "A114214", "3", "out.txt"],
    ["bfile-compare", "A114214", "b.txt"],
    ["verify", "thm2", "--max-n", "4"],
])
def test_closed_stdout_is_an_error(argv, tmp_path):
    # The child closes fd 1 and execs the CLI, as `modpascal ... >&-` does.
    (tmp_path / "b.txt").write_text("0 1\n1 1\n2 2\n3 2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    code = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
    done = subprocess.run(
        [sys.executable, "-c", code, sys.executable, "-m", "modpascal", *argv],
        cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (3, "error: stdout is closed\n")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: no site hooks that could load either module first.  Each costs
    # every CLI process milliseconds of start-up.
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    code = ("import sys, modpascal.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bfile_into_broken_pipe_is_an_error(tmp_path, capsys):
    # Only stdout's reader may leave quietly: a b-file cut short is exit 3,
    # and what the reader got is the start of the whole b-file.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def read_a_little():
        with open(fifo, "rb") as pipe:
            got.append(pipe.read(10))

    reader = threading.Thread(target=read_a_little)
    reader.start()
    try:
        assert main(["bfile", "A114214", "100000", str(fifo)]) == 3
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert capsys.readouterr().err == f"error: [Errno 32] Broken pipe: {str(fifo)!r}\n"
    whole = serialize_bfile(generate_bfile("A114214", 100000)).encode("ascii")
    assert len(got[0]) == 10 and whole.startswith(got[0])


def test_bfile_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.txt"
    assert main(["bfile", "A114214", "5", str(target)]) == 3
    assert str(target) in capsys.readouterr().err


def test_bfile_compare_detects_corruption(tmp_path, capsys):
    path = tmp_path / "b114214.txt"
    main(["bfile", "A114214", "9", str(path)])
    capsys.readouterr()
    lines = path.read_text().splitlines()
    lines[4] = "4 999"  # line 5
    path.write_text("\n".join(lines) + "\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 1
    out = capsys.readouterr().out
    assert "mismatch at index 4" in out
    assert "999" in out and "3" in out


def test_bfile_compare_reports_value_past_digit_limit(tmp_path, capsys):
    # 5000 digits is past CPython's default int/str limit of 4300.
    path = tmp_path / "long.txt"
    path.write_text("0 1\n1 " + "7" * 5000 + "\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 1
    assert capsys.readouterr().out == (
        "A114214: mismatch at index 1: file has " + "7" * 5000
        + ", computed 1\n")


def test_bfile_compare_parse_failure(tmp_path, capsys):
    path = tmp_path / "gap.txt"
    path.write_text("0 1\n3 2\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_bfile_compare_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["bfile-compare", "A114214", str(path)]) == 3
    assert "no records" in capsys.readouterr().err


def test_bfile_compare_undecodable_file(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"0 1\n1 \xff\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_bfile_compare_parse_error_before_a_later_undecodable_byte(tmp_path, capsys):
    # Text is decoded 8 KiB at a time: a parse error in the first 8 KiB
    # is reported before the undecodable byte at 12,008.
    path = tmp_path / "late-byte.txt"
    path.write_bytes(b"0 1\n1 x\n" + b"2 2\n" * 3000 + b"\xff\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 3
    assert capsys.readouterr().err == "error: line 2: non-integer field in '1 x'\n"


def test_bfile_compare_splits_records_on_newline_only(tmp_path, capsys):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"0 1\r\n1 1\r\n2 2\r\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 0
    assert "all 3 records agree" in capsys.readouterr().out
    path.write_bytes(b"0 1\r1 1\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_bfile_compare_parse_error_after_a_mismatch(tmp_path, capsys):
    # The whole file is read before anything is printed: a bad line after
    # a mismatch is still a parse error, with nothing on stdout.
    path = tmp_path / "late.txt"
    path.write_text("0 1\n1 5\n2 2\n3 x\n")
    assert main(["bfile-compare", "A114214", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 4: non-integer field in '3 x'\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bfile_compare_reads_a_pipe(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    text = serialize_bfile(generate_bfile("A114214", 5000)).encode("ascii")

    def write_all():
        with open(fifo, "wb") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=write_all, daemon=True)
    writer.start()
    try:
        assert main(["bfile-compare", "A114214", str(fifo)]) == 0
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert capsys.readouterr().out == "A114214: all 5001 records agree\n"


def test_bfile_and_compare_run_in_constant_memory(tmp_path, capsys):
    # Both stream one line at a time: no tuple of records, no whole text.
    path = tmp_path / "b114212.txt"
    tracemalloc.start()
    try:
        codes = [main(["bfile", "A114212", "50000", str(path)]),
                 main(["bfile-compare", "A114212", str(path)])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == [0, 0]
    assert capsys.readouterr().out == (
        f"wrote 50001 records to {path}\nA114212: all 50001 records agree\n")
    assert peak < 2**20


def test_bfile_compare_missing_file(tmp_path, capsys):
    assert main(["bfile-compare", "A114214", str(tmp_path / "gone.txt")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_verify_passes(capsys):
    assert main(["verify", "thm2", "--max-n", "64"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_small(capsys):
    assert main(["verify", "all", "--max-n", "16"]) == 0
    assert capsys.readouterr().out.count("PASS") == 16


@pytest.mark.parametrize("module", ["modpascal", "modpascal.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(modpascal.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", module, "verify", "all",
                           "--max-n", "64"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert sum(line.startswith("  PASS ") for line in done.stdout.splitlines()) == 16
    done = subprocess.run([sys.executable, "-m", module, "verify", "nonsense"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "invalid choice" in done.stderr


def test_verify_exit_is_nonzero_on_counterexample(capsys, monkeypatch):
    from modpascal import verify as verify_mod
    from modpascal.verify import Counterexample, IdentityResult, VerifyReport

    failing = VerifyReport(
        "thm1", 8, (IdentityResult("forced", 3, Counterexample(1, 2, 3)),)
    )
    monkeypatch.setattr(verify_mod, "run_suite", lambda suite, max_n: failing)
    assert main(["verify", "thm1", "--max-n", "8"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_usage_errors():
    with pytest.raises(SystemExit) as info:
        main(["verify", "thm2", "--max-n", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["triangle", "--help"],
        ["seq", "--help"],
        ["bfile", "--help"],
        ["bfile-compare", "--help"],
        ["verify", "--help"],
    ],
)
def test_help_exits_cleanly(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0


def test_run_raises_system_exit(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["modpascal", "triangle", "1"])
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == 0
