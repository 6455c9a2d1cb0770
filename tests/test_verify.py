import pytest

from modpascal import regular, run_suite
from modpascal.cli import main
from modpascal.verify import (
    Counterexample,
    IdentityResult,
    SUITE_NAMES,
    VerifyReport,
    _scan,
)


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_every_suite_passes_at_small_range(suite):
    report = run_suite(suite, 32)
    assert report.suite == suite
    assert report.max_n == 32
    assert report.passed
    assert all(r.checked > 0 for r in report.results)


def test_all_suite_concatenates_everything():
    report = run_suite("all", 24)
    assert report.passed
    assert len(report.results) == 16
    alone = [r for s in SUITE_NAMES[1:] for r in run_suite(s, 24).results]
    assert report.results == tuple(alone)


def test_suite_validation():
    with pytest.raises(ValueError):
        run_suite("thm3", 10)
    with pytest.raises(ValueError):
        run_suite("thm1", 0)


def test_suite_rejects_a_huge_negative_max_n_in_its_own_words():
    # str() refuses -10**5000, past CPython's int/str digit limit.
    with pytest.raises(ValueError,
                       match=f"^max_n must be >= 1, got -1{'0' * 5000}$"):
        run_suite("thm1", -10**5000)


def test_regular_identity_audit_report_shape():
    report = run_suite("remark", 100)
    assert report.suite == "remark"
    assert report.passed
    assert len(report.results) == 4
    assert all(r.checked == 101 for r in report.results)
    with pytest.raises(ValueError):
        run_suite("remark", 0)


def test_disagreeing_matrix_route_is_a_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(regular, "_state", lambda rep, n: (0, 0))
    fail = ("  FAIL continuant route = matrix representation: "
            "counterexample at 0: lhs=1 rhs=0 (9 checks ran)")
    report = run_suite("thm1", 8)
    assert not report.passed
    assert [line for line in report.lines() if "FAIL " in line] == [fail]
    assert main(["verify", "thm1", "--max-n", "8"]) == 1
    out, err = capsys.readouterr()
    assert fail in out.splitlines()
    assert err == ""


def test_passing_report_rendering():
    report = run_suite("eq2", 16)
    lines = report.lines()
    assert lines[0] == "suite eq2 (max_n=16)"
    assert any(line.startswith("  PASS ") and "17 checks" in line
               for line in lines)
    assert lines[-1] == "  => pass"


def test_failing_report_rendering():
    failing = IdentityResult("lhs = rhs", 9, Counterexample(5, 3, 4))
    passing = IdentityResult("other", 9, None)
    report = VerifyReport("demo", 8, (passing, failing))
    assert not report.passed
    assert not failing.passed and passing.passed
    lines = report.lines()
    assert "  FAIL lhs = rhs: counterexample at 5: lhs=3 rhs=4 (9 checks ran)" in lines
    assert lines[-1] == "  => FAIL"


def test_failing_report_renders_numbers_past_the_digit_limit():
    # 5001 digits is past CPython's default int/str limit of 4300.
    big, text = 10**5000, "1" + "0" * 5000
    report = VerifyReport(
        "demo", 8, (IdentityResult("x", 1, Counterexample(5, big, 0)),))
    assert report.lines()[1] == (
        f"  FAIL x: counterexample at 5: lhs={text} rhs=0 (1 checks ran)")
    report = VerifyReport("demo", big, (
        IdentityResult("x", 1, Counterexample((big, 3), -big, 1)),
        IdentityResult("y", 2, Counterexample((3, 2), 1, 0))))
    assert report.lines()[:3] == [
        f"suite demo (max_n={text})",
        f"  FAIL x: counterexample at ({text}, 3): lhs=-{text} rhs=1 "
        "(1 checks ran)",
        "  FAIL y: counterexample at (3, 2): lhs=1 rhs=0 (2 checks ran)",
    ]


def test_scan_keeps_first_counterexample_and_keeps_counting():
    result = _scan("squares = cubes", range(5), lambda n: n * n,
                   lambda n: n**3)
    assert result.checked == 5
    assert result.counterexample == Counterexample(2, 4, 8)
