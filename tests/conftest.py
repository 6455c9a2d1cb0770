"""A time limit for every test, with no plugin: a regression that makes a
stream walk a whole huge row then fails its test instead of hanging the
suite."""

import signal

import pytest

TEST_SECONDS = 120


def _fail(signum, frame):
    # pytest.fail, not TimeoutError: that is an OSError, which cli.main
    # turns into exit code 3, so a CLI test would not see it.
    pytest.fail(f"test ran past its {TEST_SECONDS} s limit")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    old_handler = signal.signal(signal.SIGALRM, _fail)
    old_timer = signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture
def block_paths(monkeypatch):
    """The path of each block that kernel._values evaluates, in order:
    True where it read the packed columns, False where it went value by
    value."""
    from modpascal import kernel

    paths = []
    values = kernel._values

    def spy(x, y, columns):
        block = values(x, y, columns)
        paths.append(isinstance(block, list))
        return block

    monkeypatch.setattr(kernel, "_values", spy)
    return paths
