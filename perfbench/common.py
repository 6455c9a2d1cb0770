"""Pieces shared by the benchmark's parent process and its workers.

Statistics helpers, the span tracer, the child-process runner that reads
each child's own rusage, and the modular reference routes that check big
results without the library's kernels and without decimal conversion.
Standard library only; nothing here imports modpascal.
"""

import hashlib
import itertools
import os
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager

# Fixed primes for the residue checks: two Mersenne primes and 10^9+7.
PRIMES = (2**61 - 1, 2**89 - 1, 10**9 + 7)
MODULUS = PRIMES[0] * PRIMES[1] * PRIMES[2]

# Bits of each byte, most significant first.
_BYTE_BITS = tuple(tuple((b >> (7 - i)) & 1 for i in range(8)) for b in range(256))

# 18-digit chunks keep each int() call on a text that fits one machine
# word pair, far below the int/str digit limit.
_CHUNK = 18


# ---------------------------------------------------------------- statistics

def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles(values, n=4), as the acceptance rule
    states it)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(count):
    """Highest whole percentile with at least ten of `count` samples
    beyond it, or None when that percentile would not lie above the
    median (fewer than 20 samples)."""
    if count < 20:
        return None
    return 100 * (count - 10) // count


def percentile(values, pct):
    """Nearest-rank percentile of values (pct in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def goodput(units):
    """Credit earned per second by work repeated over several passes.

    `units` holds (seconds, oks, credit) for each piece of work: its time
    and success in every pass, and what one success earns.  A pass takes
    the sum of the units' median times; a unit earns its credit times
    the share of passes in which it succeeded.  A failed unit earns
    nothing, but its time counts all the same.
    """
    wall = sum(statistics.median(seconds) for seconds, _oks, _credit in units)
    earned = sum(credit * sum(oks) / len(oks) for _walls, oks, credit in units)
    return earned / wall if earned else 0.0


def fail_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


# --------------------------------------------------------------- host speed

# On a shared host the processor runs up to 60% slower for stretches of
# seconds to minutes, and no statistic of wall times alone stays put
# through that.  The ratio of a piece of work to fixed reference work of
# the same kind, run just before and just after it, moves by a few
# percent only.  So every timed unit is reported in nominal seconds: its
# wall over the mean wall of the two reference runs beside it, times the
# reference's nominal wall.  A faster program lowers the ratio; the
# reference is harness code and never changes with the program.
#
# Three kinds of reference, each like the work it stands beside:
#   bigint  in-process big-int work (bigint_reference), beside each
#           bigint op
#   child   a fresh interpreter running REFERENCE_CHILD, beside each CLI
#           step
#   spawn   a fresh interpreter that does nothing, beside each setup spawn
# NOMINAL_S holds each one's wall while the host runs fast (the lower
# quartile of 25 runs on a 2-vCPU Xeon (Sapphire Rapids) KVM guest,
# CPython 3.11), so that nominal seconds read as the seconds the work
# takes on that host at that speed.
NOMINAL_S = {"bigint": 0.025, "child": 0.13, "spawn": 0.05}

REFERENCE_CHILD = (
    "import re\n"
    "lines = []\n"
    "for i in range(20000):\n"
    "    p, q = 1, 0\n"
    "    for run in re.findall('1+|0+', bin(i)[2:]):\n"
    "        p, q = len(run) * p + q, p\n"
    "    lines.append(f'{i} {p}\\n')\n"
    "row = [1]\n"
    "for n in range(300):\n"
    "    row = [a + b for a, b in zip([0] + row, row + [0])]\n"
    "text = ''.join(lines) + ' '.join(map(str, row))\n"
)


def bigint_reference():
    """Wall seconds of fixed big-int work of the kinds the bigint ops do:
    a two-term recurrence growing to 38k bits, a product of two such
    numbers and a 3900-digit decimal conversion."""
    start = time.perf_counter()
    p, q = 1, 0
    for _ in range(20_000):
        p, q = 3 * p + q, p
    product = p * q
    str(product >> (product.bit_length() - 13_000))
    return time.perf_counter() - start


def nominal(wall, before, after, kind):
    """`wall` in nominal seconds, given the walls of the `kind` reference
    runs just before and just after it."""
    return wall / ((before + after) / 2) * NOMINAL_S[kind]


# --------------------------------------------------------------- reference

def bits_of(data):
    """The bits of a big-endian byte string, most significant first."""
    table = _BYTE_BITS
    return itertools.chain.from_iterable(table[b] for b in data)


def runs_of(data):
    """Binary run lengths of the integer whose big-endian bytes are
    `data` (leading zero bytes and bits are skipped)."""
    bits = itertools.dropwhile(lambda bit: bit == 0, bits_of(data))
    return [sum(1 for _ in group) for _bit, group in itertools.groupby(bits)]


def continuant_residue(runs, modulus=MODULUS):
    """K(runs) mod `modulus` by the two-term recurrence."""
    p, q = 1, 0
    for term in runs:
        p, q = (term * p + q) % modulus, p
    return p


def stern_residue(data, modulus=MODULUS):
    """Stern's s(n) mod `modulus` for n given by its big-endian bytes."""
    bits = itertools.dropwhile(lambda bit: bit == 0, bits_of(data))
    if next(bits, None) is None:
        return 0
    a, b = 1, 1
    for bit in bits:
        if bit:
            a = (a + b) % modulus
        else:
            b = (a + b) % modulus
    return a


def decimal_residue(text, modulus=MODULUS):
    """Residue of a non-negative decimal text, read in short chunks."""
    r = 0
    for i in range(0, len(text), _CHUNK):
        chunk = text[i:i + _CHUNK]
        r = (r * 10 ** len(chunk) + int(chunk)) % modulus
    return r


def small_continuant(n):
    """Exact d(n) for small n: the continuant of its binary run lengths."""
    p, q = 1, 0
    for _bit, group in itertools.groupby(bin(n)[2:]):
        term = sum(1 for _ in group)
        p, q = term * p + q, p
    return p


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends.

    A disabled tracer records nothing; its span() still yields so that
    call sites need no second code path.
    """

    def __init__(self, enabled, origin="main"):
        self.enabled = enabled
        self.origin = origin
        self.spans = []
        self._next = itertools.count()

    @contextmanager
    def span(self, name, parent=None):
        if not self.enabled:
            yield None
            return
        span_id = f"{self.origin}:{next(self._next)}"
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(
                {"id": span_id, "name": name, "start": start,
                 "end": time.perf_counter(), "parent": parent}
            )


def span_totals(spans):
    """Seconds per span name, summed."""
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return totals


# --------------------------------------------------------------- children

class ChildTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise ChildTimeout


def run_child(argv, env, stdout_path, timeout_s):
    """Run argv with stdout to a file; wait for it with os.wait4.

    Returns (exit code, wall seconds, rusage of that child alone, timed
    out).  RUSAGE_CHILDREN would fold every child reaped so far into one
    running maximum, so each child's own rusage is read as it is reaped.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    timed_out = False
    reaped = None
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            try:
                reaped = os.wait4(proc.pid, 0)
            except ChildTimeout:
                timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if reaped is None:
                proc.kill()
                reaped = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    _pid, status, usage = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, timed_out
