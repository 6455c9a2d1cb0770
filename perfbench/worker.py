"""Child process of the benchmark: the in-process parts of a pass.

    python3 perfbench/worker.py TASK.json RESULT.json

with PYTHONPATH pointing at the library's src/.  The task says which
part to run:

bigint   d(n), s(n) and the matrix representation on each input n, each
         result rendered with str(), plan.BIGINT_ROUNDS times over, with the big-int reference work
         (common.bigint_reference) timed between the ops.  Untraced, an op is the call a user
         makes (diagonal_sum_fast); traced, the same op calls the
         module functions beneath it (run_lengths, then continuant) so
         that each gets its own span.  Reports residues of every value
         and decimal text for the parent to check.
replay   the library calls each CLI step of the pass makes
         (generate/serialize/parse/compare, triangle_row, run_suite...),
         checked against the same goldens as the CLI outputs.
probe    the lower-layer public functions those calls rest on, on the
         same inputs (run_lengths, continuant, triangle_row_parity,
         row_sum_closed, diagonal_sum_recurrence, stern, triangle_entry,
         int() and str() of the b-file values), checked against the
         b-files the pass's CLI steps wrote and the parent verified.

Each part runs in a fresh interpreter, so no module-level state is warm
from an earlier pass.  Spans are recorded only around calls made here;
nothing in modpascal is patched.
"""

import hashlib
import itertools
import json
import sys
import time
from collections import Counter

import common
import plan
from modpascal import (
    bfile,
    continuant,
    derive_linear_rep,
    diagonal_sum_fast,
    diagonal_sum_recurrence,
    iter_triangle_terms,
    linear_rep_eval,
    run_lengths,
    row_sum_closed,
    stern,
    triangle_entry,
    triangle_row,
    triangle_row_parity,
    verify,
)


def failure(exc):
    """(reason, wrong) of an op that raised.  Only CPython's int/str
    digit limit is a known defect; any other exception is a fault."""
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        return f"int/str digit limit ({sys.get_int_max_str_digits()} digits) in str()", False
    return f"{type(exc).__name__}: {str(exc)[:120]}", True


class Part:
    """Spans, counters and check outcomes of one worker run."""

    def __init__(self, task):
        self.task = task
        self.tracer = common.Tracer(task["trace"], task["origin"])
        self.parent = task["parent"]
        self.counts = Counter()
        self.checks = []

    def span(self, name):
        return self.tracer.span(name, self.parent)

    def check(self, name, ok, reason):
        self.checks.append([name, bool(ok), None if ok else reason])

    def result(self, **extra):
        return {"spans": self.tracer.spans, "counts": dict(self.counts),
                "checks": self.checks, **extra}


# ------------------------------------------------------------------ bigint

def run_bigint(part):
    try:
        with part.span("regular.derive_linear_rep"):
            rep = derive_linear_rep()
    except Exception as exc:  # fails every linear_rep_eval op below
        rep = exc
    ops = []
    inputs = [(label, int.from_bytes(bytes.fromhex(hexdata), "big"))
              for label, hexdata in part.task["params"]["inputs"]]
    before = common.bigint_reference()
    for _round in range(plan.BIGINT_ROUNDS):
        for (label, n), func in itertools.product(inputs, plan.BIGINT_FUNCS):
            op = bigint_op(part, func, n, rep)
            after = common.bigint_reference()
            op["nominal"] = common.nominal(op["wall"], before, after, "bigint")
            before = after
            ops.append(op | {"input": label, "func": func})
    return part.result(ops=ops)


def bigint_op(part, func, n, rep):
    """One timed op: compute, then render to decimal.  Checks run after
    the clock stops."""
    traced = part.tracer.enabled
    text = reason = None
    wrong = False
    start = time.perf_counter()
    try:
        if func == "diagonal_sum_fast":
            if traced:
                with part.span("continuant.run_lengths"):
                    runs = run_lengths(n)
                with part.span("continuant.continuant"):
                    value = continuant(runs)
                part.counts["continuant.calls"] += 1
                part.counts["continuant.terms"] += len(runs)
            else:
                value = diagonal_sum_fast(n)
        elif func == "stern":
            with part.span("stern.stern"):
                value = stern(n)
            part.counts["stern.calls"] += 1
        elif isinstance(rep, Exception):
            raise rep
        else:
            with part.span("regular.linear_rep_eval"):
                value = linear_rep_eval(rep, n)
        try:
            with part.span("decimal.str"):
                text = str(value)
        except ValueError as exc:
            part.counts["decimal.fail"] += 1
            reason, wrong = failure(exc)
    except Exception as exc:  # an op that raises is a counted failure
        value = None
        reason, wrong = failure(exc)
    wall = time.perf_counter() - start
    op = {"wall": wall, "reason": reason, "wrong": wrong, "bits": None,
          "value_res": None, "text_res": None}
    if value is not None:
        op["bits"] = value.bit_length()
        op["value_res"] = value % common.MODULUS
    if text is not None:
        op["text_res"] = common.decimal_residue(text)
        part.counts["decimal.digits"] += len(text)
        if traced:
            with part.span("decimal.int"):
                back = int(text)
            part.check(f"int(str(value)) {func}", back == value,
                       "decimal round trip changed the value")
    return op


# ------------------------------------------------------------------ replay

def sha256_text(text):
    return common.sha256(text.encode("ascii"))


def replay_bfile(part, seq, n, golden):
    with part.span("bfile.generate"):
        generated = bfile.generate_bfile(seq, n)
    with part.span("bfile.serialize"):
        text = bfile.serialize_bfile(generated)
    part.check(f"serialize {seq} {n}", sha256_text(text) == golden["sha256"],
               "b-file text differs from the golden digest")
    with part.span("bfile.parse"):
        parsed = bfile.parse_bfile(text, seq)
    with part.span("bfile.compare"):
        result = bfile.compare_bfile(parsed)
    part.check(f"compare {seq} {n}", result.passed and result.checked == n + 1,
               "compare_bfile did not report every record agreeing")
    part.counts["bfile.records"] += len(generated.records) + result.checked
    part.counts["bfile.bytes"] += 2 * len(text)


def replay_corrupt(part, seq, path, index):
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    with part.span("bfile.parse"):
        parsed = bfile.parse_bfile(text, seq)
    with part.span("bfile.compare"):
        result = bfile.compare_bfile(parsed)
    part.check(f"corrupt {seq}", result.mismatch and result.mismatch[0] == index,
               f"compare_bfile did not name corrupted index {index}")
    part.counts["bfile.records"] += result.checked
    part.counts["bfile.bytes"] += len(text)


def replay_verify(part, suites, max_n, golden):
    lines = []
    checks = 0
    passed = True
    for suite in suites:
        with part.span(f"verify.{suite}"):
            report = verify.run_suite(suite, max_n)
        lines.extend(report.lines())
        checks += sum(r.checked for r in report.results)
        passed = passed and report.passed
    part.counts["verify.checks"] += checks
    if len(suites) == 1:
        part.check(f"verify {suites[0]} {max_n}",
                   sha256_text("\n".join(lines) + "\n") == golden["sha256"],
                   "verify report differs from the golden digest")
    else:
        part.check(f"verify all {max_n}", passed and checks == golden["checks"],
                   "suites failed or ran a different number of checks")


def replay_triangle(part, rows, golden):
    digest = hashlib.sha256()
    for n in range(rows):
        with part.span("triangle.row_exact"):
            row = triangle_row(n)
        with part.span("decimal.str"):
            texts = [str(t) for t in row.entries]
        digest.update((" ".join(texts) + "\n").encode("ascii"))
        part.counts["triangle.entries"] += n + 1
        part.counts["decimal.digits"] += sum(map(len, texts))
    part.check(f"triangle {rows}", digest.hexdigest() == golden["sha256"],
               "triangle rows differ from the golden digest")


def replay_seq_row(part, row, golden):
    first, last = plan.deep_row_range(row)
    with part.span("triangle.row_exact"):
        values = list(iter_triangle_terms(first, last + 1, "exact"))
    with part.span("decimal.str"):
        texts = [str(v) for v in values]
    text = "".join(f"{i} {t}\n" for i, t in zip(range(first, last + 1), texts))
    part.counts["triangle.entries"] += len(values)
    part.counts["decimal.digits"] += sum(map(len, texts))
    part.check(f"seq t-row row {row}", sha256_text(text) == golden["sha256"],
               "seq t-row lines differ from the golden digest")


def run_replay(part):
    p = part.task["params"]
    goldens = part.task["goldens"]
    workload = part.task["workload"]
    if workload == "bigint":
        for name in ("thm1", "eq3"):
            m = p[f"{name}_max_n"]
            replay_verify(part, [name], m, goldens[f"verify {name} {m}"])
    elif workload == "exact-rows":
        n = p["a119326_n"]
        replay_bfile(part, "A119326", n, goldens[f"bfile A119326 {n}"])
        replay_triangle(part, p["triangle_rows"],
                        goldens[f"triangle {p['triangle_rows']}"])
        first, last = plan.deep_row_range(p["deep_row"])
        replay_seq_row(part, p["deep_row"], goldens[f"seq t-row {first}..{last}"])
        m = p["proposition_max_n"]
        replay_verify(part, ["proposition"], m, goldens[f"verify proposition {m}"])
    else:
        for seq in ("A114214", "A114213", "A114212"):
            n = p[seq.lower() + "_n"]
            replay_bfile(part, seq, n, goldens[f"bfile {seq} {n}"])
        replay_corrupt(part, plan.CORRUPTED_SEQ, f"{part.task['dir']}/corrupt.txt",
                       p["corrupt_index"])
        m = p["all_max_n"]
        replay_verify(part, [s for s in verify.SUITE_NAMES if s != "all"], m,
                      goldens[f"verify all {m}"])
    return part.result()


# ------------------------------------------------------------------- probe

def read_values(part, path):
    """Values of a verified b-file or `seq` output, parsed with int()."""
    with open(path, encoding="ascii") as handle:
        fields = [line.split(" ", 1)[1] for line in handle.read().splitlines()]
    with part.span("decimal.int"):
        values = [int(f) for f in fields]
    part.counts["decimal.digits"] += sum(map(len, fields))
    return values, fields


def probe_str(part, values, fields, what):
    with part.span("decimal.str"):
        texts = [str(v) for v in values]
    part.counts["decimal.digits"] += sum(map(len, texts))
    part.check(f"str() of {what}", texts == fields, "str() differs from the CLI text")


def run_probe(part):
    p = part.task["params"]
    workload = part.task["workload"]
    folder = part.task["dir"]
    if workload == "bigint":
        m = p["thm1_max_n"]
        with part.span("regular.recurrence"):
            got = [diagonal_sum_recurrence(i) for i in range(m + 1)]
        part.check("diagonal_sum_recurrence", got == [common.small_continuant(i)
                                                       for i in range(m + 1)],
                   "recurrence disagrees with the harness's continuant")
    elif workload == "exact-rows":
        values, fields = read_values(part, f"{folder}/A119326.txt")
        probe_str(part, values, fields, "A119326 values")
        row = p["deep_row"]
        want, _fields = read_values(part, f"{folder}/seq.out")
        with part.span("triangle.entry_exact"):
            got = [triangle_entry(row, k) for k in range(row + 1)]
        part.counts["triangle.entries"] += row + 1
        part.check("triangle_entry on the deep row", got == want,
                   "triangle_entry disagrees with seq t-row")
    else:
        probe_small_terms(part, p, folder)
    return part.result()


def probe_small_terms(part, p, folder):
    d_values, d_fields = read_values(part, f"{folder}/A114214.txt")
    parity, _ = read_values(part, f"{folder}/A114213.txt")
    row_sums, _ = read_values(part, f"{folder}/A114212.txt")
    probe_str(part, d_values, d_fields, "A114214 values")

    with part.span("continuant.run_lengths"):
        runs = [run_lengths(i) for i in range(len(d_values))]
    with part.span("continuant.continuant"):
        got = [continuant(r) for r in runs]
    part.counts["continuant.calls"] += len(runs)
    part.counts["continuant.terms"] += sum(map(len, runs))
    part.check("continuant of run lengths", got == d_values,
               "continuant disagrees with the A114214 b-file")

    rows = 0
    while rows * (rows + 1) // 2 < len(parity):
        rows += 1
    with part.span("triangle.row_parity"):
        entries = [e for n in range(rows) for e in triangle_row_parity(n).entries]
    part.counts["triangle.entries"] += len(entries)
    part.check("triangle_row_parity", entries[:len(parity)] == parity,
               "parity rows disagree with the A114213 b-file")

    with part.span("triangle.row_sum_closed"):
        got = [row_sum_closed(i) for i in range(len(row_sums))]
    part.check("row_sum_closed", got == row_sums,
               "closed row sums disagree with the A114212 b-file")

    m = p["all_max_n"]
    with part.span("regular.recurrence"):
        got = [diagonal_sum_recurrence(i) for i in range(m + 1)]
    part.check("diagonal_sum_recurrence", got == d_values[:m + 1],
               "recurrence disagrees with the A114214 b-file")

    with part.span("stern.stern"):
        got = [stern(2 * i + 1) for i in range(m + 1)]
    part.counts["stern.calls"] += m + 1
    part.check("stern(2n+1) = d(2n)", got == d_values[:2 * m + 1:2],
               "stern disagrees with the A114214 b-file")

    with part.span("triangle.entry_exact"):
        exact = [triangle_entry(n, k) for n in range(m + 1) for k in range(n + 1)]
    part.counts["triangle.entries"] += len(exact)
    part.check("triangle_entry mod 2", [t % 2 for t in exact] == parity[:len(exact)],
               "exact entries mod 2 disagree with the A114213 b-file")


def main():
    task_path, result_path = sys.argv[1], sys.argv[2]
    with open(task_path) as handle:
        task = json.load(handle)
    part = Part(task)
    run = {"bigint": run_bigint, "replay": run_replay, "probe": run_probe}[task["mode"]]
    result = run(part)
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
