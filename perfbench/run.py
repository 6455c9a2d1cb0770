"""The modpascal benchmark.

Run from the root of a checkout (standard library only, one process at
a time, no threads):

    python3 perfbench/run.py --workload bigint --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness --workload small-terms --runs 5

A run measures setup (fresh interpreters importing modpascal.cli), then
repeats passes of the workload (see plan.py) until --seconds have gone
by, never cutting a pass short.  Every output is checked outside the
timed region: CLI outputs against golden SHA-256 digests (goldens.json),
big results by their residues modulo fixed primes, computed by a modular
scan that uses neither the library's kernels nor decimal conversion.

Times are in nominal seconds (see common.NOMINAL_S): each timed unit is
measured against reference work of its kind run just before and just
after it, which keeps the figures steady on a host whose speed drifts.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics.  A traced run alternates untraced passes with traced ones,
which add spans around every library call the workload makes, replayed
in fresh worker processes; the two kinds of pass time the same units,
and their difference is the tracing overhead.  The spans are written to
.perfbench/trace-<workload>-seed<seed>.json when the run ends.
The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib.util import find_spec
from pathlib import Path

import common
import plan

HERE = Path(__file__).resolve().parent
CLI = "from modpascal.cli import run; run()"
CHILD_TIMEOUT_S = 150.0
SETUP_SPAWNS_FIRST = 6
SETUP_SPAWNS_PER_PASS = 4

END_TO_END = {
    "setup_s": "s",
    "bits_per_s": "bit/s",
    "records_per_s": "1/s",
    "checks_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

VERIFY_SUITES = ("proposition", "thm1", "thm2", "eq2", "eq3", "carlitz",
                 "remark", "lucas", "glaisher")
CLI_COMMANDS = ("triangle", "seq", "bfile", "bfile-compare", "verify")

PER_LAYER = {
    "continuant.run_lengths_s": "s",
    "continuant.continuant_s": "s",
    "continuant.calls": "count",
    "continuant.terms": "count",
    "stern.stern_s": "s",
    "stern.calls": "count",
    "regular.linear_rep_eval_s": "s",
    "regular.derive_linear_rep_s": "s",
    "regular.recurrence_s": "s",
    "triangle.row_exact_s": "s",
    "triangle.row_parity_s": "s",
    "triangle.entries": "count",
    "triangle.row_sum_closed_s": "s",
    "triangle.entry_exact_s": "s",
    "decimal.str_s": "s",
    "decimal.int_s": "s",
    "decimal.digits": "count",
    "decimal.fail": "count",
    "bfile.generate_s": "s",
    "bfile.serialize_s": "s",
    "bfile.parse_s": "s",
    "bfile.compare_s": "s",
    "bfile.records": "count",
    "bfile.bytes": "bytes",
    **{f"verify.{suite}_s": "s" for suite in VERIFY_SUITES},
    "verify.checks": "count",
    "cli.spawn_s": "s",
    **{f"cli.{command}_s": "s" for command in CLI_COMMANDS},
    "cli.stdout_bytes": "bytes",
    "cli.exit_nonzero": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class Pass:
    """Spans and counters of one pass, and its wall time."""

    def __init__(self, traced):
        self.traced = traced
        self.counts = Counter()
        self.spans = []
        self.wall = 0.0


class Unit:
    """One piece of work repeated in every pass (a bigint op or a CLI
    step): its wall and nominal seconds and outcome each time, and what
    it earns."""

    def __init__(self, role, records=0, bits=0, checks=0):
        self.role = role  # "records" or "checks"
        self.records = records
        self.bits = bits
        self.checks = checks
        self.walls = []
        self.nominals = []
        self.oks = []


class Run:
    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.params = plan.params(workload, seed)
        self.task_params = dict(self.params)
        self.expected = None
        if workload == "bigint":
            self.task_params["inputs"] = [(label, data.hex())
                                          for label, data in self.params["inputs"]]
            self.expected = bigint_expected(self.params)
        with open(HERE / "goldens.json") as handle:
            self.goldens = json.load(handle)
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = common.Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = Counter()
        self.peak_rss_kb = 0
        self.child_cpu_s = 0.0
        self.setup_times = []  # nominal seconds
        self.setup_walls = []
        self.passes = []
        self.units = {False: {}, True: {}}  # untraced and traced passes

    # ----------------------------------------------------------- accounting

    def op(self, ok, reason=None, wrong=False):
        """Count one attempted op; a failure is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1
            self.wrong += wrong
        return ok

    def child(self, argv, stdout_path):
        code, wall, usage, timed_out = common.run_child(
            argv, self.env, stdout_path, CHILD_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.child_cpu_s += usage.ru_utime + usage.ru_stime
        return code, wall, timed_out

    def unit(self, tally, key, wall, nominal, ok, role, **earns):
        unit = self.units[tally.traced].setdefault(key, Unit(role, **earns))
        unit.walls.append(wall)
        unit.nominals.append(nominal)
        unit.oks.append(ok)

    def reference(self, kind):
        """Wall seconds of one reference child ("child" or "spawn"); it
        is not one of the program's processes, so its rusage is not
        counted."""
        code = common.REFERENCE_CHILD if kind == "child" else "pass"
        status, wall, _usage, timed_out = common.run_child(
            [sys.executable, "-c", code], self.env, self.work / "reference.out",
            CHILD_TIMEOUT_S)
        if status != 0 or timed_out:
            raise RuntimeError(f"{kind} reference child failed (exit code {status})")
        return wall

    # ---------------------------------------------------------------- setup

    def measure_setup(self, spawns):
        """Fresh interpreters through `import modpascal.cli`.

        Each spawn is timed against an interpreter that imports nothing,
        spawned just before and just after it, and the spawns are spread
        over the run: some before the first pass and some after each
        pass.  Spawns are not ops (ok_frac must not depend on how many
        passes fit); one that fails is a failed op.
        """
        out = self.work / "setup.out"
        before = self.reference("spawn")
        for _ in range(spawns):
            code, wall, _ = self.child([sys.executable, "-c", "import modpascal.cli"], out)
            after = self.reference("spawn")
            if code != 0:
                self.op(False, f"import modpascal.cli exited {code}", True)
            self.setup_walls.append(wall)
            self.setup_times.append(common.nominal(wall, before, after, "spawn"))
            before = after

    # --------------------------------------------------------------- passes

    def run_passes(self):
        one_pass = self.bigint_pass if self.workload == "bigint" else self.cli_pass
        start = time.perf_counter()
        last = 0.0
        while (len(self.passes) < 1 + self.trace
               or time.perf_counter() - start + last / 2 < self.seconds):
            folder = self.work / f"pass{len(self.passes)}"
            folder.mkdir()
            tally = Pass(self.trace and len(self.passes) % 2 == 1)
            self.tracer.enabled = tally.traced
            begin = time.perf_counter()
            with self.tracer.span("pass") as pass_span:
                one_pass(tally, folder, pass_span)
                if tally.traced:
                    self.worker("replay", tally, folder, pass_span)
                    self.worker("probe", tally, folder, pass_span)
            last = time.perf_counter() - begin
            tally.spans = self.tracer.spans[:]
            self.tracer.spans.clear()
            tally.wall = last
            self.passes.append(tally)
            shutil.rmtree(folder)
            self.measure_setup(SETUP_SPAWNS_PER_PASS)

    def worker(self, mode, tally, folder, parent, planned=1):
        """Run one worker part; `planned` is the number of ops it stands
        for, all failed if the worker dies."""
        task = {"mode": mode, "workload": self.workload, "trace": tally.traced,
                "params": self.task_params, "goldens": self.goldens,
                "dir": str(folder), "parent": parent,
                "origin": f"{folder.name}-{mode}"}
        task_path = folder / f"{mode}.task.json"
        result_path = folder / f"{mode}.result.json"
        with open(task_path, "w") as handle:
            json.dump(task, handle)
        argv = [sys.executable, str(HERE / "worker.py"), str(task_path), str(result_path)]
        code, _wall, timed_out = self.child(argv, folder / f"{mode}.out")
        if code != 0:
            # A worker that raised has hit a fault in the library (or a
            # changed API); one that ran out of time only failed.
            reason = "timed out" if timed_out else f"exit code {code}"
            for _ in range(planned):
                self.op(False, f"{mode} worker: {reason}", not timed_out)
            return None
        with open(result_path) as handle:
            result = json.load(handle)
        self.tracer.spans.extend(result["spans"])
        tally.counts.update(result["counts"])
        for _name, ok, reason in result["checks"]:
            self.op(ok, f"{mode}: {reason}", True)
        return result

    def bigint_pass(self, tally, folder, pass_span):
        planned = (plan.BIGINT_ROUNDS * len(self.params["inputs"])
                   * len(plan.BIGINT_FUNCS))
        result = self.worker("bigint", tally, folder, pass_span, planned)
        for op in result["ops"] if result else ():
            want = self.expected[(op["input"], op["func"])]
            if op["value_res"] not in (None, want):
                ok = self.op(False, "value disagrees with the modular reference", True)
            elif op["reason"]:
                ok = self.op(False, op["reason"], op["wrong"])
            else:
                ok = self.op(op["text_res"] == want,
                             "decimal text disagrees with the modular reference", True)
            self.unit(tally, f"{op['func']} {op['input']}", op["wall"], op["nominal"], ok,
                      "records", records=1, bits=op["bits"] or 0)
        self.cli_pass(tally, folder, pass_span)

    def cli_pass(self, tally, folder, pass_span):
        before = self.reference("child")
        for kind, key, argv in plan.pass_steps(self.workload, self.params):
            argv = [a.replace("{dir}", str(folder)) for a in argv]
            golden = self.goldens[key]
            name = key if kind in ("bfile", "stdout", "verify") else f"{kind} {key}"
            if kind == "corrupt":
                corrupt_line = write_corrupt_copy(folder, self.params["corrupt_index"])
            out = folder / f"{argv[0]}.out"
            with self.tracer.span(f"cli.{argv[0]}", pass_span):
                code, wall, timed_out = self.child(
                    [sys.executable, "-c", CLI, *argv], out)
            after = self.reference("child")
            seconds = common.nominal(wall, before, after, "child")
            before = after
            stdout = out.read_bytes()
            tally.counts["cli.stdout_bytes"] += len(stdout)
            tally.counts["cli.exit_nonzero"] += code != 0
            want_code, want_out, want_sha = 0, None, golden["sha256"]
            if kind == "bfile":
                want_out = f"wrote {golden['records']} records to {argv[3]}\n"
            elif kind == "compare":
                want_out = f"{argv[1]}: all {golden['records']} records agree\n"
            elif kind == "corrupt":
                want_code, want_out = 1, corrupt_line
            if timed_out:
                ok = self.op(False, f"{name}: timed out")
            elif code != want_code:
                ok = self.op(False, f"{name}: exit code {code}, expected {want_code}", True)
            elif want_out is not None and stdout.decode("ascii", "replace") != want_out:
                ok = self.op(False, f"{name}: stdout differs from the expected line", True)
            elif kind == "bfile" and common.sha256_file(argv[3]) != want_sha:
                ok = self.op(False, f"{name}: file differs from the golden digest", True)
            elif kind in ("stdout", "verify") and common.sha256(stdout) != want_sha:
                ok = self.op(False, f"{name}: stdout differs from the golden digest", True)
            else:
                ok = self.op(True)
            if kind == "verify":
                self.unit(tally, name, wall, seconds, ok, "checks", checks=golden["checks"])
            else:
                self.unit(tally, name, wall, seconds, ok, "records",
                          records=golden["records"], bits=golden["bits"])

    # -------------------------------------------------------------- metrics

    def end_to_end(self):
        """Rates are credit per nominal second, each unit at its median
        over the untraced passes; setup_s is the median nominal spawn."""
        def rate(role, field):
            return common.goodput([(u.nominals, u.oks, getattr(u, field))
                                   for u in self.units[False].values() if u.role == role])
        return {
            "setup_s": statistics.median(self.setup_times),
            "bits_per_s": rate("records", "bits"),
            "records_per_s": rate("records", "records"),
            "checks_per_s": rate("checks", "checks"),
            "ok_frac": 1.0 - common.fail_frac(self.attempted, self.failed),
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
        }

    def per_layer(self):
        per_pass = []
        for p in self.passes:
            if not p.traced:
                continue
            values = dict.fromkeys(PER_LAYER, 0.0)
            for name, seconds in common.span_totals(p.spans).items():
                if f"{name}_s" in values:
                    values[f"{name}_s"] = seconds
            for name, count in p.counts.items():
                if name in values:
                    values[name] = float(count)
            values["cli.spawn_s"] = statistics.median(self.setup_times)
            values["trace.spans"] = float(len(p.spans))
            per_pass.append(values)
        metrics = {name: statistics.median([v[name] for v in per_pass]) for name in PER_LAYER}
        metrics["trace.overhead_frac"] = self.trace_overhead()
        return metrics

    def trace_overhead(self):
        """How much longer the timed units (bigint ops, CLI steps) take in
        traced passes than in untraced ones, each at its median in
        nominal seconds."""
        untraced, traced = self.units[False], self.units[True]
        keys = untraced.keys() & traced.keys()
        def total(units):
            return sum(statistics.median(units[k].nominals) for k in keys)
        return total(traced) / total(untraced) - 1.0


def write_corrupt_copy(folder, index):
    """Copy the pass's A114212 b-file with record `index` changed by one;
    return the line bfile-compare must print for it."""
    seq = plan.CORRUPTED_SEQ
    lines = (folder / f"{seq}.txt").read_text(encoding="ascii").splitlines(keepends=True)
    record, value = lines[index].split()
    bad = int(value) + 1
    lines[index] = f"{record} {bad}\n"
    (folder / "corrupt.txt").write_text("".join(lines), encoding="ascii")
    return f"{seq}: mismatch at index {index}: file has {bad}, computed {value}\n"


def bigint_expected(params):
    """Residues the bigint ops must produce, by (input label, function)."""
    expected = {}
    for label, data in params["inputs"]:
        d = common.continuant_residue(common.runs_of(data))
        s = common.stern_residue(data)
        expected.update({(label, "diagonal_sum_fast"): d, (label, "stern"): s,
                         (label, "linear_rep_eval"): d})
    return expected


def environment(run):
    revision, dirty = "unknown", None
    if (run.root / ".git").exists():
        git = ["git", "-C", str(run.root)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True)
        if head.returncode == 0:
            revision, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "passes": len(run.passes),
        "git_revision": revision,
        "git_dirty": dirty,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "PYTHONINTMAXSTRDIGITS": os.environ.get("PYTHONINTMAXSTRDIGITS"),
        "gmpy2_importable": find_spec("gmpy2") is not None,
    }


def report(run):
    print("env " + json.dumps(environment(run), sort_keys=True))
    times = run.setup_times
    tail = common.tail_percentile(len(times))
    tail_text = (f"p{tail} {common.percentile(times, tail):.4f} s" if tail
                 else "no tail percentile (fewer than 20 samples)")
    print(f"setup: {len(times)} spawns, median {statistics.median(times):.4f} nominal s, "
          f"{tail_text}; wall median {statistics.median(run.setup_walls):.4f} s")
    print(f"passes: {len(run.passes)}, wall "
          + ", ".join(f"{p.wall:.2f} s" for p in run.passes)
          + f"; child cpu {run.child_cpu_s:.2f} s")
    for name, unit in run.units[False].items():
        print(f"unit {name}: median {statistics.median(unit.nominals):.4f} nominal s, "
              f"wall median {statistics.median(unit.walls):.4f} s, "
              f"{len(unit.walls)} passes, {sum(unit.oks)} ok")
    print(f"fail_frac: {run.failed}/{run.attempted} = "
          f"{common.fail_frac(run.attempted, run.failed):.4f}")
    for reason, count in sorted(run.reasons.items()):
        print(f"failed: {count} x {reason}")
    if run.trace:
        metrics, units = run.per_layer(), PER_LAYER
    else:
        metrics, units = run.end_to_end(), END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": run.wrong == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_trace(run):
    path = run.root / ".perfbench" / f"trace-{run.workload}-seed{run.seed}.json"
    spans = [s for p in run.passes for s in p.spans]
    with open(path, "w") as handle:
        json.dump({"workload": run.workload, "seed": run.seed, "spans": spans}, handle)
    print(f"trace: {len(spans)} spans written to {path.relative_to(run.root)}")


def steadiness(args):
    """Repeat a workload on several seeds; print each metric's spread
    (quartile distance over median) against its bound."""
    with open("BENCHMARK.json") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = common.quartile_spread(vals)
        verdict = "ok" if spread <= bounds[name] / 3 else (
            "within bound" if spread <= bounds[name] else "OVER BOUND")
        print(f"{name}: median {statistics.median(vals):.6g}, spread {spread:.4f}, "
              f"bound {bounds[name]} -> {verdict}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run the workload on --runs seeds and print spreads")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)

    root = Path.cwd()
    if not (root / "src" / "modpascal" / "cli.py").is_file():
        print(f"error: {root} holds no src/modpascal; run from a modpascal checkout",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        run.measure_setup(1)  # writes the bytecode cache; not counted
        run.setup_times.clear()
        run.setup_walls.clear()
        run.measure_setup(SETUP_SPAWNS_FIRST)
        run.run_passes()
        result = report(run)
        if run.trace:
            write_trace(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
