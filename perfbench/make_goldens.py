"""Regenerate goldens.json: the SHA-256 digest, record count and bit
total of every CLI output the benchmark checks by digest.

    python3 perfbench/make_goldens.py

Run from the repository root.  Each output is produced by the CLI of the
code checked out, then spot-checked against the slow independent
routes in tests/oracles.py before its digest is kept.  Regenerate only
when the benchmark's inputs change, never to make a changed program
pass.
"""

import json
import os
import random
import re
import shutil
import sys
from pathlib import Path

import common
import plan

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402

CLI = "from modpascal.cli import run; run()"


def records_of(text):
    """Values of '<index> <value>' lines."""
    return [int(line.split()[1]) for line in text.splitlines()]


def row_col(index):
    n = 0
    while (n + 1) * (n + 2) // 2 <= index:
        n += 1
    return n, index - n * (n + 1) // 2


def spot_check(key, values, rng):
    """Compare a sample of values with tests/oracles.py; raise on a miss."""
    kind = key.split()

    def picks(limit, k):
        return rng.sample(range(limit), min(k, limit))

    if kind[0] == "bfile":
        seq = kind[1]
        if seq == "A119326":
            checks = {i: oracles.t_entry(*row_col(i)) for i in picks(len(values), 40)}
        elif seq == "A114213":
            checks = {i: oracles.t_parity(*row_col(i)) for i in picks(len(values), 60)}
        elif seq == "A114214":
            checks = {i: oracles.cf_numerator(oracles.binary_run_lengths(i))
                      for i in picks(len(values), 300)}
            checks.update({i: oracles.diag_sum(i) for i in range(64)})
        else:
            checks = {i: oracles.row_sum(i) for i in range(64)}
    elif kind[0] == "triangle":
        flat = [t for row in oracles.EXACT_ROWS for t in row]
        checks = dict(enumerate(flat))
        checks.update({i: oracles.t_entry(*row_col(i)) for i in picks(len(values), 40)})
    elif kind[0] == "seq":
        first = int(kind[2].split("..")[0])
        row, _ = row_col(first)
        checks = {k: oracles.t_entry(row, k) for k in picks(row + 1, 12)}
    else:
        return
    for i, want in checks.items():
        if values[i] != want:
            raise SystemExit(f"{key}: value {i} is {values[i]}, oracle says {want}")


def golden_for(key, argv, env, folder, rng):
    argv = [a.replace("{dir}", str(folder)) for a in argv]
    out = folder / "stdout"
    code, _wall, _usage, _timed_out = common.run_child(
        [sys.executable, "-c", CLI, *argv], env, out, 600)
    if code != 0:
        raise SystemExit(f"{key}: exit code {code}")
    stdout = out.read_text(encoding="ascii")
    if argv[0] == "bfile":
        text = Path(argv[3]).read_text(encoding="ascii")
        values = records_of(text)
    elif argv[0] == "verify":
        if not stdout.rstrip().endswith("=> pass"):
            raise SystemExit(f"{key}: verify did not pass")
        checks = sum(int(m) for m in re.findall(r"PASS .*: (\d+) checks", stdout))
        if argv[1] == "proposition":
            m = int(argv[3])
            if checks != (m + 1) * (m + 2) // 2:
                raise SystemExit(f"{key}: {checks} checks, expected one per (n, k)")
        return {"sha256": common.sha256(stdout.encode("ascii")),
                "checks": checks}
    else:
        text = stdout
        values = ([int(t) for t in text.split()] if argv[0] == "triangle"
                  else records_of(text))
    spot_check(key, values, rng)
    return {"sha256": common.sha256(text.encode("ascii")),
            "records": len(values),
            "bits": sum(v.bit_length() for v in values)}


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    folder = ROOT / ".perfbench" / "goldens-tmp"
    folder.mkdir(parents=True, exist_ok=True)
    goldens = {}
    try:
        for workload in plan.WORKLOADS:
            for key, argv in plan.golden_steps(workload):
                goldens[key] = golden_for(key, argv, env, folder, random.Random(key))
                print(key, goldens[key], flush=True)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    path = Path(__file__).resolve().parent / "goldens.json"
    with open(path, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} goldens to {path}")


if __name__ == "__main__":
    main()
