"""What each workload runs, and the inputs a seed gives it.

The CLI sizes are fixed, so that every seed runs work of the same cost
and goldens.json holds one digest per CLI step; the seed draws the
bigint inputs and the corrupted record.  make_goldens.py regenerates
the digests.

Why these workloads:

bigint       in-process d(n), s(n) and the matrix representation on
             n of 10^4 to 10^5 bits, random and alternating (every
             run of length 1, the continuant's worst case), each
             rendered with str(); plus `verify thm1` and `verify eq3`.
             Big-int kernel time and large decimal conversion.
exact-rows   CLI b-file of the exact triangle, its compare, `triangle`,
             one deep `seq t-row` row and `verify proposition`.  Exact
             rows with decimals of hundreds of digits.
small-terms  CLI b-files and compares of A114214/3/2 at 10^5 to
             2*10^5 indices, one compare of a corrupted copy, and
             `verify all`.  Millions of tiny calls, short lines and
             process start-up.
"""

import random

WORKLOADS = ("bigint", "exact-rows", "small-terms")

BIGINT_BITS = (10_000, 30_000, 100_000)
BIGINT_SHAPES = ("random", "alternating")
BIGINT_FUNCS = ("diagonal_sum_fast", "stern", "linear_rep_eval")
# How many times a pass runs each bigint op and each verify step, for
# more samples per pass of the work the rates rest on.
BIGINT_ROUNDS = 2
VERIFY_ROUNDS = 2

SIZES = {
    "bigint": {"thm1_max_n": 2500, "eq3_max_n": 40_000},
    "exact-rows": {"a119326_n": 40_000, "triangle_rows": 250, "deep_row": 1500,
                   "proposition_max_n": 250},
    "small-terms": {"a114214_n": 100_000, "a114213_n": 200_000, "a114212_n": 200_000,
                    "all_max_n": 250},
}

# The b-file whose copy gets one corrupted record in small-terms.
CORRUPTED_SEQ = "A114212"


def params(workload, seed):
    """The seeded inputs of one run: the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = dict(SIZES[workload])
    if workload == "bigint":
        chosen["inputs"] = bigint_inputs(rng)
    if workload == "small-terms":
        chosen["corrupt_index"] = rng.randrange(chosen["a114212_n"] + 1)
    return chosen


def bigint_inputs(rng):
    """[(label, big-endian bytes of n)] for every size and shape."""
    inputs = []
    for bits in BIGINT_BITS:
        for shape in BIGINT_SHAPES:
            if shape == "random":
                data = bytearray(rng.randbytes(bits // 8))
                data[0] |= 0x80
            else:
                data = bytearray(b"\xaa" * (bits // 8))
            inputs.append((f"{shape}-{bits}", bytes(data)))
    return inputs


def deep_row_range(row):
    """Linear indices of row `row` of the triangle read by rows."""
    first = row * (row + 1) // 2
    return first, first + row


def cli_steps(workload, p):
    """The CLI calls of one pass, in order, as (kind, golden key, argv tail).

    kind says how the output is checked: "bfile" (file digest), "compare"
    (agreement with the file just written), "corrupt" (exit 1 naming the
    corrupted index), "stdout" (stdout digest) or "verify" (stdout digest
    plus the check count).  `{dir}` in an argument stands for the pass's
    scratch directory.
    """
    if workload == "bigint":
        return [
            ("verify", f"verify thm1 {p['thm1_max_n']}",
             ["verify", "thm1", "--max-n", str(p["thm1_max_n"])]),
            ("verify", f"verify eq3 {p['eq3_max_n']}",
             ["verify", "eq3", "--max-n", str(p["eq3_max_n"])]),
        ]
    if workload == "exact-rows":
        bfile = f"bfile A119326 {p['a119326_n']}"
        first, last = deep_row_range(p["deep_row"])
        return [
            ("bfile", bfile,
             ["bfile", "A119326", str(p["a119326_n"]), "{dir}/A119326.txt"]),
            ("compare", bfile, ["bfile-compare", "A119326", "{dir}/A119326.txt"]),
            ("stdout", f"triangle {p['triangle_rows']}",
             ["triangle", str(p["triangle_rows"])]),
            ("stdout", f"seq t-row {first}..{last}",
             ["seq", "t-row", f"{first}..{last}"]),
            ("verify", f"verify proposition {p['proposition_max_n']}",
             ["verify", "proposition", "--max-n", str(p["proposition_max_n"])]),
        ]
    steps = []
    for seq in ("A114214", "A114213", "A114212"):
        bfile = f"bfile {seq} {p[seq.lower() + '_n']}"
        steps.append(("bfile", bfile,
                      ["bfile", seq, str(p[seq.lower() + "_n"]), f"{{dir}}/{seq}.txt"]))
        steps.append(("compare", bfile, ["bfile-compare", seq, f"{{dir}}/{seq}.txt"]))
    steps.append(("corrupt", f"bfile {CORRUPTED_SEQ} {p[CORRUPTED_SEQ.lower() + '_n']}",
                  ["bfile-compare", CORRUPTED_SEQ, "{dir}/corrupt.txt"]))
    steps.append(("verify", f"verify all {p['all_max_n']}",
                  ["verify", "all", "--max-n", str(p["all_max_n"])]))
    return steps


def pass_steps(workload, p):
    """cli_steps of one pass, with each verify step run VERIFY_ROUNDS
    times: checks_per_s rests on that one step alone."""
    return [step for step in cli_steps(workload, p)
            for _ in range(VERIFY_ROUNDS if step[0] == "verify" else 1)]


def golden_steps(workload):
    """(golden key, argv tail) of every CLI call whose output has a digest."""
    return [(key, argv) for kind, key, argv in cli_steps(workload, SIZES[workload])
            if kind in ("bfile", "stdout", "verify")]
