"""Command-line interface: the subcommands triangle, seq, bfile,
bfile-compare and verify, each described by its help (`modpascal --help`).

Exit codes: 0 success (also when a reader of stdout stops early, as `head`
does), 1 a verification counterexample or b-file mismatch, 2 usage error,
3 I/O or parse error (a closed stdout too) or out of memory, 130
interrupted (Ctrl-C), with nothing on stderr.  All numeric output is
decimal with unlimited precision.
"""

import argparse
import os
import sys
from itertools import islice

from . import bfile as bfile_mod
from . import verify

__all__ = ["main", "run"]


def _number(text: str) -> int:
    """A CLI number: ASCII decimal digits ('[0-9]+') of any length, also
    past the int/str digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not ASCII digits: {text!r}")
    return bfile_mod.from_decimal(text)


def _range(text: str) -> tuple[int, int]:
    """Inclusive 'A..B' range of _numbers; a bare 'A' means A..A."""
    lo, sep, hi = text.partition("..")
    first = _number(lo)
    last = _number(hi) if sep else first
    if last < first:
        raise argparse.ArgumentTypeError(f"end below start in {text!r}")
    return first, last


def _cmd_triangle(args: argparse.Namespace) -> int:
    if args.rows < 1:
        args.parser.error(f"rows must be >= 1, got {args.rows}")
    terms = bfile_mod.ROUTES["t-row"][args.mode](0)
    for n in range(args.rows):
        print(" ".join(map(bfile_mod.to_decimal, islice(terms, n + 1))))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    routes = bfile_mod.ROUTES[args.which]
    method = next(iter(routes)) if args.method is None else args.method
    if method not in routes:
        args.parser.error(
            f"method {method!r} is not valid for {args.which!r}; "
            f"choose from {', '.join(routes)}"
        )
    first, last = args.range
    sys.stdout.writelines(bfile_mod.record_blocks(range(first, last + 1),
                                                  routes[method](first)))
    return 0


def _cmd_bfile(args: argparse.Namespace) -> int:
    which, route = bfile_mod.SEQUENCES[args.seq_id]
    blocks = bfile_mod.record_blocks(range(args.max_index + 1),
                                     bfile_mod.ROUTES[which][route](0))
    try:
        with open(args.out_path, "w", newline="\n") as handle:
            handle.writelines(blocks)
    except BrokenPipeError as exc:  # not stdout's: the b-file is cut short
        raise OSError(f"{exc}: {args.out_path!r}") from None
    print(f"wrote {args.max_index + 1} records to {args.out_path}")
    return 0


def _cmd_bfile_compare(args: argparse.Namespace) -> int:
    # newline="\n": a lone "\r" must reach the parser, not end a record
    with open(args.path, encoding="ascii", newline="\n") as handle:
        result = bfile_mod.compare_stream(args.seq_id, handle)
    if result.passed:
        print(f"{args.seq_id}: all {result.checked} records agree")
        return 0
    index, file_value, computed = map(bfile_mod.to_decimal, result.mismatch)
    print(
        f"{args.seq_id}: mismatch at index {index}: "
        f"file has {file_value}, computed {computed}"
    )
    return 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        args.parser.error(f"--max-n must be >= 1, got {args.max_n}")
    report = verify.run_suite(args.suite, args.max_n)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modpascal",
        description="Modified Pascal triangle sequences, their fast "
        "evaluators, and cross-verification suites.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tri = commands.add_parser(
        "triangle", help="print the first N rows of the triangle"
    )
    tri.add_argument("rows", type=_number, help="number of rows (>= 1)")
    tri.add_argument(
        "--mode", choices=tuple(bfile_mod.ROUTES["t-row"]), default="exact",
        help="exact entries or entries mod 2 (default: exact)",
    )
    tri.set_defaults(handler=_cmd_triangle, parser=tri)

    seq = commands.add_parser(
        "seq", help="stream '<n> <value>' lines for a sequence"
    )
    seq.add_argument(
        "which", choices=tuple(bfile_mod.ROUTES),
        help="d: diagonal sums; r: row sums; stern: Stern's diatomic "
        "sequence; t-row: triangle entries in row-major order",
    )
    seq.add_argument("range", type=_range,
                     help="inclusive range 'A..B', or a single 'A'")
    seq.add_argument(
        "--method",
        help="evaluation route ("
        + ", ".join(
            f"{which}: {'|'.join(routes)}"
            for which, routes in bfile_mod.ROUTES.items()
        )
        + "); default is the first listed",
    )
    seq.set_defaults(handler=_cmd_seq, parser=seq)

    bf = commands.add_parser(
        "bfile", help="write an OEIS b-file for a sequence id"
    )
    bf.add_argument("seq_id", choices=tuple(bfile_mod.SEQUENCES))
    bf.add_argument("max_index", type=_number, help="last index to include")
    bf.add_argument("out_path", help="output file path")
    bf.set_defaults(handler=_cmd_bfile, parser=bf)

    bfc = commands.add_parser(
        "bfile-compare",
        help="recompute a local b-file's records and report disagreements",
    )
    bfc.add_argument("seq_id", choices=tuple(bfile_mod.SEQUENCES))
    bfc.add_argument("path", help="local b-file to check")
    bfc.set_defaults(handler=_cmd_bfile_compare, parser=bfc)

    ver = commands.add_parser("verify", help="run an identity check suite")
    ver.add_argument("suite", choices=verify.SUITE_CHOICES)
    ver.add_argument(
        "--max-n", type=_number, default=256,
        help="largest parameter checked per identity (default: 256; the "
        "suites comparing exact triangle entries grow quadratically "
        "in this, so raise it per suite)",
    )
    ver.set_defaults(handler=_cmd_verify, parser=ver)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if sys.stdout is None:  # started with fd 1 closed
        print("error: stdout is closed", file=sys.stderr)
        return 3
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:  # stdout's reader left; devnull takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (bfile_mod.BFileParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
