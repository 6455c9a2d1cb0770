"""Verified sequence library for Barry's modified Pascal triangle.

The triangle T(n,k) (OEIS A119326) sums products of two binomial
coefficients over even column indices.  Taken mod 2 it collapses to a
shifted Pascal parity pattern (A114213), its row sums have a closed
form in the binary weight of n (A114212), and its diagonal sums equal
the continuant of the run lengths of n written in binary (A114214),
which ties them to Stern's diatomic sequence.

Every nontrivial equality ships with at least two independent
evaluation routes plus a verification suite that cross-checks them;
see the verify module and the `modpascal` command line tool.
"""

from .bfile import (
    BFile,
    BFileComparison,
    BFileParseError,
    SEQUENCES,
    compare_bfile,
    generate_bfile,
    parse_bfile,
    serialize_bfile,
)
from .kernel import (continuant, diagonal_sum_fast, run_lengths, runs_to_int,
                     stern)
from .regular import (
    LinearRep,
    derive_linear_rep,
    diagonal_sum_recurrence,
    linear_rep_eval,
    linear_rep_state,
)
from .triangle import (
    TriangleRow,
    binom_parity,
    carlitz_sum,
    diagonal_sum_brute,
    iter_triangle_terms,
    row_sum_brute,
    row_sum_closed,
    triangle_entry,
    triangle_entry_parity,
    triangle_row,
    triangle_row_parity,
)
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "BFileComparison",
    "BFileParseError",
    "LinearRep",
    "SEQUENCES",
    "TriangleRow",
    "VerifyReport",
    "binom_parity",
    "carlitz_sum",
    "compare_bfile",
    "continuant",
    "derive_linear_rep",
    "diagonal_sum_brute",
    "diagonal_sum_fast",
    "diagonal_sum_recurrence",
    "generate_bfile",
    "iter_triangle_terms",
    "linear_rep_eval",
    "linear_rep_state",
    "parse_bfile",
    "row_sum_brute",
    "row_sum_closed",
    "run_lengths",
    "run_suite",
    "runs_to_int",
    "serialize_bfile",
    "stern",
    "triangle_entry",
    "triangle_entry_parity",
    "triangle_row",
    "triangle_row_parity",
]
