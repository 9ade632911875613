"""Exact certificates of MILP optimality and infeasibility.

The package verifies, tightens, renders, and generates sequentially
checkable proofs for mixed-integer linear programs over exact rational
arithmetic. A certificate carries the problem, a goal (infeasibility or an
optimal-value range), claimed solutions, and a list of derived constraints,
each justified as an assumption, a suitable linear combination of earlier
rows, a rounding of such a combination, or the unsplitting of two rows
proved under complementary branch assumptions.

Importing the package loads the parser, the checker and the tightener only.
The renderer, the exact simplex and the solver are imported from their own
modules (``mipcert.render``, ``mipcert.simplex``, ``mipcert.solve``), so a
program that only checks certificates never loads them.
"""

from .certfile import (
    ParseError,
    parse_certificate,
    parse_problem,
    read_certificate,
    write_certificate,
    write_problem,
)
from .checker import (
    CheckFailure,
    CheckStats,
    VerificationReport,
    verify_certificate,
    verify_certificate_file,
)
from .model import (
    KEEP_UNTIL_END,
    Asm,
    AssumptionSet,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    RangeGoal,
    Reason,
    Rnd,
    RtpGoal,
    RuleViolation,
    Sense,
    Solution,
    SparseVec,
    Uns,
    check_disjunction_pair,
    dominates,
    evaluate_solution,
    format_constraint,
    format_linear,
    is_absurd,
    linear_combine,
    round_constraint,
)
from .numeric import (
    Rational,
    format_rational,
    is_integral,
    parse_rational,
    rational_ceil,
    rational_floor,
)
from .tighten import compute_last_use, prune_unused, tighten

__version__ = "0.1.0"

__all__ = [
    "KEEP_UNTIL_END",
    "Asm",
    "AssumptionSet",
    "Certificate",
    "CheckFailure",
    "CheckStats",
    "Constraint",
    "Derivation",
    "InfeasibleGoal",
    "Lin",
    "ObjectiveSense",
    "ParseError",
    "Problem",
    "RangeGoal",
    "Rational",
    "Reason",
    "Rnd",
    "RtpGoal",
    "RuleViolation",
    "Sense",
    "Solution",
    "SparseVec",
    "Uns",
    "VerificationReport",
    "check_disjunction_pair",
    "compute_last_use",
    "dominates",
    "evaluate_solution",
    "format_constraint",
    "format_linear",
    "format_rational",
    "is_absurd",
    "is_integral",
    "linear_combine",
    "parse_certificate",
    "parse_problem",
    "parse_rational",
    "prune_unused",
    "rational_ceil",
    "rational_floor",
    "read_certificate",
    "round_constraint",
    "verify_certificate",
    "verify_certificate_file",
    "write_certificate",
    "write_problem",
]
