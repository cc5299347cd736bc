"""Exception hierarchy shared by all solvers and the CLI.

Each class carries the CLI's exit code for it and the label the CLI prints
before its message; broken invariants share the base class's 5.
"""


class NearFairError(Exception):
    """Base class for all library errors."""

    exit_code, label = 5, "internal error"


class InvalidInstanceError(NearFairError):
    """Instance data violates a structural invariant (overlapping groups,
    zero capacity, unknown ids, malformed preferences, ...)."""

    exit_code, label = 1, "error"


class InfeasibleInstanceError(NearFairError):
    """No fractional allocation exists for the instance."""

    exit_code, label = 2, "infeasible"


class BudgetError(NearFairError):
    """Deviation budget fails the sufficient condition or the total-deviation
    rule, so the rounding guarantee does not apply."""

    exit_code, label = 3, "budget"


class ScaleExceededError(NearFairError):
    """A brute-force guard tripped; the instance is too large for the
    exhaustive routine that was asked to run."""

    exit_code, label = 4, "scale"


class NoDominatingVertexError(NearFairError):
    """Exhaustive vertex search found no point all of whose roundings are
    stable.  The search is complete over vertices, so this is reported
    rather than silently retried."""

    exit_code, label = 2, "infeasible"


class SchemaError(NearFairError):
    """Malformed instance / allocation JSON."""

    exit_code, label = 1, "error"


class InvariantViolation(AssertionError, NearFairError):
    """An internal guarantee failed (per-iteration constraint count bound,
    LP feasibility during rounding, ...).  Always a bug, never user error."""
