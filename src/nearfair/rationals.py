"""Exact-rational helpers: parsing, formatting, and float snapping.

All quantitative instance data in this package is `fractions.Fraction`; the
only floats live inside the convex-optimization stage and the logarithmic
objective coefficients of apportionment.  Frank-Wolfe keeps its vertices
exact and snaps only their float weights to rationals with a bounded
denominator; the Frank-Wolfe gradient and the log costs are read exactly
(``Fraction(float)``).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, Fractions, and "p/q" / decimal strings to Fraction.

    Floats are rejected: instance files carry exact data only.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SchemaError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(
            f"float {value!r} rejected: rationals must be given as integers "
            'or "p/q" / decimal strings'
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse rational from {value!r}") from exc
    raise SchemaError(f"cannot parse rational from {value!r}")


def rat_str(value: Fraction) -> str:
    """Format a Fraction canonically ("3", "-1/2")."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def snap(x: float, max_denominator: int = 10**6) -> Fraction:
    """Nearest rational with a bounded denominator (continued fractions)."""
    return Fraction(x).limit_denominator(max_denominator)


def ceil_frac(value: Fraction) -> int:
    """Exact ceiling of a rational."""
    return -((-value.numerator) // value.denominator)
