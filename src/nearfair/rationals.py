"""Exact-rational helpers: parsing, formatting, common denominators and
float snapping.

Every quantity the package takes in or hands out is a `fractions.Fraction`:
instance data, allocations, LP answers and certificates.  Inside, the hot
sums run on integers instead: ``over_lcm`` writes a list of rationals as
integer numerators over their least common denominator, so a sum of them
is an integer sum and one ``Fraction`` built at the end.  The market model
(``model``), the rounder (``rounding``) and the exact simplex (``exactlp``)
work that way.  The only floats live inside the convex-optimization stage
and the logarithmic objective coefficients of apportionment.  Frank-Wolfe
keeps its vertices exact and snaps only their float weights to rationals
with a bounded denominator; the Frank-Wolfe gradient and the log costs are
read exactly (``Fraction(float)``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable

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


def over_lcm(ratios: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators of the rationals p/q (q > 0, as ``as_integer_ratio`` gives
    them) over their least common denominator, and that denominator."""
    ratios = list(ratios)
    den = reduce(lcm, {q for _, q in ratios}, 1)
    if den == 1:
        return [p for p, _ in ratios], 1
    return [p * (den // q) for p, q in ratios], den


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
