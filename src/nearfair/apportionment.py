"""Multidimensional proportional apportionment by LP rounding.

Seats are assigned to tuples of groups (party x district x ...) with votes,
per-group seat windows, and a fixed house size.  Divisor rounding rules are
given by signpost sequences s with s(0)=0, s(t) in [t-1, t], strictly
increasing from t >= 1: a quotient q rounds to t when s(t) < q < s(t+1) and
may round either way at the boundary.

The fractional stage minimizes  sum x(e,t) ln(s(t)/V_e)  over the window
polytope; its optima are exactly the proportional apportionments, and any
0/1 rounding of an optimum keeps the divisor property.  Each cost is the
float logarithm, read exactly as the dyadic rational it is, so the
objective row shares one power-of-two denominator; the float stage ends at
exact post-conditions (an integral vertex at d <= 2, ``divisor_certified``
over the cells of every market without windows).  For one or two
dimensions the constraint matrix is an interval/network matrix, so the
vertex optimum is already integral; with three or more dimensions the
optimum is rounded through the same iterative machinery as everything else,
with per-dimension budgets alpha+1 and the house tracked through the single
synthetic resource.  Admissible alpha are those of the "apportion" row of
``rounding.CONDITIONS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .errors import BudgetError, InfeasibleInstanceError, InvalidInstanceError, InvariantViolation
from .exactlp import LinearProgram, solve_vertex
from .model import Allocation, AgentSpec, Bundle, Instance, UtilityModel
from .rationals import ONE, ZERO, ceil_frac
from .rounding import CONDITIONS, DeviationBudget, check_condition, iterative_round


# ---------------------------------------------------------------------------
# signposts and rounding rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignpostMethod:
    """Named or custom signpost sequence."""

    tag: str
    signpost: Callable[[int], Fraction]

    @staticmethod
    def adams() -> "SignpostMethod":
        return SignpostMethod("adams", lambda t: Fraction(max(t - 1, 0)))

    @staticmethod
    def webster() -> "SignpostMethod":
        return SignpostMethod(
            "webster", lambda t: ZERO if t == 0 else Fraction(2 * t - 1, 2)
        )

    @staticmethod
    def jefferson() -> "SignpostMethod":
        return SignpostMethod("jefferson", lambda t: Fraction(t))

    @staticmethod
    def custom(signpost: Callable[[int], Fraction]) -> "SignpostMethod":
        return SignpostMethod("custom", signpost)

    @staticmethod
    def named(tag: str) -> "SignpostMethod":
        try:
            return {
                "adams": SignpostMethod.adams,
                "webster": SignpostMethod.webster,
                "jefferson": SignpostMethod.jefferson,
            }[tag]()
        except KeyError:
            raise InvalidInstanceError(f"unknown method {tag!r}") from None

    def s(self, t: int) -> Fraction:
        value = Fraction(self.signpost(t))
        if t == 0 and value != 0:
            raise InvalidInstanceError("signpost sequence must start at 0")
        if t >= 1 and not (t - 1 <= value <= t):
            raise InvalidInstanceError(f"signpost s({t})={value} outside [{t - 1},{t}]")
        return value

    def validate_prefix(self, upto: int) -> list[Fraction]:
        """Check s(0..upto) and return them, indexed by t."""
        values = []
        for t in range(upto + 1):
            v = self.s(t)
            if t >= 2 and v <= values[-1]:
                raise InvalidInstanceError(
                    f"signpost sequence not increasing at t={t}: {v} <= {values[-1]}"
                )
            values.append(v)
        return values


def rounding_set(method: SignpostMethod, q) -> set[int]:
    """Admissible roundings of a non-negative quotient under the rule."""
    q = Fraction(q)
    if q < 0:
        raise InvalidInstanceError(f"quotient {q} is negative")
    if q == 0:
        return {0}
    t = 0
    while True:
        s_next = method.s(t + 1)
        if q == s_next:
            return {t, t + 1}
        if q < s_next:
            return {t}
        t += 1


def divisor_certified(
    method: SignpostMethod, votes: Mapping, seats: Mapping
) -> bool:
    """True when some common multiplier reproduces the seat vector, i.e.
    max_e s(n_e)/V_e <= min_e s(n_e + 1)/V_e; vacuously true without votes.
    Each signpost is read once, as ``seat_costs`` reads them."""
    if not votes:
        return True
    s = method.validate_prefix(max(seats[e] for e in votes) + 1)
    low = max(s[seats[e]] / v for e, v in votes.items())
    return low <= min(s[seats[e] + 1] / v for e, v in votes.items())


def highest_averages(
    method: SignpostMethod, votes: Mapping, house: int
) -> dict:
    """Classic one-dimensional divisor method: award seats one at a time to
    the largest vote/signpost ratio.  Ties break by key order; callers that
    need a unique answer should avoid exact ties."""
    seats = {e: 0 for e in votes}
    keys = sorted(votes)
    if not keys and house > 0:
        raise InvalidInstanceError("cannot seat a positive house with no votes")
    for _ in range(house):
        best_key = None
        best_priority: Optional[tuple] = None
        for e in keys:
            sp = method.s(seats[e] + 1)
            # priority is votes/signpost; signpost 0 outranks everything
            priority = (1, ZERO) if sp == 0 else (0, Fraction(votes[e]) / sp)
            if best_priority is None or priority > best_priority:
                best_priority, best_key = priority, e
        seats[best_key] += 1
    return seats


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass
class MAInstance:
    """Votes over group tuples, per-group seat windows, and a house size."""

    dims: tuple[str, ...]
    groups: dict[str, tuple[str, ...]]
    votes: dict[tuple[str, ...], int]
    lower: dict[tuple[str, str], int]
    upper: dict[tuple[str, str], int]
    house: int

    def __post_init__(self):
        if self.house < 0:
            raise InvalidInstanceError("house size must be non-negative")
        for dim in self.dims:
            if dim not in self.groups or not self.groups[dim]:
                raise InvalidInstanceError(f"dimension {dim!r} has no groups")
        for e, v in self.votes.items():
            if len(e) != len(self.dims):
                raise InvalidInstanceError(f"tuple {e} has wrong arity")
            for dim, g in zip(self.dims, e):
                if g not in self.groups[dim]:
                    raise InvalidInstanceError(f"tuple {e} uses unknown group {g!r}")
            if not isinstance(v, int) or v < 1:
                raise InvalidInstanceError(f"votes for {e} must be a positive integer")
        for dim in self.dims:
            for g in self.groups[dim]:
                b = self.lower.get((dim, g), 0)
                bb = self.upper.get((dim, g), self.house)
                if not (0 <= b <= bb):
                    raise InvalidInstanceError(
                        f"bounds for ({dim},{g}) must satisfy 0 <= b <= B"
                    )

    def bounds(self, dim: str, g: str) -> tuple[int, int]:
        return self.lower.get((dim, g), 0), self.upper.get((dim, g), self.house)

    def binding_dimensions(self) -> list[str]:
        out = []
        for dim in self.dims:
            if all(b == bb for b, bb in (self.bounds(dim, g) for g in self.groups[dim])):
                out.append(dim)
        return out

    @property
    def d(self) -> int:
        return len(self.dims)


# ---------------------------------------------------------------------------
# the fractional stage
# ---------------------------------------------------------------------------


def seat_costs(
    ma: MAInstance, method: SignpostMethod
) -> dict[tuple[tuple[str, ...], int], Fraction]:
    """Objective coefficient of every seat variable x(e,t), t = 1..house,
    tuple-major in sorted tuple order (the LP's variable order).

    The cost of x(e,t) is the float ln(s(t)/V_e) read exactly as the dyadic
    rational it is, so every cost has a power-of-two denominator.  Zero
    signposts make a seat's coefficient minus infinity; those entries get a
    large negative constant that dominates every finite coefficient over the
    whole house.
    """
    # each signpost once per seat index, as a float; None when it is zero
    signposts = [float(sp) if sp else None for sp in method.validate_prefix(ma.house)]
    raw: dict[tuple[tuple[str, ...], int], Optional[float]] = {}
    finite_max = 0.0
    for e in sorted(ma.votes):
        for t in range(1, ma.house + 1):
            sp = signposts[t]
            if sp is None:
                raw[(e, t)] = None
            else:
                coeff = math.log(sp / ma.votes[e])
                raw[(e, t)] = coeff
                finite_max = max(finite_max, abs(coeff))
    big_m = Fraction(-(1.0 + ma.house * (1.0 + finite_max)))
    return {v: big_m if c is None else Fraction(c) for v, c in raw.items()}


def solve_lp_ma(
    ma: MAInstance, method: SignpostMethod
) -> dict[tuple[tuple[str, ...], int], Fraction]:
    """Vertex optimum of the log-quotient program over the window polytope,
    with the costs of ``seat_costs``."""
    costs = seat_costs(ma, method)
    lp = LinearProgram()
    col = {v: lp.add_variable(f"x[{v[0]},{v[1]}]") for v in costs}
    # every group's window row, filled in one pass over the seat variables
    rows: dict[tuple[str, str], dict[int, Fraction]] = {
        (dim, g): {} for dim in ma.dims for g in ma.groups[dim]
    }
    for (e, _), j in col.items():
        for dim, g in zip(ma.dims, e):
            rows[(dim, g)][j] = ONE
    for dim in ma.dims:
        for g in ma.groups[dim]:
            coeffs = rows[(dim, g)]
            b, bb = ma.bounds(dim, g)
            if not coeffs:
                if b > 0:
                    raise InfeasibleInstanceError(
                        f"group ({dim},{g}) has lower bound {b} but no seat to fill"
                    )
                continue
            if b > 0:
                lp.add_constraint(coeffs, ">=", Fraction(b))
            if bb < ma.house:
                lp.add_constraint(coeffs, "<=", Fraction(bb))
    lp.add_constraint(dict.fromkeys(col.values(), ONE), "=", Fraction(ma.house))
    lp.set_objective({col[v]: c for v, c in costs.items()})
    sol = solve_vertex(lp)
    if not sol.optimal:
        raise InfeasibleInstanceError("window polytope is empty")
    return {v: sol.value(j) for v, j in col.items()}


# ---------------------------------------------------------------------------
# budgets and the rounded pipeline
# ---------------------------------------------------------------------------


def ma_condition(ma: MAInstance, alpha: tuple[int, ...]) -> Fraction:
    """Slack of the "apportion" condition."""
    return CONDITIONS["apportion"].slack(alpha)


def delta_bound_ma(ma: MAInstance, alpha: tuple[int, ...]) -> int:
    """House-size deviation bound: the best of the per-dimension caps and
    the budget-driven cap."""
    slack = CONDITIONS["apportion"].require(alpha, d=ma.d)
    binding = set(ma.binding_dimensions())
    per_dim = []
    for li, dim in enumerate(ma.dims):
        k = len(ma.groups[dim])
        if dim in binding:
            per_dim.append(alpha[li] * k)
        else:
            per_dim.append((alpha[li] + 1) * k - 1)
    best = min(per_dim)
    if slack > 0:
        best = min(best, ceil_frac(ONE / slack - 2))
    return best


@dataclass
class ApportionmentResult:
    seats: dict[tuple[str, ...], int]
    fractional: dict[tuple[tuple[str, ...], int], Fraction]
    rounded: dict[tuple[tuple[str, ...], int], Fraction]
    group_seats: dict[tuple[str, str], int]
    group_deviation: dict[tuple[str, str], int]
    house_deviation: int
    delta_bound: int

    def total_seats(self) -> int:
        return sum(self.seats.values())


def _lifted_budget(alpha: tuple[int, ...]) -> DeviationBudget:
    """The budget of the lifted rounding: alpha_l + 1 per dimension, no
    total budget, no single-agent allowance (psi = 0, as d >= 3), max demand
    1, and the smallest per-resource delta that ``check_condition`` admits.

    At delta = 0 the resource term 1/(delta + 1) spends exactly 1, so the
    slack there plus 1 is what the group terms leave, rem; the smallest
    delta with 1/(delta + 1) <= rem is ceil(1/rem - 1).
    """
    lifted = tuple(a + 1 for a in alpha)
    rem = check_condition(DeviationBudget(lifted, 0, None, 0, 1)) + 1
    if rem <= 0:
        raise BudgetError(f"no per-resource budget fits: the group terms leave {rem}")
    return DeviationBudget(lifted, ceil_frac(ONE / rem - 1), None, 0, 1)


def _lift_and_round(
    ma: MAInstance,
    x_star: dict[tuple[tuple[str, ...], int], Fraction],
    alpha: tuple[int, ...],
) -> dict[tuple[tuple[str, ...], int], Fraction]:
    """Round a fractional seat tensor (d >= 3) through the general
    machinery: one synthetic agent per potential seat, one house resource."""
    names = {}
    agents = []
    for idx, ((e, t), _) in enumerate(sorted(x_star.items())):
        name = f"seat{idx}"
        names[(e, t)] = name
        memberships = {dim: e[li] for li, dim in enumerate(ma.dims)}
        agents.append(AgentSpec(name, 1, memberships))
    inst = Instance(
        agents,
        [("house", max(ma.house, 1))],
        binding=frozenset(),
        dimensions=ma.dims,
    )
    unit = Bundle.of({"house": 1})
    alloc = Allocation(
        {(names[v], unit): val for v, val in x_star.items() if val != 0}
    )
    util = UtilityModel(additive={a.id: {"house": ONE} for a in agents})

    budget = _lifted_budget(alpha)
    y, _cert = iterative_round(inst, alloc, util, budget)
    rounded = dict(x_star)
    for v in rounded:
        rounded[v] = y.value(names[v], unit)
    return rounded


def _unwindowed(ma: MAInstance) -> bool:
    """No group window cuts the house: every group may take 0 to all seats."""
    return all(
        b == 0 and bb >= ma.house
        for dim in ma.dims
        for b, bb in (ma.bounds(dim, g) for g in ma.groups[dim])
    )


def approx_apportionment(
    ma: MAInstance, method: SignpostMethod, alpha: tuple[int, ...]
) -> ApportionmentResult:
    """Solve the fractional program and round it within the seat windows.

    The result is always a 0/1 rounding of the fractional optimum, so the
    divisor property is inherited; group seat counts stay within alpha of
    their windows and the house size within the explicit bound.  At d <= 2
    the window matrix is totally unimodular, so a fractional vertex there is
    an invariant violation, and without windows, at any d, the seats of the
    cells must pass ``divisor_certified``.
    """
    bound = delta_bound_ma(ma, alpha)
    x_star = solve_lp_ma(ma, method)
    fractional = [v for v, val in x_star.items() if 0 < val < 1]
    if fractional and ma.d <= 2:
        raise InvariantViolation(
            f"fractional seat-LP vertex at d={ma.d}: {len(fractional)} entries, "
            f"first x{fractional[0]} = {x_star[fractional[0]]}"
        )
    rounded = _lift_and_round(ma, x_star, alpha) if fractional else x_star

    for v, val in rounded.items():
        if x_star[v] == 0 and val != 0:
            raise InvariantViolation("rounding invented a seat")
        if x_star[v] == 1 and val != 1:
            raise InvariantViolation("rounding dropped a committed seat")

    seats: dict[tuple[str, ...], int] = {e: 0 for e in ma.votes}
    for (e, t), val in rounded.items():
        if val == 1:
            seats[e] += 1
    group_seats = {}
    group_dev = {}
    for li, dim in enumerate(ma.dims):
        for g in ma.groups[dim]:
            n = sum(seats[e] for e in ma.votes if e[li] == g)
            b, bb = ma.bounds(dim, g)
            group_seats[(dim, g)] = n
            dev = max(0, b - n, n - bb)
            group_dev[(dim, g)] = dev
            if dev > alpha[li]:
                raise InvariantViolation(
                    f"group ({dim},{g}) misses its window by {dev} > alpha={alpha[li]}"
                )
    if _unwindowed(ma) and not divisor_certified(method, ma.votes, seats):
        raise InvariantViolation(
            f"seats {sorted(seats.items())} fail the {method.tag} divisor certificate"
        )
    total = sum(seats.values())
    house_dev = abs(total - ma.house)
    if house_dev > bound:
        raise InvariantViolation(
            f"house size deviates by {house_dev} > bound {bound}"
        )
    return ApportionmentResult(
        seats=seats,
        fractional=x_star,
        rounded=rounded,
        group_seats=group_seats,
        group_deviation=group_dev,
        house_deviation=house_dev,
        delta_bound=bound,
    )
