"""Group-fair assignment pipeline.

Maximizes a concave function of each group's utility over the fractional
allocation polytope and rounds the resulting point with a budget admitted
by the "assignment" row of ``rounding.CONDITIONS`` (per-resource budget
delta + 1, psi = 1).  The utilitarian objective is linear, so one exact LP
gives its optimum as a vertex.  Only non-linear objectives run away-step
Frank-Wolfe over exact LP vertices, whose exact convex combination, a point
of the polytope, is rounded as it is: the rounder takes any point, not only
a vertex.

The rounded assignment gives every agent exactly one bundle, lets each
group's utility drift strictly less than alpha_l times its best single
utility, exceeds no resource capacity by more than delta, and keeps the
total capacity excess within an explicit cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .errors import InfeasibleInstanceError, InvalidInstanceError, InvariantViolation
from .exactlp import LinearProgram, VertexSolution, feasible_vertex, solve_vertex
from .model import (
    Allocation,
    AgentSpec,
    Instance,
    Pair,
    UtilityModel,
    group_utilities,
    pair_index,
    pair_universe,
)
from .rationals import ONE, ZERO, snap
from .rounding import CONDITIONS, Certificate, DeviationBudget, capacity_excess, iterative_round

FW_TOLERANCE = 1e-9
FW_MAX_ITERATIONS = 10**4
SNAP_DENOMINATOR = 10**6
SPOT_CHECK_SAMPLES = (0.5, 1.0, 2.0, 5.0, 9.0)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairObjective:
    """Non-decreasing concave scalar function applied to each group utility."""

    kind: str
    f: Callable[[float], float]
    fprime: Optional[Callable[[float], float]] = None

    @staticmethod
    def utilitarian() -> "FairObjective":
        # linear: solved as one exact LP, so Frank-Wolfe needs no gradient
        return FairObjective("utilitarian", lambda z: z)

    @staticmethod
    def proportional() -> "FairObjective":
        return FairObjective(
            "proportional",
            lambda z: math.log(z) if z > 0 else float("-inf"),
            lambda z: 1.0 / z if z > 0 else float("inf"),
        )

    @staticmethod
    def custom(
        f: Callable[[float], float], fprime: Optional[Callable[[float], float]] = None
    ) -> "FairObjective":
        return FairObjective("custom", f, fprime)

    @property
    def linear(self) -> bool:
        """One exact LP optimizes a linear objective and returns an exact
        vertex; the others run Frank-Wolfe to an exact point of the polytope."""
        return self.kind == "utilitarian"

    def grad(self, z: float) -> float:
        if self.fprime is not None:
            return self.fprime(z)
        h = max(1e-7, 1e-7 * abs(z))  # sampled supergradient
        return (self.f(z + h) - self.f(max(z - h, 0.0))) / (z + h - max(z - h, 0.0))

    def spot_check(self) -> None:
        """Reject f that is visibly decreasing or convex on sampled triples."""
        samples = SPOT_CHECK_SAMPLES
        vals = [self.f(z) for z in samples]
        for (z1, v1), (z2, v2) in zip(zip(samples, vals), zip(samples[1:], vals[1:])):
            if v2 < v1 - 1e-12:
                raise InvalidInstanceError("objective is not non-decreasing")
        for i in range(len(samples) - 2):
            z1, z2, z3 = samples[i : i + 3]
            v1, v2, v3 = vals[i : i + 3]
            lam = (z3 - z2) / (z3 - z1)
            if v2 < lam * v1 + (1 - lam) * v3 - 1e-9:
                raise InvalidInstanceError("objective is not concave")


# ---------------------------------------------------------------------------
# the allocation polytope
# ---------------------------------------------------------------------------


def _assignment_instance(instance: Instance) -> Instance:
    """Assignment markets have every agent binding."""
    everyone = frozenset(a.id for a in instance.agents)
    if instance.binding == everyone:
        return instance
    return replace(instance, binding=everyone)


def allocation_polytope(
    instance: Instance,
) -> tuple[LinearProgram, list[Pair], dict[Pair, int]]:
    """LP over all acceptable (agent, bundle) pairs: binding agents sum to 1,
    others to at most 1, resource loads within capacity.

    A non-binding agent with no pair gets no row; a binding one makes the
    instance infeasible.  With binding = {} this is the couples packing
    polytope (Nguyen & Vohra 2018).
    """
    pairs = pair_universe(instance)
    by_agent, by_resource = pair_index(pairs)
    lp = LinearProgram()
    col = {e: lp.add_variable(f"x[{e[0]},{e[1]}]") for e in pairs}
    for a in instance.agents:
        own = by_agent.get(a.id)
        binding = a.id in instance.binding
        if binding and not own:
            raise InfeasibleInstanceError(f"agent {a.id!r} has no acceptable bundle")
        if own:
            lp.add_constraint({col[e]: 1 for e in own}, "=" if binding else "<=", 1)
    for r, c in instance.resources:
        if r in by_resource:
            lp.add_constraint({col[e]: m for e, m in by_resource[r].items()}, "<=", c)
    return lp, pairs, col


def _group_optimum(
    lp: LinearProgram, pairs: list[Pair], col: dict[Pair, int],
    utilities: UtilityModel, members: frozenset[str],
) -> VertexSolution:
    """Vertex maximizing the members' utility over the allocation polytope
    ``lp``; its objective is minus that maximum."""
    lp.set_objective(
        {col[e]: -utilities.of(*e) for e in pairs if e[0] in members}
    )
    sol = solve_vertex(lp)
    if not sol.optimal:
        raise InfeasibleInstanceError("no fractional allocation exists")
    return sol


def max_group_utility(
    instance: Instance, utilities: UtilityModel, dim: str, group_id: str
) -> Fraction:
    """Exact maximum of one group's utility over fractional allocations."""
    lp, pairs, col = allocation_polytope(instance)
    members = instance.group_members(dim, group_id)
    return -_group_optimum(lp, pairs, col, utilities, members).objective


# ---------------------------------------------------------------------------
# Frank-Wolfe stage
# ---------------------------------------------------------------------------


def solve_fair_fractional(
    instance: Instance,
    utilities: UtilityModel,
    objective: FairObjective,
) -> Allocation:
    """Maximize sum_g f(U_g) over fractional allocations.

    The utilitarian objective is linear: one exact LP returns its optimum,
    an exact vertex.  Any other objective runs away-step Frank-Wolfe (Guelat
    & Marcotte 1986; Lacoste-Julien & Jaggi 2015) over exact LP vertices
    until the Frank-Wolfe gap, read like the gradient and the line search on
    the vertices' group utilities, is within ``FW_TOLERANCE``; a run that
    uses up ``FW_MAX_ITERATIONS`` first raises ``InvariantViolation``.  The
    answer is the vertices' exact convex combination with the weights
    snapped and rescaled to sum to exactly 1: an exact point of the
    polytope.
    """
    instance = _assignment_instance(instance)
    objective.spot_check()
    lp, pairs, col = allocation_polytope(instance)
    if objective.linear:
        # sum_g U_g counts each pair once per group its agent belongs to
        weight = {a.id: sum(dim in a.groups for dim in instance.dimensions) for a in instance.agents}
        lp.set_objective({col[e]: -weight[e[0]] * utilities.of(*e) for e in pairs})
        sol = solve_vertex(lp)
        if not sol.optimal:
            raise InfeasibleInstanceError("no fractional allocation exists")
        return Allocation({e: sol.value(col[e]) for e in pairs if sol.value(col[e]) != 0})
    # every LP below optimizes over this one polytope: phase 1 runs once
    start = feasible_vertex(lp)
    if not start.optimal:
        raise InfeasibleInstanceError("no fractional allocation exists")
    keys = instance.group_keys()
    seeds = [start]
    if objective.kind == "proportional":
        # seed with the mean of the group optima; a group whose optimum is
        # zero has log utility -inf everywhere and is left out
        optima = [_group_optimum(lp, pairs, col, utilities, instance.group_members(*k)) for k in keys]
        keys = [k for k, sol in zip(keys, optima) if sol.objective < 0]
        seeds = [sol for sol in optima if sol.objective < 0]
        if not seeds:
            return Allocation({e: start.value(col[e]) for e in pairs})

    # the active set: each vertex, as its nonzero entries in pair order, and
    # its weight; ``uvecs`` keeps the group utilities of every vertex seen
    weights: dict[tuple, float] = {}
    uvecs: dict[tuple, list[float]] = {}

    def vertex(sol: VertexSolution) -> tuple:
        v = tuple((e, sol.value(col[e])) for e in pairs if sol.value(col[e]))
        if v not in uvecs:
            u = group_utilities(Allocation(dict(v)), utilities, instance)
            uvecs[v] = [float(u[k]) for k in keys]
        return v

    def dot(g: list[float], u: list[float]) -> float:
        return sum(a * b for a, b in zip(g, u))

    for v in map(vertex, seeds):
        weights[v] = weights.get(v, 0.0) + 1 / len(seeds)
    util = {e: utilities.of(*e) for e in pairs}
    current, gap = -math.inf, math.inf
    for _ in range(FW_MAX_ITERATIONS):
        us = [sum(w * uvecs[v][i] for v, w in weights.items()) for i in range(len(keys))]
        new = sum(objective.f(u) for u in us)
        if new < current - 1e-12:
            raise InvariantViolation("conditional-gradient objective decreased")
        current = new
        grad = [objective.grad(u) for u in us]
        # the LP reads the slopes exactly, summed over each agent's groups
        slope = dict(zip(keys, map(Fraction, grad)))
        scale = {a.id: sum((slope.get(k, ZERO) for k in a.groups.items()), ZERO) for a in instance.agents}
        lp.set_objective({col[e]: -scale[e[0]] * util[e] for e in pairs})
        s = vertex(solve_vertex(lp))
        here = dot(grad, us)
        gap = dot(grad, uvecs[s]) - here
        if gap <= FW_TOLERANCE * max(1.0, abs(current)):
            break
        a = min(weights, key=lambda v: dot(grad, uvecs[v]))
        toward = gap >= here - dot(grad, uvecs[a])  # else away from ``a``
        t, sign, top = (s, 1, 1.0) if toward else (a, -1, weights[a] / (1 - weights[a]))
        gamma = _line_search(objective, us, [sign * (b - u) for b, u in zip(uvecs[t], us)], top)
        weights = {v: w * (1 - sign * gamma) for v, w in weights.items()}
        weights[t] = weights.get(t, 0.0) + sign * gamma
        if not toward and gamma >= top * (1 - FW_TOLERANCE):
            weights[a] = 0.0  # a drop step: ``a`` leaves the active set
        weights = {v: w for v, w in weights.items() if w > 0}
    else:
        raise InvariantViolation(
            f"Frank-Wolfe did not converge in {FW_MAX_ITERATIONS} iterations: last gap {gap:.3g}"
        )

    snapped = {v: snap(w, SNAP_DENOMINATOR) for v, w in weights.items()}
    total = sum(snapped.values())
    values: dict[Pair, Fraction] = {}
    for v, w in snapped.items():
        for e, x in v:
            values[e] = values.get(e, ZERO) + w / total * x
    return Allocation(values)


def _line_search(objective: FairObjective, us: list[float], d: list[float], top: float) -> float:
    """The step in [0, top] maximizing sum_g f(us_g + gamma d_g): where the
    slope of that concave section changes sign, by bisection."""

    def slope(gamma: float) -> float:
        return sum(objective.grad(u + gamma * dk) * dk for u, dk in zip(us, d) if dk)

    if slope(top) >= 0:
        return top
    lo, hi = 0.0, top
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if slope(mid) >= 0 else (lo, mid)
    return lo


def refine_to_vertex(
    instance: Instance,
    utilities: UtilityModel,
    x: Allocation,
) -> Allocation:
    """Exact vertex of the polytope of allocations that give every group at
    least the utility it enjoys under ``x``, a point of the allocation
    polytope."""
    instance = _assignment_instance(instance)
    problems = x.check_allocation(instance, capacities=True)
    if problems:
        raise InvalidInstanceError(f"not a point of the allocation polytope: {problems[0]}")
    lp, pairs, col = allocation_polytope(instance)
    for key, target in group_utilities(x, utilities, instance).items():
        mem = instance.group_members(*key)
        lp.add_constraint({col[e]: utilities.of(*e) for e in pairs if e[0] in mem}, ">=", target)
    sol = feasible_vertex(lp)
    if not sol.optimal:
        raise InvariantViolation("the group utility bounds exclude the point they were read from")
    return Allocation({e: sol.value(col[e]) for e in pairs if sol.value(col[e]) != 0})


# ---------------------------------------------------------------------------
# the rounded pipeline
# ---------------------------------------------------------------------------


def delta_plus(w: int, n_agents: int, n_resources: int, k_total: int, delta: int) -> int:
    """Cap on the total capacity excess for max demand w and k_total groups."""
    return min(
        (w - 1) * n_agents + w * n_resources + (w + 1) * k_total,
        delta * n_resources,
    )


def delta_plus_bound(instance: Instance, delta: int) -> int:
    """Cap on the total capacity excess of the rounded assignment."""
    k_total = sum(instance.group_count(dim) for dim in instance.dimensions)
    return delta_plus(
        instance.omega_star, len(instance.agents), len(instance.resources), k_total, delta
    )


def fairness_condition(instance: Instance, alpha: tuple[int, ...], delta: int) -> Fraction:
    """Slack of the "assignment" condition at the instance's max demand."""
    return CONDITIONS["assignment"].slack(alpha, delta, instance.omega_star)


@dataclass
class FairResult:
    fractional: Allocation
    fractional_path: str  # "exact_lp" or "frank_wolfe"
    rounded: Allocation
    delta: int
    delta_plus: int
    resource_excess: dict[str, int]
    total_excess: int
    certificate: Certificate


def approx_fair_allocation(
    instance: Instance,
    utilities: UtilityModel,
    objective: FairObjective,
    alpha: tuple[int, ...],
    delta: int,
) -> FairResult:
    """Full pipeline: fair fractional point (an exact LP vertex under the
    utilitarian objective, the Frank-Wolfe point otherwise), rounding."""
    instance = _assignment_instance(instance)
    CONDITIONS["assignment"].require(alpha, delta, instance.omega_star, d=len(instance.dimensions))
    x_star = solve_fair_fractional(instance, utilities, objective)

    budget = DeviationBudget(
        alpha=tuple(alpha),
        delta=delta + 1,
        Delta=None,  # every agent is binding, so the weighted total never moves
        psi=1,
        omega_star=instance.omega_star,
    )
    y, cert = iterative_round(instance, x_star, utilities, budget)

    dplus = delta_plus_bound(instance, delta)
    excess = capacity_excess(instance, y, delta)
    total_excess = sum(excess.values())
    if total_excess > dplus:
        raise InvariantViolation(
            f"total excess {total_excess} exceeds the cap {dplus}"
        )
    return FairResult(
        fractional=x_star,
        fractional_path="exact_lp" if objective.linear else "frank_wolfe",
        rounded=y,
        delta=delta,
        delta_plus=dplus,
        resource_excess=excess,
        total_excess=total_excess,
        certificate=cert,
    )


def check_proportionality(
    instance: Instance,
    utilities: UtilityModel,
    y: Allocation,
    alpha: int,
) -> dict[str, tuple[bool, Fraction]]:
    """Single-dimension proportionality test.

    Each group must reach at least 1/k of the utility it could get under its
    own best fractional allocation, minus alpha times its best single
    utility.  Returns per-group (passed, margin).
    """
    instance = _assignment_instance(instance)
    if len(instance.dimensions) != 1:
        raise InvalidInstanceError("proportionality check needs exactly one dimension")
    dim = instance.dimensions[0]
    groups = instance.groups_in(dim)
    k = len(groups)
    out = {}
    if not groups:
        return out
    lp, pairs, col = allocation_polytope(instance)
    maxima = utilities.group_maxima(instance)
    got = group_utilities(y, utilities, instance)
    for g in groups:
        mem = instance.group_members(dim, g)
        best = -_group_optimum(lp, pairs, col, utilities, mem).objective
        margin = got[(dim, g)] - (best / k - alpha * maxima[(dim, g)])
        out[g] = (margin >= 0, margin)
    return out


# ---------------------------------------------------------------------------
# lower-bound families
# ---------------------------------------------------------------------------


def gen_lower_bound_instance(kind: str, n: int) -> tuple[Instance, UtilityModel]:
    """Families showing zero deviation on one side forces large deviation on
    the other.

    ``capacity``: n single-member groups, n unit-capacity resources, everyone
    values only the first resource; zero proportionality deviation forces
    overloading it by n-1.  ``utility-cycle``: two alternating groups on a
    cycle of n unit-capacity resources where only odd resources carry value;
    zero capacity deviation leaves one group with nothing.
    """
    resources = [(f"r{i}", 1) for i in range(1, n + 1)]
    if kind == "capacity":
        if n < 2:
            raise InvalidInstanceError("capacity family needs n >= 2")
        agents = [AgentSpec(f"a{i}", 1, {"group": f"g{i}"}) for i in range(1, n + 1)]
        valued, accept = ["r1"], None
    elif kind == "utility-cycle":
        if n < 2 or n % 2:
            raise InvalidInstanceError("utility-cycle family needs even n >= 2")
        half = n // 2
        agents = [AgentSpec(f"a{i}", 1, {"group": "g1"}) for i in range(1, half + 1)]
        agents += [AgentSpec(f"b{i}", 1, {"group": "g2"}) for i in range(1, half + 1)]
        # a_i takes r(2i-1) or r(2i), b_i takes r(2i) or r(2i+1), around the cycle
        accept = set()
        for i in range(1, half + 1):
            accept |= {(f"a{i}", f"r{2 * i - 1}"), (f"a{i}", f"r{2 * i}")}
            accept |= {(f"b{i}", f"r{2 * i}"), (f"b{i}", f"r{2 * i % n + 1}")}
        valued = [f"r{i}" for i in range(1, n + 1, 2)]
    else:
        raise InvalidInstanceError(f"unknown lower-bound family {kind!r}")
    inst = Instance(
        agents, resources, binding={a.id for a in agents}, dimensions=("group",), acceptability=accept
    )
    return inst, UtilityModel(additive={a.id: dict.fromkeys(valued, ONE) for a in agents})
