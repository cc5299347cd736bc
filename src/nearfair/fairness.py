"""Group-fair assignment pipeline.

Maximizes a concave function of each group's utility over the fractional
allocation polytope and rounds the resulting vertex with a budget admitted
by the "assignment" row of ``rounding.CONDITIONS`` (per-resource budget
delta + 1, psi = 1).  The utilitarian objective is linear, so one exact LP
gives its optimum as a vertex.  Only non-linear objectives run Frank-Wolfe
(with an exact LP linearization oracle) and then refine the float optimum to
an exact vertex that guarantees every group at least the utility it had.

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

from .errors import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvariantViolation,
    RefinementInfeasibleError,
)
from .exactlp import LinearProgram, VertexSolution, feasible_vertex, solve_vertex
from .model import (
    Allocation,
    AgentSpec,
    Instance,
    Pair,
    UtilityModel,
    group_utility,
    pair_index,
    pair_universe,
)
from .rationals import ONE, snap
from .rounding import CONDITIONS, Certificate, DeviationBudget, capacity_excess, iterative_round

FW_TOLERANCE = 1e-9
FW_MAX_ITERATIONS = 10**4
SNAP_DENOMINATOR = 10**6
REFINE_TOLERANCE = Fraction(1, 10**6)
REFINE_RETRY_TOLERANCE = Fraction(1, 10**4)
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
        vertex; the others run Frank-Wolfe and then ``refine_to_vertex``."""
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
            lp.add_constraint({col[e]: ONE for e in own}, "=" if binding else "<=", ONE)
    for r, c in instance.resources:
        if r in by_resource:
            coeffs = {col[e]: Fraction(m) for e, m in by_resource[r].items()}
            lp.add_constraint(coeffs, "<=", Fraction(c))
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
    an exact vertex.  Any other objective runs conditional-gradient steps
    with an exact LP oracle and exact line search on each segment, then
    snaps the float iterate to rationals with a bounded denominator; the
    snap is reconciled downstream by ``refine_to_vertex``.
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
    # every LP below optimizes over this one polytope, so ``lp`` runs phase 1
    # once for all of them
    start = feasible_vertex(lp)
    if not start.optimal:
        raise InfeasibleInstanceError("no fractional allocation exists")

    keys = instance.group_keys()
    members = {key: instance.group_members(*key) for key in keys}
    util = {e: float(utilities.of(*e)) for e in pairs}

    if objective.kind == "proportional":
        kept = []
        vertices = []
        for key in keys:
            sol = _group_optimum(lp, pairs, col, utilities, members[key])
            if -sol.objective > 0:
                kept.append(key)
                vertices.append([float(sol.value(col[e])) for e in pairs])
        if not kept:
            return Allocation({e: start.value(col[e]) for e in pairs})
        x = [sum(vs) / len(vertices) for vs in zip(*vertices)]
        keys = kept
    else:
        x = [float(start.value(col[e])) for e in pairs]

    def group_utils(point: list[float]) -> list[float]:
        out = []
        for key in keys:
            out.append(
                sum(point[i] * util[e] for i, e in enumerate(pairs) if e[0] in members[key])
            )
        return out

    def total(us: list[float]) -> float:
        return sum(objective.f(u) for u in us)

    current = total(group_utils(x))
    for _ in range(FW_MAX_ITERATIONS):
        us = group_utils(x)
        grad = [0.0] * len(pairs)
        for key, u in zip(keys, us):
            g = objective.grad(u)
            for i, e in enumerate(pairs):
                if e[0] in members[key]:
                    grad[i] += g * util[e]
        lp.set_objective(
            {col[e]: -snap(grad[i], 10**9) for i, e in enumerate(pairs) if grad[i]}
        )
        sol = solve_vertex(lp)
        v = [float(sol.value(col[e])) for e in pairs]
        us_v = group_utils(v)

        def phi(gamma: float) -> float:
            return total([(1 - gamma) * a + gamma * b for a, b in zip(us, us_v)])

        lo, hi = 0.0, 1.0
        for _ in range(100):  # exact enough ternary search on a concave section
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if phi(m1) < phi(m2):
                lo = m1
            else:
                hi = m2
        gamma = (lo + hi) / 2
        candidates = [(phi(g), g) for g in (0.0, gamma, 1.0)]
        best_val, gamma = max(candidates, key=lambda p: (p[0], -p[1]))
        if gamma > 0:
            x = [(1 - gamma) * a + gamma * b for a, b in zip(x, v)]
        new = total(group_utils(x))
        if new < current - 1e-12:
            raise InvariantViolation("conditional-gradient objective decreased")
        if abs(new - current) <= FW_TOLERANCE * max(1.0, abs(current)):
            current = new
            break
        current = new

    values = {
        e: snap(x[i], SNAP_DENOMINATOR)
        for i, e in enumerate(pairs)
        if snap(x[i], SNAP_DENOMINATOR) != 0
    }
    return Allocation(values)


def refine_to_vertex(
    instance: Instance,
    utilities: UtilityModel,
    x_star: Allocation,
) -> Allocation:
    """Exact vertex of the polytope of allocations that give every group at
    least (1 - REFINE_TOLERANCE) times the utility it enjoys under ``x_star``.

    Retries once with a looser tolerance when float drift in ``x_star`` made
    the first polytope empty.
    """
    instance = _assignment_instance(instance)
    keys = instance.group_keys()

    def attempt(tol: Fraction) -> Optional[Allocation]:
        lp, pairs, col = allocation_polytope(instance)
        for key in keys:
            mem = instance.group_members(*key)
            target = group_utility(x_star, utilities, instance, *key)
            coeffs = {col[e]: utilities.of(*e) for e in pairs if e[0] in mem}
            lp.add_constraint(coeffs, ">=", target * (1 - tol))
        sol = feasible_vertex(lp)
        if not sol.optimal:
            return None
        return Allocation(
            {e: sol.value(col[e]) for e in pairs if sol.value(col[e]) != 0}
        )

    out = attempt(REFINE_TOLERANCE)
    if out is None:
        out = attempt(REFINE_RETRY_TOLERANCE)
    if out is None:
        raise RefinementInfeasibleError(
            "group utility bounds stayed infeasible after relaxing the tolerance"
        )
    return out


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
    fractional_path: str  # "exact_lp" or "frank_wolfe_refined"
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
    """Full pipeline: fair fractional vertex (refined from the Frank-Wolfe
    point unless the objective is utilitarian), rounding."""
    instance = _assignment_instance(instance)
    CONDITIONS["assignment"].require(alpha, delta, instance.omega_star, d=len(instance.dimensions))
    x_star = solve_fair_fractional(instance, utilities, objective)
    x_fair = x_star if objective.linear else refine_to_vertex(instance, utilities, x_star)

    budget = DeviationBudget(
        alpha=tuple(alpha),
        delta=delta + 1,
        Delta=None,  # every agent is binding, so the weighted total never moves
        psi=1,
        omega_star=instance.omega_star,
    )
    y, cert = iterative_round(instance, x_fair, utilities, budget)

    dplus = delta_plus_bound(instance, delta)
    excess = capacity_excess(instance, y, delta)
    total_excess = sum(excess.values())
    if total_excess > dplus:
        raise InvariantViolation(
            f"total excess {total_excess} exceeds the cap {dplus}"
        )
    return FairResult(
        fractional=x_fair,
        fractional_path="exact_lp" if objective.linear else "frank_wolfe_refined",
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
    for g in groups:
        mem = instance.group_members(dim, g)
        best = -_group_optimum(lp, pairs, col, utilities, mem).objective
        ustar = utilities.group_max(instance, dim, g)
        got = group_utility(y, utilities, instance, dim, g)
        margin = got - (best / k - alpha * ustar)
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
    if kind == "capacity":
        if n < 2:
            raise InvalidInstanceError("capacity family needs n >= 2")
        agents = [AgentSpec(f"a{i}", 1, {"group": f"g{i}"}) for i in range(1, n + 1)]
        resources = [(f"r{i}", 1) for i in range(1, n + 1)]
        inst = Instance(
            agents,
            resources,
            binding={a.id for a in agents},
            dimensions=("group",),
        )
        util = UtilityModel(
            additive={a.id: {"r1": ONE} for a in agents}
        )
        return inst, util
    if kind == "utility-cycle":
        if n < 2 or n % 2:
            raise InvalidInstanceError("utility-cycle family needs even n >= 2")
        half = n // 2
        agents = [AgentSpec(f"a{i}", 1, {"group": "g1"}) for i in range(1, half + 1)]
        agents += [AgentSpec(f"b{i}", 1, {"group": "g2"}) for i in range(1, half + 1)]
        resources = [(f"r{i}", 1) for i in range(1, n + 1)]
        accept = set()
        for i in range(1, half + 1):
            accept.add((f"a{i}", f"r{2 * i - 1}"))
            accept.add((f"a{i}", f"r{2 * i}"))
            wrap = 2 * i + 1 if 2 * i + 1 <= n else (2 * i + 1) - n
            accept.add((f"b{i}", f"r{2 * i}"))
            accept.add((f"b{i}", f"r{wrap}"))
        inst = Instance(
            agents,
            resources,
            binding={a.id for a in agents},
            dimensions=("group",),
            acceptability=frozenset(accept),
        )
        util = UtilityModel(
            additive={
                a.id: {f"r{i}": ONE for i in range(1, n + 1, 2)} for a in agents
            }
        )
        return inst, util
    raise InvalidInstanceError(f"unknown lower-bound family {kind!r}")
