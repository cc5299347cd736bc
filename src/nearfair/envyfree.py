"""Envy-free allocation pipeline for group-homogeneous assignment markets.

All agents share one demand and agents inside a group share one utility
function, so between-group envy can be measured by scaling a group's utility
for another group's allocation by the size ratio.  A fractional envy-free
allocation is built by an exact event-driven greedy process (every
unsaturated agent eats its favorite still-available bundle at unit rate).
Rounding is the one iterative rounder of ``rounding``, given a different row
family: active groups are protected by pairwise no-new-envy inequalities
that stay equalities once tight, instead of utility-equality rows, and the
total-conservation row is never imposed.  Admissible budgets are those of
the "envyfree" row of ``rounding.CONDITIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .errors import InvalidInstanceError, InvariantViolation
from .exactlp import feasible_vertex
from .model import (
    Allocation,
    Bundle,
    Instance,
    Pair,
    UtilityModel,
    enumerate_bundles,
    group_utilities,
)
from .rationals import ONE, ZERO
from .rounding import CONDITIONS, GroupRows, IterationState, _dump, _round_loop


# ---------------------------------------------------------------------------
# group-homogeneous instances
# ---------------------------------------------------------------------------


@dataclass
class HomogeneousInstance:
    """Assignment instance where demands are uniform and utilities are
    constant inside every group."""

    instance: Instance
    utilities: UtilityModel

    def __post_init__(self):
        demands = {a.demand for a in self.instance.agents}
        if len(demands) > 1:
            raise InvalidInstanceError(
                f"demands must be uniform, got {sorted(demands)}"
            )
        ids = {a.id for a in self.instance.agents}
        if self.instance.binding != ids:
            self.instance = replace(self.instance, binding=ids)
        self._rep: dict[tuple[str, str], str] = {}
        for dim in self.instance.dimensions:
            for g in self.instance.groups_in(dim):
                members = sorted(self.instance.group_members(dim, g))
                self._rep[(dim, g)] = members[0]
                probe = enumerate_bundles(members[0], self.instance)
                for b in members[1:]:
                    for q in probe:
                        if self.utilities.of(b, q) != self.utilities.of(members[0], q):
                            raise InvalidInstanceError(
                                f"agents {members[0]!r} and {b!r} of group "
                                f"({dim},{g}) disagree on bundle {q}"
                            )

    @property
    def omega_star(self) -> int:
        return self.instance.omega_star

    def group_utility_of(self, dim: str, group_id: str, bundle: Bundle) -> Fraction:
        """The common utility the group assigns to a bundle."""
        return self.utilities.of(self._rep[(dim, group_id)], bundle)


# ---------------------------------------------------------------------------
# greedy fractional stage
# ---------------------------------------------------------------------------


@dataclass
class GreedyTrace:
    events: list[tuple[Fraction, str, str]] = field(default_factory=list)
    agent_times: dict[str, Fraction] = field(default_factory=dict)


def greedy_fractional_ef(h: HomogeneousInstance) -> tuple[Allocation, GreedyTrace]:
    """Exact continuous-limit greedy: unsaturated agents consume their
    favorite available bundle at unit rate; the next event is the earliest
    agent saturation (total mass one) or resource saturation (consumption
    reaches capacity).  Resources saturate bundles that use them.
    """
    inst = h.instance
    bundles = {a.id: enumerate_bundles(a.id, inst) for a in inst.agents}
    x: dict[Pair, Fraction] = {}
    consumed: dict[str, Fraction] = {r: ZERO for r, _ in inst.resources}
    total: dict[str, Fraction] = {a.id: ZERO for a in inst.agents}
    saturated_r: set[str] = set()
    done_agents: set[str] = set()
    trace = GreedyTrace()
    now = ZERO
    max_events = len(inst.agents) + len(inst.resources)

    def available(q: Bundle) -> bool:
        return all(r not in saturated_r for r in q.resources())

    for _ in range(max_events + 1):
        choices: dict[str, Bundle] = {}
        for a in inst.agents:
            if a.id in done_agents:
                continue
            open_bundles = [q for q in bundles[a.id] if available(q)]
            if not open_bundles:
                continue
            best = max(h.utilities.of(a.id, q) for q in open_bundles)
            pick = next(q for q in open_bundles if h.utilities.of(a.id, q) == best)
            choices[a.id] = pick
        if not choices:
            break
        rate: dict[str, Fraction] = {}
        for a, q in choices.items():
            for r, m in q.items:
                rate[r] = rate.get(r, ZERO) + m
        dt: Optional[Fraction] = None
        for a in choices:
            dt = min(dt, 1 - total[a]) if dt is not None else 1 - total[a]
        for r, rho in rate.items():
            if rho > 0 and r not in saturated_r:
                t_r = (inst.capacity(r) - consumed[r]) / rho
                dt = min(dt, t_r) if dt is not None else t_r
        if dt is None or dt <= 0:
            raise InvariantViolation(f"greedy stalled at t={now}")
        for a, q in choices.items():
            x[(a, q)] = x.get((a, q), ZERO) + dt
            total[a] += dt
        for r, rho in rate.items():
            consumed[r] += rho * dt
        now += dt
        for a in sorted(choices):
            if total[a] == 1:
                done_agents.add(a)
                trace.agent_times[a] = now
                trace.events.append((now, "agent", a))
        for r, _ in inst.resources:
            if r not in saturated_r and consumed[r] == inst.capacity(r):
                saturated_r.add(r)
                trace.events.append((now, "resource", r))
    else:
        raise InvariantViolation(
            f"greedy exceeded the event budget of {max_events}"
        )

    for a in inst.agents:
        trace.agent_times.setdefault(a.id, now)
    alloc = Allocation(x)
    loads = alloc.loads()
    overfull = [r for r, c in inst.resources if loads.get(r, ZERO) > c]
    if overfull:
        raise InvariantViolation(f"greedy overfilled {overfull}")
    return alloc, trace


def _scaled_envy(
    h: HomogeneousInstance, x: Allocation
) -> dict[tuple[str, str, str], Fraction]:
    """Scaled envy of group i toward group j for every ordered pair (dim, i, j):
    |i|/|j| times i's utility for j's allocation, minus i's own utility."""
    inst = h.instance
    own_utility = group_utilities(x, h.utilities, inst)
    nums, den = x.scaled()
    den *= h.utilities.den
    out = {}
    for dim in inst.dimensions:
        groups = inst.groups_in(dim)
        for i in groups:
            mem_i = inst.group_members(dim, i)
            own = own_utility[(dim, i)]
            rep = h._rep[(dim, i)]  # every member of i values a bundle alike
            for j in groups:
                if i == j:
                    continue
                mem_j = inst.group_members(dim, j)
                envied = sum(
                    h.utilities.numerator(rep, q) * n for (b, q), n in nums.items() if b in mem_j
                )
                out[(dim, i, j)] = Fraction(len(mem_i) * envied, len(mem_j) * den) - own
    return out


def check_fractional_ef(
    h: HomogeneousInstance, x: Allocation
) -> dict[tuple[str, str, str], tuple[bool, Fraction]]:
    """Scaled envy comparison for every ordered group pair, exact.

    Group i passes against j when its own utility is at least the size ratio
    times its utility for j's allocation.  The margin is own minus scaled.
    """
    return {key: (envy <= 0, -envy) for key, envy in _scaled_envy(h, x).items()}


# ---------------------------------------------------------------------------
# rounding with pairwise envy protection
# ---------------------------------------------------------------------------


def ef_condition(
    h: HomogeneousInstance, alpha: tuple[int, ...], delta: int, *, require: bool = False
) -> Fraction:
    """Slack of the "envyfree" condition at the instance's group counts and
    max demand; BudgetError unless alpha has one entry per dimension, and
    with ``require`` also when the slack is negative."""
    counts = [h.instance.group_count(dim) for dim in h.instance.dimensions]
    row = CONDITIONS["envyfree"]
    return (row.require if require else row.slack)(alpha, delta, h.omega_star, counts=counts)


def _envy_rows(h: HomogeneousInstance) -> GroupRows:
    """For an active group i and every other group j of its dimension, the
    rows "i keeps no scaled envy toward j" and "j none toward i", each
    keyed by its ordered pair ``(dim, envier, envied)`` and written once
    when both groups are active."""
    inst = h.instance
    groups_of = {dim: inst.groups_in(dim) for dim in inst.dimensions}

    def envy_row(members, dim, i, j, by_agent, whole):
        mi, mj = members[(dim, i)], members[(dim, j)]
        ratio = Fraction(len(mi), len(mj))
        # i's members count their bundles at i's utility, j's members at
        # -ratio times it; the groups are disjoint and sorted, so the merged
        # members read F in order
        scale = dict.fromkeys(mi, ONE)
        scale.update(dict.fromkeys(mj, -ratio))
        coeffs: dict[Pair, Fraction] = {}
        rhs = ZERO
        for a in sorted(scale):
            f = scale[a]
            for e in by_agent.get(a, ()):
                coeffs[e] = f * h.group_utility_of(dim, i, e[1])
            for e in whole.get(a, ()):
                rhs -= f * h.group_utility_of(dim, i, e[1])
        return coeffs, rhs

    def rows(members, groups, by_agent, x_cur, den):
        # each agent's entries at one: outside F, they move the right-hand side
        whole: dict[str, list[Pair]] = {}
        for e, v in x_cur.items():
            if v == den:
                whole.setdefault(e[0], []).append(e)
        out = {}
        for dim, i in groups:
            for j in groups_of[dim]:
                if j == i:
                    continue
                for key in ((dim, i, j), (dim, j, i)):
                    if key not in out:
                        out[key] = envy_row(members, *key, by_agent, whole)
        return [(key, coeffs, rhs) for key, (coeffs, rhs) in out.items()]

    return rows


def _counting_bound(
    h: HomogeneousInstance, alpha: tuple[int, ...], delta: int
) -> Callable[[IterationState, list[Pair]], None]:
    """sum_l 2(k_l-1) floor(z/(alpha_l+1)) + floor(omega* z/(delta+1))
    <= ceil(z/2) for z = |F| fractional entries."""
    inst = h.instance

    def check(state: IterationState, F: list[Pair]) -> None:
        z = state.fractional
        if not z:
            return
        lhs = sum(
            2 * (inst.group_count(dim) - 1) * (z // (alpha[li] + 1))
            for li, dim in enumerate(inst.dimensions)
        ) + (h.omega_star * z) // (delta + 1)
        if lhs > -(-z // 2):
            raise InvariantViolation(
                _dump("counting bound violated", state.t, F, f"{lhs} > ceil({z}/2)")
            )

    return check


def ef_round(
    h: HomogeneousInstance,
    x: Allocation,
    alpha: tuple[int, ...],
    delta: int,
) -> Allocation:
    """Round a fractional envy-free allocation, generating no new envy for
    any group that still carries many fractional entries.

    Active groups get, for each other group in the dimension, both pairwise
    inequalities (the group does not envy, the group is not envied), written
    over the already-fixed integer entries plus the LP variables; a pairwise
    row that becomes tight stays an equality.  Otherwise this is the
    iterative rounder of ``rounding``, without the total-conservation row.
    Agents may start below one bundle, as the greedy stage can leave them,
    but never above.
    """
    inst = h.instance
    ef_condition(h, alpha, delta, require=True)
    problems = x.check_allocation(replace(inst, binding=frozenset()), capacities=True)
    if problems:
        raise InvalidInstanceError("bad input allocation: " + "; ".join(problems))

    y, _trace = _round_loop(
        inst,
        x,
        alpha,
        delta,
        None,
        group_rows=_envy_rows(h),
        check=_counting_bound(h, alpha, delta),
        solve=feasible_vertex,
    )
    return y


def check_ef_deviation(
    h: HomogeneousInstance,
    y: Allocation,
    alpha: tuple[int, ...],
    delta: int,
) -> dict:
    """Strict scaled-envy bound per ordered group pair plus the capacity cap.

    Every pair must satisfy  scaled envy < alpha_l * (group's best single
    utility), or have no envy at all (a group that values nothing has bound
    0), and every resource may exceed its capacity by at most delta.
    Returns {'pairs': {...}, 'capacity': {...}, 'ok': bool}.
    """
    inst = h.instance
    maxima = h.utilities.group_maxima(inst)
    bounds = {
        (dim, g): alpha[li] * maxima[(dim, g)]
        for li, dim in enumerate(inst.dimensions)
        for g in inst.groups_in(dim)
    }
    pairs_out = {}
    ok = True
    for (dim, i, j), envy in _scaled_envy(h, y).items():
        bound = bounds[(dim, i)]
        passed = envy < bound or envy == 0
        ok = ok and passed
        pairs_out[(dim, i, j)] = (passed, envy, bound)
    capacity_out = {}
    loads = y.loads()
    for r, c in inst.resources:
        over = loads.get(r, ZERO) - c
        passed = over <= delta
        ok = ok and passed
        capacity_out[r] = (passed, over)
    return {"pairs": pairs_out, "capacity": capacity_out, "ok": ok}
