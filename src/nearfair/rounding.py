"""Iterative LP rounding of fractional allocations with deviation budgets.

A deviation budget fixes, per group dimension, how far group utilities may
drift (alpha), how far each resource's load may drift (delta), and how far
the demand-weighted total may drift (Delta).  The budget is admissible when

    psi/2 + sum_l 1/(alpha_l + 1) + omega*/(delta + 1) <= 1,

where psi = 1 whenever some agent holds two or more fractional bundles or
there is at most one dimension.  Under that condition the rounder repeatedly
takes an extreme point of a small feasibility LP that pins down exactly the
agents, groups, and resources currently carrying too many fractional
entries, until no constraint is needed any more; the remaining entries are
rounded directly.  Each iteration either fixes a variable at 0/1 or turns an
agent inequality into an equality, so the procedure terminates, and the
final mapping deviates from the input strictly less than each budget entry.

``CONDITIONS`` writes the condition once, with one row per market saying how
that market's budget maps onto it.

The loop is written once, in ``_round_loop``, and takes the rows that
protect an active group as a parameter: ``iterative_round`` keeps each
group's utility fixed, ``envyfree.ef_round`` keeps pairwise envy from
growing.

The loop holds its point as integer numerators over one denominator: the
input's least common denominator, then that of each iteration's vertex,
which ``VertexSolution.scaled`` hands over.  Agent sums, the weighted mass
and the right-hand sides of the group, resource and total rows are integer
sums with one ``Fraction`` built at the end.  ``Fraction`` stays at the
edges: the LP's coefficients and right-hand sides, the output
``Allocation``, and every budget, bound and deviation of the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Optional, Sequence

from .errors import BudgetError, InvalidInstanceError, InvariantViolation
from .exactlp import LinearProgram, VertexSolution, feasible_vertex
from .model import Allocation, Instance, Pair, UtilityModel, group_utilities, pair_index
from .rationals import ONE, ZERO, ceil_frac, rat_str

# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def _check_signs(alpha: Sequence[int], delta: int, omega_star: int) -> None:
    if any(a < 0 for a in alpha) or delta < 0:
        raise BudgetError("alpha and delta must be non-negative")
    if omega_star < 1:
        raise BudgetError("omega_star must be positive")


@dataclass(frozen=True)
class DeviationBudget:
    """Per-dimension group budget alpha, per-resource budget delta, total
    budget Delta (None disables the total-conservation row entirely), the
    per-agent flag psi, and the maximum demand the budget was sized for."""

    alpha: tuple[int, ...]
    delta: int
    Delta: Optional[int]
    psi: int
    omega_star: int

    def __post_init__(self):
        if self.psi not in (0, 1):
            raise BudgetError(f"psi must be 0 or 1, got {self.psi}")
        _check_signs(self.alpha, self.delta, self.omega_star)
        if self.Delta is not None and self.Delta < 0:
            raise BudgetError("Delta must be non-negative")


@dataclass(frozen=True)
class Condition:
    """One market's reading of  psi/2 + sum_l c_l/(alpha_l+1) + omega/(delta+1) <= 1.

    The market's alpha_l and delta enter raised by ``alpha_shift`` and
    ``delta_shift`` (None drops the resource term); ``psi`` and ``omega``,
    when None, are the caller's psi and omega*; c_l is 2(k_l - 1) over k_l
    groups for a market of pairwise ``envy`` rows, and 1 otherwise.
    """

    text: str
    psi: Optional[int] = None
    alpha_shift: int = 0
    delta_shift: Optional[int] = 0
    omega: Optional[int] = None
    envy: bool = False

    def slack(
        self,
        alpha: Sequence[int],
        delta: int = 0,
        omega_star: int = 1,
        *,
        d: Optional[int] = None,
        psi: int = 1,
        counts: Optional[Sequence[int]] = None,
    ) -> Fraction:
        """Slack of the condition; the budget is admissible iff >= 0.

        Raises BudgetError unless alpha has one entry per dimension (d, or
        one per group count when ``counts`` is given; unchecked when neither
        is), alpha and delta are non-negative and omega* is positive.
        """
        d = len(counts) if counts is not None else d
        if d is not None and len(alpha) != d:
            raise BudgetError(f"alpha has {len(alpha)} entries for {d} dimensions")
        _check_signs(alpha, delta, omega_star)
        weights = [2 * (k - 1) for k in counts] if self.envy else [1] * len(alpha)
        terms = [(c, a + self.alpha_shift + 1) for c, a in zip(weights, alpha)]
        if self.delta_shift is not None:
            omega = omega_star if self.omega is None else self.omega
            terms.append((omega, delta + self.delta_shift + 1))
        # sum psi/2 and the terms c/m over one integer denominator, so that
        # the only gcd reduction is the Fraction built at the end
        num, den = psi if self.psi is None else self.psi, 2
        for c, m in terms:
            num, den = num * m + c * den, den * m
        return Fraction(den - num, den)

    def require(self, *args, **kwargs) -> Fraction:
        """``slack``, or BudgetError naming the condition when it is negative."""
        slack = self.slack(*args, **kwargs)
        if slack < 0:
            raise BudgetError(f"condition {self.text} fails by {-slack}")
        return slack


CONDITIONS = {
    "round": Condition("psi/2 + sum 1/(alpha+1) + omega*/(delta+1) <= 1"),
    "assignment": Condition("sum 1/(alpha+1) + omega*/(delta+2) <= 1/2", psi=1, delta_shift=1),
    "couples": Condition("sum 1/(alpha+1) + 2/(delta+2) <= 1/2", psi=1, delta_shift=1, omega=2),
    "envyfree": Condition("sum 2(k-1)/(alpha+1) + omega*/(delta+1) <= 1/2", psi=1, envy=True),
    "apportion": Condition("sum 1/(alpha+2) <= 1", psi=0, alpha_shift=1, delta_shift=None),
}
_ROUND = CONDITIONS["round"]


def forced_psi(x: Allocation, dimensions_count: int) -> bool:
    """psi is forced to 1 when an agent holds >= 2 fractional bundles or
    there are at most 1 dimensions."""
    return bool(x.fractional_agents()) or dimensions_count <= 1


def check_condition(budget: DeviationBudget) -> Fraction:
    """Slack of the general condition; the budget is valid iff >= 0."""
    return _ROUND.slack(budget.alpha, budget.delta, budget.omega_star, psi=budget.psi)


def min_Delta(budget: DeviationBudget) -> int:
    """Smallest admissible total-deviation budget for these (alpha, delta, psi)."""
    slack = _ROUND.require(budget.alpha, budget.delta, budget.omega_star, psi=budget.psi)
    if budget.psi == 1:
        return 2
    if slack == 0:
        raise BudgetError(
            "psi=0 with a tight admissibility condition admits no total budget"
        )
    return ceil_frac(ONE / slack - 1)


def _validate_budget(
    instance: Instance, x: Allocation, budget: DeviationBudget
) -> None:
    d = len(instance.dimensions)
    if budget.omega_star != instance.omega_star:
        raise BudgetError(
            f"budget sized for max demand {budget.omega_star}, "
            f"instance has {instance.omega_star}"
        )
    if budget.psi == 0 and forced_psi(x, d):
        raise BudgetError(
            "psi=0 not allowed: an agent has >= 2 fractional bundles or d <= 1"
        )
    _ROUND.require(budget.alpha, budget.delta, budget.omega_star, d=d, psi=budget.psi)
    if budget.Delta is not None and budget.Delta < min_Delta(budget):
        raise BudgetError(
            f"Delta={budget.Delta} is below the smallest admissible total "
            f"budget {min_Delta(budget)}"
        )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class IterationState:
    t: int
    fractional: int
    constraints: int
    active_agents: int
    active_groups: int
    active_resources: int
    chi: int
    weighted_mass: Fraction


@dataclass
class Certificate:
    """Exact deviations of an integral mapping against a reference fractional
    allocation, plus the iteration trace that produced it."""

    group_deviations: dict[tuple[str, str], tuple[Fraction, Fraction]] = field(
        default_factory=dict
    )
    resource_deviations: dict[str, tuple[Fraction, Fraction]] = field(
        default_factory=dict
    )
    total_deviation: tuple[Fraction, Optional[Fraction]] = (ZERO, None)
    iterations: int = 0
    trace: list[IterationState] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "group_deviations": [
                {
                    "dimension": dim,
                    "group": g,
                    "deviation": rat_str(dev),
                    "bound": rat_str(bound),
                }
                for (dim, g), (dev, bound) in sorted(self.group_deviations.items())
            ],
            "resource_deviations": [
                {"resource": r, "deviation": rat_str(dev), "bound": rat_str(bound)}
                for r, (dev, bound) in sorted(self.resource_deviations.items())
            ],
            "total_deviation": {
                "deviation": rat_str(self.total_deviation[0]),
                "bound": (
                    rat_str(self.total_deviation[1])
                    if self.total_deviation[1] is not None
                    else None
                ),
            },
            "iterations": self.iterations,
            "trace": [
                {
                    "t": s.t,
                    "fractional": s.fractional,
                    "constraints": s.constraints,
                    "chi": s.chi,
                    "weighted_mass": rat_str(s.weighted_mass),
                }
                for s in self.trace
            ],
            "violations": list(self.violations),
        }


def verify_approximation(
    instance: Instance,
    x: Allocation,
    y: Allocation,
    utilities: UtilityModel,
    budget: DeviationBudget,
) -> Certificate:
    """Exact strict-inequality check of all deviation families.

    Violations are data, not errors: the certificate lists every failure.
    A group deviation of exactly 0 is within any budget, also the bound 0 of
    a group whose members value nothing.
    """
    cert = Certificate()
    if not y.integral:
        cert.violations.append("output mapping is not integral")
    cert.violations.extend(y.check_allocation(instance, capacities=False))

    y_groups = group_utilities(y, utilities, instance)
    x_groups = group_utilities(x, utilities, instance)
    maxima = utilities.group_maxima(instance)
    for li, dim in enumerate(instance.dimensions):
        for g in instance.groups_in(dim):
            dev = abs(y_groups[(dim, g)] - x_groups[(dim, g)])
            bound = budget.alpha[li] * maxima[(dim, g)]
            cert.group_deviations[(dim, g)] = (dev, bound)
            if not (dev < bound or dev == 0):
                cert.violations.append(
                    f"group ({dim},{g}) deviates {dev}, budget {bound}"
                )

    y_loads, x_loads = y.loads(), x.loads()
    for r, _ in instance.resources:
        dev = abs(y_loads.get(r, ZERO) - x_loads.get(r, ZERO))
        cert.resource_deviations[r] = (dev, Fraction(budget.delta))
        if not dev < budget.delta:
            cert.violations.append(f"resource {r} deviates {dev}, budget {budget.delta}")

    total_dev = abs(y.mass(instance) - x.mass(instance))
    if budget.Delta is None:
        cert.total_deviation = (total_dev, None)
    else:
        bound = Fraction(budget.omega_star * budget.Delta)
        cert.total_deviation = (total_dev, bound)
        if not total_dev < bound:
            cert.violations.append(f"total deviates {total_dev}, budget {bound}")
    return cert


def capacity_excess(instance: Instance, y: Allocation, delta: int) -> dict[str, int]:
    """Units by which an integral allocation exceeds each resource's capacity.

    Raises InvariantViolation on a non-integral load or an excess above
    ``delta``.
    """
    excess = {}
    loads = y.loads()
    for r, c in instance.resources:
        used = loads.get(r, ZERO)
        if used != int(used):
            raise InvariantViolation(f"integral output uses {used} of {r!r}")
        excess[r] = max(0, int(used) - c)
        if excess[r] > delta:
            raise InvariantViolation(
                f"resource {r!r} exceeded capacity by {excess[r]} > delta={delta}"
            )
    return excess


# ---------------------------------------------------------------------------
# the rounder
# ---------------------------------------------------------------------------


def _fractional_support(x_cur: dict[Pair, int], den: int) -> list[Pair]:
    return sorted(e for e, v in x_cur.items() if 0 < v < den)


def _dump(tag: str, t: int, F: Sequence[Pair], detail: str) -> str:
    pairs = ", ".join(f"{a}:{q}" for a, q in F[:12])
    more = "" if len(F) <= 12 else f" (+{len(F) - 12} more)"
    return f"{tag} at iteration {t}: {detail}; fractional support [{pairs}]{more}"


# A group-row family: rows(members, groups, by_agent, x_cur, den) lists the
# rows that protect the active groups, group by group, as (key, coefficients
# over F, rhs).  ``members`` holds each group's agents sorted and
# ``by_agent`` each agent's pairs in F, which is sorted, so reading a
# group's pairs member by member keeps F's order; the current point is
# ``x_cur[e] / den``.  A row without a key is an equality.  A keyed row is
# ">=" until a vertex makes it tight, and an equality ("sticky") from then
# on.
GroupRows = Callable[..., list[tuple[Optional[Hashable], dict[Pair, Fraction], Fraction]]]


def _round_loop(
    instance: Instance,
    x: Allocation,
    alpha: Sequence[int],
    delta: int,
    Delta: Optional[int],
    *,
    group_rows: GroupRows,
    check: Callable[[IterationState, list[Pair]], None],
    solve: Callable[[LinearProgram], VertexSolution],
) -> tuple[Allocation, list[IterationState]]:
    """The iterative rounder shared by every pipeline.

    Each iteration pins down the agents whose fractional entries sum to one,
    the groups with at least alpha_l + 1 fractional entries (through
    ``group_rows``), the resources with a fractional load of at least
    delta + 1 and, unless ``Delta`` is None, the demand-weighted total once
    Delta + 1 agents are left below one; ``solve`` returns a vertex of those
    rows.  ``check`` is the family's counting bound on each iteration's
    state, and the measure (|F|, agents left below one, -|sticky rows|) must
    strictly decrease; it is bounded, so the loop ends.  Returns the rounded
    mapping and one state per iteration, the last being the one that needed
    no row.
    """
    group_keys = instance.group_keys()
    members = {key: tuple(sorted(instance.group_members(*key))) for key in group_keys}
    dim_index = {dim: i for i, dim in enumerate(instance.dimensions)}
    demand = {a.id: a.demand for a in instance.agents}

    # the current point is x_cur[e] / den: integer numerators over the
    # common denominator of the input, then of each iteration's vertex
    x_cur, den = x.scaled()
    sticky: set[Hashable] = set()
    trace: list[IterationState] = []
    prev_measure: Optional[tuple[int, int, int]] = None
    t = 0

    while True:
        F = _fractional_support(x_cur, den)
        by_agent, by_resource = pair_index(F)  # F is sorted: agents in order
        tilde_A = [a for a, own in by_agent.items() if sum(x_cur[e] for e in own) == den]
        tilde_G = []
        for key in group_keys:
            incident = sum(len(by_agent.get(a, ())) for a in members[key])
            if incident >= alpha[dim_index[key[0]]] + 1:
                tilde_G.append(key)
        tilde_R = [
            r for r, _ in instance.resources
            if sum(by_resource.get(r, {}).values()) >= delta + 1
        ]
        outside = len(by_agent) - len(tilde_A)
        chi = 1 if Delta is not None and outside >= Delta + 1 else 0

        state = IterationState(
            t=t,
            fractional=len(F),
            constraints=len(tilde_A) + len(tilde_G) + len(tilde_R) + chi,
            active_agents=len(tilde_A),
            active_groups=len(tilde_G),
            active_resources=len(tilde_R),
            chi=chi,
            weighted_mass=Fraction(sum(demand[a] * v for (a, _), v in x_cur.items()), den),
        )
        check(state, F)
        trace.append(state)
        if not tilde_A and not tilde_G and not tilde_R and chi == 0:
            break

        measure = (len(F), outside, -len(sticky))
        if prev_measure is not None and measure >= prev_measure:
            raise InvariantViolation(
                _dump(
                    "no progress",
                    t,
                    F,
                    f"measure {measure} did not lexicographically decrease "
                    f"from {prev_measure}",
                )
            )
        prev_measure = measure

        lp = LinearProgram()
        col = {e: lp.add_variable(f"y[{e[0]},{e[1]}]") for e in F}
        for a, own in by_agent.items():
            lp.add_constraint({col[e]: ONE for e in own}, "=" if a in tilde_A else "<=", ONE)
        loose: list[tuple[Hashable, int]] = []
        for row_key, by_pair, rhs in group_rows(members, tilde_G, by_agent, x_cur, den):
            coeffs = {col[e]: c for e, c in by_pair.items()}
            if row_key is None or row_key in sticky:
                lp.add_constraint(coeffs, "=", rhs)
            else:
                loose.append((row_key, lp.add_constraint(coeffs, ">=", rhs)))
        for r in tilde_R:
            uses = by_resource[r]
            rhs = Fraction(sum(m * x_cur[e] for e, m in uses.items()), den)
            lp.add_constraint({col[e]: Fraction(m) for e, m in uses.items()}, "=", rhs)
        if chi:
            coeffs = {col[e]: Fraction(demand[e[0]]) for e in F}
            rhs = Fraction(sum(demand[e[0]] * x_cur[e] for e in F), den)
            lp.add_constraint(coeffs, "=", rhs)

        solution = solve(lp)
        if not solution.optimal:
            raise InvariantViolation(
                _dump("per-iteration LP infeasible", t, F, "current point is feasible")
            )
        sticky.update(k for k, idx in loose if idx in solution.tight_constraints)
        # move to the vertex's denominator: the entries at one first, then F
        nums, new_den = solution.scaled
        if new_den != den:
            for e, v in x_cur.items():
                if v == den:
                    x_cur[e] = new_den
        for e in F:
            v = nums[col[e]]
            if v == 0:
                del x_cur[e]
            else:
                x_cur[e] = v
        den = new_den
        t += 1

    # terminal rounding: per agent round the largest fractional entry up
    # (first in bundle order among ties), everything else down
    by_agent: dict[str, list[Pair]] = {}
    for e in _fractional_support(x_cur, den):
        by_agent.setdefault(e[0], []).append(e)
    for a, pairs in by_agent.items():
        best = max(x_cur[e] for e in pairs)
        up = next(e for e in pairs if x_cur[e] == best)
        for e in pairs:
            if e != up:
                del x_cur[e]

    y = Allocation(dict.fromkeys(x_cur, ONE))  # every entry left is at one
    for e, v in x.values.items():
        if v == 1 and y.value(*e) != 1:
            raise InvariantViolation(f"rounding lost a unit entry at {e}")
    for e in y.values:
        if e not in x.values:
            raise InvariantViolation(f"rounding invented an entry at {e}")
    return y, trace


def _utility_rows(utilities: UtilityModel) -> GroupRows:
    """One equality row per active group: its utility stays where it is."""

    def rows(members, groups, by_agent, x_cur, den):
        out = []
        for key in groups:
            coeffs = {}
            rhs = 0  # over utilities.den * den
            for a in members[key]:
                for e in by_agent.get(a, ()):
                    coeffs[e] = utilities.of(*e)
                    rhs += utilities.numerator(*e) * x_cur[e]
            out.append((None, coeffs, Fraction(rhs, utilities.den * den)))
        return out

    return rows


def _constraint_count(state: IterationState, F: list[Pair]) -> None:
    """The rows never outnumber the fractional entries: C <= |F|."""
    if state.constraints > state.fractional:
        raise InvariantViolation(
            _dump(
                "constraint-count bound violated",
                state.t,
                F,
                f"C={state.constraints} > |F|={state.fractional} "
                f"(agents {state.active_agents}, groups {state.active_groups}, "
                f"resources {state.active_resources}, chi {state.chi})",
            )
        )


def iterative_round(
    instance: Instance,
    x: Allocation,
    utilities: UtilityModel,
    budget: DeviationBudget,
) -> tuple[Allocation, Certificate]:
    """Round a fractional allocation into an integral one within the budget.

    The output keeps every 0/1 entry of the input, keeps binding agents at
    exactly one bundle and everyone else at most one, and its certificate
    passes every strict deviation bound the budget promises.
    """
    problems = x.check_allocation(instance, capacities=True)
    if problems:
        raise InvalidInstanceError(
            "input is not a fractional allocation: " + "; ".join(problems)
        )
    _validate_budget(instance, x, budget)

    y, trace = _round_loop(
        instance,
        x,
        budget.alpha,
        budget.delta,
        budget.Delta,
        group_rows=_utility_rows(utilities),
        check=_constraint_count,
        solve=feasible_vertex,
    )
    cert = verify_approximation(instance, x, y, utilities, budget)
    cert.iterations = len(trace) - 1
    cert.trace = trace
    if not cert.ok():
        raise InvariantViolation(
            "rounded output violates its own budget: " + "; ".join(cert.violations)
        )
    return y, cert
