"""Stable allocation with couples: markets where agents demand one or two
resource units, resources rank agents, and agents rank acceptable bundles.

Stability is the absence of three kinds of blocking moves: a single agent
grabbing a better resource, a couple grabbing two units of one better
resource, and a couple splitting across two resources.  A resource admits a
move when it has room left or ranks the mover above one of its current
occupants.

Fractional stable points are taken from the packing polytope over agent-
bundle pairs (at-most-one-bundle rows plus capacity rows), which is
``fairness.allocation_polytope`` of a market with no binding agent.  At
desk scale we enumerate its vertices exhaustively and call a vertex
*dominating* when every rounding of it is stable under the capacities it
realizes; rounding a dominating vertex with the usual budget machinery,
under the "couples" row of ``rounding.CONDITIONS``, then yields near-
feasible stable (and fair) integral allocations.

The vertices come from ``oracle.vertex_enumerate``, which pivots between
lexicographically positive bases.  The polytope is highly degenerate (most
vertices are 0/1 points on many tight rows), and the lexicographic rule
visits each such point through few bases; the at-most-one-bundle rows
imply every variable's upper bound 1, so no bound row is added.  The
search refuses more than 20 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .errors import (
    InvalidInstanceError,
    InvariantViolation,
    NoDominatingVertexError,
)
from .fairness import FairObjective, allocation_polytope
from .model import (
    Allocation,
    Bundle,
    Instance,
    UtilityModel,
    group_utilities,
    pair_index,
    pair_universe,
)
from .oracle import enumerate_roundings, vertex_enumerate
from .rationals import ZERO
from .rounding import CONDITIONS, Certificate, DeviationBudget, capacity_excess, iterative_round


@dataclass
class CouplesInstance:
    """Market with single agents (demand 1) and couples (demand 2), resource
    preference orders over agents, and agent preference orders over their
    acceptable bundles (best first, strict)."""

    instance: Instance
    resource_prefs: Mapping[str, Sequence[str]]
    agent_prefs: Mapping[str, Sequence[Bundle]]

    def __post_init__(self):
        inst = self.instance
        if inst.binding:
            self.instance = inst = replace(inst, binding=frozenset())
        for a in inst.agents:
            if a.demand not in (1, 2):
                raise InvalidInstanceError(
                    f"agent {a.id!r} has demand {a.demand}, couples markets allow 1 or 2"
                )
        self.resource_prefs = {r: tuple(v) for r, v in self.resource_prefs.items()}
        self.agent_prefs = {a: tuple(v) for a, v in self.agent_prefs.items()}
        by_agent, by_resource = pair_index(pair_universe(inst))
        self._res_rank: dict[str, dict[str, int]] = {}
        known = {r for r, _ in inst.resources}
        for r, order in self.resource_prefs.items():
            if r not in known:
                raise InvalidInstanceError(f"preferences for unknown resource {r!r}")
            if len(set(order)) != len(order):
                raise InvalidInstanceError(f"resource {r!r} ranks an agent twice")
            self._res_rank[r] = {a: i for i, a in enumerate(order)}
        self._agent_rank: dict[str, dict[Bundle, int]] = {}
        for a in inst.agents:
            order = self.agent_prefs.get(a.id, ())
            if len(set(order)) != len(order):
                raise InvalidInstanceError(f"agent {a.id!r} ranks a bundle twice")
            if set(order) != {q for _, q in by_agent.get(a.id, ())}:
                raise InvalidInstanceError(
                    f"agent {a.id!r} must rank exactly its acceptable bundles"
                )
            self._agent_rank[a.id] = {q: i for i, q in enumerate(order)}
        for r, _ in inst.resources:
            users = {a for a, _ in by_resource.get(r, ())}
            missing = users - set(self.resource_prefs.get(r, ()))
            if missing:
                raise InvalidInstanceError(
                    f"resource {r!r} does not rank agents {sorted(missing)}"
                )

    def prefers_resource(self, r: str, a: str, b: str) -> bool:
        """True when r ranks a strictly above b."""
        return self._res_rank[r][a] < self._res_rank[r][b]

    def prefers_bundle(self, a: str, q: Bundle, over: Optional[Bundle]) -> bool:
        """True when a ranks q above its current bundle (anything beats none)."""
        if over is None:
            return True
        return self._agent_rank[a][q] < self._agent_rank[a][over]


# ---------------------------------------------------------------------------
# blocking and stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockingWitness:
    condition: int  # 1, 2, or 3
    agent: str
    bundle: Bundle


@dataclass
class BlockReport:
    witnesses: list[BlockingWitness] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        return not self.witnesses


def realized_capacities(ci: CouplesInstance, y: Allocation) -> dict[str, int]:
    """Capacity each resource effectively offers under y: the original value,
    or the realized load where the allocation exceeds it."""
    out = {}
    loads = y.loads()
    for r, c in ci.instance.resources:
        used = loads.get(r, ZERO)
        if used != int(used):
            raise InvalidInstanceError("realized capacities need an integral allocation")
        out[r] = max(c, int(used))
    return out


def stability_check(
    ci: CouplesInstance, y: Allocation, capacities: Mapping[str, int]
) -> BlockReport:
    """Exhaustive test of the three blocking conditions; reports every witness."""
    inst = ci.instance
    assigned: dict[str, Optional[Bundle]] = {a.id: None for a in inst.agents}
    for (a, q), v in y.values.items():
        if v != 1:
            raise InvalidInstanceError("stability is defined for integral allocations")
        if assigned[a] is not None:
            raise InvalidInstanceError(f"agent {a!r} holds two bundles")
        assigned[a] = q
    loads = y.loads()
    spare = {r: c - int(loads.get(r, ZERO)) for r, c in capacities.items()}

    def available_units(r: str, mover: str) -> int:
        """Units the mover could obtain at r: spare capacity, its own units
        there, and units of occupants the resource likes less."""
        free = spare[r]
        own = assigned[mover].multiplicity(r) if assigned[mover] is not None else 0
        worse = 0
        for b, qb in assigned.items():
            if b == mover or qb is None:
                continue
            units = qb.multiplicity(r)
            if units and ci.prefers_resource(r, mover, b):
                worse += units
        return free + own + worse

    report = BlockReport()
    for a in inst.agents:
        current = assigned[a.id]
        for q in ci.agent_prefs[a.id]:
            if not ci.prefers_bundle(a.id, q, current):
                break  # preference list is best-first
            feasible = all(
                available_units(r, a.id) >= m for r, m in q.items
            )
            if not feasible:
                continue
            if a.demand == 1:
                condition = 1
            elif len(q.items) == 1:
                condition = 2
            else:
                condition = 3
            report.witnesses.append(BlockingWitness(condition, a.id, q))
    return report


# ---------------------------------------------------------------------------
# the stable polytope and dominating vertices
# ---------------------------------------------------------------------------


def all_roundings_stable(ci: CouplesInstance, x: Allocation) -> bool:
    """The operational dominance test: every rounding of x (respecting the
    at-most-one-bundle rows) is stable under the capacities it realizes."""
    for y in enumerate_roundings(ci.instance, x):
        if not stability_check(ci, y, realized_capacities(ci, y)).stable:
            return False
    return True


def dominating_vertices(ci: CouplesInstance) -> Iterator[Allocation]:
    """The vertices of the stable polytope that pass ``all_roundings_stable``."""
    lp, pairs, _ = allocation_polytope(ci.instance)
    for vertex in vertex_enumerate(lp):
        x = Allocation({e: v for e, v in zip(pairs, vertex) if v != 0})
        if all_roundings_stable(ci, x):
            yield x


# ---------------------------------------------------------------------------
# fair + stable pipeline
# ---------------------------------------------------------------------------


def couples_condition(ci: CouplesInstance, alpha: tuple[int, ...], delta: int) -> Fraction:
    """Slack of the "couples" condition; it does not depend on the market."""
    return CONDITIONS["couples"].slack(alpha, delta)


@dataclass
class FairStableResult:
    fractional: Allocation
    rounded: Allocation
    delta: int
    resource_excess: dict[str, int]
    total_weighted_excess: int
    certificate: Certificate
    block_report: BlockReport


def fair_stable_allocation(
    ci: CouplesInstance,
    utilities: UtilityModel,
    objective: FairObjective,
    alpha: tuple[int, ...],
    delta: int,
) -> FairStableResult:
    """Pick the dominating vertex maximizing the group-fairness objective,
    round it, and certify stability plus all deviation caps."""
    inst = ci.instance
    CONDITIONS["couples"].require(alpha, delta, d=len(inst.dimensions))

    def score(x: Allocation) -> float:
        total = 0.0
        for u in group_utilities(x, utilities, inst).values():
            total += objective.f(float(u))
        return total

    # the first vertex is taken even at score -inf: a proportional objective
    # scores every vertex -inf while some group gets no utility
    best: Optional[Allocation] = None
    best_score = float("-inf")
    for x in dominating_vertices(ci):
        s = score(x)
        if best is None or s > best_score:
            best, best_score = x, s
    if best is None:
        raise NoDominatingVertexError(
            "no vertex of the stable polytope passed the all-roundings-stable test"
        )

    budget = DeviationBudget(
        alpha=tuple(alpha),
        delta=delta + 1,
        Delta=2,
        psi=1,
        omega_star=inst.omega_star,
    )
    y, cert = iterative_round(inst, best, utilities, budget)

    excess = capacity_excess(inst, y, delta)
    weighted = int(y.mass(inst))
    total_cap = sum(c for _, c in inst.resources)
    over = max(0, weighted - total_cap)
    if over > 4:
        raise InvariantViolation(f"total weighted excess {over} > 4")
    report = stability_check(ci, y, realized_capacities(ci, y))
    if not report.stable:
        raise InvariantViolation(
            "rounding of a dominating vertex came out unstable: "
            + ", ".join(f"cond{w.condition}:{w.agent}" for w in report.witnesses)
        )
    return FairStableResult(
        fractional=best,
        rounded=y,
        delta=delta,
        resource_excess=excess,
        total_weighted_excess=over,
        certificate=cert,
        block_report=report,
    )
