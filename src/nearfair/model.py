"""Core market model: agents with bundle demands, capacitated resources,
group structure along several dimensions, and (fractional) allocations.

An instance couples a set of agents, each demanding a fixed number of
resource units, with a set of finite-capacity resources.  Agents may belong
to at most one group per dimension.  An allocation assigns to each agent at
most one *bundle* (a multiset of resources matching the agent's demand);
*binding* agents must receive exactly one.  Everything is exact-rational so
that integrality and tightness tests downstream are decidable.

``Fraction`` lives at the edges: utilities and allocation values are taken
in as rationals, and loads, masses, group utilities and the violations of
``check_allocation`` are handed out as rationals.  In between the sums run
on integers.  An allocation's values are read once as integer numerators
over their least common denominator (``Allocation.scaled``), and a
``UtilityModel`` holds its utilities as integer numerators over one
denominator of its own (``UtilityModel.den``), each (agent, bundle) pair
read once per model.  A sum is then an integer sum, and one ``Fraction`` is
built at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Mapping, Optional, Sequence

from .errors import InvalidInstanceError
from .rationals import ONE, ZERO, over_lcm, rat

# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Bundle:
    """Immutable multiset of resources, stored as sorted (resource, count)."""

    items: tuple[tuple[str, int], ...]

    @staticmethod
    def of(counts: Mapping[str, int]) -> "Bundle":
        cleaned = tuple(sorted((r, int(m)) for r, m in counts.items() if int(m) != 0))
        if any(m < 0 for _, m in cleaned):
            raise InvalidInstanceError(f"negative multiplicity in bundle {cleaned}")
        return Bundle(cleaned)

    def multiplicity(self, resource: str) -> int:
        for r, m in self.items:
            if r == resource:
                return m
        return 0

    @property
    def size(self) -> int:
        return sum(m for _, m in self.items)

    def resources(self) -> tuple[str, ...]:
        # built from a list: tuple(generator) resizes its result, and CPython
        # keeps each freed resized tuple on another size's free list
        return tuple([r for r, _ in self.items])

    def __str__(self) -> str:
        return "{" + ",".join(f"{r}:{m}" for r, m in self.items) + "}"


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentSpec:
    """One agent: positive demand and optional group membership per dimension."""

    id: str
    demand: int = 1
    groups: Mapping[str, str] = field(default_factory=dict)


@dataclass
class Instance:
    """A capacitated allocation market.

    Parameters
    ----------
    agents : agent specs, order fixes the agent order everywhere.
    resources : (resource id, capacity) pairs, order fixes resource order.
    binding : ids of agents that must receive exactly one bundle.
    dimensions : ordered dimension names; defaults to the sorted union of
        dimension names used by the agents.
    acceptability : optional set of (agent, resource) pairs; ``None`` means
        every resource is acceptable to every agent.
    """

    agents: Sequence[AgentSpec]
    resources: Sequence[tuple[str, int]]
    binding: frozenset[str] = frozenset()
    dimensions: Optional[Sequence[str]] = None
    acceptability: Optional[frozenset[tuple[str, str]]] = None

    def __post_init__(self):
        self.agents = tuple(self.agents)
        self.resources = tuple([(r, int(c)) for r, c in self.resources])  # see Bundle.resources
        self.binding = frozenset(self.binding)
        if self.dimensions is None:
            names = sorted({d for a in self.agents for d in a.groups})
            self.dimensions = tuple(names)
        else:
            self.dimensions = tuple(self.dimensions)
        if self.acceptability is not None:
            self.acceptability = frozenset(tuple(p) for p in self.acceptability)
        self._agent_by_id = {a.id: a for a in self.agents}
        self._capacity = dict(self.resources)
        self.validate()

    # -- lookups ------------------------------------------------------------

    def agent(self, agent_id: str) -> AgentSpec:
        try:
            return self._agent_by_id[agent_id]
        except KeyError:
            raise InvalidInstanceError(f"unknown agent {agent_id!r}") from None

    def capacity(self, resource: str) -> int:
        try:
            return self._capacity[resource]
        except KeyError:
            raise InvalidInstanceError(f"unknown resource {resource!r}") from None

    def resource_ids(self) -> tuple[str, ...]:
        return tuple([r for r, _ in self.resources])  # see Bundle.resources

    def acceptable(self, agent_id: str) -> tuple[str, ...]:
        """Acceptable resources for an agent, in instance resource order."""
        if self.acceptability is None:
            return self.resource_ids()
        return tuple(  # see Bundle.resources
            [r for r in self.resource_ids() if (agent_id, r) in self.acceptability]
        )

    @property
    def omega_star(self) -> int:
        return max((a.demand for a in self.agents), default=1)

    def group_members(self, dim: str, group_id: str) -> frozenset[str]:
        return frozenset(
            a.id for a in self.agents if a.groups.get(dim) == group_id
        )

    def groups_in(self, dim: str) -> tuple[str, ...]:
        """Group ids present in a dimension, sorted for determinism."""
        return tuple(sorted({a.groups[dim] for a in self.agents if dim in a.groups}))

    def group_count(self, dim: str) -> int:
        return len(self.groups_in(dim))

    def group_keys(self) -> list[tuple[str, str]]:
        """Every (dimension, group) pair, dimension-major in instance order."""
        return [(dim, g) for dim in self.dimensions for g in self.groups_in(dim)]

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Raise InvalidInstanceError unless all structural invariants hold."""
        seen = set()
        for a in self.agents:
            if a.id in seen:
                raise InvalidInstanceError(f"duplicate agent id {a.id!r}")
            seen.add(a.id)
            if a.demand < 1:
                raise InvalidInstanceError(f"agent {a.id!r} has demand {a.demand} < 1")
            for dim in a.groups:
                if dim not in self.dimensions:
                    raise InvalidInstanceError(
                        f"agent {a.id!r} grouped in unknown dimension {dim!r}"
                    )
        seen_r = set()
        for r, c in self.resources:
            if r in seen_r:
                raise InvalidInstanceError(f"duplicate resource id {r!r}")
            seen_r.add(r)
            if c < 1:
                raise InvalidInstanceError(f"resource {r!r} has capacity {c} < 1")
        unknown = self.binding - {a.id for a in self.agents}
        if unknown:
            raise InvalidInstanceError(f"binding set references unknown agents {sorted(unknown)}")
        if self.acceptability is not None:
            for a, r in self.acceptability:
                if a not in self._agent_by_id:
                    raise InvalidInstanceError(f"acceptability references unknown agent {a!r}")
                if r not in self._capacity:
                    raise InvalidInstanceError(f"acceptability references unknown resource {r!r}")
        # group disjointness per dimension is automatic: membership is a
        # single group id per dimension on each agent spec.


def enumerate_bundles(agent_id: str, instance: Instance) -> list[Bundle]:
    """All demand-sized multisets of the agent's acceptable resources.

    Multiplicity of a resource inside a bundle is capped at min(demand,
    capacity): a bundle asking for more units than exist can never be
    allocated.  The order is lexicographic in instance resource order and is
    stable across runs.
    """
    spec = instance.agent(agent_id)
    if spec.demand < 1:
        raise InvalidInstanceError(f"agent {agent_id!r} has demand {spec.demand}")
    acceptable = instance.acceptable(agent_id)
    out = []
    for combo in itertools.combinations_with_replacement(acceptable, spec.demand):
        counts: dict[str, int] = {}
        for r in combo:
            counts[r] = counts.get(r, 0) + 1
        if all(m <= min(spec.demand, instance.capacity(r)) for r, m in counts.items()):
            out.append(Bundle.of(counts))
    return out


def pair_universe(instance: Instance) -> list[tuple[str, Bundle]]:
    """Every feasible (agent, bundle) pair, in deterministic order."""
    pairs = []
    for a in instance.agents:
        for q in enumerate_bundles(a.id, instance):
            pairs.append((a.id, q))
    return pairs


# ---------------------------------------------------------------------------
# Allocations
# ---------------------------------------------------------------------------

Pair = tuple[str, Bundle]


def pair_index(
    pairs: Sequence[Pair],
) -> tuple[dict[str, list[Pair]], dict[str, dict[Pair, int]]]:
    """The rows a set of pairs induces, in one pass: each agent's pairs and
    each resource's ``{pair: multiplicity}``, both in the order of ``pairs``."""
    by_agent: dict[str, list[Pair]] = {}
    by_resource: dict[str, dict[Pair, int]] = {}
    for e in pairs:
        by_agent.setdefault(e[0], []).append(e)
        for r, m in e[1].items:
            by_resource.setdefault(r, {})[e] = m
    return by_agent, by_resource


@dataclass
class Allocation:
    """Sparse mapping from (agent, bundle) pairs to values in [0, 1]."""

    values: dict[Pair, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        values = {}
        for e, v in self.values.items():
            v = rat(v)
            if v:
                if not 0 <= v <= 1:
                    raise InvalidInstanceError(f"allocation value {v} for {e} outside [0,1]")
                values[e] = v
        self.values = values

    def value(self, agent_id: str, bundle: Bundle) -> Fraction:
        return self.values.get((agent_id, bundle), ZERO)

    @property
    def integral(self) -> bool:
        return all(v == 1 for v in self.values.values())

    def scaled(self) -> tuple[dict[Pair, int], int]:
        """The values as integer numerators over their least common
        denominator, and that denominator (1 for an integral allocation)."""
        nums, den = over_lcm(v.as_integer_ratio() for v in self.values.values())
        return dict(zip(self.values, nums)), den

    def mass(self, instance: Instance) -> Fraction:
        """Demand-weighted total: each entry's value times its agent's demand."""
        nums, den = self.scaled()
        return Fraction(sum(instance.agent(a).demand * n for (a, _), n in nums.items()), den)

    def loads(self) -> dict[str, Fraction]:
        """Load of every resource the support uses, in one pass over it."""
        counts: dict[str, int] = {}
        for (_, q), v in self.values.items():
            if v.denominator != 1:
                break
            for r, m in q.items:
                counts[r] = counts.get(r, 0) + m
        else:
            # integral: every value is one, so a load counts units, and the
            # shared ONE spares building the most common load
            return {r: ONE if n == 1 else Fraction(n) for r, n in counts.items()}
        nums, den = self.scaled()
        sums: dict[str, int] = {}
        for (_, q), n in nums.items():
            for r, m in q.items:
                sums[r] = sums.get(r, 0) + m * n
        return {r: Fraction(n, den) for r, n in sums.items()}

    def resource_usage(self, resource: str) -> Fraction:
        return self.loads().get(resource, ZERO)

    def fractional_pairs(self) -> list[Pair]:
        return sorted(e for e, v in self.values.items() if 0 < v < 1)

    def fractional_agents(self) -> frozenset[str]:
        """Agents with two or more fractionally allocated bundles."""
        counts: dict[str, int] = {}
        for (a, _), v in self.values.items():
            if 0 < v < 1:
                counts[a] = counts.get(a, 0) + 1
        return frozenset(a for a, n in counts.items() if n >= 2)

    def check_allocation(self, instance: Instance, *, capacities: bool = True) -> list[str]:
        """Return human-readable violations of the allocation constraints.

        Every support pair must be a demand-sized bundle of resources its
        agent accepts.  Binding agents must total exactly 1, others at most
        1; with ``capacities`` every resource must stay within its capacity
        (rounded outputs deliberately relax that bound, so it is optional).
        """
        problems = []
        nums, den = self.scaled()
        totals = {a.id: 0 for a in instance.agents}
        accepts = instance.acceptability
        for (a, q), n in nums.items():
            if a not in totals:
                problems.append(f"unknown agent {a!r} in support")
                continue
            if q.size != instance.agent(a).demand:
                problems.append(f"bundle {q} has size {q.size} != demand of {a!r}")
            if accepts is not None:
                refused = ", ".join(repr(r) for r, _ in q.items if (a, r) not in accepts)
                if refused:
                    problems.append(f"agent {a!r} does not accept {refused} in bundle {q}")
            totals[a] += n
        for a in instance.agents:
            total = totals[a.id]
            if a.id in instance.binding:
                if total != den:
                    problems.append(f"binding agent {a.id!r} totals {Fraction(total, den)} != 1")
            elif total > den:
                problems.append(f"agent {a.id!r} totals {Fraction(total, den)} > 1")
        if capacities:
            loads = self.loads()
            for r, c in instance.resources:
                used = loads.get(r, ZERO)
                if used > c:
                    problems.append(f"resource {r!r} used {used} > capacity {c}")
        return problems


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


class UtilityModel:
    """Agent utilities over bundles.

    ``additive`` mode stores one value per (agent, resource) and scores a
    bundle as the multiplicity-weighted sum; ``explicit`` mode stores one
    value per (agent, bundle).  Utilities are non-negative rationals.

    The model holds them as integer numerators over ``den``, the least
    common denominator of its values, and reads each (agent, bundle) pair's
    utility once, into a table that lives and dies with the model.
    """

    def __init__(
        self,
        additive: Optional[Mapping[str, Mapping[str, Fraction]]] = None,
        explicit: Optional[Mapping[Pair, Fraction]] = None,
    ):
        if (additive is None) == (explicit is None):
            raise InvalidInstanceError("give exactly one of additive= or explicit=")
        self.additive = (
            {a: {r: rat(v) for r, v in row.items()} for a, row in additive.items()}
            if additive is not None
            else None
        )
        self.explicit = (
            {e: rat(v) for e, v in explicit.items()} if explicit is not None else None
        )
        table = (
            [v for row in self.additive.values() for v in row.values()]
            if self.additive is not None
            else list(self.explicit.values())
        )
        if any(v < 0 for v in table):
            raise InvalidInstanceError("utilities must be non-negative")
        self.den = den = reduce(lcm, {v.denominator for v in table}, 1)
        # additive rows as numerators over ``den``
        self._rows = {
            a: {r: v.numerator * (den // v.denominator) for r, v in row.items()}
            for a, row in (self.additive or {}).items()
        }
        # (agent, bundle) -> ``_entry``, filled on first read
        self._table: dict[Pair, tuple[int, Fraction]] = {}

    def _entry(self, agent_id: str, bundle: Bundle) -> tuple[int, Fraction]:
        """The pair's utility as (numerator over ``den``, ``Fraction``)."""
        e = (agent_id, bundle)
        entry = self._table.get(e)
        if entry is None:
            if self.additive is not None:
                row = self._rows.get(agent_id, {})
                n = sum(m * row.get(r, 0) for r, m in bundle.items)
                entry = (n, Fraction(n, self.den))
            else:
                try:
                    u = self.explicit[e]
                except KeyError:
                    raise InvalidInstanceError(
                        f"no utility defined for ({agent_id!r}, {bundle})"
                    ) from None
                entry = (u.numerator * (self.den // u.denominator), u)
            self._table[e] = entry
        return entry

    def of(self, agent_id: str, bundle: Bundle) -> Fraction:
        return self._entry(agent_id, bundle)[1]

    def numerator(self, agent_id: str, bundle: Bundle) -> int:
        """The utility times ``den``: an integer."""
        return self._entry(agent_id, bundle)[0]

    def best(self, instance: Instance, agent_id: str) -> Fraction:
        """Largest utility of one of the agent's bundles; 0 when it has none.

        Additive utilities need no enumeration: filling the demand from the
        most valued acceptable resource down, each up to its capacity, is
        optimal, and caps that cannot fill the demand leave no bundle.
        """
        if self.additive is None:
            bundles = enumerate_bundles(agent_id, instance)
            return max((self.of(agent_id, q) for q in bundles), default=ZERO)
        row = self._rows.get(agent_id, {})
        offers = [(row.get(r, 0), instance.capacity(r)) for r in instance.acceptable(agent_id)]
        left = instance.agent(agent_id).demand
        total = 0
        for u, c in sorted(offers, reverse=True):
            take = min(left, c)
            total += take * u
            left -= take
            if not left:
                return Fraction(total, self.den)
        return ZERO

    def group_maxima(self, instance: Instance) -> dict[tuple[str, str], Fraction]:
        """Largest single-bundle utility attainable by a member of each
        (dimension, group) of ``group_keys``; each agent's best bundle is
        computed once."""
        out = dict.fromkeys(instance.group_keys(), ZERO)
        for a in instance.agents:
            if a.groups:
                best = self.best(instance, a.id)
                for key in a.groups.items():
                    out[key] = max(out[key], best)
        return out


def group_utilities(
    allocation: Allocation, utilities: UtilityModel, instance: Instance
) -> dict[tuple[str, str], Fraction]:
    """Total utility each (dimension, group) of ``group_keys`` derives from
    an allocation, in one pass over it; agents outside the instance count
    for no group."""
    nums, den = allocation.scaled()
    totals = dict.fromkeys(instance.group_keys(), 0)
    for (a, q), n in nums.items():
        spec = instance._agent_by_id.get(a)
        if spec is not None and spec.groups:
            u = utilities.numerator(a, q) * n
            for key in spec.groups.items():
                totals[key] += u
    den *= utilities.den
    return {key: Fraction(n, den) for key, n in totals.items()}
