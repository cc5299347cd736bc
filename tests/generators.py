"""Deterministic random builders shared across the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from nearfair.couples import CouplesInstance
from nearfair.envyfree import HomogeneousInstance
from nearfair.exactlp import LinearProgram, feasible_vertex, solve_vertex
from nearfair.apportionment import MAInstance
from nearfair.fairness import allocation_polytope
from nearfair.model import (
    AgentSpec,
    Allocation,
    Instance,
    UtilityModel,
    enumerate_bundles,
)
from nearfair.rationals import ONE, ZERO, ceil_frac
from nearfair.rounding import DeviationBudget, check_condition, forced_psi, min_Delta
from nearfair.schema import bundle_to_json, serialize_instance


def random_instance(
    rng: random.Random,
    max_agents: int = 10,
    max_resources: int = 5,
    max_demand: int = 2,
    max_dims: int = 2,
    max_groups: int = 3,
    all_binding: bool = False,
) -> tuple[Instance, UtilityModel]:
    n = rng.randint(2, max_agents)
    m = rng.randint(2, max_resources)
    d = rng.randint(0, max_dims)
    dims = tuple(f"dim{i}" for i in range(d))
    group_ids = {dim: [f"{dim}g{j}" for j in range(rng.randint(1, max_groups))] for dim in dims}
    agents = []
    for i in range(n):
        demand = rng.randint(1, max_demand)
        memberships = {}
        for dim in dims:
            if rng.random() < 0.85:
                memberships[dim] = rng.choice(group_ids[dim])
        agents.append(AgentSpec(f"a{i}", demand, memberships))
    resources = [(f"r{j}", rng.randint(1, 3)) for j in range(m)]
    binding = (
        {a.id for a in agents}
        if all_binding
        else {a.id for a in agents if rng.random() < 0.5}
    )
    inst = Instance(agents, resources, binding=binding, dimensions=dims)
    utilities = UtilityModel(
        additive={
            a.id: {
                r: Fraction(rng.randint(1, 6), rng.choice((1, 2)))
                for r, _ in resources
            }
            for a in agents
        }
    )
    return inst, utilities


def fractional_allocation(rng: random.Random, inst: Instance) -> Allocation | None:
    """Convex combination of random vertices of the allocation polytope.

    Returns None when the instance is infeasible.
    """
    lp, pairs, col = allocation_polytope(inst)
    if feasible_vertex(lp).status != "optimal":
        return None
    points = []
    for _ in range(3):
        lp.set_objective(
            {col[e]: Fraction(rng.randint(-6, 6)) for e in pairs}
        )
        sol = solve_vertex(lp)
        points.append([sol.value(col[e]) for e in pairs])
    weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    values = {}
    for i, e in enumerate(pairs):
        v = sum((w * p[i] for w, p in zip(weights, points)), ZERO)
        if v:
            values[e] = v
    return Allocation(values)


def minimal_budget(inst: Instance, x: Allocation) -> DeviationBudget:
    """Smallest-ish admissible budget for the instance and input."""
    d = len(inst.dimensions)
    w = inst.omega_star
    psi = 1 if forced_psi(x, d) else 0
    a = 0
    while True:
        a += 1
        head = Fraction(psi, 2) + Fraction(d, a + 1)
        if head < 1:
            break
    rem = 1 - head
    delta = ceil_frac(Fraction(w) / rem) - 1
    budget = DeviationBudget((a,) * d, delta, None, psi, w)
    if psi == 0 and check_condition(budget) == 0:
        budget = DeviationBudget((a,) * d, delta + 1, None, psi, w)
    return DeviationBudget(
        budget.alpha, budget.delta, min_Delta(budget), psi, w
    )


# ---------------------------------------------------------------------------
# group-homogeneous instances
# ---------------------------------------------------------------------------


def random_homogeneous(
    rng: random.Random, max_agents: int = 8, max_resources: int = 4
) -> HomogeneousInstance:
    omega = rng.choice((1, 1, 2))
    n = rng.randint(2, max_agents)
    d = rng.choice((1, 1, 2))
    dims = tuple(f"dim{i}" for i in range(d))
    ks = {dim: rng.randint(2, 3) for dim in dims}
    agents = []
    for i in range(n):
        memberships = {dim: f"{dim}g{rng.randrange(ks[dim])}" for dim in dims}
        agents.append(AgentSpec(f"a{i}", omega, memberships))
    # every group needs a member: patch missing ones onto the first agents
    patched = list(agents)
    idx = 0
    for dim in dims:
        present = {a.groups[dim] for a in patched}
        for j in range(ks[dim]):
            g = f"{dim}g{j}"
            if g not in present:
                old = patched[idx % n]
                groups = dict(old.groups)
                groups[dim] = g
                patched[idx % n] = AgentSpec(old.id, old.demand, groups)
                idx += 1
    agents = patched
    m = rng.randint(2, max_resources)
    total_cap = 0
    caps = []
    for j in range(m):
        caps.append(rng.randint(1, max(2, omega)))
        total_cap += caps[-1]
    # make the market fractionally feasible with a little slack
    while total_cap < n * omega + rng.randint(0, 2):
        j = rng.randrange(m)
        caps[j] += 1
        total_cap += 1
    resources = [(f"r{j}", caps[j]) for j in range(m)]
    # homogeneity needs one utility function per group in *every* dimension,
    # so multi-dimensional draws share a single function across all agents

    def positive_row():
        # a group whose best utility is zero makes the strict envy bound
        # vacuous-degenerate, so keep one positive value per function
        row = {r: Fraction(rng.randint(0, 5)) for r, _ in resources}
        if all(v == 0 for v in row.values()):
            row[rng.choice([r for r, _ in resources])] = Fraction(rng.randint(1, 5))
        return row

    additive = {}
    if d == 1:
        group_util = {
            f"{dims[0]}g{j}": positive_row() for j in range(ks[dims[0]])
        }
        for a in agents:
            additive[a.id] = dict(group_util[a.groups[dims[0]]])
    else:
        shared = positive_row()
        for a in agents:
            additive[a.id] = dict(shared)
    inst = Instance(
        agents, resources, binding={a.id for a in agents}, dimensions=dims
    )
    return HomogeneousInstance(inst, UtilityModel(additive=additive))


def ef_budget(h: HomogeneousInstance) -> tuple[tuple[int, ...], int]:
    """Smallest-ish budget meeting the pairwise-envy condition."""
    inst = h.instance
    w = h.omega_star
    delta = 4 * w - 1  # makes the resource term exactly 1/4
    need = Fraction(1, 2) - Fraction(w, delta + 1)
    a = 0
    while True:
        a += 1
        total = sum(
            Fraction(2 * (inst.group_count(dim) - 1), a + 1)
            for dim in inst.dimensions
        )
        if total <= need:
            return (a,) * len(inst.dimensions), delta


# ---------------------------------------------------------------------------
# couples
# ---------------------------------------------------------------------------


def random_couples(
    rng: random.Random, max_agents: int = 4, max_resources: int = 3, dims: int = 0
) -> tuple[CouplesInstance, UtilityModel]:
    m = rng.randint(2, max_resources)
    resources = [(f"r{j}", rng.randint(1, 2)) for j in range(m)]
    n = rng.randint(2, max_agents)
    n_couples = rng.randint(1, max(1, n // 2))
    agents = []
    dim_names = tuple(f"dim{i}" for i in range(dims))
    for i in range(n):
        demand = 2 if i < n_couples else 1
        memberships = {dim: f"{dim}g{rng.randrange(2)}" for dim in dim_names}
        agents.append(AgentSpec(f"a{i}", demand, memberships))
    accept = set()
    for a in agents:
        picks = rng.sample([r for r, _ in resources], min(2, m))
        for r in picks:
            accept.add((a.id, r))
    inst = Instance(
        agents,
        resources,
        binding=frozenset(),
        dimensions=dim_names,
        acceptability=frozenset(accept),
    )
    res_prefs = {}
    for r, _ in resources:
        users = [
            a.id
            for a in agents
            if any(q.multiplicity(r) for q in enumerate_bundles(a.id, inst))
        ]
        rng.shuffle(users)
        res_prefs[r] = users
    agent_prefs = {}
    for a in agents:
        order = enumerate_bundles(a.id, inst)
        order = rng.sample(order, len(order))
        agent_prefs[a.id] = order
    ci = CouplesInstance(inst, res_prefs, agent_prefs)
    utilities = UtilityModel(
        additive={
            a.id: {r: Fraction(rng.randint(1, 5)) for r, _ in resources}
            for a in agents
        }
    )
    return ci, utilities


# ---------------------------------------------------------------------------
# apportionment
# ---------------------------------------------------------------------------


def random_ma(
    rng: random.Random,
    d: int,
    max_groups: int = 4,
    max_house: int = 20,
    binding_dims: tuple[int, ...] = (),
    window_dims: tuple[int, ...] = (),
) -> MAInstance:
    """Random vote tensor; listed dimensions get exact quotas (binding) or
    non-trivial seat windows, which is what makes d >= 3 optima fractional."""
    dims = tuple(f"dim{i}" for i in range(d))
    groups = {
        dim: tuple(f"{dim}g{j}" for j in range(rng.randint(2, max_groups)))
        for dim in dims
    }
    house = rng.randint(2, max_house)
    keys = []

    def tuples(prefix, rest):
        if not rest:
            keys.append(tuple(prefix))
            return
        for g in groups[rest[0]]:
            tuples(prefix + [g], rest[1:])

    tuples([], list(dims))
    votes = {}
    for e in keys:
        if rng.random() < 0.8:
            votes[e] = rng.randint(1, 40)
    if not votes:
        votes[keys[0]] = rng.randint(1, 40)
    lower, upper = {}, {}
    for li in binding_dims:
        dim = dims[li]
        gs = [g for g in groups[dim] if any(e[li] == g for e in votes)]
        quota = [house // len(gs)] * len(gs)
        for i in range(house - sum(quota)):
            quota[rng.randrange(len(gs))] += 1
        for g, q in zip(gs, quota):
            lower[(dim, g)] = q
            upper[(dim, g)] = q
        for g in groups[dim]:
            if g not in gs:
                lower[(dim, g)] = 0
                upper[(dim, g)] = 0
    for li in window_dims:
        if li in binding_dims:
            continue
        dim = dims[li]
        gs = [g for g in groups[dim] if any(e[li] == g for e in votes)]
        share = house // max(1, len(gs))
        for g in gs:
            lo = rng.randint(0, max(0, share - 1))
            hi = rng.randint(share, max(share, house - 1))
            lower[(dim, g)] = lo
            upper[(dim, g)] = max(lo, hi)
    return MAInstance(
        dims=dims, groups=groups, votes=votes, lower=lower, upper=upper, house=house
    )


# ---------------------------------------------------------------------------
# random LPs
# ---------------------------------------------------------------------------


def random_lp(rng: random.Random, max_vars: int = 6) -> LinearProgram:
    n = rng.randint(2, max_vars)
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0, rng.choice((1, 1, 2)))
    m = rng.randint(1, 4)
    for _ in range(m):
        coeffs = {
            j: Fraction(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.8
        }
        rel = rng.choice(("<=", "<=", ">=", "="))
        rhs = Fraction(rng.randint(-2, 6))
        lp.add_constraint(coeffs, rel, rhs)
    lp.set_objective({j: Fraction(rng.randint(-5, 5)) for j in range(n)})
    return lp


def degenerate_lp(rng: random.Random, max_vars: int = 5) -> LinearProgram:
    """LP whose rows all pass through one 0/1 point: many bases share that
    vertex, and some rows repeat, scale or sum earlier ones."""
    n = rng.randint(2, max_vars)
    point = [rng.randint(0, 1) for _ in range(n)]
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0, 1)
    rows = []
    for _ in range(rng.randint(2, 2 * n)):
        kind = rng.choice(("fresh", "fresh", "repeat", "scale", "sum")) if rows else "fresh"
        if kind == "fresh":
            coeffs = {j: Fraction(rng.randint(-2, 2)) for j in range(n) if rng.random() < 0.7}
        elif kind == "repeat":
            coeffs = dict(rng.choice(rows))
        elif kind == "scale":
            f = Fraction(rng.choice((-2, 2, 3)), rng.choice((1, 2)))
            coeffs = {j: f * v for j, v in rng.choice(rows).items()}
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            coeffs = {j: a.get(j, ZERO) + b.get(j, ZERO) for j in set(a) | set(b)}
        rows.append(coeffs)
        rhs = sum((v * point[j] for j, v in coeffs.items()), ZERO)
        lp.add_constraint(coeffs, rng.choice(("<=", ">=", "=")), rhs)
    lp.set_objective({j: Fraction(rng.randint(-3, 3)) for j in range(n)})
    return lp


def psi_zero_input(
    rng: random.Random, max_agents: int = 9, max_resources: int = 4
) -> tuple[Instance, UtilityModel, Allocation]:
    """Instance plus a fractional allocation where every agent holds at most
    one fractional bundle, so the per-agent flag may legitimately stay 0.

    Needs two dimensions (one would force the flag) and no binding agents
    (their unit mass would need several fractional bundles).
    """
    n = rng.randint(3, max_agents)
    m = rng.randint(2, max_resources)
    dims = ("dim0", "dim1")
    agents = []
    for i in range(n):
        memberships = {
            dim: f"{dim}g{rng.randrange(3)}" for dim in dims if rng.random() < 0.9
        }
        agents.append(AgentSpec(f"a{i}", rng.randint(1, 2), memberships))
    resources = [(f"r{j}", rng.randint(1, 3)) for j in range(m)]
    inst = Instance(agents, resources, binding=frozenset(), dimensions=dims)
    utilities = UtilityModel(
        additive={
            a.id: {r: Fraction(rng.randint(1, 6)) for r, _ in resources}
            for a in agents
        }
    )
    values = {}
    for a in agents:
        bundles = enumerate_bundles(a.id, inst)
        q = rng.choice(bundles)
        values[(a.id, q)] = Fraction(1, rng.choice((2, 3, 4)))
    x = Allocation(values)
    # scale down until capacities hold; one fractional bundle per agent survives
    while any(x.resource_usage(r) > c for r, c in resources):
        values = {e: v / 2 for e, v in values.items()}
        x = Allocation(values)
    return inst, utilities, x


# ---------------------------------------------------------------------------
# JSON documents for markets the library only reads
# ---------------------------------------------------------------------------


def serialize_couples(
    ci: CouplesInstance, utilities: Optional[UtilityModel] = None
) -> dict:
    """The couples document ``nearfair.schema.parse_couples`` reads."""
    doc = serialize_instance(ci.instance, utilities)
    doc["preferences"] = {
        "resources": {r: list(order) for r, order in sorted(ci.resource_prefs.items())},
        "agents": {
            a: [bundle_to_json(q) for q in order]
            for a, order in sorted(ci.agent_prefs.items())
        },
    }
    return doc


def serialize_ma(ma: MAInstance) -> dict:
    """The apportionment document ``nearfair.schema.parse_ma`` reads."""
    bounds: dict = {}
    for (dim, g), b in ma.lower.items():
        bounds.setdefault(dim, {}).setdefault(g, [0, ma.house])[0] = b
    for (dim, g), bb in ma.upper.items():
        bounds.setdefault(dim, {}).setdefault(g, [0, ma.house])[1] = bb
    return {
        "apportionment": {
            "dimensions": list(ma.dims),
            "groups": {d: list(gs) for d, gs in ma.groups.items()},
            "votes": [
                {"tuple": list(e), "votes": v} for e, v in sorted(ma.votes.items())
            ],
            "bounds": bounds,
            "house": ma.house,
        }
    }
