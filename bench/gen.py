"""Seeded input documents for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain JSON-ready
documents in nearfair's instance/allocation schema, so the library only ever
sees serialized inputs.  Nothing here solves an LP: fractional inputs are
convex combinations of integral assignments built directly, which keeps
set-up small.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def _rat(v: Fraction) -> str | int:
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _bundle_json(counts: dict[str, int]) -> list[str]:
    return [f"{r}:{m}" for r, m in sorted(counts.items())]


def _bundles(resources: list[str], demand: int) -> list[dict[str, int]]:
    out = []
    for combo in itertools.combinations_with_replacement(resources, demand):
        counts: dict[str, int] = {}
        for r in combo:
            counts[r] = counts.get(r, 0) + 1
        out.append(counts)
    return out


def _groups(rng: random.Random, d: int, max_groups: int) -> dict[str, list[str]]:
    return {
        f"dim{i}": [f"dim{i}g{j}" for j in range(rng.randint(2, max_groups))]
        for i in range(d)
    }


# ---------------------------------------------------------------------------
# round: iterative_round on a random market with a fractional allocation
# ---------------------------------------------------------------------------


def rounding_request(
    rng: random.Random, n_agents: int, d: int, n_resources: int
) -> tuple[dict, dict]:
    """(instance, fractional allocation) with ``n_agents`` agents, ``d``
    group dimensions and ``n_resources`` resources.

    The allocation is a convex combination of 3-4 random integral
    assignments; capacities are then set to the largest load any of them
    puts on a resource (plus random slack), so every assignment and hence
    their combination respects capacity.  Binding agents get a bundle in
    every assignment and so total exactly 1.
    """
    groups = _groups(rng, d, 3)
    resources = [f"r{j}" for j in range(n_resources)]
    agents = []
    for i in range(n_agents):
        memberships = {
            dim: rng.choice(gs) for dim, gs in groups.items() if rng.random() < 0.85
        }
        agents.append(
            {
                "id": f"a{i}",
                "demand": rng.randint(1, 2),
                "binding": rng.random() < 0.5,
                "groups": memberships,
                "utilities": {
                    r: _rat(Fraction(rng.randint(1, 6), rng.choice((1, 2))))
                    for r in resources
                },
            }
        )
    n_parts = rng.randint(3, 4)
    raw = [rng.randint(1, 6) for _ in range(n_parts)]
    weights = [Fraction(w, sum(raw)) for w in raw]
    values: dict[tuple[str, tuple[str, ...]], Fraction] = {}
    peak = {r: 0 for r in resources}
    for w in weights:
        load = {r: 0 for r in resources}
        for a in agents:
            if not a["binding"] and rng.random() < 0.3:
                continue
            counts = rng.choice(_bundles(resources, a["demand"]))
            key = (a["id"], tuple(_bundle_json(counts)))
            values[key] = values.get(key, Fraction(0)) + w
            for r, m in counts.items():
                load[r] += m
        for r in resources:
            peak[r] = max(peak[r], load[r])
    instance = {
        "dimensions": list(groups),
        "agents": agents,
        "resources": [
            {"id": r, "capacity": max(1, peak[r] + rng.randint(0, 1))} for r in resources
        ],
    }
    allocation = {
        "entries": [
            {"agent": a, "bundle": list(q), "value": _rat(v)}
            for (a, q), v in sorted(values.items())
        ]
    }
    return instance, allocation


# ---------------------------------------------------------------------------
# round (envy-free third): group-homogeneous assignment markets
# ---------------------------------------------------------------------------


def homogeneous_request(rng: random.Random, n_agents: int, n_resources: int, d: int) -> dict:
    """Uniform demand, utilities constant inside every group, all binding,
    capacity slack so the greedy fractional stage always completes."""
    omega = rng.choice((1, 1, 2))
    ks = [rng.randint(2, 3) for _ in range(d)]
    dims = [f"dim{i}" for i in range(d)]
    members = [
        {dim: f"{dim}g{i if i < k else rng.randrange(k)}" for dim, k in zip(dims, ks)}
        for i in range(n_agents)
    ]
    resources = [f"r{j}" for j in range(n_resources)]
    caps = [rng.randint(1, max(2, omega)) for _ in resources]
    while sum(caps) < n_agents * omega + rng.randint(0, 2):
        caps[rng.randrange(len(caps))] += 1

    def positive_row() -> dict[str, int]:
        row = {r: rng.randint(0, 5) for r in resources}
        if not any(row.values()):
            row[rng.choice(resources)] = rng.randint(1, 5)
        return row

    if d == 1:
        rows = {f"{dims[0]}g{j}": positive_row() for j in range(ks[0])}
        utilities = [rows[m[dims[0]]] for m in members]
    else:
        shared = positive_row()
        utilities = [shared] * n_agents
    return {
        "dimensions": dims,
        "agents": [
            {
                "id": f"a{i}",
                "demand": omega,
                "binding": True,
                "groups": members[i],
                "utilities": dict(utilities[i]),
            }
            for i in range(n_agents)
        ],
        "resources": [{"id": r, "capacity": c} for r, c in zip(resources, caps)],
    }


# ---------------------------------------------------------------------------
# assign: all-binding markets that are feasible by construction
# ---------------------------------------------------------------------------


def assignment_request(rng: random.Random, n_agents: int, d: int, n_resources: int) -> dict:
    """All-binding market with ``d`` dimensions and demands 1-2.  Capacities
    cover one random integral assignment, so a fractional allocation exists."""
    groups = _groups(rng, d, 3)
    resources = [f"r{j}" for j in range(n_resources)]
    agents = []
    load = {r: 0 for r in resources}
    for i in range(n_agents):
        demand = rng.choice((1, 1, 2))
        counts = rng.choice(_bundles(resources, demand))
        for r, m in counts.items():
            load[r] += m
        agents.append(
            {
                "id": f"a{i}",
                "demand": demand,
                "binding": True,
                "groups": {dim: rng.choice(gs) for dim, gs in groups.items()},
                "utilities": {r: rng.randint(1, 6) for r in resources},
            }
        )
    return {
        "dimensions": list(groups),
        "agents": agents,
        "resources": [
            {"id": r, "capacity": max(1, load[r] + rng.randint(0, 1))} for r in resources
        ],
    }


# ---------------------------------------------------------------------------
# couples: desk-scale markets with preferences on both sides
# ---------------------------------------------------------------------------


def couples_request(
    rng: random.Random, n_agents: int, n_resources: int, pairs: int, dims: int
) -> dict:
    """Market of ``n_agents`` agents over ``n_resources`` resources with
    exactly ``pairs`` acceptable (agent, bundle) pairs, the size that drives
    the exhaustive vertex search.  Singles (demand 1) and couples (demand 2)
    each accept two random resources and rank their bundles; resources rank
    their users.  Draws are repeated until the pair count matches."""
    while True:
        doc = _couples_market(rng, n_agents, n_resources, dims)
        if sum(len(order) for order in doc["preferences"]["agents"].values()) == pairs:
            return doc


def _couples_market(rng: random.Random, n_agents: int, n_resources: int, dims: int) -> dict:
    resources = [f"r{j}" for j in range(n_resources)]
    caps = {r: rng.randint(1, 2) for r in resources}
    n_couples = rng.randint(1, max(1, n_agents // 2))
    dim_names = [f"dim{i}" for i in range(dims)]
    agents, accept, prefs = [], [], {}
    users: dict[str, list[str]] = {r: [] for r in resources}
    for i in range(n_agents):
        aid = f"a{i}"
        demand = 2 if i < n_couples else 1
        picks = sorted(rng.sample(resources, 2))
        accept += [[aid, r] for r in picks]
        for r in picks:
            users[r].append(aid)
        bundles = [
            c for c in _bundles(picks, demand) if all(m <= caps[r] for r, m in c.items())
        ]
        rng.shuffle(bundles)
        prefs[aid] = [_bundle_json(c) for c in bundles]
        agents.append(
            {
                "id": aid,
                "demand": demand,
                "groups": {dim: f"{dim}g{rng.randrange(2)}" for dim in dim_names},
                "utilities": {r: rng.randint(1, 5) for r in resources},
            }
        )
    for order in users.values():
        rng.shuffle(order)
    return {
        "dimensions": dim_names,
        "agents": agents,
        "resources": [{"id": r, "capacity": caps[r]} for r in resources],
        "acceptability": sorted(accept),
        "preferences": {"resources": users, "agents": prefs},
    }


# ---------------------------------------------------------------------------
# apportion: vote tensors with seat windows
# ---------------------------------------------------------------------------


def apportionment_request(
    rng: random.Random, d: int, n_groups: int, house: int, binding: bool
) -> dict:
    """Vote tensor over ``d`` dimensions of ``n_groups`` groups each.

    With ``binding`` every dimension gets exact seat quotas, taken from a
    random integral seating of the house, so the window polytope is never
    empty; exact quotas are what make three-dimensional optima fractional.
    """
    dims = [f"dim{i}" for i in range(d)]
    groups = {dim: [f"{dim}g{j}" for j in range(n_groups)] for dim in dims}
    keys = [k for k in itertools.product(*groups.values()) if rng.random() < 0.8]
    if not keys:
        keys = [tuple(gs[0] for gs in groups.values())]
    votes = [{"tuple": list(k), "votes": rng.randint(1, 40)} for k in keys]
    bounds: dict[str, dict[str, list[int]]] = {}
    if binding:
        seated = [rng.choice(keys) for _ in range(house)]
        for li, dim in enumerate(dims):
            bounds[dim] = {}
            for g in groups[dim]:
                q = sum(1 for k in seated if k[li] == g)
                bounds[dim][g] = [q, q]
    return _ma_doc(dims, groups, votes, bounds, house)


def cube_request(rng: random.Random) -> dict:
    """Three binary dimensions, votes only on the even-parity corners and a
    quota of one seat per group: the window polytope has fractional points
    but no integral one, so every request goes through the rounder."""
    dims = ["p", "q", "g"]
    groups = {dim: [f"{dim}0", f"{dim}1"] for dim in dims}
    corners = (("p0", "q0", "g0"), ("p1", "q1", "g0"), ("p0", "q1", "g1"), ("p1", "q0", "g1"))
    votes = [{"tuple": list(k), "votes": rng.randint(1, 30)} for k in corners]
    bounds = {dim: {g: [1, 1] for g in gs} for dim, gs in groups.items()}
    return _ma_doc(dims, groups, votes, bounds, 2)


def _ma_doc(dims, groups, votes, bounds, house) -> dict:
    return {
        "apportionment": {
            "dimensions": dims,
            "groups": groups,
            "votes": votes,
            "bounds": bounds,
            "house": house,
        }
    }
