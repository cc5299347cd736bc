"""The four benchmark workloads: how each builds its requests and how one
request is served.

A request carries JSON documents and the command-line style arguments a
client would pass (budget, objective, method).  Serving it parses the
documents with ``nearfair.schema``, runs the pipeline, checks the output with
the library's own public checkers, and serializes the result to JSON text
the way the CLI does.  Budgets are chosen in set-up, only through the
library's condition functions.

Each workload is a repeating *block*: a fixed list of request shapes whose
concrete inputs are drawn from the seed.  Timed passes run whole blocks, so
every run sees the same mix however fast the program is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import gen
from nearfair import schema
from nearfair.apportionment import SignpostMethod, approx_apportionment, delta_bound_ma, ma_condition
from nearfair.couples import (
    couples_condition,
    fair_stable_allocation,
    realized_capacities,
    stability_check,
)
from nearfair.envyfree import (
    HomogeneousInstance,
    check_ef_deviation,
    ef_condition,
    ef_round,
    greedy_fractional_ef,
)
from nearfair.errors import BudgetError, SchemaError
from nearfair.fairness import (
    FairObjective,
    approx_fair_allocation,
    delta_plus_bound,
    fairness_condition,
    gen_lower_bound_instance,
)
from nearfair.oracle import enumerate_integral
from nearfair.rounding import (
    DeviationBudget,
    check_condition,
    forced_psi,
    iterative_round,
    min_Delta,
    verify_approximation,
)

MAX_BUDGET = 64  # budget search grid: alpha in 1..63, delta in 0..63


class CheckFailed(Exception):
    """A pipeline returned an output that its public checker rejects."""


@dataclass
class Request:
    kind: str
    docs: tuple[str, ...]
    args: dict = field(default_factory=dict)


@dataclass
class Served:
    text: str
    load_use: Optional[Fraction]
    group_use: Optional[Fraction]


def _reject_float(text: str):
    raise SchemaError(f"float literal {text!r} in an exact document")


def _loads(text: str) -> dict:
    return json.loads(text, parse_float=_reject_float)


# ---------------------------------------------------------------------------
# budgets, chosen only through the library's condition functions
# ---------------------------------------------------------------------------


def _first_admissible(slack: Callable[[int, int], Fraction]) -> tuple[int, int]:
    """Smallest uniform alpha that admits some delta, then the smallest delta.

    The grid is bounded on purpose: with two dimensions at alpha 3 the
    assignment condition is negative for every delta, so an unbounded
    "raise delta" loop would never end.
    """
    for a in range(1, MAX_BUDGET):
        if slack(a, MAX_BUDGET - 1) < 0:  # every condition loosens as delta grows
            continue
        for delta in range(MAX_BUDGET):
            if slack(a, delta) >= 0:
                return a, delta
    raise BudgetError("no admissible budget on the search grid")


def _rounding_budget(instance, x) -> dict:
    d = len(instance.dimensions)
    psi = 1 if forced_psi(x, d) else 0
    w = instance.omega_star

    def slack(a: int, delta: int) -> Fraction:
        budget = DeviationBudget((a,) * d, delta, None, psi, w)
        s = check_condition(budget)
        if s >= 0:
            try:
                min_Delta(budget)
            except BudgetError:  # psi = 0 with a tight condition
                return Fraction(-1)
        return s

    a, delta = _first_admissible(slack)
    budget = DeviationBudget((a,) * d, delta, None, psi, w)
    return {"alpha": (a,) * d, "delta": delta, "Delta": min_Delta(budget), "psi": psi}


def _max_use(deviations) -> Optional[Fraction]:
    uses = [dev / bound for dev, bound in deviations if bound > 0]
    return max(uses) if uses else None


def _certificate_uses(cert) -> tuple[Optional[Fraction], Optional[Fraction]]:
    return (
        _max_use(cert.resource_deviations.values()),
        _max_use(cert.group_deviations.values()),
    )


# ---------------------------------------------------------------------------
# round: iterative_round, and greedy + ef_round on homogeneous markets
# ---------------------------------------------------------------------------


def rounding_request(rng: random.Random, n_agents: int, d: int, n_resources: int) -> Request:
    inst_doc, alloc_doc = gen.rounding_request(rng, n_agents, d, n_resources)
    instance, _ = schema.parse_instance(inst_doc)
    x = schema.parse_allocation(alloc_doc)
    return Request(
        "round", (json.dumps(inst_doc), json.dumps(alloc_doc)), _rounding_budget(instance, x)
    )


def serve_round(req: Request, tr) -> Served:
    with tr.span("schema.parse"):
        instance, utilities = schema.parse_instance(_loads(req.docs[0]))
        x = schema.parse_allocation(_loads(req.docs[1]))
    a = req.args
    budget = DeviationBudget(a["alpha"], a["delta"], a["Delta"], a["psi"], instance.omega_star)
    with tr.span("rounding.iterative_round") as rec:
        y, cert = iterative_round(instance, x, utilities, budget)
        if rec is not None:
            rec[5] = cert.iterations
    with tr.span("check"):
        again = verify_approximation(instance, x, y, utilities, budget)
        if not again.ok():
            raise CheckFailed("; ".join(again.violations))
        if (again.group_deviations, again.resource_deviations, again.total_deviation) != (
            cert.group_deviations, cert.resource_deviations, cert.total_deviation
        ):
            raise CheckFailed("returned certificate differs from the recomputed one")
    load, group = _certificate_uses(again)
    return Served(
        _serialize(tr, {
            "allocation": schema.serialize_allocation(y)["entries"],
            "certificate": cert.to_json(),
        }),
        load,
        group,
    )


def envyfree_request(rng: random.Random, n_agents: int, n_resources: int, d: int) -> Request:
    doc = gen.homogeneous_request(rng, n_agents, n_resources, d)
    h = HomogeneousInstance(*schema.parse_instance(doc))
    a, delta = _first_admissible(lambda a, delta: ef_condition(h, (a,) * d, delta))
    return Request("envyfree", (json.dumps(doc),), {"alpha": (a,) * d, "delta": delta})


def serve_envyfree(req: Request, tr) -> Served:
    with tr.span("schema.parse"):
        h = HomogeneousInstance(*schema.parse_instance(_loads(req.docs[0])))
    alpha, delta = req.args["alpha"], req.args["delta"]
    with tr.span("envyfree.greedy"):
        x, _trace = greedy_fractional_ef(h)
    with tr.span("envyfree.round"):
        y = ef_round(h, x, alpha, delta)
    with tr.span("check"):
        report = check_ef_deviation(h, y, alpha, delta)
        problems = y.check_allocation(h.instance, capacities=False)
        if not report["ok"] or problems or not y.integral:
            raise CheckFailed(f"envy report ok={report['ok']}; {problems}")
    envy = [max(Fraction(0), envy) / bound for _, envy, bound in report["pairs"].values() if bound > 0]
    over = [max(Fraction(0), over) for _, over in report["capacity"].values()]
    return Served(
        _serialize(tr, {
            "allocation": schema.serialize_allocation(y)["entries"],
            "fractional": schema.serialize_allocation(x)["entries"],
            "envy_ok": report["ok"],
        }),
        max(over) / delta if delta else None,
        max(envy) if envy else None,
    )


# ---------------------------------------------------------------------------
# assign: approx_fair_allocation
# ---------------------------------------------------------------------------

_OBJECTIVES = {
    "utilitarian": FairObjective.utilitarian,
    "proportional": FairObjective.proportional,
}


def assignment_request(doc: dict, objective: str) -> Request:
    instance, _ = schema.parse_instance(doc)
    d = len(instance.dimensions)
    a, delta = _first_admissible(
        lambda a, delta: fairness_condition(instance, (a,) * d, delta)
    )
    return Request(
        "assign", (json.dumps(doc),), {"alpha": (a,) * d, "delta": delta, "objective": objective}
    )


def lower_bound_doc(kind: str, n: int) -> dict:
    return schema.serialize_instance(*gen_lower_bound_instance(kind, n))


def serve_assign(req: Request, tr) -> Served:
    with tr.span("schema.parse"):
        instance, utilities = schema.parse_instance(_loads(req.docs[0]))
    alpha, delta = req.args["alpha"], req.args["delta"]
    with tr.span("fairness.pipeline"):
        result = approx_fair_allocation(
            instance, utilities, _OBJECTIVES[req.args["objective"]](), alpha, delta
        )
    with tr.span("check"):
        y = result.rounded
        everyone = {a.id for a in instance.agents}
        held = sorted(a for a, _ in y.values)
        if not y.integral or held != sorted(everyone):
            raise CheckFailed("rounded assignment does not give every agent one bundle")
        excess = {r: max(0, int(y.resource_usage(r)) - c) for r, c in instance.resources}
        cap = delta_plus_bound(instance, delta)
        if any(v > delta for v in excess.values()) or sum(excess.values()) > cap:
            raise CheckFailed(f"capacity excess {excess} beyond delta={delta} or cap {cap}")
        if excess != result.resource_excess or sum(excess.values()) != result.total_excess:
            raise CheckFailed("reported excess differs from the recomputed one")
        if not result.certificate.ok():
            raise CheckFailed("; ".join(result.certificate.violations))
    load, group = _certificate_uses(result.certificate)
    return Served(
        _serialize(tr, {
            "allocation": schema.serialize_allocation(result.rounded)["entries"],
            "fractional": schema.serialize_allocation(result.fractional)["entries"],
            "delta_plus": result.delta_plus,
            "total_excess": result.total_excess,
            "certificate": result.certificate.to_json(),
        }),
        load,
        group,
    )


# ---------------------------------------------------------------------------
# couples: fair_stable_allocation
# ---------------------------------------------------------------------------


def _has_stable_assignment(ci) -> bool:
    """Whether some integral allocation within capacities is stable.  Such an
    allocation is a 0/1 point of the stable polytope, so a vertex whose only
    rounding is itself: a dominating vertex, and ``fair_stable_allocation``
    cannot raise ``NoDominatingVertexError``."""
    inst = ci.instance
    for y in enumerate_integral(inst):
        if all(y.resource_usage(r) <= c for r, c in inst.resources):
            if stability_check(ci, y, realized_capacities(ci, y)).stable:
                return True
    return False


def couples_request(
    rng: random.Random, n_agents: int, n_resources: int, pairs: int, dims: int
) -> Request:
    """A market of the given shape that has a dominating vertex.  Markets
    without a stable integral allocation are redrawn (a few in a hundred at
    these sizes; on sampled seeds exactly the markets without a dominating
    vertex), so that no request fails; ``args["redrawn"]`` counts them."""
    redrawn = 0
    while True:
        doc = gen.couples_request(rng, n_agents, n_resources, pairs, dims)
        ci, _ = schema.parse_couples(doc)
        if _has_stable_assignment(ci):
            break
        redrawn += 1
    a, delta = _first_admissible(lambda a, delta: couples_condition(ci, (a,) * dims, delta))
    return Request(
        "couples", (json.dumps(doc),), {"alpha": (a,) * dims, "delta": delta, "redrawn": redrawn}
    )


def serve_couples(req: Request, tr) -> Served:
    with tr.span("schema.parse"):
        ci, utilities = schema.parse_couples(_loads(req.docs[0]))
    alpha, delta = req.args["alpha"], req.args["delta"]
    with tr.span("couples.pipeline"):
        result = fair_stable_allocation(
            ci, utilities, FairObjective.utilitarian(), alpha, delta
        )
    with tr.span("check"):
        y = result.rounded
        if not stability_check(ci, y, realized_capacities(ci, y)).stable:
            raise CheckFailed("rounded allocation is not stable under realized capacities")
        inst = ci.instance
        excess = {r: max(0, int(y.resource_usage(r)) - c) for r, c in inst.resources}
        weighted = sum(inst.agent(a).demand for a, _ in y.values)
        over = max(0, weighted - sum(c for _, c in inst.resources))
        if any(v > delta for v in excess.values()) or over > 4:
            raise CheckFailed(f"excess {excess} beyond delta={delta} or weighted {over} > 4")
        if not result.certificate.ok():
            raise CheckFailed("; ".join(result.certificate.violations))
    load, group = _certificate_uses(result.certificate)
    return Served(
        _serialize(tr, {
            "allocation": schema.serialize_allocation(y)["entries"],
            "fractional": schema.serialize_allocation(result.fractional)["entries"],
            "stable": result.block_report.stable,
            "resource_excess": result.resource_excess,
            "total_weighted_excess": result.total_weighted_excess,
            "certificate": result.certificate.to_json(),
        }),
        load,
        group,
    )


# ---------------------------------------------------------------------------
# apportion: approx_apportionment (Webster)
# ---------------------------------------------------------------------------


def apportionment_request(doc: dict, alpha: tuple[int, ...]) -> Request:
    ma = schema.parse_ma(doc)
    if ma_condition(ma, alpha) < 0:
        raise BudgetError(f"alpha {alpha} fails the apportionment condition")
    return Request("apportion", (json.dumps(doc),), {"alpha": alpha})


def serve_apportion(req: Request, tr) -> Served:
    with tr.span("schema.parse"):
        ma = schema.parse_ma(_loads(req.docs[0]))
    alpha = req.args["alpha"]
    with tr.span("apportionment.pipeline"):
        result = approx_apportionment(ma, SignpostMethod.webster(), alpha)
    with tr.span("check"):
        seats = {e: 0 for e in ma.votes}
        for var, val in result.rounded.items():
            frac = result.fractional[var]
            if val not in (0, 1) or (frac in (0, 1) and val != frac):
                raise CheckFailed(f"seat {var} is not a 0/1 rounding of the optimum")
            seats[var[0]] += int(val)
        if seats != result.seats:
            raise CheckFailed("reported seats differ from the rounded seat variables")
        group_use = Fraction(0)
        for li, dim in enumerate(ma.dims):
            for g in ma.groups[dim]:
                lo, hi = ma.bounds(dim, g)
                n = sum(s for e, s in seats.items() if e[li] == g)
                miss = max(0, lo - n, n - hi)
                if miss > alpha[li]:
                    raise CheckFailed(f"group ({dim},{g}) misses its window by {miss}")
                group_use = max(group_use, Fraction(miss, alpha[li]))
        bound = delta_bound_ma(ma, alpha)
        house_dev = abs(sum(seats.values()) - ma.house)
        if house_dev > bound:
            raise CheckFailed(f"house deviates by {house_dev} > {bound}")
    return Served(
        _serialize(tr, {
            "seats": [{"tuple": list(e), "seats": n} for e, n in sorted(result.seats.items())],
            "group_seats": [
                {"dimension": d, "group": g, "seats": n}
                for (d, g), n in sorted(result.group_seats.items())
            ],
            "house": result.total_seats(),
            "house_deviation": result.house_deviation,
            "delta_bound": result.delta_bound,
        }),
        Fraction(house_dev, bound) if bound else None,
        group_use,
    )


def _serialize(tr, doc: dict) -> str:
    with tr.span("schema.serialize") as rec:
        text = schema.dump_json(doc, None)
        if rec is not None:
            rec[5] = len(text.encode())
    return text


SERVE = {
    "round": serve_round,
    "envyfree": serve_envyfree,
    "assign": serve_assign,
    "couples": serve_couples,
    "apportion": serve_apportion,
}


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def round_block(rng: random.Random) -> list[Request]:
    """Two thirds iterative_round on random markets of 10 and 15 agents
    with 0-2 dimensions, one third greedy + envy-free rounding."""
    return [
        envyfree_request(rng, 6, 3, 1),
        rounding_request(rng, 10, 0, 5),
        rounding_request(rng, 15, 1, 5),
        envyfree_request(rng, 6, 3, 2),
        rounding_request(rng, 10, 1, 5),
        rounding_request(rng, 15, 2, 5),
        envyfree_request(rng, 6, 3, 1),
        rounding_request(rng, 10, 2, 5),
        rounding_request(rng, 15, 0, 5),
    ]


def assign_block(rng: random.Random) -> list[Request]:
    """The lower-bound families, the same markets in every block: capacity
    n = 6 under both objectives and utility-cycle n = 8 (proportional), 10
    and 12 (both); and five random all-binding markets, feasible by
    construction, under the utilitarian objective.  The families are most
    of the requests, so the median and the tail are latencies of fixed
    markets.  (Random markets stay utilitarian: under the proportional
    objective about one in a hundred needs thousands of Frank-Wolfe
    iterations, tens of seconds, which no time-bounded run can average; see
    README.md.)"""
    families = [
        ("capacity", 6, "proportional"),
        ("utility-cycle", 10, "utilitarian"),
        ("utility-cycle", 8, "proportional"),
        ("utility-cycle", 12, "utilitarian"),
        ("capacity", 6, "utilitarian"),
        ("utility-cycle", 10, "proportional"),
        ("utility-cycle", 12, "proportional"),
    ]
    requests = [
        assignment_request(lower_bound_doc(kind, n), objective) for kind, n, objective in families
    ]
    for slot in (0, 2, 4, 6, 8):
        doc = gen.assignment_request(rng, 4, 1 + slot // 2 % 2, 3)
        requests.insert(slot, assignment_request(doc, "utilitarian"))
    return requests


def couples_block(rng: random.Random) -> list[Request]:
    """Criterion-6-shaped markets in three sizes: 2 agents with 4
    (agent, bundle) pairs, 3 agents with 6 and 4 agents with 7, over 2-3
    resources; the exhaustive search grows exponentially with the pair
    count.  The middle size is the most frequent, so the median latency
    lies inside it.  Dimensions alternate between 0 and 1."""
    small, middle, large = (2, 2, 4), (3, 3, 6), (4, 3, 7)
    shapes = [small, middle, middle, large, middle, small, middle, large, middle]
    return [couples_request(rng, *shape, i % 2) for i, shape in enumerate(shapes)]


def apportion_block(rng: random.Random) -> list[Request]:
    """d = 2 at alpha (1,1) on 20-130-variable seat LPs, and d = 3 at alpha
    (2,2,2), half of it with exact quotas in every dimension (one of those
    is the even-parity cube, whose optimum is always fractional)."""
    d2 = [
        gen.apportionment_request(rng, 2, groups, house, False)
        for groups, house in ((2, 10), (4, 8), (3, 12), (4, 8))
    ]
    d3 = [
        gen.cube_request(rng),
        gen.apportionment_request(rng, 3, 2, 8, False),
        gen.apportionment_request(rng, 3, 3, 4, False),
        gen.apportionment_request(rng, 3, 2, 6, True),
        gen.apportionment_request(rng, 3, 2, 6, True),
        gen.apportionment_request(rng, 3, 2, 6, True),
    ]
    return [apportionment_request(doc, (1, 1)) for doc in d2] + [
        apportionment_request(doc, (2, 2, 2)) for doc in d3
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[Request]]
    blocks: int  # blocks generated in set-up; timed passes cycle over them
    trace_blocks: int  # blocks in each pass of a traced run
    tail_pct: int  # latency_tail_ms percentile, fixed per workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload("round", round_block, blocks=32, trace_blocks=6, tail_pct=85),
        Workload("assign", assign_block, blocks=8, trace_blocks=1, tail_pct=70),
        Workload("couples", couples_block, blocks=16, trace_blocks=4, tail_pct=85),
        Workload("apportion", apportion_block, blocks=24, trace_blocks=4, tail_pct=90),
    )
}
