"""Couples market: blocking conditions, polytope, dominance, fair-stable."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfair.couples import (
    CouplesInstance,
    all_roundings_stable,
    couples_condition,
    dominating_vertices,
    fair_stable_allocation,
    realized_capacities,
    stability_check,
)
from nearfair.errors import BudgetError, NoDominatingVertexError
from nearfair.exactlp import LinearProgram
from nearfair.fairness import FairObjective, allocation_polytope
from nearfair.model import (
    AgentSpec,
    Allocation,
    Bundle,
    Instance,
    UtilityModel,
    enumerate_bundles,
    pair_universe,
)
from nearfair.oracle import enumerate_integral, vertex_enumerate

from generators import random_couples


# -- an independent blocking oracle -------------------------------------------


def blocked_oracle(ci: CouplesInstance, y: Allocation, caps) -> bool:
    """Exists a strictly improving feasible deviation: walk each agent's
    preference list and try to seat the move by evicting, worst first, the
    occupants each resource ranks below the mover."""
    inst = ci.instance
    assigned = {a.id: None for a in inst.agents}
    for (a, q), v in y.values.items():
        assigned[a] = q
    usage = {r: 0 for r, _ in inst.resources}
    for a, q in assigned.items():
        if q is not None:
            for r, m in q.items:
                usage[r] += m
    for a in inst.agents:
        current = assigned[a.id]
        for q in ci.agent_prefs[a.id]:
            if current is not None and not ci.prefers_bundle(a.id, q, current):
                break
            seatable = True
            for r, need in q.items:
                have = caps[r] - usage[r]
                if current is not None:
                    have += current.multiplicity(r)
                if have < need:
                    occupants = []
                    for b, qb in assigned.items():
                        if b == a.id or qb is None:
                            continue
                        units = qb.multiplicity(r)
                        if units:
                            occupants.append((ci._res_rank[r][b], b, units))
                    occupants.sort(reverse=True)  # worst first
                    for _, b, units in occupants:
                        if not ci.prefers_resource(r, a.id, b):
                            break
                        have += units
                        if have >= need:
                            break
                if have < need:
                    seatable = False
                    break
            if seatable:
                return True
    return False


# -- fixtures ------------------------------------------------------------------


def classic_two_by_two():
    inst = Instance(
        [AgentSpec("s1", 1), AgentSpec("s2", 1)],
        [("r1", 1), ("r2", 1)],
        binding=set(),
    )
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    ci = CouplesInstance(
        inst,
        {"r1": ["s1", "s2"], "r2": ["s1", "s2"]},
        {"s1": [b1, b2], "s2": [b1, b2]},
    )
    return ci, b1, b2


def test_empty_allocation_blocked():
    ci, b1, b2 = classic_two_by_two()
    empty = Allocation({})
    rep = stability_check(ci, empty, realized_capacities(ci, empty))
    assert not rep.stable
    assert {w.condition for w in rep.witnesses} == {1}


def test_single_agent_single_resource_stable():
    inst = Instance([AgentSpec("s", 1)], [("r", 1)], binding=set())
    b = Bundle.of({"r": 1})
    ci = CouplesInstance(inst, {"r": ["s"]}, {"s": [b]})
    y = Allocation({("s", b): 1})
    assert stability_check(ci, y, realized_capacities(ci, y)).stable


def test_classified_matchings_match_definition():
    ci, b1, b2 = classic_two_by_two()
    aligned = Allocation({("s1", b1): 1, ("s2", b2): 1})
    swapped = Allocation({("s1", b2): 1, ("s2", b1): 1})
    assert stability_check(ci, aligned, realized_capacities(ci, aligned)).stable
    rep = stability_check(ci, swapped, realized_capacities(ci, swapped))
    assert not rep.stable  # s1 and r1 both prefer each other
    assert any(w.agent == "s1" and w.condition == 1 for w in rep.witnesses)


def test_couple_blocking_conditions():
    inst = Instance(
        [AgentSpec("c", 2), AgentSpec("s", 1)],
        [("r1", 2), ("r2", 1)],
        binding=set(),
    )
    rr = Bundle.of({"r1": 2})
    split = Bundle.of({"r1": 1, "r2": 1})
    rr2 = Bundle.of({"r2": 1})
    ci = CouplesInstance(
        inst,
        {"r1": ["c", "s"], "r2": ["c", "s"]},
        {"c": [split, rr], "s": [Bundle.of({"r1": 1}), rr2]},
    )
    # couple parked on its second choice, r2 free for its half: condition 3
    y = Allocation({("c", rr): 1})
    rep = stability_check(ci, y, realized_capacities(ci, y))
    conds = {w.condition for w in rep.witnesses if w.agent == "c"}
    assert 3 in conds
    # couple unassigned, both units free at r1: condition 2 (via its rr bundle)
    empty = Allocation({("s", rr2): 1})
    rep2 = stability_check(ci, empty, realized_capacities(ci, empty))
    conds2 = {(w.agent, w.condition) for w in rep2.witnesses}
    assert ("c", 2) in conds2 and ("c", 3) in conds2


def test_lp_polytope_shapes():
    # singles only
    ci, b1, b2 = classic_two_by_two()
    lp = allocation_polytope(ci.instance)[0]
    assert lp.n == 4 and len(lp.constraints) == 4  # 2 capacity + 2 agent rows
    # couples only
    inst = Instance([AgentSpec("c", 2)], [("r1", 2), ("r2", 2)], binding=set())
    bundles = enumerate_bundles("c", inst)
    ci2 = CouplesInstance(
        inst, {"r1": ["c"], "r2": ["c"]}, {"c": bundles}
    )
    lp2 = allocation_polytope(ci2.instance)[0]
    assert lp2.n == 3 and len(lp2.constraints) == 3
    # mixed
    inst3 = Instance(
        [AgentSpec("c", 2), AgentSpec("s", 1)], [("r1", 2), ("r2", 2)], binding=set()
    )
    ci3 = CouplesInstance(
        inst3,
        {"r1": ["c", "s"], "r2": ["c", "s"]},
        {"c": enumerate_bundles("c", inst3), "s": enumerate_bundles("s", inst3)},
    )
    lp3 = allocation_polytope(ci3.instance)[0]
    assert lp3.n == 5 and len(lp3.constraints) == 4


def resource_rows_first(ci):
    """The couples packing polytope written directly: every capacity row,
    then every at-most-one-bundle row, each found by scanning all pairs."""
    inst = ci.instance
    pairs = pair_universe(inst)
    lp = LinearProgram()
    col = {e: lp.add_variable(f"x[{e[0]},{e[1]}]") for e in pairs}
    for r, c in inst.resources:
        coeffs = {col[e]: e[1].multiplicity(r) for e in pairs if e[1].multiplicity(r)}
        if coeffs:
            lp.add_constraint(coeffs, "<=", c)
    for a in inst.agents:
        coeffs = {col[e]: 1 for e in pairs if e[0] == a.id}
        if coeffs:
            lp.add_constraint(coeffs, "<=", 1)
    return lp


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 1))
def test_couples_polytope_is_the_allocation_polytope(seed, dims):
    ci, _ = random_couples(random.Random(seed), dims=dims)
    assert vertex_enumerate(allocation_polytope(ci.instance)[0]) == vertex_enumerate(
        resource_rows_first(ci)
    )


def test_dominating_vertex_in_classic_market():
    ci, b1, b2 = classic_two_by_two()
    x = next(dominating_vertices(ci))
    # the aligned matching is the unique stable matching here
    assert x.values == {("s1", b1): Fraction(1), ("s2", b2): Fraction(1)}
    zero = Allocation({})
    assert not all_roundings_stable(ci, zero)


def test_oracle_agreement_random():
    rng = random.Random(31)
    for _ in range(40):
        ci, _ = random_couples(rng)
        for y in enumerate_integral(ci.instance):
            if any(
                y.resource_usage(r) > c + 2 for r, c in ci.instance.resources
            ):
                continue
            caps = realized_capacities(ci, y)
            mine = not stability_check(ci, y, caps).stable
            theirs = blocked_oracle(ci, y, caps)
            assert mine == theirs


def test_condition_examples():
    ci, _, _ = classic_two_by_two()
    assert couples_condition(ci, (), 2) == 0  # d=0 recovers delta=Delta=2
    assert couples_condition(ci, (5,), 4) == 0  # 1/6 + 2/6 = 1/2
    assert couples_condition(ci, (1,), 1) < 0


def test_fair_stable_condition_violated():
    ci, _, _ = classic_two_by_two()
    u = UtilityModel(additive={"s1": {"r1": 1, "r2": 1}, "s2": {"r1": 1, "r2": 1}})
    with pytest.raises(BudgetError):
        fair_stable_allocation(ci, u, FairObjective.utilitarian(), (), 1)


def two_singles(resources, b_value):
    """Singles a (group g1) and b (g2) over unit resources that all rank a
    first; a values every resource at 1, b at ``b_value``."""
    agents = [AgentSpec("a", 1, {"grp": "g1"}), AgentSpec("b", 1, {"grp": "g2"})]
    inst = Instance(agents, [(r, 1) for r in resources], dimensions=("grp",))
    ci = CouplesInstance(
        inst,
        {r: ["a", "b"] for r in resources},
        {s: [Bundle.of({r: 1}) for r in resources] for s in ("a", "b")},
    )
    u = UtilityModel(
        additive={"a": {r: 1 for r in resources}, "b": {r: b_value for r in resources}}
    )
    return ci, u


def test_proportional_takes_a_dominating_vertex_scored_minus_infinity():
    # {a: r} is the only dominating vertex; b gets nothing there, so the
    # proportional objective scores it log 0 = -inf
    ci, u = two_singles(["r"], 1)
    for objective in (FairObjective.utilitarian(), FairObjective.proportional()):
        result = fair_stable_allocation(ci, u, objective, (5,), 4)
        assert result.fractional.values == {("a", Bundle.of({"r": 1})): 1}
        assert result.rounded.values == result.fractional.values


def test_group_valuing_nothing_rounds_within_budget():
    # g2's bound is alpha * 0 = 0, and its deviation 0 is within it
    ci, u = two_singles(["r1", "r2"], 0)
    result = fair_stable_allocation(ci, u, FairObjective.utilitarian(), (5,), 4)
    assert result.certificate.group_deviations[("grp", "g2")] == (0, 0)
    assert result.certificate.ok()


def test_fair_stable_random_tiny():
    rng = random.Random(37)
    done = 0
    while done < 10:
        dims = rng.choice((0, 0, 1))
        ci, utilities = random_couples(rng, dims=dims)
        alpha = (5,) * dims
        delta = 2 if dims == 0 else 4
        try:
            result = fair_stable_allocation(
                ci, utilities, FairObjective.utilitarian(), alpha, delta
            )
        except NoDominatingVertexError:
            continue
        assert result.block_report.stable
        assert all(v <= delta for v in result.resource_excess.values())
        assert result.total_weighted_excess <= 4
        # couples markets bind no agent: everyone holds at most one bundle
        assert result.rounded.check_allocation(ci.instance, capacities=False) == []
        done += 1
