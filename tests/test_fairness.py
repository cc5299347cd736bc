"""Fair assignment pipeline: objectives, refinement, bounds, lower bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfair import fairness
from nearfair.errors import BudgetError, InfeasibleInstanceError, RefinementInfeasibleError
from nearfair.exactlp import solve_vertex, vertex_rank
from nearfair.fairness import (
    FairObjective,
    allocation_polytope,
    approx_fair_allocation,
    check_proportionality,
    delta_plus_bound,
    fairness_condition,
    gen_lower_bound_instance,
    max_group_utility,
    refine_to_vertex,
    solve_fair_fractional,
)
from nearfair.model import (
    AgentSpec,
    Allocation,
    Bundle,
    Instance,
    UtilityModel,
    group_utility,
)
from nearfair.oracle import enumerate_integral

from generators import random_instance


def unit(n=1):
    return Instance(
        [AgentSpec("a", 1, {"g": "g1"})],
        [("r1", 1)],
        binding={"a"},
        dimensions=("g",),
    )


# -- conditions and bounds -----------------------------------------------------


@pytest.mark.parametrize("pair", [(2, 4), (3, 2), (5, 1)])
def test_pareto_pairs_tight(pair):
    a, d = pair
    assert fairness_condition(unit(), (a,), d) == 0


def test_pair_1_1_fails():
    assert fairness_condition(unit(), (1,), 1) < 0
    with pytest.raises(BudgetError):
        approx_fair_allocation(
            unit(), UtilityModel(additive={"a": {"r1": 1}}),
            FairObjective.utilitarian(), (1,), 1,
        )


def test_delta_plus_formula():
    inst = Instance(
        [AgentSpec(f"a{i}", 1, {"g": "g1" if i < 5 else "g2"}) for i in range(10)],
        [("r1", 1), ("r2", 1), ("r3", 1)],
        binding={f"a{i}" for i in range(10)},
        dimensions=("g",),
    )
    assert delta_plus_bound(inst, 2) == 6  # min(0 + 3 + 6, 6)
    assert delta_plus_bound(inst, 0) == 0
    inst2 = Instance(
        [AgentSpec(f"a{i}", 2, {"g": "g1" if i < 2 else "g2"}) for i in range(4)],
        [("r1", 2), ("r2", 2)],
        binding={f"a{i}" for i in range(4)},
        dimensions=("g",),
    )
    assert delta_plus_bound(inst2, 10) == 14  # min(4 + 4 + 6, 20)


# -- fractional stage ----------------------------------------------------------


def test_single_agent_single_resource():
    inst = unit()
    u = UtilityModel(additive={"a": {"r1": 5}})
    x = solve_fair_fractional(inst, u, FairObjective.utilitarian())
    assert sum(u.of(*e) * v for e, v in x.values.items()) == 5


def group_count(inst, agent_id):
    """Groups an agent belongs to: its weight in the utilitarian objective."""
    return sum(1 for dim in inst.dimensions if dim in inst.agent(agent_id).groups)


def test_utilitarian_matches_exact_lp():
    rng = random.Random(3)
    checked = 0
    while checked < 8:
        inst, utilities = random_instance(rng, max_agents=5, max_resources=3, all_binding=True)
        lp, pairs, col = allocation_polytope(inst)
        lp.set_objective({col[e]: -group_count(inst, e[0]) * utilities.of(*e) for e in pairs})
        sol = solve_vertex(lp)
        if not sol.optimal:
            continue
        x = solve_fair_fractional(inst, utilities, FairObjective.utilitarian())
        got = sum(
            (group_count(inst, e[0]) * utilities.of(*e) * v for e, v in x.values.items()),
            Fraction(0),
        )
        assert got == -sol.objective
        checked += 1


def test_utilitarian_capacity_family_needs_no_rounding():
    """The exact LP optimum of the capacity family is integral: no snap to
    denominators of 10^6, so the rounder has nothing to do."""
    inst, u = gen_lower_bound_instance("capacity", 20)
    result = approx_fair_allocation(inst, u, FairObjective.utilitarian(), (3,), 6)
    assert result.fractional_path == "exact_lp"
    assert {v.denominator for v in result.fractional.values.values()} == {1}
    assert result.certificate.iterations == 0
    assert result.certificate.ok()


def test_only_non_linear_objectives_refine(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("refine_to_vertex ran")

    monkeypatch.setattr(fairness, "refine_to_vertex", refused)
    inst, u = gen_lower_bound_instance("utility-cycle", 6)
    result = approx_fair_allocation(inst, u, FairObjective.utilitarian(), (3,), 2)
    assert result.certificate.ok()
    with pytest.raises(AssertionError, match="refine_to_vertex ran"):
        approx_fair_allocation(inst, u, FairObjective.proportional(), (3,), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_utilitarian_fractional_point_is_a_certified_vertex(seed):
    inst, utilities = random_instance(
        random.Random(seed), max_agents=6, max_resources=4, all_binding=True
    )
    alpha = (5,) * len(inst.dimensions)  # admissible for d <= 2 at some delta
    delta = 2 * inst.omega_star
    while fairness_condition(inst, alpha, delta) < 0:
        delta += 1
    try:
        result = approx_fair_allocation(
            inst, utilities, FairObjective.utilitarian(), alpha, delta
        )
    except InfeasibleInstanceError:
        return  # the allocation polytope is empty
    assert result.fractional_path == "exact_lp"
    assert result.certificate.ok()
    lp, pairs, _ = allocation_polytope(inst)
    values = [result.fractional.values.get(e, Fraction(0)) for e in pairs]
    assert vertex_rank(lp, values) == lp.n


def test_symmetric_proportional_balances_groups():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a1", "a2"}, dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 3, "r2": 1}, "a2": {"r1": 3, "r2": 1}})
    x = solve_fair_fractional(inst, u, FairObjective.proportional())
    g1 = group_utility(x, u, inst, "g", "g1")
    g2 = group_utility(x, u, inst, "g", "g2")
    assert abs(float(g1) - float(g2)) < 1e-4


def test_refine_keeps_group_utility_and_returns_vertex():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g1"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a1", "a2"}, dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 1, "r2": 1}, "a2": {"r1": 1, "r2": 1}})
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    # interior point of the optimal segment
    x_star = Allocation(
        {
            ("a1", b1): Fraction(1, 2),
            ("a1", b2): Fraction(1, 2),
            ("a2", b1): Fraction(1, 2),
            ("a2", b2): Fraction(1, 2),
        }
    )
    xf = refine_to_vertex(inst, u, x_star)
    target = group_utility(x_star, u, inst, "g", "g1")
    assert group_utility(xf, u, inst, "g", "g1") >= target * (1 - Fraction(1, 10**6))
    # an endpoint: everything integral on this polytope
    assert all(v == 1 for v in xf.values.values())


def test_refine_retry_path_and_failure():
    inst = unit()
    u = UtilityModel(additive={"a": {"r1": 1, "r2": Fraction(1, 2)}})
    inst2 = Instance(
        [AgentSpec("a", 1, {"g": "g1"})],
        [("r1", 1), ("r2", 1)],
        binding={"a"},
        dimensions=("g",),
    )
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    # overshoots the optimum by 5e-5: infeasible at 1e-6, feasible at 1e-4
    drifted = Allocation({("a", b1): 1, ("a", b2): Fraction(1, 10000)})
    xf = refine_to_vertex(inst2, u, drifted)
    assert xf.check_allocation(inst2) == []
    # a gross overshoot stays infeasible after the retry
    hopeless = Allocation({("a", b1): 1, ("a", b2): 1})
    with pytest.raises(RefinementInfeasibleError):
        refine_to_vertex(inst2, u, hopeless)


# -- end-to-end ----------------------------------------------------------------


def test_pipeline_verifies_on_random_instances():
    rng = random.Random(17)
    done = 0
    while done < 6:
        inst, utilities = random_instance(
            rng, max_agents=6, max_resources=3, max_dims=1, all_binding=True
        )
        alpha = (2,) * len(inst.dimensions)
        delta = 4 if inst.omega_star == 1 else 10
        if fairness_condition(inst, alpha, delta) < 0:
            delta = 8 * inst.omega_star
        try:
            result = approx_fair_allocation(
                inst, utilities, FairObjective.utilitarian(), alpha, delta
            )
        except Exception as exc:
            from nearfair.errors import InfeasibleInstanceError

            if isinstance(exc, InfeasibleInstanceError):
                continue
            raise
        assert result.certificate.ok()
        assert result.total_excess <= result.delta_plus
        # every agent is binding (all_binding=True): each holds exactly one bundle
        assert result.rounded.check_allocation(inst, capacities=False) == []
        done += 1


@pytest.mark.parametrize("objective", ["utilitarian", "proportional"])
def test_frank_wolfe_runs_one_phase_one(phase_one_runs, objective):
    inst, u = gen_lower_bound_instance("capacity", 6)
    solve_fair_fractional(inst, u, getattr(FairObjective, objective)())
    assert len(phase_one_runs) == 1


# -- proportionality -----------------------------------------------------------


def test_check_proportionality_shares_one_phase_one(phase_one_runs):
    inst, u = gen_lower_bound_instance("utility-cycle", 6)
    y = Allocation({(f"a{i}", Bundle.of({f"r{2 * i - 1}": 1})): 1 for i in range(1, 4)})
    best = {g: max_group_utility(inst, u, "group", g) for g in ("g1", "g2")}
    phase_one_runs.clear()
    out = check_proportionality(inst, u, y, 0)
    assert len(phase_one_runs) == 1
    # g1 holds three odd resources, the most it can get; g2 holds nothing
    assert out["g1"] == (True, 3 - best["g1"] / 2)
    assert out["g2"] == (False, -best["g2"] / 2)


def test_check_proportionality_single_group():
    inst = unit()
    u = UtilityModel(additive={"a": {"r1": 4}})
    y = Allocation({("a", Bundle.of({"r1": 1})): 1})
    out = check_proportionality(inst, u, y, 0)
    assert out["g1"][0]  # k=1: needs the full maximum


def test_tight_prop_capacity_family():
    inst, u = gen_lower_bound_instance("capacity", 4)
    # the proportional matching that respects capacities fails with alpha=0
    b = {i: Bundle.of({f"r{i}": 1}) for i in range(1, 5)}
    matching = Allocation({(f"a{i}", b[i]): 1 for i in range(1, 5)})
    out = check_proportionality(inst, u, matching, 0)
    fails = [g for g, (ok, _) in out.items() if not ok]
    assert len(fails) == 3  # everyone but r1's holder misses 1/n
    # the allocation that satisfies 0-deviation proportionality overloads r1
    pile = Allocation({(f"a{i}", b[1]): 1 for i in range(1, 5)})
    out2 = check_proportionality(inst, u, pile, 0)
    assert all(ok for ok, _ in out2.values())
    assert pile.resource_usage("r1") == 4  # capacity 1: excess n-1 = 3


def test_tight_prop_capacity_oracle_n4():
    inst, u = gen_lower_bound_instance("capacity", 4)
    best_excess = None
    for y in enumerate_integral(inst):
        out = check_proportionality(inst, u, y, 0)
        if all(ok for ok, _ in out.values()):
            excess = int(y.resource_usage("r1")) - 1
            best_excess = excess if best_excess is None else min(best_excess, excess)
    assert best_excess == 3


def _cycle_capacity_ok(inst, y):
    return all(y.resource_usage(r) <= c for r, c in inst.resources)


@pytest.mark.parametrize("n", [2, 4])
def test_utility_cycle_two_allocations(n):
    inst, u = gen_lower_bound_instance("utility-cycle", n)
    feasible = [
        y for y in enumerate_integral(inst) if _cycle_capacity_ok(inst, y)
    ]
    assert len(feasible) == 2
    zeroed = set()
    for y in feasible:
        for g in inst.groups_in("group"):
            if group_utility(y, u, inst, "group", g) == 0:
                zeroed.add(g)
    assert zeroed == {"g1", "g2"}  # each allocation starves one group


def test_custom_concave_objective():
    import math

    sqrt_obj = FairObjective.custom(lambda z: math.sqrt(z))
    sqrt_obj.spot_check()
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a1", "a2"}, dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 4, "r2": 1}, "a2": {"r1": 4, "r2": 1}})
    x = solve_fair_fractional(inst, u, sqrt_obj)
    total = sum(u.of(*e) * v for e, v in x.values.items())
    assert total > 0


def test_objective_spot_check_rejects_bad_functions():
    convex = FairObjective.custom(lambda z: z * z)
    with pytest.raises(Exception):
        convex.spot_check()
    decreasing = FairObjective.custom(lambda z: -z)
    with pytest.raises(Exception):
        decreasing.spot_check()


def test_welfare_optimal_matching_is_proportional():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a1", "a2"}, dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 1, "r2": 1}, "a2": {"r1": 1, "r2": 1}})
    y = Allocation({("a1", Bundle.of({"r1": 1})): 1, ("a2", Bundle.of({"r2": 1})): 1})
    out = check_proportionality(inst, u, y, 0)
    # every group clears its 1/k share with zero slack used (oracle max is 1)
    assert all(ok for ok, _ in out.values())
    assert all(margin == Fraction(1, 2) for _, margin in out.values())
