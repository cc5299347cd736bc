"""Envy-free pipeline: greedy events, scaled envy checks, protected rounding."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nearfair.envyfree import (
    HomogeneousInstance,
    check_ef_deviation,
    check_fractional_ef,
    ef_condition,
    ef_round,
    greedy_fractional_ef,
)
from nearfair.errors import BudgetError, InfeasibleInstanceError, InvalidInstanceError
from nearfair.model import AgentSpec, Allocation, Bundle, Instance, UtilityModel, enumerate_bundles

from generators import ef_budget, random_homogeneous


def two_singletons():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a1", "a2"}, dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 1}, "a2": {"r1": 2, "r2": 1}})
    return HomogeneousInstance(inst, u)


def test_envy_of_a_group_valuing_nothing_is_within_budget():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a1", "a2"}, dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 1}, "a2": {"r1": 0, "r2": 0}})
    h = HomogeneousInstance(inst, u)
    y = Allocation({("a1", Bundle.of({"r2": 1})): 1, ("a2", Bundle.of({"r1": 1})): 1})
    report = check_ef_deviation(h, y, (7,), 3)
    # g2 envies g1 by 0 against the bound 7 * 0; g1 envies g2 by 2 - 1 = 1 < 7 * 2
    assert report["pairs"] == {
        ("g", "g1", "g2"): (True, 1, 14),
        ("g", "g2", "g1"): (True, 0, 0),
    }
    assert report["ok"]
    # a positive envy still fails against the bound 0
    strict = check_ef_deviation(h, y, (0,), 3)
    assert strict["pairs"][("g", "g1", "g2")] == (False, 1, 0)
    assert not strict["ok"]


def test_heterogeneous_demands_rejected():
    agents = [AgentSpec("a1", 1), AgentSpec("a2", 2)]
    inst = Instance(agents, [("r1", 3)])
    with pytest.raises(InvalidInstanceError):
        HomogeneousInstance(inst, UtilityModel(additive={"a1": {"r1": 1}, "a2": {"r1": 1}}))


def test_group_disagreement_rejected():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g1"})]
    inst = Instance(agents, [("r1", 2)], dimensions=("g",))
    with pytest.raises(InvalidInstanceError):
        HomogeneousInstance(
            inst, UtilityModel(additive={"a1": {"r1": 1}, "a2": {"r1": 2}})
        )


def test_greedy_hand_example():
    h = two_singletons()
    x, trace = greedy_fractional_ef(h)
    half = Fraction(1, 2)
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    assert x.values == {
        ("a1", b1): half,
        ("a2", b1): half,
        ("a1", b2): half,
        ("a2", b2): half,
    }
    # r1 saturates first at t=1/2, both agents finish at t=1
    assert (Fraction(1, 2), "resource", "r1") in trace.events
    assert trace.agent_times == {"a1": 1, "a2": 1}
    ef = check_fractional_ef(h, x)
    assert all(ok for ok, _ in ef.values())
    assert all(margin == 0 for _, margin in ef.values())  # equality


def test_greedy_single_agent():
    inst = Instance(
        [AgentSpec("s", 1, {"g": "g1"})], [("r1", 1)], binding={"s"}, dimensions=("g",)
    )
    h = HomogeneousInstance(inst, UtilityModel(additive={"s": {"r1": 3}}))
    x, trace = greedy_fractional_ef(h)
    assert x.values == {("s", Bundle.of({"r1": 1})): 1}
    assert trace.agent_times["s"] == 1


def test_greedy_symmetric_groups_equal_utilities():
    agents = [
        AgentSpec("a1", 1, {"g": "g1"}),
        AgentSpec("a2", 1, {"g": "g1"}),
        AgentSpec("b1", 1, {"g": "g2"}),
        AgentSpec("b2", 1, {"g": "g2"}),
    ]
    inst = Instance(
        agents, [("r1", 2), ("r2", 2)], binding={a.id for a in agents}, dimensions=("g",)
    )
    u = UtilityModel(additive={a.id: {"r1": 3, "r2": 1} for a in agents})
    h = HomogeneousInstance(inst, u)
    x, _ = greedy_fractional_ef(h)
    from nearfair.model import group_utilities

    g1, g2 = group_utilities(x, u, inst).values()
    assert g1 == g2


def test_check_fractional_ef_adversarial():
    h = two_singletons()
    everything = Allocation({("a1", Bundle.of({"r1": 1})): 1})
    ef = check_fractional_ef(h, everything)
    assert not ef[("g", "g2", "g1")][0]  # g2 envies g1's whole allocation
    assert ef[("g", "g1", "g2")][0]


def test_greedy_ef_property_random():
    rng = random.Random(23)
    for _ in range(30):
        h = random_homogeneous(rng)
        x, trace = greedy_fractional_ef(h)
        assert len(trace.events) <= len(h.instance.agents) + len(h.instance.resources)
        ef = check_fractional_ef(h, x)
        assert all(ok for ok, _ in ef.values())
        # the greedy stage may leave agents below one bundle, never above it
        unbound = replace(h.instance, binding=frozenset())
        assert x.check_allocation(unbound, capacities=True) == []


def test_ef_condition_arithmetic():
    h = two_singletons()
    assert ef_condition(h, (7,), 3) == 0  # 2*1/8 + 1/4 = 1/2
    assert ef_condition(h, (1,), 1) < 0


def test_ef_round_integral_passthrough():
    h = two_singletons()
    y0 = Allocation(
        {("a1", Bundle.of({"r1": 1})): 1, ("a2", Bundle.of({"r2": 1})): 1}
    )
    assert ef_round(h, y0, (7,), 3).values == y0.values


def test_ef_round_condition_violated():
    h = two_singletons()
    with pytest.raises(BudgetError):
        ef_round(h, Allocation({}), (1,), 1)


def test_ef_round_rejects_over_allocated_agent():
    agents = [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 2), ("r2", 2)], dimensions=("g",))
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 1}, "a2": {"r1": 2, "r2": 1}})
    h = HomogeneousInstance(inst, u)
    r1, r2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    over = Allocation(
        {("a1", r1): Fraction(3, 4), ("a1", r2): Fraction(3, 4), ("a2", r1): Fraction(1, 2)}
    )
    with pytest.raises(InvalidInstanceError, match="totals 3/2 > 1"):
        ef_round(h, over, (7,), 3)
    # a total below one, as the greedy stage can leave, is still accepted
    under = Allocation({("a1", r1): Fraction(1, 2), ("a2", r1): Fraction(1, 2)})
    assert ef_round(h, under, (7,), 3).integral


def test_ef_round_serves_binding_agents_the_greedy_point_leaves_below_one():
    # six binding agents of demand 2; the bundles that fit hold 5.5 of them
    groups = ("g0", "g1", "g0", "g0", "g0", "g1")
    agents = [AgentSpec(f"a{i}", 2, {"dim0": g}) for i, g in enumerate(groups)]
    ids = [a.id for a in agents]
    inst = Instance(agents, [("r0", 7), ("r1", 4), ("r2", 1)], binding=ids, dimensions=("dim0",))
    rows = {"g0": {"r0": 3, "r1": 3, "r2": 3}, "g1": {"r0": 3, "r1": 3, "r2": 0}}
    u = UtilityModel(additive={a.id: rows[a.groups["dim0"]] for a in agents})
    h = HomogeneousInstance(inst, u)
    x, _ = greedy_fractional_ef(h)
    # every agent eats 7/12 of {r0:2} and 1/3 of {r1:2}: 11/12 in total
    r0, r1 = Bundle.of({"r0": 2}), Bundle.of({"r1": 2})
    assert x.values == {
        **{(a, r0): Fraction(7, 12) for a in ids},
        **{(a, r1): Fraction(1, 3) for a in ids},
    }
    y = ef_round(h, x, (4,), 19)
    assert y.integral and y.check_allocation(inst, capacities=False) == []
    assert check_ef_deviation(h, y, (4,), 19)["ok"]
    assert all(e in x.values for e in y.values)


def test_ef_round_raises_when_no_bundle_fits_a_binding_agent():
    agents = [AgentSpec("a1", 2, {"g": "g1"}), AgentSpec("a2", 2, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1)], binding={"a1", "a2"}, dimensions=("g",))
    h = HomogeneousInstance(inst, UtilityModel(additive={"a1": {"r1": 1}, "a2": {"r1": 1}}))
    x, _ = greedy_fractional_ef(h)
    assert x.values == {}
    message = "greedy point left binding agents below one bundle"
    with pytest.raises(InfeasibleInstanceError, match=message) as info:
        ef_round(h, x, (7,), 7)
    for a in ("a1", "a2"):
        assert f"binding agent {a!r} totals 0 != 1" in str(info.value)


def test_ef_round_random_end_to_end():
    rng = random.Random(29)
    for _ in range(25):
        h = random_homogeneous(rng)
        alpha, delta = ef_budget(h)
        x, _ = greedy_fractional_ef(h)
        y = ef_round(h, x, alpha, delta)
        report = check_ef_deviation(h, y, alpha, delta)
        assert report["ok"], report
        assert y.check_allocation(h.instance, capacities=False) == []
        # rounding property
        for e, v in x.values.items():
            if v == 1:
                assert y.value(*e) == 1
        for e in y.values:
            assert e in x.values


def brute_scaled_envy(h, x):
    """|i|/|j| * U_i(x_j) - U_i(x_i) per ordered group pair, from the agent
    specs alone; U_i scores a bundle with the utility of i's first member."""
    inst = h.instance
    out = {}
    for dim in inst.dimensions:
        groups = sorted({a.groups[dim] for a in inst.agents})
        members = {g: sorted(a.id for a in inst.agents if a.groups[dim] == g) for g in groups}
        for i in groups:
            own = sum(
                (h.utilities.of(a, q) * v for (a, q), v in x.values.items() if a in members[i]),
                Fraction(0),
            )
            for j in groups:
                if j == i:
                    continue
                envied = sum(
                    (
                        h.utilities.of(members[i][0], q) * v
                        for (b, q), v in x.values.items()
                        if b in members[j]
                    ),
                    Fraction(0),
                )
                ratio = Fraction(len(members[i]), len(members[j]))
                out[(dim, i, j)] = ratio * envied - own
    return out


def test_scaled_envy_matches_brute_force_on_unequal_groups():
    """Both checkers report the scaled envy the definition gives, in markets
    with two dimensions whose groups differ in size."""
    rng = random.Random(41)
    markets = unequal = 0
    while markets < 8:
        h = random_homogeneous(rng)
        inst = h.instance
        if len(inst.dimensions) != 2:
            continue
        markets += 1
        alpha, delta = ef_budget(h)
        x, _ = greedy_fractional_ef(h)
        y = ef_round(h, x, alpha, delta)

        envy_x = brute_scaled_envy(h, x)
        assert check_fractional_ef(h, x) == {k: (e <= 0, -e) for k, e in envy_x.items()}

        envy_y = brute_scaled_envy(h, y)
        report = check_ef_deviation(h, y, alpha, delta)
        for (dim, i, j), (passed, envy, bound) in report["pairs"].items():
            best = max(
                h.utilities.of(a.id, q)
                for a in inst.agents
                if a.groups[dim] == i
                for q in enumerate_bundles(a.id, inst)
            )
            assert bound == alpha[inst.dimensions.index(dim)] * best
            assert (passed, envy) == (envy_y[(dim, i, j)] < bound, envy_y[(dim, i, j)])
        assert report["pairs"].keys() == envy_y.keys()
        sizes = {
            (dim, a.groups[dim]): sum(b.groups[dim] == a.groups[dim] for b in inst.agents)
            for dim in inst.dimensions
            for a in inst.agents
        }
        unequal += any(sizes[(d, i)] != sizes[(d, j)] for d, i, j in envy_x)
    assert unequal > markets // 2


def test_ef_deviation_boundary_strict():
    agents = [AgentSpec("a", 1, {"g": "g1"}), AgentSpec("b", 1, {"g": "g2"})]
    inst = Instance(agents, [("r1", 1), ("r2", 1)], binding={"a", "b"}, dimensions=("g",))
    u = UtilityModel(
        additive={"a": {"r1": 0, "r2": 1}, "b": {"r1": 0, "r2": 1}}
    )
    h = HomogeneousInstance(inst, u)
    y = Allocation({("a", Bundle.of({"r1": 1})): 1, ("b", Bundle.of({"r2": 1})): 1})
    report = check_ef_deviation(h, y, (1,), 2)
    passed, envy, bound = report["pairs"][("g", "g1", "g2")]
    assert envy == 1 == bound
    assert not passed  # exactly alpha * U* fails the strict bound


def test_greedy_trace_times_are_sane():
    rng = random.Random(97)
    for _ in range(10):
        h = random_homogeneous(rng)
        x, trace = greedy_fractional_ef(h)
        times = [t for t, _, _ in trace.events]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert all(0 < t <= 1 for t in times)
        assert all(t <= 1 for t in trace.agent_times.values())


def dense_uniform_instance(rng):
    """Uniform fractional split over unit bundles: every agent holds 1/m of
    each resource, so both groups carry enough fractional pairs to activate
    the pairwise envy rows from the first iteration."""
    n1, n2 = rng.randint(3, 5), rng.randint(3, 5)
    m = 4
    agents = [AgentSpec(f"a{i}", 1, {"g": "g1"}) for i in range(n1)]
    agents += [AgentSpec(f"b{i}", 1, {"g": "g2"}) for i in range(n2)]
    n = n1 + n2
    caps = [(f"r{j}", (n + m - 1) // m) for j in range(m)]
    inst = Instance(agents, caps, binding={a.id for a in agents}, dimensions=("g",))
    u1 = {f"r{j}": Fraction(rng.randint(1, 9)) for j in range(m)}
    u2 = {f"r{j}": Fraction(rng.randint(1, 9)) for j in range(m)}
    util = UtilityModel(
        additive={
            a.id: dict(u1 if a.groups["g"] == "g1" else u2) for a in agents
        }
    )
    h = HomogeneousInstance(inst, util)
    x = Allocation(
        {
            (a.id, Bundle.of({f"r{j}": 1})): Fraction(1, m)
            for a in agents
            for j in range(m)
        }
    )
    return h, x, min(n1, n2) * m


def test_ef_round_with_active_envy_rows():
    rng = random.Random(113)
    for _ in range(8):
        h, x, min_incidence = dense_uniform_instance(rng)
        assert min_incidence >= 8  # both groups exceed the alpha+1 threshold
        ef = check_fractional_ef(h, x)
        assert all(ok for ok, _ in ef.values())
        y = ef_round(h, x, (7,), 3)
        report = check_ef_deviation(h, y, (7,), 3)
        assert report["ok"], report
        # every agent of a homogeneous instance is binding
        assert y.check_allocation(h.instance, capacities=False) == []
