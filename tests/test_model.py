"""Model layer: bundles, utilities, validation."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfair.errors import InvalidInstanceError
from nearfair.model import (
    AgentSpec,
    Allocation,
    Bundle,
    Instance,
    UtilityModel,
    enumerate_bundles,
    group_utilities,
    pair_index,
    pair_universe,
)

from generators import fractional_allocation, random_instance


def inst_simple(caps=((("r1"), 2), ("r2", 1), ("r3", 3))):
    return Instance(
        agents=[AgentSpec("a1", 2), AgentSpec("a2", 1)],
        resources=list(caps),
        binding={"a1"},
    )


# -- enumerate_bundles -------------------------------------------------------


def test_unit_demand_bundles():
    inst = Instance(
        [AgentSpec("a", 1)], [("r1", 1), ("r2", 1)], binding={"a"},
        acceptability={("a", "r1"), ("a", "r2")},
    )
    assert [str(b) for b in enumerate_bundles("a", inst)] == ["{r1:1}", "{r2:1}"]


def test_forced_multiset():
    inst = Instance([AgentSpec("a", 2)], [("r1", 2)])
    assert [str(b) for b in enumerate_bundles("a", inst)] == ["{r1:2}"]


def test_pairs_count_matches_stars_and_bars():
    wide = Instance(
        [AgentSpec("a1", 2)], [("r1", 2), ("r2", 2), ("r3", 3)], binding={"a1"}
    )
    assert len(enumerate_bundles("a1", wide)) == 6  # C(4,2) multisets
    # capacity cap: r2 with capacity 1 loses its double
    capped = enumerate_bundles("a1", inst_simple())
    assert len(capped) == 5
    assert Bundle.of({"r2": 2}) not in capped


def test_bundle_order_stable():
    inst = inst_simple()
    assert enumerate_bundles("a1", inst) == enumerate_bundles("a1", inst)


def test_missing_agent_rejected():
    with pytest.raises(InvalidInstanceError):
        enumerate_bundles("ghost", inst_simple())


# -- group utility -----------------------------------------------------------


def one_group():
    inst = Instance(
        [AgentSpec("a1", 1, {"d": "g1"}), AgentSpec("a2", 1, {"d": "g1"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
        dimensions=("d",),
    )
    return inst, Bundle.of({"r1": 1})


def test_group_utility_examples():
    inst, b1 = one_group()
    u = UtilityModel(additive={"a1": {"r1": 2}, "a2": {"r1": 4}})
    empty = Allocation({})
    assert group_utilities(empty, u, inst) == {("d", "g1"): 0}
    one = Allocation({("a1", b1): 1})
    assert group_utilities(one, u, inst) == {("d", "g1"): 2}
    half = Allocation({("a1", b1): Fraction(1, 2), ("a2", b1): Fraction(1, 2)})
    # hand sum: 2/2 + 4/2
    assert group_utilities(half, u, inst) == {("d", "g1"): 3}


@settings(max_examples=60, deadline=None)
@given(
    lam=st.fractions(min_value=0, max_value=1),
    u1=st.integers(0, 9),
    u2=st.integers(0, 9),
    x1=st.fractions(min_value=0, max_value=1),
    y1=st.fractions(min_value=0, max_value=1),
)
def test_group_utility_linear(lam, u1, u2, x1, y1):
    inst, b1 = one_group()
    b2 = Bundle.of({"r2": 1})
    u = UtilityModel(additive={"a1": {"r1": u1}, "a2": {"r1": u2}})
    x = Allocation({("a1", b1): x1, ("a2", b2): 1 - x1})
    y = Allocation({("a1", b1): y1, ("a2", b1): 1 - y1})
    mix = Allocation(
        {
            e: lam * x.value(*e) + (1 - lam) * y.value(*e)
            for e in set(x.values) | set(y.values)
        }
    )
    gx, gy, gmix = (group_utilities(z, u, inst)[("d", "g1")] for z in (x, y, mix))
    assert gmix == lam * gx + (1 - lam) * gy


# -- validation --------------------------------------------------------------


def test_zero_capacity_rejected():
    with pytest.raises(InvalidInstanceError):
        Instance([AgentSpec("a", 1)], [("r1", 0)])


def test_zero_demand_rejected():
    with pytest.raises(InvalidInstanceError):
        Instance([AgentSpec("a", 0)], [("r1", 1)])


def test_unknown_binding_rejected():
    with pytest.raises(InvalidInstanceError):
        Instance([AgentSpec("a", 1)], [("r1", 1)], binding={"ghost"})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_violations_rejected(data):
    kind = data.draw(st.sampled_from(["capacity", "demand"]))
    if kind == "capacity":
        cap = data.draw(st.integers(-3, 0))
        with pytest.raises(InvalidInstanceError):
            Instance([AgentSpec("a", 1)], [("r1", cap)])
    else:
        dem = data.draw(st.integers(-3, 0))
        with pytest.raises(InvalidInstanceError):
            Instance([AgentSpec("a", dem)], [("r1", 1)])


def test_allocation_checks():
    inst = inst_simple()
    b = Bundle.of({"r1": 1, "r2": 1})
    good = Allocation({("a1", b): 1})
    assert good.check_allocation(inst) == []
    # binding agent must total exactly one
    assert Allocation({}).check_allocation(inst)
    over = Allocation({("a1", b): 1, ("a2", Bundle.of({"r2": 1})): 1})
    assert any("capacity" in p for p in over.check_allocation(inst))
    assert over.check_allocation(inst, capacities=False) == []


def test_allocation_checks_acceptability():
    inst = Instance(
        [AgentSpec("a", 2), AgentSpec("b")],
        [("r1", 2), ("r2", 1)],
        acceptability={("a", "r1"), ("b", "r1"), ("b", "r2")},
    )
    fine = Allocation({("a", Bundle.of({"r1": 2})): 1, ("b", Bundle.of({"r2": 1})): 1})
    assert fine.check_allocation(inst) == []
    mixed = Allocation({("a", Bundle.of({"r1": 1, "r2": 1})): Fraction(1, 2)})
    assert mixed.check_allocation(inst, capacities=False) == [
        "agent 'a' does not accept 'r2' in bundle {r1:1,r2:1}"
    ]
    # without an acceptability set every resource is acceptable
    assert mixed.check_allocation(replace(inst, acceptability=None)) == []


def test_negative_utilities_rejected():
    with pytest.raises(InvalidInstanceError):
        UtilityModel(additive={"a": {"r1": Fraction(-1)}})


def test_group_max():
    inst = inst_simple()
    inst2 = Instance(
        [AgentSpec("a1", 2, {"d": "g"}), AgentSpec("a2", 1, {"d": "g"})],
        [("r1", 2), ("r2", 1), ("r3", 3)],
        binding={"a1"},
        dimensions=("d",),
    )
    u = UtilityModel(additive={"a1": {"r1": 1, "r3": 4}, "a2": {"r1": 9}})
    # best bundle for a1 is {r3:2} worth 8, a2 single r1 worth 9
    assert u.group_maxima(inst2) == {("d", "g"): 9}


def test_explicit_bundle_utilities():
    inst = Instance(
        [AgentSpec("a", 2, {"d": "g"})],
        [("r1", 2), ("r2", 2)],
        binding={"a"},
        dimensions=("d",),
    )
    b11 = Bundle.of({"r1": 2})
    b12 = Bundle.of({"r1": 1, "r2": 1})
    b22 = Bundle.of({"r2": 2})
    u = UtilityModel(
        explicit={("a", b11): Fraction(1), ("a", b12): Fraction(5), ("a", b22): Fraction(2)}
    )
    assert u.of("a", b12) == 5
    assert u.group_maxima(inst) == {("d", "g"): 5}  # complementarities, not additive
    with pytest.raises(InvalidInstanceError):
        u.of("a", Bundle.of({"r1": 1}))  # undefined pair


# -- closed-form best bundle and one-pass loads -------------------------------


def enumerated_best(u, inst, agent_id):
    best = Fraction(0)
    for q in enumerate_bundles(agent_id, inst):
        best = max(best, u.of(agent_id, q))
    return best


def test_best_fills_demand_from_the_top():
    inst = Instance(
        [AgentSpec("a", 3, {"d": "g"}), AgentSpec("b", 3, {"d": "g"})],
        [("r1", 2), ("r2", 1), ("r3", 3)],
        dimensions=("d",),
        acceptability={("a", "r1"), ("a", "r2"), ("b", "r1")},
    )
    u = UtilityModel(additive={"a": {"r1": 5, "r2": 1, "r3": 9}, "b": {"r1": 7}})
    # r3 is not acceptable to a: two units of r1 and one of r2
    assert u.best(inst, "a") == 11 == enumerated_best(u, inst, "a")
    # b's only resource holds two units of a three-unit demand: no bundle
    assert enumerate_bundles("b", inst) == []
    assert u.best(inst, "b") == 0
    assert u.group_maxima(inst) == {("d", "g"): 11}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_best_and_group_max_match_enumeration(data):
    m = data.draw(st.integers(1, 4))
    resources = [(f"r{j}", data.draw(st.integers(1, 3))) for j in range(m)]
    n = data.draw(st.integers(1, 3))
    agents = [
        AgentSpec(f"a{i}", data.draw(st.integers(1, 4)), {"d": data.draw(st.sampled_from("gh"))})
        for i in range(n)
    ]
    pairs = [(a.id, r) for a in agents for r, _ in resources]
    acceptability = data.draw(st.none() | st.sets(st.sampled_from(pairs)))
    inst = Instance(agents, resources, dimensions=("d",), acceptability=acceptability)
    if data.draw(st.booleans()):
        # missing rows, missing entries and zeros all read as utility 0
        value = st.none() | st.just(0) | st.fractions(min_value=0, max_value=9, max_denominator=4)
        table = {}
        for a in agents:
            if data.draw(st.booleans()):
                row = {r: data.draw(value) for r, _ in resources}
                table[a.id] = {r: v for r, v in row.items() if v is not None}
        u = UtilityModel(additive=table)
    else:
        value = st.fractions(min_value=0, max_value=9, max_denominator=4)
        u = UtilityModel(
            explicit={
                (a.id, q): data.draw(value)
                for a in agents
                for q in enumerate_bundles(a.id, inst)
            }
        )
    for a in agents:
        assert u.best(inst, a.id) == enumerated_best(u, inst, a.id)
    for g in inst.groups_in("d"):
        members = inst.group_members("d", g)
        assert u.group_maxima(inst)[("d", g)] == max(enumerated_best(u, inst, a) for a in members)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loads_match_per_resource_sums(data):
    inst = Instance(
        [AgentSpec("a1", 2), AgentSpec("a2", 1), AgentSpec("a3", 3)],
        [("r1", 2), ("r2", 1), ("r3", 3), ("r4", 1)],
    )
    universe = [(a.id, q) for a in inst.agents for q in enumerate_bundles(a.id, inst)]
    chosen = data.draw(st.lists(st.sampled_from(universe), unique=True))
    y = Allocation(
        {e: data.draw(st.fractions(min_value=0, max_value=1, max_denominator=6)) for e in chosen}
    )
    loads = y.loads()
    for r, _ in inst.resources:
        expected = sum(
            (q.multiplicity(r) * v for (_, q), v in y.values.items()), Fraction(0)
        )
        assert loads.get(r, Fraction(0)) == expected == y.resource_usage(r)
    assert set(loads) <= set(inst.resource_ids())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pair_index_matches_per_agent_and_per_resource_scans(data):
    inst = Instance(
        [AgentSpec("a1", 2), AgentSpec("a2", 1), AgentSpec("a3", 3)],
        [("r1", 2), ("r2", 1), ("r3", 3), ("r4", 1)],
    )
    universe = pair_universe(inst)
    pairs = data.draw(st.lists(st.sampled_from(universe), unique=True))
    by_agent, by_resource = pair_index(pairs)
    agents = list(dict.fromkeys(a for a, _ in pairs))
    assert list(by_agent) == agents
    for a in agents:
        assert by_agent[a] == [e for e in pairs if e[0] == a]
    for r, _ in inst.resources:
        scan = [(e, e[1].multiplicity(r)) for e in pairs if e[1].multiplicity(r)]
        assert list(by_resource.get(r, {}).items()) == scan
    assert set(by_resource) <= set(inst.resource_ids())


def test_verify_needs_no_bundle_enumeration_for_additive_utilities(monkeypatch):
    from nearfair import model
    from nearfair.rounding import iterative_round, verify_approximation
    from generators import fractional_allocation, minimal_budget, random_instance

    rng = random.Random(3)
    checked = 0
    while checked < 4:
        inst, u = random_instance(rng, max_agents=6, max_resources=4)
        x = fractional_allocation(rng, inst)
        if x is None or not inst.dimensions:
            continue
        budget = minimal_budget(inst, x)
        y, cert = iterative_round(inst, x, u, budget)
        with monkeypatch.context() as patch:

            def no_enumeration(*args):
                raise AssertionError("verification enumerated bundles")

            patch.setattr(model, "enumerate_bundles", no_enumeration)
            again = verify_approximation(inst, x, y, u, budget)
        assert again.ok()
        assert again.group_deviations == cert.group_deviations
        assert again.resource_deviations == cert.resource_deviations
        checked += 1


def test_group_utilities_and_maxima_match_per_group_sums():
    """The one-pass group tables equal a direct sum over each group's
    members; an agent outside the instance counts for no group."""
    rng = random.Random(73)
    checked = 0
    while checked < 25:
        inst, u = random_instance(rng, max_dims=3)
        x = fractional_allocation(rng, inst)
        if x is None:
            continue
        stray = Allocation({**x.values, ("stranger", Bundle.of({"r0": 1})): Fraction(1, 2)})
        keys = inst.group_keys()
        members = {key: inst.group_members(*key) for key in keys}
        assert group_utilities(stray, u, inst) == {
            key: sum((u.of(a, q) * v for (a, q), v in x.values.items() if a in members[key]), Fraction(0))
            for key in keys
        }
        assert list(group_utilities(stray, u, inst)) == keys
        assert u.group_maxima(inst) == {
            key: max((u.best(inst, a) for a in members[key]), default=Fraction(0))
            for key in keys
        }
        checked += 1
