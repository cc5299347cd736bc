"""Differential tests: the market model's integer sums against naive
``Fraction`` references.

Utilities, loads, masses, allocation totals, group utilities, scaled envy
and the rounder's row right-hand sides are summed as integer numerators
over one common denominator.  Each is compared here with the plain
``Fraction`` sum it replaces, on values with pairwise coprime denominators,
numerators of 10^12 and more, and integral and empty allocations.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from nearfair import envyfree, model, rounding
from nearfair.envyfree import (
    HomogeneousInstance,
    _scaled_envy,
    check_ef_deviation,
    ef_round,
    greedy_fractional_ef,
)
from nearfair.exactlp import VertexSolution, feasible_vertex, solve_vertex
from nearfair.model import (
    AgentSpec,
    Allocation,
    Bundle,
    Instance,
    UtilityModel,
    group_utilities,
    pair_universe,
)
from nearfair.rationals import over_lcm
from nearfair.rounding import _utility_rows, iterative_round, verify_approximation

from generators import coefficients, ef_budget, minimal_budget, random_homogeneous, rational_lp

ZERO = Fraction(0)
# pairwise coprime: small primes, primes around 10^12, and a Mersenne prime
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 999_999_999_989, 1_000_000_000_039, 2**61 - 1)

utility_values = st.builds(
    Fraction,
    st.one_of(st.integers(0, 20), st.integers(10**12, 10**15)),
    st.sampled_from(DENOMINATORS),
)
unit_values = st.sampled_from(DENOMINATORS).flatmap(
    lambda q: st.integers(0, q).map(lambda k: Fraction(k, q))
)


@st.composite
def markets(draw):
    """A small market with 0-2 dimensions, some agents ungrouped, and an
    acceptability set or none."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    dims = ("d0", "d1")[: draw(st.integers(0, 2))]
    agents = []
    for i in range(n):
        groups = {d: draw(st.sampled_from(("g0", "g1"))) for d in dims if draw(st.booleans())}
        agents.append(AgentSpec(f"a{i}", draw(st.integers(1, 2)), groups))
    resources = [(f"r{j}", draw(st.integers(1, 3))) for j in range(m)]
    ids = [a.id for a in agents]
    binding = draw(st.sets(st.sampled_from(ids)))
    everything = [(a, r) for a in ids for r, _ in resources]
    acceptability = draw(st.none() | st.sets(st.sampled_from(everything), min_size=1))
    return Instance(agents, resources, binding, dims, acceptability)


@st.composite
def utility_models(draw, inst):
    """Additive or explicit utilities over every pair, acceptable or not."""
    pairs = pair_universe(replace(inst, acceptability=None))
    if draw(st.booleans()):
        rows = {
            a.id: {r: draw(utility_values) for r, _ in inst.resources if draw(st.booleans())}
            for a in inst.agents
            if draw(st.booleans())
        }
        return UtilityModel(additive=rows), pairs
    return UtilityModel(explicit={e: draw(utility_values) for e in pairs}), pairs


@st.composite
def allocations(draw, pairs, strangers=()):
    """Fractional, integral or empty values over some of ``pairs``."""
    chosen = draw(st.lists(st.sampled_from(list(pairs) + list(strangers)), unique=True))
    kind = draw(st.sampled_from(("fractional", "integral", "empty")))
    if kind == "empty":
        return Allocation({})
    if kind == "integral":
        return Allocation(dict.fromkeys(chosen, 1))
    return Allocation({e: draw(unit_values) for e in chosen})


STRANGER = ("stranger", Bundle.of({"r0": 1}))


def ref_utility(u: UtilityModel, a: str, q: Bundle) -> Fraction:
    if u.additive is not None:
        row = u.additive.get(a, {})
        return sum((m * row.get(r, ZERO) for r, m in q.items), ZERO)
    return u.explicit[(a, q)]


def ref_problems(x: Allocation, inst: Instance, capacities: bool) -> list[str]:
    """``check_allocation`` summed in Fractions."""
    problems = []
    totals = {a.id: ZERO for a in inst.agents}
    for (a, q), v in x.values.items():
        if a not in totals:
            problems.append(f"unknown agent {a!r} in support")
            continue
        if q.size != inst.agent(a).demand:
            problems.append(f"bundle {q} has size {q.size} != demand of {a!r}")
        if inst.acceptability is not None:
            refused = [repr(r) for r in q.resources() if (a, r) not in inst.acceptability]
            if refused:
                problems.append(f"agent {a!r} does not accept {', '.join(refused)} in bundle {q}")
        totals[a] += v
    for a in inst.agents:
        if a.id in inst.binding:
            if totals[a.id] != 1:
                problems.append(f"binding agent {a.id!r} totals {totals[a.id]} != 1")
        elif totals[a.id] > 1:
            problems.append(f"agent {a.id!r} totals {totals[a.id]} > 1")
    if capacities:
        for r, c in inst.resources:
            used = sum((q.multiplicity(r) * v for (_, q), v in x.values.items()), ZERO)
            if used > c:
                problems.append(f"resource {r!r} used {used} > capacity {c}")
    return problems


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_utilities_match_fraction_sums(data):
    inst = data.draw(markets())
    u, pairs = data.draw(utility_models(inst))
    for a, q in data.draw(st.permutations(pairs)):
        ref = ref_utility(u, a, q)
        assert u.of(a, q) == ref
        assert Fraction(u.numerator(a, q), u.den) == ref
    for a in inst.agents:
        own = [q for b, q in pair_universe(inst) if b == a.id]
        assert u.best(inst, a.id) == max((ref_utility(u, a.id, q) for q in own), default=ZERO)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_models_over_the_same_pairs_keep_their_own_values(data):
    inst = data.draw(markets())
    pairs = pair_universe(replace(inst, acceptability=None))
    first = {e: data.draw(utility_values) for e in pairs}
    second = {e: data.draw(utility_values.filter(lambda v, e=e: v != first[e])) for e in pairs}
    u, w = UtilityModel(explicit=first), UtilityModel(explicit=second)
    for e in data.draw(st.permutations(pairs + pairs)):
        model, table = data.draw(st.sampled_from(((u, first), (w, second))))
        assert model.of(*e) == table[e]
        assert Fraction(model.numerator(*e), model.den) == table[e]
    assert all(u.of(*e) != w.of(*e) for e in pairs)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loads_mass_and_allocation_totals_match_fraction_sums(data):
    inst = data.draw(markets())
    pairs = pair_universe(replace(inst, acceptability=None))
    wrong_size = [(a.id, Bundle.of({r: a.demand + 1})) for a in inst.agents for r, _ in inst.resources]
    x = data.draw(allocations(pairs, [STRANGER] + wrong_size[:2]))
    nums, den = x.nums, x.den
    assert {e: Fraction(n, den) for e, n in nums.items()} == x.values
    assert den == math.lcm(*(v.denominator for v in x.values.values()))
    assert (list(nums.values()), den) == over_lcm(v.as_integer_ratio() for v in x.values.values())
    assert list(nums) == list(x.values)
    assert x.integral == all(v == 1 for v in x.values.values())
    assert x.fractional_pairs() == sorted(e for e, v in x.values.items() if 0 < v < 1)
    split = [a for (a, _), v in x.values.items() if 0 < v < 1]
    assert x.fractional_agents() == {a for a in split if split.count(a) >= 2}
    loads = x.loads()
    for r in {r for (_, q) in x.values for r in q.resources()}:
        ref = sum((q.multiplicity(r) * v for (_, q), v in x.values.items()), ZERO)
        assert loads[r] == ref
    assert set(loads) == {r for (_, q) in x.values for r in q.resources()}
    known = Allocation({e: v for e, v in x.values.items() if e[0] != "stranger"})
    mass = known.mass(inst)
    assert mass == sum((inst.agent(a).demand * v for (a, _), v in known.values.items()), ZERO)
    # the sums run on integers, and what they hand out is exact rationals
    assert {type(v) for v in [mass, *loads.values()]} == {Fraction}
    for capacities in (True, False):
        assert x.check_allocation(inst, capacities=capacities) == ref_problems(x, inst, capacities)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_group_utilities_match_fraction_sums(data):
    inst = data.draw(markets())
    u, pairs = data.draw(utility_models(inst))
    x = data.draw(allocations(pairs, [STRANGER]))
    members = {key: inst.group_members(*key) for key in inst.group_keys()}
    got = group_utilities(x, u, inst)
    assert list(got) == inst.group_keys()
    assert all(type(v) is Fraction for v in got.values())
    assert got == {
        key: sum((ref_utility(u, a, q) * v for (a, q), v in x.values.items() if a in mem), ZERO)
        for key, mem in members.items()
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scaled_envy_matches_fraction_sums(data):
    """One dimension of two or three groups, utilities constant inside each
    group; the point need not be an allocation."""
    k = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(k, 5))
    demand = data.draw(st.integers(1, 2))
    group_of = [f"g{i % k}" for i in range(n)]
    agents = [AgentSpec(f"a{i}", demand, {"d": group_of[i]}) for i in range(n)]
    inst = Instance(agents, [("r0", 2), ("r1", 1)], dimensions=("d",))
    rows = {f"g{g}": {r: data.draw(utility_values) for r in ("r0", "r1")} for g in range(k)}
    u = UtilityModel(additive={a.id: rows[a.groups["d"]] for a in agents})
    h = HomogeneousInstance(inst, u)
    x = data.draw(allocations(pair_universe(inst)))
    got = _scaled_envy(h, x)
    for (dim, i, j), envy in got.items():
        mem_i, mem_j = inst.group_members(dim, i), inst.group_members(dim, j)
        rep = min(mem_i)
        own = sum((ref_utility(u, a, q) * v for (a, q), v in x.values.items() if a in mem_i), ZERO)
        envied = sum((ref_utility(u, rep, q) * v for (a, q), v in x.values.items() if a in mem_j), ZERO)
        assert envy == Fraction(len(mem_i), len(mem_j)) * envied - own
    assert len(got) == k * (k - 1)


@pytest.mark.parametrize("seed", range(4))
def test_certificates_read_each_allocation_once(monkeypatch, seed):
    """An allocation holds its integer form from construction on: the
    certificates and the group sums over built allocations derive no
    common denominator again."""
    h = random_homogeneous(random.Random(seed))
    inst, u = h.instance, h.utilities
    alpha, delta = ef_budget(h)
    x, _ = greedy_fractional_ef(h)
    y = ef_round(h, x, alpha, delta)
    budget = minimal_budget(inst, x)
    calls = []
    monkeypatch.setattr(model, "over_lcm", lambda ratios: calls.append(ratios) or over_lcm(ratios))
    verify_approximation(inst, x, y, u, budget)
    check_ef_deviation(h, y, alpha, delta)
    group_utilities(x, u, inst)
    assert calls == []


def rows_hold_at_the_current_point(monkeypatch, module, x: Allocation):
    """Swap the rounder's solver for one that first checks every row of the
    LP at the point the rounder holds, summed in Fractions: equality rows
    (agents, groups, resources, the total) exactly, the others by their
    relation.  Returns the list of LPs checked."""
    current = {f"y[{a},{q}]": v for (a, q), v in x.values.items()}
    checked = []

    def solve(lp):
        point = [current[var.name] for var in lp.variables]
        for c in lp.constraints:
            lhs = sum((v * point[j] for j, v in coefficients(c.row).items()), ZERO)
            assert {"=": lhs == c.rhs, "<=": lhs <= c.rhs, ">=": lhs >= c.rhs}[c.rel], (lhs, c)
        sol = feasible_vertex(lp)
        nums, den = sol.scaled
        assert [Fraction(n, den) for n in nums] == sol.values
        for var, v in zip(lp.variables, sol.values):
            current[var.name] = v
        checked.append(lp)
        return sol

    monkeypatch.setattr(module, "feasible_vertex", solve)
    return checked


@st.composite
def split_markets(draw):
    """Most agents hold two single-resource bundles at a prime denominator,
    a binding agent one unit between them, any other less (so the total row
    can be active); the rest hold one bundle at one.  Groups in one or two
    dimensions; additive utilities at numerators of 10^12 and more."""
    n = draw(st.integers(3, 7))
    m = draw(st.integers(2, 4))
    d = draw(st.integers(1, 2))
    dims = tuple(f"d{i}" for i in range(d))
    agents = [
        AgentSpec(f"a{i}", 1, {dim: draw(st.sampled_from(("g0", "g1"))) for dim in dims})
        for i in range(n)
    ]
    resources = [(f"r{j}", n) for j in range(m)]
    binding = {a.id for a in agents if draw(st.booleans())}
    inst = Instance(agents, resources, binding, dims)
    u = UtilityModel(
        additive={a.id: {r: draw(utility_values) for r, _ in resources} for a in agents}
    )
    values = {}
    for a in agents:
        r, s = draw(st.lists(st.sampled_from([r for r, _ in resources]), min_size=2, max_size=2, unique=True))
        if draw(st.integers(0, 3)) == 0:  # an entry at one, which the rounder keeps
            values[(a.id, Bundle.of({r: 1}))] = Fraction(1)
            continue
        q = draw(st.sampled_from(DENOMINATORS[1:]))
        first = Fraction(draw(st.integers(1, q - 1)), q)
        values[(a.id, Bundle.of({r: 1}))] = first
        values[(a.id, Bundle.of({s: 1}))] = (1 - first) / (1 if a.id in binding else 2)
    return inst, u, Allocation(values)


@settings(max_examples=30, deadline=None)
@given(market=split_markets())
def test_rounder_rows_match_fraction_sums(market):
    inst, u, x = market
    with pytest.MonkeyPatch.context() as patch:
        checked = rows_hold_at_the_current_point(patch, rounding, x)
        y, cert = iterative_round(inst, x, u, minimal_budget(inst, x))
    assert cert.ok() and len(checked) == cert.iterations
    event(f"total row active: {any(state.chi for state in cert.trace)}")
    # the first LP's group rows carry the point's own group utilities on F
    F = sorted(e for e, v in x.values.items() if v < 1)
    by_agent = {}
    for e in F:
        by_agent.setdefault(e[0], []).append(e)
    members = {key: tuple(sorted(inst.group_members(*key))) for key in inst.group_keys()}
    nums, den = x.nums, x.den
    for key, (_, coeffs, rhs) in zip(members, _utility_rows(u)(members, list(members), by_agent, nums, den)):
        assert coeffs == {e: ref_utility(u, *e) for a in members[key] for e in by_agent.get(a, ())}
        assert rhs == sum((ref_utility(u, *e) * x.values[e] for e in coeffs), ZERO)


@pytest.mark.parametrize("seed", range(8))
def test_envy_rows_match_fraction_sums(seed):
    """With all groups active, each ordered pair of groups of a dimension
    has exactly one envy row, and that row, read at the greedy point,
    leaves the pair's scaled envy, summed in Fractions: its left-hand side
    over F minus its right-hand side (the entries at one) is minus it."""
    h = random_homogeneous(random.Random(seed))
    inst, u = h.instance, h.utilities
    x, _ = greedy_fractional_ef(h)
    F = sorted(e for e, v in x.values.items() if v < 1)
    by_agent = {}
    for e in F:
        by_agent.setdefault(e[0], []).append(e)
    keys = inst.group_keys()
    members = {key: tuple(sorted(inst.group_members(*key))) for key in keys}
    nums, den = x.nums, x.den
    rows = envyfree._envy_rows(h)(members, keys, by_agent, nums, den)
    pairs = {(dim, i, j) for dim, i in keys for d, j in keys if d == dim and j != i}
    assert sorted(key for key, _, _ in rows) == sorted(pairs)
    for (dim, gi, gj), coeffs, rhs in rows:
        mem_i, mem_j = members[(dim, gi)], members[(dim, gj)]
        rep = mem_i[0]
        own = sum((ref_utility(u, rep, q) * v for (a, q), v in x.values.items() if a in mem_i), ZERO)
        envied = sum((ref_utility(u, rep, q) * v for (a, q), v in x.values.items() if a in mem_j), ZERO)
        lhs = sum((c * x.values[e] for e, c in coeffs.items()), ZERO)
        assert lhs - rhs == own - Fraction(len(mem_i), len(mem_j)) * envied


def test_vertex_solution_hands_over_its_common_denominator():
    rng = random.Random(29)
    solved = 0
    for _ in range(120):
        sol = solve_vertex(rational_lp(rng))
        if not sol.optimal:
            continue
        nums, den = sol.scaled
        assert (nums, den) == over_lcm(v.as_integer_ratio() for v in sol.values)
        assert [Fraction(n, den) for n in nums] == sol.values
        solved += 1
    assert solved > 20
    # a hand-built answer reads its denominator from its values
    assert VertexSolution("optimal", [Fraction(1, 2), Fraction(2, 3), 1]).scaled == ([3, 4, 6], 6)
