"""Budget calculus and the iterative rounder."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfair import apportionment, couples, envyfree, fairness, rounding
from nearfair.apportionment import MAInstance, SignpostMethod, approx_apportionment
from nearfair.couples import CouplesInstance, fair_stable_allocation
from nearfair.envyfree import HomogeneousInstance, ef_round
from nearfair.errors import BudgetError, InvalidInstanceError, InvariantViolation
from nearfair.exactlp import VertexSolution
from nearfair.fairness import FairObjective, approx_fair_allocation, gen_lower_bound_instance
from nearfair.model import AgentSpec, Allocation, Bundle, Instance, UtilityModel
from nearfair.oracle import best_deviation
from nearfair.rounding import (
    CONDITIONS,
    Certificate,
    DeviationBudget,
    check_condition,
    forced_psi,
    iterative_round,
    min_Delta,
    verify_approximation,
)

from generators import fractional_allocation, minimal_budget, random_instance


# -- condition arithmetic ----------------------------------------------------


def test_condition_tight():
    b = DeviationBudget((3,), 3, None, 1, 1)
    assert check_condition(b) == 0


def test_condition_fails():
    b = DeviationBudget((1, 1, 1), 7, None, 0, 1)
    assert check_condition(b) == 1 - (Fraction(3, 2) + Fraction(1, 8))
    assert check_condition(b) < 0


def test_condition_slack():
    b = DeviationBudget((3, 3, 3), 7, None, 0, 1)
    assert check_condition(b) == Fraction(1, 8)


def test_min_delta_psi1():
    assert min_Delta(DeviationBudget((3,), 3, None, 1, 1)) == 2


def test_min_delta_psi0():
    assert min_Delta(DeviationBudget((3, 3, 3), 7, None, 0, 1)) == 7


def test_min_delta_tight_psi0_rejected():
    # psi=0 with zero slack has no admissible total budget
    b = DeviationBudget((3, 3, 3), 3, None, 0, 1)
    assert check_condition(b) == 0
    with pytest.raises(BudgetError):
        min_Delta(b)


def test_couples_budget_recovers_two():
    # with no dimensions and demand 2, the smallest budget is delta=Delta=2
    b = DeviationBudget((), 3, None, 1, 2)
    assert check_condition(b) >= 0
    assert min_Delta(b) == 2


# -- the rounder --------------------------------------------------------------


def matching_setup():
    inst = Instance(
        [AgentSpec("a1", 1), AgentSpec("a2", 1)],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
    )
    u = UtilityModel(
        additive={"a1": {"r1": 1, "r2": 1}, "a2": {"r1": 1, "r2": 1}}
    )
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    x = Allocation(
        {
            ("a1", b1): Fraction(1, 2),
            ("a1", b2): Fraction(1, 2),
            ("a2", b1): Fraction(1, 2),
            ("a2", b2): Fraction(1, 2),
        }
    )
    return inst, u, x


def test_integral_input_is_identity():
    inst, u, _ = matching_setup()
    x = Allocation({("a1", Bundle.of({"r1": 1})): 1})
    y, cert = iterative_round(
        Instance(inst.agents, inst.resources, binding={"a1"}),
        x, u, DeviationBudget((), 2, 2, 1, 1),
    )
    assert y.values == x.values
    assert cert.iterations == 0
    assert all(d == 0 for d, _ in cert.resource_deviations.values())


def test_half_matching_rounds_to_perfect_matching():
    inst, u, x = matching_setup()
    # delta=1 activates both resource-conservation rows, forcing a matching
    y, cert = iterative_round(inst, x, u, DeviationBudget((), 1, 2, 1, 1))
    assert sorted(q.resources()[0] for _, q in y.values) == ["r1", "r2"]
    assert all(d == 0 for d, _ in cert.resource_deviations.values())
    assert cert.total_deviation[0] == 0
    # the oracle agrees a zero-deviation rounding exists
    assert (0, 0, 0) in best_deviation(inst, x, u)


@pytest.mark.parametrize("family", ["utility rows", "envy rows"])
def test_no_progress_guard(monkeypatch, family):
    inst, u, x = matching_setup()
    held = {f"y[{a},{q}]": v for (a, q), v in x.values.items()}

    def stuck(lp):
        """A solver that hands back the point the rounder already holds."""
        return VertexSolution("optimal", [held[v.name] for v in lp.variables])

    if family == "utility rows":
        monkeypatch.setattr(rounding, "feasible_vertex", stuck)
        with pytest.raises(InvariantViolation, match="no progress"):
            iterative_round(inst, x, u, DeviationBudget((), 1, 2, 1, 1))
    else:
        monkeypatch.setattr(envyfree, "feasible_vertex", stuck)
        with pytest.raises(InvariantViolation, match="no progress"):
            ef_round(HomogeneousInstance(inst, u), x, (), 1)


def test_half_matching_budget_delta2_still_verifies():
    inst, u, x = matching_setup()
    y, cert = iterative_round(inst, x, u, DeviationBudget((), 2, 2, 1, 1))
    assert cert.ok()
    for dev, bound in cert.resource_deviations.values():
        assert dev < bound


def test_rounding_property_and_count_bound_on_random_instances():
    rng = random.Random(42)
    done = 0
    while done < 25:
        inst, utilities = random_instance(rng)
        x = fractional_allocation(rng, inst)
        if x is None:
            continue
        budget = minimal_budget(inst, x)
        y, cert = iterative_round(inst, x, utilities, budget)
        assert cert.ok()
        # rounding property
        for e, v in x.values.items():
            if v == 1:
                assert y.value(*e) == 1
        for e in y.values:
            assert e in x.values
        # binding agents exactly one, the others at most one
        assert y.check_allocation(inst, capacities=False) == []
        # per-iteration constraint-count bound from the trace
        for state in cert.trace:
            assert state.constraints <= state.fractional
        # progress: fractional count non-increasing, strictly at ties of measure
        fracs = [s.fractional for s in cert.trace]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        # weighted mass conserved while the chi row is active
        for s1, s2 in zip(cert.trace, cert.trace[1:]):
            if s1.chi:
                assert s1.weighted_mass == s2.weighted_mass
        done += 1


def test_verify_boundary_is_strict():
    inst = Instance(
        [AgentSpec("a1", 1, {"d": "g"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1"},
        dimensions=("d",),
    )
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 0}})
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    x = Allocation({("a1", b1): Fraction(1, 2), ("a1", b2): Fraction(1, 2)})
    y = Allocation({("a1", b1): 1})
    # group deviation is exactly 1 = alpha * U* with alpha=?  U*=2, dev=1
    cert = verify_approximation(inst, x, y, u, DeviationBudget((1,), 2, 2, 1, 1))
    # bound alpha*U* = 2 > 1: passes
    assert cert.ok()
    # craft exact boundary: alpha*U* = dev -> fail
    u2 = UtilityModel(additive={"a1": {"r1": 1, "r2": 0}})
    cert2 = verify_approximation(
        inst, x, y, u2, DeviationBudget((1,), 2, 2, 1, 1)
    )
    dev, bound = cert2.group_deviations[("d", "g")]
    assert dev == Fraction(1, 2) and bound == 1
    y_dev = Allocation({("a1", b2): 1})
    cert3 = verify_approximation(
        inst,
        Allocation({("a1", b1): 1}),
        y_dev,
        u2,
        DeviationBudget((1,), 2, 2, 1, 1),
    )
    dev3, bound3 = cert3.group_deviations[("d", "g")]
    assert dev3 == 1 == bound3
    assert not cert3.ok()  # exact boundary fails strictly


def test_verify_zero_deviation_is_within_a_zero_budget():
    inst = Instance(
        [AgentSpec("a1", 1, {"d": "g"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1"},
        dimensions=("d",),
    )
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    x = Allocation({("a1", b1): Fraction(1, 2), ("a1", b2): Fraction(1, 2)})
    y = Allocation({("a1", b1): 1})
    budget = DeviationBudget((1,), 2, 2, 1, 1)
    # a group that values nothing has the bound alpha * 0 = 0 and deviates 0
    nothing = UtilityModel(additive={"a1": {"r1": 0, "r2": 0}})
    cert = verify_approximation(inst, x, y, nothing, budget)
    assert cert.group_deviations[("d", "g")] == (0, 0)
    assert cert.ok()
    # a positive deviation still fails against the bound 0
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 0}})
    cert = verify_approximation(inst, x, y, u, DeviationBudget((0,), 2, 2, 1, 1))
    assert cert.group_deviations[("d", "g")] == (1, 0)
    assert cert.violations == ["group (d,g) deviates 1, budget 0"]


def test_verify_rejects_a_moved_agent():
    # three unit agents spread evenly over three unit resources: delta = 1
    # admits only perfect matchings, so moving any one agent onto another's
    # resource brings that resource's load deviation to exactly delta
    agents = [AgentSpec(f"a{i}", 1) for i in range(3)]
    resources = [(f"r{j}", 1) for j in range(3)]
    inst = Instance(agents, resources, binding={a.id for a in agents})
    u = UtilityModel(additive={a.id: {r: 1 for r, _ in resources} for a in agents})
    x = Allocation(
        {(a.id, Bundle.of({r: 1})): Fraction(1, 3) for a in agents for r, _ in resources}
    )
    budget = DeviationBudget((), 1, 2, 1, 1)
    y, cert = iterative_round(inst, x, u, budget)
    assert cert.ok()
    (a, q), *_ = sorted(y.values)
    target = next(r for r, _ in resources if y.resource_usage(r) == 1 and not q.multiplicity(r))
    moved = dict(y.values)
    del moved[(a, q)]
    moved[(a, Bundle.of({target: 1}))] = Fraction(1)
    mutant = Allocation(moved)
    load = sum(p.multiplicity(target) * v for (_, p), v in mutant.values.items())
    assert load - 1 == budget.delta
    again = verify_approximation(inst, x, mutant, u, budget)
    assert f"resource {target} deviates 1, budget 1" in again.violations
    assert again.resource_deviations[target] == (1, 1)


def test_integer_utilities_sharpen_group_bound():
    # with integer utilities the observed deviation is at most alpha*U* - 1
    rng = random.Random(5)
    done = 0
    while done < 12:
        inst, _ = random_instance(rng)
        utilities = UtilityModel(
            additive={
                a.id: {r: Fraction(rng.randint(0, 4)) for r, _ in inst.resources}
                for a in inst.agents
            }
        )
        if any(
            utilities.group_max(inst, dim, g) == 0
            for dim in inst.dimensions
            for g in inst.groups_in(dim)
        ):
            continue
        x = fractional_allocation(rng, inst)
        if x is None:
            continue
        budget = minimal_budget(inst, x)
        y, cert = iterative_round(inst, x, utilities, budget)
        for (dim, g), (dev, bound) in cert.group_deviations.items():
            # integer-valued sides turn the strict bound into <= bound - 1
            assert bound.denominator == 1
            if dev.denominator == 1:
                assert dev <= bound - 1
        done += 1


def test_psi_forced():
    inst, u, x = matching_setup()
    assert forced_psi(x, 0)
    with pytest.raises(BudgetError):
        iterative_round(inst, x, u, DeviationBudget((), 1, 2, 0, 1))


def test_non_allocation_rejected():
    inst, u, _ = matching_setup()
    bad = Allocation({("a1", Bundle.of({"r1": 1})): Fraction(1, 2)})
    with pytest.raises(InvalidInstanceError):
        iterative_round(inst, bad, u, DeviationBudget((), 1, 2, 1, 1))


def test_oracle_confirms_certificate_deviations():
    rng = random.Random(71)
    done = 0
    while done < 8:
        inst, utilities = random_instance(rng, max_agents=5, max_resources=3)
        x = fractional_allocation(rng, inst)
        if x is None or len(x.fractional_pairs()) > 14:
            continue
        budget = minimal_budget(inst, x)
        y, cert = iterative_round(inst, x, utilities, budget)
        triple = (
            max((d for d, _ in cert.group_deviations.values()), default=Fraction(0)),
            max((d for d, _ in cert.resource_deviations.values()), default=Fraction(0)),
            cert.total_deviation[0],
        )
        frontier = best_deviation(inst, x, utilities)
        assert any(
            f[0] <= triple[0] and f[1] <= triple[1] and f[2] <= triple[2]
            for f in frontier
        )
        done += 1


def test_psi_zero_path_with_chi_row():
    from generators import psi_zero_input
    from nearfair.rounding import min_Delta

    rng = random.Random(4096)
    chi_fired = 0
    for _ in range(40):
        inst, utilities, x = psi_zero_input(rng)
        assert not forced_psi(x, len(inst.dimensions))
        # generous per-group and per-resource budgets leave enough slack for
        # a small total budget, which is what makes the conservation row fire
        alpha = (9,) * len(inst.dimensions)
        delta = 10 * inst.omega_star - 1
        budget = DeviationBudget(alpha, delta, None, 0, inst.omega_star)
        budget = DeviationBudget(
            alpha, delta, min_Delta(budget), 0, inst.omega_star
        )
        assert budget.Delta <= 2
        y, cert = iterative_round(inst, x, utilities, budget)
        assert cert.ok(), cert.violations
        if any(s.chi for s in cert.trace):
            chi_fired += 1
            for s1, s2 in zip(cert.trace, cert.trace[1:]):
                if s1.chi:
                    assert s1.weighted_mass == s2.weighted_mass
    assert chi_fired >= 5


def test_round_with_explicit_utilities():
    from nearfair.model import UtilityModel as UM

    inst = Instance(
        [AgentSpec("a1", 1, {"d": "g"}), AgentSpec("a2", 1, {"d": "g"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
        dimensions=("d",),
    )
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    u = UM(
        explicit={
            ("a1", b1): Fraction(3), ("a1", b2): Fraction(1),
            ("a2", b1): Fraction(2), ("a2", b2): Fraction(2),
        }
    )
    x = Allocation(
        {
            ("a1", b1): Fraction(1, 2), ("a1", b2): Fraction(1, 2),
            ("a2", b1): Fraction(1, 2), ("a2", b2): Fraction(1, 2),
        }
    )
    y, cert = iterative_round(inst, x, u, DeviationBudget((3,), 3, 2, 1, 1))
    assert cert.ok()


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.lists(st.integers(0, 30), min_size=0, max_size=4),
    delta=st.integers(0, 40),
    psi=st.integers(0, 1),
    omega=st.integers(1, 3),
)
def test_condition_monotone_in_budgets(alpha, delta, psi, omega):
    base = check_condition(DeviationBudget(tuple(alpha), delta, None, psi, omega))
    looser = check_condition(
        DeviationBudget(tuple(a + 1 for a in alpha), delta + 1, None, psi, omega)
    )
    assert looser >= base
    if psi == 1:
        relaxed = check_condition(DeviationBudget(tuple(alpha), delta, None, 0, omega))
        assert relaxed == base + Fraction(1, 2)


# -- the shared capacity-excess guard -----------------------------------------


@pytest.mark.parametrize("pipeline", ["assignment", "couples"])
def test_capacity_excess_guard_names_the_resource(monkeypatch, pipeline):
    """A rounded output that overloads a resource by more than delta is an
    internal failure in both pipelines that report capacity excess."""
    on_r1 = Bundle.of({"r1": 1})
    if pipeline == "assignment":
        inst, u = gen_lower_bound_instance("capacity", 4)
        module = fairness

        def run():
            return approx_fair_allocation(inst, u, FairObjective.utilitarian(), (3,), 2)

    else:
        singles = [AgentSpec(f"s{i}", 1) for i in range(1, 5)]
        inst = Instance(singles, [("r1", 1), ("r2", 3)])
        order = [a.id for a in singles]
        on_r2 = Bundle.of({"r2": 1})
        ci = CouplesInstance(
            inst, {"r1": order, "r2": order}, {a: [on_r1, on_r2] for a in order}
        )
        u = UtilityModel(additive={a: {"r1": 2, "r2": 1} for a in order})
        module = couples

        def run():
            return fair_stable_allocation(ci, u, FairObjective.utilitarian(), (), 2)

    # all four agents on r1, which has capacity 1: an excess of 3 > delta = 2
    overloaded = Allocation({(a.id, on_r1): 1 for a in inst.agents})
    monkeypatch.setattr(
        module, "iterative_round", lambda *args: (overloaded, Certificate())
    )
    with pytest.raises(InvariantViolation, match="resource 'r1' exceeded capacity by 3 > delta=2"):
        run()


# -- one table of admissibility conditions --------------------------------------


def _market_call(market, monkeypatch, alpha, delta):
    """The market's pipeline at (alpha, delta) on a one-dimension desk market,
    with the first LP or enumeration stage replaced by a failure, so that a
    budget check reached only after it fails the test."""

    def no_work(*args, **kwargs):
        raise AssertionError(f"{market}: LP work ran before the budget check")

    inst = Instance(
        [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
        dimensions=("g",),
    )
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 1}, "a2": {"r1": 2, "r2": 1}})
    if market == "assignment":
        monkeypatch.setattr(fairness, "solve_fair_fractional", no_work)
        return lambda: approx_fair_allocation(inst, u, FairObjective.utilitarian(), alpha, delta)
    if market == "couples":
        monkeypatch.setattr(couples, "dominating_vertices", no_work)
        order = ["a1", "a2"]
        ci = CouplesInstance(
            inst, {"r1": order, "r2": order},
            {a: [Bundle.of({"r1": 1}), Bundle.of({"r2": 1})] for a in order},
        )
        return lambda: fair_stable_allocation(ci, u, FairObjective.utilitarian(), alpha, delta)
    if market == "envyfree":
        monkeypatch.setattr(envyfree, "_round_loop", no_work)
        return lambda: ef_round(HomogeneousInstance(inst, u), Allocation({}), alpha, delta)
    monkeypatch.setattr(apportionment, "solve_lp_ma", no_work)
    ma = MAInstance(
        dims=tuple(f"d{l}" for l in range(len(alpha))),
        groups={f"d{l}": ("g0", "g1") for l in range(len(alpha))},
        votes={("g0",) * len(alpha): 3, ("g1",) * len(alpha): 2},
        lower={},
        upper={},
        house=2,
    )
    return lambda: approx_apportionment(ma, SignpostMethod.webster(), alpha)


@pytest.mark.parametrize(
    "market, alpha, delta",
    [
        ("assignment", (-2,), 4),
        ("assignment", (3,), -1),
        ("couples", (-2,), 4),
        ("couples", (5,), -2),
        ("envyfree", (-1,), 3),
        ("envyfree", (1,), -2),
        ("apportion", (-2,), 0),
        ("apportion", (-1,), 0),
    ],
)
def test_every_market_rejects_negative_budgets_before_lp_work(monkeypatch, market, alpha, delta):
    with pytest.raises(BudgetError, match="alpha and delta must be non-negative"):
        _market_call(market, monkeypatch, alpha, delta)()


@pytest.mark.parametrize(
    "market, alpha, delta",
    [
        ("assignment", (1,), 1),
        ("couples", (1,), 1),
        ("envyfree", (1,), 1),
        ("apportion", (0, 0, 0), 0),
    ],
)
def test_pipeline_budget_errors_name_the_table_text(monkeypatch, market, alpha, delta):
    with pytest.raises(BudgetError) as info:
        _market_call(market, monkeypatch, alpha, delta)()
    assert str(info.value).startswith(f"condition {CONDITIONS[market].text} fails by ")


def test_general_condition_errors_name_the_table_text():
    with pytest.raises(BudgetError) as info:
        min_Delta(DeviationBudget((1,), 1, None, 1, 1))
    assert str(info.value) == f"condition {CONDITIONS['round'].text} fails by 1/2"
