"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

import pytest

from nearfair.apportionment import (
    SignpostMethod,
    approx_apportionment,
    divisor_certified,
    highest_averages,
    seat_costs,
    solve_lp_ma,
)
from nearfair.couples import fair_stable_allocation, realized_capacities, stability_check
from nearfair.envyfree import (
    check_ef_deviation,
    check_fractional_ef,
    ef_condition,
    ef_round,
    greedy_fractional_ef,
)
from nearfair.errors import InfeasibleInstanceError, NoDominatingVertexError
from nearfair.exactlp import solve_vertex
from nearfair.fairness import (
    FairObjective,
    allocation_polytope,
    approx_fair_allocation,
    delta_plus_bound,
    fairness_condition,
    gen_lower_bound_instance,
)
from nearfair.model import group_utilities
from nearfair.oracle import enumerate_integral, vertex_enumerate
from nearfair.rounding import iterative_round

from generators import (
    coefficients,
    ef_budget,
    fractional_allocation,
    minimal_budget,
    point_rank,
    random_couples,
    random_homogeneous,
    random_instance,
    random_lp,
    random_ma,
)

WEB = SignpostMethod.webster()


def report(criterion: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS - {detail}")


def test_criterion_1_rounding_end_to_end():
    rng = random.Random(2024)
    done = 0
    slowest = 0.0
    while done < 500:
        inst, utilities = random_instance(
            rng, max_agents=10, max_resources=5, max_demand=2, max_dims=2, max_groups=3
        )
        x = fractional_allocation(rng, inst)
        if x is None:
            continue
        budget = minimal_budget(inst, x)
        t0 = time.time()
        y, cert = iterative_round(inst, x, utilities, budget)
        elapsed = time.time() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 2.0, f"instance took {elapsed:.2f}s"
        assert cert.ok(), cert.violations
        for state in cert.trace:
            assert state.constraints <= state.fractional
        done += 1
    report(1, "iterative rounding", f"500 instances verified strictly; slowest {slowest:.2f}s")


def test_criterion_2_pareto_pairs():
    from nearfair.model import AgentSpec, Instance

    unit = Instance(
        [AgentSpec("a", 1, {"g": "g1"})], [("r1", 1)], binding={"a"}, dimensions=("g",)
    )
    for a, d in ((2, 4), (3, 2), (5, 1)):
        assert fairness_condition(unit, (a,), d) == 0
    assert fairness_condition(unit, (1,), 1) < 0
    report(2, "Pareto pairs", "(2,4),(3,2),(5,1) tight; (1,1) rejected, exact rationals")


def test_criterion_3_total_excess_cap():
    rng = random.Random(77)
    done = 0
    worst_margin = None
    while done < 15:
        inst, utilities = random_instance(
            rng, max_agents=6, max_resources=4, max_demand=2, max_dims=1,
            all_binding=True,
        )
        alpha = (3,) * len(inst.dimensions)
        delta = 2 * inst.omega_star
        while fairness_condition(inst, alpha, delta) < 0:
            delta += 1
        objective = (
            FairObjective.proportional() if done % 5 == 0 else FairObjective.utilitarian()
        )
        try:
            result = approx_fair_allocation(inst, utilities, objective, alpha, delta)
        except InfeasibleInstanceError:
            continue
        cap = delta_plus_bound(inst, delta)
        excess = sum(
            max(0, int(result.rounded.resource_usage(r)) - c)
            for r, c in inst.resources
        )
        assert excess <= cap
        margin = cap - excess
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
        for r, c in inst.resources:
            assert int(result.rounded.resource_usage(r)) - c <= delta
        done += 1
    report(3, "total excess cap", f"15 assignment runs; smallest cap margin {worst_margin}")


def test_criterion_4_lower_bound_families():
    from nearfair.fairness import max_group_utility

    t0 = time.time()
    # family I, n=6: forced proportionality overloads the hot resource by 5
    inst, utilities = gen_lower_bound_instance("capacity", 6)
    maxima = {}
    for a in inst.agents:
        # singleton groups: the group maximum is the agent's own LP maximum
        maxima[a.id] = max_group_utility(
            inst, utilities, "group", a.groups["group"]
        )
    assert all(v == 1 for v in maxima.values())
    overloads = []
    for y in enumerate_integral(inst):
        if all(
            sum(
                utilities.of(*e) * v
                for e, v in y.values.items()
                if e[0] == a.id
            )
            >= maxima[a.id] / 6
            for a in inst.agents
        ):
            overloads.append(int(y.resource_usage("r1")) - 1)
    assert overloads and min(overloads) == 5 and max(overloads) == 5
    t_capacity = time.time() - t0
    assert t_capacity < 30

    # family I', n=6: zero capacity slack forces a group gap of exactly 3
    t0 = time.time()
    inst2, utilities2 = gen_lower_bound_instance("utility-cycle", 6)
    best = {}
    for g in inst2.groups_in("group"):
        best[g] = max_group_utility(inst2, utilities2, "group", g)
    assert all(v == 3 for v in best.values())  # n/2 odd resources each
    gaps = []
    feasible = []
    for y in enumerate_integral(inst2):
        if any(y.resource_usage(r) > c for r, c in inst2.resources):
            continue
        feasible.append(y)
        gap = max(
            best[g] - group_utilities(y, utilities2, inst2)[("group", g)]
            for g in inst2.groups_in("group")
        )
        gaps.append(gap)
    assert len(feasible) == 2
    assert min(gaps) == 3
    t_cycle = time.time() - t0
    assert t_cycle < 30
    report(
        4,
        "lower bounds",
        f"capacity n=6 overload exactly 5 ({t_capacity:.1f}s); "
        f"cycle n=6 forces gap 3 ({t_cycle:.1f}s)",
    )


def test_criterion_5_envy_free_pipeline():
    rng = random.Random(555)
    for i in range(200):
        if i % 4 == 3:
            # denser markets: tight capacities force long fractional splits,
            # so the pairwise envy rows actually activate during rounding
            h = random_homogeneous(rng, max_agents=12, max_resources=3)
        else:
            h = random_homogeneous(rng)
        x, _trace = greedy_fractional_ef(h)
        ef = check_fractional_ef(h, x)
        assert all(ok for ok, _ in ef.values()), (i, ef)
        alpha, delta = ef_budget(h)
        assert ef_condition(h, alpha, delta) >= 0
        y = ef_round(h, x, alpha, delta)
        out = check_ef_deviation(h, y, alpha, delta)
        assert out["ok"], (i, out)
    report(5, "envy-free pipeline", "200 greedy + rounded instances, zero tolerance")


def test_criterion_6_couples_pipeline():
    rng = random.Random(666)
    done = 0
    skipped = 0
    while done < 100:
        dims = 0 if done % 2 == 0 else rng.choice((0, 1))
        ci, utilities = random_couples(rng, dims=dims)
        alpha = (5,) * dims
        delta = 2 if dims == 0 else 4
        try:
            result = fair_stable_allocation(
                ci, utilities, FairObjective.utilitarian(), alpha, delta
            )
        except NoDominatingVertexError:
            skipped += 1
            assert skipped < 200, "dominating vertices should exist at this scale"
            continue
        y = result.rounded
        assert stability_check(ci, y, realized_capacities(ci, y)).stable
        assert all(v <= delta for v in result.resource_excess.values())
        assert result.total_weighted_excess <= 4
        if dims == 0:
            assert all(v <= 2 for v in result.resource_excess.values())
            assert result.total_weighted_excess <= 4  # 2 * Delta with Delta = 2
        done += 1
    report(6, "couples pipeline", f"100 stable roundings verified; {skipped} skipped")


def _integral_optimum(ma, method):
    """Enumerate seat vectors within the windows; value uses the costs the LP
    sees (``seat_costs``), so the comparison is exact."""
    keys = sorted(ma.votes)
    costs = seat_costs(ma, method)

    def value(seat_vec):
        total = Fraction(0)
        for e, n in zip(keys, seat_vec):
            for t in range(1, n + 1):
                total += costs[(e, t)]
        return total

    best = None

    def rec(i, left, seats):
        nonlocal best
        if i == len(keys):
            if left:
                return
            for li, dim in enumerate(ma.dims):
                for g in ma.groups[dim]:
                    n = sum(
                        s for e, s in zip(keys, seats) if e[li] == g
                    )
                    b, bb = ma.bounds(dim, g)
                    if not (b <= n <= bb):
                        return
            v = value(seats)
            if best is None or v < best:
                best = v
            return
        for n in range(min(left, ma.house) + 1):
            rec(i + 1, left - n, seats + [n])

    rec(0, ma.house, [])
    return best


def test_criterion_7_apportionment():
    rng = random.Random(777)
    # d=2: zero deviations on full-size draws
    for i in range(40):
        ma = random_ma(rng, d=2, max_groups=4, max_house=20)
        res = approx_apportionment(ma, WEB, (1, 1))
        assert res.house_deviation == 0
        assert all(v == 0 for v in res.group_deviation.values())
    # d=2 oracle cross-check on desk-size draws
    checked_oracle = 0
    while checked_oracle < 8:
        ma = random_ma(rng, d=2, max_groups=2, max_house=5)
        res = approx_apportionment(ma, WEB, (1, 1))
        assert res.house_deviation == 0
        oracle_best = _integral_optimum(ma, WEB)
        costs = seat_costs(ma, WEB)
        got = sum((val * costs[v] for v, val in res.fractional.items()), Fraction(0))
        assert got == oracle_best
        checked_oracle += 1

    # d=3 with alpha=(2,2,2): house within 2 over >= 100 instances
    done = 0
    frac_cases = 0
    while done < 100:
        style = done % 5
        if style == 4:
            # even-parity cube support: integrally infeasible by construction
            from nearfair.apportionment import MAInstance

            dims3 = ("p", "q", "g")
            groups3 = {d: (f"{d}0", f"{d}1") for d in dims3}
            votes3 = {
                ("p0", "q0", "g0"): rng.randint(1, 30),
                ("p1", "q1", "g0"): rng.randint(1, 30),
                ("p0", "q1", "g1"): rng.randint(1, 30),
                ("p1", "q0", "g1"): rng.randint(1, 30),
            }
            lower3 = {(d, g): 1 for d in dims3 for g in groups3[d]}
            ma = MAInstance(
                dims=dims3, groups=groups3, votes=votes3,
                lower=lower3, upper=dict(lower3), house=2,
            )
        else:
            ma = random_ma(
                rng, d=3, max_groups=3, max_house=9,
                binding_dims=(0, 1, 2) if style % 2 else (),
            )
        try:
            res = approx_apportionment(ma, WEB, (2, 2, 2))
        except InfeasibleInstanceError:
            continue
        if any(0 < v < 1 for v in res.fractional.values()):
            frac_cases += 1
        assert abs(res.total_seats() - ma.house) <= 2
        done += 1
    assert frac_cases >= 20

    # binding two-group dimension with alpha=0 pins the house size
    exact = 0
    while exact < 10:
        ma = random_ma(
            rng, d=3, max_groups=2, max_house=8, binding_dims=(0,)
        )
        try:
            res = approx_apportionment(ma, WEB, (0, 6, 6))
        except InfeasibleInstanceError:
            continue
        assert res.house_deviation == 0
        exact += 1

    # 1-D Webster agrees with the sequential highest-averages oracle
    matched = 0
    while matched < 30:
        n = rng.randint(2, 6)
        votes = {(f"p{i}",): rng.randint(1, 99) for i in range(n)}
        house = rng.randint(1, 15)
        priorities = [
            Fraction(v) / WEB.s(t)
            for v in votes.values()
            for t in range(1, house + 1)
        ]
        if len(priorities) != len(set(priorities)):
            continue
        from nearfair.apportionment import MAInstance

        ma = MAInstance(
            dims=("party",),
            groups={"party": tuple(k[0] for k in votes)},
            votes=votes, lower={}, upper={}, house=house,
        )
        res = approx_apportionment(ma, WEB, (1,))
        assert res.seats == highest_averages(WEB, votes, house)
        assert divisor_certified(WEB, votes, res.seats)
        matched += 1
    report(
        7,
        "apportionment",
        f"d=2 zero-dev with {checked_oracle} oracle checks; "
        f"d=3 within 2 on 100 ({frac_cases} fractional); house exact under "
        f"binding alpha=0; 30 Webster seat-for-seat matches",
    )


def test_criterion_8_lp_engine():
    rng = random.Random(888)
    optimal = 0
    for i in range(1000):
        max_vars = 8 if i % 50 == 0 else 5
        lp = random_lp(rng, max_vars=max_vars)
        sol = solve_vertex(lp)
        vertices = vertex_enumerate(lp)
        if sol.optimal:
            optimal += 1
            assert point_rank(lp, sol.values) == lp.n
            best = min(
                sum((c * v[j] for j, c in coefficients(lp.objective).items()), Fraction(0))
                for v in vertices
            )
            assert sol.objective == best
        else:
            assert not vertices
    report(8, "LP engine", f"1000 LPs, {optimal} optimal, values match enumeration exactly")
