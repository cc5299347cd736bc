"""Float cross-check of the exact simplex against scipy's HiGHS (tests only)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nearfair.apportionment import SignpostMethod, seat_costs, solve_lp_ma
from nearfair.errors import InfeasibleInstanceError
from nearfair.exactlp import solve_vertex

from generators import degenerate_lp, random_lp, random_ma

optimize = pytest.importorskip("scipy.optimize")


def highs(lp):
    """(status, objective) of ``lp`` by scipy's HiGHS, in floats."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in lp.constraints:
        row = [float(c.coeffs.get(j, 0)) for j in range(lp.n)]
        if c.rel == "=":
            a_eq.append(row)
            b_eq.append(float(c.rhs))
        else:
            sign = 1.0 if c.rel == "<=" else -1.0
            a_ub.append([sign * v for v in row])
            b_ub.append(sign * float(c.rhs))
    res = optimize.linprog(
        [float(lp.objective.get(j, 0)) for j in range(lp.n)],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(float(v.lb), float(v.ub)) for v in lp.variables],
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    assert status is not None, res.message
    return status, res.fun


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([random_lp, degenerate_lp]), st.integers(0, 2**32))
def test_optimum_matches_highs(build, seed):
    lp = build(random.Random(seed))
    sol = solve_vertex(lp)
    status, fun = highs(lp)
    assert sol.status == status
    if sol.optimal:
        assert float(sol.objective) == pytest.approx(fun, rel=1e-7, abs=1e-7)


def seat_lp_highs(ma, costs):
    """(status, objective) of the seat LP by HiGHS, built from the windows,
    the house and ``seat_costs`` without the library's LP."""
    keys = list(costs)
    a_ub, b_ub = [], []
    for li, dim in enumerate(ma.dims):
        for g in ma.groups[dim]:
            row = [1.0 if e[li] == g else 0.0 for e, _ in keys]
            b, bb = ma.bounds(dim, g)
            a_ub += [[-v for v in row], row]
            b_ub += [-b, bb]
    res = optimize.linprog(
        [float(c) for c in costs.values()],
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=[[1.0] * len(keys)],
        b_eq=[ma.house],
        bounds=(0, 1),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible"}.get(res.status)
    assert status is not None, res.message
    return status, res.fun


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(1, 3),
    tag=st.sampled_from(["webster", "jefferson", "adams"]),
    shaped=st.sampled_from(["free", "binding", "windows"]),
)
def test_seat_lp_optimum_matches_highs(seed, d, tag, shaped):
    rng = random.Random(seed)
    dims = tuple(range(d))
    ma = random_ma(
        rng, d, max_groups=3, max_house=8,
        binding_dims=dims[:1] if shaped == "binding" else (),
        window_dims=dims if shaped == "windows" else (),
    )
    method = SignpostMethod.named(tag)
    costs = seat_costs(ma, method)
    status, fun = seat_lp_highs(ma, costs)
    try:
        x = solve_lp_ma(ma, method)
    except InfeasibleInstanceError:
        assert status == "infeasible"
        return
    assert status == "optimal"
    exact = sum(x[v] * c for v, c in costs.items())
    assert float(exact) == pytest.approx(fun, rel=1e-7, abs=1e-7)
