"""Float cross-check of the exact simplex against scipy's HiGHS (tests only)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nearfair.exactlp import solve_vertex

from generators import degenerate_lp, random_lp

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
