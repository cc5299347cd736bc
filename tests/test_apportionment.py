"""Apportionment: signposts, the fractional program, and the rounded pipeline."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nearfair import apportionment
from nearfair.apportionment import (
    MAInstance,
    SignpostMethod,
    _lifted_budget,
    approx_apportionment,
    delta_bound_ma,
    divisor_certified,
    highest_averages,
    ma_condition,
    rounding_set,
    seat_costs,
    solve_lp_ma,
)
from nearfair.cli import _ma_from_csv
from nearfair.errors import (
    BudgetError,
    InfeasibleInstanceError as InfeasibleError,
    InvalidInstanceError,
    InvariantViolation,
)

from generators import biproportional_ma, random_ma, vote_table


WEB = SignpostMethod.webster()
JEF = SignpostMethod.jefferson()
ADA = SignpostMethod.adams()


# -- signposts and rounding rules ----------------------------------------------


def test_rounding_set_examples():
    assert rounding_set(WEB, Fraction(12, 5)) == {2}
    assert rounding_set(WEB, Fraction(5, 2)) == {2, 3}
    assert rounding_set(JEF, 3) == {2, 3}
    assert rounding_set(WEB, 0) == {0}
    assert rounding_set(ADA, Fraction(1, 3)) == {1}  # adams rounds every scrap up


def test_custom_signpost_validated():
    bad = SignpostMethod.custom(lambda t: Fraction(t, 2))
    with pytest.raises(InvalidInstanceError):
        bad.validate_prefix(4)
    flat = SignpostMethod.custom(lambda t: Fraction(max(t - 1, 0)))
    flat.validate_prefix(6)  # adams-like: fine
    decreasing = SignpostMethod.custom(
        lambda t: {0: Fraction(0), 1: Fraction(1), 2: Fraction(1)}.get(t, Fraction(t))
    )
    with pytest.raises(InvalidInstanceError):
        decreasing.validate_prefix(3)


# -- one-dimensional agreement ---------------------------------------------------


def one_d(votes, house):
    keys = {(f"p{i}",): v for i, v in enumerate(votes)}
    return MAInstance(
        dims=("party",),
        groups={"party": tuple(f"p{i}" for i in range(len(votes)))},
        votes=keys,
        lower={},
        upper={},
        house=house,
    )


def lp_seats(ma, method):
    x = solve_lp_ma(ma, method)
    seats = {e: 0 for e in ma.votes}
    for (e, t), v in x.items():
        assert v in (0, 1)  # interval matrix: vertex optimum is integral
        seats[e] += int(v)
    return seats


def test_sainte_lague_hand_example():
    ma = one_d([2, 1], 3)
    assert lp_seats(ma, WEB) == {("p0",): 2, ("p1",): 1}
    assert highest_averages(WEB, ma.votes, 3) == {("p0",): 2, ("p1",): 1}


def test_house_zero():
    ma = one_d([5], 0)
    assert solve_lp_ma(ma, WEB) == {}
    # no votes at all: the divisor certificate holds vacuously
    empty = MAInstance(
        dims=("party",), groups={"party": ("p0",)}, votes={}, lower={}, upper={}, house=0
    )
    assert approx_apportionment(empty, WEB, (1,)).seats == {}


def house_zero(d, window=None):
    dims = tuple(f"dim{i}" for i in range(d))
    return MAInstance(
        dims=dims,
        groups={dim: ("a", "b") for dim in dims},
        votes={e: 3 for e in itertools.product(("a", "b"), repeat=d)},
        lower=window or {},
        upper=window or {},
        house=0,
    )


@pytest.mark.parametrize("d", [2, 3])
def test_house_zero_seats_nobody(d):
    res = approx_apportionment(house_zero(d), WEB, (d - 1,) * d)
    assert res.total_seats() == 0
    assert res.house_deviation == 0
    assert set(res.group_deviation.values()) == {0}


def test_house_zero_with_a_positive_lower_bound_is_infeasible():
    with pytest.raises(InfeasibleError, match=r"\(dim0,a\) has lower bound 1 but no seat"):
        solve_lp_ma(house_zero(2, {("dim0", "a"): 1}), WEB)


def _has_priority_tie(method, votes, house):
    priorities = []
    for e, v in votes.items():
        for t in range(1, house + 1):
            sp = method.s(t)
            priorities.append(None if sp == 0 else Fraction(v) / sp)
    finite = [p for p in priorities if p is not None]
    return len(finite) != len(set(finite))


def test_webster_matches_highest_averages_random():
    rng = random.Random(41)
    compared = 0
    while compared < 30:
        n = rng.randint(2, 5)
        votes = [rng.randint(1, 99) for _ in range(n)]
        house = rng.randint(1, 12)
        ma = one_d(votes, house)
        if _has_priority_tie(WEB, ma.votes, house):
            continue
        seats = lp_seats(ma, WEB)
        assert seats == highest_averages(WEB, ma.votes, house)
        assert divisor_certified(WEB, ma.votes, seats)
        compared += 1


def test_jefferson_and_adams_certified():
    rng = random.Random(43)
    for method in (JEF, ADA):
        done = 0
        while done < 8:
            n = rng.randint(2, 4)
            votes = [rng.randint(1, 60) for _ in range(n)]
            house = rng.randint(n, 10)  # adams needs a seat per party
            ma = one_d(votes, house)
            if _has_priority_tie(method, ma.votes, house):
                continue
            seats = lp_seats(ma, method)
            assert divisor_certified(method, ma.votes, seats)
            done += 1


def moved_seats(seats):
    """Every seat vector one seat away from ``seats``."""
    for src, dst in itertools.permutations(seats, 2):
        if seats[src]:
            yield {**seats, src: seats[src] - 1, dst: seats[dst] + 1}


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from([WEB, JEF, ADA]),
    base=st.integers(10**11, 10**12),
    offsets=st.lists(st.integers(0, 12), min_size=2, max_size=5, unique=True),
    extra=st.integers(0, 8),
)
def test_near_ties_at_d1_match_highest_averages(method, base, offsets, extra):
    """Votes of 10^11 to 10^12 that differ by a few votes put quotients
    within a relative 10^-10 of each other: the float logs, read exactly,
    still order them, where one fixed denominator of 10^9 would not."""
    house = len(offsets) + extra  # adams seats every party first
    ma = one_d([base + o for o in offsets], house)
    assume(not _has_priority_tie(method, ma.votes, house))
    seats = approx_apportionment(ma, method, (1,)).seats
    assert seats == highest_averages(method, ma.votes, house)
    assert divisor_certified(method, ma.votes, seats)
    assert not any(divisor_certified(method, ma.votes, m) for m in moved_seats(seats))


def test_d1_result_failing_the_divisor_certificate_is_an_invariant_violation(monkeypatch):
    ma = one_d([2, 1], 3)
    x = solve_lp_ma(ma, WEB)
    # give p1's second seat slot to p0: a 0/1 vertex of the wrong apportionment
    x[(("p1",), 1)], x[(("p0",), 3)] = Fraction(0), Fraction(1)
    monkeypatch.setattr(apportionment, "solve_lp_ma", lambda ma, method: x)
    with pytest.raises(InvariantViolation, match="divisor certificate"):
        approx_apportionment(ma, WEB, (1,))


def test_d1_window_may_override_the_divisor_rule():
    ma = one_d([2, 1], 3)
    ma.lower[("party", "p1")] = 2
    res = approx_apportionment(ma, WEB, (1,))
    assert res.seats == {("p0",): 1, ("p1",): 2}
    assert not divisor_certified(WEB, ma.votes, res.seats)


CELLS_2X2 = [(p, d) for p in ("p0", "p1") for d in ("d0", "d1")]


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from([WEB, JEF, ADA]),
    base=st.integers(10**11, 10**12),
    offsets=st.lists(st.integers(0, 12), min_size=4, max_size=4, unique=True),
    extra=st.integers(0, 6),
)
def test_near_ties_at_d2_are_certified_over_the_cells(method, base, offsets, extra):
    """An unwindowed 2 x 2 table whose votes differ by a few: its seats are
    highest averages over the four cells and pass the divisor certificate
    over them, which every one-seat move fails."""
    ma = MAInstance(
        dims=("party", "district"),
        groups={"party": ("p0", "p1"), "district": ("d0", "d1")},
        votes={e: base + o for e, o in zip(CELLS_2X2, offsets)},
        lower={},
        upper={},
        house=len(CELLS_2X2) + extra,  # adams seats every cell first
    )
    assume(not _has_priority_tie(method, ma.votes, ma.house))
    seats = approx_apportionment(ma, method, (1, 1)).seats
    assert seats == highest_averages(method, ma.votes, ma.house)
    assert divisor_certified(method, ma.votes, seats)
    assert not any(divisor_certified(method, ma.votes, m) for m in moved_seats(seats))


@pytest.mark.parametrize("d", [2, 3])
def test_unwindowed_result_failing_the_divisor_certificate_is_an_invariant_violation(
    monkeypatch, d
):
    ma = random_ma(random.Random(73), d=d, max_groups=3, max_house=6)
    seats = lp_seats(ma, WEB)
    src, dst = next(
        (a, b) for a, b in itertools.permutations(seats, 2)
        if seats[a] and not divisor_certified(
            WEB, ma.votes, {**seats, a: seats[a] - 1, b: seats[b] + 1}
        )
    )
    # a 0/1 vertex with one seat moved from cell src to cell dst
    x = solve_lp_ma(ma, WEB)
    x[(src, seats[src])], x[(dst, seats[dst] + 1)] = Fraction(0), Fraction(1)
    monkeypatch.setattr(apportionment, "solve_lp_ma", lambda ma, method: x)
    with pytest.raises(InvariantViolation, match="divisor certificate"):
        approx_apportionment(ma, WEB, (1,) * d)


def test_biproportional_table_meets_every_marginal():
    """Party and district totals fixed by Webster on the vote totals: the
    seats meet every marginal exactly, and the marginals bind, since the
    unwindowed apportionment of the cells differs."""
    ma = biproportional_ma(random.Random(5), 4, 3, 20)
    res = approx_apportionment(ma, WEB, (1, 1))
    assert res.group_seats == ma.lower == ma.upper
    assert res.house_deviation == 0 and sum(res.seats.values()) == 20
    assert res.seats != highest_averages(WEB, ma.votes, ma.house)


@pytest.mark.parametrize("d", [1, 2])
def test_fractional_vertex_at_d_le_2_is_an_invariant_violation(monkeypatch, d):
    ma = random_ma(random.Random(71), d=d, max_groups=3, max_house=6)
    x = solve_lp_ma(ma, WEB)
    seated = next(v for v, val in x.items() if val == 1)
    x[seated] = Fraction(1, 2)
    monkeypatch.setattr(apportionment, "solve_lp_ma", lambda ma, method: x)
    with pytest.raises(InvariantViolation, match=f"fractional seat-LP vertex at d={d}"):
        approx_apportionment(ma, WEB, (1,) * d)


# -- the seat LP's costs ------------------------------------------------------------


@pytest.mark.parametrize("method", [WEB, JEF, ADA], ids=lambda m: m.tag)
def test_seat_costs_are_the_float_logs_read_exactly(method):
    """Every cost is Fraction(ln(s(t)/V_e)) of the float log, or the big-M
    cost of a zero signpost, so the objective row's common denominator is
    a power of two."""
    rng = random.Random(67)
    for _ in range(20):
        ma = random_ma(rng, d=rng.randint(1, 3), max_groups=3, max_house=10)
        costs = seat_costs(ma, method)
        assert list(costs) == [
            (e, t) for e in sorted(ma.votes) for t in range(1, ma.house + 1)
        ]
        logs = {
            (e, t): math.log(float(method.s(t)) / ma.votes[e])
            for e, t in costs
            if method.s(t) != 0
        }
        big_m = -(1.0 + ma.house * (1.0 + max(map(abs, logs.values()), default=0.0)))
        for v, c in costs.items():
            assert c == Fraction(logs.get(v, big_m))
        denominator = math.lcm(*(c.denominator for c in costs.values()))
        assert denominator & (denominator - 1) == 0
        if len(logs) < len(costs):
            # big-M outweighs every finite cost over the whole house
            assert -Fraction(big_m) > ma.house * max(abs(Fraction(c)) for c in logs.values())


# -- bounds ---------------------------------------------------------------------


def test_delta_formula_examples():
    ma = random_ma(random.Random(1), d=3, max_groups=3, max_house=8)
    big = MAInstance(
        dims=("a", "b", "c"),
        groups={d: tuple(f"{d}{i}" for i in range(9)) for d in ("a", "b", "c")},
        votes={("a0", "b0", "c0"): 1},
        lower={},
        upper={},
        house=4,
    )
    assert delta_bound_ma(big, (2, 2, 2)) == 2
    assert delta_bound_ma(big, (0, 6, 6)) == 2
    assert delta_bound_ma(big, (1, 2, 4)) == 2
    # binding dimension with alpha=0 pins the house size exactly
    binding = MAInstance(
        dims=("a",),
        groups={"a": ("x", "y")},
        votes={("x",): 3, ("y",): 2},
        lower={("a", "x"): 2, ("a", "y"): 2},
        upper={("a", "x"): 2, ("a", "y"): 2},
        house=4,
    )
    assert delta_bound_ma(binding, (0,)) == 0
    # non-binding k=2 with alpha=3 contributes (3+1)*2 - 1 = 7; pick the other
    # dimensions so the budget term (18 here) does not undercut it
    loose = MAInstance(
        dims=("a", "b", "c"),
        groups={
            "a": ("x", "y"),
            "b": tuple(f"b{i}" for i in range(9)),
            "c": tuple(f"c{i}" for i in range(9)),
        },
        votes={("x", "b0", "c0"): 3, ("y", "b1", "c1"): 2},
        lower={},
        upper={},
        house=4,
    )
    assert delta_bound_ma(loose, (3, 0, 2)) == 7
    # for a lone dimension the budget term can drop to zero and dominate
    single = MAInstance(
        dims=("a",),
        groups={"a": ("x", "y")},
        votes={("x",): 3, ("y",): 2},
        lower={},
        upper={},
        house=4,
    )
    assert delta_bound_ma(single, (3,)) == 0


def test_condition_rejects_overfull_alpha():
    ma = one_d([2, 1], 3)
    assert ma_condition(ma, (0,)) == Fraction(1, 2)
    with pytest.raises(BudgetError):
        big = MAInstance(
            dims=("a", "b", "c"),
            groups={d: ("g0", "g1") for d in ("a", "b", "c")},
            votes={("g0", "g0", "g0"): 1},
            lower={},
            upper={},
            house=2,
        )
        delta_bound_ma(big, (0, 0, 0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lifted_budget_delta_matches_closed_form(d):
    """The per-resource budget of the lifted rounding, derived from
    ``check_condition`` with psi = 0, equals ceil(1/rem - 1) with
    rem = 1 - sum 1/(alpha_l + 2), and neither exists when rem <= 0."""
    checked = 0
    for alpha in itertools.product(range(7), repeat=d):
        rem = 1 - sum(Fraction(1, a + 2) for a in alpha)
        if rem <= 0:
            with pytest.raises(BudgetError):
                _lifted_budget(alpha)
        else:
            budget = _lifted_budget(alpha)
            assert budget.psi == 0
            assert budget.delta == math.ceil(1 / rem - 1)
            assert budget.alpha == tuple(a + 1 for a in alpha)
            checked += 1
    assert checked > 0


# -- rounded pipelines ------------------------------------------------------------


def test_d2_zero_deviations():
    rng = random.Random(47)
    for _ in range(8):
        ma = random_ma(rng, d=2, max_groups=3, max_house=10)
        res = approx_apportionment(ma, WEB, (1, 1))
        assert res.house_deviation == 0
        assert all(v == 0 for v in res.group_deviation.values())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    method=st.sampled_from([WEB, JEF, ADA]),
    binding_dims=st.sampled_from([(), (0,), (1,)]),
    window_dims=st.sampled_from([(), (0,), (1,), (0, 1)]),
)
def test_seat_lp_vertex_is_integral_at_d2(seed, method, binding_dims, window_dims):
    """The window rows of the two dimensions are two laminar families, so
    with the house row the matrix is totally unimodular."""
    ma = random_ma(
        random.Random(seed), d=2, max_groups=4, max_house=12,
        binding_dims=binding_dims, window_dims=window_dims,
    )
    try:
        x = solve_lp_ma(ma, method)
    except InfeasibleError:
        assume(False)
    assert set(x.values()) <= {0, 1}
    assert sum(x.values()) == ma.house


def test_eight_by_six_table_with_100_seats(tmp_path):
    """A scale that took more than 10 minutes while each log cost had its
    own denominator."""
    path = tmp_path / "votes.csv"
    path.write_text(vote_table(random.Random(5), 8, 6))
    ma = _ma_from_csv(str(path), 100)
    res = approx_apportionment(ma, WEB, (1, 1))
    assert res.total_seats() == 100
    assert res.house_deviation == 0
    assert set(res.group_deviation.values()) == {0}


def cube_instance():
    """Even-parity support on a 2x2x2 tensor with unit quotas everywhere:
    fractionally feasible (one half on each tuple) but integrally infeasible,
    so the vertex optimum must be fractional."""
    dims = ("p", "q", "g")
    groups = {d: (f"{d}0", f"{d}1") for d in dims}
    votes = {
        ("p0", "q0", "g0"): 1,
        ("p1", "q1", "g0"): 1,
        ("p0", "q1", "g1"): 1,
        ("p1", "q0", "g1"): 1,
    }
    lower = {(d, g): 1 for d in dims for g in groups[d]}
    return MAInstance(
        dims=dims, groups=groups, votes=votes, lower=lower, upper=dict(lower), house=2
    )


def test_cube_forces_fractional_then_rounds():
    ma = cube_instance()
    x = solve_lp_ma(ma, WEB)
    assert any(0 < v < 1 for v in x.values())
    res = approx_apportionment(ma, WEB, (2, 2, 2))
    assert res.house_deviation <= 2
    assert all(v <= 2 for v in res.group_deviation.values())
    # rounding property survives the lift
    for v, val in res.fractional.items():
        if val == 0:
            assert res.rounded[v] == 0
        if val == 1:
            assert res.rounded[v] == 1


def test_d3_house_bound():
    rng = random.Random(53)
    done = 0
    while done < 6:
        ma = random_ma(
            rng, d=3, max_groups=3, max_house=8, binding_dims=(0, 1, 2)
        )
        try:
            res = approx_apportionment(ma, WEB, (2, 2, 2))
        except InfeasibleError:
            continue
        assert res.house_deviation <= 2
        assert all(v <= 2 for v in res.group_deviation.values())
        done += 1


def test_binding_gender_dimension_exact_house():
    rng = random.Random(59)
    for _ in range(4):
        ma = random_ma(rng, d=3, max_groups=2, max_house=8, binding_dims=(0,))
        res = approx_apportionment(ma, WEB, (0, 6, 6))
        assert res.house_deviation == 0


def test_rounding_property():
    rng = random.Random(61)
    for _ in range(4):
        ma = random_ma(rng, d=3, max_groups=3, max_house=8)
        res = approx_apportionment(ma, WEB, (2, 2, 2))
        for v, val in res.fractional.items():
            if val == 0:
                assert res.rounded[v] == 0
            if val == 1:
                assert res.rounded[v] == 1
            assert res.rounded[v] in (0, 1)


@settings(max_examples=120, deadline=None)
@given(
    shifts=st.lists(st.fractions(min_value=0, max_value=1), min_size=6, max_size=6),
    q=st.fractions(min_value=0, max_value=5),
)
def test_rounding_set_is_consistent_with_signposts(shifts, q):
    # s(t) = t - 1 + shift_t, clipped monotone: a valid signpost sequence
    values = [Fraction(0)]
    for t in range(1, 7):
        lo = max(Fraction(t - 1), values[-1] + Fraction(1, 1000)) if t >= 2 else Fraction(0)
        hi = Fraction(t)
        v = lo + (hi - lo) * shifts[t - 1]
        values.append(v)
    method = SignpostMethod.custom(lambda t: values[t] if t < len(values) else Fraction(t))
    method.validate_prefix(6)
    out = rounding_set(method, q)
    assert out
    for t in out:
        assert t >= 0
        assert method.s(t) <= q <= method.s(t + 1)
    if len(out) == 2:
        lo_t, hi_t = sorted(out)
        assert hi_t == lo_t + 1 and q == method.s(hi_t)
