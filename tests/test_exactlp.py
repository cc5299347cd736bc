"""LP engine: optimality, vertex certificates, determinism, cross-checks."""

import gc
import random
import re
import weakref
from contextlib import ExitStack, contextmanager, nullcontext
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nearfair import exactlp
from nearfair.errors import InvalidInstanceError, InvariantViolation
from nearfair.exactlp import (
    LinearProgram,
    Row,
    _rank,
    feasible_vertex,
    solve_vertex,
    vertex_rank,
)
from nearfair.oracle import vertex_enumerate
from nearfair.rationals import over_lcm

from generators import degenerate_lp, point_rank, random_lp, rational_lp


def test_min_over_box():
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.set_objective({x: 1})
    sol = solve_vertex(lp)
    assert sol.optimal and sol.values == [0]


def test_feasibility_returns_vertex_not_midpoint():
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, "=", 1)
    sol = feasible_vertex(lp)
    assert sol.optimal
    assert sorted(sol.values) == [0, 1]


def test_infeasible_bounds_vs_row():
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.add_constraint({x: 1}, ">=", 2)
    assert solve_vertex(lp).status == "infeasible"


def test_point_polytope_is_a_vertex():
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.add_constraint({x: 1}, "=", Fraction(1, 2))
    sol = feasible_vertex(lp)
    assert sol.optimal and sol.values == [Fraction(1, 2)]


def test_contradictory_equalities():
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.add_constraint({x: 1}, "=", Fraction(1, 4))
    lp.add_constraint({x: 1}, "=", Fraction(3, 4))
    assert feasible_vertex(lp).status == "infeasible"


def test_dependent_equalities_tolerated():
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, "=", 1)
    lp.add_constraint({x: 2, y: 2}, "=", 2)
    lp.set_objective({x: 1})
    sol = solve_vertex(lp)
    assert sol.optimal and sol.values == [0, 1]


def test_determinism():
    rng = random.Random(7)
    for _ in range(25):
        lp = random_lp(rng)
        a = solve_vertex(lp)
        b = solve_vertex(lp)
        assert a.status == b.status
        if a.optimal:
            assert a.values == b.values


def test_vertex_certificate_on_random_lps():
    rng = random.Random(11)
    optimal = 0
    for _ in range(120):
        lp = random_lp(rng)
        sol = solve_vertex(lp)
        if sol.optimal:
            optimal += 1
            assert point_rank(lp, sol.values) == lp.n
    assert optimal > 30


def test_value_matches_vertex_enumeration():
    """Integer data, then data with non-unit denominators everywhere."""
    for build, seed in ((random_lp, 13), (rational_lp, 17)):
        rng = random.Random(seed)
        compared = 0
        for _ in range(60):
            lp = build(rng, max_vars=4)
            sol = solve_vertex(lp)
            vertices = vertex_enumerate(lp)
            if sol.optimal:
                compared += 1
                best = min(
                    sum((c * v[j] for j, c in lp.objective.items()), Fraction(0))
                    for v in vertices
                )
                assert sol.objective == best
                assert sol.values in vertices
            else:
                assert not vertices
        assert compared > 15


def test_rational_lps_cover_their_kinds():
    """Over the seeds the differential tests use, ``rational_lp`` has every
    feature with non-unit denominators, and both statuses."""
    rng = random.Random(17)
    lps = [rational_lp(rng, max_vars=4) for _ in range(60)]
    variables = [v for lp in lps for v in lp.variables]
    assert any(v.lb < 0 and v.lb.denominator > 1 for v in variables)
    assert any(v.ub.denominator > 1 and v.lb != v.ub for v in variables)
    assert any(v.lb == v.ub for v in variables)
    rows = [c for lp in lps for c in lp.constraints]
    assert any(c.rhs.denominator > 1 for c in rows)
    assert any(q.denominator > 1 for c in rows for q in c.coeffs.values())
    # rows below their value at the lower bounds, which phase 1 starts negated
    flipped = [
        c
        for lp in lps
        for c in lp.constraints
        if c.rhs < sum((v * lp.variables[j].lb for j, v in c.coeffs.items()), Fraction(0))
    ]
    assert len(flipped) > 20
    statuses = {solve_vertex(lp).status for lp in lps}
    assert statuses == {"optimal", "infeasible"}


# ---------------------------------------------------------------------------
# the integer point check
# ---------------------------------------------------------------------------

EPS = Fraction(1, 2**64)


def check(lp, x):
    return lp.check_point(*over_lcm(v.as_integer_ratio() for v in x))


def reference_check(lp, x):
    """Fraction evaluation of a point: the start of the message that must
    name the first bound or row it breaks, or else the rows it meets with
    equality and the columns it holds at a bound."""
    for var, v in zip(lp.variables, x):
        if not var.lb <= v <= var.ub:
            return f"point puts {var.name!r} at {v}, outside"
    tight = set()
    for idx, c in enumerate(lp.constraints):
        lhs = sum((a * x[j] for j, a in c.coeffs.items()), Fraction(0))
        if lhs == c.rhs:
            tight.add(idx)
        elif {"<=": lhs > c.rhs, ">=": lhs < c.rhs, "=": True}[c.rel]:
            return f"point violates constraint {idx}:"
    at_bound = {j for j, (var, v) in enumerate(zip(lp.variables, x)) if v in (var.lb, var.ub)}
    return frozenset(tight), frozenset(at_bound)


def near_misses(lp, x, tight):
    """``(j, point)``: x with coordinate j moved by 2**-64, far below float
    resolution, both ways: each column at a bound, so one way crosses the
    bound and the other leaves it, and each column of each tight row."""
    cols = {j for j, var in enumerate(lp.variables) if x[j] in (var.lb, var.ub)}
    cols |= {j for idx in tight for j in lp.constraints[idx].coeffs}
    for j in sorted(cols):
        for step in (EPS, -EPS):
            yield j, x[:j] + [x[j] + step] + x[j + 1 :]


def simplex_points():
    rng = random.Random(23)
    for _ in range(200):
        lp = rational_lp(rng, max_vars=4)
        sol = solve_vertex(lp)
        if sol.optimal:
            yield lp, sol.values


def oracle_points():
    for build in (rational_lp, degenerate_lp):
        for seed in range(60):
            lp = build(random.Random(seed))
            for x in vertex_enumerate(lp):
                yield lp, x


@pytest.mark.parametrize("points", [simplex_points, oracle_points])
def test_point_check_matches_fractions_on_near_misses(points):
    """On each simplex answer or oracle vertex, and on each of its near
    misses, ``check_point`` agrees with the Fraction evaluation: it raises,
    naming the first bound or row the point breaks, exactly when there is
    one, and otherwise returns the same tight rows and at-bound columns.  A
    column 2**-64 inside a bound is no longer at the bound."""
    seen = dict.fromkeys(("bound", "row", "left a bound", "kept"), 0)
    for lp, x in points():
        tight, at_bound = expected = reference_check(lp, x)
        assert check(lp, x) == expected
        for j, m in near_misses(lp, x, tight):
            expected = reference_check(lp, m)
            if isinstance(expected, str):
                with pytest.raises(InvariantViolation, match=re.escape(expected)):
                    check(lp, m)
                seen["bound" if "outside" in expected else "row"] += 1
            else:
                assert check(lp, m) == expected
                seen["left a bound"] += j in at_bound and j not in expected[1]
                seen["kept"] += 1
    assert all(count > 20 for count in seen.values()), seen


def test_simplex_and_oracle_share_the_point_check():
    """``_finish`` checks each answer, and ``vertex_enumerate`` each new
    vertex, through ``LinearProgram.check_point``."""
    lp = LinearProgram()
    x, y, z = (lp.add_variable(name) for name in "xyz")
    lp.add_constraint({x: 1, y: 1, z: 1}, "<=", 2)
    lp.set_objective({x: -1, y: -1})
    checked = []
    real = LinearProgram.check_point

    def counted(self, nums, den):
        checked.append([Fraction(v, den) for v in nums])
        return real(self, nums, den)

    with mock.patch.object(LinearProgram, "check_point", counted):
        sol = solve_vertex(lp)
        assert checked == [sol.values]
        checked.clear()
        vertices = vertex_enumerate(lp)
    assert len(vertices) == 7 and sorted(checked) == vertices


def test_negative_lower_bounds():
    lp = LinearProgram()
    x = lp.add_variable("x", -2, 3)
    y = lp.add_variable("y", Fraction(-1, 2), Fraction(1, 2))
    lp.add_constraint({x: 1, y: -1}, "<=", 1)
    lp.set_objective({x: 1, y: 1})
    sol = solve_vertex(lp)
    assert sol.optimal and sol.values == [-2, Fraction(-1, 2)]


# ---------------------------------------------------------------------------
# sparse elimination kernel
# ---------------------------------------------------------------------------


def dense_rank(rows, ncols):
    """Reference: dense Fraction Gauss-Jordan."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_eliminate_drops_cancelled_entries():
    row = Row.of({0: Fraction(2), 3: Fraction(1)})
    row.eliminate(Row.of({0: Fraction(1), 5: Fraction(1, 2)}), 0)
    assert (row.num, row.den) == ({3: 1, 5: -1}, 1)
    row.eliminate(row.copy(), 3)
    assert (row.num, row.den) == ({}, 1)


def combine(a, f, b):
    """a + f * b over Fractions, with explicit cancellation wherever an entry sums to 0."""
    s = dict(a)
    for k, v in b.items():
        s[k] = s.get(k, 0) + f * v
        if not s[k]:
            del s[k]
    return s


@st.composite
def sparse_rows(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    base = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
            min_size=1,
            max_size=5,
        )
    )
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "multiple", "sum", "zero", "cancel"]))
        a = draw(st.sampled_from(base))
        b = draw(st.sampled_from(base))
        if kind == "duplicate":
            rows.append(dict(a))
        elif kind == "multiple":
            f = draw(entry)
            rows.append({j: f * v for j, v in a.items()})
        elif kind == "sum":
            rows.append(combine(a, 1, b))
        elif kind == "zero":
            rows.append({})
        else:
            rows.append(combine(a, -1, a))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_rank_matches_dense_gauss_jordan(case):
    rows, ncols = case
    kernel_rows = [Row.of(r) for r in rows]
    before = [(dict(r.num), r.den) for r in kernel_rows]
    assert _rank(kernel_rows) == dense_rank(rows, ncols)
    assert [(r.num, r.den) for r in kernel_rows] == before  # inputs are not modified


def value(row, k):
    return Fraction(row.num.get(k, 0), row.den)


def assert_canonical(row):
    """Positive denominator, no stored zero, content-reduced."""
    assert row.den > 0
    assert all(row.num.values())
    assert gcd(row.den, *row.num.values()) == 1


def dense_pivot(m, r, j):
    """Reference Gauss-Jordan pivot on dense Fraction rows."""
    inv = 1 / m[r][j]
    m[r] = [v * inv for v in m[r]]
    for i in range(len(m)):
        if i != r and m[i][j]:
            f = m[i][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]


def kernel_pivot(rows, r, j):
    rows[r].pivot(j)
    for i, row in enumerate(rows):
        if i != r and j in row.num:
            row.eliminate(rows[r], j)


@st.composite
def pivot_runs(draw):
    """Random sparse rational rows [A | I] and a sequence of (row, column)
    draws; the identity columns are the starting basis."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        st.integers(-10**12, 10**12).map(Fraction),
    )
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    dense = [row + [Fraction(int(i == r)) for i in range(m)] for r, row in enumerate(a)]
    steps = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=8))
    return dense, steps


@settings(max_examples=300, deadline=None)
@given(pivot_runs())
def test_row_kernel_matches_dense_gauss_jordan(case):
    """Pivots on integer rows give the dense Fraction values entry by entry,
    keep every row canonical, and are undone exactly by the inverse pivot."""
    dense, steps = case
    ncols = len(dense[0])
    rows = [Row.of(dict(enumerate(r))) for r in dense]
    basis = [ncols - len(dense) + i for i in range(len(dense))]
    for a, b in steps:
        r = a % len(rows)
        cols = sorted(rows[r].num)
        j = cols[b % len(cols)]
        before = [(dict(row.num), row.den) for row in rows]
        copies = [row.copy() for row in rows]
        kernel_pivot(copies, r, j)
        assert [(row.num, row.den) for row in rows] == before  # copies share nothing
        kernel_pivot(copies, r, basis[r])
        assert [(row.num, row.den) for row in copies] == before  # undone exactly
        kernel_pivot(rows, r, j)
        dense_pivot(dense, r, j)
        basis[r] = j
        for row, ref in zip(rows, dense):
            assert_canonical(row)
            assert [value(row, k) for k in range(ncols)] == ref


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(0, 5), st.fractions(max_denominator=12).filter(bool), min_size=1),
    st.dictionaries(st.integers(0, 5), st.fractions(max_denominator=12).filter(bool), min_size=1),
    st.integers(0, 5),
)
def test_row_eliminate_matches_fractions(a, b, j):
    """One elimination against a pivot row of any scale and sign (as in
    ``_rank``) equals a - (a_j / b_j) b and leaves the row canonical."""
    a.setdefault(j, Fraction(1))
    b.setdefault(j, Fraction(-1))
    row, pivot = Row.of(a), Row.of(b)
    before = (dict(pivot.num), pivot.den)
    row.eliminate(pivot, j)
    assert_canonical(row)
    assert (pivot.num, pivot.den) == before
    expected = combine(a, -a[j] / b[j], b)
    assert {k: value(row, k) for k in row.num} == expected


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-1, 6), st.fractions(max_denominator=30), max_size=6))
def test_row_of_is_canonical(coeffs):
    row = Row.of(coeffs)
    assert_canonical(row)
    assert {k: value(row, k) for k in row.num} == {k: v for k, v in coeffs.items() if v}


def test_vertex_rank_edge_midpoint_is_not_a_vertex():
    """``check_point`` reads each point's tight rows and at-bound columns,
    and ``vertex_rank`` counts their rank."""
    none = frozenset()
    # triangle x + y <= 1: the hypotenuse midpoint has one tight row, and
    # the corner (1, 0) holds x at its upper bound and y at its lower one
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, "<=", 1)
    half = Fraction(1, 2)
    assert check(lp, [half, half]) == ({0}, none)
    assert vertex_rank(lp, frozenset({0}), none) == lp.n - 1
    assert check(lp, [1, 0]) == ({0}, {0, 1})
    assert vertex_rank(lp, frozenset({0}), frozenset({0, 1})) == lp.n
    # a tight row that repeats an at-bound column must not count twice
    lp2 = LinearProgram()
    x = lp2.add_variable("x")
    y = lp2.add_variable("y")
    lp2.add_constraint({y: 1}, "<=", 0)
    lp2.add_constraint({y: 2}, "=", 0)
    assert check(lp2, [half, 0]) == ({0, 1}, {1})
    assert vertex_rank(lp2, frozenset({0, 1}), frozenset({1})) == lp2.n - 1
    # simplex edge in three variables: one bound plus the equality
    lp3 = LinearProgram()
    for name in "xyz":
        lp3.add_variable(name)
    lp3.add_constraint({0: 1, 1: 1, 2: 1}, "=", 1)
    assert check(lp3, [half, half, 0]) == ({0}, {2})
    assert vertex_rank(lp3, frozenset({0}), frozenset({2})) == lp3.n - 1
    assert check(lp3, [0, 1, 0]) == ({0}, {0, 1, 2})
    assert vertex_rank(lp3, frozenset({0}), frozenset({0, 1, 2})) == lp3.n
    # no tight row, every column strictly inside its box
    assert vertex_rank(lp3, none, none) == 0


FRACTION_ORDER = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([random_lp, degenerate_lp, rational_lp]), st.integers(0, 2**32))
def test_finish_compares_no_fractions(build, seed):
    """``_finish`` checks an answer on its integer point: it compares no
    value with a bound, nor anything else, as a ``Fraction``."""
    lp = build(random.Random(seed))
    tab = exactlp._phase_one(lp)
    if tab is None:
        return
    tab = tab.copy()
    tab.phase2(lp.objective)

    def refuse(*args):
        raise AssertionError("Fraction comparison in _finish")

    with ExitStack() as stack:
        for name in FRACTION_ORDER:
            stack.enter_context(mock.patch.object(Fraction, name, refuse))
        sol = exactlp._finish(lp, tab)
    assert answer(sol) == answer(solve_vertex(lp))


# ---------------------------------------------------------------------------
# the phase-1 tableau an LP keeps
# ---------------------------------------------------------------------------


def answer(sol):
    return (sol.status, sol.values, sol.objective, sol.tight_constraints)


lp_cases = st.tuples(st.sampled_from([random_lp, degenerate_lp]), st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(lp_cases)
def test_repeated_solves_match_fresh_solves(case):
    build, seed = case
    rng = random.Random(seed)
    lp = build(rng)
    objectives = [dict(lp.objective)] + [
        {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(lp.n)}
        for _ in range(3)
    ]

    def fresh(c):
        other = build(random.Random(seed))  # equal to ``lp``, never solved
        other.set_objective(c)
        return other

    first = answer(feasible_vertex(lp))
    assert first == answer(feasible_vertex(fresh(lp.objective)))
    # A, B, C, D, then A again: no solve may leave a mark on the kept tableau
    for c in objectives + objectives[:1]:
        lp.set_objective(c)
        assert answer(solve_vertex(lp)) == answer(solve_vertex(fresh(c)))
    assert answer(feasible_vertex(lp)) == first


def independent_rows(lp):
    """Rank of the constraint rows, each inequality row with a slack column
    of its own: the rows a feasible phase-1 tableau must keep."""
    rows = []
    for i, c in enumerate(lp.constraints):
        num = dict(c.row.num)
        if c.rel != "=":
            num[lp.n + i] = 1
        rows.append(Row(num))
    return _rank(rows)


def assert_keeps_independent_rows(lp):
    """The LP's kept phase-1 tableau holds exactly its independent rows,
    each with a basic real column that is a unit vector."""
    tab = lp._phase1
    assert tab.m == len(tab.T) == len(tab.basis) == len(tab.beta) == independent_rows(lp)
    assert tab.basic_set == set(tab.basis) and not tab.basic_set & tab.arts
    for i, (b, row) in enumerate(zip(tab.basis, tab.T)):
        assert row.num[b] == row.den
        assert not any(b in other.num for k, other in enumerate(tab.T) if k != i)


def test_repeated_equality_row_leaves_the_tableau():
    """An all-ones row repeated as is and doubled: phase 1 keys the first,
    and the two copies leave the tableau."""
    lp = LinearProgram()
    x, y, z = (lp.add_variable(name) for name in "xyz")
    lp.add_constraint({x: 1, y: 1, z: 1}, "=", 1)
    lp.add_constraint({x: 1, y: -1}, "<=", 0)
    lp.add_constraint({x: 1, y: 1, z: 1}, "=", 1)
    lp.add_constraint({x: 2, y: 2, z: 2}, "=", 2)
    lp.set_objective({x: -1, z: 1})
    assert exactlp._Tableau(lp).m == 4
    feasible_vertex(lp)
    assert lp._phase1.m == independent_rows(lp) == 2
    assert_keeps_independent_rows(lp)
    assert_matches_vertex_enumeration(lp)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([degenerate_lp, random_lp, rational_lp]), st.integers(0, 2**32))
def test_phase_one_keeps_only_independent_rows(build, seed):
    """``degenerate_lp`` repeats, scales and sums its rows."""
    lp = build(random.Random(seed))
    if feasible_vertex(lp).optimal:
        assert_keeps_independent_rows(lp)


def bland_from_the_start():
    """Lower the degenerate streak after which the simplex switches to
    Bland's rule to 0: the first degenerate step switches it."""
    return mock.patch.object(exactlp, "bland_switch_at", lambda m, ncols: 0)


def both_rules(build, seed):
    """The phase-1 vertex and the optimum of a fresh ``build(seed)`` under
    the default pricing and under Bland's rule from the first degenerate
    step; every answer has passed ``_finish``'s vertex certificate."""
    out = []
    for rule in (nullcontext(), bland_from_the_start()):
        with rule:
            out.append((feasible_vertex(build(random.Random(seed))),
                        solve_vertex(build(random.Random(seed)))))
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([random_lp, degenerate_lp, rational_lp]), st.integers(0, 2**32))
def test_blands_rule_reaches_the_same_optimum(build, seed):
    (first, opt), (bland_first, bland_opt) = both_rules(build, seed)
    assert bland_first.status == first.status == bland_opt.status == opt.status
    assert bland_opt.objective == opt.objective
    for sol in (bland_first, bland_opt):
        if sol.optimal:
            assert point_rank(build(random.Random(seed)), sol.values) == len(sol.values)


def test_lowered_switch_reaches_blands_rule():
    """Bland's rule picks another vertex on some degenerate LP, so the
    lowered switch does reach its pricing."""
    moved = 0
    for seed in range(100):
        default, bland = both_rules(degenerate_lp, seed)
        moved += [sol.values for sol in default] != [sol.values for sol in bland]
    assert moved


def test_growing_a_solved_lp_matches_a_fresh_lp():
    """``add_variable`` and ``add_constraint`` drop the kept tableau: each
    step below makes the previous answer wrong for the grown LP."""
    steps = [
        lambda lp: lp.add_constraint({0: 1, 1: 1}, "<=", 1),  # cuts off (1, 1)
        lambda lp: lp.add_variable("z"),  # z = 1 improves the objective
        lambda lp: lp.add_constraint({0: 1, 1: 1, 2: 1}, ">=", 3),  # empties it
    ]

    def grown(k):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_variable("y")
        for step in steps[:k]:
            step(lp)
        lp.set_objective({j: -1 for j in range(lp.n)})
        return lp

    lp = grown(0)
    assert solve_vertex(lp).values == [1, 1]
    for k, step in enumerate(steps, 1):
        step(lp)
        lp.set_objective({j: -1 for j in range(lp.n)})
        assert answer(feasible_vertex(lp)) == answer(feasible_vertex(grown(k)))
        assert answer(solve_vertex(lp)) == answer(solve_vertex(grown(k)))
    assert solve_vertex(lp).status == "infeasible"


def test_infeasible_lp_runs_phase_one_once(phase_one_runs):
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, ">=", 3)
    for c in ({x: 1}, {y: -1}):
        lp.set_objective(c)
        assert solve_vertex(lp).status == "infeasible"
        assert feasible_vertex(lp).status == "infeasible"
    assert len(phase_one_runs) == 1


def test_solved_lp_is_freed_without_the_cycle_collector():
    """The kept tableau holds no reference to its LP, so reference counting
    alone frees a solved LP."""
    lp = random_lp(random.Random(5))
    solve_vertex(lp)
    ref = weakref.ref(lp)
    gc.disable()
    try:
        del lp
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the crash start
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
# rows that look like agent rows but must start on an artificial
DECOYS = ("shared", "over", "lower", "two", "negative")


@st.composite
def agent_lps(draw, decoys=st.lists(st.sampled_from(DECOYS), max_size=3)):
    """An LP with agent-like rows, as ``(lp, agent_rows, decoy_rows)``.

    The variables of a ``random_lp``, ``degenerate_lp`` or ``rational_lp``
    come first.  Then 1-3 agents, each an all-ones ``=`` row with a
    right-hand side in {0, 1/2, 1} over 1-2 fresh columns with lower bound
    0 and upper bounds at least that; then the decoy rows, each over fresh
    columns.  The base rows come last as coupling rows, with coefficients
    on the new columns, and right-hand sides moved so that a point meeting
    the agent and decoy rows adds nothing to them: the LP is as feasible as
    its base, unless a decoy has a negative right-hand side."""
    build = draw(st.sampled_from([random_lp, degenerate_lp, rational_lp]))
    base = build(random.Random(draw(st.integers(0, 2**32))), max_vars=3)
    lp = LinearProgram()
    for v in base.variables:
        lp.add_variable(v.name, v.lb, v.ub)
    point = {}  # a point of the agent and decoy rows, on their columns

    def column(value, lb=0, ub=1):
        j = lp.add_variable(f"y{lp.n}", lb, ub)
        point[j] = Fraction(value)
        return j

    agents = []
    for _ in range(draw(st.integers(1, 3))):
        rhs = draw(st.sampled_from([Fraction(0), HALF, Fraction(1)]))
        ub = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])
        ubs = draw(st.lists(ub, min_size=1, max_size=2))
        cols = [column(rhs if k == 0 else 0, ub=ub) for k, ub in enumerate(ubs)]
        agents.append((lp.add_constraint(dict.fromkeys(cols, 1), "=", rhs), cols))
    decoy_rows = []
    for kind in draw(decoys):
        if kind == "shared":  # an all-ones row through a column of an agent row
            shared = draw(st.sampled_from(draw(st.sampled_from(agents))[1]))
            fresh = column(draw(st.sampled_from([0, HALF, 1])))
            coeffs = {shared: 1, fresh: 1}
        elif kind == "over":  # the right-hand side above every column's ub
            coeffs = {column(1): 1, column(HALF): 1}
        elif kind == "lower":  # a column with a nonzero lower bound
            lb = draw(st.sampled_from([-HALF, HALF]))
            coeffs = {column(1): 1, column(lb, lb=lb): 1}
        elif kind == "two":  # a coefficient of 2
            coeffs = {column(HALF): 2, column(0): 1}
        else:  # a negative right-hand side, over columns with lower bound 0
            coeffs = {column(0): 1, column(0): 1}
            point[min(coeffs)] = Fraction(-1)  # so the row reads -1: no point meets it
        rhs = sum(a * point[j] for j, a in coeffs.items())
        decoy_rows.append(lp.add_constraint(coeffs, "=", rhs))
    coupling = st.sampled_from([0, 0, 1, -1, 2])
    for c in base.constraints:
        coeffs = dict(c.coeffs)
        for j in point:
            coeffs[j] = draw(coupling)
        lp.add_constraint(coeffs, c.rel, c.rhs + sum(coeffs[j] * point[j] for j in point))
    lp.set_objective({j: draw(st.integers(-3, 3)) for j in range(lp.n)})
    return lp, [i for i, _ in agents], decoy_rows


def assert_matches_vertex_enumeration(lp):
    """For the LP's objective and its negation, ``solve_vertex`` returns the
    best vertex the oracle finds, and says infeasible exactly when the
    oracle finds none."""
    vertices = vertex_enumerate(lp)
    for c in (dict(lp.objective), {j: -v for j, v in lp.objective.items()}):
        lp.set_objective(c)
        sol = solve_vertex(lp)
        if not vertices:
            assert sol.status == "infeasible"
            continue
        assert sol.optimal
        best = min(sum((a * v[j] for j, a in c.items()), Fraction(0)) for v in vertices)
        assert sol.objective == best
        assert sol.values in vertices
        assert point_rank(lp, sol.values) == lp.n


@pytest.mark.parametrize("rule", ["default", "bland"])
@settings(max_examples=150, deadline=None)
@given(agent_lps())
def test_crash_start_matches_vertex_enumeration(rule, case):
    lp, _, _ = case
    with bland_from_the_start() if rule == "bland" else nullcontext():
        assert_matches_vertex_enumeration(lp)


@pytest.mark.parametrize("kind", DECOYS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rows_that_must_not_be_keyed_start_on_artificials(kind, data):
    """Every agent row starts on a key column, every decoy row on an
    artificial, each basic column is a unit vector at a value >= 0, and
    the answers are the oracle's: a decoy of the kind, alone or next to a
    decoy sharing a column with an agent row."""
    decoys = st.sampled_from([[kind], [kind, "shared"]])
    lp, agent_rows, decoy_rows = data.draw(agent_lps(decoys=decoys))
    tab = exactlp._Tableau(lp)
    assert all(tab.basis[i] < lp.n for i in agent_rows)
    assert all(tab.basis[i] in tab.arts for i in decoy_rows)
    for i, (b, row) in enumerate(zip(tab.basis, tab.T)):
        assert row.num[b] == row.den and tab.beta[i][0] >= 0
        assert not any(b in other.num for k, other in enumerate(tab.T) if k != i)
    assert_matches_vertex_enumeration(lp)


@contextmanager
def phase_one_pivots():
    """The number of pivots of each phase 1 run in the block."""
    runs = []
    phase1, pivot = exactlp._Tableau.phase1, exactlp._Tableau._pivot_matrix

    def counted_phase1(self):
        runs.append(0)

        def counted_pivot(i, j):
            runs[-1] += 1
            pivot(self, i, j)

        self._pivot_matrix = counted_pivot  # shadows the method until phase 1 ends
        try:
            return phase1(self)
        finally:
            del self._pivot_matrix

    with mock.patch.object(exactlp._Tableau, "phase1", counted_phase1):
        yield runs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_settled_rows_need_no_phase_one_pivot(data):
    """Agent rows and inequality rows that hold wherever the agents sit
    start settled: no artificial, no phase-1 pivot, and the oracle's
    answer.  One more all-ones row sharing an agent's column starts on the
    only artificial."""
    draw = data.draw
    lp = LinearProgram()
    agents = []
    for _ in range(draw(st.integers(1, 4))):
        rhs = draw(st.sampled_from([Fraction(0), HALF, Fraction(1)]))
        cols = [lp.add_variable(f"a{lp.n}", 0, 1) for _ in range(draw(st.integers(1, 3)))]
        agents.append((cols, rhs))
        lp.add_constraint(dict.fromkeys(cols, 1), "=", rhs)
    shared = draw(st.booleans())
    if shared:
        cols, rhs = agents[0]
        lp.add_constraint({cols[-1]: 1, lp.add_variable(f"s{lp.n}", 0, 1): 1}, "=", rhs)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {j: draw(st.integers(0, 2)) for j in range(lp.n)}
        if draw(st.booleans()):
            # at most every agent's largest coefficient times its total
            cap = sum(max(coeffs[j] for j in cols) * rhs for cols, rhs in agents)
            lp.add_constraint(coeffs, "<=", cap + draw(st.sampled_from([0, HALF, 1])))
        else:
            lp.add_constraint(coeffs, ">=", draw(st.sampled_from([0, -1])))
    lp.set_objective({j: draw(st.integers(-3, 3)) for j in range(lp.n)})
    assert len(exactlp._Tableau(lp).arts) == shared
    with phase_one_pivots() as runs:
        feasible_vertex(lp)
    assert runs == [0] or shared
    assert_matches_vertex_enumeration(lp)


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__",
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(agent_lps().map(lambda case: case[0]),
                 st.integers(0, 2**32).map(lambda seed: rational_lp(random.Random(seed)))))
def test_tableau_build_does_no_fraction_arithmetic(lp):
    """The start point, its residuals and the key choice are integer
    arithmetic on the rows' numerators and the bounds' integer pairs."""
    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the tableau build")

    with ExitStack() as stack:
        for name in FRACTION_ARITHMETIC:
            stack.enter_context(mock.patch.object(Fraction, name, refuse))
        exactlp._Tableau(lp)


def test_objective_rejects_unknown_variables():
    """An index past the variables used to price a slack column (and crash
    in ``_finish``), and a negative one was silently dropped."""
    lp = LinearProgram()
    a = lp.add_variable("a")
    b = lp.add_variable("b")
    lp.add_constraint({a: 1, b: 1}, "<=", 1)
    for j in (2, -1):
        with pytest.raises(InvalidInstanceError, match=f"objective .* unknown variable {j}$"):
            lp.set_objective({j: -1})
    lp.set_objective({b: -1})
    assert solve_vertex(lp).objective == -1
