"""LP engine: optimality, vertex certificates, determinism, cross-checks."""

import gc
import random
import weakref
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from nearfair.exactlp import (
    LinearProgram,
    Row,
    _rank,
    feasible_vertex,
    solve_vertex,
    vertex_rank,
)
from nearfair.oracle import vertex_enumerate

from generators import degenerate_lp, random_lp


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
            assert vertex_rank(lp, sol.values) == lp.n
    assert optimal > 30


def test_value_matches_vertex_enumeration():
    rng = random.Random(13)
    compared = 0
    for _ in range(60):
        lp = random_lp(rng, max_vars=4)
        sol = solve_vertex(lp)
        vertices = vertex_enumerate(lp)
        if sol.optimal:
            compared += 1
            best = min(
                sum((c * v[j] for j, c in lp.objective.items()), Fraction(0))
                for v in vertices
            )
            assert sol.objective == best
        else:
            assert not vertices
    assert compared > 15


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
    # triangle x + y <= 1: the hypotenuse midpoint has one tight row
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, "<=", 1)
    half = Fraction(1, 2)
    assert vertex_rank(lp, [half, half]) == lp.n - 1
    assert vertex_rank(lp, [1, 0]) == lp.n
    # a tight row that repeats an at-bound column must not count twice
    lp2 = LinearProgram()
    x = lp2.add_variable("x")
    y = lp2.add_variable("y")
    lp2.add_constraint({y: 1}, "<=", 0)
    lp2.add_constraint({y: 2}, "=", 0)
    assert vertex_rank(lp2, [half, 0]) == lp2.n - 1
    # simplex edge in three variables: one bound plus the equality
    lp3 = LinearProgram()
    for name in "xyz":
        lp3.add_variable(name)
    lp3.add_constraint({0: 1, 1: 1, 2: 1}, "=", 1)
    assert vertex_rank(lp3, [half, half, 0]) == lp3.n - 1
    assert vertex_rank(lp3, [0, 1, 0]) == lp3.n



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
