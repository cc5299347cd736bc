"""Brute-force oracle: enumeration counts and deviation frontiers."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearfair import oracle
from nearfair.errors import InvariantViolation, ScaleExceededError
from nearfair.exactlp import LinearProgram
from nearfair.fairness import allocation_polytope
from nearfair.model import AgentSpec, Allocation, Bundle, Instance, UtilityModel
from nearfair.oracle import (
    best_deviation,
    enumerate_integral,
    enumerate_roundings,
    vertex_enumerate,
)

from nearfair.rationals import over_lcm

from generators import coefficients, degenerate_lp, random_couples, random_lp, rational_lp


def two_bundle_instance(binding):
    return Instance(
        [AgentSpec("a", 1)], [("r1", 1), ("r2", 1)],
        binding={"a"} if binding else set(),
    )


def test_enumerate_binding_agent():
    assert len(list(enumerate_integral(two_bundle_instance(True)))) == 2


def test_enumerate_nonbinding_includes_empty():
    allocs = list(enumerate_integral(two_bundle_instance(False)))
    assert len(allocs) == 3
    assert any(not a.values for a in allocs)


def test_enumerate_product():
    inst = Instance(
        [AgentSpec("a", 1), AgentSpec("b", 1)],
        [("r1", 2), ("r2", 2)],
        binding={"a", "b"},
    )
    assert len(list(enumerate_integral(inst))) == 4


def test_vertex_unit_square():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    assert len(vertex_enumerate(lp)) == 4


def test_vertex_simplex():
    lp = LinearProgram()
    for i in range(3):
        lp.add_variable(f"x{i}")
    lp.add_constraint({0: 1, 1: 1, 2: 1}, "=", 1)
    vertices = vertex_enumerate(lp)
    assert sorted(vertices) == [
        [0, 0, 1],
        [0, 1, 0],
        [1, 0, 0],
    ]


def test_vertex_degenerate_redundant_row():
    lp = LinearProgram()
    lp.add_variable("x")
    lp.add_variable("y")
    lp.add_constraint({0: 1, 1: 1}, "<=", 2)  # touches only the far corner
    assert len(vertex_enumerate(lp)) == 4


def _degenerate_lps():
    """LPs with vertices where more than n rows are tight."""
    pyramid = LinearProgram()  # apex (1/2, 1/2, 1/2) has four tight rows
    x, y, z = (pyramid.add_variable(v) for v in "xyz")
    pyramid.add_constraint({z: 1, x: -1}, "<=", 0)
    pyramid.add_constraint({z: 1, y: -1}, "<=", 0)
    pyramid.add_constraint({z: 1, x: 1}, "<=", 1)
    pyramid.add_constraint({z: 1, y: 1}, "<=", 1)

    duplicates = LinearProgram()  # dependent equalities, repeated inequality
    x, y, z = (duplicates.add_variable(v) for v in "xyz")
    duplicates.add_constraint({x: 1, y: 1, z: 1}, "=", 1)
    duplicates.add_constraint({x: 2, y: 2, z: 2}, "=", 2)
    duplicates.add_constraint({x: 1, y: -1}, "<=", 0)
    duplicates.add_constraint({x: 1, y: -1}, "<=", 0)

    negative = LinearProgram()  # origin is tight on three rows in 2-d
    x = negative.add_variable("x", -1, 1)
    y = negative.add_variable("y", -1, 1)
    negative.add_constraint({x: 1, y: 1}, "<=", 0)
    negative.add_constraint({x: 1, y: -1}, "<=", 0)
    negative.add_constraint({x: 1}, "<=", 0)
    negative.add_constraint({x: 2, y: Fraction(1, 2)}, ">=", Fraction(-5, 2))

    half_cube = LinearProgram()
    for i in range(4):
        half_cube.add_variable(f"x{i}")
    half_cube.add_constraint({0: 1, 1: 1, 2: 1, 3: 1}, "=", 2)
    half_cube.add_constraint({0: 1, 1: 1}, "<=", 1)
    half_cube.add_constraint({2: 1, 3: 1}, ">=", 1)
    return [pyramid, duplicates, negative, half_cube]


def test_vertex_degenerate_lps_pinned():
    h = Fraction(1, 2)
    expected = [
        [[0, 0, 0], [0, 1, 0], [h, h, h], [1, 0, 0], [1, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [h, h, 0]],
        [[-1, -1], [-1, 1], [0, 0]],
        [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0]],
    ]
    assert [vertex_enumerate(lp) for lp in _degenerate_lps()] == expected


def test_vertex_guard():
    lp = LinearProgram()
    for i in range(21):
        lp.add_variable(f"x{i}")
    with pytest.raises(ScaleExceededError):
        vertex_enumerate(lp)


def _integer_row(coeffs, rhs, n):
    row = [Fraction(coeffs.get(j, 0)) for j in range(n)] + [Fraction(rhs)]
    scale = math.lcm(*(v.denominator for v in row))
    return [int(v * scale) for v in row]


def _solve_square(rows, n):
    """The unique solution of n integer equations in n unknowns, or None
    (fraction-free Bareiss elimination, then back substitution)."""
    m = [list(r) for r in rows]
    prev = 1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            m[r] = [(m[c][c] * m[r][k] - m[r][c] * m[c][k]) // prev for k in range(n + 1)]
        prev = m[c][c]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (m[c][n] - sum(m[c][k] * x[k] for k in range(c + 1, n))) / Fraction(m[c][c])
    return x


def _satisfies(lp, x):
    if any(not var.lb <= v <= var.ub for var, v in zip(lp.variables, x)):
        return False
    for c in lp.constraints:
        lhs = sum(a * x[j] for j, a in coefficients(c.row).items())
        if {"<=": lhs > c.rhs, ">=": lhs < c.rhs, "=": lhs != c.rhs}[c.rel]:
            return False
    return True


def brute_force_vertices(lp):
    """Textbook enumeration: solve every n-subset of bound and constraint
    rows, keep the feasible points, dedupe and sort."""
    rows = [_integer_row(coefficients(c.row), c.rhs, lp.n) for c in lp.constraints]
    for j, var in enumerate(lp.variables):
        rows += [_integer_row({j: 1}, bound, lp.n) for bound in (var.lb, var.ub)]
    points = set()
    for subset in itertools.combinations(rows, lp.n):
        x = _solve_square(subset, lp.n)
        if x is not None and _satisfies(lp, x):
            points.add(tuple(x))
    return [list(p) for p in sorted(points)]


def _rebox(rng, lp, fix=False):
    """Copy of lp with fresh bounds: negative and fractional, and with
    ``fix`` some variables fixed (lb == ub)."""
    out = LinearProgram()
    for var in lp.variables:
        lb = Fraction(rng.randint(-4, 2), rng.randint(1, 3))
        width = 0 if fix and rng.random() < 0.4 else Fraction(rng.randint(1, 6), rng.randint(1, 2))
        out.add_variable(var.name, lb, lb + width)
    for c in lp.constraints:
        out.add_constraint(coefficients(c.row), c.rel, c.rhs)
    return out


def shifted_lp(rng):
    return _rebox(rng, random_lp(rng, max_vars=4))


def fixed_lp(rng):
    return _rebox(rng, random_lp(rng, max_vars=4), fix=True)


def dependent_equalities_lp(rng):
    """Equalities through one rational point, then repeated, scaled and
    summed copies of them, plus a random inequality."""
    n = rng.randint(2, 4)
    point = [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}")
    rows = [
        {j: Fraction(rng.randint(-2, 2)) for j in range(n) if rng.random() < 0.8}
        for _ in range(rng.randint(1, 2))
    ]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        f = Fraction(rng.choice((-2, 0, 1, 3)), rng.choice((1, 2)))  # 0: a repeat of b
        rows.append({j: f * a.get(j, 0) + b.get(j, 0) for j in set(a) | set(b)})
    for coeffs in rows:
        lp.add_constraint(coeffs, "=", sum(v * point[j] for j, v in coeffs.items()))
    lp.add_constraint({j: Fraction(rng.randint(-2, 2)) for j in range(n)}, "<=", rng.randint(0, 2))
    return lp


def infeasible_lp(rng):
    """A random LP plus one row no point of the box satisfies."""
    lp = random_lp(rng, max_vars=4)
    total = sum(var.ub for var in lp.variables)
    lp.add_constraint({j: 1 for j in range(lp.n)}, rng.choice((">=", "=")), total + 1)
    return lp


def couples_lp(rng):
    ci, _ = random_couples(rng, max_agents=2, max_resources=2)
    return allocation_polytope(ci.instance)[0]


def packing_lp(rng):
    """'<=' rows with positive fractional coefficients over columns with
    lower bound 0 and fractional upper bounds: the rows that can make an
    upper bound redundant, over a row denominator above 1."""
    n = rng.randint(2, 4)
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
    for _ in range(rng.randint(1, 3)):
        coeffs = {j: Fraction(rng.randint(1, 3), rng.randint(1, 3)) for j in range(n)}
        lp.add_constraint(coeffs, "<=", Fraction(rng.randint(1, 6), rng.randint(1, 2)))
    return lp


VERTEX_CASES = {
    "random": lambda rng: random_lp(rng, max_vars=4),
    "shifted": shifted_lp,
    "degenerate": lambda rng: degenerate_lp(rng, max_vars=4),
    "fixed": fixed_lp,
    "dependent_equalities": dependent_equalities_lp,
    "infeasible": infeasible_lp,
    "couples": couples_lp,
    "packing": packing_lp,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(VERTEX_CASES)), st.integers(0, 2**32))
def test_vertex_enumerate_matches_brute_force(kind, seed):
    lp = VERTEX_CASES[kind](random.Random(seed))
    assert vertex_enumerate(lp) == brute_force_vertices(lp)


def test_vertex_cases_cover_their_kinds():
    """Each builder produces what its name promises on some seed."""
    assert not any(brute_force_vertices(infeasible_lp(random.Random(s))) for s in range(10))
    lps = [fixed_lp(random.Random(s)) for s in range(40)]
    assert any(v.lb == v.ub for lp in lps for v in lp.variables)
    assert any(v.lb < 0 and v.lb.denominator > 1 for lp in lps for v in lp.variables)
    assert all(couples_lp(random.Random(s)).n <= 5 for s in range(40))


def test_search_stays_on_lex_positive_bases(monkeypatch):
    """Every basis the search scans from keeps each row of
    (beta_i, T[i][start basis columns]) lexicographically positive."""
    scanned = 0
    real = oracle._lex_leaving

    def checked(rows, j, lex):
        nonlocal scanned
        for row in rows:
            # numerators over a positive denominator: the same signs as the values
            vec = [row.num.get(oracle._RHS, 0)] + [row.num.get(c, 0) for c in lex]
            assert next(v for v in vec if v) > 0
        scanned += 1
        return real(rows, j, lex)

    monkeypatch.setattr(oracle, "_lex_leaving", checked)
    rng = random.Random(5)
    lps = _degenerate_lps() + [degenerate_lp(rng) for _ in range(20)]
    lps += [allocation_polytope(random_couples(rng)[0].instance)[0] for _ in range(10)]
    for lp in lps:
        vertex_enumerate(lp)
    assert scanned > 1000


EPS = Fraction(1, 2**64)


def feasibility_mutants(lp, x):
    """``(what, point)``: x moved by 2**-64 across one bound it sits on
    (``what`` is "bound"), or, for a row it meets with equality, one
    coordinate of the row moved by 2**-64 so that the row is crossed while
    every bound still holds (``what`` is the row's relation)."""
    for j, var in enumerate(lp.variables):
        for bound, step in ((var.lb, -EPS), (var.ub, EPS)):
            if x[j] == bound:
                yield "bound", x[:j] + [bound + step] + x[j + 1 :]
    for c in lp.constraints:
        if sum(a * x[j] for j, a in coefficients(c.row).items()) != c.rhs:
            continue
        for up in {"<=": (1,), ">=": (-1,), "=": (1, -1)}[c.rel]:
            for j, a in coefficients(c.row).items():
                v = x[j] + (EPS if (a > 0) == (up > 0) else -EPS)
                if lp.variables[j].lb <= v <= lp.variables[j].ub:
                    yield c.rel, x[:j] + [v] + x[j + 1 :]
                    break


@pytest.mark.parametrize("make", [rational_lp, degenerate_lp])
def test_integer_vertex_check_rejects_every_near_miss(make):
    """The oracle checks each vertex with ``LinearProgram.check_point``, in
    integers; a point 2**-64 outside one bound or one row is rejected, as
    evaluating it in ``Fraction``s rejects it."""

    def check(x):
        return lp.check_point(*over_lcm(v.as_integer_ratio() for v in x))

    seen = dict.fromkeys(("bound", "<=", ">=", "="), 0)
    for seed in range(60):
        lp = make(random.Random(seed))
        for x in vertex_enumerate(lp):
            assert _satisfies(lp, x)
            check(x)
            for what, m in feasibility_mutants(lp, x):
                assert not _satisfies(lp, m)
                with pytest.raises(InvariantViolation):
                    check(m)
                seen[what] += 1
    assert all(seen.values()), seen


def test_vertex_origin_infeasible():
    lp = LinearProgram()
    x, y = lp.add_variable("x"), lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, ">=", 1)
    assert vertex_enumerate(lp) == [[0, 1], [1, 0], [1, 1]]


def test_vertex_max_vertices_guard(monkeypatch):
    lp = LinearProgram()
    for i in range(3):
        lp.add_variable(f"x{i}")
    monkeypatch.setattr(oracle, "MAX_VERTICES", 8)  # the cube has 8 vertices
    assert len(vertex_enumerate(lp)) == 8
    monkeypatch.setattr(oracle, "MAX_VERTICES", 7)
    with pytest.raises(ScaleExceededError):
        vertex_enumerate(lp)


def test_vertex_node_guard(monkeypatch):
    lp = LinearProgram()
    for i in range(3):
        lp.add_variable(f"x{i}")
    monkeypatch.setattr(oracle, "MAX_VERTEX_NODES", 8)  # the cube has 8 bases
    assert len(vertex_enumerate(lp)) == 8
    monkeypatch.setattr(oracle, "MAX_VERTEX_NODES", 7)
    with pytest.raises(ScaleExceededError):
        vertex_enumerate(lp)


def test_vertex_infeasible_point_is_an_invariant_violation(monkeypatch):
    lp = LinearProgram()
    x, y = lp.add_variable("x", 0, 2), lp.add_variable("y", 0, 2)
    lp.add_constraint({x: 1, y: 1}, ">=", 3)
    assert vertex_enumerate(lp) == [[1, 2], [2, 1], [2, 2]]
    # without its upper-bound rows the search reaches (3, 0)
    monkeypatch.setattr(oracle, "_redundant_upper_bound", lambda lp, j: True)
    with pytest.raises(InvariantViolation):
        vertex_enumerate(lp)


def square_instance():
    inst = Instance(
        [AgentSpec("a1", 1), AgentSpec("a2", 1)],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
    )
    u = UtilityModel(
        additive={"a1": {"r1": 1, "r2": 1}, "a2": {"r1": 1, "r2": 1}}
    )
    return inst, u


def test_best_deviation_integral_is_zero():
    inst, u = square_instance()
    x = Allocation({("a1", Bundle.of({"r1": 1})): 1, ("a2", Bundle.of({"r2": 1})): 1})
    assert best_deviation(inst, x, u) == [(0, 0, 0)]


def test_best_deviation_half_matching():
    inst, u = square_instance()
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    x = Allocation(
        {
            ("a1", b1): Fraction(1, 2),
            ("a1", b2): Fraction(1, 2),
            ("a2", b1): Fraction(1, 2),
            ("a2", b2): Fraction(1, 2),
        }
    )
    frontier = best_deviation(inst, x, u)
    assert (0, 0, 0) in frontier  # both perfect matchings achieve it


def test_roundings_respect_binding():
    inst, u = square_instance()
    b1, b2 = Bundle.of({"r1": 1}), Bundle.of({"r2": 1})
    x = Allocation(
        {
            ("a1", b1): Fraction(1, 2),
            ("a1", b2): Fraction(1, 2),
            ("a2", b1): Fraction(1, 2),
            ("a2", b2): Fraction(1, 2),
        }
    )
    roundings = list(enumerate_roundings(inst, x))
    assert len(roundings) == 4
    for y in roundings:
        assert y.check_allocation(inst, capacities=False) == []  # a1, a2 binding
