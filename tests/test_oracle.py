"""Brute-force oracle: enumeration counts and deviation frontiers."""

from fractions import Fraction

import pytest

from nearfair.errors import ScaleExceededError
from nearfair.exactlp import LinearProgram
from nearfair.model import AgentSpec, Allocation, Bundle, Instance, UtilityModel
from nearfair.oracle import (
    best_deviation,
    enumerate_integral,
    enumerate_roundings,
    vertex_enumerate,
)


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
        assert y.agent_total("a1") == 1
        assert y.agent_total("a2") == 1
