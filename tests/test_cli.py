"""CLI surface: schema round-trips, subcommands, exit codes."""

import gc
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nearfair import apportionment, couples, envyfree
from nearfair.cli import build_parser, main
from nearfair.couples import CouplesInstance
from nearfair.model import AgentSpec, Allocation, Bundle, Instance, UtilityModel, enumerate_bundles
from nearfair.rounding import DeviationBudget, forced_psi, iterative_round, min_Delta
from nearfair.schema import (
    bundle_from_json,
    bundle_to_json,
    dump_json,
    parse_allocation,
    parse_couples,
    parse_instance,
    parse_ma,
    serialize_allocation,
    serialize_instance,
)
from nearfair.apportionment import MAInstance
from nearfair.errors import SchemaError
from nearfair.fairness import FairObjective

from generators import serialize_couples, serialize_ma


def demo_instance():
    agents = [
        AgentSpec("a1", 1, {"g": "g1"}),
        AgentSpec("a2", 2, {"g": "g2"}),
    ]
    inst = Instance(
        agents,
        [("r1", 2), ("r2", 1)],
        binding={"a1"},
        dimensions=("g",),
        acceptability={("a1", "r1"), ("a1", "r2"), ("a2", "r1"), ("a2", "r2")},
    )
    u = UtilityModel(
        additive={
            "a1": {"r1": Fraction(1, 2), "r2": 3},
            "a2": {"r1": 1, "r2": Fraction(5, 2)},
        }
    )
    return inst, u


# -- schema round-trips ---------------------------------------------------------


def test_instance_round_trip():
    inst, u = demo_instance()
    doc = serialize_instance(inst, u)
    text = json.dumps(doc)
    inst2, u2 = parse_instance(json.loads(text))
    assert [a.id for a in inst2.agents] == [a.id for a in inst.agents]
    assert inst2.binding == inst.binding
    assert inst2.resources == inst.resources
    assert inst2.acceptability == inst.acceptability
    assert inst2.dimensions == inst.dimensions
    for a in inst.agents:
        for q in enumerate_bundles(a.id, inst):
            assert u2.of(a.id, q) == u.of(a.id, q)
    assert serialize_instance(inst2, u2) == doc


def test_allocation_round_trip():
    b = Bundle.of({"r1": 2})
    alloc = Allocation({("a2", b): Fraction(1, 3)})
    doc = serialize_allocation(alloc)
    assert parse_allocation(doc).values == alloc.values
    assert bundle_from_json(bundle_to_json(b)) == b


def test_couples_round_trip():
    inst = Instance(
        [AgentSpec("c", 2), AgentSpec("s", 1)], [("r1", 2), ("r2", 1)], binding=set()
    )
    ci = CouplesInstance(
        inst,
        {"r1": ["c", "s"], "r2": ["s", "c"]},
        {
            "c": enumerate_bundles("c", inst),
            "s": enumerate_bundles("s", inst),
        },
    )
    u = UtilityModel(additive={"c": {"r1": 1, "r2": 1}, "s": {"r1": 2, "r2": 1}})
    doc = serialize_couples(ci, u)
    ci2, _ = parse_couples(json.loads(json.dumps(doc)))
    assert ci2.resource_prefs == ci.resource_prefs
    assert ci2.agent_prefs == ci.agent_prefs


def test_ma_round_trip():
    ma = MAInstance(
        dims=("party", "district"),
        groups={"party": ("p0", "p1"), "district": ("d0",)},
        votes={("p0", "d0"): 4, ("p1", "d0"): 2},
        lower={("district", "d0"): 6},
        upper={("district", "d0"): 6},
        house=6,
    )
    doc = serialize_ma(ma)
    ma2 = parse_ma(json.loads(json.dumps(doc)))
    assert ma2.votes == ma.votes and ma2.lower == ma.lower and ma2.house == ma.house


def test_bundle_utilities_round_trip():
    inst = Instance(
        [AgentSpec("a1", 2), AgentSpec("a2", 1)], [("r1", 2), ("r2", 1)], binding={"a2"}
    )
    u = UtilityModel(
        explicit={
            (a, q): Fraction(i + 1, 3)
            for a in ("a1", "a2")
            for i, q in enumerate(enumerate_bundles(a, inst))
        }
    )
    doc = serialize_instance(inst, u)
    assert all("bundleUtilities" in agent for agent in doc["agents"])
    inst2, u2 = parse_instance(json.loads(json.dumps(doc)))
    assert u2.explicit == u.explicit
    assert serialize_instance(inst2, u2) == doc


def test_floats_rejected():
    with pytest.raises(SchemaError):
        parse_instance(
            {
                "agents": [{"id": "a", "utilities": {"r1": 0.5}}],
                "resources": [{"id": "r1", "capacity": 1}],
            }
        )


# -- CLI flows -------------------------------------------------------------------


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_budget_command_paper_pair(capsys):
    code = main(["budget", "assignment", "--alpha", "3", "--delta", "2", "--omega", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] and out["slack"] == "0"


def test_budget_command_fails(capsys):
    code = main(["budget", "assignment", "--alpha", "1", "--delta", "1", "--omega", "1"])
    assert code == 3
    code = main(["budget", "--alpha", "3", "--delta", "3", "--omega", "1", "--psi", "1"])
    assert code == 0


def test_budget_command_matches_library_conditions(capsys):
    from nearfair.couples import couples_condition
    from nearfair.envyfree import HomogeneousInstance, ef_condition
    from nearfair.fairness import delta_plus_bound, fairness_condition
    from nearfair.rounding import CONDITIONS, DeviationBudget, check_condition

    def cli(*flags):
        main(["budget", *flags])
        return json.loads(capsys.readouterr().out)

    single = Instance([AgentSpec("s", 1)], [("r1", 1)])
    ci = CouplesInstance(single, {"r1": ["s"]}, {"s": enumerate_bundles("s", single)})
    for ks in [(1,), (2,), (3,), (2, 2), (3, 1)]:
        for omega in (1, 2):
            n = max(ks) + 1
            agents = [
                AgentSpec(f"a{i}", omega, {f"d{l}": f"g{i % k}" for l, k in enumerate(ks)})
                for i in range(n)
            ]
            inst = Instance(agents, [("r1", omega), ("r2", omega)])
            h = HomogeneousInstance(
                inst, UtilityModel(additive={a.id: {"r1": 1, "r2": 2} for a in agents})
            )
            for alpha in [(1,) * len(ks), (3,) * len(ks), (7,) * len(ks)]:
                for delta in (0, 2, 5):
                    base = ["--alpha", ",".join(map(str, alpha)), "--delta", str(delta),
                            "--omega", str(omega)]
                    groups = ",".join(map(str, ks))
                    out = cli("assignment", *base, "--agents", str(n), "--resources", "2",
                              "--groups", groups)
                    assert out["slack"] == str(fairness_condition(inst, alpha, delta))
                    assert out["delta_plus"] == delta_plus_bound(inst, delta)
                    assert out["condition"] == CONDITIONS["assignment"].text
                    out = cli("couples", *base[:4])  # omega is fixed at 2
                    assert out["slack"] == str(couples_condition(ci, alpha, delta))
                    assert out["condition"] == CONDITIONS["couples"].text
                    out = cli("envyfree", *base, "--groups", groups)
                    assert out["slack"] == str(ef_condition(h, alpha, delta))
                    assert out["condition"] == CONDITIONS["envyfree"].text
                    out = cli(*base)
                    budget = DeviationBudget(alpha, delta, None, 1, omega)
                    assert out["slack"] == str(check_condition(budget))
                    assert out["condition"] == CONDITIONS["round"].text


@pytest.mark.parametrize(
    "flags",
    [
        ["assignment", "--alpha", "1", "--delta", "-2"],
        ["couples", "--alpha", "1", "--delta", "-2"],
        ["envyfree", "--alpha", "1", "--delta", "-1", "--groups", "2"],
        ["assignment", "--alpha", "-2", "--delta", "4"],
        ["assignment", "--alpha", "3", "--delta", "2", "--omega", "0"],
        ["--alpha", "3", "--delta", "3", "--omega", "0"],
    ],
)
def test_budget_command_rejects_invalid_budgets(capsys, flags):
    """Negative alpha or delta and omega* < 1 are budget errors (exit 3) in
    every mode, never a traceback or a pass."""
    assert main(["budget", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget: ")


def test_budget_apportion_matches_ma_condition(capsys):
    for alpha in [(0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 0), (2, 2, 2)]:
        ma = MAInstance(
            dims=tuple(f"d{l}" for l in range(len(alpha))),
            groups={f"d{l}": ("g",) for l in range(len(alpha))},
            votes={("g",) * len(alpha): 1},
            lower={},
            upper={},
            house=1,
        )
        slack = apportionment.ma_condition(ma, alpha)
        code = main(["budget", "apportion", "--alpha", ",".join(map(str, alpha))])
        out = json.loads(capsys.readouterr().out)
        assert out["slack"] == str(slack) and out["passed"] == (slack >= 0)
        assert code == (0 if slack >= 0 else 3)


def test_budget_with_a_tight_condition_and_psi_0_has_no_min_Delta(capsys):
    # psi/2 + 1/(alpha+1) + omega/(delta+1) = 0 + 1/2 + 1/2 = 1
    code = main(["budget", "--alpha", "1", "--delta", "1", "--omega", "1", "--psi", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] and out["slack"] == "0"
    assert out["min_Delta"] is None
    assert "tight" in out["min_Delta_error"]


@pytest.mark.parametrize(
    "flags",
    [
        ["assignment", "couples", "--alpha", "3", "--delta", "2"],  # one market per run
        ["envyfree", "--alpha", "3", "--delta", "2"],  # no group counts
        ["nowhere", "--alpha", "3", "--delta", "2"],
        ["assignment", "--alpha", "3"],  # no delta
        # a flag the row does not read
        ["apportion", "--alpha", "1", "--delta", "-1"],
        ["apportion", "--alpha", "1", "--omega", "1"],
        ["couples", "--alpha", "3", "--delta", "2", "--omega", "1"],
        ["assignment", "--alpha", "3", "--delta", "2", "--psi", "0"],
        ["couples", "--alpha", "7", "--delta", "14", "--agents", "5"],
        ["round", "--alpha", "3", "--delta", "3", "--resources", "2"],
        ["envyfree", "--alpha", "7", "--delta", "3", "--groups", "2", "--agents", "5"],
        ["apportion", "--alpha", "1", "--agents", "5", "--resources", "2"],
        ["couples", "--alpha", "7", "--delta", "14", "--groups", "2"],
        ["round", "--alpha", "3", "--delta", "3", "--groups", "2"],
        # delta_plus reads both sizes
        ["assignment", "--alpha", "3", "--delta", "3", "--agents", "5"],
        ["assignment", "--alpha", "3", "--delta", "3", "--resources", "2"],
    ],
)
def test_budget_usage_errors_exit_1_without_a_traceback(capsys, flags):
    assert _exit_code(["budget", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: " in captured.err


def test_gen_round_trip_and_solve(tmp_path, capsys):
    out_file = tmp_path / "inst.json"
    code = main(["gen", "lowerbound", "--kind", "utility-cycle", "-n", "4", "--out", str(out_file)])
    assert code == 0
    inst, u = parse_instance(json.loads(out_file.read_text()))
    assert len(inst.agents) == 4 and u is not None
    code = main(
        [
            "solve", "assignment", "--instance", str(out_file),
            "--alpha", "2", "--delta", "4",
            "--out", str(tmp_path / "sol.json"),
        ]
    )
    assert code == 0
    sol = json.loads((tmp_path / "sol.json").read_text())
    assert sol["certificate"]["violations"] == []


@pytest.mark.parametrize(
    "objective, path", [("utilitarian", "exact_lp"), ("proportional", "frank_wolfe")]
)
def test_solve_assignment_names_the_fractional_path(tmp_path, capsys, objective, path):
    inst_file = write(tmp_path, "inst.json", serialize_instance(*demo_instance()))
    code = main(["solve", "assignment", "--instance", inst_file, "--alpha", "3",
                 "--delta", "6", "--objective", objective])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["fractional_path"] == path


def test_proportional_fractional_point_checks_against_its_rounding(tmp_path, capsys):
    """``solve assignment`` rounds the Frank-Wolfe point itself, so ``check``
    certifies the printed rounding against the printed ``fractional`` at the
    rounder's budget (delta + 1, psi 1)."""
    inst_file = str(tmp_path / "inst.json")
    assert main(["gen", "lowerbound", "--kind", "capacity", "-n", "6", "--out", inst_file]) == 0
    code = main(["solve", "assignment", "--instance", inst_file, "--objective", "proportional",
                 "--alpha", "3", "--delta", "6"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fractional_path"] == "frank_wolfe"
    x_file = write(tmp_path, "x.json", {"entries": out["fractional"]})
    y_file = write(tmp_path, "y.json", {"entries": out["allocation"]})
    code = main(["check", "--instance", inst_file, "--allocation", y_file, "--against", x_file,
                 "--alpha", "3", "--delta", "7", "--psi", "1"])
    checked = json.loads(capsys.readouterr().out)
    assert code == 0
    assert checked["allocation_problems"] == []
    assert checked["certificate"]["violations"] == []


def test_round_identity_on_integral(tmp_path, capsys):
    inst, u = demo_instance()
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    alloc = Allocation(
        {("a1", Bundle.of({"r2": 1})): 1, ("a2", Bundle.of({"r1": 2})): 1}
    )
    alloc_file = write(tmp_path, "x.json", serialize_allocation(alloc))
    code = main(
        ["round", "--instance", inst_file, "--allocation", alloc_file,
         "--alpha", "3", "--delta", "7", "--psi", "1"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert parse_allocation({"entries": out["allocation"]}).values == alloc.values
    assert out["certificate"]["iterations"] == 0


def demo_allocation():
    """A fractional allocation of ``demo_instance`` that needs rounding."""
    return Allocation(
        {
            ("a1", Bundle.of({"r1": 1})): Fraction(1, 2),
            ("a1", Bundle.of({"r2": 1})): Fraction(1, 2),
            ("a2", Bundle.of({"r1": 2})): Fraction(1, 2),
            ("a2", Bundle.of({"r1": 1, "r2": 1})): Fraction(1, 2),
        }
    )


def test_dump_json_round_trips_a_certificate_and_leaves_no_garbage(tmp_path):
    """Outputs are compact JSON: the text and the file decode to the
    document, and writing them leaves nothing for the cycle collector."""
    inst, u = demo_instance()
    y, cert = iterative_round(inst, demo_allocation(), u, DeviationBudget((3,), 7, 2, 1, 2))
    doc = {"allocation": serialize_allocation(y)["entries"], "certificate": cert.to_json()}
    assert doc["certificate"]["trace"]
    path = tmp_path / "out.json"
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        text = dump_json(doc, str(path))
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []
    assert "\n" not in text and ", " not in text and ": " not in text
    assert json.loads(text) == doc
    assert path.read_text() == text + "\n"


def test_check_reproduces_certificate(tmp_path, capsys):
    inst, u = demo_instance()
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    x_file = write(tmp_path, "x.json", serialize_allocation(demo_allocation()))
    code = main(
        ["round", "--instance", inst_file, "--allocation", x_file,
         "--alpha", "3", "--delta", "7", "--psi", "1",
         "--out", str(tmp_path / "rounded.json")]
    )
    assert code == 0
    rounded = json.loads((tmp_path / "rounded.json").read_text())
    y_file = write(tmp_path, "y.json", {"entries": rounded["allocation"]})
    code = main(
        ["check", "--instance", inst_file, "--allocation", y_file,
         "--against", x_file, "--alpha", "3", "--delta", "7",
         "--Delta", "2", "--psi", "1", "--oracle"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["certificate"]["group_deviations"] == rounded["certificate"]["group_deviations"]
    assert out["certificate"]["resource_deviations"] == rounded["certificate"]["resource_deviations"]
    assert out["allocation_problems"] == []
    assert out["oracle_frontier"]


def two_dimension_case():
    """A two-dimension market and a fractional point where no agent holds
    two fractional bundles, so ``forced_psi`` leaves psi at 0."""
    agents = [
        AgentSpec("a1", 1, {"g": "g1", "h": "h1"}),
        AgentSpec("a2", 1, {"g": "g2", "h": "h1"}),
        AgentSpec("a3", 1, {"g": "g2", "h": "h2"}),
    ]
    inst = Instance(agents, [("r1", 2), ("r2", 1)], binding={"a1"}, dimensions=("g", "h"))
    u = UtilityModel(additive={a.id: {"r1": 1, "r2": 2} for a in agents})
    x = Allocation(
        {
            ("a1", Bundle.of({"r2": 1})): 1,
            ("a2", Bundle.of({"r1": 1})): Fraction(1, 2),
            ("a3", Bundle.of({"r1": 1})): Fraction(1, 2),
        }
    )
    return inst, u, x


@pytest.mark.parametrize("case, psi", [("one dimension", 1), ("two dimensions", 0)])
def test_round_and_check_default_psi_to_forced_psi(tmp_path, capsys, case, psi):
    """``round`` and ``check`` without ``--psi`` take the psi ``forced_psi``
    gives.  In the two-dimension market psi 0 and delta 3 leave slack 1/4,
    so the least Delta is 3, and psi 1 would fail the condition."""
    if case == "one dimension":  # a1 holds two fractional bundles
        inst, u = demo_instance()
        x = demo_allocation()
        alpha, delta = "3", 7
    else:
        inst, u, x = two_dimension_case()
        alpha, delta = "3,3", 3
    assert forced_psi(x, len(inst.dimensions)) == psi
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    x_file = write(tmp_path, "x.json", serialize_allocation(x))
    flags = ["--instance", inst_file, "--alpha", alpha, "--delta", str(delta)]

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    rounded = run("round", "--allocation", x_file, *flags)
    assert rounded == run("round", "--allocation", x_file, *flags, "--psi", str(psi))
    assert rounded[0] == 0
    # the total bound is omega* times the least Delta the default psi admits
    bound = json.loads(rounded[1])["certificate"]["total_deviation"]["bound"]
    alphas = tuple(int(a) for a in alpha.split(","))
    budget = DeviationBudget(alphas, delta, None, psi, inst.omega_star)
    assert bound == str(inst.omega_star * min_Delta(budget))
    y_file = write(tmp_path, "y.json", {"entries": json.loads(rounded[1])["allocation"]})
    checked = run("check", "--allocation", y_file, "--against", x_file, *flags)
    assert checked == run(
        "check", "--allocation", y_file, "--against", x_file, *flags, "--psi", str(psi)
    )
    assert checked[0] == 0


def test_check_against_exits_3_on_violations(tmp_path, capsys):
    """Zero budgets admit no deviation (every bound is strict), so a
    rounding within capacities fails its certificate, not its allocation
    check."""
    inst, u = demo_instance()
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    x_file = write(tmp_path, "x.json", serialize_allocation(demo_allocation()))
    y = Allocation({("a1", Bundle.of({"r2": 1})): 1, ("a2", Bundle.of({"r1": 2})): 1})
    y_file = write(tmp_path, "y.json", serialize_allocation(y))
    code = main(
        ["check", "--instance", inst_file, "--allocation", y_file, "--against", x_file,
         "--alpha", "0", "--delta", "0", "--psi", "1"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["allocation_problems"] == []
    assert out["certificate"]["violations"]


def test_unaccepted_pair_fails_check_and_round(tmp_path, capsys):
    """An agent that accepts only r1 holds r2: ``check`` reports it and
    exits 3, and ``round`` refuses the point as input (exit 1)."""
    inst = Instance([AgentSpec("a")], [("r1", 1), ("r2", 1)], binding={"a"},
                    acceptability={("a", "r1")})
    u = UtilityModel(additive={"a": {"r1": 1, "r2": 2}})
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    x = Allocation({("a", Bundle.of({"r2": 1})): 1})
    x_file = write(tmp_path, "x.json", serialize_allocation(x))
    code = main(["check", "--instance", inst_file, "--allocation", x_file])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["allocation_problems"] == ["agent 'a' does not accept 'r2' in bundle {r2:1}"]
    code = main(["round", "--instance", inst_file, "--allocation", x_file,
                 "--alpha", "", "--delta", "1", "--psi", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "does not accept 'r2'" in captured.err


def test_check_oracle_needs_against(tmp_path, capsys):
    inst, u = demo_instance()
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    y = Allocation({("a1", Bundle.of({"r1": 1})): 1, ("a2", Bundle.of({"r2": 1})): 1})
    y_file = write(tmp_path, "y.json", serialize_allocation(y))
    code = main(["check", "--instance", inst_file, "--allocation", y_file, "--oracle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--oracle needs --against" in captured.err


def test_infeasible_exit_code(tmp_path, capsys):
    inst = Instance(
        [AgentSpec("a1", 1), AgentSpec("a2", 1)], [("r1", 1)], binding={"a1", "a2"}
    )
    u = UtilityModel(additive={"a1": {"r1": 1}, "a2": {"r1": 1}})
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    code = main(
        ["solve", "assignment", "--instance", inst_file, "--alpha", "", "--delta", "2"]
    )
    assert code == 2


def test_schema_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": [{"id": "a", "utilities": {"r1": 0.25}}], "resources": []}')
    code = main(["solve", "assignment", "--instance", str(bad), "--delta", "2"])
    assert code == 1


def _instance_doc(agent=None, **fields):
    """A one-agent, one-resource assignment document with ``agent`` or the
    top-level ``fields`` replaced."""
    agent = agent or {"id": "a", "utilities": {"r1": 1}}
    return {"agents": [agent], "resources": [{"id": "r1", "capacity": 1}], **fields}


SOLVE_BAD = ["solve", "assignment", "--instance", "{dir}/bad.json", "--delta", "1"]
CSV_BAD = ["apportion", "--csv", "{dir}/bad.json", "--house", "3"]
MA_BAD_BOUNDS = {
    "dimensions": ["party", "district"],
    "groups": {"party": ["p1", "p2"], "district": ["d1"]},
    "votes": [{"tuple": ["p1", "d1"], "votes": 10}, {"tuple": ["p2", "d1"], "votes": 5}],
    "house": 4,
    "bounds": {"party": {"p1": 5}},
}
MALFORMED = {
    "demand": (_instance_doc({"id": "a", "demand": "x"}), SOLVE_BAD),
    "groups": (_instance_doc({"id": "a", "groups": [1]}), SOLVE_BAD),
    "agents": (_instance_doc(agents=3), SOLVE_BAD),
    "utilities": (_instance_doc({"id": "a", "utilities": [1]}), SOLVE_BAD),
    "acceptability": (_instance_doc(acceptability=[["a"]]), SOLVE_BAD),
    "bundle utility": (_instance_doc({"id": "a", "bundleUtilities": [{"value": 1}]}), SOLVE_BAD),
    "dimensions": (_instance_doc(dimensions=5), SOLVE_BAD),
    "usage": (_instance_doc(), SOLVE_BAD[:-1] + ["zz"]),
    "bounds": (MA_BAD_BOUNDS, ["apportion", "--instance", "{dir}/bad.json"]),
    "csv vote": ("x,d1\np1,x\n", CSV_BAD),
    "csv row": ("x,d1\n\np1,3\n", CSV_BAD),
    "csv repeated party": ("x,d1\nA,3\nA,5\n", CSV_BAD),
    "csv long row": ("x,d1\nA,3,4\n", CSV_BAD),
    "csv short row": ("x,d1,d2\nA,3\n", CSV_BAD),
    "ma repeated dimension": (
        {
            "dimensions": ["party", "party"],
            "groups": {"party": ["p1", "p2"]},
            "votes": [{"tuple": ["p1", "p1"], "votes": 10}, {"tuple": ["p2", "p2"], "votes": 5}],
            "house": 4,
        },
        ["apportion", "--instance", "{dir}/bad.json"],
    ),
    "ma repeated group": (
        dict(MA_BAD_BOUNDS, groups={"party": ["p1", "p2", "p1"], "district": ["d1"]}, bounds={}),
        ["apportion", "--instance", "{dir}/bad.json"],
    ),
    "ma repeated vote tuple": (
        dict(MA_BAD_BOUNDS, votes=MA_BAD_BOUNDS["votes"] * 2, bounds={}),
        ["apportion", "--instance", "{dir}/bad.json"],
    ),
    "no vote source": ("x,d1\np1,3\n", ["apportion", "--house", "3"]),
    "house with an instance": (
        dict(MA_BAD_BOUNDS, bounds={}),
        ["apportion", "--instance", "{dir}/bad.json", "--house", "3"],
    ),
    "two vote sources": (
        "x,d1\np1,3\n",
        ["apportion", "--instance", "{dir}/bad.json", "--csv", "{dir}/bad.json", "--house", "3"],
    ),
}


def _exit_code(argv):
    """What ``main`` returns, or the code it exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_without_a_traceback(tmp_path, capsys, case):
    content, argv = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert _exit_code([a.format(dir=tmp_path) for a in argv]) == 1
    if argv[0] == "solve":  # a batch reports the file as bad input, not a crash
        batch = [str(tmp_path) if a == "{dir}/bad.json" else a for a in argv]
        assert _exit_code(batch) == 1
        if case != "usage":
            assert f"{path}: exit 1" in capsys.readouterr().err
    assert "Traceback" not in capsys.readouterr().err


def test_batch_of_an_empty_directory_exits_1(tmp_path):
    assert main(["solve", "assignment", "--instance", str(tmp_path), "--delta", "1"]) == 1


def test_budget_exit_code_on_solve(tmp_path):
    inst, u = demo_instance()
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    code = main(
        ["solve", "assignment", "--instance", inst_file, "--alpha", "1", "--delta", "1"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "alpha, delta, code",
    [("1", "1", 3), ("3", "-1", 3), ("7,7", "3", 3), ("7", "3", 5)],
)
def test_envyfree_budget_checked_before_greedy(tmp_path, monkeypatch, alpha, delta, code):
    from nearfair import envyfree
    from nearfair.errors import InvariantViolation

    def greedy_reached(*args, **kwargs):
        raise InvariantViolation("greedy stage reached")

    monkeypatch.setattr(envyfree, "greedy_fractional_ef", greedy_reached)
    inst = Instance(
        [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
        dimensions=("g",),
    )
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 1}, "a2": {"r1": 1, "r2": 3}})
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    # an inadmissible or invalid budget exits 3 at once; an admissible one
    # (2/8 + 1/4 <= 1/2 for two groups) reaches the patched greedy stage
    args = ["solve", "envyfree", "--instance", inst_file, "--alpha", alpha, "--delta", delta]
    assert main(args) == code


def test_apportion_csv(tmp_path, capsys):
    table = tmp_path / "votes.csv"
    table.write_text("party,d1,d2\nA,30,10\nB,20,40\n")
    code = main(
        ["apportion", "--csv", str(table), "--house", "10", "--method", "webster"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["house"] == 10
    assert out["house_deviation"] == 0


def test_batch_directory(tmp_path, capsys):
    inst, u = demo_instance()
    for name in ("one.json", "two.json"):
        write(tmp_path, name, serialize_instance(inst, u))
    code = main(
        ["solve", "assignment", "--instance", str(tmp_path),
         "--alpha", "3", "--delta", "6", "--jobs", "1",
         "--out", str(tmp_path / "ignored.json")]
    )
    assert code == 0


def test_batch_jobs_two_matches_a_single_run(tmp_path, capsys):
    inst, u = demo_instance()
    other = Instance(
        inst.agents, [("r1", 2), ("r2", 2)], inst.binding, inst.dimensions, inst.acceptability
    )
    batch = tmp_path / "batch"
    batch.mkdir()
    write(batch, "one.json", serialize_instance(inst, u))
    write(batch, "two.json", serialize_instance(other, u))
    flags = ["--alpha", "3", "--delta", "6"]
    singles = {}
    for name in ("one.json", "two.json"):
        singles[name] = tmp_path / f"single-{name}"
        assert main(
            ["solve", "assignment", "--instance", str(batch / name), *flags,
             "--out", str(singles[name])]
        ) == 0
    assert singles["one.json"].read_text() != singles["two.json"].read_text()
    # in batch mode --out names a directory: one output per instance file
    out = tmp_path / "outputs"
    code = main(
        ["solve", "assignment", "--instance", str(batch), *flags, "--jobs", "2",
         "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 0
    assert f"{batch / 'one.json'}: exit 0" in err
    assert f"{batch / 'two.json'}: exit 0" in err
    assert sorted(os.listdir(out)) == ["one.json", "two.json"]
    for name, single in singles.items():
        assert (out / name).read_text() == single.read_text()


@pytest.mark.parametrize("a2_values", [{"r1": 1, "r2": 3}, {"r1": 0, "r2": 0}])
def test_solve_envyfree_prints_the_library_result(tmp_path, capsys, a2_values):
    # the second market's group g2 values nothing: its envy 0 meets the bound 0
    inst = Instance(
        [AgentSpec("a1", 1, {"g": "g1"}), AgentSpec("a2", 1, {"g": "g2"})],
        [("r1", 1), ("r2", 1)],
        binding={"a1", "a2"},
        dimensions=("g",),
    )
    u = UtilityModel(additive={"a1": {"r1": 2, "r2": 1}, "a2": a2_values})
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    code = main(["solve", "envyfree", "--instance", inst_file, "--alpha", "7", "--delta", "3"])
    out = json.loads(capsys.readouterr().out)
    h = envyfree.HomogeneousInstance(inst, u)
    x, _ = envyfree.greedy_fractional_ef(h)
    y = envyfree.ef_round(h, x, (7,), 3)
    assert code == 0
    assert out == {
        "allocation": serialize_allocation(y)["entries"],
        "fractional": serialize_allocation(x)["entries"],
        "envy_ok": True,
    }


def test_solve_envyfree_exits_2_when_no_bundle_fits_a_binding_agent(tmp_path, capsys):
    inst = Instance(
        [AgentSpec("a1", 2, {"g": "g1"}), AgentSpec("a2", 2, {"g": "g2"})],
        [("r1", 1)],
        binding={"a1", "a2"},
        dimensions=("g",),
    )
    u = UtilityModel(additive={"a1": {"r1": 1}, "a2": {"r1": 1}})
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    code = main(["solve", "envyfree", "--instance", inst_file, "--alpha", "7", "--delta", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "below one bundle" in captured.err and "binding agent 'a1' totals 0 != 1" in captured.err


@pytest.mark.parametrize("objective", ["utilitarian", "proportional"])
def test_solve_couples_prints_the_library_result(tmp_path, capsys, objective):
    inst = Instance(
        [AgentSpec("s1", 1, {"g": "g1"}), AgentSpec("s2", 1, {"g": "g2"}), AgentSpec("c", 2)],
        [("r1", 2), ("r2", 1)],
        dimensions=("g",),
    )
    ci = CouplesInstance(
        inst,
        {"r1": ["c", "s1", "s2"], "r2": ["s2", "s1", "c"]},
        {a.id: enumerate_bundles(a.id, inst) for a in inst.agents},
    )
    u = UtilityModel(
        additive={"s1": {"r1": 2, "r2": 1}, "s2": {"r1": 1, "r2": 2}, "c": {"r1": 1, "r2": 1}}
    )
    path = write(tmp_path, "couples.json", serialize_couples(ci, u))
    code = main(
        ["solve", "couples", "--instance", path, "--alpha", "5", "--delta", "4",
         "--objective", objective]
    )
    out = json.loads(capsys.readouterr().out)
    result = couples.fair_stable_allocation(
        ci, u, getattr(FairObjective, objective)(), (5,), 4
    )
    assert code == 0
    assert out == json.loads(json.dumps({
        "allocation": serialize_allocation(result.rounded)["entries"],
        "fractional": serialize_allocation(result.fractional)["entries"],
        "stable": True,
        "resource_excess": result.resource_excess,
        "total_weighted_excess": result.total_weighted_excess,
        "certificate": result.certificate.to_json(),
    }))


def test_apportion_instance_file_prints_the_library_result(tmp_path, capsys):
    ma = MAInstance(
        dims=("party", "district"),
        groups={"party": ("A", "B"), "district": ("d1", "d2")},
        votes={("A", "d1"): 30, ("A", "d2"): 10, ("B", "d1"): 20, ("B", "d2"): 40},
        lower={("party", "A"): 3},
        upper={},
        house=10,
    )
    path = write(tmp_path, "ma.json", serialize_ma(ma))
    code = main(["apportion", "--instance", path])
    out = json.loads(capsys.readouterr().out)
    result = apportionment.approx_apportionment(ma, apportionment.SignpostMethod.webster(), (1, 1))
    assert code == 0
    assert out["seats"] == [{"tuple": list(e), "seats": n} for e, n in sorted(result.seats.items())]
    assert out["group_seats"] == [
        {"dimension": d, "group": g, "seats": n} for (d, g), n in sorted(result.group_seats.items())
    ]
    assert out["house"] == result.total_seats() == 10
    assert out["house_deviation"] == result.house_deviation
    assert out["delta_bound"] == result.delta_bound


@pytest.mark.parametrize(
    "votes, window, house, message",
    [
        ({("A",): 30, ("B",): 20}, {("party", "A"): 1}, 0, "lower bound 1 but no seat"),
        ({}, {}, 3, "window polytope is empty"),  # no votes, yet seats to fill
    ],
)
def test_apportion_without_a_seat_to_give_exits_2(tmp_path, capsys, votes, window, house, message):
    ma = MAInstance(
        dims=("party",),
        groups={"party": ("A", "B")},
        votes=votes,
        lower=window,
        upper=window,
        house=house,
    )
    path = write(tmp_path, "ma.json", serialize_ma(ma))
    assert main(["apportion", "--instance", path]) == 2
    assert message in capsys.readouterr().err


def test_scale_guard_exit_code(tmp_path):
    # three couples with full acceptability over four roomy resources give
    # more than twenty packing variables, tripping the enumeration guard
    inst = Instance(
        [AgentSpec(f"c{i}", 2) for i in range(3)],
        [(f"r{j}", 2) for j in range(4)],
        binding=set(),
    )
    bundles = enumerate_bundles("c0", inst)
    ci = CouplesInstance(
        inst,
        {f"r{j}": [f"c{i}" for i in range(3)] for j in range(4)},
        {f"c{i}": bundles for i in range(3)},
    )
    u = UtilityModel(
        additive={f"c{i}": {f"r{j}": 1 for j in range(4)} for i in range(3)}
    )
    path = tmp_path / "big.json"
    path.write_text(json.dumps(serialize_couples(ci, u)))
    code = main(["solve", "couples", "--instance", str(path), "--delta", "2"])
    assert code == 4


def test_internal_failure_exit_code(tmp_path, monkeypatch, capsys):
    from nearfair import fairness
    from nearfair.errors import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("rounder lost an entry (iteration 3)")

    monkeypatch.setattr(fairness, "approx_fair_allocation", broken)
    inst, u = demo_instance()
    inst_file = write(tmp_path, "inst.json", serialize_instance(inst, u))
    code = main(
        ["solve", "assignment", "--instance", inst_file, "--alpha", "3", "--delta", "6"]
    )
    assert code == 5
    assert "internal error: rounder lost an entry (iteration 3)" in capsys.readouterr().err


def test_batch_isolates_failing_file(tmp_path, monkeypatch, capsys):
    from nearfair import fairness

    real = fairness.approx_fair_allocation
    calls = []

    def first_call_breaks(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise KeyError("untyped bug")
        return real(*args, **kwargs)

    monkeypatch.setattr(fairness, "approx_fair_allocation", first_call_breaks)
    inst, u = demo_instance()
    for name in ("one.json", "two.json"):
        write(tmp_path, name, serialize_instance(inst, u))
    code = main(
        ["solve", "assignment", "--instance", str(tmp_path),
         "--alpha", "3", "--delta", "6", "--jobs", "1",
         "--out", str(tmp_path / "ignored.json")]
    )
    err = capsys.readouterr().err
    assert code == 5
    assert f"{tmp_path / 'one.json'}: exit 5" in err
    assert f"{tmp_path / 'two.json'}: exit 0" in err
    assert len(calls) == 2


def test_pipelines_never_import_scipy(tmp_path):
    # scipy serves only the float cross-check in the tests
    script = """
import sys
from nearfair.cli import main
inst = sys.argv[1]
assert main(["gen", "lowerbound", "--kind", "capacity", "-n", "4", "--out", inst]) == 0
for objective in ("utilitarian", "proportional"):
    assert main(["solve", "assignment", "--instance", inst, "--alpha", "3",
                 "--delta", "6", "--objective", objective]) == 0
assert main(["apportion", "--csv", sys.argv[2], "--house", "10"]) == 0
assert "scipy" not in sys.modules, "a pipeline imported scipy"
"""
    votes = tmp_path / "votes.csv"
    votes.write_text("party,d1,d2\nA,30,10\nB,20,40\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "inst.json"), str(votes)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# -- the README's CLI block --------------------------------------------------------


def readme_cli_problems(readme: str) -> list[str]:
    """Each ``nearfair ...`` line of the README's CLI block, optional
    ``[...]`` parts included, that the parser rejects or that gives an
    option twice (argparse would keep the last value without a word)."""
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("nearfair ")]
    if not lines:
        return ["the CLI block has no nearfair line"]
    problems = []
    for line in lines:
        argv = shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        options = [a.split("=")[0] for a in argv if a.startswith("-")]
        if len(options) != len(set(options)):
            problems.append(f"option given twice: {line}")
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            problems.append(f"rejected: {line}")
    return problems


def test_readme_cli_detector(capsys):
    readme = (
        "## CLI\n\n```\n"
        "nearfair solve couples --instance i.json --delta 2 [--alpha 5 --delta 4]\n"
        "nearfair budget --alpha 3 --delta 2 --assignment\n"
        "nearfair gen lowerbound --kind capacity -n 6\n"
        "```\n"
    )
    assert readme_cli_problems(readme) == [
        "option given twice: nearfair solve couples --instance i.json --delta 2 "
        "[--alpha 5 --delta 4]",
        "rejected: nearfair budget --alpha 3 --delta 2 --assignment",
    ]
    assert readme_cli_problems("## CLI\n\n```\n```\n") == ["the CLI block has no nearfair line"]


def test_readme_cli_block_parses(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert readme_cli_problems(readme) == []
