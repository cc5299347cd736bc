"""Command-line interface: instance I/O, pipeline dispatch, certificates.

Exit codes: 0 success, 1 usage, I/O or schema error, 2 infeasible instance,
3 budget condition violated (or a requested verification failed),
4 brute-force scale guard tripped, 5 internal failure (a broken invariant
or another library error; always a bug, never bad input).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import apportionment as app
from . import couples as cpl
from . import envyfree as ef
from . import fairness as fair
from . import oracle
from .errors import (
    BudgetError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvariantViolation,
    NearFairError,
    NoDominatingVertexError,
    RefinementInfeasibleError,
    ScaleExceededError,
    SchemaError,
)
from .rationals import rat_str
from .rounding import (
    CONDITIONS,
    DeviationBudget,
    forced_psi,
    iterative_round,
    min_Delta,
    verify_approximation,
)
from .schema import (
    dump_json,
    load_json,
    parse_allocation,
    parse_couples,
    parse_instance,
    parse_ma,
    serialize_allocation,
    serialize_instance,
)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_SCALE = 4
EXIT_INTERNAL = 5


def _alpha(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _objective(tag: str) -> fair.FairObjective:
    """The ``--objective`` choice; argparse admits no other tag."""
    if tag == "utilitarian":
        return fair.FairObjective.utilitarian()
    return fair.FairObjective.proportional()


def _emit(doc: dict, out: str | None) -> None:
    text = dump_json(doc, out)
    if not out:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    if os.path.isdir(args.instance):
        return _run_batch(args)
    doc = load_json(args.instance)
    if args.pipeline == "assignment":
        instance, utilities = parse_instance(doc)
        if utilities is None:
            raise SchemaError("assignment instances need utilities")
        result = fair.approx_fair_allocation(
            instance, utilities, _objective(args.objective), args.alpha, args.delta
        )
        _emit(
            {
                "allocation": serialize_allocation(result.rounded)["entries"],
                "fractional": serialize_allocation(result.fractional)["entries"],
                "fractional_path": result.fractional_path,
                "delta_plus": result.delta_plus,
                "total_excess": result.total_excess,
                "certificate": result.certificate.to_json(),
            },
            args.out,
        )
        return EXIT_OK
    if args.pipeline == "envyfree":
        instance, utilities = parse_instance(doc)
        if utilities is None:
            raise SchemaError("envy-free instances need utilities")
        h = ef.HomogeneousInstance(instance, utilities)
        counts = [instance.group_count(dim) for dim in instance.dimensions]
        CONDITIONS["envyfree"].require(args.alpha, args.delta, h.omega_star, counts=counts)
        x, _trace = ef.greedy_fractional_ef(h)
        y = ef.ef_round(h, x, args.alpha, args.delta)
        report = ef.check_ef_deviation(h, y, args.alpha, args.delta)
        _emit(
            {
                "allocation": serialize_allocation(y)["entries"],
                "fractional": serialize_allocation(x)["entries"],
                "envy_ok": report["ok"],
            },
            args.out,
        )
        return EXIT_OK if report["ok"] else EXIT_BUDGET
    ci, utilities = parse_couples(doc)  # argparse admits no other pipeline
    if utilities is None:
        raise SchemaError("couples instances need utilities")
    result = cpl.fair_stable_allocation(
        ci, utilities, _objective(args.objective), args.alpha, args.delta
    )
    _emit(
        {
            "allocation": serialize_allocation(result.rounded)["entries"],
            "fractional": serialize_allocation(result.fractional)["entries"],
            "stable": result.block_report.stable,
            "resource_excess": result.resource_excess,
            "total_weighted_excess": result.total_weighted_excess,
            "certificate": result.certificate.to_json(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_apportion(args) -> int:
    if args.csv:
        ma = _ma_from_csv(args.csv, args.house)
    elif args.house is not None:
        raise SchemaError("--house applies only to --csv; an instance file sets its own house")
    else:
        ma = parse_ma(load_json(args.instance))
    method = app.SignpostMethod.named(args.method)
    alpha = args.alpha if args.alpha else (1,) * ma.d
    result = app.approx_apportionment(ma, method, alpha)
    _emit(
        {
            "seats": [
                {"tuple": list(e), "seats": n} for e, n in sorted(result.seats.items())
            ],
            "group_seats": [
                {"dimension": d, "group": g, "seats": n}
                for (d, g), n in sorted(result.group_seats.items())
            ],
            "house": result.total_seats(),
            "house_deviation": result.house_deviation,
            "delta_bound": result.delta_bound,
        },
        args.out,
    )
    return EXIT_OK


def _ma_from_csv(path: str, house: int | None):
    """Two-dimensional party x district vote table: header row holds district
    names, each body row starts with the party name."""
    if house is None:
        raise SchemaError("--house is required with --csv")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    if len(rows) < 2 or len(rows[0]) < 2:
        raise SchemaError("vote table needs a header row and at least one party row")
    districts = [c.strip() for c in rows[0][1:]]
    parties = []
    votes = {}
    for row in rows[1:]:
        if not row:
            raise SchemaError("vote table has an empty row")
        party = row[0].strip()
        parties.append(party)
        for district, cell in zip(districts, row[1:]):
            try:
                v = int(cell)
            except ValueError:
                raise SchemaError(f"bad vote count {cell!r} for {party}, {district}") from None
            if v > 0:
                votes[(party, district)] = v
    return app.MAInstance(
        dims=("party", "district"),
        groups={"party": tuple(parties), "district": tuple(districts)},
        votes=votes,
        lower={},
        upper={},
        house=house,
    )


def _budget(args, instance, x) -> DeviationBudget:
    """The budget the flags give for rounding ``x``; psi defaults to the
    value ``forced_psi`` gives, Delta stays as given."""
    psi = args.psi
    if psi is None:
        psi = 1 if forced_psi(x, len(instance.dimensions)) else 0
    return DeviationBudget(args.alpha, args.delta, args.Delta, psi, instance.omega_star)


def cmd_round(args) -> int:
    instance, utilities = parse_instance(load_json(args.instance))
    if utilities is None:
        raise SchemaError("rounding needs utilities in the instance file")
    x = parse_allocation(load_json(args.allocation))
    budget = _budget(args, instance, x)
    if budget.Delta is None:
        budget = replace(budget, Delta=min_Delta(budget))
    y, cert = iterative_round(instance, x, utilities, budget)
    _emit(
        {
            "allocation": serialize_allocation(y)["entries"],
            "certificate": cert.to_json(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    if args.oracle and not args.against:
        raise SchemaError("--oracle needs --against")
    instance, utilities = parse_instance(load_json(args.instance))
    y = parse_allocation(load_json(args.allocation))
    problems = y.check_allocation(instance, capacities=args.capacities)
    doc: dict = {"allocation_problems": problems}
    code = EXIT_OK if not problems else EXIT_BUDGET
    if args.against:
        if utilities is None:
            raise SchemaError("verification needs utilities in the instance file")
        x = parse_allocation(load_json(args.against))
        budget = _budget(args, instance, x)
        cert = verify_approximation(instance, x, y, utilities, budget)
        doc["certificate"] = cert.to_json()
        if args.oracle:
            frontier = oracle.best_deviation(instance, x, utilities)
            doc["oracle_frontier"] = [
                [rat_str(a), rat_str(b), rat_str(c)] for a, b, c in frontier
            ]
        if not cert.ok():
            code = EXIT_BUDGET
    _emit(doc, args.out)
    return code


def cmd_gen(args) -> int:
    instance, utilities = fair.gen_lower_bound_instance(args.kind, args.n)
    _emit(serialize_instance(instance, utilities), args.out)
    return EXIT_OK


def cmd_budget(args) -> int:
    if args.assignment:
        market = "assignment"
    elif args.couples:
        market = "couples"
    elif args.envyfree is not None:
        market = "envyfree"
    else:
        market = "round"
    psi = args.psi if args.psi is not None else 1
    row = CONDITIONS[market]
    slack = row.slack(args.alpha, args.delta, args.omega, psi=psi, counts=args.envyfree)
    passed = slack >= 0
    doc: dict = {"condition": row.text, "slack": rat_str(slack)}
    if market == "assignment" and args.agents and args.resources:
        doc["delta_plus"] = fair.delta_plus(
            args.omega, args.agents, args.resources, sum(args.groups or ()), args.delta
        )
    if market == "round" and passed:
        budget = DeviationBudget(args.alpha, args.delta, None, psi, args.omega)
        try:
            doc["min_Delta"] = min_Delta(budget)
        except BudgetError as exc:
            doc["min_Delta"] = None
            doc["min_Delta_error"] = str(exc)
    doc["passed"] = passed
    _emit(doc, args.out)
    return EXIT_OK if passed else EXIT_BUDGET


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def _batch_worker(args: argparse.Namespace) -> tuple[str, int]:
    try:
        code = _dispatch(args)
    except Exception:  # one broken file must not take down the batch
        traceback.print_exc()
        code = EXIT_INTERNAL
    return args.instance, code


def _run_batch(args) -> int:
    """Run the parsed command once per ``*.json`` file of the ``--instance``
    directory, with only ``instance`` replaced and, when ``--out`` names a
    directory, each file's output going to ``<out>/<file name>``."""
    names = sorted(f for f in os.listdir(args.instance) if f.endswith(".json"))
    if not names:
        raise SchemaError(f"no *.json instance files in {args.instance}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    per_file = [
        argparse.Namespace(**{
            **vars(args),
            "instance": os.path.join(args.instance, name),
            "out": args.out and os.path.join(args.out, name),
        })
        for name in names
    ]
    jobs = max(1, args.jobs)
    if jobs == 1:
        results = map(_batch_worker, per_file)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_batch_worker, per_file))
    worst = EXIT_OK
    for path, code in results:
        print(f"{path}: exit {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other bad input; argparse's own 2 is
    this program's "infeasible"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nearfair",
        description="Near-feasible fair allocations by exact iterative LP rounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a full pipeline on an instance file")
    solve.add_argument("pipeline", choices=["assignment", "envyfree", "couples"])
    solve.add_argument("--instance", required=True, help="instance file or directory")
    solve.add_argument("--alpha", type=_alpha, default=())
    solve.add_argument("--delta", type=int, required=True)
    solve.add_argument(
        "--objective", default="utilitarian", choices=["utilitarian", "proportional"]
    )
    solve.add_argument("--jobs", type=int, default=1)
    solve.add_argument("--out", help="output file; a directory when --instance is one")
    solve.set_defaults(func=cmd_solve)

    ap = sub.add_parser("apportion", help="multidimensional apportionment")
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance")
    source.add_argument("--csv", help="party x district vote table")
    ap.add_argument("--house", type=int)
    ap.add_argument(
        "--method", default="webster", choices=["adams", "webster", "jefferson"]
    )
    ap.add_argument("--alpha", type=_alpha, default=())
    ap.add_argument("--out")
    ap.set_defaults(func=cmd_apportion)

    rnd = sub.add_parser("round", help="round a provided fractional allocation")
    rnd.add_argument("--instance", required=True)
    rnd.add_argument("--allocation", required=True)
    rnd.add_argument("--alpha", type=_alpha, default=())
    rnd.add_argument("--delta", type=int, required=True)
    rnd.add_argument("--Delta", type=int, default=None)
    rnd.add_argument("--psi", type=int, choices=[0, 1], default=None)
    rnd.add_argument("--out")
    rnd.set_defaults(func=cmd_round)

    chk = sub.add_parser("check", help="verify an allocation, optionally against a reference")
    chk.add_argument("--instance", required=True)
    chk.add_argument("--allocation", required=True)
    chk.add_argument("--against", help="reference fractional allocation")
    chk.add_argument("--alpha", type=_alpha, default=())
    chk.add_argument("--delta", type=int, default=1)
    chk.add_argument("--Delta", type=int, default=None)
    chk.add_argument("--psi", type=int, choices=[0, 1], default=None)
    chk.add_argument("--capacities", action="store_true", help="also enforce capacities")
    chk.add_argument("--oracle", action="store_true", help="brute-force deviation frontier")
    chk.add_argument("--out")
    chk.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="generate named instance families")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    lb = gen_sub.add_parser("lowerbound")
    lb.add_argument("--kind", required=True, choices=["capacity", "utility-cycle"])
    lb.add_argument("-n", type=int, required=True)
    lb.add_argument("--out")
    lb.set_defaults(func=cmd_gen)

    bud = sub.add_parser("budget", help="evaluate budget conditions and bounds")
    bud.add_argument("--alpha", type=_alpha, default=())
    bud.add_argument("--delta", type=int, required=True)
    bud.add_argument("--omega", type=int, default=1)
    bud.add_argument("--psi", type=int, choices=[0, 1], default=None)
    bud.add_argument("--assignment", action="store_true")
    bud.add_argument("--couples", action="store_true")
    bud.add_argument("--envyfree", type=_alpha, default=None, metavar="K_LIST")
    bud.add_argument("--agents", type=int)
    bud.add_argument("--resources", type=int)
    bud.add_argument("--groups", type=_alpha, default=None)
    bud.add_argument("--out")
    bud.set_defaults(func=cmd_budget)

    return parser


def main(argv=None) -> int:
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args: argparse.Namespace) -> int:
    """Run a parsed command, mapping each library error to its exit code."""
    try:
        return args.func(args)
    except (SchemaError, InvalidInstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (
        InfeasibleInstanceError,
        RefinementInfeasibleError,
        NoDominatingVertexError,
    ) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ScaleExceededError as exc:
        print(f"scale: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NearFairError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
