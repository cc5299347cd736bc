"""Command-line interface: instance I/O, pipeline dispatch, certificates.

Exit codes: 0 success; a library error exits with its class's
``exit_code`` (see ``nearfair.errors``), a usage or I/O error with 1 like
bad input, and a failed verification with 3 like a failed budget.
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
from .errors import BudgetError, NearFairError, SchemaError
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


def _require_utilities(utilities, message: str) -> None:
    """SchemaError ``message`` when the instance file carries no utilities."""
    if utilities is None:
        raise SchemaError(message)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    if os.path.isdir(args.instance):
        return _run_batch(args)
    doc = load_json(args.instance)
    if args.pipeline == "assignment":
        instance, utilities = parse_instance(doc)
        _require_utilities(utilities, "assignment instances need utilities")
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
        return 0
    if args.pipeline == "envyfree":
        instance, utilities = parse_instance(doc)
        _require_utilities(utilities, "envy-free instances need utilities")
        h = ef.HomogeneousInstance(instance, utilities)
        ef.ef_condition(h, args.alpha, args.delta, require=True)
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
        return 0 if report["ok"] else BudgetError.exit_code
    ci, utilities = parse_couples(doc)  # argparse admits no other pipeline
    _require_utilities(utilities, "couples instances need utilities")
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
    return 0


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
    return 0


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
        if len(row) != len(rows[0]):
            raise SchemaError(
                f"vote table row {row[0]!r} has {len(row)} cells, the header {len(rows[0])}"
            )
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
    _require_utilities(utilities, "rounding needs utilities in the instance file")
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
    return 0


def cmd_check(args) -> int:
    if args.oracle and not args.against:
        raise SchemaError("--oracle needs --against")
    instance, utilities = parse_instance(load_json(args.instance))
    y = parse_allocation(load_json(args.allocation))
    problems = y.check_allocation(instance, capacities=args.capacities)
    doc: dict = {"allocation_problems": problems}
    code = 0 if not problems else BudgetError.exit_code
    if args.against:
        _require_utilities(utilities, "verification needs utilities in the instance file")
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
            code = BudgetError.exit_code
    _emit(doc, args.out)
    return code


def cmd_gen(args) -> int:
    instance, utilities = fair.gen_lower_bound_instance(args.kind, args.n)
    _emit(serialize_instance(instance, utilities), args.out)
    return 0


def cmd_budget(args) -> int:
    row = CONDITIONS[args.market]
    # a row reads --delta and --omega only through its resource term, and
    # --omega and --psi only where it does not fix their values; only the
    # assignment market's delta_plus cap reads --agents and --resources, and
    # only it and the envy rows read --groups
    reads = {
        "delta": row.delta_shift is not None,
        "omega": row.delta_shift is not None and row.omega is None,
        "psi": row.psi is None,
        "agents": args.market == "assignment",
        "resources": args.market == "assignment",
        "groups": row.envy or args.market == "assignment",
    }
    for flag, read in reads.items():
        if not read and getattr(args, flag) is not None:
            raise SchemaError(f"the {args.market} condition reads no --{flag}")
    if reads["delta"] and args.delta is None:
        raise SchemaError(f"the {args.market} condition needs --delta")
    if row.envy and args.groups is None:
        raise SchemaError(f"the {args.market} condition needs --groups K_LIST")
    if (args.agents is None) != (args.resources is None):
        raise SchemaError("delta_plus needs both --agents and --resources")
    delta = args.delta or 0
    omega = 1 if args.omega is None else args.omega
    psi = 1 if args.psi is None else args.psi
    slack = row.slack(args.alpha, delta, omega, psi=psi, counts=args.groups)
    passed = slack >= 0
    doc: dict = {"condition": row.text, "slack": rat_str(slack)}
    if args.agents is not None:
        doc["delta_plus"] = fair.delta_plus(
            omega, args.agents, args.resources, sum(args.groups or ()), delta
        )
    if args.market == "round" and passed:
        budget = DeviationBudget(args.alpha, delta, None, psi, omega)
        try:
            doc["min_Delta"] = min_Delta(budget)
        except BudgetError as exc:
            doc["min_Delta"] = None
            doc["min_Delta_error"] = str(exc)
    doc["passed"] = passed
    _emit(doc, args.out)
    return 0 if passed else BudgetError.exit_code


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def _batch_worker(args: argparse.Namespace) -> tuple[str, int]:
    try:
        code = _dispatch(args)
    except Exception:  # one broken file must not take down the batch
        traceback.print_exc()
        code = NearFairError.exit_code
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
    worst = 0
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
        self.exit(SchemaError.exit_code, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nearfair",
        description="Near-feasible fair allocations by exact iterative LP rounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags several subcommands share, each declared once
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--alpha", type=_alpha, default=())
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file; a directory when --instance is one")
    common = [alpha, out]
    deviation = argparse.ArgumentParser(add_help=False, parents=common)
    deviation.add_argument("--Delta", type=int, default=None)
    deviation.add_argument("--psi", type=int, choices=[0, 1], default=None)

    solve = sub.add_parser("solve", parents=common, help="run a full pipeline on an instance file")
    solve.add_argument("pipeline", choices=["assignment", "envyfree", "couples"])
    solve.add_argument("--instance", required=True, help="instance file or directory")
    solve.add_argument("--delta", type=int, required=True)
    solve.add_argument(
        "--objective", default="utilitarian", choices=["utilitarian", "proportional"]
    )
    solve.add_argument("--jobs", type=int, default=1)
    solve.set_defaults(func=cmd_solve)

    ap = sub.add_parser("apportion", parents=common, help="multidimensional apportionment")
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance")
    source.add_argument("--csv", help="party x district vote table")
    ap.add_argument("--house", type=int)
    ap.add_argument(
        "--method", default="webster", choices=["adams", "webster", "jefferson"]
    )
    ap.set_defaults(func=cmd_apportion)

    rnd = sub.add_parser(
        "round", parents=[deviation], help="round a provided fractional allocation"
    )
    rnd.add_argument("--instance", required=True)
    rnd.add_argument("--allocation", required=True)
    rnd.add_argument("--delta", type=int, required=True)
    rnd.set_defaults(func=cmd_round)

    chk = sub.add_parser(
        "check", parents=[deviation], help="verify an allocation, optionally against a reference"
    )
    chk.add_argument("--instance", required=True)
    chk.add_argument("--allocation", required=True)
    chk.add_argument("--against", help="reference fractional allocation")
    chk.add_argument("--delta", type=int, default=1)
    chk.add_argument("--capacities", action="store_true", help="also enforce capacities")
    chk.add_argument("--oracle", action="store_true", help="brute-force deviation frontier")
    chk.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="generate named instance families")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    lb = gen_sub.add_parser("lowerbound", parents=[out])
    lb.add_argument("--kind", required=True, choices=["capacity", "utility-cycle"])
    lb.add_argument("-n", type=int, required=True)
    lb.set_defaults(func=cmd_gen)

    bud = sub.add_parser("budget", parents=common, help="evaluate budget conditions and bounds")
    bud.add_argument("market", nargs="?", default="round", choices=list(CONDITIONS))
    bud.add_argument("--delta", type=int)
    bud.add_argument("--omega", type=int, help="default 1")
    bud.add_argument("--psi", type=int, choices=[0, 1], default=None)
    bud.add_argument("--agents", type=int)
    bud.add_argument("--resources", type=int)
    bud.add_argument("--groups", type=_alpha, default=None, metavar="K_LIST")
    bud.set_defaults(func=cmd_budget)

    return parser


def main(argv=None) -> int:
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args: argparse.Namespace) -> int:
    """Run a parsed command; a library error prints its class's label and
    exits with its class's code."""
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SchemaError.exit_code
    except NearFairError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
