"""Brute-force ground truth for desk-scale verification.

Everything here is exhaustive and exact: integral-allocation enumeration,
polytope vertex enumeration by tight-row search, and the minimal-deviation
frontier over all roundings of a fractional allocation.  Hard scale guards
fail fast instead of letting an oracle dominate the runtime.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import ScaleExceededError
from .exactlp import LinearProgram, eliminate
from .model import Allocation, Bundle, Instance, UtilityModel, enumerate_bundles
from .rationals import ONE, ZERO

MAX_INTEGRAL = 10**6
MAX_VERTICES = 10**5
MAX_VERTEX_NODES = 4 * 10**6
MAX_ROUNDING_FRACTIONALS = 20


# ---------------------------------------------------------------------------
# integral allocations
# ---------------------------------------------------------------------------


def enumerate_integral(instance: Instance) -> Iterator[Allocation]:
    """All integral mappings with binding agents getting exactly one bundle
    and everyone else at most one.  Capacities are *not* enforced here."""
    options: list[list[Optional[tuple[str, Bundle]]]] = []
    count = 1
    for a in instance.agents:
        bundles = enumerate_bundles(a.id, instance)
        opts: list[Optional[tuple[str, Bundle]]] = [(a.id, q) for q in bundles]
        if a.id not in instance.binding:
            opts = [None] + opts
        options.append(opts)
        count *= len(bundles) + 1
        if count > MAX_INTEGRAL:
            raise ScaleExceededError(
                f"integral enumeration needs > {MAX_INTEGRAL} candidates"
            )
    for combo in itertools.product(*options):
        values = {pair: ONE for pair in combo if pair is not None}
        yield Allocation(values)


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------


_RHS = -1  # sparse-row key holding the right-hand side


def _try_add(state, vec, rhs):
    """Gauss-Jordan insertion: returns ('ok', new_state) | ('dep', _) | ('incons', _).

    ``state`` is a list of (pivot column, sparse row) in reduced row echelon
    form; rows are shared between search nodes, so they are never mutated.
    """
    row = dict(vec)
    if rhs:
        row[_RHS] = rhs
    for pivcol, prow in state:
        f = row.get(pivcol)
        if f:
            eliminate(row, f, prow)
    pivcol = min((k for k in row if k != _RHS), default=None)
    if pivcol is None:
        return ("dep" if _RHS not in row else "incons"), state
    inv = ONE / row[pivcol]
    if inv != 1:
        row = {k: v * inv for k, v in row.items()}
    new_state = []
    for pc, prow in state:
        f = prow.get(pivcol)
        if f:
            prow = dict(prow)
            eliminate(prow, f, row)
        new_state.append((pc, prow))
    new_state.append((pivcol, row))
    return "ok", new_state


def _redundant_upper_bound(lp: LinearProgram, j: int) -> bool:
    """True when some all-nonnegative '<=' row already forces x_j <= ub_j.

    Requires every variable in that row to have lower bound >= 0 and, for
    the other participating variables, exactly 0, so the implied vertex rank
    survives dropping the bound row from the search pool.
    """
    ub = lp.variables[j].ub
    for c in lp.constraints:
        if c.rel != "<=":
            continue
        aj = c.coeffs.get(j, ZERO)
        if aj <= 0:
            continue
        if any(v < 0 for v in c.coeffs.values()):
            continue
        if c.rhs / aj > ub:
            continue
        ok = True
        for k in c.coeffs:
            if lp.variables[k].lb < 0 or (k != j and lp.variables[k].lb != 0):
                ok = False
                break
        if ok:
            return True
    return False


def vertex_enumerate(lp: LinearProgram, max_vertices: int = MAX_VERTICES) -> list[list[Fraction]]:
    """Every vertex of the LP's feasible region, deduplicated exactly.

    Works in variable space: a vertex is a feasible point with n linearly
    independent tight rows drawn from constraints and box bounds, so we DFS
    over independent tight-row subsets.  Provably redundant upper-bound rows
    are removed from the pool first to curb the combinatorics.
    """
    n = lp.n
    if n > 20:
        raise ScaleExceededError(f"vertex enumeration limited to 20 variables, got {n}")
    eq_rows = []
    pool = []
    for c in lp.constraints:
        if c.rel == "=":
            eq_rows.append((c.coeffs, c.rhs))
        else:
            pool.append((c.coeffs, c.rhs))
    for j, var in enumerate(lp.variables):
        pool.append(({j: ONE}, var.lb))
        if var.ub != var.lb and not _redundant_upper_bound(lp, j):
            pool.append(({j: ONE}, var.ub))

    state0 = []
    for vec, rhs in eq_rows:
        verdict, state0 = _try_add(state0, vec, rhs)
        if verdict == "incons":
            return []

    found: dict[tuple, list[Fraction]] = {}
    nodes = 0

    def feasible(x: Sequence[Fraction]) -> bool:
        for j, var in enumerate(lp.variables):
            if not (var.lb <= x[j] <= var.ub):
                return False
        for c in lp.constraints:
            lhs = sum((v * x[jj] for jj, v in c.coeffs.items()), ZERO)
            if c.rel == "<=" and lhs > c.rhs:
                return False
            if c.rel == ">=" and lhs < c.rhs:
                return False
            if c.rel == "=" and lhs != c.rhs:
                return False
        return True

    def emit(state) -> None:
        x = [ZERO] * n
        for pc, row in state:
            x[pc] = row.get(_RHS, ZERO)
        key = tuple(x)
        if key not in found and feasible(x):
            if len(found) >= max_vertices:
                raise ScaleExceededError(f"more than {max_vertices} vertices")
            found[key] = x

    def dfs(start: int, state) -> None:
        nonlocal nodes
        rank = len(state)
        if rank == n:
            emit(state)
            return
        for i in range(start, len(pool)):
            if rank + (len(pool) - i) < n:
                break
            nodes += 1
            if nodes > MAX_VERTEX_NODES:
                raise ScaleExceededError("vertex enumeration search space too large")
            verdict, new_state = _try_add(state, pool[i][0], pool[i][1])
            if verdict == "ok":
                dfs(i + 1, new_state)

    if len(state0) == n:
        emit(state0)
    else:
        dfs(0, state0)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# minimal deviations over roundings
# ---------------------------------------------------------------------------


def enumerate_roundings(instance: Instance, x: Allocation) -> Iterator[Allocation]:
    """Every rounding of x keeping binding agents at exactly one bundle and
    everyone else at most one."""
    frac = x.fractional_pairs()
    if len(frac) > MAX_ROUNDING_FRACTIONALS:
        raise ScaleExceededError(
            f"{len(frac)} fractional entries exceeds rounding guard "
            f"{MAX_ROUNDING_FRACTIONALS}"
        )
    frozen = {e: v for e, v in x.values.items() if v == 1}
    by_agent: dict[str, list] = {}
    for e in frac:
        by_agent.setdefault(e[0], []).append(e)
    agents = sorted(by_agent)
    choice_lists = []
    for a in agents:
        pairs = by_agent[a]
        opts = [[(e, ONE if e == up else ZERO) for e in pairs] for up in pairs]
        if a not in instance.binding:
            opts.append([(e, ZERO) for e in pairs])
        choice_lists.append(opts)
    for combo in itertools.product(*choice_lists):
        values = dict(frozen)
        for assignments in combo:
            for e, v in assignments:
                if v:
                    values[e] = v
        yield Allocation(values)


def best_deviation(
    instance: Instance, x: Allocation, utilities: UtilityModel
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Pareto frontier of (max group dev, max resource dev, total dev) over
    all roundings of x.  Componentwise-minimal triples, sorted."""
    group_keys = [
        (dim, g) for dim in instance.dimensions for g in instance.groups_in(dim)
    ]
    base_groups = {
        key: sum(
            (
                utilities.of(a, q) * v
                for (a, q), v in x.values.items()
                if a in instance.group_members(*key)
            ),
            ZERO,
        )
        for key in group_keys
    }
    base_usage = {r: x.resource_usage(r) for r, _ in instance.resources}
    base_mass = sum(
        (instance.agent(a).demand * v for (a, _), v in x.values.items()), ZERO
    )
    triples = set()
    for y in enumerate_roundings(instance, x):
        gdev = ZERO
        for key in group_keys:
            uy = sum(
                (
                    utilities.of(a, q) * v
                    for (a, q), v in y.values.items()
                    if a in instance.group_members(*key)
                ),
                ZERO,
            )
            gdev = max(gdev, abs(uy - base_groups[key]))
        rdev = ZERO
        for r, _ in instance.resources:
            rdev = max(rdev, abs(y.resource_usage(r) - base_usage[r]))
        mass = sum(
            (instance.agent(a).demand * v for (a, _), v in y.values.items()), ZERO
        )
        triples.add((gdev, rdev, abs(mass - base_mass)))
    frontier = [
        t
        for t in triples
        if not any(
            o != t and o[0] <= t[0] and o[1] <= t[1] and o[2] <= t[2] for o in triples
        )
    ]
    return sorted(frontier)
