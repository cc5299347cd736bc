"""Brute-force ground truth for desk-scale verification.

Everything here is exhaustive and exact: integral-allocation enumeration,
polytope vertex enumeration, and the minimal-deviation frontier over all
roundings of a fractional allocation.  Hard scale guards fail fast instead
of letting an oracle dominate the runtime.

Vertices come from lexicographic pivoting (Avis & Fukuda 1992; Avis 2000,
lrs) after a small Bland's-rule phase 1 local to this module.  As in lrs the
pivots are integer: the tableau rows are fraction-free ``Row``s (integer
numerators over one positive denominator), the ratio tests compare
numerators by cross-multiplication, and only a vertex kept is built from
``Fraction``s.  Each new vertex is read from the tableau as integers (the
basic values' numerators plus the lower bounds, over their common
denominator) and goes through the LP model's own integer point check,
``LinearProgram.check_point``, the one the simplex runs on its answers:
every bound and row.  Upper bounds that a nonnegative '<=' row already
implies get no row, which cuts the bases of the couples packing polytopes
about threefold.  The oracle is the independent check on
``nearfair.exactlp``'s simplex, so it takes from that module only the
``LinearProgram`` model and the row kernel ``Row``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from .errors import ScaleExceededError
from .exactlp import LinearProgram, Row
from .model import Allocation, Bundle, Instance, UtilityModel, enumerate_bundles, group_utilities
from .rationals import ONE, ZERO, over_lcm

MAX_INTEGRAL = 10**6
MAX_VERTICES = 10**5
MAX_VERTEX_NODES = 2 * 10**6  # bases visited, about 3 to 4 minutes (see vertex_enumerate)
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


_RHS = -1  # sparse-row key holding the right-hand side, i.e. the basic value


def _redundant_upper_bound(lp: LinearProgram, j: int) -> bool:
    """True when some all-nonnegative '<=' row already forces x_j <= ub_j.

    Requires every variable in that row to have lower bound >= 0 and, for
    the other participating variables, exactly 0, so the row alone implies
    the bound and the bound row can be left out of the standard form
    without changing the polytope.
    """
    ub = lp.variables[j].ub
    for c in lp.constraints:
        if c.rel != "<=":
            continue
        num = c.row.num
        aj = num.get(j, 0)
        if aj <= 0 or any(v < 0 for v in num.values()):
            continue
        if c.rhs * c.row.den > aj * ub:  # rhs / (aj / den) > ub
            continue
        if all(lp.variables[k].lb >= 0 if k == j else lp.variables[k].lb == 0 for k in num):
            return True
    return False


def _standard_form(lp: LinearProgram) -> tuple[list[Row], list[Optional[int]], int]:
    """The polytope as  A y = b, y >= 0, b >= 0  over shifted variables.

    Column j < n is y_j = x_j - lb_j; a fixed variable (lb == ub) is a
    constant and gets no column.  Every inequality row, and every upper
    bound that ``_redundant_upper_bound`` cannot drop, gets a slack column.
    Returns the sparse rows (right-hand side under ``_RHS``), a start basis
    holding each row's +1 slack or None where the row needs an artificial,
    and the number of columns.
    """
    n = lp.n
    lbs = [var.lb for var in lp.variables]
    free = [var.lb != var.ub for var in lp.variables]
    rows: list[Row] = []
    start: list[Optional[int]] = []

    def add(coeffs, slack: Optional[Fraction], rhs: Fraction) -> None:
        row = {j: a for j, a in coeffs.items() if free[j]}
        rhs -= sum((a * lbs[j] for j, a in coeffs.items()), ZERO)
        s = None
        if slack is not None:
            s = n + len(rows)
            row[s] = slack
        if rhs < 0:
            row = {k: -v for k, v in row.items()}
            rhs = -rhs
        if rhs:
            row[_RHS] = rhs
        start.append(s if s is not None and row[s] == 1 else None)
        rows.append(Row.of(row))

    for c in lp.constraints:
        coeffs = {j: Fraction(v, c.row.den) for j, v in c.row.num.items()}
        add(coeffs, {"<=": ONE, ">=": -ONE, "=": None}[c.rel], c.rhs)
    for j, var in enumerate(lp.variables):
        if free[j] and not _redundant_upper_bound(lp, j):
            add({j: ONE}, ONE, var.ub)
    return rows, start, n + len(rows)


def _pivot(rows: list[Row], basis: list, r: int, j: int) -> None:
    """Make column j basic in row r.  Every row has exactly one
    representation, so pivoting back on (r, old basic column) restores
    every row exactly."""
    prow = rows[r]
    prow.pivot(j)
    for i, row in enumerate(rows):
        if i != r and j in row.num:
            row.eliminate(prow, j)
    basis[r] = j


def _phase_one(rows: list[Row], basis: list) -> bool:
    """Drive the artificials (rows whose basis entry is None) to zero.

    Minimizes their sum with Bland's rule; an artificial that leaves never
    re-enters, so its column is not stored.  Returns False when the sum
    stays positive (the polytope is empty).  Otherwise every remaining
    artificial is pivoted out on its row's smallest column, and rows with
    no column left are linearly dependent and dropped, so on return
    ``basis`` is a feasible basis of real columns.
    """
    while True:
        # phase-1 reduced costs: minus the sum of the artificial rows, scaled
        # by the positive common denominator ``den``
        art = [row for row, b in zip(rows, basis) if b is None]
        den = reduce(lcm, [row.den for row in art], 1)
        w: dict[int, int] = {}
        for row in art:
            s = den // row.den
            for k, v in row.num.items():
                if k != _RHS:
                    w[k] = w.get(k, 0) - v * s
        j = min((k for k, v in w.items() if v < 0), default=None)
        if j is None:
            break
        r = min(  # Bland: smallest ratio, then smallest basic index, artificials last
            (i for i, row in enumerate(rows) if row.num.get(j, 0) > 0),
            key=lambda i: (
                Fraction(rows[i].num.get(_RHS, 0), rows[i].num[j]),
                basis[i] is None,
                i if basis[i] is None else basis[i],
            ),
        )
        _pivot(rows, basis, r, j)
    if any(b is None and _RHS in row.num for row, b in zip(rows, basis)):
        return False
    for i, row in enumerate(rows):
        if basis[i] is None:
            j = min((k for k in row.num if k != _RHS), default=None)
            if j is not None:
                _pivot(rows, basis, i, j)
    keep = [i for i, b in enumerate(basis) if b is not None]
    rows[:] = [rows[i] for i in keep]
    basis[:] = [basis[i] for i in keep]
    return True


def _lex_leaving(rows: list[Row], j: int, lex: Sequence[int]) -> Optional[int]:
    """Leaving row for entering column j by the lexicographic ratio test.

    Minimizes ``(beta_i, T[i][lex]) / T[i][j]`` over the rows with
    T[i][j] > 0.  A row's denominator cancels in its ratios, so they are
    compared as numerators by integer cross-multiplication.  One scan finds
    the rows with T[i][j] > 0 and the least ``beta_i`` ratio among them;
    only rows tied there go on to the ``lex`` columns.  ``lex`` holds the
    start basis's columns, so the rows of T[:, lex] are independent and the
    minimum is unique.  None when no entry is positive.
    """
    ties: list[int] = []
    for i, row in enumerate(rows):
        num = row.num
        a = num.get(j, 0)
        if a > 0:
            v = num.get(_RHS, 0)
            if not ties or v * ba < bv * a:
                ties, bv, ba = [i], v, a
            elif v * ba == bv * a:
                ties.append(i)
    for c in lex:
        if len(ties) < 2:
            break
        best: list[int] = []
        for i in ties:
            num = rows[i].num
            v, a = num.get(c, 0), num[j]
            if not best or v * ba < bv * a:
                best, bv, ba = [i], v, a
            elif v * ba == bv * a:
                best.append(i)
        ties = best
    return ties[0] if ties else None


def vertex_enumerate(lp: LinearProgram) -> list[list[Fraction]]:
    """Every vertex of the LP's feasible region, deduplicated and sorted exactly.

    Standard form, then a DFS from the phase-1 basis B0 over the bases that
    stay lexicographically positive with respect to B0: every nonbasic
    column enters, and the leaving row is the lexicographic minimum ratio.
    These bases are the vertices of a perturbed, nondegenerate polytope, so
    a degenerate vertex costs only its few lexicographic bases; and every
    vertex is reached, since it is the unique optimum of some objective and
    the lexicographic simplex from B0 makes only these pivots.
    ``MAX_VERTEX_NODES`` caps the bases visited.  A basis (two integer
    pivots, one ratio test per nonbasic column and the key of its point)
    costs 32-53 us on the small couples packing polytopes of the benchmark
    and 84-114 us on 18-pair ones near the 20-variable guard, where the
    ratio tests are most of it (shared 2-core x86 VM, Python 3.11); only
    polytopes that large can reach the cap, so it trips after roughly 3 to
    4 minutes.  Each new vertex is checked exactly against ``lp`` by
    ``LinearProgram.check_point``; a failure is a broken invariant.
    """
    n = lp.n
    if n > 20:
        raise ScaleExceededError(f"vertex enumeration limited to 20 variables, got {n}")
    rows, basis, ncols = _standard_form(lp)
    if not _phase_one(rows, basis):
        return []
    lex = list(basis)
    lbs = [var.lb.as_integer_ratio() for var in lp.variables]
    found: dict[frozenset, list[Fraction]] = {}

    def emit() -> None:
        # the point is keyed by its nonzero shifted values y_b in lowest terms
        y = []
        for row, b in zip(rows, basis):
            v = row.num.get(_RHS)
            if v and b < n:
                g = gcd(v, row.den)
                y.append((b, v // g, row.den // g))
        key = frozenset(y)
        if key not in found:
            x = list(lbs)  # x_b = lb_b + p / q, as integer pairs
            for b, p, q in y:
                ln, ld = x[b]
                x[b] = (ln * q + p * ld, ld * q)
            nums, den = over_lcm(x)
            lp.check_point(nums, den)
            if len(found) >= MAX_VERTICES:
                raise ScaleExceededError(f"more than {MAX_VERTICES} vertices")
            found[key] = [Fraction(v, den) for v in nums]

    mask = sum(1 << b for b in basis)
    seen = {mask}
    emit()
    # one frame per basis on the DFS path: next column to try, and the pivot
    # (row, column) that restores the parent basis on the way back
    stack: list[list] = [[0, None]]
    while stack:
        frame = stack[-1]
        for j in range(frame[0], ncols):
            if mask >> j & 1:
                continue
            r = _lex_leaving(rows, j, lex)
            if r is None:
                continue
            old = basis[r]
            child = mask ^ (1 << old) ^ (1 << j)
            if child in seen:
                continue
            seen.add(child)
            if len(seen) > MAX_VERTEX_NODES:
                raise ScaleExceededError("vertex enumeration search space too large")
            frame[0] = j + 1
            _pivot(rows, basis, r, j)
            mask = child
            emit()
            stack.append([0, (r, old)])
            break
        else:
            stack.pop()
            if frame[1] is not None:
                r, old = frame[1]
                mask ^= (1 << basis[r]) ^ (1 << old)
                _pivot(rows, basis, r, old)
    return sorted(found.values())


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
    base_groups = group_utilities(x, utilities, instance)
    base_usage = x.loads()
    base_mass = x.mass(instance)
    triples = set()
    for y in enumerate_roundings(instance, x):
        gdev = ZERO
        for key, u in group_utilities(y, utilities, instance).items():
            gdev = max(gdev, abs(u - base_groups[key]))
        rdev = ZERO
        loads = y.loads()
        for r, _ in instance.resources:
            rdev = max(rdev, abs(loads.get(r, ZERO) - base_usage.get(r, ZERO)))
        triples.add((gdev, rdev, abs(y.mass(instance) - base_mass)))
    frontier = [
        t
        for t in triples
        if not any(
            o != t and o[0] <= t[0] and o[1] <= t[1] and o[2] <= t[2] for o in triples
        )
    ]
    return sorted(frontier)
