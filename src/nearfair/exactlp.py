"""Exact-rational linear programming returning optimal basic feasible points.

Two-phase primal simplex with bounded variables: the box bounds are handled
implicitly (nonbasic variables rest at a bound) instead of as constraint
rows, which keeps the working basis small.  The working rows are
fraction-free: a ``Row`` holds integer numerators keyed by column over one
positive integer denominator, content-reduced, and every row reduction here,
in the vertex certificate and in ``nearfair.oracle`` is the one integer
update ``Row.eliminate``.  The model, the bounds, the basic values and every
answer stay ``fractions.Fraction``.  Pricing is largest-coefficient with a
smallest-index tie-break; after a long degenerate streak the solver switches
permanently to Bland's rule, so termination is guaranteed and identical
inputs give identical outputs.

Linearly dependent equality rows are tolerated: rows whose artificial cannot
be pivoted out after phase 1 are provably redundant and get dropped.

Phase 1 reads only the bounds and the constraint rows, never the objective,
and it is deterministic, so its final tableau is a function of the polytope
alone.  ``phase_one(lp)`` runs it once and returns that tableau as a
snapshot; ``solve_vertex(lp, start)`` runs phase 2 on a copy of it, so a
caller that optimizes several objectives over one polytope pays for phase 1
once and still gets exactly the answer a fresh solve would give.  A snapshot
belongs to one ``LinearProgram`` object: using it with another one, or after
a variable or constraint was added, raises ``InvariantViolation``; the
objective may change freely.

Every optimal answer is a vertex: the tight bounds and tight constraint rows
have full column rank, and ``solve_vertex``/``feasible_vertex`` verify that
rank certificate, together with feasibility, before returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .errors import InvalidInstanceError, InvariantViolation
from .rationals import ONE, ZERO, rat

_L, _U = 0, 1  # nonbasic rest positions


@dataclass(frozen=True)
class Variable:
    name: str
    lb: Fraction
    ub: Fraction


@dataclass
class Constraint:
    coeffs: dict[int, Fraction]
    rel: str  # '<=', '=', '>='
    rhs: Fraction


class LinearProgram:
    """Finite-box variables, linear constraints, linear minimize objective."""

    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, Fraction] = {}

    def add_variable(self, name: str, lb=ZERO, ub=ONE) -> int:
        lb, ub = rat(lb), rat(ub)
        if lb > ub:
            raise InvalidInstanceError(f"variable {name!r} has lb {lb} > ub {ub}")
        self.variables.append(Variable(name, lb, ub))
        return len(self.variables) - 1

    def add_constraint(self, coeffs: Mapping[int, object], rel: str, rhs) -> int:
        if rel not in ("<=", "=", ">="):
            raise InvalidInstanceError(f"bad relation {rel!r}")
        clean = {int(j): q for j, v in coeffs.items() if (q := rat(v))}
        for j in clean:
            if not 0 <= j < len(self.variables):
                raise InvalidInstanceError(f"constraint references unknown variable {j}")
        self.constraints.append(Constraint(clean, rel, rat(rhs)))
        return len(self.constraints) - 1

    def set_objective(self, coeffs: Mapping[int, object]) -> None:
        self.objective = {int(j): q for j, v in coeffs.items() if (q := rat(v))}

    @property
    def n(self) -> int:
        return len(self.variables)


@dataclass
class VertexSolution:
    status: str  # 'optimal' | 'infeasible'
    values: list[Fraction] = field(default_factory=list)
    objective: Fraction = ZERO
    tight_constraints: frozenset[int] = frozenset()

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, j: int) -> Fraction:
        return self.values[j]


# ---------------------------------------------------------------------------
# sparse fraction-free elimination
# ---------------------------------------------------------------------------


def _content(num: dict[int, int], g: int) -> int:
    """gcd of g and every numerator.  Folded pairwise rather than passed as
    ``*args``: CPython 3.11 keeps every freed 20-item tuple on a free list
    it never reuses, so star-args over 19-entry rows would pin memory."""
    return 1 if g == 1 else reduce(gcd, num.values(), g)


class Row:
    """A sparse rational row: integer numerators keyed by column over one
    positive integer denominator.

    Rows are kept content-reduced (the gcd of the numerators and the
    denominator is 1), so every rational row has exactly one
    representation, and a pivot undone by the inverse pivot restores it
    exactly.  ``num`` is only ever mutated in place.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict[int, int], den: int = 1):
        self.num = num
        self.den = den

    @classmethod
    def of(cls, coeffs: Mapping[int, Fraction]) -> "Row":
        """The row of rational coefficients over their least common
        denominator, which is already content-reduced; zeros are dropped."""
        den = reduce(lcm, [v.denominator for v in coeffs.values()], 1)
        return cls({k: v.numerator * (den // v.denominator) for k, v in coeffs.items() if v}, den)

    def copy(self) -> "Row":
        return Row(dict(self.num), self.den)

    def pivot(self, j: int) -> None:
        """Scale in place so that column j reads 1."""
        num = self.num
        p = num[j]
        if p < 0:
            for k, v in num.items():
                num[k] = -v
            p = -p
        g = _content(num, p)
        if g != 1:
            for k, v in num.items():
                num[k] = v // g
            p //= g
        self.den = p

    def eliminate(self, pivot: "Row", j: int) -> None:
        """In place ``self -= (self[j] / pivot[j]) * pivot``, so column j
        cancels; j must be a nonzero column of both rows.

        One integer update: with f/p = num[j]/pivot.num[j] in lowest terms
        and p > 0, the numerators become ``num*p - f*pivot.num`` over the
        denominator ``den*p`` (the pivot row's own denominator cancels),
        then the row is content-reduced.  Cancelled entries are dropped.
        """
        num = self.num
        f, p = num[j], pivot.num[j]
        g = gcd(f, p)
        if p < 0:
            g = -g
        f //= g
        p //= g
        den = self.den
        if p != 1:
            for k, v in num.items():
                num[k] = v * p
            den *= p
        for k, v in pivot.num.items():
            a = num.get(k, 0) - f * v
            if a:
                num[k] = a
            else:
                del num[k]
        g = _content(num, den)
        if g != 1:
            for k, v in num.items():
                num[k] = v // g
            den //= g
        self.den = den


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------


class _Tableau:
    """Sparse working rows with implicit variable bounds.

    Columns: structural variables, then one slack per inequality row, then
    one artificial per row.  Each row of ``T`` is a ``Row`` kept
    row-reduced so that every live row's basic column is a unit vector;
    ``beta[i]`` holds the current *value* of the basic variable of row i,
    and a nonbasic variable rests at the bound ``status[j]`` names.  Every
    lower bound is finite; slacks and artificials have no upper bound.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.shape = (lp.n, len(lp.constraints))
        self.feasible: Optional[bool] = None  # set by ``phase_one``
        n = lp.n
        self.lb: list[Fraction] = [v.lb for v in lp.variables]
        self.ub: list[Optional[Fraction]] = [v.ub for v in lp.variables]
        rows: list[Row] = []
        col = n
        for c in lp.constraints:
            row = Row.of(c.coeffs)
            if c.rel in ("<=", ">="):
                row.num[col] = row.den if c.rel == "<=" else -row.den
                self.lb.append(ZERO)
                self.ub.append(None)  # slack, unbounded above
                col += 1
            rows.append(row)
        self.n_struct_slack = col
        self.m = len(rows)
        self.art_of_row = list(range(col, col + self.m))
        for _ in range(self.m):
            self.lb.append(ZERO)
            self.ub.append(None)
        self.ncols = col + self.m
        self.arts = frozenset(self.art_of_row)

        self.status: list[int] = [_L] * self.ncols
        self.beta: list[Fraction] = []
        self.basis: list[int] = []
        for i, (row, c) in enumerate(zip(rows, lp.constraints)):
            # slacks start at 0, so only the structural columns contribute
            resid = c.rhs - sum((v * self.lb[j] for j, v in c.coeffs.items()), ZERO)
            num = row.num
            if resid < 0:
                # flip the working row so the artificial basis column is +e_i
                for j, v in num.items():
                    num[j] = -v
                resid = -resid
            a = self.art_of_row[i]
            num[a] = row.den
            self.basis.append(a)
            self.beta.append(resid)
        self.T = rows
        self.live = [True] * self.m
        self.basic_set = set(self.basis)

    def copy(self) -> "_Tableau":
        """Independent working state; the bounds and the artificial columns,
        which no pivot changes, are shared."""
        new = object.__new__(_Tableau)
        new.__dict__.update(self.__dict__)
        new.T = [row.copy() for row in self.T]
        new.beta = list(self.beta)
        new.status = list(self.status)
        new.basis = list(self.basis)
        new.live = list(self.live)
        new.basic_set = set(self.basic_set)
        return new

    # -- pivoting ---------------------------------------------------------

    def _pivot_matrix(self, i: int, j: int) -> None:
        """Row-reduce so column j becomes the unit vector of row i."""
        row = self.T[i]
        if j not in row.num:
            raise InvariantViolation("zero pivot")
        row.pivot(j)
        for k in range(self.m):
            if k == i or not self.live[k]:
                continue
            other = self.T[k]
            if j in other.num:
                other.eliminate(row, j)
        self.basic_set.discard(self.basis[i])
        self.basis[i] = j
        self.basic_set.add(j)

    def _reduced_costs(self, c: Row) -> Row:
        """Reduced costs ``c - c_B T``: no live row touches another's basic
        column, so eliminating each basic column once leaves them."""
        z = c.copy()
        for i in range(self.m):
            if self.live[i] and self.basis[i] in z.num:
                z.eliminate(self.T[i], self.basis[i])
        return z

    def _value(self, j: int) -> Fraction:
        """Value of a nonbasic column: the bound it rests at."""
        return self.lb[j] if self.status[j] == _L else self.ub[j]

    def _simplex(self, c: Row, forbidden: frozenset[int]) -> None:
        """Minimize ``c`` from the current feasible basis.  Every structural
        variable is boxed, so both phases minimize over a polytope and an
        improving column is always blocked by some bound."""
        degenerate_streak = 0
        bland = False
        switch_at = 4 * (self.m + self.ncols) + 20
        # a fixed variable can never move
        skip = forbidden | {
            j
            for j in range(self.ncols)
            if self.ub[j] is not None and self.lb[j] == self.ub[j]
        }
        z = self._reduced_costs(c)
        while True:
            # largest |z_j| among improving columns, smallest index on ties;
            # Bland's rule takes the smallest improving index.  The reduced
            # costs share one positive denominator: compare numerators.
            enter = -1
            best = 0
            for j, zj in z.num.items():
                if j in skip or j in self.basic_set:
                    continue
                if self.status[j] == _L and zj < 0:
                    score = -zj
                elif self.status[j] == _U and zj > 0:
                    score = zj
                else:
                    continue
                if bland:
                    if enter == -1 or j < enter:
                        enter = j
                elif score > best or (j < enter and score == best):
                    best, enter = score, j
            if enter == -1:
                return
            direction = 1 if self.status[enter] == _L else -1
            # the live rows with a nonzero in the entering column: basic
            # variable i moves by -t * n / d as the entering one moves by t
            # toward its other bound (n/d is T[i][enter] times the direction)
            col = [
                (i, direction * n, row.den)
                for i, row in enumerate(self.T)
                if self.live[i] and (n := row.num.get(enter))
            ]

            t_best: Optional[Fraction] = None
            leave_row = -1
            leave_to = _L
            for i, n, d in col:
                b = self.basis[i]
                if n > 0:
                    bound, to = self.lb[b], _L
                else:
                    bound, to = self.ub[b], _U
                if bound is None:
                    continue
                t = (self.beta[i] - bound) * d / n
                if (
                    t_best is None
                    or t < t_best
                    or (t == t_best and b < self.basis[leave_row])
                ):
                    t_best, leave_row, leave_to = t, i, to

            span = None if self.ub[enter] is None else self.ub[enter] - self.lb[enter]

            if span is not None and (t_best is None or span <= t_best):
                # entering runs all the way to its other bound: no basis change
                if span > 0:
                    for i, n, d in col:
                        self.beta[i] -= span * n / d
                    degenerate_streak = 0
                else:
                    degenerate_streak += 1
                self.status[enter] = _U if self.status[enter] == _L else _L
                if degenerate_streak > switch_at:
                    bland = True
                continue

            if t_best is None:
                raise InvariantViolation(f"no bound blocks improving column {enter}")

            t = t_best
            if t > 0:
                for i, n, d in col:
                    self.beta[i] -= t * n / d
                degenerate_streak = 0
            else:
                degenerate_streak += 1
                if degenerate_streak > switch_at:
                    bland = True
            leaving = self.basis[leave_row]
            new_value = self._value(enter) + direction * t
            self.status[leaving] = leave_to
            self._pivot_matrix(leave_row, enter)
            self.beta[leave_row] = new_value
            # keep the reduced costs in step with the basis change; z[enter]
            # cancels against the pivot row's unit entry
            if enter in z.num:
                z.eliminate(self.T[leave_row], enter)

    # -- phases -------------------------------------------------------------

    def phase1(self) -> bool:
        self._simplex(Row(dict.fromkeys(self.art_of_row, 1)), forbidden=frozenset())
        total = ZERO
        for i in range(self.m):
            if self.live[i] and self.basis[i] in self.arts:
                total += self.beta[i]
        for j in self.art_of_row:
            if j not in self.basic_set and self.status[j] == _U:
                raise InvariantViolation("artificial at upper bound")
        if total != 0:
            return False
        # pivot lingering zero-value artificials out of the basis; rows where
        # no structural column is available are dependent on others: drop them
        for i in range(self.m):
            if not self.live[i] or self.basis[i] not in self.arts:
                continue
            piv_col = min(
                (
                    j
                    for j in self.T[i].num
                    if j < self.n_struct_slack and j not in self.basic_set
                ),
                default=-1,
            )
            if piv_col >= 0:
                new_value = self._value(piv_col)  # degenerate swap, values unchanged
                self.status[self.basis[i]] = _L
                self._pivot_matrix(i, piv_col)
                self.beta[i] = new_value
            else:
                self.live[i] = False
        return True

    def phase2(self, objective: Mapping[int, Fraction]) -> None:
        self._simplex(Row.of(objective), forbidden=self.arts)

    # -- extraction ---------------------------------------------------------

    def solution_values(self) -> list[Fraction]:
        vals = [self._value(j) for j in range(self.lp.n)]
        for i in range(self.m):
            if self.live[i] and self.basis[i] < self.lp.n:
                vals[self.basis[i]] = self.beta[i]
        return vals


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _rank(rows: Sequence[Row]) -> int:
    """Rank of sparse rows by forward elimination; the inputs are not modified.

    Each kept pivot row starts at its pivot column (its smallest key), so
    eliminating a row's smallest key against a pivot row only ever moves
    the row's smallest key to the right.  Only the numerators matter: rank
    does not change under row scaling.
    """
    pivots: dict[int, Row] = {}
    for r in rows:
        r = r.copy()
        while r.num:
            col = min(r.num)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = r
                break
            r.eliminate(prow, col)
    return len(pivots)


def vertex_rank(
    lp: LinearProgram,
    values: Sequence[Fraction],
    tight: Optional[frozenset[int]] = None,
) -> int:
    """Rank of the rows tight at a feasible point (bounds and constraints).

    Every tight bound row is a unit vector, so the rank is the number of
    at-bound columns plus the rank of the tight constraint rows with those
    columns deleted.  ``tight`` is the point's tight constraint set when
    the caller already has it; otherwise the point is checked for
    feasibility first.
    """
    at_bound = {
        j
        for j, var in enumerate(lp.variables)
        if values[j] == var.lb or values[j] == var.ub
    }
    if tight is None:
        tight = _check_feasible(lp, values)
    rest = [
        Row.of({j: v for j, v in lp.constraints[idx].coeffs.items() if j not in at_bound})
        for idx in tight
    ]
    return len(at_bound) + _rank(rest)


def _check_feasible(lp: LinearProgram, values: Sequence[Fraction]) -> frozenset[int]:
    """Raise unless ``values`` meets every bound and constraint; return the
    constraints it meets with equality."""
    for j, var in enumerate(lp.variables):
        if not (var.lb <= values[j] <= var.ub):
            raise InvariantViolation(
                f"solver returned {values[j]} outside [{var.lb},{var.ub}] for {var.name!r}"
            )
    tight = set()
    for idx, c in enumerate(lp.constraints):
        lhs = sum((v * values[j] for j, v in c.coeffs.items()), ZERO)
        if lhs == c.rhs:
            tight.add(idx)
        elif not ((c.rel == "<=" and lhs < c.rhs) or (c.rel == ">=" and lhs > c.rhs)):
            raise InvariantViolation(f"solver violated constraint {idx}: {lhs} {c.rel} {c.rhs}")
    return frozenset(tight)


def _finish(lp: LinearProgram, tab: _Tableau) -> VertexSolution:
    values = tab.solution_values()
    tight = _check_feasible(lp, values)
    if vertex_rank(lp, values, tight) != lp.n:
        raise InvariantViolation("optimal point is not a vertex: tight rows rank-deficient")
    obj = sum((v * values[j] for j, v in lp.objective.items()), ZERO)
    return VertexSolution(
        status="optimal",
        values=values,
        objective=obj,
        tight_constraints=tight,
    )


def phase_one(lp: LinearProgram) -> _Tableau:
    """Run phase 1 once; the returned snapshot's ``feasible`` says whether
    the polytope is empty.  Pass it as ``start`` to ``solve_vertex`` or
    ``feasible_vertex`` for any objective on the same, unchanged ``lp``."""
    tab = _Tableau(lp)
    tab.feasible = tab.phase1()
    return tab


def _after_phase_one(lp: LinearProgram, start: Optional[_Tableau]) -> Optional[_Tableau]:
    """The feasible tableau phase 2 may pivot (a fresh one, or ``start``
    itself), or None when the polytope is empty."""
    if start is None:
        start = phase_one(lp)
    elif start.lp is not lp or start.shape != (lp.n, len(lp.constraints)):
        raise InvariantViolation("phase-1 snapshot belongs to another polytope")
    return start if start.feasible else None


def solve_vertex(lp: LinearProgram, start: Optional[_Tableau] = None) -> VertexSolution:
    """Minimize the objective; any optimal answer is an extreme point.

    ``start`` is a ``phase_one(lp)`` snapshot; phase 2 runs on a copy of it
    and the answer equals a fresh solve's.
    """
    tab = _after_phase_one(lp, start)
    if tab is None:
        return VertexSolution(status="infeasible")
    if start is not None:
        tab = tab.copy()
    tab.phase2(lp.objective)
    return _finish(lp, tab)


def feasible_vertex(lp: LinearProgram, start: Optional[_Tableau] = None) -> VertexSolution:
    """Any vertex of the feasible region (phase-1 only); ``start`` as in
    ``solve_vertex``."""
    tab = _after_phase_one(lp, start)
    if tab is None:
        return VertexSolution(status="infeasible")
    return _finish(lp, tab)
