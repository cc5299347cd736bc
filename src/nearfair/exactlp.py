"""Exact-rational linear programming returning optimal basic feasible points.

Two-phase primal simplex over `fractions.Fraction` with bounded variables:
the box bounds are handled implicitly (nonbasic variables rest at a bound)
instead of as constraint rows, which keeps the working basis small.  The
working rows are sparse (column -> nonzero coefficient) and every row
reduction here, in the vertex certificate and in ``nearfair.oracle`` goes
through the one in-place helper ``eliminate``.  Pricing
is largest-coefficient with a smallest-index tie-break; after a long
degenerate streak the solver switches permanently to Bland's rule, so
termination is guaranteed and identical inputs give identical outputs.

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
        clean = {int(j): rat(v) for j, v in coeffs.items() if rat(v) != 0}
        for j in clean:
            if not 0 <= j < len(self.variables):
                raise InvalidInstanceError(f"constraint references unknown variable {j}")
        self.constraints.append(Constraint(clean, rel, rat(rhs)))
        return len(self.constraints) - 1

    def set_objective(self, coeffs: Mapping[int, object]) -> None:
        self.objective = {int(j): rat(v) for j, v in coeffs.items() if rat(v) != 0}

    @property
    def n(self) -> int:
        return len(self.variables)


@dataclass
class VertexSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    values: list[Fraction] = field(default_factory=list)
    objective: Fraction = ZERO
    tight_constraints: frozenset[int] = frozenset()

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, j: int) -> Fraction:
        return self.values[j]


# ---------------------------------------------------------------------------
# sparse exact elimination
# ---------------------------------------------------------------------------

SparseRow = dict[int, Fraction]  # column -> nonzero coefficient


def eliminate(row: SparseRow, f: Fraction, pivot_row: SparseRow) -> None:
    """In place ``row -= f * pivot_row``, dropping entries that cancel."""
    g = -f
    for k, v in pivot_row.items():
        a = row.get(k)
        if a is None:
            row[k] = g * v
        else:
            a += g * v
            if a:
                row[k] = a
            else:
                del row[k]


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------


class _Tableau:
    """Sparse working rows with implicit variable bounds.

    Columns: structural variables, then one slack per inequality row, then
    one artificial per row.  Each row of ``T`` maps a column to its nonzero
    coefficient and is kept row-reduced so that every live row's basic
    column is a unit vector; ``beta[i]`` holds the current *value* of the
    basic variable of row i, and ``x[j]`` the value of every nonbasic
    variable (always at one of its bounds).
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.shape = (lp.n, len(lp.constraints))
        self.feasible: Optional[bool] = None  # set by ``phase_one``
        n = lp.n
        self.lb: list[Optional[Fraction]] = [v.lb for v in lp.variables]
        self.ub: list[Optional[Fraction]] = [v.ub for v in lp.variables]
        rows: list[SparseRow] = []
        col = n
        for c in lp.constraints:
            row = dict(c.coeffs)
            if c.rel in ("<=", ">="):
                row[col] = ONE if c.rel == "<=" else -ONE
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
        self.x: list[Fraction] = [
            self.lb[j] if self.lb[j] is not None else ZERO for j in range(self.ncols)
        ]
        self.beta: list[Fraction] = []
        self.basis: list[int] = []
        for i, row in enumerate(rows):
            resid = self.lp.constraints[i].rhs - sum(
                (v * self.x[j] for j, v in row.items()), ZERO
            )
            if resid < 0:
                # flip the working row so the artificial basis column is +e_i
                row = rows[i] = {j: -v for j, v in row.items()}
                resid = -resid
            a = self.art_of_row[i]
            row[a] = ONE
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
        new.T = [dict(row) for row in self.T]
        new.beta = list(self.beta)
        new.x = list(self.x)
        new.status = list(self.status)
        new.basis = list(self.basis)
        new.live = list(self.live)
        new.basic_set = set(self.basic_set)
        return new

    # -- pivoting ---------------------------------------------------------

    def _pivot_matrix(self, i: int, j: int) -> None:
        """Row-reduce so column j becomes the unit vector of row i."""
        row = self.T[i]
        piv = row.get(j)
        if not piv:
            raise InvariantViolation("zero pivot")
        if piv != 1:
            inv = ONE / piv
            self.T[i] = row = {k: v * inv for k, v in row.items()}
        for k in range(self.m):
            if k == i or not self.live[k]:
                continue
            f = self.T[k].get(j)
            if f:
                eliminate(self.T[k], f, row)
        self.basic_set.discard(self.basis[i])
        self.basis[i] = j
        self.basic_set.add(j)

    def _reduced_costs(self, c: Mapping[int, Fraction]) -> SparseRow:
        """Nonzero reduced costs ``c - c_B T``, keyed by column."""
        z = {j: v for j, v in c.items() if v}
        for i in range(self.m):
            if not self.live[i]:
                continue
            cb = c.get(self.basis[i])
            if cb:
                eliminate(z, cb, self.T[i])
        return z

    def _simplex(self, c: Mapping[int, Fraction], forbidden: frozenset[int]) -> str:
        degenerate_streak = 0
        bland = False
        switch_at = 4 * (self.m + self.ncols) + 20
        # a fixed variable can never move
        skip = forbidden | {
            j
            for j in range(self.ncols)
            if self.lb[j] is not None and self.lb[j] == self.ub[j]
        }
        z = self._reduced_costs(c)
        while True:
            # largest |z_j| among improving columns, smallest index on ties;
            # Bland's rule takes the smallest improving index
            enter = -1
            best = ZERO
            for j, zj in z.items():
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
                return "optimal"
            direction = 1 if self.status[enter] == _L else -1
            # the live rows with a nonzero in the entering column
            col = [
                (i, a)
                for i in range(self.m)
                if self.live[i] and (a := self.T[i].get(enter)) is not None
            ]

            t_best: Optional[Fraction] = None
            leave_row = -1
            leave_to = _L
            for i, a in col:
                a = a * direction
                b = self.basis[i]
                if a > 0:
                    lo = self.lb[b]
                    if lo is None:
                        continue
                    t = (self.beta[i] - lo) / a
                    to = _L
                else:
                    hi = self.ub[b]
                    if hi is None:
                        continue
                    t = (self.beta[i] - hi) / a
                    to = _U
                if (
                    t_best is None
                    or t < t_best
                    or (t == t_best and b < self.basis[leave_row])
                ):
                    t_best, leave_row, leave_to = t, i, to

            span = None
            if self.lb[enter] is not None and self.ub[enter] is not None:
                span = self.ub[enter] - self.lb[enter]

            if span is not None and (t_best is None or span <= t_best):
                # entering runs all the way to its other bound: no basis change
                if span > 0:
                    for i, a in col:
                        self.beta[i] -= direction * a * span
                    degenerate_streak = 0
                else:
                    degenerate_streak += 1
                self.status[enter] = _U if self.status[enter] == _L else _L
                self.x[enter] = (
                    self.ub[enter] if self.status[enter] == _U else self.lb[enter]
                )
                if degenerate_streak > switch_at:
                    bland = True
                continue

            if t_best is None:
                return "unbounded"

            t = t_best
            if t > 0:
                for i, a in col:
                    self.beta[i] -= direction * a * t
                degenerate_streak = 0
            else:
                degenerate_streak += 1
                if degenerate_streak > switch_at:
                    bland = True
            leaving = self.basis[leave_row]
            self.status[leaving] = leave_to
            self.x[leaving] = self.lb[leaving] if leave_to == _L else self.ub[leaving]
            enter_bound = self.lb[enter] if direction == 1 else self.ub[enter]
            new_value = enter_bound + direction * t
            self._pivot_matrix(leave_row, enter)
            self.beta[leave_row] = new_value
            # keep the reduced costs in step with the basis change; z[enter]
            # cancels against the pivot row's unit entry
            f = z.get(enter)
            if f:
                eliminate(z, f, self.T[leave_row])

    # -- phases -------------------------------------------------------------

    def phase1(self) -> bool:
        c = dict.fromkeys(self.art_of_row, ONE)
        status = self._simplex(c, forbidden=frozenset())
        if status != "optimal":
            raise InvariantViolation("phase-1 objective is bounded by construction")
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
                    for j in self.T[i]
                    if j < self.n_struct_slack and j not in self.basic_set
                ),
                default=-1,
            )
            if piv_col >= 0:
                old = self.basis[i]
                new_value = self.x[piv_col]  # degenerate swap, values unchanged
                self.status[old] = _L
                self.x[old] = ZERO
                self._pivot_matrix(i, piv_col)
                self.beta[i] = new_value
            else:
                self.live[i] = False
        return True

    def phase2(self, objective: Mapping[int, Fraction]) -> str:
        return self._simplex(objective, forbidden=self.arts)

    # -- extraction ---------------------------------------------------------

    def solution_values(self) -> list[Fraction]:
        vals = list(self.x)
        for i in range(self.m):
            if self.live[i]:
                vals[self.basis[i]] = self.beta[i]
        return vals[: self.lp.n]


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _tight_constraints(lp: LinearProgram, values: Sequence[Fraction]) -> frozenset[int]:
    tight = set()
    for idx, c in enumerate(lp.constraints):
        lhs = sum((v * values[j] for j, v in c.coeffs.items()), ZERO)
        if lhs == c.rhs:
            tight.add(idx)
    return frozenset(tight)


def _rank(rows: Sequence[SparseRow]) -> int:
    """Rank of sparse rows by forward elimination; the inputs are not modified.

    Each kept pivot row starts at its pivot column (its smallest key), so
    eliminating a row's smallest key against a pivot row only ever moves
    the row's smallest key to the right.
    """
    pivots: dict[int, SparseRow] = {}
    for r in rows:
        r = dict(r)
        while r:
            col = min(r)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = r
                break
            eliminate(r, r[col] / prow[col], prow)
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
    the caller already has it.
    """
    at_bound = {
        j
        for j, var in enumerate(lp.variables)
        if values[j] == var.lb or values[j] == var.ub
    }
    if tight is None:
        tight = _tight_constraints(lp, values)
    rest = [
        {j: v for j, v in lp.constraints[idx].coeffs.items() if j not in at_bound}
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
    status = tab.phase2(lp.objective)
    if status == "unbounded":
        return VertexSolution(status="unbounded")
    return _finish(lp, tab)


def feasible_vertex(lp: LinearProgram, start: Optional[_Tableau] = None) -> VertexSolution:
    """Any vertex of the feasible region (phase-1 only); ``start`` as in
    ``solve_vertex``."""
    tab = _after_phase_one(lp, start)
    if tab is None:
        return VertexSolution(status="infeasible")
    return _finish(lp, tab)
