"""Exact-rational linear programming returning optimal basic feasible points.

Two-phase primal simplex with bounded variables: the box bounds are handled
implicitly (nonbasic variables rest at a bound) instead of as constraint
rows, which keeps the working basis small.  The working rows are
fraction-free: a ``Row`` holds integer numerators keyed by column over one
positive integer denominator, content-reduced, and every row reduction here,
in the vertex certificate and in ``nearfair.oracle`` is the one integer
update ``Row.eliminate``.  The pivot loop holds the bounds and the basic
values as integer ``(numerator, denominator)`` pairs and compares ratio-test
steps by cross-multiplication, and the point check reads each answer as
integer numerators over one common denominator; only the model
(``LinearProgram`` with its bounds) and every answer (``VertexSolution``)
are ``fractions.Fraction``; an answer also hands over its values as
integer numerators over their least common denominator
(``VertexSolution.scaled``).  Pricing is largest-coefficient with a
smallest-index tie-break; after a long degenerate streak the solver switches
permanently to Bland's rule, so termination is guaranteed and identical
inputs give identical outputs.

Phase 1 starts from a crash basis (Bixby 1992, "Implementing the simplex
method: the initial basis", ORSA J. Computing 4(3)).  Every LP the pipelines
solve over (agent, bundle) pairs has one row per agent with all-ones
coefficients, disjoint supports and right-hand side 1.  Each such ``=`` row
starts with one of its columns basic at its right-hand side, chosen so that
the ``<=`` rows it touches keep their room where possible, and each
inequality row that this start point satisfies starts on its slack.  Only
the rows left over get an artificial column, and phase 1 minimizes the sum
of those; an LP with none makes no phase-1 pivot.  The start is built from
the integer rows and bounds alone.

Linearly dependent equality rows are tolerated: rows whose artificial cannot
be pivoted out after phase 1 are provably redundant and leave the tableau.

Phase 1 reads only the bounds and the constraint rows, never the objective,
and it is deterministic, so its final tableau is a function of the polytope
alone.  Each ``LinearProgram`` keeps the tableau of its first phase 1 until
a variable or a constraint is added; ``solve_vertex`` runs phase 2 on a copy
of it and ``feasible_vertex`` reads it, so a caller that optimizes several
objectives over one polytope pays for phase 1 once and still gets exactly
the answer a fresh solve would give.  The tableau holds no reference to its
LP and is freed with it.

Every optimal answer is a vertex: the tight bounds and tight constraint rows
have full column rank.  Before ``solve_vertex``/``feasible_vertex`` return,
``LinearProgram.check_point`` checks the answer against every bound and row
in integers, over its values' common denominator, and hands its tight rows
and at-bound columns to ``vertex_rank`` for that rank certificate.  The same
point check serves ``nearfair.oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .errors import InvalidInstanceError, InvariantViolation
from .rationals import ONE, ZERO, over_lcm, rat

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
    row: "Row"  # ``coeffs`` as integer numerators over one denominator


class LinearProgram:
    """Finite-box variables, linear constraints, linear minimize objective."""

    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, Fraction] = {}
        self._phase1: Optional[_Tableau] = None  # see ``_phase_one``

    def add_variable(self, name: str, lb=ZERO, ub=ONE) -> int:
        lb, ub = rat(lb), rat(ub)
        if lb > ub:
            raise InvalidInstanceError(f"variable {name!r} has lb {lb} > ub {ub}")
        self.variables.append(Variable(name, lb, ub))
        self._phase1 = None
        return len(self.variables) - 1

    def _coefficients(self, coeffs: Mapping[int, object], owner: str) -> dict[int, Fraction]:
        """The nonzero coefficients as rationals, keyed by existing columns."""
        clean = {int(j): q for j, v in coeffs.items() if (q := rat(v))}
        for j in clean:
            if not 0 <= j < len(self.variables):
                raise InvalidInstanceError(f"{owner} references unknown variable {j}")
        return clean

    def add_constraint(self, coeffs: Mapping[int, object], rel: str, rhs) -> int:
        if rel not in ("<=", "=", ">="):
            raise InvalidInstanceError(f"bad relation {rel!r}")
        clean = self._coefficients(coeffs, "constraint")
        self.constraints.append(Constraint(clean, rel, rat(rhs), Row.of(clean)))
        self._phase1 = None
        return len(self.constraints) - 1

    def set_objective(self, coeffs: Mapping[int, object]) -> None:
        self.objective = self._coefficients(coeffs, "objective")

    @property
    def n(self) -> int:
        return len(self.variables)

    def check_point(self, nums: Sequence[int], den: int) -> tuple[frozenset[int], frozenset[int]]:
        """Check the point ``nums[j] / den`` (den > 0) against every bound
        and constraint in integers, and return the constraints it meets with
        equality and the columns it holds at a bound.

        A bound p/q holds as ``nums[j] * q`` against ``p * den``; a row's
        left-hand side is the integer sum of its ``Constraint.row``
        numerators times ``nums``, over ``row.den * den``, compared with the
        right-hand side by cross-multiplication.  The first bound or row the
        point breaks raises ``InvariantViolation``.
        """
        at_bound = set()
        for j, (x, var) in enumerate(zip(nums, self.variables)):
            (ln, ld), (un, ud) = var.lb.as_integer_ratio(), var.ub.as_integer_ratio()
            below = x * ld - ln * den  # the sign of x - lb
            above = un * den - x * ud  # the sign of ub - x
            if below < 0 or above < 0:
                raise InvariantViolation(
                    f"point puts {var.name!r} at {Fraction(x, den)}, outside [{var.lb},{var.ub}]"
                )
            if not below or not above:
                at_bound.add(j)
        tight = set()
        for idx, c in enumerate(self.constraints):
            row = c.row
            lhs = sum(v * nums[j] for j, v in row.num.items())  # over row.den * den
            rn, rd = c.rhs.as_integer_ratio()
            diff = lhs * rd - rn * row.den * den  # the sign of lhs - rhs
            if not diff:
                tight.add(idx)
            elif diff > 0 and c.rel != ">=" or diff < 0 and c.rel != "<=":
                lhs = Fraction(lhs, row.den * den)
                raise InvariantViolation(f"point violates constraint {idx}: {lhs} {c.rel} {c.rhs}")
        return frozenset(tight), frozenset(at_bound)


@dataclass
class VertexSolution:
    status: str  # 'optimal' | 'infeasible'
    values: list[Fraction] = field(default_factory=list)
    objective: Fraction = ZERO
    tight_constraints: frozenset[int] = frozenset()
    # ``values`` as integer numerators over their least common denominator,
    # and that denominator; read from ``values`` when not given
    scaled: Optional[tuple[list[int], int]] = None

    def __post_init__(self):
        if self.scaled is None:
            self.scaled = over_lcm(v.as_integer_ratio() for v in self.values)

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


def bland_switch_at(m: int, ncols: int) -> int:
    """Degenerate steps in a row after which ``_simplex`` switches to
    Bland's rule, for a tableau of m rows and ncols columns."""
    return 4 * (m + ncols) + 20


def _reduced(num: int, den: int) -> tuple[int, int]:
    """The rational num/den (den > 0) as a pair in lowest terms."""
    g = gcd(num, den)
    return num // g, den // g


class _Tableau:
    """Sparse working rows with implicit variable bounds.

    Columns: structural variables, then one slack per inequality row, then
    one artificial per row that the crash start leaves without a basic
    column.  Each row of ``T`` is a ``Row`` kept row-reduced so that every
    row's basic column is a unit vector; ``beta[i]`` holds the current
    *value* of the basic variable of row i, and a nonbasic variable rests at
    the bound ``status[j]`` names.  Rows start in constraint order; phase 1
    deletes the dependent rows it drops, so a feasible tableau holds only
    independent rows.  Every lower bound is finite; slacks and
    artificials have no upper bound.  Bounds and basic values are rationals
    held as integer pairs ``(numerator, denominator)`` in lowest terms with
    a positive denominator, so the pivot loop does only integer arithmetic.

    The crash start: every structural column rests at its lower bound except
    one *key* column per keyed row, which is basic at that row's right-hand
    side r.  A row is keyed when it is an ``=`` row whose coefficients are
    all 1 over columns with lower bound 0, whose support is disjoint from
    every earlier keyed row, and whose r >= 0 fits under some column's upper
    bound, as each agent row of an allocation polytope does.  Its key is the
    smallest such column that leaves every ``<=`` row it touches satisfied,
    else the smallest such column, so agents are not all keyed onto one
    resource.  An inequality row that this start point satisfies starts on
    its slack; only the remaining rows get an artificial.
    """

    def __init__(self, lp: LinearProgram):
        n = self.n = lp.n  # the tableau keeps no reference to ``lp``
        self.feasible: Optional[bool] = None  # set by ``_phase_one``
        self.lb: list[tuple[int, int]] = [v.lb.as_integer_ratio() for v in lp.variables]
        self.ub: list[Optional[tuple[int, int]]] = [
            v.ub.as_integer_ratio() for v in lp.variables
        ]
        lb, ub = self.lb, self.ub
        cons = lp.constraints
        rows: list[Row] = []
        slack: list[int] = []  # each row's slack column, -1 for an = row
        # rhs - lhs of each row at the start point, as a pair in lowest terms
        res: list[tuple[int, int]] = []
        uses: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (row, numerator)
        col = n
        for i, c in enumerate(cons):
            row = c.row.copy()
            p, q = c.rhs.numerator, c.rhs.denominator
            for j, v in row.num.items():
                uses[j].append((i, v))
                ln, ld = lb[j]
                if ln:
                    p, q = p * ld * row.den - v * ln * q, q * ld * row.den
            res.append(_reduced(p, q))
            if c.rel == "=":
                slack.append(-1)
            else:
                row.num[col] = row.den if c.rel == "<=" else -row.den
                slack.append(col)
                lb.append((0, 1))
                ub.append(None)  # slack, unbounded above
                col += 1
            rows.append(row)
        self.n_struct_slack = col
        self.m = len(rows)

        def keeps_room(j: int, rp: int, rq: int) -> bool:
            """Moving column j from 0 to rp / rq leaves every <= row that
            holds it satisfied."""
            for k, v in uses[j]:
                if cons[k].rel == "<=":
                    p, q = res[k]
                    if p * rows[k].den * rq < v * rp * q:
                        return False
            return True

        key_row: dict[int, int] = {}  # each key column's row
        covered: set[int] = set()  # the supports of the keyed rows
        for i, c in enumerate(cons):
            num = c.row.num
            if (
                c.rel != "="
                or c.row.den != 1
                or any(v != 1 or lb[j][0] or j in covered for j, v in num.items())
            ):
                continue
            rp, rq = res[i]  # the right-hand side, since every lower bound is 0
            if rp < 0:
                continue
            fits = [j for j in sorted(num) if ub[j][0] * rq >= rp * ub[j][1]]
            if not fits:
                continue
            key = next((j for j in fits if keeps_room(j, rp, rq)), fits[0])
            key_row[key] = i
            covered.update(num)
            if rp:
                for k, v in uses[key]:
                    if k != i:
                        (p, q), den = res[k], rows[k].den
                        res[k] = _reduced(p * den * rq - v * rp * q, q * den * rq)

        self.status: list[int] = [_L] * col
        self.basis: list[int] = []
        self.beta: list[tuple[int, int]] = []
        keyed = {i: j for j, i in key_row.items()}
        for i, row in enumerate(rows):
            p, q = res[i]
            if i in keyed:
                self.basis.append(keyed[i])
                self.beta.append((p, q))
                continue
            # leave each key column a unit vector of its keyed row
            for j in [j for j in row.num if j in key_row]:
                row.eliminate(rows[key_row[j]], j)
            rel = cons[i].rel
            if (rel == "<=" and p >= 0) or (rel == ">=" and p <= 0):
                basic, flip = slack[i], rel == ">="
            else:
                basic, flip = col, p < 0  # a fresh artificial
                lb.append((0, 1))
                ub.append(None)
                self.status.append(_L)
                col += 1
            num = row.num
            if flip:
                # the working row's basic column must read +1, at a value >= 0
                for j, v in num.items():
                    num[j] = -v
                p = -p
            if basic != slack[i]:
                num[basic] = row.den
            self.basis.append(basic)
            self.beta.append((p, q))
        self.ncols = col
        self.arts = frozenset(range(self.n_struct_slack, col))
        self.T = rows
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
        new.basic_set = set(self.basic_set)
        return new

    # -- pivoting ---------------------------------------------------------

    def _pivot_matrix(self, i: int, j: int) -> None:
        """Row-reduce so column j becomes the unit vector of row i."""
        row = self.T[i]
        if j not in row.num:
            raise InvariantViolation("zero pivot")
        row.pivot(j)
        for k, other in enumerate(self.T):
            if k != i and j in other.num:
                other.eliminate(row, j)
        self.basic_set.discard(self.basis[i])
        self.basis[i] = j
        self.basic_set.add(j)

    def _reduced_costs(self, c: Row) -> Row:
        """Reduced costs ``c - c_B T``: no row touches another's basic
        column, so eliminating each basic column once leaves them."""
        z = c.copy()
        for row, b in zip(self.T, self.basis):
            if b in z.num:
                z.eliminate(row, b)
        return z

    def _value(self, j: int) -> tuple[int, int]:
        """Value of a nonbasic column: the bound it rests at."""
        return self.lb[j] if self.status[j] == _L else self.ub[j]

    def _simplex(self, c: Row, forbidden: frozenset[int]) -> None:
        """Minimize ``c`` from the current feasible basis.  Every structural
        variable is boxed, so both phases minimize over a polytope and an
        improving column is always blocked by some bound."""
        degenerate_streak = 0
        bland = False
        switch_at = bland_switch_at(self.m, self.ncols)
        lb, ub, beta, basis = self.lb, self.ub, self.beta, self.basis
        # a fixed variable can never move
        skip = forbidden | {
            j for j in range(self.ncols) if ub[j] is not None and lb[j] == ub[j]
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
            # the rows with a nonzero in the entering column: basic variable
            # i moves by -t * n / d as the entering one moves by t toward its
            # other bound (n/d is T[i][enter] times the direction)
            col = [
                (i, direction * n, row.den)
                for i, row in enumerate(self.T)
                if (n := row.num.get(enter))
            ]

            # ratio test: the step t = (beta_i - bound) * d / n of each
            # blocking row as tn / td with td > 0, compared by
            # cross-multiplication; ties go to the smaller basic index
            tn = td = 0
            leave_row = -1
            leave_to = _L
            for i, n, d in col:
                b = basis[i]
                if n > 0:
                    bound, to = lb[b], _L
                else:
                    bound, to = ub[b], _U
                if bound is None:
                    continue
                (p, q), (bn, bd) = beta[i], bound
                rn = (p * bd - bn * q) * d
                rd = q * bd * n
                if n < 0:
                    rn, rd = -rn, -rd
                if leave_row == -1:
                    tn, td, leave_row, leave_to = rn, rd, i, to
                    continue
                lhs, rhs = rn * td, tn * rd
                if lhs < rhs or (lhs == rhs and b < basis[leave_row]):
                    tn, td, leave_row, leave_to = rn, rd, i, to

            span = None  # the entering variable's box width, as a pair
            if ub[enter] is not None:
                (un, ud), (ln, ld) = ub[enter], lb[enter]
                span = (un * ld - ln * ud, ud * ld)
            if span is not None and (leave_row == -1 or span[0] * td <= tn * span[1]):
                # entering runs all the way to its other bound: no basis change;
                # the box is wide, since a fixed column is skipped
                self._step(col, *span)
                degenerate_streak = 0
                self.status[enter] = _U if self.status[enter] == _L else _L
                continue

            if leave_row == -1:
                raise InvariantViolation(f"no bound blocks improving column {enter}")

            tn, td = _reduced(tn, td)
            if tn > 0:
                self._step(col, tn, td)
                degenerate_streak = 0
            else:
                degenerate_streak += 1
                if degenerate_streak > switch_at:
                    bland = True
            leaving = basis[leave_row]
            vn, vd = self._value(enter)
            new_value = _reduced(vn * td + direction * tn * vd, vd * td)
            self.status[leaving] = leave_to
            self._pivot_matrix(leave_row, enter)
            beta[leave_row] = new_value
            # keep the reduced costs in step with the basis change; z[enter]
            # cancels against the pivot row's unit entry
            if enter in z.num:
                z.eliminate(self.T[leave_row], enter)

    def _step(self, col: list[tuple[int, int, int]], tn: int, td: int) -> None:
        """Move the entering variable by tn / td: each basic value in its
        column drops by (tn / td) * (n / d), one integer update per row."""
        beta = self.beta
        for i, n, d in col:
            p, q = beta[i]
            beta[i] = _reduced(p * td * d - q * tn * n, q * td * d)

    # -- phases -------------------------------------------------------------

    def phase1(self) -> bool:
        arts = range(self.n_struct_slack, self.ncols)
        self._simplex(Row(dict.fromkeys(arts, 1)), forbidden=frozenset())
        # every artificial is nonnegative: the phase-1 optimum is zero iff
        # each basic artificial is
        for b, (p, _) in zip(self.basis, self.beta):
            if b in self.arts and p:
                return False
        # pivot lingering zero-value artificials out of the basis
        for i in range(self.m):
            if self.basis[i] not in self.arts:
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
        # a row still on its artificial has no structural column left: it is
        # dependent on the others and leaves the tableau
        keep = [i for i, b in enumerate(self.basis) if b not in self.arts]
        self.T = [self.T[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.beta = [self.beta[i] for i in keep]
        self.basic_set = set(self.basis)
        self.m = len(keep)
        return True

    def phase2(self, objective: Mapping[int, Fraction]) -> None:
        self._simplex(Row.of(objective), forbidden=self.arts)

    # -- extraction ---------------------------------------------------------

    def solution_ratios(self) -> list[tuple[int, int]]:
        """The structural values as integer pairs in lowest terms."""
        vals = [self._value(j) for j in range(self.n)]
        for b, value in zip(self.basis, self.beta):
            if b < self.n:
                vals[b] = value
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


def vertex_rank(lp: LinearProgram, tight: frozenset[int], at_bound: frozenset[int]) -> int:
    """Rank of the rows tight at a feasible point: the unit rows of its
    at-bound columns and its tight constraint rows, as
    ``LinearProgram.check_point`` returns them.

    Every tight bound row is a unit vector, so the rank is the number of
    at-bound columns plus the rank of the tight constraint rows with those
    columns deleted.
    """
    rest = []  # ``_rank`` reads only numerators, so the denominators stay 1
    for idx in tight:
        num = lp.constraints[idx].row.num
        rest.append(Row({j: v for j, v in num.items() if j not in at_bound}))
    return len(at_bound) + _rank(rest)


def _finish(lp: LinearProgram, tab: _Tableau) -> VertexSolution:
    ratios = tab.solution_ratios()
    scaled = over_lcm(ratios)
    tight, at_bound = lp.check_point(*scaled)
    if vertex_rank(lp, tight, at_bound) != lp.n:
        raise InvariantViolation("optimal point is not a vertex: tight rows rank-deficient")
    values = [Fraction(p, q) for p, q in ratios]
    obj = sum((v * values[j] for j, v in lp.objective.items()), ZERO)
    return VertexSolution(
        status="optimal",
        values=values,
        objective=obj,
        tight_constraints=tight,
        scaled=scaled,
    )


def _phase_one(lp: LinearProgram) -> Optional[_Tableau]:
    """The LP's feasible phase-1 tableau, computed on its first solve and
    kept until a variable or a constraint is added; None when the polytope
    is empty.  Callers may read it but must pivot only a copy."""
    tab = lp._phase1
    if tab is None:
        tab = lp._phase1 = _Tableau(lp)
        tab.feasible = tab.phase1()
    return tab if tab.feasible else None


def solve_vertex(lp: LinearProgram) -> VertexSolution:
    """Minimize the objective; any optimal answer is an extreme point."""
    tab = _phase_one(lp)
    if tab is None:
        return VertexSolution(status="infeasible")
    tab = tab.copy()
    tab.phase2(lp.objective)
    return _finish(lp, tab)


def feasible_vertex(lp: LinearProgram) -> VertexSolution:
    """Any vertex of the feasible region (phase-1 only)."""
    tab = _phase_one(lp)
    if tab is None:
        return VertexSolution(status="infeasible")
    return _finish(lp, tab)
