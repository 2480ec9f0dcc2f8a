"""Maximum-uncertainty inference under linear constraints.

Given linear constraints on an unknown assignment, pick the admissible
one carrying maximum U-uncertainty, or the one closest to a prior in an
information metric (G or K).

U is linear on each cell cut out by v_a = v_b, v_a = 0 and v_a = 1, and G
and K are piecewise linear on the finer cells where v_a = prior_b cuts
too.  So both solvers run one search: it enumerates the cell vertices in
the feasible polytope (for K also the edge points where U(v) = U(prior)),
solves the tie patterns of one shape together in one stacked float pass,
checks and scores stacks of their points in one float pass each, and
rescores the best exactly, in integers over one denominator per point.
Each tie pattern's integer system is eliminated once: its determinant
and den * M^-1 serve the float points, the exact points and a K line's
direction.  ``_patterns`` yields the patterns, never with more tie groups
than rows to solve them, and for max-U with at most one (``solve_max_u``).
``brute_force_oracle``, a grid scan, checks both in the tests.
When nothing is admissible, the same search, scoring summed violation over
the box, names the nearest point (see ``_ViolationSearch``).

A row's relation means the interval its excess a.v - b may take
(``_EXCESS``).  One float pass (``outside``) and one exact function
(``exact_violations``) measure how far points fall outside those
intervals, for the feasibility checks and the witness alike.
"""

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discrete import DiscreteDistribution
from .errors import InfeasibleProblemError
from .measures import (_log_weights, _u_of_ascending, _u_of_rows, _u_of_values, big_g, big_k,
                       u_uncertainty)

_MAX_U_SIZE = 8
_MIN_DIST_SIZE = 6
_ORACLE_SIZE = 4
_ORACLE_RESOLUTIONS = (0.1, 0.05, 0.02, 0.01)
_FEAS_TOL = 1e-7
_EXCESS = {"<=": (-math.inf, 0.0), ">=": (0.0, math.inf), "=": (0.0, 0.0)}


@dataclass(frozen=True)
class LinearConstraint:
    """coefficients . v  <relation>  bound, with one coefficient per label."""

    coefficients: tuple
    relation: str
    bound: float

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        object.__setattr__(self, "bound", float(self.bound))
        if not all(map(math.isfinite, (*self.coefficients, self.bound))):
            raise ValueError("coefficients and bound must be finite")
        if self.relation not in _EXCESS:
            raise ValueError(f"relation must be one of {tuple(_EXCESS)}, got {self.relation!r}")
        if not any(c != 0.0 for c in self.coefficients):
            raise ValueError("a constraint needs at least one nonzero coefficient")


@dataclass(frozen=True)
class MaxU:
    """Objective: maximize U-uncertainty."""


@dataclass(frozen=True)
class MinDistance:
    """Objective: minimize the G or K distance to a prior assignment."""

    prior: DiscreteDistribution
    metric: str = "G"

    def __post_init__(self):
        if self.metric not in ("G", "K"):
            raise ValueError(f"metric must be 'G' or 'K', got {self.metric!r}")


@dataclass(frozen=True)
class InferenceProblem:
    labels: tuple
    constraints: tuple
    objective: object
    require_normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.labels)
        if n == 0:
            raise ValueError("need at least one label")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be pairwise distinct")
        for c in self.constraints:
            if len(c.coefficients) != n:
                raise ValueError("constraint coefficients must match the label count")
        if isinstance(self.objective, MinDistance):
            if self.objective.prior.labels != self.labels:
                raise ValueError("prior must be defined on the same labels")
        elif not isinstance(self.objective, MaxU):
            raise ValueError("objective must be MaxU or MinDistance")


@dataclass(frozen=True)
class InferenceSolution:
    distribution: DiscreteDistribution
    objective_value: float
    certificate: dict


def _dyadic(floats):
    """(numerators, den): floats written exactly over their least common power of two."""
    pairs = [x.as_integer_ratio() for x in floats]
    den = max((d for _, d in pairs), default=1)
    return [p * (den // d) for p, d in pairs], den


def _position_weights(n):
    """(weights, den): U's weight per position, 0 for the largest value, over one power of two."""
    return _dyadic([0.0, *_log_weights(n).tolist()])


def _solve_integer(matrix, rhs):
    """Solve M X = B in integers: (den * X by rows, den = |det M|), or None if M is singular.

    ``rhs`` holds B by rows, so B = I gives den * M^-1.  One fraction-free
    Gauss-Jordan pass over [M | B]: every division is exact, and at the end
    every diagonal entry equals the last pivot, the determinant up to sign.
    """
    k = len(matrix)
    m = [row + list(b) for row, b in zip(matrix, rhs)]
    det = 1
    for c in range(k):
        p = next((r for r in range(c, k) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        for r in range(k):
            if r != c:
                f = m[r][c]
                m[r] = [(piv * x - f * y) // det for x, y in zip(m[r], m[c])]
        det = piv
    sign = 1 if det > 0 else -1
    return [[sign * x for x in row[k:]] for row in m], sign * det


def _patterns(n, m, line, normalized, ties=None):
    """(tie groups, chosen rows): a row per group for a vertex, one fewer for a line.

    Set partitions as restricted growth strings, with "constant" as one
    more choice: each coordinate in turn takes a constant, opens a tie
    group while a row is left for it (fewer than m + line groups) or joins
    one within ``ties``, the cap on groups of two or more.  Groups and
    members ascend.  When normalized, some coordinate must take the
    constant 1, so no state groups all n coordinates.
    """
    states = [([], n if ties is None else ties, 0)]  # (tie groups, ties left, coordinates in them)
    for j in range(n):  # each state keeps j a constant and grows by j opening or joining a group
        for groups, left, covered in states.copy():
            if normalized and covered == n - 1:
                continue
            if len(groups) < m + line:
                states.append(([*groups, [j]], left, covered + 1))
            for i, g in enumerate(groups):
                if len(g) > 1 or left:
                    grown = [*groups[:i], [*g, j], *groups[i + 1:]]
                    states.append((grown, left - (len(g) == 1), covered + 1))
    return ((groups, chosen) for groups, _, covered in states
            if line <= covered < n + (not normalized)
            for chosen in itertools.combinations(range(m), len(groups) - line))


def _group_matrix(rows, groups, chosen):
    return [[sum(rows[r][0][j] for j in g) for g in groups] for r in chosen]


def _system(rows, groups, chosen, line):
    """(pivot, solved groups, den * M^-1, den) of a pattern, or None if its rows are dependent.

    M is the chosen rows' matrix over the solved groups.  A line's pivot
    is the first group whose removal leaves the largest |det|.
    """
    unit = [[int(i == j) for j in range(len(chosen))] for i in range(len(chosen))]
    splits = ([(g, groups[:i] + groups[i + 1:]) for i, g in enumerate(groups)] if line
              else [([], groups)])
    systems = [(pivot, solved, *sol) for pivot, solved in splits
               if (sol := _solve_integer(_group_matrix(rows, solved, chosen), unit))]
    return max(systems, key=lambda system: system[3], default=None)


def _grid(values, r):
    """Every assignment of r coordinates to the ascending ``values``, in lexicographic order."""
    m = len(values)
    # row i holds the base-m digits of i, most significant first
    digits = np.arange(m ** r)[:, None] // m ** np.arange(r - 1, -1, -1)
    digits %= m
    return values[digits]


class _VertexSearch:
    """Cell vertices of a problem: float points per stack of patterns, exact points on demand.

    The objective is minimized: -U over the constants {0, 1} for MaxU, G
    or K over {0, 1} and the prior's values for MinDistance, where K also
    takes the points on lines with one row fewer where U(v) = U(prior).
    An exact point is (numerators, den), every coordinate over one
    denominator; it is checked and scored in integers.
    """

    def __init__(self, problem):
        self.n = len(problem.labels)
        self.metric = getattr(problem.objective, "metric", None)
        self.normalized = problem.require_normalized
        self.prior = np.asarray(problem.objective.prior.values if self.metric else [], dtype=float)
        # each row scaled exactly to integers (floats are dyadic rationals)
        ints = [_dyadic([*c.coefficients, c.bound])[0] for c in problem.constraints]
        self.rows = [(r[:-1], c.relation, r[-1]) for r, c in zip(ints, problem.constraints)]
        # and shifted by a power of two to a largest magnitude in (1/2, 1]:
        # the same hyperplane, and no float overflow in the passes below
        self.shifts = [(max(map(abs, r)) - 1).bit_length() for r in ints]
        self.a = np.array([[x / (1 << s) for x in r[:-1]] for r, s
                           in zip(ints, self.shifts)]).reshape(-1, self.n)
        b = [r[-1] / (1 << s) for r, s in zip(ints, self.shifts)]
        self.b = np.array(b)
        # the interval a.v may take: b plus its excess's interval
        self.low, self.high = (np.array([x + _EXCESS[rel][end] for x, (_, rel, _)
                                         in zip(b, self.rows)]) for end in (0, 1))
        # per row, a bound on the float error of b - a.v over the box
        self.slack = 1e-15 * (np.abs(self.b) + np.abs(self.a).sum(axis=1))
        self.consts = np.array(sorted({0.0, 1.0, *self.prior.tolist()}))
        # the rows of the largest constant grid, grid(n), which bound a stack
        m = len(self.consts)
        self.limit = m ** self.n - (m - 1) ** self.n if self.normalized else m ** self.n
        self.u_prior = _u_of_values(self.prior)
        # U's weights over weight_den, and the constants and the prior over unit
        self.weights, self.weight_den = _position_weights(self.n)
        numerators, self.unit = _dyadic(self.consts.tolist())
        self.const_ints = dict(zip(self.consts.tolist(), numerators))
        self.prior_ints = [self.const_ints[x] for x in self.prior.tolist()]
        self.exact_u_prior = self.u(self.prior_ints)
        self.grids = {}

    def grid(self, r):
        """Every assignment of r coordinates to constants, one of them 1 when normalized."""
        if r not in self.grids:
            g = _grid(self.consts, r)
            self.grids[r] = g[(g == 1.0).any(axis=1)] if self.normalized else g
        return self.grids[r]

    def solve(self, stack, line, f):
        """(patterns, points) of a stack of one shape's (groups, chosen rows, system), in one pass.

        A pattern adds its constant assignments, one row of ``points`` each,
        in pattern order.  The conditioning is checked at once; an
        ill-conditioned system, or one whose inverse overflows, is solved
        exactly instead, for the assignments whose right-hand sides its
        groups can reach in [0, 1].
        """
        values, n, k = self.grid(f), self.n, len(stack[0][1])
        if not stack[0][0]:  # no group: every coordinate is a constant
            return [(*stack[0], values)], values
        # per pattern: each coordinate's row of ``source`` (a constant, a group's value or
        # the pivot's 0), the fixed columns of the chosen rows, and the correctly rounded inverse
        where, cols, row_ids, inv = [], [], [], []
        for p, (groups, rows, (pivot, solved, inverse, den)) in enumerate(stack):
            place = dict.fromkeys(pivot, f + k)
            for i, g in enumerate(solved, f):
                place.update(dict.fromkeys(g, i))
            fixed = [j for j in range(n) if j not in place]
            place.update(zip(fixed, range(f)))
            where += [p * (f + k + 1) + place[j] for j in range(n)]
            cols += [r * n + j for r in rows for j in fixed]
            row_ids += rows
            try:
                inv += [(x << self.shifts[r]) / den for row in inverse for x, r in zip(row, rows)]
            except OverflowError:  # an inverse beyond the float range is as ill-conditioned
                inv += [math.inf] * k * k
        size = len(stack)
        a = self.a.take(cols).reshape(size, k, f)
        slack = self.slack.take(row_ids).reshape(size, k, 1)
        rhs = self.b.take(row_ids).reshape(size, k, 1) - a @ values.T
        inv = np.array(inv).reshape(size, k, k)
        # the shifted rows in float; their exact inverse bounds the float error
        ill = (np.abs(inv) @ slack > 1e-12).any(axis=(1, 2)).tolist()
        if True in ill:
            inv[ill] = 0.0  # their points come from the exact solve below
        source = np.empty((size, f + k + 1, len(values)))
        source[:, :f] = values.T
        source[:, f:f + k] = inv @ rhs
        source[:, f + k] = 0.0
        block = source.reshape(-1, len(values))[where].reshape(size, n, -1).transpose(0, 2, 1)
        good = [p for p, bad in enumerate(ill) if not bad]
        if not line:
            patterns, points = [(*stack[p], values) for p in good], [block[good].reshape(-1, n)]
        else:  # each line's points where U(v) = U(prior)
            patterns, points = [], []
            for p in good:
                groups, rows, system = stack[p]
                step = [x / system[3] for x in self.direction(rows, system)]
                vals, pts = self.crossings(groups, values, block[p], step)
                patterns.append((groups, rows, system, vals))
                points.append(pts)
        for p in itertools.compress(range(size), ill):
            groups, rows, system = stack[p]
            sums = np.array([[self.a[r, g].sum() for g in groups] for r in rows])
            low = np.minimum(sums, 0.0).sum(axis=1)[:, None] - 1e6 * slack[p]
            high = np.maximum(sums, 0.0).sum(axis=1)[:, None] + 1e6 * slack[p]
            found = [(v, x) for v in values[((rhs[p] >= low) & (rhs[p] <= high)).all(axis=0)]
                     for x in self.exact_points(groups, rows, system, v)]
            vals = np.array([v for v, _ in found]).reshape(len(found), f)
            patterns.append((groups, rows, system, vals))
            points.append(np.array([[x / den for x in nums] for _, (nums, den) in found],
                                   dtype=float).reshape(len(found), n))
        return patterns, points[0] if len(points) == 1 else np.concatenate(points)

    def direction(self, chosen, system):
        """A line pattern's direction over den: den on the pivot, -(den * M^-1 . s) on the groups.

        s holds the chosen rows' integer sums over the pivot's columns.
        """
        pivot, solved, inverse, den = system
        sums = [sum(self.rows[r][0][j] for j in pivot) for r in chosen]
        direction = dict.fromkeys(range(self.n), 0) | dict.fromkeys(pivot, den)
        for g, row in zip(solved, inverse):
            direction |= dict.fromkeys(g, -sum(map(operator.mul, row, sums)))
        return list(direction.values())

    def crossings(self, groups, values, points, step):
        """(assignments, points) where U(v) = U(prior) on the lines from ``points`` along ``step``.

        The pivot runs from 0 in ``points``; U is linear in between the
        parameters where a group meets a constant or another group.
        """
        step = np.array(step)
        reps = [g[0] for g in groups]
        cuts = [(self.consts - points[:, [j]]) / step[j] for j in reps if step[j]]
        cuts += [(points[:, [h]] - points[:, [j]]) / (step[j] - step[h])
                 for j, h in itertools.combinations(reps, 2) if step[j] != step[h]]
        cuts = np.sort(np.concatenate(cuts, axis=1), axis=1)
        f = _u_of_rows(points[:, None, :] + cuts[:, :, None] * step) - self.u_prior
        row, i = np.nonzero((f[:, :-1] < 0.0) != (f[:, 1:] < 0.0))
        lo, hi, flo, fhi = cuts[row, i], cuts[row, i + 1], f[row, i], f[row, i + 1]
        roots = lo + (hi - lo) * flo / (flo - fhi)
        return values[row], points[row] + roots[:, None] * step

    def outside(self, points):
        """Per point and row, how far a.v lies outside the row's interval (<= 0 inside), shifted."""
        av = points @ self.a.T
        return np.maximum(av - self.high, self.low - av)

    def feasible(self, points):
        ok = ((points >= -_FEAS_TOL) & (points <= 1.0 + _FEAS_TOL)).all(axis=1)
        return ok & (self.outside(points) <= _FEAS_TOL).all(axis=1)

    def exact_violations(self, point):
        """Per integer row, den times how far a.v lies outside its interval, exactly."""
        numerators, den = point
        excess = [(sum(map(operator.mul, coeffs, numerators)) - bound * den, rel)
                  for coeffs, rel, bound in self.rows]
        return [max(e if rel != ">=" else 0, -e if rel != "<=" else 0) for e, rel in excess]

    def exact_feasible(self, point):
        numerators, den = point
        return all(0 <= x <= den for x in numerators) and not any(self.exact_violations(point))

    def score(self, points):
        uv = _u_of_rows(points)
        if self.metric is None:
            return -uv
        uj, up = _u_of_rows(np.maximum(points, self.prior)), self.u_prior
        return 2.0 * uj - uv - up if self.metric == "G" else uj - np.minimum(uv, up)

    def u(self, numerators):
        """U of the point numerators / den, times weight_den * den."""
        return sum(map(operator.mul, self.weights, sorted(numerators, reverse=True)))

    def exact_points(self, groups, chosen, system, fixed_values):
        """The exact points of one pattern and constant assignment, unchecked."""
        pivot, solved, inverse, den = system
        rows, unit = self.rows, self.unit
        fixed = [j for j in range(self.n) if all(j not in g for g in groups)]
        known = list(zip(fixed, map(self.const_ints.get, fixed_values.tolist())))
        # the chosen rows' right-hand sides with the pivot at 0, over unit
        rhs = [rows[r][2] * unit - sum(rows[r][0][j] * x for j, x in known) for r in chosen]
        scale = den * unit
        point = dict.fromkeys(range(self.n), 0) | {j: x * den for j, x in known}
        for g, row in zip(solved, inverse):
            point |= dict.fromkeys(g, sum(map(operator.mul, row, rhs)))
        point = list(point.values())
        if not pivot:  # a vertex pattern: no line to follow
            return [(point, scale)]
        # every coordinate is affine in the pivot's value t: (point + t * slope) / scale
        slope = [x * unit for x in self.direction(chosen, system)]
        cuts = {Fraction(c * den - x, s) for x, s in zip(point, slope) if s
                for c in self.const_ints.values()}
        cuts.update(Fraction(x2 - x1, s1 - s2) for (x1, s1), (x2, s2)
                    in itertools.combinations(zip(point, slope), 2) if s1 != s2)
        cuts = sorted(cuts)
        # U(v) - U(prior) at each cut t = p / q, times the positive weight_den * unit * scale
        f = [Fraction(self.u([x * t.denominator + s * t.numerator for x, s in zip(point, slope)])
                      * unit - self.exact_u_prior * scale * t.denominator, t.denominator)
             for t in cuts]
        roots = [lo + (hi - lo) * flo / (flo - fhi)
                 for lo, hi, flo, fhi in zip(cuts, cuts[1:], f, f[1:]) if flo * fhi < 0]
        return [([x * t.denominator + s * t.numerator for x, s in zip(point, slope)],
                 scale * t.denominator) for t in roots]

    def exact_score(self, point):
        numerators, den = point
        uv = self.u(numerators)
        if self.metric is None:
            return Fraction(-uv, self.weight_den * den)
        # over weight_den * den * unit
        uj = self.u([max(x * self.unit, p * den) for x, p in zip(numerators, self.prior_ints)])
        uv, up = uv * self.unit, self.exact_u_prior * den
        return Fraction(2 * uj - uv - up if self.metric == "G" else uj - min(uv, up),
                        self.weight_den * den * self.unit)


def _stacks(search, ties):
    """(patterns, points) per stack of one shape's tie patterns, from ``solve``.

    A shape, (line or not, group count, fixed count), fixes a pattern's
    array sizes.  A stack is solved once it holds more constant
    assignments than the search's largest constant grid, and at the end.
    """
    stacks = {}
    for line in (False, True) if search.metric == "K" else (False,):
        for groups, chosen in _patterns(search.n, len(search.rows), line, search.normalized, ties):
            system = _system(search.rows, groups, chosen, line)
            if system is None:
                continue
            f, g = search.n - sum(map(len, groups)), len(groups)
            stack = stacks.setdefault((line, g, f), [])
            stack.append((groups, chosen, system))
            if len(stack) * len(search.grid(f)) > search.limit:
                yield search.solve(stack, line, f)
                stacks[line, g, f] = []
    for (line, _, f), stack in stacks.items():
        if stack:
            yield search.solve(stack, line, f)


def _float_pass(search, ties):
    """(patterns, their first rows, float-feasible rows, their float scores) of a search.

    A pattern is (groups, chosen rows, system, constant assignments), with
    one float point per assignment, solved a stack of one shape at a time
    (``_stacks``).  Rows number the points of every pattern in the order
    the stacks give them, so a row names its pattern (the last first row
    not above it) and its assignment.  The points are checked and scored
    in stacks, one pass of each check per stack.  A stack is checked once
    it holds more rows than the search's largest constant grid, so a large
    search holds a few such grids' points at a time and a small one makes
    few stacks.
    """
    patterns, firsts, found, scores, stack = [], [], [], [], []
    held = stacked = 0  # rows of all patterns so far, and of those in the stack

    def check(first):
        points = stack[0] if len(stack) == 1 else np.concatenate(stack)
        stack.clear()
        ok = np.flatnonzero(search.feasible(points))
        found.append(first + ok)
        scores.append(search.score(points[ok]))

    for solved, points in _stacks(search, ties):
        for pattern in solved:
            if len(pattern[3]):
                patterns.append(pattern)
                firsts.append(held)
                held += len(pattern[3])
        stack.append(points)
        stacked += len(points)
        if stacked > search.limit:
            check(held - stacked)
            stacked = 0
    if stack:
        check(held - stacked)
    return (patterns, firsts, np.concatenate([np.empty(0, int), *found]),
            np.concatenate([np.empty(0), *scores]))


def _exact_minimizers(search, ties):
    """(float candidates, exact minimum, its minimizers lexicographically descending).

    ``ties`` caps the tie groups of the patterns searched.  The patterns
    are solved, checked and scored in floats a stack of one shape at a
    time (``_float_pass``).  A float-feasible candidate is only a row
    number until it is rescored: the candidates within 1e-9 of the best
    are solved, checked and scored exactly, in integers over one
    denominator per point.
    """
    patterns, firsts, found, scores = _float_pass(search, ties)
    best, optima = None, set()
    for c in np.argsort(scores, kind="stable").tolist():
        if best is not None and scores[c] > float(best) + 1e-9:
            break
        row = int(found[c])
        i = bisect.bisect_right(firsts, row) - 1
        *pattern, values = patterns[i]
        for point in search.exact_points(*pattern, values[row - firsts[i]]):
            if search.exact_feasible(point):
                s = search.exact_score(point)
                if best is None or s < best:
                    best, optima = s, set()
                if s == best:
                    numerators, den = point
                    optima.add(tuple(Fraction(x, den) for x in numerators))
    return len(scores), best, sorted(optima, reverse=True)


class _ViolationSearch(_VertexSearch):
    """The vertices of the rows' arrangement with the box faces, scored by summed violation.

    Only the box 0 <= v <= 1 is held hard.  A point pays, per row, how far
    its excess a.v - b lies outside the row's interval: max(0, a.v - b)
    for "<=", max(0, b - a.v) for ">=" and |a.v - b| for "=".  That sum is
    convex and piecewise linear with its breaks on the rows' hyperplanes,
    so its minimum and its lexicographically largest minimizer sit at a
    vertex of their arrangement with {v_j = 0} and {v_j = 1}: a pattern
    with no tie group over the constants {0, 1}.  Scores are in units of
    2**scale, one power of two that bounds every number of every row by 1,
    so the float pass cannot overflow.  Row r's violation is carried into
    them by the factor 2**units[r] from its shifted units (``outside``) and
    by 2**(units[r] - shifts[r]) from its integer row (``exact_violations``).
    """

    def __init__(self, problem):
        super().__init__(InferenceProblem(problem.labels, problem.constraints, MaxU(), False))
        largest = np.abs([(*c.coefficients, c.bound) for c in problem.constraints]).max(axis=1)
        exps = np.frexp(largest)[1]
        self.scale = int(exps.max())
        shifted = np.abs(np.column_stack([self.a, self.b])).max(axis=1)
        self.units = exps - np.frexp(shifted)[1] - self.scale

    def feasible(self, points):
        return ((points >= -_FEAS_TOL) & (points <= 1.0 + _FEAS_TOL)).all(axis=1)

    def exact_feasible(self, point):
        numerators, den = point
        return all(0 <= x <= den for x in numerators)

    def score(self, points):
        return np.ldexp(np.maximum(self.outside(points), 0.0), self.units).sum(axis=1)

    def exact_score(self, point):
        return sum(Fraction(v, point[1]) * Fraction(2) ** (u - s) for v, u, s
                   in zip(self.exact_violations(point), self.units.tolist(), self.shifts))


def _raise_infeasible(problem, context):
    """Raise for a problem with no admissible assignment, with the nearest point as witness.

    The witness is the exact minimum of the summed violation over the box
    and the lexicographically largest point reaching it.  A zero minimum
    means the rows are met but no coordinate can reach 1.
    """
    search = _ViolationSearch(problem)
    _, least, (point, *_) = _exact_minimizers(search, 0)
    violation = least * Fraction(2) ** search.scale
    if not violation:
        raise InfeasibleProblemError(
            f"{context}: the constraints admit no normalized assignment "
            "(no coordinate can reach possibility 1)",
            witness={"normalized": False},
        )
    try:
        total = float(violation)
    except OverflowError:  # the exact minimum lies beyond the float range
        total = math.inf
    witness = {"best_point": tuple(float(x) for x in point), "total_violation": total}
    raise InfeasibleProblemError(
        f"constraints are infeasible; minimal total violation {total:.6g} "
        f"at {witness['best_point']}",
        witness=witness,
    )


def solve_max_u(problem):
    """Feasible assignment of maximal U-uncertainty, by exact vertex enumeration.

    U = sum_k w_k * v_(k), with v_(k) the k-th largest value, w_1 = 0 and
    w_k = ln k - ln(k-1), is also sum_k (w_k - w_{k+1}) * S_k(v), with S_k
    the sum of the k largest values (convex, Ky Fan) and w_{n+1} = 0.  All
    coefficients but the first, -ln 2, are positive, so U = convex - ln 2 *
    max(v) is convex where one coordinate v_i is the largest.  Its maximizers
    there form a union of faces, so the maximum and the lexicographically
    largest maximizer sit at a vertex of such a piece, which ties coordinates
    only with v_i.  The search of ``solve_min_distance``, with the constants
    0 and 1, thus asks ``_patterns`` for at most one tie group, and none
    when normalized (then max(v) = 1); ``vertices`` counts their candidates.
    """
    if not isinstance(problem.objective, MaxU):
        raise ValueError("solve_max_u requires a MaxU objective")
    n = len(problem.labels)
    if n > _MAX_U_SIZE:
        raise ValueError(f"vertex enumeration is capped at {_MAX_U_SIZE} labels")
    # -U is concave where one coordinate is the largest: see the docstring
    search = _VertexSearch(problem)
    count, _, optimal = _exact_minimizers(search, int(not problem.require_normalized))
    if not optimal:
        _raise_infeasible(problem, "maximum-uncertainty selection")
    dist = DiscreteDistribution(problem.labels, [float(x) for x in optimal[0]])
    certificate = {
        "method": "vertex enumeration",
        "vertices": count,
        "candidates": [tuple(float(x) for x in v) for v in optimal],
    }
    return InferenceSolution(dist, u_uncertainty(dist), certificate)


def solve_min_distance(problem):
    """Feasible assignment minimizing the G or K distance to the prior, exactly.

    G is linear on every cell cut out by the hyperplanes v_a = v_b and
    v_a = prior_b, so its minimum sits at a vertex of a cell in the
    feasible polytope.  There each coordinate is 0, 1, a prior value or in
    a tie group whose values solve as many rows read as equalities (with
    normalization, some constant is 1).  K is the larger of two linear
    branches on a cell and adds the points where U(v) = U(prior) on each
    line with one row fewer; U is linear between the points where a group
    meets a constant or another group, so that root is exact.  The
    candidates within 1e-9 of the best float score are rescored exactly
    and the lexicographically largest exact minimizer wins.  The
    certificate's ``vertices`` counts the float-feasible candidates, once
    per pattern reaching them.
    """
    if not isinstance(problem.objective, MinDistance):
        raise ValueError("solve_min_distance requires a MinDistance objective")
    n = len(problem.labels)
    if n > _MIN_DIST_SIZE:
        raise ValueError(f"minimum-distance search is capped at {_MIN_DIST_SIZE} labels")
    count, _, tied = _exact_minimizers(_VertexSearch(problem), None)
    if not tied:
        _raise_infeasible(problem, "minimum-distance selection")
    dist = DiscreteDistribution(problem.labels, [float(x) for x in tied[0]])
    metric = problem.objective.metric
    certificate = {
        "method": "vertex enumeration",
        "metric": metric,
        "vertices": count,
        "tied_optima": [tuple(float(x) for x in p) for p in tied],
    }
    value = (big_g if metric == "G" else big_k)(dist, problem.objective.prior)
    return InferenceSolution(dist, value, certificate)


def _inserted(ascending, x):
    """The rows of ``ascending`` with x inserted, C-contiguous: what np.sort gives.

    Entry c of a row is max(a_c-1, min(a_c, x)), with a_-1 = -inf and a_k = inf.
    """
    out = np.empty((len(ascending), ascending.shape[1] + 1))
    np.minimum(ascending, x, out=out[:, :-1])
    out[:, -1] = x
    np.maximum(out[:, 1:], ascending, out=out[:, 1:])
    return out


def brute_force_oracle(problem, resolution):
    """Exhaustive grid scan; the test-time referee for both solvers.

    The grid runs in lexicographic order, and of the points whose objective
    is within 1e-12 of the best the lexicographically largest wins.
    """
    n = len(problem.labels)
    if n > _ORACLE_SIZE:
        raise ValueError(f"exhaustive scan is capped at {_ORACLE_SIZE} labels")
    if resolution not in _ORACLE_RESOLUTIONS:
        raise ValueError(f"resolution must be one of {_ORACLE_RESOLUTIONS}")
    steps = round(1.0 / resolution)
    axis = np.linspace(0.0, 1.0, steps + 1)
    minimize = isinstance(problem.objective, MinDistance)
    if minimize:
        prior = np.asarray(problem.objective.prior.values, dtype=float)
        metric = problem.objective.metric
        up = _u_of_values(prior)

    # one slice of the grid per first coordinate, which is written in place;
    # the other coordinates are sorted once, and beside them their join with the prior
    block = np.empty((len(axis) ** (n - 1), n))
    block[:, 1:] = _grid(axis, n - 1)
    tails = np.sort(block[:, 1:], axis=1)
    if minimize:
        tails = np.hstack([tails, np.sort(np.maximum(block[:, 1:], prior[1:]), axis=1)])
    reach = (block[:, 1:] >= 1.0 - 1e-9).any(axis=1) | (not problem.require_normalized)
    best_obj, best_row = -np.inf, None
    feasible_count = 0
    for v0 in axis:
        block[:, 0] = v0
        mask = reach | (v0 >= 1.0 - 1e-9)
        for c in problem.constraints:
            excess = block @ np.asarray(c.coefficients) - c.bound
            mask &= {"<=": excess, ">=": -excess, "=": np.abs(excess)}[c.relation] <= 1e-9
        rows = np.flatnonzero(mask)
        if not len(rows):
            continue
        feasible_count += len(rows)
        sorted_tails = tails[rows]
        obj = _u_of_ascending(_inserted(sorted_tails[:, :n - 1], v0))
        if minimize:  # track maxima uniformly
            uj = _u_of_ascending(_inserted(sorted_tails[:, n - 1:], max(v0, prior[0])))
            obj = -((uj - obj) + (uj - up) if metric == "G" else uj - np.minimum(obj, up))
        top = obj.max()
        # rows and slices ascend lexicographically: the last tied point is the largest
        if top > best_obj + 1e-12 or abs(top - best_obj) <= 1e-12:
            best_obj = max(top, best_obj)
            best_row = block[rows[np.flatnonzero(obj >= top - 1e-12)[-1]]].copy()

    if best_row is None:
        raise InfeasibleProblemError(
            f"no grid point at resolution {resolution} satisfies the constraints"
        )
    dist = DiscreteDistribution(problem.labels, best_row.tolist())
    value = -best_obj if minimize else best_obj
    certificate = {
        "method": "grid scan",
        "resolution": resolution,
        "feasible_points": feasible_count,
    }
    return InferenceSolution(dist, float(value), certificate)
