"""Maximum-uncertainty inference under linear constraints.

Given linear constraints on an unknown assignment, pick the admissible
one carrying maximum U-uncertainty, or the one closest to a prior in an
information metric (G or K).

U is convex on each region where one fixed coordinate is largest, so its
maximum sits at a vertex of such a region: ``solve_max_u`` enumerates
those vertices exactly in rationals and keeps the best one.
``solve_min_distance`` runs multi-start coordinate descent over the
feasible polytope from the same vertices; the 1-D slices of G and K are
piecewise linear, so each step minimizes exactly over the candidate kink
points.  ``brute_force_oracle`` scans a grid and validates both solvers
in the tests.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .discrete import DiscreteDistribution
from .errors import InfeasibleProblemError
from .measures import _u_of_rows, _u_of_values, big_g, big_k, u_uncertainty
from .simplex import feasible_point, solve_lp

_RELS = ("<=", ">=", "=")
_MAX_U_SIZE = 8
_MIN_DIST_SIZE = 6
_ORACLE_SIZE = 4
_ORACLE_RESOLUTIONS = (0.1, 0.05, 0.02, 0.01)
_FEAS_TOL = 1e-7


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
        if self.relation not in _RELS:
            raise ValueError(f"relation must be one of {_RELS}, got {self.relation!r}")
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


def _base_rows(problem):
    n = len(problem.labels)
    rows = [(list(c.coefficients), c.relation, c.bound) for c in problem.constraints]
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        rows.append((e, "<=", 1.0))
    return rows


def _check_feasible(values, problem):
    for c in problem.constraints:
        lhs = sum(a * v for a, v in zip(c.coefficients, values))
        if c.relation == "<=" and lhs > c.bound + _FEAS_TOL:
            return False
        if c.relation == ">=" and lhs < c.bound - _FEAS_TOL:
            return False
        if c.relation == "=" and abs(lhs - c.bound) > _FEAS_TOL:
            return False
    return all(-_FEAS_TOL <= v <= 1.0 + _FEAS_TOL for v in values)


def _raise_infeasible(problem, context):
    n = len(problem.labels)
    res = feasible_point(n, _base_rows(problem))
    if res.status == "infeasible":
        witness = {
            "best_point": tuple(float(v) for v in res.x),
            "total_violation": float(res.violation),
        }
        raise InfeasibleProblemError(
            f"constraints are infeasible; minimal total violation "
            f"{float(res.violation):.6g} at {witness['best_point']}",
            witness=witness,
        )
    raise InfeasibleProblemError(
        f"{context}: the constraints admit no normalized assignment "
        "(no coordinate can reach possibility 1)",
        witness={"normalized": False},
    )


def _position_weights(n):
    # weight of the k-th largest value in U, as exact rationals of the
    # float logarithms: 0, ln 2, ln 3 - ln 2, ...
    out = [Fraction(0)]
    for k in range(2, n + 1):
        out.append(Fraction(math.log(k) - math.log(k - 1)))
    return out


def _integer_rows(problem):
    """Constraint rows scaled exactly to integers (floats are dyadic rationals)."""
    rows = []
    for c in problem.constraints:
        exact = [Fraction(a) for a in c.coefficients] + [Fraction(c.bound)]
        scale = math.lcm(*(x.denominator for x in exact))
        ints = [int(x * scale) for x in exact]
        rows.append((ints[:-1], c.relation, ints[-1]))
    return rows


def _satisfies(rows, numerators, den):
    """Whether the point numerators / den satisfies every integer row."""
    for coeffs, rel, bound in rows:
        lhs = sum(a * x for a, x in zip(coeffs, numerators))
        if (rel != ">=" and lhs > bound * den) or (rel != "<=" and lhs < bound * den):
            return False
    return True


def _solve_integer(matrix, rhs):
    """Solve an integer square system as (numerators, den > 0), or None if singular.

    Fraction-free Gauss-Jordan elimination: every division is exact, and
    at the end every diagonal entry equals the last pivot, which is the
    determinant up to sign.
    """
    k = len(rhs)
    m = [row + [b] for row, b in zip(matrix, rhs)]
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
    return [sign * row[k] for row in m], sign * det


def _pin_vertices(n, rows, pin):
    """Vertices of the region where coordinate ``pin`` holds a largest value.

    ``rows`` carry the region's own rows on v_pin.  At a vertex every other
    coordinate is 0, tied to v_pin, or free, and the unknowns (v_pin and
    the free values) solve as many rows read as equalities; a solution is
    kept when it lies in the region and satisfies every row.
    """
    others = [j for j in range(n) if j != pin]
    found = set()
    for states in itertools.product((0, 1, 2), repeat=n - 1):  # zero, tied, free
        free = [j for j, s in zip(others, states) if s == 2]
        tied = [pin] + [j for j, s in zip(others, states) if s == 1]
        for chosen in itertools.combinations(rows, len(free) + 1):
            matrix = [[sum(a[j] for j in tied)] + [a[j] for j in free] for a, _, _ in chosen]
            sol = _solve_integer(matrix, [b for _, _, b in chosen])
            if sol is None:
                continue
            (t, *values), den = sol
            point = [0] * n
            for j in tied:
                point[j] = t
            for j, x in zip(free, values):
                point[j] = x
            if all(0 <= x <= t for x in point) and _satisfies(rows, point, den):
                found.add(tuple(Fraction(x, den) for x in point))
    return found


def _region_vertices(problem):
    """Per coordinate i, the vertices of the feasible region where v_i is largest.

    Normalized, that region is v_i = 1; unnormalized, it is v_j <= v_i for
    all j.  Each list is sorted lexicographically descending.
    """
    n = len(problem.labels)
    rows = _integer_rows(problem)
    out = []
    for i in range(n):
        unit = [int(j == i) for j in range(n)]
        if problem.require_normalized:
            region = [(unit, "=", 1)]
        else:
            region = [(unit, "<=", 1), (unit, ">=", 0)]
        out.append(sorted(_pin_vertices(n, rows + region, i), reverse=True))
    return out


def _max_u_vertices(n, vertices):
    """Vertices of exactly maximal U, lexicographically descending."""
    weights = _position_weights(n)
    scores = {v: sum(w * x for w, x in zip(weights, sorted(v, reverse=True))) for v in vertices}
    best = max(scores.values())
    return sorted((v for v, s in scores.items() if s == best), reverse=True)


def solve_max_u(problem):
    """Feasible assignment of maximal U-uncertainty, by exact vertex enumeration.

    With the largest coordinate v_i fixed, U = -ln 2 * v_i + sum_{k>=2}
    (w_k - w_{k+1}) * S_k, where S_k is the sum of the k largest values,
    the weights w_k = ln k - ln(k-1) decrease and w_{n+1} = 0.  So U is
    convex on the region where v_i is largest and, by Bauer's maximum
    principle, attains its maximum at a vertex.  Its argmax set is a union
    of faces, so the lexicographically largest maximizer, which breaks
    ties, is a vertex too.  Vertices are enumerated exactly in rationals
    and scored with the rational images of the float weights.
    """
    if not isinstance(problem.objective, MaxU):
        raise ValueError("solve_max_u requires a MaxU objective")
    n = len(problem.labels)
    if n > _MAX_U_SIZE:
        raise ValueError(f"vertex enumeration is capped at {_MAX_U_SIZE} labels")
    vertices = set().union(*_region_vertices(problem))
    if not vertices:
        _raise_infeasible(problem, "maximum-uncertainty selection")
    optimal = _max_u_vertices(n, vertices)
    values = [float(x) for x in optimal[0]]
    if not _check_feasible(values, problem):
        raise InfeasibleProblemError("internal error: solver produced an infeasible point")
    dist = DiscreteDistribution(problem.labels, values)
    certificate = {
        "method": "vertex enumeration",
        "vertices": len(vertices),
        "candidates": [tuple(float(x) for x in v) for v in optimal],
    }
    return InferenceSolution(dist, u_uncertainty(dist), certificate)


# ---------------------------------------------------------------------------
# minimum-distance posterior


def _g_pair(v, p):
    j = np.maximum(v, p)
    uj = _u_of_values(j)
    return uj - _u_of_values(v), uj - _u_of_values(p)


def _distance(v, p, metric):
    g1, g2 = _g_pair(v, p)
    return g1 + g2 if metric == "G" else max(g1, g2)


def _direction_interval(rows, v, d):
    """Feasible t-range for the move v + t*d inside the polytope and box."""
    lo, hi = -math.inf, math.inf
    for coeffs, rel, bound in rows:
        a = sum(c * dk for c, dk in zip(coeffs, d))
        if a == 0.0:
            continue
        limit = (bound - sum(c * x for c, x in zip(coeffs, v))) / a
        if rel == "=":
            lo = max(lo, limit)
            hi = min(hi, limit)
        elif (rel == "<=") == (a > 0.0):
            hi = min(hi, limit)
        else:
            lo = max(lo, limit)
    for k, dk in enumerate(d):
        if dk == 0.0:
            continue
        t0 = (0.0 - v[k]) / dk
        t1 = (1.0 - v[k]) / dk
        lo = max(lo, min(t0, t1))
        hi = min(hi, max(t0, t1))
    # the current point is feasible, so t = 0 belongs to the range
    return min(lo, 0.0), max(hi, 0.0)


def _point_at(v, d, t):
    return np.clip(np.asarray(v) + t * np.asarray(d), 0.0, 1.0)


def _line_minimize(v, d, rows, prior, metric, best):
    """Exact minimum of the distance along v + t*d over the feasible range.

    Between consecutive candidate points every value entering the sorted
    U-sums moves linearly, so the distance is linear (G) or a max of two
    linear branches (K) there; evaluating the kinks suffices.
    """
    n = len(v)
    lo, hi = _direction_interval(rows, v, d)
    if hi - lo <= 1e-14:
        return None
    moving = [k for k in range(n) if d[k] != 0.0]
    crit = {0.0, 1.0}
    crit.update(float(p) for p in prior)
    for m in range(n):
        if d[m] == 0.0:
            crit.add(float(v[m]))
            crit.add(float(max(v[m], prior[m])))
    ts = {lo, hi, 0.0}
    for k in moving:
        for x in crit:
            t = (x - v[k]) / d[k]
            if lo < t < hi:
                ts.add(t)
    for a_i, b_i in itertools.combinations(moving, 2):
        if d[a_i] != d[b_i]:
            t = (v[b_i] - v[a_i]) / (d[a_i] - d[b_i])
            if lo < t < hi:
                ts.add(t)
    cands = sorted(ts)
    if metric == "K":
        extra = []
        for a, b in zip(cands, cands[1:]):
            g1a, g2a = _g_pair(_point_at(v, d, a), prior)
            g1b, g2b = _g_pair(_point_at(v, d, b), prior)
            da, db = g1a - g2a, g1b - g2b
            if (da > 0 > db) or (da < 0 < db):
                extra.append(a + da / (da - db) * (b - a))
        cands.extend(extra)
    cur_val, cur_t = best, None
    for t in cands:
        val = _distance(_point_at(v, d, t), prior, metric)
        if val < cur_val - 1e-15:
            cur_val, cur_t = val, t
    if cur_t is None:
        return None
    return cur_val, cur_t


def _descend(v0, rows, prior, metric, directions):
    """Greedy line minimization over the given directions until stable."""
    v = np.clip(np.asarray(v0, dtype=float), 0.0, 1.0).tolist()
    best = _distance(np.asarray(v), prior, metric)
    for _pass in range(60):
        improved = False
        for d in directions:
            step = _line_minimize(v, d, rows, prior, metric, best)
            if step is not None:
                best, t = step
                v = _point_at(v, d, t).tolist()
                improved = True
        if not improved:
            break
    return tuple(v), best


def _search_directions(n, problem, pin, metric):
    """Coordinate axes plus in-hyperplane pair moves for equality rows.

    The K objective is a max of two branches whose minimum often sits on a
    ridge that single-axis moves cannot follow, so it also gets diagonal
    pair directions.
    """
    directions = []
    for i in range(n):
        if i == pin:
            continue
        e = [0.0] * n
        e[i] = 1.0
        directions.append(tuple(e))
    if metric == "K":
        for i, j in itertools.combinations(range(n), 2):
            if pin in (i, j):
                continue
            for sj in (1.0, -1.0):
                d = [0.0] * n
                d[i] = 1.0
                d[j] = sj
                directions.append(tuple(d))
    eq_rows = [c.coefficients for c in problem.constraints if c.relation == "="]
    for coeffs in eq_rows:
        for i, j in itertools.combinations(range(n), 2):
            if pin in (i, j):
                continue
            if coeffs[i] == 0.0 or coeffs[j] == 0.0:
                continue  # an axis move already stays on this hyperplane
            d = [0.0] * n
            d[i] = coeffs[j]
            d[j] = -coeffs[i]
            directions.append(tuple(d))
    return list(dict.fromkeys(directions))  # drop repeats, keep the order


def _l1_projection(n, rows, target):
    """Closest feasible point to ``target`` in the L1 sense, via an LP."""
    ext_rows = []
    for coeffs, rel, bound in rows:
        ext_rows.append((list(coeffs) + [0.0] * n, rel, bound))
    for j in range(n):
        row = [0.0] * (2 * n)
        row[j] = 1.0
        row[n + j] = -1.0
        ext_rows.append((row, "<=", target[j]))
        row = [0.0] * (2 * n)
        row[j] = -1.0
        row[n + j] = -1.0
        ext_rows.append((row, "<=", -target[j]))
    objective = [Fraction(0)] * n + [Fraction(-1)] * n
    res = solve_lp(2 * n, objective, ext_rows)
    if res.status != "optimal":
        return None
    return tuple(float(x) for x in res.x[:n])


def solve_min_distance(problem):
    """Feasible assignment minimizing the G or K distance to the prior.

    Multi-start projected coordinate descent: starts are the L1 projection
    of the prior, the maximum-U vertex, the prior when feasible, and every
    enumerated vertex of the region in lexicographically descending order;
    when normalization is required the coordinate attaining 1 is
    enumerated.  The grid oracle certifies the result in the tests, not at
    runtime.
    """
    if not isinstance(problem.objective, MinDistance):
        raise ValueError("solve_min_distance requires a MinDistance objective")
    n = len(problem.labels)
    if n > _MIN_DIST_SIZE:
        raise ValueError(f"minimum-distance search is capped at {_MIN_DIST_SIZE} labels")
    metric = problem.objective.metric
    prior = np.asarray(problem.objective.prior.values, dtype=float)
    base = _base_rows(problem)
    per_pin = _region_vertices(problem)
    vertices = set().union(*per_pin)
    if not vertices:
        _raise_infeasible(problem, "minimum-distance selection")
    max_u_start = tuple(float(x) for x in _max_u_vertices(n, vertices)[0])

    if problem.require_normalized:  # (rows, pinned coordinate or None, vertices)
        regions = []
        for i, pinned in enumerate(per_pin):
            if pinned:
                row = [0.0] * n
                row[i] = 1.0
                regions.append((base + [(row, "=", 1.0)], i, pinned))
    else:
        regions = [(base, None, sorted(vertices, reverse=True))]

    finalists = []
    for rows, pin, vertices in regions:
        directions = _search_directions(n, problem, pin, metric)
        starts = []
        proj = _l1_projection(n, rows, prior)
        if proj is not None:
            starts.append(proj)
        if pin is None or max_u_start[pin] == 1.0:
            starts.append(max_u_start)
        if _check_feasible(prior, problem) and (pin is None or prior[pin] == 1.0):
            starts.append(tuple(prior))
        starts.extend(tuple(float(x) for x in v) for v in vertices)
        # pairwise midpoints of the first starts, capped to bound the work
        midpoints = [
            tuple((np.asarray(a) + np.asarray(b)) / 2.0)
            for a, b in itertools.combinations(starts[:11], 2)
        ]
        for s in itertools.chain(starts, midpoints[:16]):
            point, value = _descend(s, rows, prior, metric, directions)
            finalists.append((value, point))

    best_val = min(v for v, _ in finalists)
    tied = sorted({p for v, p in finalists if v <= best_val + 1e-12}, reverse=True)
    chosen = tied[0]
    dist = DiscreteDistribution(problem.labels, chosen)
    if not _check_feasible(chosen, problem):
        raise InfeasibleProblemError("internal error: solver produced an infeasible point")
    value = (big_g if metric == "G" else big_k)(dist, problem.objective.prior)
    certificate = {
        "method": "multi-start coordinate descent",
        "metric": metric,
        "pinned_coordinates": [pin for _, pin, _ in regions],
        "starts": len(finalists),
        "tied_optima": [tuple(p) for p in tied],
    }
    return InferenceSolution(dist, value, certificate)


def brute_force_oracle(problem, resolution):
    """Exhaustive grid scan; the test-time referee for both solvers."""
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

    if n == 1:
        tail = np.empty((1, 0))
    else:
        mesh = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
        tail = np.stack([m.ravel() for m in mesh], axis=1)

    best_obj = None
    best_row = None
    feasible_count = 0
    for v0 in axis:
        block = np.column_stack([np.full(len(tail), v0), tail])
        mask = np.ones(len(block), dtype=bool)
        for c in problem.constraints:
            lhs = block @ np.asarray(c.coefficients)
            if c.relation == "<=":
                mask &= lhs <= c.bound + 1e-9
            elif c.relation == ">=":
                mask &= lhs >= c.bound - 1e-9
            else:
                mask &= np.abs(lhs - c.bound) <= 1e-9
        if problem.require_normalized:
            mask &= block.max(axis=1) >= 1.0 - 1e-9
        rows = block[mask]
        if not len(rows):
            continue
        feasible_count += len(rows)
        if minimize:
            j = np.maximum(rows, prior)
            uj = _u_of_rows(j)
            uv = _u_of_rows(rows)
            up = _u_of_values(prior)
            obj = (uj - uv) + (uj - up) if metric == "G" else uj - np.minimum(uv, up)
            obj = -obj  # track maxima uniformly
        else:
            obj = _u_of_rows(rows)
        top = obj.max()
        tied = rows[obj >= top - 1e-12]
        order = np.lexsort(tuple(tied[:, j] for j in range(n - 1, -1, -1)))
        row = tied[order[-1]]
        if best_obj is None or top > best_obj + 1e-12 or (
            abs(top - best_obj) <= 1e-12 and tuple(row) > tuple(best_row)
        ):
            best_obj = max(top, best_obj) if best_obj is not None else top
            best_row = row

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
