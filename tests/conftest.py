"""Shared generators and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library:
U-uncertainty via the layer-cake integral of ln(level counts), level set
measures via direct per-segment interval arithmetic, the information
value from those per-segment level set measures, the information value
on the x side from a rearranged curve where the library integrates on
the level side, the inverse of a quadratic level piece by bisection, and
the level measure and rearrangement by scalar per-piece loops where the
library uses array passes, the maximum-U vertices by the former
per-region enumeration and the minimum-distance posterior by the former
multi-start coordinate descent where the library enumerates cell
vertices exactly, the least summed violation of an infeasible problem by
solving every n-subset of its hyperplanes and box faces where the library
walks its tie patterns, the vertex search's float points by the former
per-pattern solve where the library solves a stack of one shape at once
and its exact rescoring in ``Fraction`` arithmetic where the library
keeps integers over one denominator, and the [x, v] pairs of a document
by the former per-pair reader where the library checks them in one pass.  They exist
so the main code paths can be checked against independently computed
values.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from possinfo import (
    DiscreteDistribution,
    DivergenceError,
    InfeasibleProblemError,
    LevelMeasure,
    PiecewisePossibility,
    SchemaError,
    big_g,
    big_k,
)
from possinfo.discrete import NORMALIZATION_TOL
from possinfo.documents import _number_list
from possinfo.inference import (
    _FEAS_TOL,
    _MIN_DIST_SIZE,
    InferenceSolution,
    MinDistance,
    _position_weights,
    _raise_infeasible,
    _solve_integer,
    _system,
)
from possinfo.measures import _log_weights, _u_of_rows, _u_of_values
from simplex import solve_lp


def u_by_level_counts(values):
    """U as the integral of ln #{i : v_i >= t} dt over t in (0, max]."""
    values = sorted(values)
    cuts = sorted(set(values) | {0.0})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        count = sum(1 for v in values if v >= b)
        total += (b - a) * math.log(count) if count else 0.0
    return total


def segment_level_set_measure(f, alpha, strict=False):
    """measure{x : f(x) >= alpha} by direct per-segment computation.

    With ``strict``, measure{x : f(x) > alpha}: the limit of the level set
    measure as the level falls to alpha from above.
    """
    total = 0.0
    pts = f.points
    for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
        w = x1 - x0
        if v0 == v1:
            total += w if (v0 > alpha if strict else v0 >= alpha) else 0.0
            continue
        lo, hi = min(v0, v1), max(v0, v1)
        if alpha <= lo:
            total += w
        elif alpha <= hi:
            total += w * (hi - alpha) / (hi - lo)
    return total


def info_by_segment_levels(f):
    """Information value of a normalized f from per-segment level set measures.

    P is linear between consecutive breakpoint values b_k < b_{k+1}; its
    value at the top of each piece and its limit at the bottom are
    computed by ``segment_level_set_measure`` as sums of nonnegative
    terms, never from a stored slope.  With D = P(b_k+) - P(b_{k+1}) and
    u = D / P(b_{k+1}), the piece's share of the integral of
    (1 - y) (-P') / P is w (1 - ln(1 + u) / u) + (1 - b_{k+1}) ln(1 + u),
    and a jump of P at b_k adds (1 - b_k) ln(P(b_k) / P(b_k+)).
    """
    levels = sorted(set(f.vs.tolist()) | {0.0, 1.0})
    terms = []
    below = segment_level_set_measure(f, 0.0)
    for ya, yb in zip(levels, levels[1:]):
        bottom = segment_level_set_measure(f, ya, strict=True)
        top = segment_level_set_measure(f, yb)
        if below > bottom:
            terms.append((1.0 - ya) * (math.log(below) - math.log(bottom)))
        w = yb - ya
        if top == 0.0:  # the last piece, running down to P(1) = 0
            terms.append(w)
        elif bottom > top:
            u = (bottom - top) / top
            terms.append(w * (1.0 - math.log1p(u) / u) + (1.0 - yb) * math.log1p(u))
        below = top
    return math.fsum(terms)


def level_measure_by_active_set(f):
    """Level measure by an event-driven sweep over the pieces, one at a time.

    A scalar reference for the array passes of ``possinfo.level_measure``:
    the segments spanning each piece are kept in an active set that gains
    a segment at its low value and loses it at its high value, and each
    piece's slope and top value are summed over that set in Python.
    """
    xs, vs = f.xs, f.vs
    x0, x1 = xs[:-1], xs[1:]
    v0, v1 = vs[:-1], vs[1:]
    w = x1 - x0
    lo = np.minimum(v0, v1)
    hi = np.maximum(v0, v1)

    b = np.unique(np.concatenate((np.array([0.0, 1.0]), vs)))
    K = len(b) - 1

    # as in the library, a segment whose rate exceeds the largest float
    # over the segment count (a constant one, or one too steep) counts as
    # constant at its low value, so that no sum of rates overflows
    with np.errstate(divide="ignore", over="ignore"):
        rate = w / (hi - lo)
    const = ~(rate <= np.finfo(float).max / len(w))
    nz = np.nonzero(~const)[0]

    lo_sorted = np.sort(lo[nz])
    w_suffix = np.concatenate((np.cumsum(w[nz][np.argsort(lo[nz], kind="stable")][::-1])[::-1], [0.0]))
    cidx = np.nonzero(const)[0]
    cv_sorted = np.sort(lo[cidx])
    cw_suffix = np.concatenate((np.cumsum(w[cidx][np.argsort(lo[cidx], kind="stable")][::-1])[::-1], [0.0]))

    def mass_at_or_above(y):
        i = np.searchsorted(lo_sorted, y, side="left")
        j = np.searchsorted(cv_sorted, y, side="left")
        return float(w_suffix[i]) + float(cw_suffix[j])

    starts = {}
    ends = {}
    for i in nz:
        starts.setdefault(float(lo[i]), []).append(int(i))
        ends.setdefault(float(hi[i]), []).append(int(i))

    coeffs = []
    active = set()
    for k in range(K):
        active.update(starts.get(float(b[k]), ()))
        y_top = float(b[k + 1])
        m = -sum(float(rate[i]) for i in active)
        top = mass_at_or_above(y_top) + sum(
            float(rate[i]) * (float(hi[i]) - y_top) for i in active
        )
        coeffs.append((top, m, 0.0))
        active.difference_update(ends.get(y_top, ()))
    total = mass_at_or_above(0.0)
    return LevelMeasure(b.tolist(), coeffs, total)


def invert_by_bisection(c, ya, yb, x):
    """Solve P(y) = x on [ya, yb] for nonincreasing anchored pieces, elementwise.

    ``c`` holds one (d0, d1, d2) row per element.  Each element takes the
    steps of an 80-step bisection; the loop ends early once no bracket
    moves, because that state is a fixed point.
    """
    lo, hi = np.array(ya, dtype=float), np.array(yb, dtype=float)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        t = mid - yb
        above = c[:, 0] + t * (c[:, 1] + t * c[:, 2]) > x
        if not np.where(above, mid != lo, mid != hi).any():
            break
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _invert_quad_piece(coeffs, ya, yb, x):
    """Solve P(y) = x on [ya, yb] by the closed-form root, in scalar code.

    As in the library, where d1 * d1 would overflow, e, d1 and d2 are first
    scaled by the power of two that takes |d1| below 2^511, which leaves t
    unchanged.
    """
    d0, d1, d2 = coeffs
    e = x - d0
    if abs(d1) >= 2.0**512:
        s = math.ldexp(1.0, 511 - math.frexp(d1)[1])
        e, d1, d2 = e * s, d1 * s, d2 * s
    t = -2.0 * e / (-d1 + math.sqrt(max(d1 * d1 + 4.0 * d2 * e, 0.0)))
    return min(max(yb + t, ya), yb)


def _quad_inverse_points(coeffs, ya, yb, pa, pb, tol):
    """Sampled inverse graph of a quadratic piece, from (pb, yb) to (pa, ya)."""
    out = [(pb, yb)]

    def refine(x0, y0, x1, y1, depth):
        if x1 - x0 <= 8e-15 or depth >= 64:
            out.append((x1, y1))
            return
        xm = 0.5 * (x0 + x1)
        ym = _invert_quad_piece(coeffs, ya, yb, xm)
        if abs(ym - 0.5 * (y0 + y1)) <= 0.5 * tol:
            out.append((x1, y1))
            return
        refine(x0, y0, xm, ym, depth + 1)
        refine(xm, ym, x1, y1, depth + 1)

    refine(pb, yb, pa, ya, 0)
    return out


def rearrange_by_refinement(level, tol=1e-9):
    """Descending rearrangement by a per-piece loop and depth-first refinement.

    A scalar reference for ``possinfo.rearrange``, which must return
    exactly the same breakpoints: every quadratic piece is refined
    recursively, each inserted point inverted on its own by the same
    closed-form root, and the snap, monotone and duplicate passes run
    point by point.
    """
    if abs(level.total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"rearrangement requires total measure 1, got {level.total!r}")
    b = level.bounds
    coeffs = level.coeffs  # the property builds the tuple of all rows on each access
    K = len(coeffs)
    raw = []
    top_val = level.piece_value(K - 1, b[K])
    if top_val > 1e-12:
        raw.append((0.0, 1.0))
    for k in range(K - 1, -1, -1):
        ya, yb = b[k], b[k + 1]
        pa = level.piece_value(k, ya)
        pb = level.piece_value(k, yb)
        if pa > pb and coeffs[k][2] != 0.0:
            raw.extend(_quad_inverse_points(coeffs[k], ya, yb, pa, pb, tol))
        else:
            raw.append((pb, yb))
            raw.append((pa, ya))
    raw.append((level.total, 0.0))

    pts = []
    prev_x = 0.0
    for i, (x, y) in enumerate(raw):
        if i == 0:
            x = 0.0
        elif x >= 1.0 or abs(x - level.total) < 1e-12:
            x = 1.0
        x = max(x, prev_x)
        prev_x = x
        pts.append((x, y))

    cleaned = []
    for x, y in pts:
        if cleaned and cleaned[-1][0] == x:
            if x == 1.0:
                continue
            cleaned[-1] = (x, y)
        else:
            cleaned.append((x, y))
    if cleaned[-1][0] != 1.0:
        cleaned.append((1.0, cleaned[-1][1]))
    return PiecewisePossibility(cleaned)


def info_of_descending(ft):
    """Closed-form integral of (1 - f~(x))/x over each linear segment."""
    xs, vs = ft.xs, ft.vs
    u = 1.0 - vs
    if u[0] > NORMALIZATION_TOL:
        raise DivergenceError(
            "information integral diverges at 0: the distribution is subnormal "
            f"(sup = {vs[0]!r} < 1)"
        )
    a, bx = xs[:-1], xs[1:]
    ua = np.concatenate(([0.0], u[1:-1]))  # u at the left ends; exactly 0 at x = 0
    ub = u[1:]
    terms = ub - ua  # the first segment starts at a = 0, where s * b = ub - ua
    s = terms[1:] / (bx[1:] - a[1:])
    terms[1:] = (ua[1:] - s * a[1:]) * (np.log(bx[1:]) - np.log(a[1:])) + s * (bx[1:] - a[1:])
    return math.fsum(terms.tolist())


def _unit(n, i, value=1.0):
    return [value if j == i else 0.0 for j in range(n)]


def max_u_by_orderings(problem):
    """Exact maximum of U and its lexicographically largest maximizer, or None.

    U is linear on each chain region v_s1 >= v_s2 >= ... >= v_sn, so one
    exact LP per descending ordering s gives the optimum, and n more LPs
    per optimal region pin the lexicographically largest point of its
    optimal face.  The weights are the rational images of the float
    logarithms, as in the library.  Cost grows as n!, so keep n <= 4.
    """
    n = len(problem.labels)
    weights = [Fraction(0)] + [Fraction(math.log(k) - math.log(k - 1)) for k in range(2, n + 1)]
    base = [(list(c.coefficients), c.relation, c.bound) for c in problem.constraints]
    base += [(_unit(n, i), "<=", 1.0) for i in range(n)]
    best, optimal_faces = None, []
    for s in itertools.permutations(range(n)):
        rows = list(base)
        for a, b in zip(s, s[1:]):
            rows.append(([x + y for x, y in zip(_unit(n, a), _unit(n, b, -1.0))], ">=", 0.0))
        if problem.require_normalized:
            rows.append((_unit(n, s[0]), "=", 1.0))
        objective = [Fraction(0)] * n
        for k, j in enumerate(s):
            objective[j] = weights[k]
        res = solve_lp(n, objective, rows)
        if res.status != "optimal":
            continue
        if best is None or res.objective > best:
            best, optimal_faces = res.objective, []
        if res.objective == best:
            optimal_faces.append(rows + [(objective, "=", best)])
    if best is None:
        return None
    points = []
    for rows in optimal_faces:
        point = []
        for i in range(n):
            res = solve_lp(n, _unit(n, i), rows)
            point.append(res.objective)
            rows = rows + [(_unit(n, i), "=", res.objective)]
        points.append(tuple(point))
    return best, max(points)


def _solve_fractions(matrix, rhs):
    """The solution of matrix . x = rhs by Gaussian elimination in Fractions, or None if singular."""
    n = len(matrix)
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def violation_by_arrangement(problem):
    """Least summed violation over the box and its lexicographically largest minimizer, exactly.

    The sum of max(0, a.v - b) ("<="), max(0, b - a.v) (">=") and
    |a.v - b| ("=") is convex and piecewise linear, so it is least at a
    vertex of the arrangement of the rows' hyperplanes with the box faces
    v_j = 0 and v_j = 1.  Every n-subset of those equations is solved in
    Fractions, and the solutions inside the box are scored.
    """
    n = len(problem.labels)
    rows = [([Fraction(a) for a in c.coefficients], c.relation, Fraction(c.bound))
            for c in problem.constraints]
    planes = [(a, b) for a, _, b in rows]
    planes += [(_unit(n, j), Fraction(side)) for j in range(n) for side in (0, 1)]

    def violation(x):
        total = Fraction(0)
        for a, rel, b in rows:
            excess = sum(ai * xi for ai, xi in zip(a, x)) - b
            if rel != ">=":
                total += max(excess, 0)
            if rel != "<=":
                total += max(-excess, 0)
        return total

    best, minimizers = None, []
    for subset in itertools.combinations(planes, n):
        x = _solve_fractions([a for a, _ in subset], [b for _, b in subset])
        if x is None or not all(0 <= xi <= 1 for xi in x):
            continue
        score = violation(x)
        if best is None or score < best:
            best, minimizers = score, []
        if score == best:
            minimizers.append(tuple(x))
    return best, max(minimizers)


# ---------------------------------------------------------------------------
# maximum U by per-region vertex enumeration (the former ``solve_max_u``)


def _scaled_to_integers(problem):
    """The rows as (integer coefficients, relation, integer bound), the same hyperplanes.

    Floats are dyadic rationals, so a row's largest denominator is a
    multiple of all its others, and scaling by it makes every number whole.
    """
    rows = []
    for c in problem.constraints:
        exact = [Fraction(a) for a in c.coefficients] + [Fraction(c.bound)]
        scale = max(x.denominator for x in exact)
        rows.append(([int(a * scale) for a in exact[:-1]], c.relation, int(exact[-1] * scale)))
    return rows


def _meets_every_row(rows, numerators, den):
    """Whether the exact point numerators / den satisfies every integer row."""
    for a, rel, b in rows:
        lhs, rhs = sum(ai * xi for ai, xi in zip(a, numerators)), b * den
        if not {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[rel]:
            return False
    return True


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
            sol = _solve_integer(matrix, [[b] for _, _, b in chosen])
            if sol is None:
                continue
            ((t,), *values), den = sol
            point = [0] * n
            for j in tied:
                point[j] = t
            for j, (x,) in zip(free, values):
                point[j] = x
            if all(0 <= x <= t for x in point) and _meets_every_row(rows, point, den):
                found.add(tuple(Fraction(x, den) for x in point))
    return found


def _region_vertices(problem):
    """Per coordinate i, the vertices of the feasible region where v_i is largest.

    Normalized, that region is v_i = 1; unnormalized, it is v_j <= v_i for
    all j.  Each list is sorted lexicographically descending.
    """
    n = len(problem.labels)
    rows = _scaled_to_integers(problem)
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
    weights, den = _position_weights(n)
    weights = [Fraction(w, den) for w in weights]
    scores = {v: sum(w * x for w, x in zip(weights, sorted(v, reverse=True))) for v in vertices}
    best = max(scores.values())
    return sorted((v for v, s in scores.items() if s == best), reverse=True)


# ---------------------------------------------------------------------------
# the vertex search pattern by pattern, rescored in Fractions (its former form)


def exact_u_by_fractions(point):
    """U of an exact point, one Fraction product per position."""
    weights = [Fraction(0), *map(Fraction, _log_weights(len(point)).tolist())]
    return sum(w * x for w, x in zip(weights, sorted(point, reverse=True)))


def _exact_point(rows, n, chosen, system, fixed):
    """The exact point whose solved groups satisfy the chosen rows, ``fixed`` giving the rest."""
    _, solved, inverse, den = system
    rhs = [rows[r][2] - sum(rows[r][0][j] * x for j, x in fixed.items()) for r in chosen]
    scale = math.lcm(*(x.denominator for x in rhs))
    ints = [x.numerator * (scale // x.denominator) for x in rhs]
    point = dict(fixed)
    for g, row in zip(solved, inverse):
        point.update(dict.fromkeys(g, Fraction(sum(a * b for a, b in zip(row, ints)), den * scale)))
    return [point[j] for j in range(n)]


def exact_points_by_fractions(search, groups, chosen, system, fixed_values):
    """A search pattern's exact points for one constant assignment, as lists of Fractions."""
    pivot = system[0]
    fixed = [j for j in range(search.n) if all(j not in g for g in groups)]
    known = {j: Fraction(x) for j, x in zip(fixed, fixed_values.tolist())}
    ends = (_exact_point(search.rows, search.n, chosen, system,
                         {**known, **dict.fromkeys(pivot, Fraction(t))}) for t in (0, 1))
    zero = next(ends)
    if not pivot:
        return [zero]
    slope = [y - x for x, y in zip(zero, next(ends))]
    cuts = {(Fraction(c) - x) / s for x, s in zip(zero, slope) if s for c in search.consts.tolist()}
    cuts.update((x2 - x1) / (s1 - s2) for (x1, s1), (x2, s2)
                in itertools.combinations(zip(zero, slope), 2) if s1 != s2)
    cuts = sorted(cuts)
    up = exact_u_by_fractions([Fraction(x) for x in search.prior.tolist()])
    f = [exact_u_by_fractions([x + s * t for x, s in zip(zero, slope)]) - up for t in cuts]
    roots = [lo + (hi - lo) * flo / (flo - fhi)
             for lo, hi, flo, fhi in zip(cuts, cuts[1:], f, f[1:]) if flo * fhi < 0]
    return [[x + s * t for x, s in zip(zero, slope)] for t in roots]


def exact_score_by_fractions(search, point):
    """A vertex search's objective at an exact point of Fractions."""
    uv = exact_u_by_fractions(point)
    if search.metric is None:
        return -uv
    prior = [Fraction(x) for x in search.prior.tolist()]
    uj, up = exact_u_by_fractions(list(map(max, point, prior))), exact_u_by_fractions(prior)
    return 2 * uj - uv - up if search.metric == "G" else uj - min(uv, up)


def violation_score_by_fractions(search, point):
    """A violation search's summed violation at an exact point of Fractions, in its units."""
    total = Fraction(0)
    for (coeffs, rel, bound), u, s in zip(search.rows, search.units.tolist(), search.shifts):
        excess = sum(a * x for a, x in zip(coeffs, point)) - bound
        violation = {"<=": max(excess, 0), ">=": max(-excess, 0), "=": abs(excess)}[rel]
        total += violation * Fraction(2) ** (u - s)
    return total


def candidates_by_pattern(search, groups, chosen, line):
    """(system, constant assignments, float points) of one search pattern, or None if singular.

    The vertex search's former float solve, one pattern at a time: the
    same float operations on each pattern alone, a K line's direction
    from two exact points, and the exact solve of an ill-conditioned
    system in Fractions.
    """
    fixed = [j for j in range(search.n) if all(j not in g for g in groups)]
    system = _system(search.rows, groups, chosen, line)
    if system is None:
        return None
    values = search.grid(len(fixed))
    if not groups:
        return system, values, values
    pivot, solved, inverse, den = system
    k = len(chosen)
    a, b = search.a[list(chosen)], search.b[list(chosen)][:, None]
    rhs = b - a[:, fixed] @ values.T
    slack = search.slack[list(chosen)][:, None]
    try:
        inv = np.array([[(x << search.shifts[r]) / den for x, r in zip(row, chosen)]
                        for row in inverse]).reshape(k, k)
    except OverflowError:
        inv = np.full((k, k), np.inf)
    if (np.abs(inv) @ slack > 1e-12).any():
        sums = np.array([[a[i, g].sum() for g in groups] for i in range(k)])
        low = np.minimum(sums, 0.0).sum(axis=1)[:, None] - 1e6 * slack
        high = np.maximum(sums, 0.0).sum(axis=1)[:, None] + 1e6 * slack
        found = [(v, p) for v in values[((rhs >= low) & (rhs <= high)).all(axis=0)]
                 for p in exact_points_by_fractions(search, groups, chosen, system, v)]
        return (system, np.array([v for v, _ in found]).reshape(len(found), len(fixed)),
                np.array([p for _, p in found], dtype=float).reshape(len(found), search.n))
    points = np.zeros((len(values), search.n))
    points[:, fixed] = values
    for g, t in zip(solved, inv @ rhs):
        points[:, g] = t[:, None]
    if not line:
        return system, values, points
    base = dict.fromkeys(fixed, 0)
    ends = [_exact_point(search.rows, search.n, chosen, system, {**base, **dict.fromkeys(pivot, t)})
            for t in (0, 1)]
    step = np.array([float(y - x) for x, y in zip(*ends)])
    reps = [g[0] for g in groups]
    cuts = [(search.consts - points[:, [j]]) / step[j] for j in reps if step[j]]
    cuts += [(points[:, [h]] - points[:, [j]]) / (step[j] - step[h])
             for j, h in itertools.combinations(reps, 2) if step[j] != step[h]]
    cuts = np.sort(np.hstack(cuts), axis=1)
    f = _u_of_rows(points[:, None, :] + cuts[:, :, None] * step) - search.u_prior
    row, i = np.nonzero((f[:, :-1] < 0.0) != (f[:, 1:] < 0.0))
    lo, hi, flo, fhi = cuts[row, i], cuts[row, i + 1], f[row, i], f[row, i + 1]
    roots = lo + (hi - lo) * flo / (flo - fhi)
    return system, values[row], points[row] + roots[:, None] * step


# ---------------------------------------------------------------------------
# minimum-distance posterior by multi-start coordinate descent


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


def _base_rows(problem):
    """The problem's rows and v_j <= 1 as ``solve_lp`` rows."""
    n = len(problem.labels)
    rows = [(list(c.coefficients), c.relation, c.bound) for c in problem.constraints]
    return rows + [(_unit(n, i), "<=", 1.0) for i in range(n)]


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


def min_distance_by_descent(problem):
    """The former ``solve_min_distance``: a local search kept as an oracle.

    It may stop short of the optimum on a tight inequality row, so the
    exact solver must never be above it.

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


def point_list_by_pairs(raw, where):
    """Decoded [x, v] pairs read one by one, each through the number-list reader."""
    if not isinstance(raw, list):
        raise SchemaError(f"{where} must be an array of [x, v] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}[{i}] must be a two-element array")
        out.append(tuple(_number_list(pair, f"{where}[{i}]")))
    return out


def random_normalized_values(rng, n, grid=None):
    if grid:
        vals = rng.integers(0, grid + 1, n) / grid
    else:
        vals = rng.uniform(0.0, 1.0, n)
    vals[rng.integers(n)] = 1.0
    return tuple(float(v) for v in vals)


def random_distribution(rng, n, labels=None, grid=None, normalized=True):
    vals = random_normalized_values(rng, n, grid=grid)
    if not normalized:
        scale = rng.uniform(0.2, 0.95)
        vals = tuple(v * scale for v in vals)
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    return DiscreteDistribution(labels, vals)


def random_piecewise(rng, max_interior=4, min_gap=0.01, normalized=True):
    while True:
        k = int(rng.integers(0, max_interior + 1))
        xs = np.sort(rng.uniform(0.0, 1.0, k))
        xs = np.concatenate(([0.0], xs, [1.0]))
        if np.all(np.diff(xs) >= min_gap):
            break
    vs = rng.uniform(0.0, 1.0, len(xs))
    if normalized:
        vs[rng.integers(len(vs))] = 1.0
    return PiecewisePossibility(list(zip(xs.tolist(), vs.tolist())))


def random_tau(rng, max_interior=5):
    k = int(rng.integers(0, max_interior + 1))
    ts = np.sort(rng.uniform(0.0, 1.0, k))
    ts = np.unique(np.concatenate(([0.0], ts, [1.0])))
    vals = np.sort(rng.uniform(0.0, 1.0, len(ts) - 2)) if len(ts) > 2 else np.array([])
    vals = np.concatenate(([0.0], vals, [1.0]))
    from possinfo import Tau

    return Tau(list(zip(ts.tolist(), vals.tolist())))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
