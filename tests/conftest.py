"""Shared generators and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library:
U-uncertainty via the layer-cake integral of ln(level counts), level set
measures via direct per-segment interval arithmetic, the information
value from those per-segment level set measures, the inverse of a
quadratic level piece by bisection, and the level measure and
rearrangement by scalar per-piece loops where the library uses array
passes.  They exist so the main code paths can be checked against
independently computed values.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from possinfo import DiscreteDistribution, LevelMeasure, PiecewisePossibility
from possinfo.discrete import NORMALIZATION_TOL
from possinfo.simplex import solve_lp


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
    const = v0 == v1
    lo = np.minimum(v0, v1)
    hi = np.maximum(v0, v1)

    b = np.unique(np.concatenate((np.array([0.0, 1.0]), vs)))
    K = len(b) - 1

    nz = np.nonzero(~const)[0]
    rate = np.zeros(len(w))
    rate[nz] = w[nz] / (hi[nz] - lo[nz])

    lo_sorted = np.sort(lo[nz])
    w_suffix = np.concatenate((np.cumsum(w[nz][np.argsort(lo[nz], kind="stable")][::-1])[::-1], [0.0]))
    cidx = np.nonzero(const)[0]
    cv_sorted = np.sort(v0[cidx])
    cw_suffix = np.concatenate((np.cumsum(w[cidx][np.argsort(v0[cidx], kind="stable")][::-1])[::-1], [0.0]))

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
    """Solve P(y) = x on [ya, yb] by the closed-form root, in scalar code."""
    d0, d1, d2 = coeffs
    e = x - d0
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
    K = len(level.coeffs)
    raw = []
    top_val = level.piece_value(K - 1, b[K])
    if top_val > 1e-12:
        raw.append((0.0, 1.0))
    for k in range(K - 1, -1, -1):
        ya, yb = b[k], b[k + 1]
        pa = level.piece_value(k, ya)
        pb = level.piece_value(k, yb)
        if pa > pb and level.coeffs[k][2] != 0.0:
            raw.extend(_quad_inverse_points(level.coeffs[k], ya, yb, pa, pb, tol))
        else:
            raw.append((pb, yb))
            raw.append((pa, ya))
    raw.append((level.total, 0.0))

    pts = []
    prev_x = 0.0
    for x, y in raw:
        if x < 1e-15:
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
