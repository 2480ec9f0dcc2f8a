"""Shared generators and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library:
U-uncertainty via the layer-cake integral of ln(level counts), and level
set measures via direct per-segment interval arithmetic.  They exist so
the main code paths can be checked against independently computed values.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from possinfo import DiscreteDistribution, PiecewisePossibility
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


def segment_level_set_measure(f, alpha):
    """measure{x : f(x) >= alpha} by direct per-segment computation."""
    total = 0.0
    pts = f.points
    for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
        w = x1 - x0
        if v0 == v1:
            total += w if v0 >= alpha else 0.0
            continue
        lo, hi = min(v0, v1), max(v0, v1)
        if alpha <= lo:
            total += w
        elif alpha <= hi:
            total += w * (hi - alpha) / (hi - lo)
    return total


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
