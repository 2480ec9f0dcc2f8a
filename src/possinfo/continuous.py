"""Continuous possibility distributions on the unit interval.

A continuous assignment is a measurable f : [0,1] -> [0,1]; we represent
the piecewise-linear class exactly, because everything downstream then
admits closed forms:

* the level measure P(y) = measure{x : f(x) >= y} is piecewise polynomial
  of degree <= 1 (degree <= 2 after min-products),
* the descending rearrangement is the generalized inverse of P,
* the information value

      info(f) = integral_0^1 (1 - f~(x)) / x dx

  (f~ the rearrangement) is -integral_0^1 ln P(y) dy, by swapping the
  integrals in 1 - f~(x) = integral_0^1 [f~(x) < y] dy, and is integrated
  on the level side in closed form on every piece of P.

The integral is the information distance from the uniform assignment
f == 1; it diverges for subnormal inputs (sup f < 1), which is reported
as an error rather than regularized.  Non-linear curves enter through
``sample_function`` with the usual interpolation error bound.
"""

import math

import numpy as np

from .discrete import NORMALIZATION_TOL
from .errors import DivergenceError, OrderViolationError

_SNAP = 1e-12
_REARRANGE_TOL = 1e-9  # sup-norm error in y of rearrange's chords on each piece, away from x = 1


def _float_array(values):
    """A new float array from an array, a sequence or any other iterable."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    return np.array(values, dtype=float)


def _frozen(a):
    a.flags.writeable = False
    return a


class PiecewisePossibility:
    """Piecewise-linear function on [0, 1] with values in [0, 1].

    Breakpoints have strictly increasing x from exactly 0 to exactly 1;
    values interpolate linearly in between, finite and inside [0, 1] in
    segments of any width.  Normalized means the maximum breakpoint value
    reaches 1 within ``NORMALIZATION_TOL`` (for a piecewise-linear
    function the sup is attained at a breakpoint).
    The breakpoints may be given as any iterable of (x, value) pairs or as
    an n-by-2 array; ``xs`` and ``vs`` are read-only arrays, and the
    ``points`` tuple is built from them on each access.  Values compare
    equal only to values of the same type (``measures.Tau`` is a subclass)
    and pickle and copy through their breakpoint array.
    """

    __slots__ = ("_xs", "_vs", "is_normalized", "_narrow")

    def __init__(self, points):
        if not isinstance(points, (np.ndarray, list, tuple)):
            points = list(points)
        # the transposed copy below is the one this value owns, so an array is not copied first
        pts = np.asarray(points, dtype=float)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("breakpoints must be (x, value) pairs")
        xs, vs = _frozen(pts.T.copy())
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError(
                f"domain must be exactly [0, 1], got [{float(xs[0])}, {float(xs[-1])}]"
            )
        if np.count_nonzero(xs[1:] > xs[:-1]) < len(xs) - 1:
            raise ValueError("x-coordinates must be strictly increasing")
        top = np.maximum.reduce(vs)
        if not (np.minimum.reduce(vs) >= 0.0 and top <= 1.0):  # a NaN propagates into both
            i = int(np.argmin((vs >= 0.0) & (vs <= 1.0)))
            raise ValueError(f"value at breakpoint {i} outside [0, 1]: {float(vs[i])!r}")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "is_normalized", bool(top >= 1.0 - NORMALIZATION_TOL))
        # np.interp's slope |dv| / dx can overflow only if dx <= 2**-1024, below 2**-971
        object.__setattr__(self, "_narrow", bool(xs[1] < 2.0**-971))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (np.column_stack((self._xs, self._vs)),)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._xs, other._xs) and np.array_equal(self._vs, other._vs)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"{type(self).__name__}({len(self._xs)} breakpoints)"

    @property
    def points(self):
        return tuple(zip(self._xs.tolist(), self._vs.tolist()))

    @property
    def xs(self):
        return self._xs

    @property
    def vs(self):
        return self._vs

    @property
    def max_value(self):
        return float(self._vs.max())

    def __call__(self, x):
        y = np.interp(x, self._xs, self._vs)
        if self._narrow and not np.isfinite(y).all():
            # scaled by 2**1000, every slope is finite and no coordinate loses a bit
            scaled = np.interp(np.clip(x, 0.0, 1.0) * 2.0**1000, self._xs * 2.0**1000, self._vs)
            y = np.where(np.isfinite(y), y, scaled)[()]
        return y


def sample_function(evaluator, n_breakpoints):
    """Piecewise-linear interpolant of a callable on a uniform grid.

    The evaluator must map [0, 1] into [0, 1] at every grid point; values
    drifting outside by at most 1e-12 (floating round-off) are snapped
    back.  Refinement is the caller's responsibility via ``n_breakpoints``;
    for a C^2 curve the sup-norm error is bounded by max|f''| h^2 / 8 with
    h the grid step.
    """
    if n_breakpoints < 2:
        raise ValueError("need at least two breakpoints")
    xs = np.linspace(0.0, 1.0, n_breakpoints)
    try:  # array-aware evaluators take the whole grid at once
        vs = np.asarray(evaluator(xs), dtype=float)
        if vs.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vs = np.array([float(evaluator(float(x))) for x in xs])
    vs[(vs >= -_SNAP) & (vs < 0.0)] = 0.0
    vs[(vs > 1.0) & (vs <= 1.0 + _SNAP)] = 1.0
    bad = np.nonzero((vs < 0.0) | (vs > 1.0) | ~np.isfinite(vs))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"evaluator output outside [0, 1] at x={float(xs[i])!r}: {float(vs[i])!r}"
        )
    return PiecewisePossibility(np.column_stack((xs, vs)))


def _eval(c, u):
    """Anchored pieces c at offsets u <= 0 in their units (see ``LevelMeasure``), elementwise."""
    return c[..., 0] + u * (c[..., 1] + u * c[..., 2])


def _fold(v, e):
    """v * 2^e, elementwise; 0 or +-inf past the float range."""
    if not e.any():
        return v
    with np.errstate(over="ignore"):
        return np.ldexp(v, e)


def _units(b):
    """Each piece's offset unit 2^s, its height b_{k+1} - b_k in [2^(s-1), 2^s) (see ``LevelMeasure``)."""
    return np.frexp(b[1:] - b[:-1])[1]


def _normalized(c, e):
    """Rows c over 2^e, rescaled by exact powers of two to obey the range rule of ``LevelMeasure``."""
    x = np.frexp(c)[1]  # binary exponents of the coefficients, 0 for 0
    if not e.any() and np.abs(x).max() <= 510:
        return c, e
    x = np.where(c != 0.0, x + e[:, None], 0)
    new = np.where(np.abs(x).max(axis=1) <= 510, 0, np.frexp(np.abs(c).max(axis=1))[1] + e - 509)
    return np.ldexp(c, (e - new)[:, None]), new


class LevelMeasure:
    """The survival-style level function P(y) = measure{x : f(x) >= y}.

    Stored as contiguous polynomial pieces over y in [0, 1], each of
    degree <= 2, monotone nonincreasing.  P is left-continuous: the piece
    over (b_k, b_{k+1}] owns its upper endpoint, and downward jumps at
    piece boundaries encode plateaus of the underlying function.  ``total``
    is P(0), the measure of the whole domain.

    A piece is anchored at its top level in the unit 2^s of its height,
    in [2^(s-1), 2^s), with an integer exponent e: its row (d0, d1, d2)
    means P = 2^e (d0 + u (d1 + u d2)), u = (y - b_{k+1}) / 2^s <= 0.  For
    the pieces built here no coefficient exceeds twice P on the piece and
    d1 <= 0 <= d2, so evaluation never cancels.  A power of two leaves a
    piece's inverse as it is and adds -w e ln 2 to its -integral ln P, so
    one rule sets e: 0 while every nonzero coefficient lies in [2^-511,
    2^510), where squares and products of two are normal floats, else the
    power of two that brings the largest into [2^508, 2^509).
    Rows are given in t = y - b_{k+1}, as (d0, d1), (d0, d1, d2) or a K-by-3
    array of finite floats; ``bounds`` and ``coeffs`` are tuples built on
    each access, and ``coeffs`` folds unit and exponent back in: 0 or +-inf
    for a piece past the float range.
    """

    __slots__ = ("_b", "_c", "_e", "_s", "total")

    def __new__(cls, bounds, coeffs, total):
        b = _float_array(bounds)
        if not (isinstance(coeffs, np.ndarray) and coeffs.ndim == 2 and coeffs.shape[1] == 3):
            coeffs = [(c[0], c[1], c[2] if len(c) > 2 else 0.0) for c in coeffs]
        c = _float_array(coeffs).reshape(-1, 3)
        if len(b) != len(c) + 1:
            raise ValueError("need exactly one more bound than pieces")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("pieces must cover exactly [0, 1]")
        if not (b[1:] > b[:-1]).all():
            raise ValueError("bounds must be strictly increasing")
        c, e = _normalized(c, np.zeros(len(c), dtype=np.int32))  # before the change of unit, as after it
        s = _units(b)
        return cls._scaled(b, *_normalized(np.ldexp(c, np.outer(s, (0, 1, 2))), e), s, total)

    @classmethod
    def _scaled(cls, b, c, e, s, total):
        """The builders' path: rows c in each piece's unit 2^s (``_units(b)``), each under the range rule."""
        level, total = object.__new__(cls), float(total)
        if not (math.isfinite(c.sum()) and math.isfinite(total)):
            raise ValueError("level measure coefficients and total must be finite")
        for name, value in zip(cls.__slots__, (*map(_frozen, (b, c, e, s)), total)):
            object.__setattr__(level, name, value)
        return level

    @property
    def bounds(self):
        return tuple(self._b.tolist())

    @property
    def coeffs(self):
        return tuple(map(tuple, _fold(self._c, self._e[:, None] - np.outer(self._s, (0, 1, 2))).tolist()))

    def __setattr__(self, name, value):
        raise AttributeError("LevelMeasure is immutable")

    def __reduce__(self):
        return LevelMeasure._scaled, (self._b, self._c, self._e, self._s, self.total)

    def __eq__(self, other):
        if not isinstance(other, LevelMeasure):
            return NotImplemented
        return (self.total == other.total and np.array_equal(self._b, other._b)
                and np.array_equal(self._c, other._c) and np.array_equal(self._e, other._e))

    def __hash__(self):
        return hash((self.bounds, tuple(self._c.ravel().tolist()), tuple(self._e.tolist()), self.total))

    def __repr__(self):
        return f"LevelMeasure({len(self._c)} pieces, total={self.total:g})"

    def piece_value(self, k, y):
        return float(_fold(_eval(self._c[k], np.ldexp(y - self._b[k + 1], -self._s[k])), self._e[k]))

    def __call__(self, y):
        y = float(y)
        if not 0.0 <= y <= 1.0:
            raise ValueError("level must lie in [0, 1]")
        if y == 0.0:
            return self.total
        return self.piece_value(int(np.searchsorted(self._b, y)) - 1, y)


def level_measure(f):
    """Exact level measure of a piecewise-linear function.

    Each non-constant segment spanning values [lo, hi] contributes
    (hi - y) * width / (hi - lo) for levels inside its span and its full
    width below; constant segments contribute their width up to their
    value, creating the downward jump there.

    The bounds b are the distinct values; ``np.unique`` also gives each
    value's index in b, so a segment spans the pieces from its lo's index
    to its hi's, and the lo indices counted below each bound start the
    suffix sum of full widths, sorted by lo, there.  Each piece's value
    and slope is summed freshly over the segments spanning it, in one
    array pass over the (piece, segment) incidences: no cancellation.  A
    row this pass cannot hold is summed again from mantissas and exponents
    over 2^e (see ``LevelMeasure``): no rate overflows, no width loses bits.
    """
    vs, w = f.vs, f.xs[1:] - f.xs[:-1]
    hi, lo = np.maximum(vs[:-1], vs[1:]), np.minimum(vs[:-1], vs[1:])
    b, at = np.unique(np.concatenate(([0.0, 1.0], vs)), return_inverse=True)
    b[0] = 0.0  # np.unique keeps whichever of 0.0 and -0.0 its sort puts first
    K, s = len(b) - 1, _units(b)
    first, count = np.minimum(at[2:-1], at[3:]), np.abs(at[3:] - at[2:-1])

    def mass_at_or_above(k):
        # full width of the segments k with lo >= y, at y = 0 and at b[1:]
        fk = first[k]
        suffix = np.concatenate((np.cumsum(w[k][np.argsort(fk, kind="stable")][::-1])[::-1], [0.0]))
        return suffix[0], suffix[np.cumsum(np.bincount(fk, minlength=K))[:K]]

    flat = count == 0
    total, top = mass_at_or_above(~flat)
    if flat.any():  # constant segments are summed apart, as jumps at their values
        total_c, top_c = mass_at_or_above(flat)
        total, top = total + total_c, top + top_c

    def rows(rate, spanned, top):
        d1 = 0.0 - np.bincount(piece, weights=rate, minlength=K)
        return np.column_stack((top + np.bincount(piece, weights=spanned, minlength=K), d1, np.zeros(K)))

    # one row per incidence: a segment's rate and hi repeat over its pieces
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = np.repeat(w / (hi - lo), count)
        piece = np.arange(len(r)) + np.repeat(first - (np.cumsum(count) - count), count)
        above = np.repeat(hi, count) - b[1:][piece]
        c = rows(r, r * above, top)
    c[:, 1] = np.ldexp(c[:, 1], s)
    e = np.zeros(K, dtype=np.int32)
    # P is positive under its largest value and falls from its least (f is continuous).  With widths
    # and heights of 2^-255 or more, rates stay below 2^255 and top values and slopes there above
    # 2^-510.  Else rows are redone where these lie below the band, were lost to underflow or, for a
    # rate past the float range, read -inf or NaN; e first takes the largest (or 1) to 2^509
    if w.min() < 2.0**-255 or s.min() < -254:
        (d0, d1), k, below, low = c[:, :2].T, np.arange(K), at[2:].max() - 1, 2.0**-511
        falls = (k >= at[2:].min()) & (k <= below)
        redo = ~(d0 >= low) & ((k < below) | (d0 > 0.0)) | ~(-d1 >= low) & falls | (d1 == -np.inf)
        e[redo] = np.frexp(np.maximum(d0, -d1))[1][redo] - 509
        (mw, xw), (ms, xs) = np.frexp(np.repeat(w, count)), np.frexp(np.repeat(hi - lo, count))
        r, x = mw / ms, xw - xs - e[piece]  # w / span = r 2^(x + e)
        again = rows(np.ldexp(r, x + s[piece]), np.ldexp(r * above, x), np.ldexp(top, -e))
        c[redo], e[redo] = (a[redo] for a in _normalized(again, e))
    return LevelMeasure._scaled(b, c, e, s, float(total))


def rearrange(level):
    """Descending rearrangement: the generalized inverse of a level measure.

    Returns the nonincreasing function f~ on [0, 1] with
    measure{f~ >= a} = P(a) for every level a, as chords through points
    (P(y), y) of each piece, from (P(yb), yb) to (P(ya+), ya).  A piece
    that is linear or does not fall keeps just those two.  A falling
    quadratic row (d0, d1, d2) in u in [-W, 0] (see ``LevelMeasure``) gets
    n - 1 more, uniform in tau = sqrt(-slope), as de Boor's equidistribution
    of |f~''|^(1/2) places them: tau0 = sqrt(-d1) at the top, taua =
    sqrt(2 d2 W - d1) at the bottom, h = (taua - tau0) / n and
    u_i = -W (i/n) (2 tau0 + i h) / (tau0 + taua), with no cancellation and
    no division by d2.  The tangent parallel to a chord touches at its
    midpoint in u, so the chord leaves the inverse by at most
    h^2 / (4 |d2|) in u; n is the least count keeping that within tol/2 in
    y, tol = ``_REARRANGE_TOL``, so n <= sqrt(height / tol) + 1.  Points
    within 1e-12 of x = 1 snap there, so a chord ending at x = 1 may stray
    further.  Plateaus of P (only at its extreme values for measures built
    here) become the jump allowed at the domain ends; jumps of P become
    plateaus of f~.
    """
    if abs(level.total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"rearrangement requires total measure 1, got {level.total!r}")
    b, c, e, s = level._b, level._c, level._e, level._s
    ya, yb, W = b[:-1], b[1:], np.ldexp(b[1:] - b[:-1], -s)
    pa, pb = _fold(_eval(c, -W), e), _fold(c[:, 0], e)
    n = np.ones(len(c), dtype=np.intp)
    q = np.flatnonzero((pa > pb) & (c[:, 2] != 0.0))
    if q.size:
        d1, d2, w = c[q, 1], c[q, 2], W[q]
        t0, ta = np.sqrt(np.maximum(-d1, 0.0)), np.sqrt(np.maximum(2.0 * d2 * w - d1, 0.0))
        count = w * np.sqrt(np.ldexp(np.abs(d2), s[q]) / (0.5 * _REARRANGE_TOL)) / (t0 + ta)
        n[q] = np.maximum(1.0, np.ceil(count))

    # Piece k, from the top level down, contributes (pb, yb), its n - 1 interior points and (pa, ya);
    # a plateau piece (pa == pb) is a jump of f~.  A leading (0, 1) carries the mass of P(1) > 0.
    head = int(pb[-1] > _SNAP)
    start = head + np.cumsum(n[::-1] + 1)[::-1] - n - 1
    size = head + int(n.sum()) + len(n) + 1
    x, y = np.empty(size), np.empty(size)
    x[0], y[0] = 0.0, 1.0
    x[-1], y[-1] = level.total, 0.0
    x[start], y[start] = pb, yb
    x[start + n], y[start + n] = pa, ya
    m = n[q] - 1
    if m.any():
        k = np.repeat(np.arange(len(q)), m)  # interior point i = 1 .. n - 1 of piece j = q[k]
        j, i, h = q[k], 1 + np.arange(len(k)) - np.repeat(np.cumsum(m) - m, m), (ta - t0) / n[q]
        u = -W[j] * (i / n[j]) * (2.0 * t0[k] + i * h[k]) / (t0[k] + ta[k])
        x[start[j] + i], y[start[j] + i] = _fold(_eval(c[j], u), e[j]), yb[j] + np.ldexp(u, s[j])

    # Pin the first point, P(1) <= _SNAP when there is no head, to 0 and
    # snap x values near the right end (total is 1 within tolerance),
    # force monotonicity against ulp wobble, then collapse duplicate-x
    # runs: keep the lowest y (the right-continuous inverse) except at the
    # right end, where the left limit keeps f~ representable without a jump.
    x = np.where((x >= 1.0) | (np.abs(x - level.total) < _SNAP), 1.0, x)
    x[0] = 0.0
    x = np.maximum.accumulate(x)
    same = x[1:] == x[:-1]
    at_one = x == 1.0
    keep = np.ones(size, dtype=bool)
    keep[:-1] &= ~same | at_one[:-1]
    keep[1:] &= ~same | ~at_one[1:]
    return PiecewisePossibility(np.column_stack((x[keep], y[keep])))


def info(f):
    """Information value of a normalized continuous assignment.

    Computed on the level side: ``info_from_level(level_measure(f))``
    integrates every level piece in closed form.  A curve normalized only
    within ``NORMALIZATION_TOL`` is divided by its sup first, since the
    level-side integral diverges for sup f < 1.  Subnormal input raises
    ``DivergenceError``.
    """
    if not f.is_normalized:
        raise DivergenceError(
            f"information integral diverges at 0: sup f = {f.max_value!r} < 1"
        )
    sup = f.max_value
    if sup < 1.0:
        f = PiecewisePossibility(np.column_stack((f.xs, f.vs / sup)))
    return info_from_level(level_measure(f))


def _ramp_offsets(top, fall):
    """Mean of ln(l / low) over linear pieces l from low = top + fall > 0 at their bottom to top >= 0.

    It is t(d) = integral_0^1 ln(1 - d x) dx = -1 - g log1p(-d) / d, d = fall / low <= 1, g = top / low
    = 1 - d without cancellation, t(1) = -1; where |d| < 2^-8 that form cancels, and t is summed from its
    series -sum_n d^n / (n (n + 1)).
    """
    low = top + fall
    d = fall / low
    t, small = np.empty_like(d), np.abs(d) < 2.0**-8
    x = d[small]
    t[small] = -x * (1 / 2 + x * (1 / 6 + x * (1 / 12 + x * (1 / 20 + x * (1 / 30 + x / 42)))))
    x, g = d[~small], top[~small] / low[~small]
    t[~small] = -1.0 - g * np.log1p(-np.minimum(x, 1.0 - 2.0**-53)) / x  # 0 * finite at d = 1
    return t


def _quad_offsets(c, W):
    """Mean of ln(q / q(-W)) over pieces q = d0 + u (d1 + u d2) of degree <= 2, u in [-W, 0], q(-W) > 0.

    Real roots split q = (r - d2 u) (d0 - r u) / r, r = (sqrt(disc) - d1) / 2 >= 0 free of cancellation,
    into linear factors whose offsets add.  r = 0 only for q = d2 u^2, offset -2, or a constant, 0; a
    conjugate pair a +- i beta has -2 + (a ln(q(-W) / d0) + 2 beta theta) / W, theta the piece's angle
    at a + i beta.
    """
    d0, d1, d2 = c.T
    disc = d1 * d1 - 4.0 * d0 * d2
    out, real = np.where(d2 != 0.0, -2.0, 0.0), disc >= 0.0
    r = 0.5 * (np.sqrt(disc[real]) - d1[real])
    k, r = np.flatnonzero(real)[r > 0.0], r[r > 0.0]
    fa, fb = d2[k] * W[k], r * W[k]  # the factors' falls from u = -W to 0
    out[k] = _ramp_offsets(r, fa) + _ramp_offsets(d0[k], fb)
    d0, d1, d2, W = d0[~real], d1[~real], d2[~real], W[~real]
    a, beta = -d1 / (2.0 * d2), np.sqrt(-disc[~real]) / (2.0 * d2)
    x = np.frexp(np.maximum(np.abs(a), beta))[1]  # theta's arguments over 2^x, where none overflows
    theta = np.arctan2(np.ldexp(beta, -x) * W, np.ldexp(a, -x) * (a + W) + np.ldexp(beta, -x) * beta)
    out[~real] += (a * np.log1p(W * (W * d2 - d1) / d0) + 2.0 * beta * theta) / W
    return out


def info_from_level(level):
    """Information value computed directly on the level-measure side.

    It is -integral_0^1 ln P(y) dy (see the module docstring), so jumps of P need no term.  A piece
    of width w adds -w (ln P(ya+) + mean of ln(P / P(ya+))), the mean from one kernel for linear
    pieces and the linear factors of quadratic ones.  Each term is >= 0 (P <= total = 1), so a plain
    sum loses nothing.  It diverges only where P vanishes on an interval, at a piece whose bottom
    P(ya+) is 0; a lone zero is finite.  At the first piece to fail a rule, a bottom or top below
    -1e-9 raises ValueError, and a bottom <= 0 (at its ya) or a final top below 0 DivergenceError.
    """
    if abs(level.total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"information requires total measure 1, got {level.total!r}")
    ya, yb, c, e = level._b[:-1], level._b[1:], level._c, level._e
    w, W = yb - ya, np.ldexp(yb - ya, -level._s)  # W: the width in the unit of the piece
    top, bottom = c[:, 0], _eval(c, -W)  # bottom: the limit of P as y -> ya from above, over 2^e
    tol = _fold(-1e-9, -e)  # over 2^e, as the rows
    if not (bottom.min() > 0.0 and top[-1] >= 0.0 and (top >= tol).all()):
        checks = np.array([bottom < tol, bottom <= 0.0, top < tol, (top < 0.0) & (yb == 1.0)])
        k = int(np.argmax(checks.any(axis=0)))
        check = int(np.argmax(checks[:, k]))
        if check in (0, 2):
            raise ValueError("level measure goes negative")
        if check == 3:
            raise DivergenceError("information integral diverges on the final piece")
        raise DivergenceError(f"information integral diverges: P vanishes at level {float(ya[k])!r} < 1")
    # the mean of ln(P / P(ya+)) on each piece; level_measure builds linear pieces only
    offset = _quad_offsets(c, W) if c[:, 2].any() else _ramp_offsets(top, W * -c[:, 1])
    if e.any():  # ln P(ya+) from one binary exponent: ln bottom and e ln 2 could cancel
        m, x = np.frexp(bottom)
        return 0.0 - float(np.sum(w * (np.log(m) + (x + e) * math.log(2.0) + offset)))
    return 0.0 - float(np.sum(w * (np.log(bottom) + offset)))


def _recentred(p, upper, s):
    """The pieces of p covering each (., upper], re-anchored at upper in units 2^s, and their exponents."""
    k = np.searchsorted(p._b, upper) - 1
    c, d = p._c[k], s - p._s[k]
    u = np.ldexp(upper - p._b[k + 1], d - s)  # in the unit 2^(s - d) of p's piece
    return _eval(c, u), np.ldexp(c[:, 1] + 2.0 * u * c[:, 2], d), np.ldexp(c[:, 2], 2 * d), p._e[k]


def product_level(p1, p2):
    """Level measure of the min-product: the pointwise product P1 * P2.

    The super-level set of min(f1(x), f2(y)) on the unit square is the
    Cartesian product of the factors' super-level sets, so the level
    measures multiply.  Pieces multiply on the common refinement, each
    factor re-anchored at the common top in its unit first; the exponents
    add, and the product stays within degree 2 and ``LevelMeasure``'s rule.
    """
    bounds = np.union1d(p1._b, p2._b)
    s = _units(bounds)
    with np.errstate(over="ignore"):  # only user-built rows can overflow; LevelMeasure reports it
        a0, a1, a2, ea = _recentred(p1, bounds[1:], s)
        b0, b1, b2, eb = _recentred(p2, bounds[1:], s)
        if (a2.any() or b2.any()) and (np.any(a1 * b2 + a2 * b1 != 0.0) or np.any(a2 * b2 != 0.0)):
            raise ValueError(
                "degree overflow: the product of these level measures exceeds degree 2"
            )
        coeffs = np.column_stack((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0))
    return LevelMeasure._scaled(bounds, *_normalized(coeffs, ea + eb), s, p1.total * p2.total)


def _pointwise(op, f1, f2):
    """op (np.minimum or np.maximum) of two curves on their breakpoints and crossings, exact."""
    xs = np.union1d(f1.xs, f2.xs)
    d = f1(xs) - f2(xs)
    d0, d1 = d[:-1], d[1:]
    cross = ((d0 > _SNAP) & (d1 < -_SNAP)) | ((d0 < -_SNAP) & (d1 > _SNAP))
    if cross.any():
        a, b = xs[:-1][cross], xs[1:][cross]
        d0, d1 = d0[cross], d1[cross]
        xs = np.unique(np.concatenate((xs, a + d0 / (d0 - d1) * (b - a))))
    return PiecewisePossibility(np.column_stack((xs, op(f1(xs), f2(xs)))))


def meet_pw(f1, f2):
    """Pointwise min of two piecewise-linear assignments, exact."""
    return _pointwise(np.minimum, f1, f2)


def join_pw(f1, f2):
    """Pointwise max of two piecewise-linear assignments, exact."""
    return _pointwise(np.maximum, f1, f2)


def _info_or_inf(f):
    try:
        return info(f)
    except DivergenceError:
        return math.inf


def _gaps(fs, top):
    """info(f) - info(top) for each f <= top; all 0 if info(top) diverges and each f is top."""
    top_info = _info_or_inf(top)
    if not math.isinf(top_info):
        return [_info_or_inf(f) - top_info for f in fs]
    grids = [np.union1d(f.xs, top.xs) for f in fs]
    if all(np.allclose(f(xs), top(xs), rtol=0.0, atol=_SNAP) for f, xs in zip(fs, grids)):
        return [0.0] * len(fs)
    raise DivergenceError(
        "distance undefined: both arguments are subnormal and their integrals diverge"
    )


def g_cont(lower, upper):
    """One-sided continuous distance info(lower) - info(upper).

    Requires lower <= upper pointwise, checked here on the merged
    breakpoints.  The order reverses relative to the discrete U-form
    because info measures distance from the uniform assignment and is
    antitone in pointwise order.  Returns +inf when the lower argument is
    subnormal (its integral diverges) and the upper one is not.
    """
    xs = np.union1d(lower.xs, upper.xs)
    lv, uv = lower(xs), upper(xs)
    bad = np.nonzero(lv > uv + _SNAP)[0]
    if bad.size:
        i = int(bad[0])
        raise OrderViolationError(
            f"pointwise order violated at x={float(xs[i]):g}: "
            f"{float(lv[i]):g} > {float(uv[i]):g}"
        )
    return _gaps([lower], upper)[0]


def big_g_cont(f1, f2):
    """Continuous join distance; finite for normalized arguments.

    The join's grid holds every breakpoint of both arguments, with their
    pointwise max as values, so each lies below it: no order check runs.
    """
    gap1, gap2 = _gaps((f1, f2), join_pw(f1, f2))
    return gap1 + gap2


def big_h_cont(f1, f2):
    """Continuous meet divergence; +inf whenever the meet is subnormal."""
    i_bottom = _info_or_inf(meet_pw(f1, f2))
    if math.isinf(i_bottom):
        return math.inf
    return (i_bottom - _info_or_inf(f1)) + (i_bottom - _info_or_inf(f2))


def big_k_cont(f1, f2):
    """Continuous max-form distance; finite for normalized arguments.

    Like ``big_g_cont``, it reads the join it builds and runs no order check.
    """
    return max(_gaps((f1, f2), join_pw(f1, f2)))
