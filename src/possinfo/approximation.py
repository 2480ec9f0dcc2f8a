"""Discretization of continuous assignments and the convergence to info(f).

Sampling a normalized f on a uniform n-point grid gives a finite
assignment whose U-uncertainty recovers the continuous information value
as a limit:

    ln n - U(sample_n(f))  ->  info(f)      as n -> infinity.

For f(x) = 1 - x the sample values are n, n-1, ..., 1 over n, so
U = ln(n!) / n exactly and Stirling's formula gives ln n - U -> 1.

``approx_info`` and ``convergence_series`` sample f to a float array and
take U straight from it; one comparison pass finds the samples' order,
which spares samples in order both the range scan and U's sort.
``discretize`` is the labelled view of the same samples, as a
``DiscreteDistribution`` on labels x1..xn, with bit for bit the same U.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .discrete import DiscreteDistribution
from .measures import _u_of_ascending, _u_of_values

_GRIDS = ("left", "right")


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    u_value: float
    approx_info: float


@dataclass(frozen=True, slots=True, repr=False)
class ConvergenceSeries:
    """Entries (n, U, ln n - U) for strictly increasing sample counts."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(
            e if isinstance(e, ConvergenceEntry) else ConvergenceEntry(*e) for e in self.entries
        )
        ns = [e.n for e in entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("sample counts must be strictly increasing")
        for e in entries:
            if not math.isfinite(e.approx_info):
                raise ValueError(f"approx_info must be finite, got {e.approx_info!r}")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"ConvergenceSeries({len(self.entries)} entries)"


def _sample(f, n, grid):
    """The n grid samples of f as a float array, each checked to lie in [0, 1],
    and their order: 1 ascending, -1 descending, 0 neither (NaN never is).

    One comparison pass decides both: the ends pick the order to test, samples
    in that order hold their extremes at the ends, and the rest get a full scan.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one sample")
    if grid not in _GRIDS:
        raise ValueError(f"grid must be one of {_GRIDS}")
    start = 0.0 if grid == "left" else 1.0
    xs = np.arange(start, n + start)  # the integers are exact, so this is np.arange(n) / n
    xs /= n
    values = np.asarray(f(xs), dtype=float)
    if values.shape != xs.shape:
        raise ValueError(f"f must return {n} values, one per grid point, got shape {values.shape}")
    del xs  # freed before the order pass allocates its mask
    if values[0] <= values[-1]:
        order = 1 if (values[:-1] <= values[1:]).all() else 0
    else:
        order = -1 if (values[:-1] >= values[1:]).all() else 0
    lo, hi = sorted((values[0], values[-1])) if order else (values.min(), values.max())
    if not (lo >= 0.0 and hi <= 1.0):  # NaN fails both
        i = int(np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))[0])
        raise ValueError(f"value at index {i} outside [0, 1]: {float(values[i])!r}")
    return values, order


def discretize(f, n, grid="left"):
    """Sample f at n uniform grid points as a finite assignment.

    ``grid="left"`` uses x_i = (i-1)/n, which reproduces the exact sample
    multiset {1, (n-1)/n, ..., 1/n} for decreasing f such as 1 - x;
    ``grid="right"`` uses x_i = i/n.  Values are attained by f, never
    interpolated.  No renormalization is applied: ln n - U is used on the
    raw samples even when their max falls short of 1.  This is the
    labelled view of the samples that ``approx_info`` and
    ``convergence_series`` take U from as a plain array.
    """
    values, _ = _sample(f, n, grid)
    labels = tuple(f"x{i}" for i in range(1, len(values) + 1))
    return DiscreteDistribution(labels, values.tolist())


def _u_of_sample(values, order):
    """``_u_of_values(values)`` bit for bit, given the order ``_sample`` found.

    Only samples out of order are sorted.  The ascending array is
    C-contiguous like ``np.sort``'s output, since the rounding of U's dot
    product depends on the memory layout.
    """
    if order > 0:
        return float(_u_of_ascending(np.ascontiguousarray(values)))
    if order < 0:
        return float(_u_of_ascending(values[::-1].copy()))
    return _u_of_values(values)


def _require_normalized(f):
    if not f.is_normalized:
        raise ValueError("approximation requires a normalized distribution")


def approx_info(f, n, grid="left"):
    """Discrete information of the n-point sample: ln n - U(sample).

    U is taken from the sampled array directly, sorted only when it is out
    of order; it equals ``u_uncertainty(discretize(f, n, grid))`` bit for bit.
    """
    _require_normalized(f)
    u = _u_of_sample(*_sample(f, n, grid))  # before math.log, so a bad n gets the sampler's error
    return math.log(n) - u


def convergence_series(f, n_list, grid="left"):
    """U and ln n - U along increasing sample counts, for a normalized f.

    Each U is taken as in ``approx_info``: sorted only when out of order, and
    bit for bit ``u_uncertainty(discretize(f, n, grid))``.
    """
    _require_normalized(f)
    n_list = [operator.index(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    entries = []
    for n in n_list:
        u = _u_of_sample(*_sample(f, n, grid))
        entries.append(ConvergenceEntry(n=n, u_value=u, approx_info=math.log(n) - u))
    return ConvergenceSeries(entries)
