"""Discretization of continuous assignments and the convergence to info(f).

Sampling a normalized f on a uniform n-point grid gives a finite
assignment whose U-uncertainty recovers the continuous information value
as a limit:

    ln n - U(sample_n(f))  ->  info(f)      as n -> infinity.

For f(x) = 1 - x the sample values are n, n-1, ..., 1 over n, so
U = ln(n!) / n exactly and Stirling's formula gives ln n - U -> 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrete import DiscreteDistribution
from .measures import u_uncertainty

_GRIDS = ("left", "right")


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    u_value: float
    approx_info: float


class ConvergenceSeries:
    """Entries (n, U, ln n - U) for strictly increasing sample counts."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(
            e if isinstance(e, ConvergenceEntry) else ConvergenceEntry(*e) for e in entries
        )
        ns = [e.n for e in entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("sample counts must be strictly increasing")
        for e in entries:
            if not math.isfinite(e.approx_info):
                raise ValueError(f"approx_info must be finite, got {e.approx_info!r}")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ConvergenceSeries is immutable")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, ConvergenceSeries):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"ConvergenceSeries({len(self.entries)} entries)"


def discretize(f, n, grid="left"):
    """Sample f at n uniform grid points as a finite assignment.

    ``grid="left"`` uses x_i = (i-1)/n, which reproduces the exact sample
    multiset {1, (n-1)/n, ..., 1/n} for decreasing f such as 1 - x;
    ``grid="right"`` uses x_i = i/n.  Values are attained by f, never
    interpolated.  No renormalization is applied: ln n - U is used on the
    raw samples even when their max falls short of 1.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if grid not in _GRIDS:
        raise ValueError(f"grid must be one of {_GRIDS}")
    if grid == "left":
        xs = np.arange(n) / n
    else:
        xs = np.arange(1, n + 1) / n
    values = f(xs)
    labels = tuple(f"x{i}" for i in range(1, n + 1))
    return DiscreteDistribution(labels, values.tolist())


def approx_info(f, n, grid="left"):
    """Discrete information of the n-point sample: ln n - U(sample)."""
    if not f.is_normalized:
        raise ValueError("approximation requires a normalized distribution")
    return math.log(n) - u_uncertainty(discretize(f, n, grid=grid))


def convergence_series(f, n_list, grid="left"):
    """U and ln n - U along increasing sample counts."""
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    entries = []
    for n in n_list:
        u = u_uncertainty(discretize(f, n, grid=grid))
        entries.append(ConvergenceEntry(n=n, u_value=u, approx_info=math.log(n) - u))
    return ConvergenceSeries(entries)
