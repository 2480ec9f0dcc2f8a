"""U-uncertainty, deformed information functions, and information distances.

For a finite assignment with values sorted descending, p1 >= ... >= pn,

    U = sum_{i>=2} p_i * (ln i - ln(i-1))          (nats)

which is the unique information function with the linear interpolation
property.  The full admissible family reparameterizes the sorted values
through a nondecreasing map tau of [0, 1] onto itself:

    I_tau = sum_{i>=2} tau(p_i) * (ln i - ln(i-1))

The distances g, G, H, K are built from U on lattice combinations of two
assignments over the same domain.  G and K are metrics on normalized
assignments; H is additive over min-products whenever both pairwise meets
stay normalized (see tests for a counterexample without that condition).
"""

import numpy as np

from .continuous import PiecewisePossibility
from .discrete import (
    DiscreteDistribution,
    JointDistribution,
    _require_same_labels,
    join,
    meet,
)
from .errors import OrderViolationError


def _values_of(d):
    if not isinstance(d, (DiscreteDistribution, JointDistribution)):
        raise TypeError(f"expected a distribution, got {type(d).__name__}")
    return d.as_array().ravel()


_WEIGHTS = np.empty(0)


def _log_weights(n):
    # (ln 2 - ln 1, ..., ln n - ln(n-1)) as a read-only view; empty for n <= 1.
    # The weights are elementwise, so those for n are a bit-for-bit prefix of
    # those for any larger n and one table serves every n.  It is rebuilt to
    # fit the largest n asked for (at least 64 weights) and never shrinks: it
    # holds 8 bytes per value of the largest sample for the life of the
    # process, 8 MB after n = 10**6.
    global _WEIGHTS
    if n - 1 > _WEIGHTS.size:
        logs = np.arange(1.0, max(n, 65) + 1.0)
        _WEIGHTS = np.diff(np.log(logs, out=logs))
        _WEIGHTS.flags.writeable = False
    return _WEIGHTS[: max(n - 1, 0)]


def _u_of_ascending(p):
    """U of each row of a C-contiguous p already sorted ascending along the last axis."""
    return p[..., ::-1][..., 1:] @ _log_weights(p.shape[-1])  # 0.0 for one value


def _u_of_rows(values):
    """U of each row (last axis); a row and the same values alone agree bit for bit."""
    return _u_of_ascending(np.sort(values, axis=-1))


def _u_of_values(values):
    return float(_u_of_rows(values))


def u_uncertainty(d):
    """U-uncertainty of a discrete or joint assignment, in nats.

    Subnormal inputs are accepted; the result lies in [0, max * ln n].
    """
    return _u_of_values(_values_of(d))


class Tau(PiecewisePossibility):
    """Monotone piecewise-linear reparameterization of [0, 1] onto itself.

    A ``PiecewisePossibility`` (so it stores, evaluates, hashes and
    pickles its breakpoints as that type does) whose values are
    nondecreasing from tau(0) = 0 to tau(1) = 1; ``ts`` and ``taus`` are
    its ``xs`` and ``vs``.
    """

    __slots__ = ()
    ts = PiecewisePossibility.xs
    taus = PiecewisePossibility.vs

    def __init__(self, breakpoints):
        super().__init__(breakpoints)
        if self.vs[0] != 0.0 or self.vs[-1] != 1.0:
            raise ValueError("tau must map 0 to 0 and 1 to 1")
        if not (self.vs[1:] >= self.vs[:-1]).all():
            raise ValueError("tau-coordinates must be nondecreasing")

    @classmethod
    def identity(cls):
        return cls([(0.0, 0.0), (1.0, 1.0)])

    def is_identity(self):
        return np.array_equal(self.xs, self.vs)

    @classmethod
    def from_function(cls, fn, n_breakpoints=1001):
        """Tabulate a monotone callable on a uniform grid.

        The callable must map 0 to 0 and 1 to 1; accuracy is the caller's
        responsibility via ``n_breakpoints``.
        """
        ts = np.linspace(0.0, 1.0, n_breakpoints)
        return cls(list(zip(ts.tolist(), [float(fn(t)) for t in ts])))

    def is_strictly_increasing(self):
        return bool((self.vs[1:] > self.vs[:-1]).all())


def info_tau(d, tau):
    """Deformed information: U evaluated on tau-transformed sorted values.

    With the identity deformation this equals ``u_uncertainty`` exactly
    (interpolation is skipped, not merely accurate).
    """
    values = _values_of(d)
    # tau is nondecreasing, so it keeps the sorted order U sorts values into
    return _u_of_values(values if tau.is_identity() else tau(values))


def _functional(tau):
    if tau is None:
        return u_uncertainty
    return lambda d: info_tau(d, tau)


def g_distance(lower, upper, tau=None):
    """One-sided information distance U(upper) - U(lower) for lower <= upper pointwise."""
    _require_same_labels(lower, upper)
    for label, lv, uv in zip(lower.labels, lower.values, upper.values):
        if lv > uv:
            raise OrderViolationError(
                f"pointwise order violated at label {label!r}: {lv:g} > {uv:g}"
            )
    measure = _functional(tau)
    return measure(upper) - measure(lower)


def big_g(d1, d2, tau=None):
    """Join-based symmetric distance: g(d1, d1 v d2) + g(d2, d1 v d2).

    A metric on normalized assignments.  With a non-identity ``tau`` the
    deformed variant is experimental: symmetry and the triangle inequality
    still hold (they pull back through any monotone tau), but distinct
    assignments may collapse to distance zero unless tau is strictly
    increasing.
    """
    measure = _functional(tau)
    top = measure(join(d1, d2))
    return (top - measure(d1)) + (top - measure(d2))


def big_h(d1, d2, tau=None):
    """Meet-based divergence: g(d1 ^ d2, d1) + g(d1 ^ d2, d2).

    Not a metric (it vanishes on distinct assignments with a common meet
    height); additive over min-products when both meets are normalized.
    """
    measure = _functional(tau)
    bottom = measure(meet(d1, d2))
    return (measure(d1) - bottom) + (measure(d2) - bottom)


def big_k(d1, d2, tau=None):
    """Max-form distance: max of the two join gaps.  A metric on normalized assignments."""
    measure = _functional(tau)
    top = measure(join(d1, d2))
    return max(top - measure(d1), top - measure(d2))


def max_uncertain(n, labels=None):
    """The most uninformed assignment: possibility 1 everywhere, U = ln n."""
    if n < 1:
        raise ValueError("domain size must be at least 1")
    if labels is None:
        labels = tuple(f"x{i}" for i in range(1, n + 1))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels length must equal n")
    return DiscreteDistribution(labels, [1.0] * n)
