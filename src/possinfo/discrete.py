"""Finite possibility distributions and their structural operations.

A possibility assignment grades each outcome of a finite domain with a
value in [0, 1] and combines evidence with max/min instead of sum/product.
This module provides the value types plus the lattice and product
structure: subset possibility, min-product joints, marginals, domain
extension, permutation, and pointwise meet/join.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-9


def _validate_unit(values, what="value"):
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{what} at index {i} outside [0, 1]: {v!r}")


@dataclass(frozen=True, slots=True, repr=False)
class DiscreteDistribution:
    """Possibility assignment on a finite, ordered label set.

    The assignment is *normalized* when its maximum reaches 1 within
    ``NORMALIZATION_TOL``.  Subnormal assignments (max < 1) are legal
    values: pointwise meets produce them and every uncertainty measure in
    this package accepts them.  Instances are immutable and hashable.
    """

    labels: tuple
    values: tuple
    is_normalized: bool = field(init=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        values = tuple(float(v) for v in self.values)
        if len(labels) != len(values):
            raise ValueError(
                f"labels and values must have equal length, got {len(labels)} != {len(values)}"
            )
        if not labels:
            raise ValueError("a distribution needs at least one element")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        _validate_unit(values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "is_normalized", max(values) >= 1.0 - NORMALIZATION_TOL)

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        pairs = ", ".join(f"{l!r}: {v:g}" for l, v in zip(self.labels, self.values))
        return f"DiscreteDistribution({{{pairs}}})"

    def value_of(self, label):
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"unknown label: {label!r}") from None

    def as_array(self):
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True, slots=True, repr=False)
class JointDistribution:
    """Possibility assignment on the product grid of two label sets."""

    row_labels: tuple
    col_labels: tuple
    values: tuple
    is_normalized: bool = field(init=False, compare=False)

    def __post_init__(self):
        row_labels = tuple(self.row_labels)
        col_labels = tuple(self.col_labels)
        values = tuple(tuple(float(v) for v in row) for row in self.values)
        if len(values) != len(row_labels):
            raise ValueError("row count must match row_labels")
        if any(len(row) != len(col_labels) for row in values):
            raise ValueError("every row must match col_labels in length")
        if len(set(row_labels)) != len(row_labels) or len(set(col_labels)) != len(col_labels):
            raise ValueError("labels must be pairwise distinct")
        flat = [v for row in values for v in row]
        if not flat:
            raise ValueError("a joint distribution needs at least one cell")
        _validate_unit(flat, what="entry")
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "is_normalized", max(flat) >= 1.0 - NORMALIZATION_TOL)

    def __repr__(self):
        return f"JointDistribution({len(self.row_labels)}x{len(self.col_labels)})"

    def as_array(self):
        return np.asarray(self.values, dtype=float)

    def flatten(self):
        """Row-major flattening onto pair labels ``(row, col)``."""
        labels = [(r, c) for r in self.row_labels for c in self.col_labels]
        values = [v for row in self.values for v in row]
        return DiscreteDistribution(labels, values)


def possibility_of_subset(d, subset):
    """Possibility of an event: the max over its members."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    return max(d.value_of(label) for label in subset)


def min_product(d1, d2):
    """Joint distribution of two independent assignments, cell (x, y) = min(d1(x), d2(y))."""
    grid = np.minimum.outer(d1.as_array(), d2.as_array())
    return JointDistribution(d1.labels, d2.labels, grid.tolist())


def marginals(joint):
    """Project a joint assignment onto its axes by row-wise and column-wise max."""
    grid = joint.as_array()
    first = DiscreteDistribution(joint.row_labels, grid.max(axis=1).tolist())
    second = DiscreteDistribution(joint.col_labels, grid.max(axis=0).tolist())
    return first, second


def extend(d, superset_labels):
    """Embed ``d`` into a larger domain, assigning possibility 0 to new labels."""
    superset_labels = tuple(superset_labels)
    if len(set(superset_labels)) != len(superset_labels):
        raise ValueError("superset labels must be pairwise distinct")
    missing = [l for l in d.labels if l not in superset_labels]
    if missing:
        raise ValueError(f"superset is missing original label {missing[0]!r}")
    lookup = dict(zip(d.labels, d.values))
    return DiscreteDistribution(superset_labels, [lookup.get(l, 0.0) for l in superset_labels])


def _check_permutation(mapping, n):
    mapping = tuple(map(operator.index, mapping))
    if len(mapping) != n:
        raise ValueError(f"permutation size {len(mapping)} does not match distribution size {n}")
    if sorted(mapping) != list(range(n)):
        raise ValueError("mapping is not a bijection on 0..n-1")
    return mapping


def permute(d, mapping):
    """Shuffle values: position i receives the value at position ``mapping[i]``.

    ``mapping`` is a 0-based bijection of ``range(len(d))``; the label list
    stays in place.
    """
    mapping = _check_permutation(mapping, len(d))
    return DiscreteDistribution(d.labels, [d.values[j] for j in mapping])


def invert_permutation(mapping):
    mapping = tuple(mapping)
    mapping = _check_permutation(mapping, len(mapping))
    inverse = [0] * len(mapping)
    for i, j in enumerate(mapping):
        inverse[j] = i
    return tuple(inverse)


def _require_same_labels(d1, d2):
    if d1.labels != d2.labels:
        raise ValueError(
            "label mismatch: binary operations require identical ordered label sets"
        )


def meet(d1, d2):
    """Pointwise min.  May be subnormal even for normalized inputs."""
    _require_same_labels(d1, d2)
    return DiscreteDistribution(d1.labels, [min(a, b) for a, b in zip(d1.values, d2.values)])


def join(d1, d2):
    """Pointwise max.  Normalized whenever either input is."""
    _require_same_labels(d1, d2)
    return DiscreteDistribution(d1.labels, [max(a, b) for a, b in zip(d1.values, d2.values)])
