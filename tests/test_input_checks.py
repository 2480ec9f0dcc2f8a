"""Malformed values are rejected by the class that checks them, with its own message."""

import math

import pytest

from possinfo import (
    ConvergenceSeries,
    DiscreteDistribution,
    InferenceProblem,
    JointDistribution,
    LevelMeasure,
    LinearConstraint,
    MaxU,
    MinDistance,
    PiecewisePossibility,
    extend,
    max_uncertain,
    serialize_distribution,
    solve_max_u,
    solve_min_distance,
    u_uncertainty,
)

AB = ("a", "b")
PRIOR = DiscreteDistribution(AB, (1.0, 0.5))
RAMP = LevelMeasure((0.0, 1.0), ((0.0, -1.0),), total=1.0)

CASES = {
    "joint_row_count": (
        lambda: JointDistribution(AB, ("c",), ((1.0,),)), ValueError, "row count must match row_labels"
    ),
    "joint_row_length": (
        lambda: JointDistribution(("r",), AB, ((1.0,),)),
        ValueError,
        "every row must match col_labels in length",
    ),
    "joint_duplicate_labels": (
        lambda: JointDistribution(("r", "r"), ("c",), ((1.0,), (0.5,))),
        ValueError,
        "labels must be pairwise distinct",
    ),
    "joint_no_cells": (
        lambda: JointDistribution(("r",), (), ((),)), ValueError, "a joint distribution needs at least one cell"
    ),
    "extend_duplicate_superset": (
        lambda: extend(PRIOR, ("a", "b", "a")), ValueError, "superset labels must be pairwise distinct"
    ),
    "piecewise_triples": (
        lambda: PiecewisePossibility([(0, 1, 0), (1, 0, 0)]), ValueError, "breakpoints must be (x, value) pairs"
    ),
    "piecewise_flat_list": (
        lambda: PiecewisePossibility([0.0, 1.0]), ValueError, "breakpoints must be (x, value) pairs"
    ),
    "level_above_one": (lambda: RAMP(1.5), ValueError, "level must lie in [0, 1]"),
    "level_below_zero": (lambda: RAMP(-0.25), ValueError, "level must lie in [0, 1]"),
    "problem_no_labels": (lambda: InferenceProblem((), (), MaxU()), ValueError, "need at least one label"),
    "problem_duplicate_labels": (
        lambda: InferenceProblem(("a", "a"), (), MaxU()), ValueError, "labels must be pairwise distinct"
    ),
    "problem_coefficient_count": (
        lambda: InferenceProblem(AB, (LinearConstraint((1.0,), "<=", 0.5),), MaxU()),
        ValueError,
        "constraint coefficients must match the label count",
    ),
    "problem_objective_type": (
        lambda: InferenceProblem(AB, (), "max_u"), ValueError, "objective must be MaxU or MinDistance"
    ),
    "max_u_given_min_distance": (
        lambda: solve_max_u(InferenceProblem(AB, (), MinDistance(PRIOR, "G"))),
        ValueError,
        "solve_max_u requires a MaxU objective",
    ),
    "min_distance_given_max_u": (
        lambda: solve_min_distance(InferenceProblem(AB, (), MaxU())),
        ValueError,
        "solve_min_distance requires a MinDistance objective",
    ),
    "series_counts_not_increasing": (
        lambda: ConvergenceSeries(((4, 0.5, 0.1), (4, 0.5, 0.1))),
        ValueError,
        "sample counts must be strictly increasing",
    ),
    "series_non_finite_value": (
        lambda: ConvergenceSeries(((4, 0.5, math.nan),)), ValueError, "approx_info must be finite, got nan"
    ),
    "max_uncertain_label_count": (lambda: max_uncertain(3, AB), ValueError, "labels length must equal n"),
    "u_of_a_list": (lambda: u_uncertainty([1.0, 0.5]), TypeError, "expected a distribution, got list"),
    "serialize_a_level_measure": (
        lambda: serialize_distribution(RAMP), TypeError, "cannot serialize LevelMeasure"
    ),
    "serialize_object_metadata": (
        lambda: serialize_distribution(PRIOR, {"at": object()}), TypeError, "cannot serialize object"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rejected_with_class_and_message(name):
    make, error, message = CASES[name]
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error and str(raised.value) == message
