import copy
import math
import os
import pickle
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from possinfo import (
    DivergenceError,
    LevelMeasure,
    OrderViolationError,
    PiecewisePossibility,
    big_g,
    big_g_cont,
    big_h_cont,
    big_k_cont,
    discretize,
    g_cont,
    info,
    info_from_level,
    join_pw,
    level_measure,
    meet_pw,
    product_level,
    rearrange,
    sample_function,
)

import possinfo.continuous
from conftest import (
    exact_row,
    info_by_segment_levels,
    info_of_descending,
    invert_by_bisection,
    level_measure_by_active_set,
    random_piecewise,
    rearrange_by_refinement,
    segment_level_set_measure,
)

TENT = PiecewisePossibility([(0, 0), (0.5, 1), (1, 0)])
RAMP_DOWN = PiecewisePossibility([(0, 1), (1, 0)])
UNIFORM = PiecewisePossibility([(0, 1), (1, 1)])


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def assert_matches_active_set(f, tol=1e-12):
    """level_measure(f) agrees with the scalar sweep within tol per coefficient row.

    Rows of exponent 0 on both sides that fold into the offset t exactly
    are compared in t, within tol of the largest of 1 and the sweep's
    coefficients.  Any other row is compared exactly, as rationals in the
    unit of the piece's height, each coefficient within tol of its own
    size unless it is negligible beside the largest.
    """
    P, Q = level_measure(f), level_measure_by_active_set(f)
    assert P.bounds == Q.bounds and P.total == Q.total
    in_t = (P._e == 0) & (Q._e == 0) & folds_exactly(P) & folds_exactly(Q)
    for k, (p, q) in enumerate(zip(P.coeffs, Q.coeffs)):
        if not in_t[k]:
            p, q = ([a * Fraction(2) ** (i * int(P._s[k])) for i, a in enumerate(exact_row(L, k))] for L in (P, Q))
            negligible = max(map(abs, q)) / Fraction(2) ** 1000  # no float row can hold it beside the largest
            assert all(abs(a - b) <= Fraction(tol) * abs(b) + negligible for a, b in zip(p, q))
            continue
        scale = max(1.0, *map(abs, q))
        assert max(abs(a - b) for a, b in zip(p, q)) <= tol * scale
    return P


def folds_exactly(L):
    """For each piece of L, whether its row folds into the offset t (``L.coeffs``) without a lost bit."""
    shift = L._e[:, None] - np.outer(L._s, (0, 1, 2))
    with np.errstate(over="ignore"):
        return (np.ldexp(np.ldexp(L._c, shift), -shift) == L._c).all(axis=1)


def coefficient_exponents(L):
    """Binary exponents x, 2^(x-1) <= |d| < 2^x, of each piece's coefficients d in the offset t; 0 for 0."""
    c = L._c
    return np.where(c != 0.0, np.frexp(c)[1] + L._e[:, None] - np.outer(L._s, (0, 1, 2)), 0)


def cosine(periods, n_breakpoints):
    return sample_function(lambda x: 0.5 + 0.5 * np.cos(2 * np.pi * periods * x), n_breakpoints)


def curve_levels(n_breakpoints):
    """Level measures of x^1..x^8 and of 2-4-period cosines."""
    curves = [lambda x, k=k: x**k for k in range(1, 9)]
    curves += [lambda x, p=p: 0.5 + 0.5 * np.cos(2 * np.pi * p * x) for p in (2, 3, 4)]
    return [level_measure(sample_function(curve, n_breakpoints)) for curve in curves]


class TestConstruction:
    def test_tent(self):
        assert TENT.is_normalized and TENT(0.25) == 0.5

    def test_constant_one(self):
        assert UNIFORM.is_normalized and UNIFORM(0.3) == 1.0

    def test_ramp(self):
        assert RAMP_DOWN(0.25) == 0.75

    def test_unsorted_x_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewisePossibility([(0, 0), (0.5, 1), (0.5, 0), (1, 0)])

    def test_domain_must_be_unit_interval(self):
        with pytest.raises(ValueError, match="domain"):
            PiecewisePossibility([(0.1, 0), (1, 1)])

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            PiecewisePossibility([(0, 0), (1, 1.4)])

    def test_first_offending_breakpoint_reported(self):
        with pytest.raises(ValueError, match=r"breakpoint 1 outside \[0, 1\]: 1\.2$"):
            PiecewisePossibility([(0, 0.5), (0.5, 1.2), (0.75, -1.0), (1, 0)])

    def test_array_input_matches_pairs(self):
        pts = [(0.0, 0.25), (0.5, 1.0), (1.0, 0.0)]
        f = PiecewisePossibility(np.array(pts))
        assert f == PiecewisePossibility(iter(pts)) and f.points == tuple(pts)

    def test_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            TENT.xs[0] = 0.5
        with pytest.raises(ValueError):
            TENT.vs[0] = 0.5

    def test_points_are_the_arrays_on_every_read(self):
        f = PiecewisePossibility([(0, -0.0), (0.3, 1), (1, 0.25)])
        assert f.points == f.points == tuple(zip(f.xs.tolist(), f.vs.tolist()))
        assert hash(f) == hash(PiecewisePossibility(f.points))
        assert f == PiecewisePossibility([(0, 0.0), (0.3, 1), (1, 0.25)])

    def test_level_tuples_are_the_arrays_on_every_read(self):
        P = level_measure(PiecewisePossibility([(0, 0), (0.4, 1), (0.7, 1), (1, 0.5)]))
        assert P.bounds == P.bounds == tuple(P._b.tolist())
        assert P.coeffs == P.coeffs == tuple(map(tuple, P._c.tolist()))
        assert hash(P) == hash(LevelMeasure(P.bounds, P.coeffs, P.total))

    def test_level_measure_validation(self):
        with pytest.raises(ValueError, match="one more bound"):
            LevelMeasure((0.0, 0.5, 1.0), ((1.0, -1.0),), total=1.0)
        with pytest.raises(ValueError, match="cover exactly"):
            LevelMeasure((0.0, 0.9), ((1.0, -1.0),), total=1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            LevelMeasure((0.0, 0.5, 0.5, 1.0), ((1.0, -1.0),) * 3, total=1.0)

    @pytest.mark.parametrize("coeffs, total", [
        (((1.0, -1.0),), math.nan),
        (((1.0, -1.0),), math.inf),
        (((1.0, -math.inf),), 1.0),
        (((math.nan, -1.0),), 1.0),
        (((1.0, -1.0, math.nan),), 1.0),
    ])
    def test_level_measure_rejects_non_finite_numbers(self, coeffs, total):
        with pytest.raises(ValueError, match="must be finite"):
            LevelMeasure((0.0, 1.0), coeffs, total)

    def test_level_measure_pads_linear_rows(self):
        P = LevelMeasure([0.0, 0.5, 1.0], [(0.5, -1.0), (0.0, -1.0, 0.0)], total=1.0)
        assert P.coeffs == ((0.5, -1.0, 0.0), (0.0, -1.0, 0.0))
        assert P == LevelMeasure((0.0, 0.5, 1.0), np.array(P.coeffs), 1.0)


class TestSampleFunction:
    def test_parabola_interpolation_error_bound(self):
        # |f''| = 8 and h = 1e-3 give a 1e-6 sup-norm bound; allow one
        # percent slack for rounding on top of the exact bound
        f = sample_function(lambda x: 4 * (x - 0.5) ** 2, 1001)
        xs = np.linspace(0, 1, 20_001)
        assert np.abs(f(xs) - 4 * (xs - 0.5) ** 2).max() <= 1.01e-6

    def test_affine_is_exact(self):
        f = sample_function(lambda x: 0.25 + 0.5 * x, 7)
        xs = np.linspace(0, 1, 101)
        assert np.abs(f(xs) - (0.25 + 0.5 * xs)).max() <= 1e-15

    def test_degree_one_matches_direct_construction(self):
        f = sample_function(lambda x: x, 2)
        assert f == PiecewisePossibility([(0, 0), (1, 1)])

    def test_out_of_range_output_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            sample_function(lambda x: 1.5 * x, 11)

    def test_too_few_breakpoints(self):
        with pytest.raises(ValueError):
            sample_function(lambda x: x, 1)

    def test_scalar_evaluator_is_called_per_breakpoint(self):
        # math.exp takes no array, so each grid point is evaluated alone
        f = sample_function(lambda x: math.exp(-x), 11)
        assert f.vs.tolist() == [math.exp(-x) for x in np.linspace(0.0, 1.0, 11).tolist()]


class TestLevelMeasure:
    def test_tent_is_one_minus_y_exactly(self):
        P = level_measure(TENT)
        assert P.bounds == (0.0, 1.0)
        assert P.coeffs == ((0.0, -1.0, 0.0),)
        assert P.total == 1.0

    def test_parabola_matches_one_minus_sqrt(self):
        P = level_measure(sample_function(lambda x: 4 * (x - 0.5) ** 2, 1001))
        ys = np.linspace(0, 1, 4001)
        vals = np.array([P(y) for y in ys])
        assert np.abs(vals - (1 - np.sqrt(ys))).max() <= 2e-3

    def test_constant_one(self):
        P = level_measure(UNIFORM)
        assert P(0.0) == 1.0 and P(0.5) == 1.0 and P(1.0) == 1.0

    def test_plateau_produces_jump(self):
        f = PiecewisePossibility([(0, 1), (0.4, 1), (1, 0)])
        P = level_measure(f)
        assert P(1.0) == pytest.approx(0.4, abs=1e-12)  # plateau mass at the top
        assert P(0.5) == pytest.approx(0.4 + 0.6 * 0.5, abs=1e-12)

    def test_matches_active_set_oracle(self, rng):
        for _ in range(100):
            assert_matches_active_set(random_piecewise(rng, max_interior=12, min_gap=0.0))
        for p in (1, 5, 20):
            assert_matches_active_set(
                sample_function(lambda x, p=p: 0.5 + 0.5 * np.cos(2 * np.pi * p * x), 1000)
            )

    def test_matches_active_set_oracle_on_exact_ties(self):
        # integer-period cosines, whose values tie by symmetry on these grids
        cosines = [cosine(p, 1001) for p in range(1, 21)] + [cosine(p, 10_001) for p in (3, 20)]
        assert all(len(np.unique(f.vs)) < len(f.vs) for f in cosines)
        # plateaus at 0, at 1 and in between, as breakpoints and sampled
        shapes = [
            ([0, 0.1, 0.2, 0.3, 0.45, 0.55, 0.7, 0.8, 1], [0, 0, 1, 1, 0.5, 0.5, 0, 1, 1]),
            ([0, 0.25, 0.5, 0.75, 1], [1, 0.25, 0.25, 0.25, 0]),
            ([0, 0.2, 0.4, 0.6, 0.8, 1], [0.5, 0.5, 0, 0.5, 0.5, 1]),
        ]
        plateaus = [PiecewisePossibility(list(zip(cx, cv))) for cx, cv in shapes]
        plateaus += [sample_function(lambda x, c=c: np.interp(x, *c), 1000) for c in shapes]
        # the rises between 0, 1e-309 and 5e-324 are too steep for a float rate in
        # the offset t; their pieces share their low values with constant segments
        steep = PiecewisePossibility([
            (0, 0), (0.1, 0), (0.2, 1e-309), (0.3, 1e-309), (0.35, 0), (0.4, 5e-324),
            (0.5, 5e-324), (0.55, 1e-309), (0.6, 0.5), (0.7, 0.5), (0.8, 1), (0.9, 1), (1, 0),
        ])
        for f in [*cosines, *plateaus, steep]:
            assert_matches_active_set(f)

    def test_zero_bound_is_positive_zero(self):
        # np.unique may put -0.0 first among tied zeros, depending on its sort kernel
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(10, 401))
            vs = rng.choice(np.array([0.0, -0.0, 0.25, 0.5, 1.0]), n)
            vs[0] = 1.0
            P = level_measure(PiecewisePossibility(np.column_stack((np.linspace(0.0, 1.0, n), vs))))
            assert math.copysign(1.0, P.bounds[0]) == 1.0
            out = rearrange(P).vs
            assert not np.signbit(out[out == 0.0]).any()

    def test_matches_segment_oracle_on_random_functions(self, rng):
        for _ in range(100):
            f = random_piecewise(rng, normalized=bool(rng.integers(2)))
            P = level_measure(f)
            for alpha in rng.uniform(0, 1, 8):
                assert P(float(alpha)) == pytest.approx(
                    segment_level_set_measure(f, alpha), abs=1e-9
                )


class TestRearrange:
    def test_tent_to_ramp_exact(self):
        ft = rearrange(level_measure(TENT))
        assert ft.points == ((0.0, 1.0), (1.0, 0.0))

    def test_parabola_to_squared_ramp(self):
        ft = rearrange(level_measure(sample_function(lambda x: 4 * (x - 0.5) ** 2, 1001)))
        xs = np.linspace(0, 1, 4001)
        assert np.abs(ft(xs) - (1 - xs) ** 2).max() <= 2e-3

    def test_constant_stays_constant(self):
        assert rearrange(level_measure(UNIFORM)) == UNIFORM

    def test_identical_to_refinement_oracle(self, rng):
        levels = [level_measure(random_piecewise(rng)) for _ in range(100)]
        levels += [product_level(L, L) for L in curve_levels(1000)]
        # the benchmark's products: the ramp's (one piece, 48 depths deep)
        # and 1-20-period cosines' (2-4 periods are among curve_levels)
        cosines = [level_measure(cosine(p, 1000)) for p in (1, *range(5, 21))]
        levels += [product_level(L, L) for L in [level_measure(RAMP_DOWN), *cosines]]
        levels.append(level_measure(TENT))
        levels.append(level_measure(sample_function(lambda x: 4 * (x - 0.5) ** 2, 1001)))
        for level in levels:
            assert rearrange(level) == rearrange_by_refinement(level)

    def test_requires_unit_total(self):
        P = LevelMeasure((0.0, 1.0), ((0.5, -0.5, 0.0),), total=0.5)
        with pytest.raises(ValueError, match="total"):
            rearrange(P)

    def test_closed_form_inverse_no_worse_than_bisection(self):
        # five points inside every quadratic piece of the product levels
        # of test_identical_to_refinement_oracle
        for L in curve_levels(1000):
            PP = product_level(L, L)
            b, c = np.array(PP.bounds), np.array(PP.coeffs)
            ya, yb = b[:-1], b[1:]
            pa = c[:, 0] + (ya - yb) * (c[:, 1] + (ya - yb) * c[:, 2])
            q = np.flatnonzero((pa > c[:, 0]) & (c[:, 2] != 0.0))
            assert q.size
            k = np.repeat(q, 5)
            x = c[k, 0] + (pa[k] - c[k, 0]) * np.tile(np.arange(1, 6) / 6, q.size)
            closed = possinfo.continuous._invert(*c[k].T, 0, ya[k], yb[k], x)  # rows in t: unit 2^0
            bisected = invert_by_bisection(c[k], ya[k], yb[k], x)

            def residual(y):
                t = y - yb[k]
                return np.abs(c[k, 0] + t * (c[k, 1] + t * c[k, 2]) - x)

            assert np.all(residual(closed) <= residual(bisected) + 4 * np.spacing(x))

    def test_monotone_nonincreasing(self, rng):
        for _ in range(100):
            f = random_piecewise(rng)
            ft = rearrange(level_measure(f))
            assert all(b <= a + 1e-12 for a, b in zip(ft.vs, ft.vs[1:]))
            assert ft.vs[0] == max(f.vs)

    def test_preserves_level_set_measures(self, rng):
        for _ in range(60):
            f = random_piecewise(rng)
            ft = rearrange(level_measure(f))
            for alpha in np.linspace(0, 1, 101):
                assert segment_level_set_measure(ft, alpha) == pytest.approx(
                    segment_level_set_measure(f, alpha), abs=1e-6
                )

    def test_idempotent(self, rng):
        for _ in range(60):
            f = random_piecewise(rng)
            ft = rearrange(level_measure(f))
            ft2 = rearrange(level_measure(ft))
            xs = np.linspace(0, 1, 2001)
            assert np.abs(ft(xs) - ft2(xs)).max() <= 1e-9

    def test_subnormal_rearranges_to_subnormal(self):
        f = PiecewisePossibility([(0, 0), (0.5, 0.6), (1, 0.1)])
        ft = rearrange(level_measure(f))
        assert ft.vs[0] == pytest.approx(0.6, abs=1e-12)
        assert not ft.is_normalized


class TestInfo:
    def test_ramp_is_one(self):
        assert info(RAMP_DOWN) == 1.0

    def test_uniform_is_zero(self):
        assert info(UNIFORM) == 0.0

    def test_monomials_give_harmonic_numbers(self):
        for n in (2, 5):
            f = sample_function(lambda x, n=n: x**n, 10_000)
            assert info(f) == pytest.approx(harmonic(n), abs=1e-3)

    def test_subnormal_diverges(self):
        with pytest.raises(DivergenceError, match="diverges"):
            info(PiecewisePossibility([(0, 0.5), (1, 0.2)]))

    def test_normalized_within_tolerance_is_scaled_to_sup_one(self):
        f = PiecewisePossibility([(0, 1.0 - 1e-10), (1, 0)])
        assert f.is_normalized
        assert info(f) == 1.0

    def test_top_plateau_closed_form(self):
        # f is 1 on [0.25, 0.75] and ramps to 0 at both ends; the
        # rearrangement is 1 on [0, 0.5] then 2(1 - x), so
        # info = integral_{1/2}^{1} (2x - 1)/x dx = 1 - ln 2
        f = PiecewisePossibility([(0, 0), (0.25, 1), (0.75, 1), (1, 0)])
        expected = 1.0 - math.log(2.0)
        assert info(f) == pytest.approx(expected, abs=1e-12)
        assert info_from_level(level_measure(f)) == pytest.approx(expected, abs=1e-9)

    def test_bottom_plateau_closed_form(self):
        # f ramps from 1 to 0 on [0, 0.5] and stays 0; the level measure
        # jumps by 0.5 at level 0 and info = 1 + ln 2
        f = PiecewisePossibility([(0, 1), (0.5, 0), (1, 0)])
        expected = 1.0 + math.log(2.0)
        assert info(f) == pytest.approx(expected, abs=1e-12)
        assert info_from_level(level_measure(f)) == pytest.approx(expected, abs=1e-9)

    def test_interior_plateau_dual_path(self):
        f = PiecewisePossibility([(0, 0.2), (0.3, 1.0), (0.6, 1.0), (0.8, 0.5), (1, 0.5)])
        ft = rearrange(level_measure(f))
        assert info_from_level(level_measure(f)) == pytest.approx(info_of_descending(ft), abs=1e-9)
        for alpha in np.linspace(0, 1, 101):
            assert segment_level_set_measure(ft, alpha) == pytest.approx(
                segment_level_set_measure(f, alpha), abs=1e-9
            )

    def test_invariant_under_rearrangement(self, rng):
        for _ in range(60):
            f = random_piecewise(rng)
            assert info(rearrange(level_measure(f))) == pytest.approx(info(f), abs=1e-9)

    @pytest.mark.parametrize("n", [100, 200])
    def test_cosines_match_segment_level_oracle(self, n):
        for periods in range(1, 21):
            f = cosine(periods, n)
            expected = info_by_segment_levels(f)
            assert info(f) == pytest.approx(expected, abs=1e-9)
            assert info_from_level(level_measure(f)) == pytest.approx(expected, abs=1e-9)

    def test_antitone_in_pointwise_order(self, rng):
        for _ in range(60):
            f = random_piecewise(rng)
            higher = PiecewisePossibility(
                [(x, v + (1 - v) * 0.5) for x, v in f.points]
            )
            assert info(higher) <= info(f) + 1e-12


def _up(v):
    return float(np.nextafter(v, 2.0))


def _down(v):
    return float(np.nextafter(v, -1.0))


ADVERSARIAL = {
    # rates dx/dv from 2e-7 to 5e5: slopes over 12 orders of magnitude
    "slopes_12_orders": [(0, 0), (1e-7, 0.5), (0.5, 0.500001), (0.5 + 1e-7, 1.0), (1, 0.999999)],
    "one_ulp_wide_segments": [
        (0, 0.2), (0.5, 1.0), (_up(0.5), 0.3), (0.75, 0.6), (_up(0.75), 0.0), (1, 0.4)
    ],
    "plateaus_at_0_1_and_inside": [
        (0, 0), (0.1, 0), (0.3, 0.6), (0.5, 0.6), (0.6, 1.0), (0.8, 1.0), (0.9, 0), (1, 0)
    ],
    "subnormal": [(0, 0.1), (0.4, 0.6), (0.7, 0.6), (1, 0)],
    "ieee_subnormal_values": [(0, 5e-324), (0.3, 1.0), (0.6, 2.2250738585072014e-308), (1, 1e-310)],
    # top plateaus of subnormal width: the level-side root d0 / -d1 is subnormal
    # and w / r overflows
    "top_plateau_1e-310_wide": [(0, 1), (1e-310, 1), (1, 0)],
    "top_plateau_5e-324_wide": [(0, 1), (5e-324, 1), (1, 0)],
    # a rise of subnormal width to a plateau: a root overflows the float range
    "subnormal_rise_to_a_plateau": [
        (0, 0.2581348800776463), (2.452e-320, 1), (2.452234255509054e-100, 1), (1, 0.2891380757433565)
    ],
    # a root that rounds inside the subnormal range and loses bits
    "subnormal_root_losing_bits": [
        (0, 1), (5e-324, 1), (3.2645942776127325e-308, 1e-16), (1, 2.2250738585072014e-308)
    ],
    # a spike under 1e-320 wide: P is below the smallest subnormal on the
    # levels only the spike reaches, above 0.9999999999999999
    "spike_narrower_than_the_subnormal_range": [
        (0, 0.6774208733279948), (1.082e-320, 1), (1.0819523446068e-310, 0.5086568400312831),
        (1, 0.9999999999999999),
    ],
}
# neighbouring breakpoint values one ulp apart
NEAR_TIED = list(zip(np.linspace(0, 1, 6).tolist(), [0.5, _up(0.5), 1.0, _down(1.0), 0.25, _down(0.25)]))


def assert_matches_segment_measure(f, tol):
    P = level_measure(f)
    levels = sorted(set(f.vs.tolist()) | {0.0, 1.0})
    levels += [0.5 * (a + b) for a, b in zip(levels, levels[1:])]
    for alpha in levels:
        assert P(alpha) == pytest.approx(segment_level_set_measure(f, alpha), abs=tol)


class TestAdversarialInputs:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_level_measure_matches_segment_oracle(self, name):
        assert_matches_segment_measure(PiecewisePossibility(ADVERSARIAL[name]), 1e-9)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL) + ["near_tied_values"])
    def test_stages_match_scalar_oracles(self, name):
        f = PiecewisePossibility(ADVERSARIAL.get(name, NEAR_TIED))
        P = assert_matches_active_set(f)
        assert rearrange(P) == rearrange_by_refinement(P)

    @pytest.mark.parametrize("name", sorted(set(ADVERSARIAL) - {"subnormal"}))
    def test_dual_paths_agree(self, name):
        f = PiecewisePossibility(ADVERSARIAL[name])
        x_side = info_of_descending(rearrange(level_measure(f)))
        assert x_side == pytest.approx(info_from_level(level_measure(f)), abs=1e-9)

    def test_subnormal_diverges(self):
        f = PiecewisePossibility(ADVERSARIAL["subnormal"])
        with pytest.raises(DivergenceError):
            info(f)
        with pytest.raises(DivergenceError):
            info_from_level(level_measure(f))

    def test_near_tied_values_match_segment_oracle(self):
        f = PiecewisePossibility(NEAR_TIED)
        assert_matches_segment_measure(f, 1e-9)
        x_side = info_of_descending(rearrange(level_measure(f)))
        assert x_side == pytest.approx(info_from_level(level_measure(f)), abs=1e-9)


class TestExtremeGaps:
    def test_tiny_head_keeps_its_mass(self):
        # f falls from 1 to 0.5 over [0, 1e-300], then to 0 over the rest:
        # info = 1/2 + integral_{1e-300}^1 (1 + x) / (2x) dx up to O(1e-300)
        f = PiecewisePossibility([(0, 1), (1e-300, 0.5), (1, 0)])
        assert info(f) == pytest.approx(1.0 + 150.0 * math.log(10.0), abs=1e-9)

    def test_smallest_subnormal_width_head(self):
        f = PiecewisePossibility([(0, 1), (5e-324, 0), (1, 0)])
        x_side = info_of_descending(rearrange(level_measure(f)))
        assert x_side == pytest.approx(745.44, abs=0.01)
        assert info(f) == pytest.approx(x_side, abs=1e-9)

    def test_narrow_top_plateau(self):
        f = PiecewisePossibility([(0, 0), (0.5 - 5e-14, 1), (0.5 + 5e-14, 1), (1, 0)])
        ft = rearrange(level_measure(f))
        assert ft.vs[0] == 1.0
        assert info(f) == pytest.approx(1.0, abs=1e-9)

    def test_smallest_subnormal_value_gap(self):
        # the rise to 5e-324 over [0, 0.5] has the rate 2^1073, past the float
        # range; its piece of P, 5e-324 high, keeps it in its offset unit and
        # exponent, and P falls from 1 to 1/2 across it, which adds ln 2; the
        # rearrangement is 1 - 2x on [0, 1/2]
        f = PiecewisePossibility([(0, 0), (0.5, 5e-324), (1, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = info(f)
            oracle = info_from_level(level_measure_by_active_set(f))
        assert value == pytest.approx(1.0 + math.log(2.0), abs=1e-12)
        assert value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("count", range(2, 9))
    def test_steep_segments_whose_rates_sum_past_the_float_range(self, count):
        # each segment of width 0.1 between 0 and 1e-309 has the finite
        # rate 1e308, but no sum of two fits a float: their piece of P,
        # 1e-309 high, holds the sum in its offset unit, P falls by 0.1 * count
        # across it, and the final ramp over [0.1 * count, 1] carries the rest
        teeth = [(0.1 * k, 1e-309 * (k % 2)) for k in range(1, count + 1)]
        f = PiecewisePossibility([(0, 0), *teeth, (1, 1)])
        assert_matches_active_set(f)
        expected = 1.0 + math.log(1.0 / (1.0 - 0.1 * count))
        assert info(f) == pytest.approx(info_by_segment_levels(f), abs=1e-12)
        assert info(f) == pytest.approx(expected, abs=1e-12)


# gaps and values of the seeded sweep: each is s, 1 - s or an ordinary draw
EXTREMES = (5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100, 1e-16, 1e-12)


def extreme_curve(rng):
    """A 2-6-breakpoint curve whose gaps and values are mostly extreme, normalized 70 % of the time."""

    def draw(base):
        s = EXTREMES[rng.integers(len(EXTREMES))]
        return (base + s, 1.0 - s, float(rng.uniform()))[rng.integers(3)]

    xs = [0.0]
    for _ in range(rng.integers(0, 5)):
        xs.append(draw(xs[-1]))
    xs = sorted({x for x in xs if 0.0 < x < 1.0} | {0.0, 1.0})
    vs = [draw(0.0) for _ in xs]
    if rng.uniform() < 0.7:
        vs[rng.integers(len(vs))] = 1.0
    return PiecewisePossibility(list(zip(xs, vs)))


class TestSubnormalWidths:
    """Segments and level-side roots below the normal float range.

    The expected values are -integral_0^1 ln P(y) dy at 60 digits (mpmath).
    """

    EXPECTED_INFO = {
        "top_plateau_1e-310_wide": 1.0,
        "top_plateau_5e-324_wide": 1.0,
        "subnormal_rise_to_a_plateau": 0.7108619242566435,
        "subnormal_root_losing_bits": 709.0130731512899,
        "spike_narrower_than_the_subnormal_range": 0.49134315996880015,
    }
    # info near 0, where an error of one ulp of 1 on a nearly flat piece would swamp it:
    # a fall to 1e-300 across the last 2^-53 of the domain (P = 1 - 2^-53 y), and a
    # spike to 1 about 1e-100 wide over a plateau at 0.999999999999
    TINY_INFO = {
        "last_segment_one_ulp_wide": ([(0, 1), (0.9999999999999999, 1), (1, 1e-300)], 5.5511151231257829076e-17),
        "spike_over_a_plateau_just_below_1": (
            [(0, 1e-100), (1e-300, 1), (1e-100, 0.999999999999), (1, 0.999999999999)],
            2.3125339346338613071e-10,
        ),
    }
    # f falls from 1 to 0 across [0, 1e-310]; g rises from 0 to 1 there
    NARROW_FALL = PiecewisePossibility([(0, 1), (1e-310, 0), (1, 0)])
    NARROW_RISE = PiecewisePossibility([(0, 0), (1e-310, 1), (1, 1)])

    @pytest.mark.parametrize("name", sorted(EXPECTED_INFO))
    def test_info_matches_high_precision_value(self, name):
        value = info(PiecewisePossibility(ADVERSARIAL[name]))
        assert value == pytest.approx(self.EXPECTED_INFO[name], rel=1e-12)

    @pytest.mark.parametrize("name", sorted(TINY_INFO))
    def test_tiny_info_keeps_its_relative_digits(self, name):
        points, expected = self.TINY_INFO[name]
        assert info(PiecewisePossibility(points)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_spike_level_measure_keeps_its_exponents(self):
        # pickle, copy and deepcopy rebuild the pieces, exponents included,
        # and equal level measures hash alike
        L = level_measure(PiecewisePossibility(ADVERSARIAL["spike_narrower_than_the_subnormal_range"]))
        assert L._e.any()
        for other in (pickle.loads(pickle.dumps(L)), copy.copy(L), copy.deepcopy(L)):
            assert other == L and hash(other) == hash(L)
            assert np.array_equal(other._e, L._e) and np.array_equal(other._c, L._c)
            assert info_from_level(other) == info_from_level(L)
        assert L != LevelMeasure._scaled(L._b, L._c, L._e + 1, L.total)

    def test_product_whose_top_piece_squares_below_the_normal_range(self):
        # pair 2212 of the seed-1 sweep below: the product's top piece was
        # (0, -2^-1022, 2^-1022), whose discriminant 2^-2044 rounded to 0 and
        # moved a root; the value is -integral_0^1 ln P(y) dy at 60 digits
        f = PiecewisePossibility(
            [(0, 1), (2.2250738585072014e-308, 1), (4.450147717014403e-308, 1e-200), (1, 1e-300)]
        )
        g = PiecewisePossibility([(0, 1e-200), (1, 1)])
        value = info_from_level(product_level(level_measure(f), level_measure(g)))
        assert value == pytest.approx(709.0101241711442, rel=1e-12)

    def test_join_distances_with_a_subnormal_width_head(self):
        # 1 - 5e-324 rounds to 1, so the join is the ramp with a 5e-324 wide top plateau
        head = PiecewisePossibility([(0, 1), (5e-324, 0), (1, 0)])
        for distance in (big_g_cont, big_k_cont):
            assert distance(RAMP_DOWN, head) == pytest.approx(744.4400719213812, rel=1e-12)

    def test_evaluation_inside_a_segment_narrower_than_one_over_max_float(self):
        f = self.NARROW_FALL
        assert f(5e-311) == pytest.approx(0.5, abs=1e-12)
        values = f(np.array([0.0, 2.5e-311, 5e-311, 1e-310, 0.5]))
        assert np.allclose(values, [1.0, 0.75, 0.5, 0.0, 0.0], rtol=0.0, atol=1e-12)
        assert self.NARROW_RISE(np.array([5e-311]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_meet_and_join_cross_inside_a_narrow_segment(self):
        for combine in (meet_pw, join_pw):
            h = combine(self.NARROW_FALL, self.NARROW_RISE)
            assert h.xs[1] == pytest.approx(5e-311, rel=1e-12)
            assert h.vs[1] == pytest.approx(0.5, abs=1e-12)

    def test_distances_across_a_narrow_segment(self):
        f, g = self.NARROW_FALL, self.NARROW_RISE
        assert big_g_cont(f, g) == pytest.approx(714.8013788281542, rel=1e-12)
        assert big_k_cont(f, g) == pytest.approx(714.8013788281542, rel=1e-12)
        assert big_h_cont(f, g) == math.inf

    def test_extreme_curves_match_active_set_oracle(self):
        # pieces out of the band are summed again in their units: against exact sums
        rng = np.random.default_rng(3)
        for _ in range(1000):
            assert_matches_active_set(extreme_curve(rng))

    def test_row_wider_than_the_float_range_matches_the_referee(self):
        # curve 619 of seed 10: on (1e-310, 2.2250738585072014e-308] the slope
        # lies about 2^-1578 below the top value, past what one float scale
        # holds, so the referee must round the exact row near its largest
        f = PiecewisePossibility(
            [(0, 1e-310), (1e-320, 1), (1e-100, 0.2645620255298019), (1, 2.2250738585072014e-308)]
        )
        assert_matches_active_set(f)

    def test_widths_and_heights_of_2_to_the_minus_255_keep_rows_in_the_band(self):
        # level_measure checks no row when every width and piece height is 2^-255 or
        # more: rates then stay below 2^255, and the top values under the largest value
        # and the slopes where P falls stay above 2^-510, so exponent 0 obeys the rule
        rng = np.random.default_rng(4)
        tiny = 2.0**-255
        for _ in range(500):
            xs = (tiny * np.cumsum(rng.integers(1, 4, size=int(rng.integers(0, 4))))).tolist()
            xs = [0.0, *xs, *([0.5] if rng.uniform() < 0.5 else []), 1.0]
            vs = rng.choice([0.0, tiny, 2 * tiny, 5 * tiny, 2.0**-200, 0.5, 1.0], size=len(xs))
            f = PiecewisePossibility(list(zip(xs, vs.tolist())))
            L = level_measure(f)
            assert np.diff(f.xs).min() >= tiny and np.diff(L._b).min() >= tiny
            d0, d1 = L._c[:, 0], L._c[:, 1]
            assert not L._e.any()
            assert ((np.abs(L._c) >= 2.0**-511) | (L._c == 0.0)).all()
            assert (d0[L._b[1:] < f.max_value] > 0.0).all()
            assert (d1[(L._b[:-1] >= f.vs.min()) & (L._b[1:] <= f.max_value)] < 0.0).all()

    def test_seeded_sweep_of_extreme_gaps_and_values(self):
        calls = {"info": lambda f, g: info(f), "meet_pw": meet_pw, "join_pw": join_pw,
                 "big_g_cont": big_g_cont, "big_h_cont": big_h_cont, "big_k_cont": big_k_cont}
        rng = np.random.default_rng(0)
        failures = []
        for _ in range(300):
            f, g = extreme_curve(rng), extreme_curve(rng)
            for name, call in calls.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        value = call(f, g)
                    except DivergenceError:
                        continue
                    except Exception as e:  # a warning, a ValueError or anything else
                        failures.append((name, f.points, g.points, repr(e)))
                        continue
                if name == "info" and not math.isfinite(value):
                    failures.append((name, f.points, g.points, value))
        assert failures == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed, normalized", [(1, 14560), (2, 14515)])
    def test_normalized_extreme_curves_have_finite_information(self, seed, normalized):
        # 34 and 35 of these curves raised DivergenceError when P fell below
        # the subnormal range or a steep rate was counted as a jump
        rng = np.random.default_rng(seed)
        curves = [f for _ in range(16_000) if (f := extreme_curve(rng)).is_normalized]
        assert len(curves) == normalized
        assert [f.points for f in curves if not math.isfinite(info(f))] == []

    @pytest.mark.filterwarnings("error")
    def test_products_with_slopes_that_square_past_the_float_range(self):
        # 678 of these 8 000 seeded products hold a slope of 2^512 or more,
        # whose square once overflowed in info_from_level (a NaN in 88 pairs)
        # and in rearrange (146 pairs).  The count was 535: of the 143 added,
        # 18 raised "must be finite" and 125 hold a slope that entered P as a
        # jump while a segment whose rate passed the float range counted as
        # constant.  Information adds within rel 1e-9 over all 6 217 pairs
        # whose factors have finite information (169 of them once raised or
        # missed), and within rel 1e-12 on the 309 steep ones whose factors
        # have no nonzero coefficient below 2^-511: the 247 checked at that
        # limit before, 9 that raised "must be finite" and 53 newly steep
        rng = np.random.default_rng(1)
        steep = tight = finite = 0
        for _ in range(8000):
            Lf, Lg = level_measure(extreme_curve(rng)), level_measure(extreme_curve(rng))
            PP = product_level(Lf, Lg)
            try:
                parts = info_from_level(Lf) + info_from_level(Lg)
            except DivergenceError:
                parts = None
            if parts is not None:
                finite += 1
                value = info_from_level(PP)
                assert value == pytest.approx(parts, rel=1e-9)
            if (coefficient_exponents(PP)[:, 1] > 512).any():
                steep += 1
                if parts is not None and all((coefficient_exponents(L) >= -510).all() for L in (Lf, Lg)):
                    tight += 1
                    assert value == pytest.approx(parts, rel=1e-12)
                ft = rearrange(PP)
                if len(ft.points) < 1000:
                    assert ft == rearrange_by_refinement(PP)
        assert (steep, finite, tight) == (678, 6217, 309)


class TestInfoFromLevel:
    def test_linear_level(self):
        assert info_from_level(level_measure(RAMP_DOWN)) == pytest.approx(1.0, abs=1e-12)

    def test_squared_level_is_two(self):
        P = level_measure(RAMP_DOWN)
        assert info_from_level(product_level(P, P)) == pytest.approx(2.0, abs=1e-9)

    def test_uniform_level_is_zero(self):
        assert info_from_level(level_measure(UNIFORM)) == 0.0

    def test_agrees_with_rearranged_path(self, rng):
        for _ in range(100):
            f = random_piecewise(rng)
            P = level_measure(f)
            assert info_from_level(P) == pytest.approx(info_of_descending(rearrange(P)), abs=1e-6)

    def test_nearly_flat_piece_keeps_its_digits(self):
        # P = 1 - eps * y on [0, 1/2], then linear down to P(1) = 0.  The
        # first piece falls by d = eps / 2 of its bottom value, so its mean
        # of ln P is ln P(0) + t(d), t(d) = -d / 2 - d^2 / 6 - ...; the
        # closed form -1 - (1 - d) log1p(-d) / d would cancel t to about
        # five digits, and the series keeps them all
        eps = 1e-10
        P = LevelMeasure(
            (0.0, 0.5, 1.0), ((1.0 - 0.5 * eps, -eps, 0.0), (0.0, -2.0 * (1.0 - 0.5 * eps), 0.0)),
            total=1.0,
        )
        assert info_from_level(P) == pytest.approx(0.5 + 0.375 * eps, abs=1e-15)

    def test_rejects_bad_total(self):
        P = LevelMeasure((0.0, 1.0), ((0.5, -0.5, 0.0),), total=0.5)
        with pytest.raises(ValueError, match="total"):
            info_from_level(P)

    def test_negative_level_measure_rejected(self):
        P = LevelMeasure((0, 1), ((-0.5, -1.0),), 1.0)
        with pytest.raises(ValueError, match="level measure goes negative"):
            info_from_level(P)

    def test_vanishing_on_the_final_piece_diverges(self):
        P = LevelMeasure((0, 0.5, 1), ((0.5, -1.0), (-1e-12, -0.5)), 1.0)
        with pytest.raises(DivergenceError, match="diverges on the final piece"):
            info_from_level(P)

    def test_vanishing_before_one_diverges(self):
        # P drops to zero at y = 0.6: the underlying distribution is
        # subnormal and the integral diverges
        P = LevelMeasure(
            (0.0, 0.6, 1.0), ((0.0, -1.0 / 0.6, 0.0), (0.0, 0.0, 0.0)), total=1.0
        )
        with pytest.raises(DivergenceError):
            info_from_level(P)

    @pytest.mark.parametrize(
        "coeffs, integrand",
        [
            # P = 1 - y + 0.3 y^2: complex roots
            ((0.3, -0.4, 0.3), lambda y: (1 - y) * (1 - 0.6 * y) / (1 - y + 0.3 * y * y)),
            # P = 1 - 0.5 y - 0.5 y^2 = (1 - y)(1 + 0.5 y): concave
            ((0.0, -1.5, -0.5), lambda y: (0.5 + y) / (1 + 0.5 * y)),
            # P = (1 - y / 2)(1 - 3 y / 4): real roots past the top, where P = 1/8
            ((0.125, -0.5, 0.375), lambda y: -np.log((1 - 0.5 * y) * (1 - 0.75 * y))),
        ],
        ids=["complex_roots", "concave", "real_roots"],
    )
    def test_user_built_quadratic(self, coeffs, integrand):
        P = LevelMeasure((0.0, 1.0), (coeffs,), total=1.0)
        ys = np.linspace(0.0, 1.0, 10_001)
        weights = np.ones(10_001)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        simpson = float(weights @ integrand(ys)) / (3 * 10_000)
        assert info_from_level(P) == pytest.approx(simpson, abs=1e-9)
        assert info(rearrange(P)) == pytest.approx(simpson, abs=1e-6)

    def test_runs_without_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import numpy as np, possinfo as pi\n"
            "L = pi.level_measure(pi.sample_function(lambda x: 0.5 + 0.5 * np.cos(6 * np.pi * x), 200))\n"
            "PP = pi.product_level(L, L)\n"
            "pi.info_from_level(PP)\n"
            "pi.rearrange(PP)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestProductLevel:
    def test_square_of_linear(self):
        P = level_measure(RAMP_DOWN)
        PP = product_level(P, P)
        ys = np.linspace(0, 1, 101)
        assert np.abs(np.array([PP(y) for y in ys]) - (1 - ys) ** 2).max() <= 1e-12

    def test_square_rearranges_to_one_minus_sqrt(self):
        P = level_measure(RAMP_DOWN)
        ft = rearrange(product_level(P, P))
        xs = np.linspace(0, 1, 2001)
        assert np.abs(ft(xs) - (1 - np.sqrt(xs))).max() <= 1e-8

    def test_uniform_factor_is_identity(self, rng):
        for _ in range(30):
            P = level_measure(random_piecewise(rng))
            Q = product_level(P, level_measure(UNIFORM))
            ys = rng.uniform(0, 1, 20)
            for y in ys:
                assert Q(float(y)) == pytest.approx(P(float(y)), abs=1e-12)

    def test_additive_information(self, rng):
        for _ in range(60):
            P1 = level_measure(random_piecewise(rng))
            P2 = level_measure(random_piecewise(rng))
            lhs = info_from_level(product_level(P1, P2))
            rhs = info_from_level(P1) + info_from_level(P2)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_product_additivity_on_probe_curves(self):
        curves = [sample_function(lambda x, k=k: 1 - x**k, 1000) for k in range(1, 9)]
        curves += [cosine(periods, 1000) for periods in range(1, 21)]
        for f in curves:
            L = level_measure(f)
            assert info_from_level(product_level(L, L)) == pytest.approx(
                2 * info_from_level(L), abs=1e-6
            )

    def test_matches_piecewise_polymul(self, rng):
        pairs = [(L, L) for L in curve_levels(200)]
        for _ in range(50):
            P1 = level_measure(random_piecewise(rng))
            pairs += [(P1, P1), (P1, level_measure(random_piecewise(rng)))]
        for P1, P2 in pairs:
            Q = product_level(P1, P2)
            assert Q.bounds == tuple(sorted(set(P1.bounds) | set(P2.bounds)))
            for b, c in zip(Q.bounds[1:], Q.coeffs):
                factors = []
                for P in (P1, P2):  # the factor's piece, re-anchored at b
                    k = int(np.searchsorted(P.bounds, b)) - 1
                    d0, d1, d2 = P.coeffs[k]
                    t = b - P.bounds[k + 1]
                    factors.append((P.piece_value(k, b), d1 + 2.0 * t * d2, d2))
                product = np.polynomial.polynomial.polymul(*factors)
                expected = np.zeros(5)
                expected[: len(product)] = product
                assert not expected[3:].any()
                ulp = np.spacing(np.maximum(np.abs(c), np.abs(expected[:3])))
                assert np.all(np.abs(np.subtract(c, expected[:3])) <= 4 * ulp)

    def test_slopes_past_the_float_range_stay_finite(self):
        # a slope of -1e199 on a piece 1e-200 high squares past the float
        # range: the product once raised "must be finite"; its coefficients
        # in t read as inf, while the product keeps them in exponents
        P = LevelMeasure((0.0, 1e-200, 1.0), ((0.9, -1e199), (0.0, -0.9)), 1.0)
        PP = product_level(P, P)
        assert PP.coeffs[0][:2] == pytest.approx((0.81, -1.8e199), rel=1e-15) and PP.coeffs[0][2] == math.inf
        assert info_from_level(PP) == pytest.approx(2.0 * info_from_level(P), rel=1e-12)

    def test_degree_overflow(self):
        P = level_measure(RAMP_DOWN)
        PP = product_level(P, P)
        with pytest.raises(ValueError, match="degree overflow"):
            product_level(PP, PP)


class TestMeetJoin:
    def test_crossing_ramps(self):
        up = PiecewisePossibility([(0, 0), (1, 1)])
        assert join_pw(RAMP_DOWN, up).points == ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0))
        assert meet_pw(RAMP_DOWN, up).points == ((0.0, 0.0), (0.5, 0.5), (1.0, 0.0))

    def test_idempotent(self):
        assert meet_pw(TENT, TENT) == TENT
        assert join_pw(TENT, TENT) == TENT

    def test_join_of_normalized_is_normalized(self, rng):
        for _ in range(50):
            f1, f2 = random_piecewise(rng), random_piecewise(rng)
            assert join_pw(f1, f2).is_normalized

    def test_grid_adds_each_sign_change_crossing(self, rng):
        for _ in range(50):
            f1, f2 = random_piecewise(rng), random_piecewise(rng)
            xs = np.unique(np.concatenate((f1.xs, f2.xs)))
            d = f1(xs) - f2(xs)
            crossings = [
                xs[i] + d[i] / (d[i] - d[i + 1]) * (xs[i + 1] - xs[i])
                for i in range(len(xs) - 1)
                if (d[i] > 1e-12 and d[i + 1] < -1e-12) or (d[i] < -1e-12 and d[i + 1] > 1e-12)
            ]
            expected = np.unique(np.concatenate((xs, crossings)))
            assert np.array_equal(meet_pw(f1, f2).xs, expected)
            assert np.array_equal(join_pw(f1, f2).xs, expected)

    def test_pointwise_against_dense_grid(self, rng):
        xs = np.linspace(0, 1, 2001)
        for _ in range(50):
            f1, f2 = random_piecewise(rng), random_piecewise(rng)
            m, j = meet_pw(f1, f2), join_pw(f1, f2)
            assert np.abs(m(xs) - np.minimum(f1(xs), f2(xs))).max() <= 1e-12
            assert np.abs(j(xs) - np.maximum(f1(xs), f2(xs))).max() <= 1e-12


class TestContinuousDistances:
    up = PiecewisePossibility([(0, 0), (1, 1)])

    def test_g_zero_on_equal(self):
        assert g_cont(TENT, TENT) == 0.0

    def test_g_order_violation(self):
        with pytest.raises(OrderViolationError):
            g_cont(UNIFORM, RAMP_DOWN)

    def test_subnormal_lower_gives_infinity(self):
        lower = meet_pw(RAMP_DOWN, self.up)  # the tent with peak 0.5
        upper = join_pw(RAMP_DOWN, self.up)
        assert g_cont(lower, upper) == math.inf

    def test_join_distances_of_a_subnormal_curve_to_itself_are_zero(self):
        # info(f) diverges, so the gaps to the join are 0 only as f is the join
        for f in (PiecewisePossibility([(0, 0.5), (1, 0.25)]), meet_pw(RAMP_DOWN, self.up)):
            assert big_g_cont(f, f) == 0.0 and big_k_cont(f, f) == 0.0

    def test_h_infinite_when_meet_subnormal(self):
        assert big_h_cont(RAMP_DOWN, self.up) == math.inf

    def test_worked_join_distance(self):
        # join of the two ramps rearranges to 1 - x/2 with info 1/2, so
        # G = 2*(1 - 1/2) = 1 and K = 1/2
        assert big_g_cont(RAMP_DOWN, self.up) == pytest.approx(1.0, abs=1e-12)
        assert big_k_cont(RAMP_DOWN, self.up) == pytest.approx(0.5, abs=1e-12)

    def test_matches_discrete_approximation(self):
        d1 = discretize(RAMP_DOWN, 10_000)
        d2 = discretize(self.up, 10_000)
        assert big_g(d1, d2) == pytest.approx(big_g_cont(RAMP_DOWN, self.up), abs=0.01)

    def test_join_information_computed_once(self, monkeypatch):
        calls = []

        def counting_info(f):
            calls.append(f)
            return info(f)

        monkeypatch.setattr(possinfo.continuous, "info", counting_info)
        f1 = sample_function(lambda x: x**2, 1000)
        f2 = sample_function(lambda x: 1 - x**3, 1000)
        for distance in (big_g_cont, big_k_cont):
            calls.clear()
            distance(f1, f2)
            assert len(calls) == 3  # the join, then each argument

    def test_k_symmetric(self, rng):
        for _ in range(40):
            f1, f2 = random_piecewise(rng), random_piecewise(rng)
            assert big_k_cont(f1, f2) == pytest.approx(big_k_cont(f2, f1), abs=1e-12)
            assert big_k_cont(f1, f1) == 0.0

    def test_g_nonnegative_and_symmetric(self, rng):
        for _ in range(40):
            f1, f2 = random_piecewise(rng), random_piecewise(rng)
            v = big_g_cont(f1, f2)
            assert v >= -1e-12
            assert v == pytest.approx(big_g_cont(f2, f1), abs=1e-9)
