import math

import numpy as np
import pytest

from possinfo import (
    ConvergenceSeries,
    PiecewisePossibility,
    approx_info,
    convergence_series,
    discretize,
    info,
    sample_function,
    u_uncertainty,
)

from conftest import random_piecewise

RAMP_DOWN = PiecewisePossibility([(0, 1), (1, 0)])
UNIFORM = PiecewisePossibility([(0, 1), (1, 1)])


class TestDiscretize:
    def test_ramp_sample_multiset(self):
        assert discretize(RAMP_DOWN, 4).values == (1.0, 0.75, 0.5, 0.25)

    def test_uniform_all_ones(self):
        assert discretize(UNIFORM, 7).values == (1.0,) * 7

    def test_ramp_u_is_log_factorial_over_n(self):
        d = discretize(RAMP_DOWN, 4)
        assert u_uncertainty(d) == pytest.approx(math.log(24) / 4, abs=1e-12)

    def test_right_grid_option(self):
        assert discretize(RAMP_DOWN, 4, grid="right").values == (0.75, 0.5, 0.25, 0.0)

    def test_values_are_attained(self, rng):
        for _ in range(30):
            f = random_piecewise(rng)
            n = int(rng.integers(1, 50))
            d = discretize(f, n)
            xs = np.arange(n) / n
            assert np.abs(np.asarray(d.values) - f(xs)).max() == 0.0

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            discretize(RAMP_DOWN, 0)

    def test_rejects_unknown_grid(self):
        with pytest.raises(ValueError, match="grid"):
            discretize(RAMP_DOWN, 4, grid="center")


class TestApproxInfo:
    def test_exact_log_factorial_identity(self):
        # for the descending ramp the sample U is exactly ln(n!)/n
        for n in range(1, 21):
            got = u_uncertainty(discretize(RAMP_DOWN, n))
            assert got == pytest.approx(math.log(math.factorial(n)) / n, abs=1e-12)

    def test_stirling_convergence_at_1000(self):
        assert abs(approx_info(RAMP_DOWN, 1000) - 1.0) < 0.005

    def test_uniform_is_exactly_zero(self):
        for n in (1, 10, 1000):
            assert approx_info(UNIFORM, n) == pytest.approx(0.0, abs=1e-12)

    def test_parabola_approaches_h2(self):
        f = sample_function(lambda x: x * x, 10_000)
        assert abs(approx_info(f, 10_000) - info(f)) < 0.01
        assert abs(approx_info(f, 10_000) - 1.5) < 0.01

    def test_subnormal_rejected(self):
        f = PiecewisePossibility([(0, 0.5), (1, 0.2)])
        with pytest.raises(ValueError, match="normalized"):
            approx_info(f, 10)


class TestConvergenceSeries:
    def test_ramp_series_values(self):
        series = convergence_series(RAMP_DOWN, (10, 100, 1000))
        # direct factorial evaluation: ln 10 - ln(10!)/10 = 0.79214...
        expected = [math.log(n) - math.log(math.factorial(n)) / n for n in (10, 100, 1000)]
        got = [e.approx_info for e in series]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got[0] == pytest.approx(0.7921438356864943, abs=1e-12)
        assert abs(got[-1] - 1.0) < 0.005

    def test_constant_series_all_zero(self):
        series = convergence_series(UNIFORM, (5, 50, 500))
        assert all(e.approx_info == pytest.approx(0.0, abs=1e-12) for e in series)

    def test_error_shrinks_along_series_for_monotone_inputs(self):
        # empirical observation for these fixed inputs, not a theorem
        for f in (RAMP_DOWN, sample_function(lambda x: x * x, 2001)):
            target = info(f)
            series = convergence_series(f, (10, 50, 250, 1250))
            errs = [abs(e.approx_info - target) for e in series]
            assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_requires_increasing_counts(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_series(RAMP_DOWN, (10, 10))

    def test_subnormal_rejected(self):
        f = PiecewisePossibility([(0, 0.5), (1, 0.2)])
        with pytest.raises(ValueError, match="normalized"):
            convergence_series(f, (10, 100))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            convergence_series(RAMP_DOWN, ())

    def test_entries_type(self):
        series = convergence_series(RAMP_DOWN, (4,))
        assert isinstance(series, ConvergenceSeries)
        assert series.entries[0].n == 4
        assert series.entries[0].u_value == pytest.approx(math.log(24) / 4, abs=1e-12)


class TestConvergenceRate:
    def test_calibrated_rate_bound(self, rng):
        # calibrate C on the descending ramp at n = 1000, then assert the
        # bound with factor-4 slack on a random family whose slopes stay
        # below 4 (interior breakpoints at least 0.25 apart), matching the
        # slope dependence of the discretization error
        n_cal = 1000
        c_cal = abs(approx_info(RAMP_DOWN, n_cal) - 1.0) * n_cal / math.log(n_cal)
        for _ in range(25):
            f = random_piecewise(rng, max_interior=2, min_gap=0.25)
            target = info(f)
            for n in (1000, 2000):
                err = abs(approx_info(f, n) - target)
                assert err <= 4.0 * c_cal * math.log(n) / n
