import math
import tracemalloc

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

import possinfo.approximation
from possinfo.approximation import _sample, _u_of_sample
from possinfo.measures import _u_of_values

from conftest import random_piecewise

RAMP_DOWN = PiecewisePossibility([(0, 1), (1, 0)])
UNIFORM = PiecewisePossibility([(0, 1), (1, 1)])
CUBE = sample_function(lambda x: x * x * x, 101)
ONE_MINUS_CUBE = sample_function(lambda x: 1 - x**3, 101)
TENT = PiecewisePossibility([(0, 0), (0.3, 1), (1, 0)])


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


class _OneValueAt:
    """Duck-typed normalized f: 1 at index 0, ``value`` at ``index``, ``fill`` elsewhere."""

    is_normalized = True

    def __init__(self, index, value, fill=1.0):
        self.index, self.value, self.fill = index, value, fill

    def __call__(self, xs):
        values = np.full_like(xs, self.fill)
        values[0] = 1.0
        values[self.index] = self.value
        return values


class _Returns:
    """Duck-typed normalized f whose samples are ``make(xs)``, a view as returned."""

    is_normalized = True

    def __init__(self, make):
        self.make = make

    def __call__(self, xs):
        return self.make(xs)


class TestArraySampling:
    """approx_info and convergence_series take U from the sampled array."""

    NS = (1, 2, 64, 65, 1000)
    MONOTONE_NS = (1, 2, 64, 65, 1000, 10**5)

    def test_approx_info_matches_discretized_u_exactly(self, rng):
        for _ in range(20):
            f = random_piecewise(rng, max_interior=int(rng.integers(0, 30)))
            for grid in ("left", "right"):
                for n in self.NS:
                    expected = math.log(n) - u_uncertainty(discretize(f, n, grid=grid))
                    assert approx_info(f, n, grid) == expected

    def test_series_matches_discretized_u_exactly(self, rng):
        for _ in range(20):
            f = random_piecewise(rng, max_interior=int(rng.integers(0, 30)))
            for grid in ("left", "right"):
                for e in convergence_series(f, self.NS, grid=grid):
                    u = u_uncertainty(discretize(f, e.n, grid=grid))
                    assert e.u_value == u
                    assert e.approx_info == math.log(e.n) - u

    def test_monotone_curves_match_discretized_u_exactly(self):
        # samples already in order skip the sort; the bits must not notice
        for f in (RAMP_DOWN, CUBE, ONE_MINUS_CUBE):
            for grid in ("left", "right"):
                series = convergence_series(f, self.MONOTONE_NS, grid=grid)
                for n, e in zip(self.MONOTONE_NS, series):
                    u = u_uncertainty(discretize(f, n, grid=grid))
                    assert approx_info(f, n, grid) == math.log(n) - u
                    assert e.u_value == u
                    assert e.approx_info == math.log(n) - u

    def test_sample_u_matches_sort_path_bits(self, rng):
        ramp = np.arange(1.0, 1001.0) / 1000
        plateaus = np.repeat([0.0, 0.25, 0.5, 1.0], [3, 40, 1, 7])
        arrays = [
            ramp,
            ramp[::-1].copy(),
            np.full(50, 0.3),
            plateaus,
            plateaus[::-1].copy(),
            np.array([-0.0, 0.0, -0.0, 0.0, 0.5, 1.0]),
            np.array([1.0, 0.0, -0.0, 0.0, -0.0]),
            np.array([-0.0, -0.0]),
            np.array([0.4]),
            np.array([-0.0]),
            np.array([0.2, 1.0]),
            np.array([1.0, 0.2]),
            np.array([0.5, 0.5]),
            np.array([0.5, 1.0, 0.25, 1.0, 0.0]),
            np.round(rng.random(997), 2),
        ]
        for v in arrays:
            assert _u_of_sample(*_sample(_Returns(lambda xs: v), v.size, "left")).hex() == (
                _u_of_values(v).hex())
        # duck-typed f returning a negative-stride ascending view and a stride-0 view
        views = [lambda xs: (1.0 - xs)[::-1], lambda xs: np.broadcast_to(1.0, xs.shape)]
        for make in views:
            f = _Returns(make)
            for n in (1, 2, 1000):
                v, order = _sample(f, n, "left")
                assert _u_of_sample(v, order).hex() == _u_of_values(v).hex()
                assert approx_info(f, n) == math.log(n) - u_uncertainty(discretize(f, n))

    def test_sort_skipped_for_samples_in_order(self, monkeypatch):
        calls = []
        sort = np.sort

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", spy)
        ns = (10, 100, 10**4)
        for f in (RAMP_DOWN, CUBE):
            approx_info(f, 10**4)
            convergence_series(f, ns)
        assert calls == []
        approx_info(TENT, 10**4)
        convergence_series(TENT, ns)
        assert calls == [10**4, *ns]

    def test_builds_no_labelled_distribution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a DiscreteDistribution was built")

        monkeypatch.setattr(possinfo.approximation, "DiscreteDistribution", refuse)
        assert abs(approx_info(RAMP_DOWN, 1000) - 1.0) < 0.005
        assert len(convergence_series(RAMP_DOWN, (10, 100))) == 2
        with pytest.raises(AssertionError, match="DiscreteDistribution"):
            discretize(RAMP_DOWN, 4)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_count_rejected_before_log(self, n):
        with pytest.raises(ValueError, match="need at least one sample"):
            approx_info(RAMP_DOWN, n)
        with pytest.raises(ValueError, match="need at least one sample"):
            convergence_series(RAMP_DOWN, (n, 10))

    def test_fractional_count_is_type_error(self):
        with pytest.raises(TypeError):
            approx_info(RAMP_DOWN, 10.5)
        with pytest.raises(TypeError):
            convergence_series(RAMP_DOWN, (10.5, 20))
        with pytest.raises(TypeError):
            discretize(RAMP_DOWN, 10.5)

    def test_numpy_integer_counts_accepted(self):
        assert approx_info(RAMP_DOWN, np.int64(100)) == approx_info(RAMP_DOWN, 100)
        series = convergence_series(RAMP_DOWN, np.array([10, 100]))
        assert [type(e.n) for e in series] == [int, int]
        assert [e.approx_info for e in series] == [approx_info(RAMP_DOWN, n) for n in (10, 100)]

    def test_out_of_range_sample_rejected_on_every_path(self):
        # the first bad index is named on either grid; NaN fails every
        # comparison and -5e-324 is the negative float nearest 0
        cases = [
            (5, 1.0 + 2.0**-52, "value at index 5 outside [0, 1]: 1.0000000000000002"),
            (9, math.nan, "value at index 9 outside [0, 1]: nan"),
            (4, -5e-324, "value at index 4 outside [0, 1]: -5e-324"),
        ]
        for index, value, message in cases:
            f = _OneValueAt(index, value)
            for grid in ("left", "right"):
                for call in (
                    lambda: approx_info(f, 10, grid),
                    lambda: convergence_series(f, (10, 20), grid),
                    lambda: discretize(f, 10, grid),
                ):
                    with pytest.raises(ValueError) as err:
                        call()
                    assert str(err.value) == message

    def test_negative_zero_samples_accepted_on_every_path(self):
        f = _OneValueAt(3, -0.0, fill=-0.0)
        for grid in ("left", "right"):
            assert approx_info(f, 10, grid) == math.log(10)
            series = convergence_series(f, (10, 20), grid)
            assert [e.approx_info for e in series] == [math.log(10), math.log(20)]
            assert discretize(f, 10, grid).as_array().tobytes() == np.array(
                [1.0] + [-0.0] * 9).tobytes()

    def test_nan_sample_rejected(self):
        class NanAt0:
            is_normalized = True

            def __call__(self, xs):
                return np.where(xs == 0.0, np.nan, 1.0)

        with pytest.raises(ValueError, match=r"value at index 0 outside \[0, 1\]: nan$"):
            approx_info(NanAt0(), 3)

    def test_misshapen_sample_rejected(self):
        class Scalar:
            is_normalized = True

            def __call__(self, xs):
                return 1.0

        with pytest.raises(ValueError, match="one per grid point"):
            approx_info(Scalar(), 3)


def _first_outside(values):
    """The range error for these samples, found by a plain scan (None when all lie in [0, 1])."""
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            return f"value at index {i} outside [0, 1]: {float(v)!r}"
    return None


class TestEndsOnlyRangeCheck:
    """Samples in order are range-checked at their two ends; every path still
    raises the full scan's error, with its first offending index."""

    REJECTED = [
        [-0.5, 0.25, 1.0],  # ascending, first value below 0
        [0.0, 0.5, 1.5],  # ascending, last value above 1
        [0.5, 1.0, 1.0 + 2.0**-52, 2.0],  # ascending, the first of two above 1 is named
        [1.5, 1.0, 0.0],  # descending, first value above 1
        [1.0, 0.5, -5e-324],  # descending, last value below 0
        [1.0, 0.0, -1.0, -2.0],  # descending, the first of two below 0 is named
        [2.0, 2.0],  # constant above 1
        [math.nan, 0.5, 1.0],  # NaN at the first end
        [0.0, 0.5, math.nan],  # NaN at the last end
        [1.0, math.nan, 0.0],  # NaN inside
        [0.0, math.nan, 1.5],  # NaN inside, before a value above 1
        [math.nan],  # n = 1
        [1.5],
        [-0.25],
    ]
    ACCEPTED = [
        [-0.0, 0.5, 1.0],
        [1.0, 0.5, -0.0],
        [-0.0, 1.0, 0.0],
        [0.0, -0.0],
        [-0.0, -0.0],
        [-0.0],
        [1.0],
    ]

    @staticmethod
    def _paths(f, n, grid):
        return (
            lambda: approx_info(f, n, grid),
            lambda: convergence_series(f, (n,), grid),
            lambda: discretize(f, n, grid),
        )

    def _assert_rejected(self, f, n, grid, message):
        for call in self._paths(f, n, grid):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_reference_scan_names_the_first_index(self):
        assert _first_outside([0.5, 1.0, 1.0 + 2.0**-52, 2.0]) == (
            "value at index 2 outside [0, 1]: 1.0000000000000002")
        assert _first_outside([1.0, 0.0, -1.0, -2.0]) == "value at index 2 outside [0, 1]: -1.0"
        assert _first_outside([math.nan]) == "value at index 0 outside [0, 1]: nan"

    @pytest.mark.parametrize("values", REJECTED)
    def test_rejected_with_the_first_index_on_every_path(self, values):
        f = _Returns(lambda xs: np.array(values))
        message = _first_outside(values)
        assert message is not None
        for grid in ("left", "right"):
            self._assert_rejected(f, len(values), grid, message)

    @pytest.mark.parametrize("values", ACCEPTED)
    def test_signed_zero_ends_accepted_on_every_path(self, values):
        f = _Returns(lambda xs: np.array(values))
        n = len(values)
        for grid in ("left", "right"):
            d = discretize(f, n, grid)
            assert d.as_array().tobytes() == np.array(values).tobytes()
            u = u_uncertainty(d)
            assert approx_info(f, n, grid) == math.log(n) - u
            assert convergence_series(f, (n,), grid).entries[0].u_value == u

    def test_f_returning_its_own_argument(self):
        own = _Returns(lambda xs: xs)
        for grid in ("left", "right"):
            for n in (1, 2, 1000):
                u = u_uncertainty(discretize(own, n, grid))
                assert approx_info(own, n, grid) == math.log(n) - u
        # the grid shifted in place and returned: ascending, leaving [0, 1] at one end
        for shift in (np.add, np.subtract):
            f = _Returns(lambda xs: shift(xs, 0.5, out=xs))
            for grid, start in (("left", 0.0), ("right", 1.0)):
                expected = _first_outside(shift(np.arange(start, 10.0 + start) / 10, 0.5))
                self._assert_rejected(f, 10, grid, expected)


class TestMemory:
    def test_peak_stays_near_two_sample_arrays(self):
        # the grid and the samples, or the samples and their sorted or
        # reversed copy, are the only n-sized float arrays alive at once
        n = 10**6
        cosine = sample_function(lambda x: 0.5 * (1.0 + np.cos(14.0 * np.pi * x)), 2001)
        assert _sample(cosine, 1000, "left")[1] == 0  # out of order: U sorts it
        for f in (RAMP_DOWN, cosine):
            approx_info(f, n)  # warm up: U's weight table for n is built once
            tracemalloc.start()
            try:
                approx_info(f, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.25 * 8 * n


class TestPinnedBits:
    """float.hex of ln n - U at 10**5 and 10**6 samples.

    The sample grid, the range check, the weight table and the U sum must
    keep every bit; a change that moves one fails here.
    """

    def test_approx_info(self):
        assert approx_info(RAMP_DOWN, 10**5).hex() == "0x1.fff7401b53790p-1"
        assert approx_info(CUBE, 10**5, grid="right").hex() == "0x1.d5342b0ec1a18p+0"

    def test_approx_info_in_order_at_a_million(self):
        # the descending and the ascending path that skip the sort
        assert approx_info(RAMP_DOWN, 10**6).hex() == "0x1.fffef961362c0p-1"
        assert approx_info(CUBE, 10**6, grid="right").hex() == "0x1.d53e5e3d4e7f8p+0"

    def test_convergence_series_entry(self):
        entry = convergence_series(TENT, (10**3, 10**4, 10**6)).entries[-1]
        assert entry.u_value.hex() == "0x1.9a18ab7192484p+3"
        assert entry.approx_info.hex() == "0x1.ffffe276db1c0p-1"

    def test_convergence_series_entry_in_order(self):
        entry = convergence_series(ONE_MINUS_CUBE, (10**4, 10**6)).entries[-1]
        assert entry.u_value.hex() == "0x1.af6d9743c45c5p+3"
        assert entry.approx_info.hex() == "0x1.55624aa773b60p-2"


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
