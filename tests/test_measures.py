import math

import numpy as np
import pytest

from possinfo import (
    DiscreteDistribution,
    JointDistribution,
    OrderViolationError,
    PiecewisePossibility,
    Tau,
    big_g,
    big_h,
    big_k,
    extend,
    g_distance,
    info_tau,
    join,
    marginals,
    max_uncertain,
    meet,
    min_product,
    permute,
    u_uncertainty,
)
from possinfo.measures import _log_weights, _u_of_descending, _u_of_rows

from conftest import (
    random_distribution,
    random_normalized_values,
    random_tau,
    u_by_level_counts,
)

LN2 = math.log(2.0)


def D(*values):
    return DiscreteDistribution(tuple(f"x{i}" for i in range(len(values))), values)


class TestUUncertainty:
    def test_all_ones_is_ln_n(self):
        assert u_uncertainty(D(1, 1, 1, 1)) == pytest.approx(math.log(4), abs=1e-12)

    def test_crisp_is_zero(self):
        assert u_uncertainty(D(1, 0, 0)) == 0.0

    def test_linear_ramp_is_ln_factorial_over_n(self):
        # the staircase (1, 3/4, 1/2, 1/4) telescopes to ln(4!)/4
        assert u_uncertainty(D(1, 0.75, 0.5, 0.25)) == pytest.approx(
            math.log(24) / 4, abs=1e-12
        )

    def test_two_point(self):
        assert u_uncertainty(D(1, 0.5)) == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_singleton(self):
        assert u_uncertainty(D(0.7)) == 0.0

    def test_row_kernel_bit_identical_to_u_uncertainty(self, rng):
        # the solvers and the grid oracle score many rows at once; a batched
        # row must give exactly the bits of the same values passed alone
        for n in (1, 2, 3, 5, 8, 17, 100, 1000):
            rows = rng.uniform(0.0, 1.0, (40, n))
            rows[:, int(rng.integers(n))] = 1.0
            single = [u_uncertainty(D(*r)) for r in rows]
            assert _u_of_rows(rows).tobytes() == np.array(single).tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_rows_match_row_by_row(self, n, rng):
        # the vertex search scores many patterns' points in one stack; n = 2
        # leaves one column in the reversed slice the weights multiply
        magnitudes = 10.0 ** rng.integers(-300, 301, (200, n))
        rows = rng.uniform(0.0, 1.0, (200, n)) * magnitudes
        rows[rng.random((200, n)) < 0.2] = 0.0
        rows[rng.random((200, n)) < 0.2] = -0.0
        rows[:3] = [[1e-300] * n, [1e300] * n, [-0.0] * n]
        single = np.array([_u_of_rows(row) for row in rows])
        assert _u_of_rows(rows).tobytes() == single.tobytes()
        for start, stop in rng.integers(0, 201, (20, 2)):
            assert _u_of_rows(rows[start:stop]).tobytes() == single[start:stop].tobytes()

    def test_weight_table_is_a_bitwise_prefix_for_every_n(self):
        # one table grown to the largest n serves every smaller n bit for bit
        big = _log_weights(2**20)
        assert big.size == 2**20 - 1
        rng = np.random.default_rng(20261018)
        ks = [0, 1, *range(2, 4097), *rng.integers(4097, 2**20 + 1, 50).tolist()]
        for k in ks:
            expected = np.diff(np.log(np.arange(1, k + 1)))
            assert _log_weights(k).tobytes() == expected.tobytes()
        assert _log_weights(0).size == _log_weights(1).size == 0
        # asking for a smaller n later never shrinks the table
        _log_weights(3)
        assert np.shares_memory(_log_weights(2**20), big)
        assert not _log_weights(10).flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            _log_weights(10)[0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 10**4, 10**6])
    def test_descending_row_is_one_sequential_sum_in_every_layout(self, n):
        # the weight table's negative stride keeps U off BLAS: every layout of a
        # row gives the bits of s += p_(i) * w_i for i = 2..n; a contiguous
        # weight view would let BLAS reorder the sum
        def loop(p):
            s = 0.0
            for v, w in zip(p[1:].tolist(), _log_weights(n).tolist()):
                s += v * w
            return s.hex()

        rng = np.random.default_rng(20261022 + n)
        row = np.sort(rng.uniform(0.0, 1.0, n))[::-1].copy()
        expected = loop(row)
        fortran = np.asfortranarray(np.stack([row * 0.5, row, row]))
        stack = np.empty((2, 3, n))
        stack[...] = row
        layouts = {
            "C-contiguous": row,
            "reversed ascending": np.sort(row)[::-1],
            "stride 2": np.repeat(row, 2)[::2],
            "Fortran-order stack row": fortran[1],
            "3-D stack row": stack[1, 2],
        }
        for name, p in layouts.items():
            assert float(_u_of_descending(p)).hex() == expected, name
        constant = np.broadcast_to(rng.uniform(), n)  # a stride-0 row
        assert constant.strides == (0,)
        assert float(_u_of_descending(constant)).hex() == loop(constant)
        # whole stacks score every row with the same bits, a stride-0 one too
        assert [u.hex() for u in _u_of_descending(fortran[1:]).tolist()] == [expected] * 2
        assert [u.hex() for u in _u_of_descending(np.broadcast_to(row, (3, n))).tolist()] == [expected] * 3
        assert _u_of_descending(stack).tobytes() == np.full((2, 3), float.fromhex(expected)).tobytes()

    def test_matches_level_count_integral(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 8))
            vals = rng.uniform(0, 1, n).tolist()
            assert u_uncertainty(D(*vals)) == pytest.approx(
                u_by_level_counts(vals), abs=1e-12
            )

    def test_bounds(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            vals = rng.uniform(0, 1, n)
            u = u_uncertainty(D(*vals.tolist()))
            assert -1e-15 <= u <= vals.max() * math.log(n) + 1e-12

    def test_monotone_in_pointwise_order(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            lo = rng.uniform(0, 1, n)
            hi = np.minimum(lo + rng.uniform(0, 1, n) * (1 - lo), 1.0)
            assert u_uncertainty(D(*lo.tolist())) <= u_uncertainty(D(*hi.tolist())) + 1e-12

    def test_tie_order_independent(self):
        a = u_uncertainty(D(1.0, 0.5, 0.5, 0.2))
        b = u_uncertainty(D(0.5, 1.0, 0.2, 0.5))
        assert a == b

    def test_subadditive_on_joints(self, rng):
        for _ in range(300):
            r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            grid = rng.uniform(0, 1, (r, c))
            j = JointDistribution(
                tuple(f"r{i}" for i in range(r)),
                tuple(f"c{i}" for i in range(c)),
                grid.tolist(),
            )
            m1, m2 = marginals(j)
            assert u_uncertainty(j) <= u_uncertainty(m1) + u_uncertainty(m2) + 1e-12

    def test_additive_on_min_products(self, rng):
        for _ in range(300):
            d1 = random_distribution(rng, int(rng.integers(1, 6)))
            d2 = random_distribution(rng, int(rng.integers(1, 6)))
            lhs = u_uncertainty(min_product(d1, d2))
            rhs = u_uncertainty(d1) + u_uncertainty(d2)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


class TestTau:
    def test_endpoints_required(self):
        with pytest.raises(ValueError):
            Tau([(0.0, 0.0), (1.0, 0.9)])
        with pytest.raises(ValueError):
            Tau([(0.1, 0.0), (1.0, 1.0)])

    def test_monotone_required(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            Tau([(0.0, 0.0), (0.4, 0.8), (0.6, 0.5), (1.0, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            Tau([(0.0, 0.0), (0.5, 0.2), (0.5, 0.4), (1.0, 1.0)])

    @pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_breakpoint_rejected(self, point):
        # a NaN value fails the curve's [0, 1] range check before any tau rule
        if math.isnan(point[0]):
            message = "increasing|nondecreasing"
        else:
            message = r"^value at breakpoint 1 outside \[0, 1\]: nan$"
        with pytest.raises(ValueError, match=message):
            Tau([(0.0, 0.0), point, (1.0, 1.0)])

    def test_is_the_curve_of_its_points_but_never_equal_to_it(self):
        points = [(0.0, 0.0), (0.3, 0.1), (0.7, 0.7), (1.0, 1.0)]
        tau, curve = Tau(points), PiecewisePossibility(points)
        grid = np.concatenate((np.linspace(0.0, 1.0, 1001), [0.3, 0.7, 1.0 / 3.0]))
        assert np.array_equal(tau(grid), curve(grid))
        assert tau.points == curve.points
        assert tau != curve and curve != tau

    def test_from_function_tabulates_each_point(self):
        ts = np.linspace(0.0, 1.0, 101)
        tau = Tau.from_function(lambda t: t * t, 101)
        assert tau.ts.tolist() == ts.tolist()
        assert tau.taus.tolist() == [float(t * t) for t in ts]

    def test_identity_reduces_to_u(self, rng):
        ident = Tau.identity()
        for _ in range(100):
            d = random_distribution(rng, int(rng.integers(1, 7)), normalized=False)
            assert info_tau(d, ident) == u_uncertainty(d)

    def test_is_u_of_the_tau_values_bit_for_bit(self, rng):
        for i in range(2000):
            tau = random_tau(rng)
            if i % 2:
                r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                rows, cols = tuple(f"r{k}" for k in range(r)), tuple(f"c{k}" for k in range(c))
                d = JointDistribution(rows, cols, rng.uniform(0, 1, (r, c)).tolist())
                deformed = JointDistribution(rows, cols, tau(d.as_array()).tolist())
            else:
                d = random_distribution(rng, int(rng.integers(1, 9)), normalized=False)
                deformed = DiscreteDistribution(d.labels, tau(d.as_array()).tolist())
            assert info_tau(d, tau) == u_uncertainty(deformed)

    def test_tau_rising_across_a_segment_narrower_than_one_over_max_float(self):
        # tau(5e-311) = 1/2 halfway up a rise of width 1e-310, so I = ln 2 / 2
        tau = Tau([(0.0, 0.0), (1e-310, 1.0), (1.0, 1.0)])
        assert info_tau(D(1.0, 5e-311), tau) == pytest.approx(0.5 * LN2, rel=1e-12)

    def test_square_deformation_example(self):
        tau = Tau.from_function(lambda t: t * t, 1001)
        got = info_tau(D(1, 0.5), tau)
        assert got == pytest.approx(0.25 * LN2, abs=1e-6)

    def test_additivity_with_random_tau(self, rng):
        for _ in range(200):
            tau = random_tau(rng)
            d1 = random_distribution(rng, int(rng.integers(1, 5)))
            d2 = random_distribution(rng, int(rng.integers(1, 5)))
            lhs = info_tau(min_product(d1, d2), tau)
            rhs = info_tau(d1, tau) + info_tau(d2, tau)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_symmetry_and_expansibility_with_random_tau(self, rng):
        for _ in range(200):
            tau = random_tau(rng)
            n = int(rng.integers(1, 6))
            d = random_distribution(rng, n)
            s = tuple(rng.permutation(n).tolist())
            assert info_tau(permute(d, s), tau) == pytest.approx(
                info_tau(d, tau), abs=1e-12
            )
            padded = extend(d, d.labels + ("pad1", "pad2"))
            assert info_tau(padded, tau) == pytest.approx(info_tau(d, tau), abs=1e-9)


class TestGDistance:
    def test_difference_of_u(self):
        lower, upper = D(1, 0.5), D(1, 0.8)
        assert g_distance(lower, upper) == pytest.approx(0.3 * LN2, abs=1e-12)

    def test_zero_on_equal(self):
        d = D(1, 0.5, 0.2)
        assert g_distance(d, d) == 0.0

    def test_order_violation_names_first_label(self):
        with pytest.raises(OrderViolationError, match="'x1'"):
            g_distance(D(1, 0.8), D(1, 0.5))

    def test_nonnegative(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            lo = rng.uniform(0, 1, n)
            hi = lo + rng.uniform(0, 1, n) * (1 - lo)
            assert g_distance(D(*lo.tolist()), D(*hi.tolist())) >= -1e-15


class TestWorkedDistanceTriple:
    # join (1, 1, 0.5) has U = ln 2 + 0.5 ln(3/2); meet (0.5, 0.5, 0) has
    # U = 0.5 ln 2; the three distances follow by the lattice formulas
    d1 = D(1.0, 0.5, 0.0)
    d2 = D(0.5, 1.0, 0.5)
    u_join = LN2 + 0.5 * math.log(1.5)
    u_d1 = 0.5 * LN2
    u_d2 = 0.5 * LN2 + 0.5 * math.log(1.5)
    u_meet = 0.5 * LN2

    def test_big_g(self):
        expected = (self.u_join - self.u_d1) + (self.u_join - self.u_d2)
        assert big_g(self.d1, self.d2) == pytest.approx(expected, abs=1e-12)
        assert big_g(self.d1, self.d2) == pytest.approx(0.895880, abs=5e-7)

    def test_big_k(self):
        assert big_k(self.d1, self.d2) == pytest.approx(self.u_join - self.u_d1, abs=1e-12)
        assert big_k(self.d1, self.d2) == pytest.approx(0.549306, abs=5e-7)

    def test_big_h(self):
        expected = (self.u_d1 - self.u_meet) + (self.u_d2 - self.u_meet)
        assert big_h(self.d1, self.d2) == pytest.approx(expected, abs=1e-12)
        assert big_h(self.d1, self.d2) == pytest.approx(0.202733, abs=5e-7)

    def test_all_zero_on_equal(self):
        d = D(1, 0.3, 0.6)
        assert big_g(d, d) == 0.0 and big_h(d, d) == 0.0 and big_k(d, d) == 0.0


class TestMetricAxioms:
    def test_axioms_on_random_triples(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 7))
            a = D(*random_normalized_values(rng, n, grid=100))
            b = D(*random_normalized_values(rng, n, grid=100))
            c = D(*random_normalized_values(rng, n, grid=100))
            for dist in (big_g, big_k):
                dab, dba = dist(a, b), dist(b, a)
                assert dab >= -1e-15
                assert dab == pytest.approx(dba, abs=1e-12)
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
                if a.values != b.values:
                    assert dab > 1e-9
                else:
                    assert dab == 0.0

    def test_g_dominates_k_and_h_nonneg(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            a = random_distribution(rng, n, labels=tuple(f"x{i}" for i in range(n)))
            b = random_distribution(rng, n, labels=tuple(f"x{i}" for i in range(n)))
            assert big_g(a, b) >= big_k(a, b) - 1e-12 >= -1e-12
            assert big_g(a, b) >= -1e-15 and big_h(a, b) >= -1e-15

    def test_h_can_exceed_g(self):
        # no order relation between the join-based and meet-based
        # distances: when two normalized assignments agree on a large
        # middle value but disagree at the top, the meet collapses and H
        # outgrows G
        a = D(1.0, 0.99, 0.0)
        b = D(0.0, 0.99, 1.0)
        g_val, h_val = big_g(a, b), big_h(a, b)
        assert h_val > g_val + 0.5
        assert g_val == pytest.approx(2 * (LN2 + 0.99 * math.log(1.5)) - 2 * 0.99 * LN2, abs=1e-12)
        assert h_val == pytest.approx(2 * 0.99 * LN2, abs=1e-12)


class TestHAdditivity:
    @staticmethod
    def _consistent_pair(rng, n):
        # a shared argmax keeps the meet normalized
        k = int(rng.integers(n))
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        a[k] = b[k] = 1.0
        return D(*a.tolist()), D(*b.tolist())

    def test_additive_over_min_products_for_consistent_pairs(self, rng):
        for _ in range(300):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p1, r1 = self._consistent_pair(rng, n1)
            p2, r2 = self._consistent_pair(rng, n2)
            lhs = big_h(
                min_product(p1, p2).flatten(), min_product(r1, r2).flatten()
            )
            rhs = big_h(p1, r1) + big_h(p2, r2)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    def test_additivity_needs_normalized_meets(self):
        # counterexample: all four factors are normalized but the meets
        # are subnormal with different heights, and additivity fails;
        # the identity is only claimed when both meets stay normalized
        p1, r1 = D(1.0, 0.5), D(0.5, 1.0)
        p2, r2 = D(1.0, 0.9), D(0.9, 1.0)
        lhs = big_h(min_product(p1, p2).flatten(), min_product(r1, r2).flatten())
        rhs = big_h(p1, r1) + big_h(p2, r2)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert lhs == pytest.approx(0.8 * LN2, abs=1e-12)
        assert abs(lhs - rhs) > 0.5


class TestInformationForm:
    def test_superadditive_for_discrete_joints(self, rng):
        # the information value ln n - U flips U-subadditivity: a joint
        # carries at least the information of its marginals combined
        for _ in range(200):
            r, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            joint = JointDistribution(
                tuple(f"r{i}" for i in range(r)),
                tuple(f"c{i}" for i in range(c)),
                rng.uniform(0, 1, (r, c)).tolist(),
            )
            m1, m2 = marginals(joint)
            i_joint = math.log(r * c) - u_uncertainty(joint)
            i_marg = (math.log(r) - u_uncertainty(m1)) + (math.log(c) - u_uncertainty(m2))
            assert i_joint >= i_marg - 1e-12


class TestDeformedDistances:
    def test_triangle_and_symmetry_pull_back_through_any_tau(self, rng):
        for _ in range(150):
            tau = random_tau(rng)
            n = int(rng.integers(2, 6))
            a = D(*random_normalized_values(rng, n))
            b = D(*random_normalized_values(rng, n))
            c = D(*random_normalized_values(rng, n))
            for dist in (big_g, big_k):
                assert dist(a, b, tau=tau) == pytest.approx(dist(b, a, tau=tau), abs=1e-12)
                assert dist(a, c, tau=tau) <= dist(a, b, tau=tau) + dist(b, c, tau=tau) + 1e-9

    def test_indiscernibility_for_strictly_increasing_tau(self, rng):
        tau = Tau([(0.0, 0.0), (0.3, 0.1), (1.0, 1.0)])
        assert tau.is_strictly_increasing()
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = D(*random_normalized_values(rng, n, grid=50))
            b = D(*random_normalized_values(rng, n, grid=50))
            if a.values != b.values:
                assert big_g(a, b, tau=tau) > 1e-9

    def test_flat_tau_can_collapse_distinct_points(self):
        # distances under a non-strict deformation are experimental: a
        # flat stretch hides differences inside it
        tau = Tau([(0.0, 0.0), (0.4, 0.0), (1.0, 1.0)])
        a, b = D(1.0, 0.1), D(1.0, 0.3)
        assert big_g(a, b, tau=tau) == 0.0


class TestMaxUncertain:
    def test_singleton(self):
        d = max_uncertain(1)
        assert d.values == (1.0,) and u_uncertainty(d) == 0.0

    def test_four(self):
        d = max_uncertain(4)
        assert d.values == (1.0, 1.0, 1.0, 1.0)
        assert u_uncertainty(d) == pytest.approx(math.log(4), abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            max_uncertain(0)

    def test_upper_bounds_all_normalized(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            d = random_distribution(rng, n)
            assert u_uncertainty(d) <= math.log(n) + 1e-12

    def test_lattice_invariance_under_permutation(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            labels = tuple(f"x{i}" for i in range(n))
            d1 = random_distribution(rng, n, labels=labels)
            d2 = random_distribution(rng, n, labels=labels)
            s = tuple(rng.permutation(n).tolist())
            assert u_uncertainty(meet(permute(d1, s), permute(d2, s))) == pytest.approx(
                u_uncertainty(meet(d1, d2)), abs=1e-12
            )
            assert u_uncertainty(join(permute(d1, s), permute(d2, s))) == pytest.approx(
                u_uncertainty(join(d1, d2)), abs=1e-12
            )
