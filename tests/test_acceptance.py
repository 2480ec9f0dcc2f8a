"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned here, nothing is calibrated later.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import possinfo as pi

from conftest import info_of_descending, random_normalized_values, random_piecewise, random_tau

LN2 = math.log(2.0)


@contextlib.contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def test_criterion_1_harmonic_number_law():
    with verdict("criterion 1: info(x^n) equals the n-th harmonic number"):
        start = time.perf_counter()
        errors = []
        for n in range(1, 6):
            f = pi.sample_function(lambda x, n=n: x**n, 10_000)
            errors.append(abs(pi.info(f) - harmonic(n)))
        elapsed = time.perf_counter() - start
        assert max(errors) < 1e-3, f"max error {max(errors):.2e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_rearrangement_examples():
    with verdict("criterion 2: rearrangement of the tent and the parabola"):
        tent = pi.PiecewisePossibility([(0, 0), (0.5, 1), (1, 0)])
        ft = pi.rearrange(pi.level_measure(tent))
        xs = np.linspace(0, 1, 10_001)
        assert np.abs(ft(xs) - (1 - xs)).max() <= 1e-12

        parab = pi.sample_function(lambda x: 4 * (x - 0.5) ** 2, 1001)
        fp = pi.rearrange(pi.level_measure(parab))
        assert np.abs(fp(xs) - (1 - xs) ** 2).max() <= 2e-3


def test_criterion_3_stirling_convergence():
    with verdict("criterion 3: Stirling limit and the exact ln(n!)/n identity"):
        ramp = pi.PiecewisePossibility([(0, 1), (1, 0)])
        assert abs(pi.approx_info(ramp, 1000) - 1.0) < 0.005
        for n in range(1, 21):
            u = pi.u_uncertainty(pi.discretize(ramp, n))
            assert abs(u - math.log(math.factorial(n)) / n) <= 1e-12


def test_criterion_4_continuous_additivity(rng):
    with verdict("criterion 4: level-measure products add their information"):
        ramp_level = pi.level_measure(pi.PiecewisePossibility([(0, 1), (1, 0)]))
        doubled = pi.info_from_level(pi.product_level(ramp_level, ramp_level))
        assert abs(doubled - 2.0) <= 1e-6
        for _ in range(100):
            level = pi.level_measure(random_piecewise(rng))
            lhs = pi.info_from_level(pi.product_level(level, level))
            rhs = 2.0 * pi.info_from_level(level)
            assert abs(lhs - rhs) <= 1e-6


def test_criterion_5_discrete_additivity_subadditivity(rng):
    with verdict("criterion 5: U additive on products, subadditive on joints"):
        for _ in range(1000):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            d1 = pi.DiscreteDistribution(
                tuple(f"x{i}" for i in range(n1)), random_normalized_values(rng, n1)
            )
            d2 = pi.DiscreteDistribution(
                tuple(f"y{i}" for i in range(n2)), random_normalized_values(rng, n2)
            )
            lhs = pi.u_uncertainty(pi.min_product(d1, d2))
            rhs = pi.u_uncertainty(d1) + pi.u_uncertainty(d2)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
        for _ in range(1000):
            r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            joint = pi.JointDistribution(
                tuple(f"r{i}" for i in range(r)),
                tuple(f"c{i}" for i in range(c)),
                rng.uniform(0, 1, (r, c)).tolist(),
            )
            m1, m2 = pi.marginals(joint)
            assert pi.u_uncertainty(joint) <= (
                pi.u_uncertainty(m1) + pi.u_uncertainty(m2) + 1e-12
            )


def test_criterion_6_metric_axioms_and_h_additivity(rng):
    with verdict("criterion 6: G and K are metrics; H adds over min-products"):
        for _ in range(10_000):
            n = int(rng.integers(2, 7))
            labels = tuple(f"x{i}" for i in range(n))
            a = pi.DiscreteDistribution(labels, random_normalized_values(rng, n, grid=100))
            b = pi.DiscreteDistribution(labels, random_normalized_values(rng, n, grid=100))
            c = pi.DiscreteDistribution(labels, random_normalized_values(rng, n, grid=100))
            for dist in (pi.big_g, pi.big_k):
                dab = dist(a, b)
                assert dab >= -1e-15
                assert abs(dab - dist(b, a)) <= 1e-9
                assert dist(a, c) <= dab + dist(b, c) + 1e-9
                if a.values == b.values:
                    assert dab == 0.0
                else:
                    assert dab > 1e-9
        # H additivity holds when each pair's meet stays normalized
        # (shared argmax); without that the identity provably fails, see
        # tests/test_measures.py::TestHAdditivity
        for _ in range(1000):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))

            def consistent_pair(n):
                k = int(rng.integers(n))
                u = rng.uniform(0, 1, n)
                v = rng.uniform(0, 1, n)
                u[k] = v[k] = 1.0
                labels = tuple(f"x{i}" for i in range(n))
                return (
                    pi.DiscreteDistribution(labels, u.tolist()),
                    pi.DiscreteDistribution(labels, v.tolist()),
                )

            p1, r1 = consistent_pair(n1)
            p2, r2 = consistent_pair(n2)
            lhs = pi.big_h(
                pi.min_product(p1, p2).flatten(), pi.min_product(r1, r2).flatten()
            )
            rhs = pi.big_h(p1, r1) + pi.big_h(p2, r2)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_criterion_7_information_axiom_suite(rng):
    with verdict("criterion 7: deformed information family axioms"):
        taus = [random_tau(rng) for _ in range(20)]
        for case in range(1000):
            tau = taus[case % 20]
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            d1 = pi.DiscreteDistribution(
                tuple(f"x{i}" for i in range(n1)), random_normalized_values(rng, n1)
            )
            d2 = pi.DiscreteDistribution(
                tuple(f"y{i}" for i in range(n2)), random_normalized_values(rng, n2)
            )
            lhs = pi.info_tau(pi.min_product(d1, d2), tau)
            assert abs(lhs - pi.info_tau(d1, tau) - pi.info_tau(d2, tau)) <= 1e-9
        for case in range(1000):
            tau = taus[case % 20]
            n = int(rng.integers(1, 7))
            d = pi.DiscreteDistribution(
                tuple(f"x{i}" for i in range(n)), random_normalized_values(rng, n)
            )
            s = tuple(rng.permutation(n).tolist())
            assert abs(pi.info_tau(pi.permute(d, s), tau) - pi.info_tau(d, tau)) <= 1e-9
        for case in range(1000):
            tau = taus[case % 20]
            n = int(rng.integers(1, 7))
            d = pi.DiscreteDistribution(
                tuple(f"x{i}" for i in range(n)), random_normalized_values(rng, n)
            )
            pad = tuple(f"pad{i}" for i in range(int(rng.integers(1, 4))))
            assert abs(pi.info_tau(pi.extend(d, d.labels + pad), tau) - pi.info_tau(d, tau)) <= 1e-9


def _random_feasible_problem(rng, objective_kind):
    """Grid-friendly random constraint set with a known feasible witness.

    Coefficients and the witness live on the 0.1 grid and inequality
    bounds carry slack, so the 0.01/0.02 oracle grids contain
    near-optimal points and the Lipschitz gap bound is meaningful.
    """
    n = int(rng.integers(2, 4))
    labels = tuple(f"x{i}" for i in range(n))
    witness = rng.integers(0, 11, n) / 10.0
    witness[int(rng.integers(n))] = 1.0
    constraints = []
    for _ in range(int(rng.integers(1, 3))):
        kind = rng.choice(["<=", ">=", "=", "skip"])
        if kind == "skip":
            continue
        if kind == "=":
            i = int(rng.integers(n))
            coeffs = [0.0] * n
            coeffs[i] = 1.0
            constraints.append(pi.LinearConstraint(tuple(coeffs), "=", float(witness[i])))
            continue
        coeffs = rng.integers(-10, 11, n) / 10.0
        if not np.any(coeffs):
            coeffs[0] = 1.0
        bound = float(coeffs @ witness) + (0.1 if kind == "<=" else -0.1)
        constraints.append(pi.LinearConstraint(tuple(coeffs), kind, bound))
    if objective_kind == "max_u":
        objective = pi.MaxU()
    else:
        prior_vals = rng.integers(0, 11, n) / 10.0
        prior_vals[int(rng.integers(n))] = 1.0
        prior = pi.DiscreteDistribution(labels, prior_vals.tolist())
        metric = "G" if rng.integers(2) else "K"
        objective = pi.MinDistance(prior, metric)
    return pi.InferenceProblem(labels, tuple(constraints), objective)


def test_criterion_8_inference_matches_oracle(rng):
    with verdict("criterion 8: solvers track the exhaustive grid oracle"):
        unconstrained = pi.solve_max_u(
            pi.InferenceProblem(("a", "b", "c"), (), pi.MaxU())
        )
        assert unconstrained.distribution.values == (1.0, 1.0, 1.0)

        checked = 0
        while checked < 200:
            prob = _random_feasible_problem(rng, "max_u")
            try:
                sol = pi.solve_max_u(prob)
                oracle = pi.brute_force_oracle(prob, 0.01)
            except pi.InfeasibleProblemError:
                continue
            n = len(prob.labels)
            gap = math.log(n) * 0.01 * n
            assert abs(sol.objective_value - oracle.objective_value) <= gap
            checked += 1

        checked = 0
        while checked < 200:
            prob = _random_feasible_problem(rng, "min_distance")
            try:
                sol = pi.solve_min_distance(prob)
                oracle = pi.brute_force_oracle(prob, 0.02)
            except pi.InfeasibleProblemError:
                continue
            n = len(prob.labels)
            gap = 2.0 * math.log(n) * 0.02 * n  # G and K are 2 ln(n)-Lipschitz
            assert abs(sol.objective_value - oracle.objective_value) <= gap
            checked += 1


def test_criterion_9_dual_path_oracle_agreement(rng):
    with verdict("criterion 9: x-domain and y-domain information paths agree"):
        for _ in range(500):
            f = random_piecewise(rng)
            a = info_of_descending(pi.rearrange(pi.level_measure(f)))
            b = pi.info_from_level(pi.level_measure(f))
            assert abs(a - b) <= 1e-6
