import itertools
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from possinfo import (
    DiscreteDistribution,
    InfeasibleProblemError,
    InferenceProblem,
    LinearConstraint,
    MaxU,
    MinDistance,
    big_g,
    big_k,
    brute_force_oracle,
    max_uncertain,
    solve_max_u,
    solve_min_distance,
    u_uncertainty,
)
import possinfo.inference as inference
from possinfo.inference import (
    _dyadic,
    _float_pass,
    _grid,
    _patterns,
    _position_weights,
    _solve_integer,
    _stacks,
    _system,
    _VertexSearch,
    _ViolationSearch,
)
from possinfo.measures import _log_weights
from simplex import feasible_point, solve_lp

from conftest import (
    _base_rows,
    _max_u_vertices,
    _region_vertices,
    candidates_by_pattern,
    exact_points_by_fractions,
    exact_score_by_fractions,
    max_u_by_orderings,
    min_distance_by_descent,
    violation_by_arrangement,
    violation_score_by_fractions,
)
from test_solver_answers import ANSWERS, answer, answer_problems, answers

LN2 = math.log(2.0)


class TestSimplex:
    def test_basic_max(self):
        r = solve_lp(2, [3, 2], [([1, 1], "<=", 4), ([1, 3], "<=", 6)])
        assert r.status == "optimal"
        assert r.x == (Fraction(4), Fraction(0)) and r.objective == 12

    def test_equality_rows_hold_through_phase_two(self):
        # a degenerate pivot must not let the equality drift
        rows = [([1, 1], "=", 1.5), ([1, 0], "<=", 1), ([0, 1], "<=", 1),
                ([1, -1], ">=", 0), ([1, 0], "=", 1)]
        r = solve_lp(2, [0, LN2], rows)
        assert r.status == "optimal"
        assert r.x == (Fraction(1), Fraction(1, 2))

    def test_infeasible_with_violation(self):
        r = solve_lp(2, [1, 1], [([1, 0], ">=", 2), ([1, 0], "<=", 1)])
        assert r.status == "infeasible"
        assert r.violation == 1

    def test_unbounded(self):
        assert solve_lp(1, [1], [([1], ">=", 0)]).status == "unbounded"

    def test_minimization(self):
        r = solve_lp(2, [1, 2], [([1, 1], ">=", 1), ([1, 0], "<=", 1), ([0, 1], "<=", 1)],
                     maximize=False)
        assert r.status == "optimal" and r.objective == 1

    def test_exactness_with_fraction_data(self):
        r = solve_lp(2, [Fraction(1, 3), Fraction(1, 7)], [([1, 1], "<=", Fraction(1, 2))])
        assert r.objective == Fraction(1, 6)

    def test_feasible_point_helper(self):
        assert feasible_point(2, [([1, 1], "=", 1)]).status == "optimal"
        assert feasible_point(1, [([1], ">=", 2), ([1], "<=", 1)]).status == "infeasible"


def problem(labels, constraints, objective=None, normalized=True):
    return InferenceProblem(labels, constraints, objective or MaxU(), normalized)


def tight_row_problem(metric):
    # the former coordinate descent stopped short here: its moves could not
    # slide along the first row, which is tight at the optimum
    labels = ("x0", "x1", "x2", "x3")
    cons = (LinearConstraint((1, -0.2, 0.5, 0.5), "<=", 0.9),
            LinearConstraint((-0.9, 0.2, 0.7, 0.5), ">=", -5.55e-17))
    prior = DiscreteDistribution(labels, (0.8, 0.4, 1.0, 0.5))
    return problem(labels, cons, MinDistance(prior, metric), normalized=False)


# two-label rows whose numbers span the float range, with the maximum-U answer
EXTREME_ROWS = [
    (LinearConstraint((1e308, 1e308), "<=", 1e308), (1.0, 0.0)),
    (LinearConstraint((1e308, -1e308), ">=", -1e308), (1.0, 1.0)),
    (LinearConstraint((1e-300, 1.0), "<=", 1.0), (1.0, 1.0)),
    (LinearConstraint((1e-320, 1.0), "<=", 1.0), (1.0, 1.0)),
    (LinearConstraint((5e-324, 1.0), "<=", 0.5), (1.0, 0.5)),
    # exactly feasible optima that a float recheck at 1e-7 absolute tolerance rejected
    (LinearConstraint((2e300, 1e300), "=", 2e300 + 1e300 * 1 / 10), (0.55, 1.0)),
    (LinearConstraint((3e300, 7e300), "=", 3e300 + 7e300 * 7 / 10), (1.0, 0.7000000000000001)),
]

# (rows, lexicographically largest minimizer of the summed violation, its value)
INFEASIBLE_ROWS = [
    pytest.param((((1, 0), ">=", 0.8), ((1, 0), "<=", 0.3)), (0.8, 1.0), 0.5, id="two_labels"),
    # least on all of [0.8, 0.9]; a "<=" row whose bound the origin meets is not held hard
    pytest.param((((1,), "<=", 0.5), ((1,), ">=", 0.8), ((1,), ">=", 0.9)), (0.9,), 0.4,
                 id="one_label_le"),
    pytest.param((((-1,), ">=", -0.5), ((1,), ">=", 0.8), ((1,), ">=", 0.9)), (0.9,), 0.4,
                 id="one_label_ge"),
    pytest.param((((1, 0), ">=", 1.5e308), ((0, 1), ">=", 1.6e308)), (1.0, 1.0), math.inf,
                 id="beyond_float_range"),
    # rows far apart in scale: their per-row shifts and the common scale differ most
    pytest.param((((1e-200, 0), "<=", 1e-201), ((0, 1e200), ">=", 5e199),
                  ((1e-200, 1e-200), ">=", 1.5e-200), ((1, 1), "<=", 0.3)), (0.0, 0.5), 0.2,
                 id="mixed_scales"),
    pytest.param((((3e-310, 0), ">=", 5e-310), ((1, 1), "<=", 0.1)), (0.1, 0.0), 4.7e-310,
                 id="subnormal_row"),
]

NAMES = {"<=": "le", ">=": "ge", "=": "eq"}

# rows (coefficients, bound) with points of the quarter grid on them and on
# either side; the second pair spans 900 binary orders
ROW_PAIRS = [
    pytest.param(((3, -1), 0.5), ((1, 2), 1.5), id="unit_scale"),
    pytest.param(((3 * 2.0**-600, -(2.0**-600)), 0.5 * 2.0**-600),
                 ((2.0**300, 2.0**301), 1.5 * 2.0**300), id="far_scales"),
]


def exactly_feasible(values, constraint):
    """Whether values satisfy the row in rationals, up to 1e-12 of its largest number."""
    lhs = sum(Fraction(a) * Fraction(v) for a, v in zip(constraint.coefficients, values))
    excess = (lhs - Fraction(constraint.bound)) / max(map(abs, constraint.coefficients))
    slack = {"<=": excess, ">=": -excess, "=": abs(excess)}[constraint.relation]
    return slack <= 1e-12 and all(0.0 <= v <= 1.0 for v in values)


def random_min_distance_problem(rng, metric, normalized):
    """0-3 rows on the 0.1 grid around a feasible witness, as in criterion 8.

    Most problems have 2 labels: at 4 labels the descent and the 0.02 grid
    oracle each take about half a second.
    """
    n = int(rng.choice([2, 3, 4], p=[0.9, 0.09, 0.01]))
    labels = tuple(f"x{i}" for i in range(n))
    witness = rng.integers(0, 11, n) / 10.0
    witness[rng.integers(n)] = 1.0
    cons = []
    for _ in range(int(rng.integers(0, 4))):
        rel = str(rng.choice(["<=", ">=", "="]))
        if rel == "=":
            i = int(rng.integers(n))
            cons.append(LinearConstraint(tuple(float(j == i) for j in range(n)), "=", witness[i]))
            continue
        c = rng.integers(-10, 11, n) / 10.0
        if not np.any(c):
            c[0] = 1.0
        bound = float(c @ witness) + (0.1 if rel == "<=" else -0.1)
        cons.append(LinearConstraint(tuple(c), rel, bound))
    prior = rng.integers(0, 11, n) / 10.0
    prior[rng.integers(n)] = 1.0
    return problem(labels, tuple(cons), MinDistance(DiscreteDistribution(labels, prior), metric),
                   normalized)


def fraction_gauss(matrix, rhs):
    """(det M, X with M X = B) by Gaussian elimination on Fractions; X is None when singular."""
    k = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in b] for row, b in zip(matrix, rhs)]
    det = Fraction(1)
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(m[r][c]))
        if m[p][c] == 0:
            return 0, None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(k):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return det, [row[k:] for row in m]


def random_integer_system(gen, k):
    """A k x k integer matrix, small or up to 2**70, singular about a quarter of the time."""
    bound = 2 ** 70 if gen.random() < 0.3 else 5
    matrix = [[gen.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
    if gen.random() < 0.25:
        i, j = gen.randrange(k), gen.randrange(k)
        a, b = gen.randint(-3, 3), gen.randint(-3, 3)
        matrix[i] = [a * x + b * y for x, y in zip(matrix[j], matrix[(j + 1) % k])]
        if i in (j, (j + 1) % k):
            matrix[i] = [0] * k
    return matrix


class TestIntegerKernel:
    """The shared fraction-free elimination against plain elimination on Fractions."""

    def test_solve_integer_matches_fraction_elimination(self):
        gen = random.Random(20261018)
        singular = 0
        for _ in range(400):
            k, width = gen.randint(1, 6), gen.randint(0, 3)
            matrix = random_integer_system(gen, k)
            rhs = [[gen.randint(-2 ** 70, 2 ** 70) for _ in range(width)] for _ in range(k)]
            det, solution = fraction_gauss(matrix, rhs)
            got = _solve_integer([row[:] for row in matrix], rhs)
            if det == 0:
                assert got is None
                singular += 1
                continue
            numerators, den = got
            assert den == abs(det)
            assert [[Fraction(x, den) for x in row] for row in numerators] == solution
        assert 40 < singular < 200

    def test_system_picks_the_first_largest_determinant(self):
        gen = random.Random(7)
        lines = 0
        for _ in range(300):
            n, line = gen.randint(1, 6), gen.random() < 0.6
            groups = [[j] for j in range(n)]
            while len(groups) > 1 and gen.random() < 0.3:  # merge two groups into a tie
                g = groups.pop(gen.randrange(1, len(groups)))
                groups[gen.randrange(len(groups))] += g
            k = len(groups) - line
            rows = [(a, "<=", 0) for a in random_integer_system(gen, n)[:k]]
            chosen = tuple(range(k))
            got = _system(rows, groups, chosen, line)
            splits = ([(g, groups[:i] + groups[i + 1:]) for i, g in enumerate(groups)] if line
                      else [([], groups)])
            best = None
            for pivot, solved in splits:
                m = [[sum(a[j] for j in g) for g in solved] for a, _, _ in rows]
                det, inverse = fraction_gauss(m, [[int(i == j) for j in range(k)] for i in range(k)])
                if det and (best is None or abs(det) > best[2]):
                    best = (pivot, solved, abs(det), inverse)
            if best is None:
                assert got is None
                continue
            pivot, solved, inverse, den = got
            assert (pivot, solved, den) == best[:3]
            assert [[Fraction(x, den) for x in row] for row in inverse] == best[3]
            lines += line
        assert lines > 100


def _partitions(items):
    """Every split of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def filtered_patterns(n, m, line, normalized, ties):
    """The search's patterns as every split of ``_partitions``, filtered by its tie groups."""
    for size in range(line, n + (not normalized)):
        for free in itertools.combinations(range(n), size):
            for groups in _partitions(list(free)):
                if ties is None or sum(len(g) > 1 for g in groups) <= ties:
                    for chosen in itertools.combinations(range(m), len(groups) - line):
                        yield groups, chosen


class TestSearchParts:
    """The patterns, grids and pattern order of the vertex search against plain references."""

    @pytest.mark.parametrize("ties", [0, 1, None])
    def test_patterns_are_the_filtered_partitions(self, ties):
        def canonical(patterns):  # a pattern's groups in any order are the same pattern
            return sorted((sorted(map(tuple, groups)), chosen) for groups, chosen in patterns)

        for n, m, line, normalized in itertools.product(range(8), range(4), (False, True),
                                                        (False, True)):
            got = list(_patterns(n, m, line, normalized, ties))
            for groups, _ in got:  # groups and their members ascend
                assert all(g == sorted(g) for g in groups), groups
                assert [g[0] for g in groups] == sorted(g[0] for g in groups), groups
            expected = canonical(filtered_patterns(n, m, line, normalized, ties))
            assert canonical(got) == expected, (n, m, line, normalized)
        # 10 labels, 1 row, unnormalized, one tie group or none: one pattern per subset
        assert sum(1 for _ in _patterns(10, 1, False, False, 1)) == 2**10

    def test_grid_is_the_product_in_order(self):
        for values in ([0.5], [0.0, 1.0], [0.0, 0.3, 1.0], np.linspace(0.0, 1.0, 11).tolist()):
            for r in range(5):
                got = _grid(np.array(values), r)
                expected = np.array(list(itertools.product(values, repeat=r)), dtype=float)
                assert got.shape == (len(values) ** r, r) and got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("normalized", [False, True])
    def test_search_grid_keeps_the_products_that_reach_one(self, normalized):
        labels = tuple("abcd")
        prior = DiscreteDistribution(labels, (1.0, 0.3, 0.7, 0.3))
        search = _VertexSearch(problem(labels, (), MinDistance(prior, "G"), normalized))
        consts = [0.0, 0.3, 0.7, 1.0]
        assert search.consts.tolist() == consts
        for r in range(5):
            rows = [row for row in itertools.product(consts, repeat=r)
                    if not normalized or 1.0 in row]
            expected = np.array(rows, dtype=float).reshape(len(rows), r)
            assert search.grid(r).shape == expected.shape
            assert search.grid(r).tobytes() == expected.tobytes()

    def test_answers_do_not_depend_on_pattern_order(self, monkeypatch):
        # every candidate within 1e-9 of the best float score is rescored exactly
        expected = list(zip(*answers()))
        forward, rng = inference._patterns, random.Random(25)
        for order in (lambda ps: ps[::-1], lambda ps: rng.sample(ps, len(ps))):
            monkeypatch.setattr(inference, "_patterns", lambda *args: order(list(forward(*args))))
            assert [answer(p) for p in answer_problems()] == expected


def seeded_searches(extreme=True):
    """(search, ties) of the seeded answer problems and, when ``extreme``, the extreme rows."""
    problems = list(answer_problems())
    prior = DiscreteDistribution(("a", "b"), (1.0, 0.5))
    for row, _ in EXTREME_ROWS if extreme else ():
        problems += [problem(("a", "b"), (row,), objective) for objective
                     in (MaxU(), MinDistance(prior, "G"), MinDistance(prior, "K"))]
    for p in problems:
        max_u = isinstance(p.objective, MaxU)
        yield _VertexSearch(p), int(not p.require_normalized) if max_u else None


class TestStackedSearch:
    """The stacked float pass and the integer rescoring against their former forms."""

    def test_stacks_match_the_per_pattern_solve(self):
        lines = kinds = 0
        for search, ties in seeded_searches():
            got = {}
            for patterns, points in _stacks(search, ties):
                first = 0
                for groups, chosen, system, values in patterns:
                    rows = points[first:first + len(values)]
                    first += len(values)
                    if len(values):
                        got[bool(system[0]), str(groups), chosen] = (system, values, rows)
                assert first == len(points)
            expected = {}
            for line in (False, True) if search.metric == "K" else (False,):
                for groups, chosen in _patterns(search.n, len(search.rows), line,
                                                search.normalized, ties):
                    found = candidates_by_pattern(search, groups, chosen, line)
                    if found is not None and len(found[1]):
                        expected[line, str(groups), chosen] = found
            assert got.keys() == expected.keys()
            for key, (system, values, points) in expected.items():
                assert got[key][0] == system
                for a, b in zip(got[key][1:], (values, points)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
            lines += sum(line for line, _, _ in got)
            kinds += 1
        assert kinds == 321 and lines > 100

    def test_integer_rescoring_matches_fractions(self, monkeypatch):
        seen = {"vertex": 0, "line": 0, "score": 0, "violation": 0}
        points, score, violation = (_VertexSearch.exact_points, _VertexSearch.exact_score,
                                    _ViolationSearch.exact_score)

        def fractions(point):
            numerators, den = point
            return [Fraction(x, den) for x in numerators]

        def checked_points(search, groups, chosen, system, values):
            got = points(search, groups, chosen, system, values)
            expected = exact_points_by_fractions(search, groups, chosen, system, values)
            assert list(map(fractions, got)) == expected
            seen["line" if system[0] else "vertex"] += len(got)
            return got

        def checked_score(search, point):
            got = score(search, point)
            assert got == exact_score_by_fractions(search, fractions(point))
            seen["score"] += 1
            return got

        def checked_violation(search, point):
            got = violation(search, point)
            assert got == violation_score_by_fractions(search, fractions(point))
            seen["violation"] += 1
            return got

        monkeypatch.setattr(_VertexSearch, "exact_points", checked_points)
        monkeypatch.setattr(_VertexSearch, "exact_score", checked_score)
        monkeypatch.setattr(_ViolationSearch, "exact_score", checked_violation)
        for p in answer_problems():
            answer(p)
        assert min(seen.values()) > 10, seen

    def test_float_pass_makes_no_fractions(self, monkeypatch):
        searches = list(seeded_searches(extreme=False))

        def refuse(*args):
            raise AssertionError("the float pass made a Fraction")

        monkeypatch.setattr(inference, "Fraction", refuse)
        metrics = {search.metric for search, ties in searches if _float_pass(search, ties)[0]}
        assert metrics == {None, "G", "K"}


class TestConstraintValidation:
    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            LinearConstraint((0.0, 0.0), "<=", 1.0)

    def test_bad_relation(self):
        with pytest.raises(ValueError, match="relation"):
            LinearConstraint((1.0,), "<", 1.0)

    def test_prior_label_mismatch(self):
        prior = DiscreteDistribution(("z",), (1.0,))
        with pytest.raises(ValueError, match="same labels"):
            problem(("a",), (), MinDistance(prior))

    def test_bad_metric(self):
        prior = DiscreteDistribution(("a",), (1.0,))
        with pytest.raises(ValueError, match="metric"):
            MinDistance(prior, "H")

    @pytest.mark.parametrize("coefficients, bound", [
        ((math.nan, 1.0), 1.0), ((1.0, math.inf), 1.0), ((1.0, 1.0), math.inf),
        ((1.0, 1.0), -math.inf), ((1.0, 0.0), math.nan),
    ])
    def test_non_finite_numbers_rejected(self, coefficients, bound):
        with pytest.raises(ValueError, match="finite"):
            LinearConstraint(coefficients, "<=", bound)


class TestSolveMaxU:
    def test_unconstrained_returns_all_ones_exactly(self):
        sol = solve_max_u(problem(("a", "b", "c"), ()))
        assert sol.distribution.values == (1.0, 1.0, 1.0)
        assert sol.objective_value == pytest.approx(math.log(3), abs=1e-12)

    def test_pinned_coordinate(self):
        sol = solve_max_u(problem(("a", "b"), (LinearConstraint((1, 0), "=", 0.4),)))
        assert sol.distribution.values == (0.4, 1.0)
        assert sol.objective_value == pytest.approx(0.4 * LN2, abs=1e-12)

    def test_tie_break_lexicographically_largest(self):
        sol = solve_max_u(problem(("a", "b"), (LinearConstraint((1, 1), "=", 1.5),)))
        assert sol.distribution.values == (1.0, 0.5)
        assert sol.objective_value == pytest.approx(0.5 * LN2, abs=1e-12)
        assert set(sol.certificate["candidates"]) == {(1.0, 0.5), (0.5, 1.0)}

    def test_position_weights_are_the_scoring_weights_exactly(self):
        for n in range(1, 65):
            weights, den = _position_weights(n)
            assert weights[0] == 0
            assert [Fraction(w, den) for w in weights[1:]] == list(map(Fraction, _log_weights(n)))

    def test_unnormalized_optimum_needs_its_one_tie_group(self):
        # (0.5, 0.5) ties both coordinates on the row; without that group
        # only the 0/1 vertices remain and (1, 0) with U = 0 would win
        sol = solve_max_u(problem(("a", "b"), (LinearConstraint((1, 1), "<=", 1.0),),
                                  normalized=False))
        assert sol.distribution.values == (0.5, 0.5)
        assert sol.objective_value == pytest.approx(0.5 * LN2, abs=1e-15)

    def test_certificate_counts_vertices(self):
        # every 0/1 vector with a 1 somewhere; only the all-ones one is optimal
        sol = solve_max_u(problem(("a", "b", "c"), ()))
        assert sol.certificate == {
            "method": "vertex enumeration",
            "vertices": 7,
            "candidates": [(1.0, 1.0, 1.0)],
        }
        sol = solve_max_u(problem(("a", "b", "c"), (), normalized=False))
        assert sol.certificate["vertices"] == 8  # the origin joins them

    def test_matches_ordering_oracle_exactly(self, rng):
        # the returned vertex is the oracle's lexicographically largest
        # maximizer, whose exact U is the oracle optimum
        checked = 0
        while checked < 200:
            normalized = checked % 2 == 0
            n = int(rng.integers(1, 5))
            w = rng.integers(0, 11, n) / 10.0
            w[rng.integers(n)] = 1.0
            cons = []
            for rel, offset in (("<=", 0.1), (">=", -0.1), ("=", 0.0)):
                for _ in range(int(rng.integers(0, 2))):
                    c = rng.integers(-10, 11, n) / 10.0
                    if not np.any(c):
                        c[0] = 1.0
                    cons.append(LinearConstraint(tuple(c), rel, float(c @ w) + offset))
            prob = problem(tuple(f"x{i}" for i in range(n)), tuple(cons), normalized=normalized)
            oracle = max_u_by_orderings(prob)
            if oracle is None:
                with pytest.raises(InfeasibleProblemError):
                    solve_max_u(prob)
                continue
            best, point = oracle
            weights = [Fraction(0)]
            weights += [Fraction(math.log(k) - math.log(k - 1)) for k in range(2, n + 1)]
            assert sum(a * x for a, x in zip(weights, sorted(point, reverse=True))) == best
            sol = solve_max_u(prob)
            assert sol.distribution.values == tuple(float(x) for x in point)
            assert sol.objective_value == u_uncertainty(sol.distribution)
            checked += 1

    def test_matches_region_vertex_engine_exactly(self, rng):
        # the former per-region enumeration reaches sizes the ordering
        # oracle cannot; values and tied candidates must be bit-identical
        for k in range(40):
            n = int(rng.integers(5, 7))
            w = rng.integers(0, 11, n) / 10.0
            w[rng.integers(n)] = 1.0
            cons = []
            for _ in range(int(rng.integers(0, 4))):
                rel = str(rng.choice(["<=", ">=", "="]))
                c = rng.integers(-10, 11, n) / 10.0
                if not np.any(c):
                    c[0] = 1.0
                offset = {"<=": 0.1, ">=": -0.1, "=": 0.0}[rel]
                cons.append(LinearConstraint(tuple(c), rel, float(c @ w) + offset))
            prob = problem(tuple(f"x{i}" for i in range(n)), tuple(cons), normalized=k % 2 == 0)
            vertices = set().union(*_region_vertices(prob))
            if not vertices:
                with pytest.raises(InfeasibleProblemError):
                    solve_max_u(prob)
                continue
            optimal = [tuple(float(x) for x in v) for v in _max_u_vertices(n, vertices)]
            sol = solve_max_u(prob)
            assert sol.distribution.values == optimal[0]
            expected = u_uncertainty(DiscreteDistribution(prob.labels, optimal[0]))
            assert sol.objective_value == expected
            assert sol.certificate["candidates"] == optimal

    @pytest.mark.parametrize("row, expected", EXTREME_ROWS)
    def test_extreme_magnitudes(self, row, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_max_u(problem(("a", "b"), (row,)))
        assert sol.distribution.values == expected

    def test_eight_label_budget_closed_form(self):
        # sum(v) <= k + 0.5: U's weights decrease, so the budget fills k
        # coordinates to 1 and the next to 0.5; ties break lexicographically
        labels = tuple(f"x{i}" for i in range(8))
        for k in (1, 3, 6):
            cons = (LinearConstraint((1.0,) * 8, "<=", k + 0.5),)
            sol = solve_max_u(problem(labels, cons))
            assert sol.distribution.values == (1.0,) * k + (0.5,) + (0.0,) * (7 - k)
            expected = math.log(k) + 0.5 * (math.log(k + 1) - math.log(k))
            assert sol.objective_value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("rows, point, total", INFEASIBLE_ROWS)
    def test_infeasible_reports_witness(self, rows, point, total):
        cons = tuple(LinearConstraint(*row) for row in rows)
        with pytest.raises(InfeasibleProblemError) as exc:
            solve_max_u(problem(tuple("ab"[:len(point)]), cons))
        assert exc.value.witness["best_point"] == point
        # relative: an absolute tolerance would accept any subnormal value
        assert exc.value.witness["total_violation"] == pytest.approx(total, rel=1e-12)

    def test_normalization_infeasibility_detected(self):
        cons = (LinearConstraint((1, 0), "<=", 0.5), LinearConstraint((0, 1), "<=", 0.5))
        with pytest.raises(InfeasibleProblemError, match="normalized"):
            solve_max_u(problem(("a", "b"), cons))
        sol = solve_max_u(problem(("a", "b"), cons, normalized=False))
        assert sol.distribution.values == (0.5, 0.5)

    def test_size_cap(self):
        labels = tuple(f"x{i}" for i in range(9))
        with pytest.raises(ValueError, match="capped"):
            solve_max_u(problem(labels, ()))

    def test_permutation_equivariance_of_objective(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            c = rng.integers(-10, 11, n) / 10.0
            if not np.any(c):
                c[0] = 1.0
            w = rng.integers(0, 11, n) / 10.0
            w[rng.integers(n)] = 1.0
            cons = (LinearConstraint(tuple(c), "<=", float(c @ w) + 0.1),)
            labels = tuple(f"x{i}" for i in range(n))
            base = solve_max_u(problem(labels, cons))
            perm = rng.permutation(n)
            cons_p = (LinearConstraint(tuple(c[perm]), "<=", cons[0].bound),)
            permuted = solve_max_u(problem(labels, cons_p))
            assert permuted.objective_value == pytest.approx(
                base.objective_value, abs=1e-12
            )

    def test_tightening_a_lower_bound_never_raises_u(self):
        values = []
        for b in (0.0, 0.3, 0.6, 0.9):
            cons = (LinearConstraint((0, 1, 0), "<=", 1.0 - b),)
            values.append(solve_max_u(problem(("a", "b", "c"), cons)).objective_value)
        assert all(y <= x + 1e-12 for x, y in zip(values, values[1:]))

    def test_solution_satisfies_constraints(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            w = rng.integers(0, 11, n) / 10.0
            w[rng.integers(n)] = 1.0
            c = rng.integers(-10, 11, n) / 10.0
            if not np.any(c):
                c[0] = 1.0
            cons = (LinearConstraint(tuple(c), ">=", float(c @ w) - 0.05),)
            labels = tuple(f"x{i}" for i in range(n))
            try:
                sol = solve_max_u(problem(labels, cons))
            except InfeasibleProblemError:
                continue
            lhs = float(np.dot(c, sol.distribution.values))
            assert lhs >= cons[0].bound - 1e-7
            assert sol.distribution.is_normalized


def _violation(excess, rel):
    """How far a row whose excess a.v - b is ``excess`` is from holding: 0 when it holds."""
    return {"<=": max(excess, 0), ">=": max(-excess, 0), "=": abs(excess)}[rel]


class TestRowRelations:
    """The float pre-filter and the witness's float score read each relation as the rows do."""

    @pytest.mark.parametrize("rel", list(NAMES), ids=NAMES.get)
    def test_one_label(self, rel):
        self.check([((3,), rel, 1.5)])

    @pytest.mark.parametrize("first, second", ROW_PAIRS)
    @pytest.mark.parametrize("rels", [pytest.param(rels, id="{}_{}".format(*map(NAMES.get, rels)))
                                      for rels in itertools.product(NAMES, repeat=2)])
    def test_two_labels(self, first, second, rels):
        self.check([(first[0], rels[0], first[1]), (second[0], rels[1], second[1])])

    @staticmethod
    def check(rows):
        n = len(rows[0][0])
        points = list(itertools.product([0.0, 0.25, 0.5, 0.75, 1.0], repeat=n))
        excess = [[sum(Fraction(a) * Fraction(x) for a, x in zip(coeffs, p)) - Fraction(bound)
                   for coeffs, _, bound in rows] for p in points]
        for column in zip(*excess):  # every row has grid points on it and on either side
            assert {(e > 0) - (e < 0) for e in column} == {-1, 0, 1}
        violations = [[_violation(e, rel) for e, (_, rel, _) in zip(row, rows)] for row in excess]
        cons = tuple(LinearConstraint(*row) for row in rows)
        prob = problem(tuple("ab"[:n]), cons, normalized=False)
        grid = np.array(points)
        assert _VertexSearch(prob).feasible(grid).tolist() == [not any(v) for v in violations]
        witness = _ViolationSearch(prob)
        exact = [witness.exact_score(_dyadic(p)) for p in points]
        assert [e * 2**witness.scale for e in exact] == [sum(v) for v in violations]
        assert witness.score(grid).tolist() == [float(e) for e in exact]


class TestInfeasibilityWitness:
    """The witness against the arrangement-vertex oracle, and against phase 1 where that is exact."""

    @staticmethod
    def witness(prob):
        with pytest.raises(InfeasibleProblemError) as exc:
            (solve_max_u if isinstance(prob.objective, MaxU) else solve_min_distance)(prob)
        return exc.value.witness

    def test_pinned_problems_match_arrangement_oracle(self):
        expected = json.loads(ANSWERS.read_text())
        problems = [p for p, e in zip(answer_problems(), expected)
                    if e.get("error", "").startswith("constraints are infeasible")]
        assert len(problems) == 22
        for prob in problems:
            best, point = violation_by_arrangement(prob)
            assert self.witness(prob) == {"best_point": tuple(float(x) for x in point),
                                          "total_violation": float(best)}

    def test_random_problems_match_arrangement_oracle(self, rng):
        checked = 0
        for k in range(150):
            n = int(rng.integers(1, 5))
            cons = []
            for _ in range(int(rng.integers(1, 5))):
                grid = rng.random() < 0.75
                c = rng.integers(-10, 11, n) / 10.0 if grid else rng.uniform(-1.0, 1.0, n)
                if not np.any(c):
                    c[0] = 1.0
                bound = rng.integers(-5, 16) / 10.0 if grid else rng.uniform(-0.5, 1.5)
                cons.append(LinearConstraint(tuple(c), str(rng.choice(["<=", ">=", "="])), bound))
            prob = problem(tuple(f"x{i}" for i in range(n)), tuple(cons), normalized=k % 2 == 0)
            try:
                solve_max_u(prob)
                continue
            except InfeasibleProblemError as exc:
                witness = exc.witness
            best, point = violation_by_arrangement(prob)
            if not best:
                assert witness == {"normalized": False}
                continue
            assert witness == {"best_point": tuple(float(x) for x in point),
                               "total_violation": float(best)}
            checked += 1
        assert checked >= 60

    def test_value_matches_phase_one_when_every_row_has_an_artificial(self, rng):
        # the origin violates every ">=" row with a positive bound, so phase 1
        # gives each one an artificial variable and holds only the box hard
        checked = 0
        for k in range(200):
            n = int(rng.integers(1, 5))
            cons = []
            for _ in range(int(rng.integers(1, 4))):
                c = rng.integers(-10, 11, n) / 10.0
                if not np.any(c):
                    c[0] = 1.0
                cons.append(LinearConstraint(tuple(c), ">=", float(rng.integers(1, 21) / 10.0)))
            prob = problem(tuple(f"x{i}" for i in range(n)), tuple(cons), normalized=k % 2 == 0)
            res = feasible_point(n, _base_rows(prob))
            if res.status == "optimal":
                continue
            assert self.witness(prob)["total_violation"] == float(res.violation)
            checked += 1
        assert checked >= 50


class TestSolveMinDistance:
    prior = DiscreteDistribution(("a", "b", "c"), (1.0, 0.2, 0.2))

    def test_feasible_prior_is_returned(self):
        prob = problem(("a", "b", "c"), (), MinDistance(self.prior, "G"))
        sol = solve_min_distance(prob)
        assert sol.distribution.values == (1.0, 0.2, 0.2)
        assert sol.objective_value == 0.0

    def test_single_raised_coordinate(self):
        # oracle-confirmed optimum: lift the constrained coordinate to the
        # bound and keep the rest; G moves by 0.4 ln 2
        cons = (LinearConstraint((0, 1, 0), ">=", 0.6),)
        prob = problem(("a", "b", "c"), cons, MinDistance(self.prior, "G"))
        sol = solve_min_distance(prob)
        assert sol.distribution.values == pytest.approx((1.0, 0.6, 0.2), abs=1e-9)
        assert sol.objective_value == pytest.approx(0.4 * LN2, abs=1e-9)
        oracle = brute_force_oracle(prob, 0.02)
        assert oracle.distribution.values == pytest.approx((1.0, 0.6, 0.2), abs=1e-12)
        assert sol.objective_value <= oracle.objective_value + 1e-9

    def test_k_metric_agrees_with_oracle_here(self):
        cons = (LinearConstraint((0, 1, 0), ">=", 0.6),)
        prob = problem(("a", "b", "c"), cons, MinDistance(self.prior, "K"))
        sol = solve_min_distance(prob)
        oracle = brute_force_oracle(prob, 0.02)
        assert sol.objective_value <= oracle.objective_value + 1e-9
        assert sol.objective_value == pytest.approx(
            big_k(sol.distribution, self.prior), abs=1e-12
        )

    def test_uninformed_prior_recovers_max_u(self, rng):
        # minimizing distance to the all-ones prior maximizes U
        for _ in range(25):
            n = int(rng.integers(2, 4))
            labels = tuple(f"x{i}" for i in range(n))
            w = rng.integers(0, 11, n) / 10.0
            w[rng.integers(n)] = 1.0
            c = rng.integers(-10, 11, n) / 10.0
            if not np.any(c):
                c[0] = 1.0
            cons = (LinearConstraint(tuple(c), ">=", float(c @ w) - 0.05),)
            try:
                u_sol = solve_max_u(problem(labels, cons))
                d_sol = solve_min_distance(
                    problem(labels, cons, MinDistance(max_uncertain(n, labels), "G"))
                )
            except InfeasibleProblemError:
                continue
            assert u_uncertainty(d_sol.distribution) == pytest.approx(
                u_sol.objective_value, abs=1e-6
            )

    def test_infeasible(self):
        cons = (LinearConstraint((1, 1, 1), "<=", 0.2),)
        with pytest.raises(InfeasibleProblemError):
            solve_min_distance(problem(("a", "b", "c"), cons, MinDistance(self.prior, "G")))

    def test_size_cap(self):
        labels = tuple(f"x{i}" for i in range(7))
        prior = max_uncertain(7, labels)
        with pytest.raises(ValueError, match="capped"):
            solve_min_distance(problem(labels, (), MinDistance(prior, "G")))

    def test_tight_row_reaches_the_grid_optimum(self):
        prob = tight_row_problem("G")
        sol = solve_min_distance(prob)
        assert sol.objective_value == pytest.approx(0.216053456330147, abs=1e-12)
        assert sol.distribution.values == pytest.approx((0.48, 0.4, 0.5, 0.5), abs=1e-12)
        # the optimum lies on the 0.02 grid, so the 0.01 oracle, which sits
        # between this value and the 0.02 oracle's, finds it too
        oracle = brute_force_oracle(prob, 0.02)
        assert abs(sol.objective_value - oracle.objective_value) <= 1e-12

    def test_tight_row_k_beats_the_descent(self):
        prob = tight_row_problem("K")
        sol = solve_min_distance(prob)
        # min_distance_by_descent returns 0.15333 here; it is not rerun, as
        # it takes 2.4 s at 4 labels
        assert sol.objective_value == pytest.approx(0.14849, abs=1e-5)

    def test_never_above_descent_or_grid_oracle(self, rng):
        checked = 0
        while checked < 300:
            metric = "GK"[checked // 2 % 2]
            prob = random_min_distance_problem(rng, metric, normalized=checked % 2 == 0)
            try:
                sol = solve_min_distance(prob)
            except InfeasibleProblemError:
                continue
            descent = min_distance_by_descent(prob)
            oracle = brute_force_oracle(prob, 0.02)
            assert sol.objective_value <= descent.objective_value + 1e-12
            assert sol.objective_value <= oracle.objective_value + 1e-9
            checked += 1

    @pytest.mark.parametrize("metric", ["G", "K"])
    @pytest.mark.parametrize("row", [row for row, _ in EXTREME_ROWS])
    def test_extreme_magnitudes(self, row, metric):
        prior = DiscreteDistribution(("a", "b"), (1.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_min_distance(problem(("a", "b"), (row,), MinDistance(prior, metric)))
        assert exactly_feasible(sol.distribution.values, row)
        assert sol.distribution.is_normalized

    def test_tied_optima_break_toward_the_lexicographically_largest(self):
        # below the prior G = U(prior) - U(v), so the budget goes to one
        # coordinate up to its prior value and the rest to the other
        labels = ("a", "b", "c")
        prior = DiscreteDistribution(labels, (1.0, 0.75, 0.75))
        cons = (LinearConstraint((0, 1, 1), "<=", 1.0),)
        sol = solve_min_distance(problem(labels, cons, MinDistance(prior, "G")))
        assert sol.certificate["tied_optima"] == [(1.0, 0.75, 0.25), (1.0, 0.25, 0.75)]
        assert sol.distribution.values == (1.0, 0.75, 0.25)
        assert sol.objective_value == pytest.approx(0.5 * math.log(1.5), abs=1e-15)

    def test_objective_value_matches_public_metric(self):
        cons = (LinearConstraint((0, 0, 1), ">=", 0.5),)
        for metric, fn in (("G", big_g), ("K", big_k)):
            prob = problem(("a", "b", "c"), cons, MinDistance(self.prior, metric))
            sol = solve_min_distance(prob)
            assert sol.objective_value == pytest.approx(
                fn(sol.distribution, self.prior), abs=1e-12
            )


class TestBruteForceOracle:
    def test_unconstrained_max_u(self):
        sol = brute_force_oracle(problem(("a", "b"), ()), 0.1)
        assert sol.distribution.values == (1.0, 1.0)

    def test_inserted_rows_are_what_sort_gives(self):
        gen = np.random.default_rng(7)
        for k in range(4):
            # sorted rows with ties, alone and as a column slice of a wider array
            wide = np.sort(gen.integers(0, 5, (300, 2 * k)) / 4.0, axis=1)
            for ascending in (np.sort(wide[:, k:], axis=1), wide[:, :k]):
                for x in (0.0, 0.25, 0.6, 1.0):
                    got = inference._inserted(ascending, x)
                    expected = np.sort(np.column_stack([np.full(300, x), ascending]), axis=1)
                    assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()

    def test_grid_feasible_pin(self):
        prob = problem(("a", "b"), (LinearConstraint((1, 0), "=", 0.4),))
        sol = brute_force_oracle(prob, 0.1)
        assert sol.distribution.values == pytest.approx((0.4, 1.0), abs=1e-12)

    def test_size_and_resolution_caps(self):
        with pytest.raises(ValueError, match="resolution"):
            brute_force_oracle(problem(("a",), ()), 0.25)
        labels = tuple(f"x{i}" for i in range(5))
        with pytest.raises(ValueError, match="capped"):
            brute_force_oracle(problem(labels, ()), 0.1)

    def test_no_grid_point(self):
        prob = problem(("a", "b"), (LinearConstraint((1, 0), "=", 0.123456),))
        with pytest.raises(InfeasibleProblemError, match="grid"):
            brute_force_oracle(prob, 0.1)

    def test_solver_within_lipschitz_gap_of_oracle(self, rng):
        # U is (ln n)-Lipschitz in the sup norm, so a grid optimum sits
        # within ln n * resolution * n of the true one when the feasible
        # set is grid-friendly
        for _ in range(25):
            n = int(rng.integers(2, 4))
            labels = tuple(f"x{i}" for i in range(n))
            w = rng.integers(0, 11, n) / 10.0
            w[rng.integers(n)] = 1.0
            c = rng.integers(-10, 11, n) / 10.0
            if not np.any(c):
                c[0] = 1.0
            cons = (LinearConstraint(tuple(c),rng.choice(["<=", ">="]),
                                     float(c @ w) + (0.1 if rng.integers(2) else -0.1)),)
            try:
                sol = solve_max_u(problem(labels, cons))
                oracle = brute_force_oracle(problem(labels, cons), 0.01)
            except InfeasibleProblemError:
                continue
            assert sol.objective_value >= oracle.objective_value - 1e-9
            assert sol.objective_value - oracle.objective_value <= math.log(n) * 0.01 * n
