"""The four benchmark workloads: seeded inputs, call schedules and reference checks.

A workload is a list of blocks.  Every block holds the same mix of call
kinds and sizes (its template); the seed picks the free parameters inside
each slot and the order of the calls inside the block.  Stopping the timed
loop at a block boundary therefore keeps the mix exact, which is what keeps
the medians and the 90th percentile steady from one seed to the next.

Each ``Call`` resolves the library function through its module attribute
at call time (``pi.info``, ``cli_mod.run_command``), so the tracer in
``spans.py`` sees every call once it has rebound those attributes.

The reference checks run after the timed loop.  Each returns ``None`` for
a correct result or a one-line reason.
"""

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

import possinfo as pi
import possinfo.cli as cli_mod

WORKLOADS = ("continuous-large", "sampling", "inference", "cli-batch")

# pinned by tests/test_acceptance.py (criteria 4 and 9) for the same quantities
DUAL_PATH_TOL = 1e-6
# grid of the inference oracle; its Lipschitz gap scales with it as in criterion 8
ORACLE_RESOLUTION = 0.05


@dataclass
class Call:
    """One public call: ``run(*args)`` is timed, ``check(result)`` is not."""

    kind: str
    run: object
    args: tuple
    check: object
    after: object = None  # untimed: reads output files, or shrinks a large result


@dataclass
class Workload:
    blocks: list  # list of lists of Call
    warmup: list  # one small Call per call kind
    trace_blocks: int  # blocks in the traced run's fixed call list


# ---------------------------------------------------------------------------
# closed-form references


def harmonic(k):
    return math.fsum(1.0 / j for j in range(1, k + 1))


def half_cin_pi():
    """0.5 * Cin(pi), Cin(z) = sum_m (-1)^(m+1) z^(2m) / (2m (2m)!), summed by series."""
    z2 = math.pi * math.pi
    total, term = 0.0, 1.0
    for m in range(1, 40):
        term *= z2 / ((2 * m - 1) * (2 * m))  # z^(2m) / (2m)!
        total += (-1) ** (m + 1) * term / (2 * m)
    return 0.5 * total


HALF_CIN_PI = half_cin_pi()


def pow_tol(k, n):
    """Interpolation bound for info of x^k or 1-x^k sampled at n breakpoints.

    The error of the piecewise-linear interpolant is O(k^2 h^2) with h the
    grid step; 2 k^2 h^2 is more than twice the largest error measured on
    these curves for k <= 8 and n >= 10^3 (0.71 k^2 h^2).
    """
    h = 1.0 / (n - 1)
    return 2.0 * k * k * h * h + 1e-12


def cos_tol(k, n):
    """Interpolation bound for info of (1 + cos 2 pi k x) / 2 at n breakpoints.

    The sup-norm interpolation error is pi^2 k^2 h^2 / 4; the info error
    measured on these curves stays below 17 (k h)^2, so the bound used is
    4 pi^2 (k h)^2 (about 39.5 (k h)^2).
    """
    h = 1.0 / (n - 1)
    return 4.0 * math.pi ** 2 * (k * h) ** 2 + 1e-12


def info_of_descending(f):
    """info of an already nonincreasing piecewise-linear f, in closed form per segment."""
    xs, vs = f.xs, f.vs
    if np.any(np.diff(vs) > 0.0):
        raise ValueError("not nonincreasing")
    u = 1.0 - vs
    a, b = xs[:-1], xs[1:]
    ua, ub = u[:-1].copy(), u[1:]
    ua[0] = 0.0 if a[0] == 0.0 else ua[0]
    s = (ub - ua) / (b - a)
    first = s[0] * b[0]
    rest = (ua[1:] - s[1:] * a[1:]) * (np.log(b[1:]) - np.log(a[1:])) + s[1:] * (b[1:] - a[1:])
    return float(first + rest.sum())


def u_layer_cake(values):
    """U as sum_i (p_i - p_(i+1)) ln i over descending values, p_(n+1) = 0."""
    p = np.sort(np.asarray(values, dtype=float))[::-1]
    steps = p - np.append(p[1:], 0.0)
    return float(steps @ np.log(np.arange(1, p.size + 1)))


def grid_samples(f, n):
    return np.interp(np.arange(n) / n, f.xs, f.vs)


def _close(value, ref, tol, what):
    if not isinstance(value, float) or not abs(value - ref) <= tol:
        return f"{what}: got {value!r}, expected {ref!r} within {tol:.3g}"
    return None


# ---------------------------------------------------------------------------
# curves


def curve(shape, k, n, rng=None):
    """Sampled curve of one family and its reference info (None: use the dual path)."""
    if shape == "pow":
        return pi.sample_function(lambda x: x ** k, n), harmonic(k), pow_tol(k, n)
    if shape == "dpow":
        return pi.sample_function(lambda x: 1.0 - x ** k, n), 1.0 / k, pow_tol(k, n)
    if shape == "cos":
        f = pi.sample_function(lambda x: 0.5 * (1.0 + np.cos(2.0 * np.pi * k * x)), n)
        return f, HALF_CIN_PI, cos_tol(k, n)
    if shape == "plateau":
        # a top plateau at 1, a middle plateau, linear ramps in between
        a = rng.uniform(0.05, 0.3)
        w = rng.uniform(0.1, 0.25)
        level = rng.uniform(0.2, 0.7)
        wm = rng.uniform(0.1, 0.25)
        cx = [0.0, a, a + w, a + w + 0.1, a + w + 0.1 + wm, 1.0]
        cv = [rng.uniform(0.0, 0.5), 1.0, 1.0, level, level, 0.0]
        return pi.sample_function(lambda x: np.interp(x, cx, cv), n), None, DUAL_PATH_TOL
    raise ValueError(shape)


def _log_sizes(rng, count, lo, hi):
    """``count`` sizes stratified on a log scale over [lo, hi], in seeded order."""
    q = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    sizes = np.round(lo * (hi / lo) ** q).astype(int)
    return [int(s) for s in rng.permutation(sizes)]


# ---------------------------------------------------------------------------
# continuous-large


def _run_info(f):
    return pi.info(f)


def _run_info_from_product(level):
    return pi.info_from_level(pi.product_level(level, level))


def _run_rearrange_product(level):
    return pi.rearrange(pi.product_level(level, level))


def _run_big_g(f1, f2):
    return pi.big_g_cont(f1, f2)


def _run_big_k(f1, f2):
    return pi.big_k_cont(f1, f2)


def _run_big_h(f1, f2):
    return pi.big_h_cont(f1, f2)


def _info_call(shape, k, n, rng=None):
    f, ref, tol = curve(shape, k, n, rng)
    label = f"info {shape}{k} n={n}"
    if ref is None:
        def check(v):
            return _close(v, pi.info_from_level(pi.level_measure(f)), tol, label)
    else:
        def check(v):
            return _close(v, ref, tol, label)
    return Call(f"info {shape}", _run_info, (f,), check)


PRODUCT_FAMILIES = ("pow", "cos", "plateau", "ramp")


def _product_factor(rng, n, shape):
    """Level measure of a product factor.

    The factors come from the families whose products info_from_level
    computes correctly at n = 10^3 breakpoints: x^k, cosines with 2 to 4
    periods (their products raise IntegrationWarning), plateau curves and
    the ramp.  Products of the other families fail at this commit; see
    ``known_product_defects``.
    """
    if shape == "ramp":
        f = pi.PiecewisePossibility([(0.0, 1.0), (1.0, 0.0)])
    elif shape == "cos":
        f = curve("cos", int(rng.integers(2, 5)), n)[0]
    elif shape == "pow":
        f = curve("pow", int(rng.integers(1, 9)), n)[0]
    else:
        f = curve("plateau", 0, n, rng)[0]
    return shape, pi.level_measure(f)


def _product_info_call(rng, n, shape):
    shape, level = _product_factor(rng, n, shape)

    def check(v):
        return _close(v, 2.0 * pi.info_from_level(level), DUAL_PATH_TOL, f"info_from_level(P*P) {shape}")

    return Call("info_from_level_product", _run_info_from_product, (level,), check)


def _rearrange_digest(g):
    """Small stand-in for a rearranged curve: kept results must not grow peak memory."""
    try:
        value = info_of_descending(g)
    except ValueError:
        value = None  # not nonincreasing
    return len(g.points), hash(g.points), value


def _rearrange_product_call(rng, n, shape):
    shape, level = _product_factor(rng, n, shape)

    def check(digest):
        if digest[2] is None:
            return f"rearrange {shape}: output is not nonincreasing"
        return _close(digest[2], 2.0 * pi.info_from_level(level), DUAL_PATH_TOL, f"info(rearrange(P*P)) {shape}")

    return Call("rearrange_product", _run_rearrange_product, (level,), check, after=_rearrange_digest)


def _distance_call(kind, run, rng, n):
    """G, K or H between two curves of one monotone family with closed-form infos.

    Both curves share the grid, so one lies above the other at every
    breakpoint; all three distances then equal |info(f1) - info(f2)|.
    """
    shape = ("pow", "dpow")[int(rng.integers(2))]
    a, b = (int(k) for k in rng.choice(np.arange(1, 9), 2, replace=False))
    f1, r1, t1 = curve(shape, a, n)
    f2, r2, t2 = curve(shape, b, n)

    def check(v):
        return _close(v, abs(r1 - r2), t1 + t2, f"{kind} {shape}{a},{b}")

    return Call(kind, run, (f1, f2), check)


# (family, count) of the info calls in a block.  Sizes are stratified on a
# log scale over 10^3..10^4 breakpoints within each family and the cosine
# periods over 1..20, so every block has the same broad spread of costs.
# A broad spread keeps the percentiles moving smoothly when the machine's
# speed drifts; a tight group of like calls makes them jump.
INFO_SLOTS = (("pow", 3), ("dpow", 3), ("cos", 4), ("plateau", 3))


def build_continuous(rng):
    blocks = []
    for b in range(6):
        calls = []
        for shape, count in INFO_SLOTS:
            # the largest curve of each family has exactly 10^4 breakpoints, and
            # cosines get fewer periods as they get longer: the 10^4 x^k, 1-x^k
            # and 1-5-period cosine calls then cost alike and are the costliest
            # after the rearrangement, so the 90th percentile falls among them
            sizes = sorted(_log_sizes(rng, count, 1_000, 10_000))
            sizes[-1] = 10_000
            for j, n in enumerate(sizes):
                k = 5 * (count - 1 - j) + int(rng.integers(1, 6)) if shape == "cos" else int(rng.integers(1, 9))
                calls.append(_info_call(shape, k, n, rng))
        # each product family in turn feeds the one rearrangement of a block
        rearranged = PRODUCT_FAMILIES[b % len(PRODUCT_FAMILIES)]
        for shape in PRODUCT_FAMILIES:
            if shape != rearranged:
                calls.append(_product_info_call(rng, 1_000, shape))
        calls.append(_rearrange_product_call(rng, 1_000, rearranged))
        calls.append(_distance_call("big_g_cont", _run_big_g, rng, 1_000))
        calls.append(_distance_call("big_k_cont", _run_big_k, rng, 1_000))
        calls.append(_distance_call("big_h_cont", _run_big_h, rng, 1_000))
        blocks.append([calls[i] for i in rng.permutation(len(calls))])

    # a nearly flat factor keeps the warm-up rearrangement to a few hundred points
    flat = pi.level_measure(pi.PiecewisePossibility([(0.0, 1.0), (0.99, 1.0), (1.0, 0.0)]))
    warmup = [
        _info_call("cos", 2, 64),
        Call("info_from_level_product", _run_info_from_product, (pi.level_measure(curve("pow", 2, 64)[0]),), None),
        Call("rearrange_product", _run_rearrange_product, (flat,), None),
        _distance_call("big_g_cont", _run_big_g, rng, 64),
        _distance_call("big_k_cont", _run_big_k, rng, 64),
        _distance_call("big_h_cont", _run_big_h, rng, 64),
    ]
    return Workload(blocks, warmup, trace_blocks=2)


def known_product_defects():
    """Products of the info workload's families that info_from_level gets wrong.

    info_from_level(product_level(L, L)) should equal 2 info_from_level(L)
    for every level measure L.  At this commit it raises DivergenceError,
    ValueError or ZeroDivisionError, or misses by more than 1e-6, for most
    1 - x^k and cosine curves at 10^3 breakpoints.  The timed calls use
    factors it handles, so that every timed call can succeed; this probe
    runs outside the timed loop and counts the failures among the 28
    curves 1 - x^k (k = 1..8) and cosines with 1 to 20 periods.
    """
    probes = [curve("dpow", k, 1_000)[0] for k in range(1, 9)]
    probes += [curve("cos", k, 1_000)[0] for k in range(1, 21)]
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f in probes:
            level = pi.level_measure(f)
            try:
                value = pi.info_from_level(pi.product_level(level, level))
                ok = abs(value - 2.0 * pi.info_from_level(level)) <= DUAL_PATH_TOL
            except (ArithmeticError, ValueError):
                ok = False
            failures += not ok
    return failures


# ---------------------------------------------------------------------------
# sampling


def _run_approx(f, n):
    return pi.approx_info(f, n)


def _run_series(f, n_list):
    return pi.convergence_series(f, n_list)


def _sampling_curve(rng, shape):
    if shape == "ramp":
        return pi.PiecewisePossibility([(0.0, 1.0), (1.0, 0.0)])
    if shape == "pow":
        return curve("pow", int(rng.integers(1, 9)), 1_000)[0]
    return curve("cos", int(rng.integers(1, 21)), 2_000)[0]


def _approx_ref(f, n, shape):
    """Reference ln n - U: exact lgamma for the ramp, layer-cake U otherwise."""
    if shape == "ramp":
        u = math.lgamma(n + 1) / n
    else:
        u = u_layer_cake(grid_samples(f, n))
    return math.log(n) - u


def sampling_tol(n):
    """Both sides sum n float terms of size <= ln n: n * eps * ln n, times 4."""
    return 4.0 * n * 2.2e-16 * max(1.0, math.log(n))


def _approx_call(rng, shape, n):
    f = _sampling_curve(rng, shape)

    def check(v):
        return _close(v, _approx_ref(f, n, shape), sampling_tol(n), f"approx_info {shape} n={n}")

    return Call(f"approx_info n~{n:.0e}", _run_approx, (f, n), check)


def _series_call(rng, shape, n_list):
    f = _sampling_curve(rng, shape)

    def check(series):
        if not isinstance(series, pi.ConvergenceSeries) or [e.n for e in series] != n_list:
            return f"convergence_series {shape}: wrong entries"
        for e in series:
            reason = _close(e.approx_info, _approx_ref(f, e.n, shape), sampling_tol(e.n),
                            f"convergence_series {shape} n={e.n}")
            if reason is None and e.approx_info != math.log(e.n) - e.u_value:
                reason = f"convergence_series {shape} n={e.n}: approx_info != ln n - U"
            if reason:
                return reason
        return None

    return Call("convergence_series", _run_series, (f, n_list), check)


def build_sampling(rng):
    """Blocks of 20 calls; sorted by cost they read: seven at n = 10^3..3*10^3,
    six at n = 10^4 (ranks 8-13, holding the median), four series reaching
    past 2*10^4, and three at n = 10^6 (ranks 18-20, holding the 90th
    percentile)."""
    shapes = ("ramp", "pow", "cos")
    blocks = []
    for _ in range(6):
        calls = [_approx_call(rng, shapes[i], 1_000_000) for i in range(3)]
        calls += [_approx_call(rng, shapes[i % 3], 10_000) for i in range(6)]
        for i, n in enumerate(_log_sizes(rng, 7, 1_000, 3_000)):
            calls.append(_approx_call(rng, shapes[i % 3], n))
        for i in range(4):
            calls.append(_series_call(rng, shapes[i % 3], sorted(_log_sizes(rng, 3, 1_000, 100_000))))
        blocks.append([calls[i] for i in rng.permutation(len(calls))])
    warmup = [_approx_call(rng, "pow", 1_000), _series_call(rng, "cos", [100, 1_000])]
    return Workload(blocks, warmup, trace_blocks=2)


# ---------------------------------------------------------------------------
# inference


def feasible_problem(rng, n, objective_kind, kinds):
    """Acceptance-suite style problem: 0.1-grid coefficients, a witness with slack.

    ``kinds`` fixes the constraint relations ("<=", ">=", or "=" on one
    coordinate); the seed picks the witness, the coefficients and the prior.
    """
    labels = tuple(f"x{i}" for i in range(n))
    witness = rng.integers(0, 11, n) / 10.0
    witness[int(rng.integers(n))] = 1.0
    constraints = []
    for kind in kinds:
        if kind == "=":
            # pin a coordinate other than the witness's 1 to an interior grid value
            top = int(np.argmax(witness))
            i = int(rng.choice([j for j in range(n) if j != top]))
            witness[i] = rng.integers(1, 10) / 10.0
            coeffs = [0.0] * n
            coeffs[i] = 1.0
            constraints.append(pi.LinearConstraint(tuple(coeffs), "=", float(witness[i])))
            continue
        coeffs = rng.integers(-10, 11, n) / 10.0
        if not np.any(coeffs):
            coeffs[0] = 1.0
        # written on the 0.01 grid, as in a document, so float noise cannot
        # make a vertex that is feasible on paper infeasible for the exact solver
        bound = round(float(coeffs @ witness) + (0.1 if kind == "<=" else -0.1), 2)
        constraints.append(pi.LinearConstraint(tuple(coeffs), kind, bound))
    if objective_kind == "max_u":
        objective = pi.MaxU()
    else:
        prior = rng.integers(0, 11, n) / 10.0
        prior[int(rng.integers(n))] = 1.0
        objective = pi.MinDistance(pi.DiscreteDistribution(labels, prior.tolist()), objective_kind)
    return pi.InferenceProblem(labels, tuple(constraints), objective)


def _feasible(values, problem, tol=1e-7):
    for c in problem.constraints:
        lhs = sum(a * v for a, v in zip(c.coefficients, values))
        if (c.relation == "<=" and lhs > c.bound + tol) or (
            c.relation == ">=" and lhs < c.bound - tol
        ) or (c.relation == "=" and abs(lhs - c.bound) > tol):
            return False
    return all(-tol <= v <= 1.0 + tol for v in values) and max(values) >= 1.0 - 1e-9


def _run_max_u(problem):
    return pi.solve_max_u(problem)


def _run_min_distance(problem):
    return pi.solve_min_distance(problem)


def _inference_call(rng, n, objective_kind, kinds):
    problem = feasible_problem(rng, n, objective_kind, kinds)
    max_u = objective_kind == "max_u"
    # oracle gap as in criterion 8: U is ln(n)-Lipschitz per coordinate in the
    # sup norm, G and K 2 ln(n)-Lipschitz
    gap = (1.0 if max_u else 2.0) * math.log(n) * ORACLE_RESOLUTION * n
    label = f"{objective_kind} n={n}"

    def check(sol):
        values = sol.distribution.values
        if not _feasible(values, problem):
            return f"{label}: infeasible solution {values}"
        if max_u and abs(sol.objective_value - u_layer_cake(values)) > 1e-12:
            return f"{label}: objective {sol.objective_value!r} is not U of the solution"
        oracle = pi.brute_force_oracle(problem, ORACLE_RESOLUTION)
        if not abs(sol.objective_value - oracle.objective_value) <= gap:
            return (f"{label}: objective {sol.objective_value!r} vs oracle "
                    f"{oracle.objective_value!r} beyond gap {gap:.3g}")
        return None

    run = _run_max_u if max_u else _run_min_distance
    kind = "solve_max_u" if max_u else f"solve_min_distance {objective_kind}"
    return Call(f"{kind} n={n}", run, (problem,), check)


# (labels, objective, constraint relations) per slot of a block.  Solver cost
# depends on the label count and on ties between orderings far more than on
# the coefficients, so the slots fix both and the seed draws the rest.  With
# one coordinate pinned to an interior value the other three tie at 1, so
# every four-label problem enumerates 24 orderings and refines the same
# number of optimal ones: a tight group of calls that holds the 90th
# percentile.
INFERENCE_SLOTS = (
    [(4, "max_u", ("=",))] * 5
    + [(2, "max_u", ("<=",))] * 2
    + [(3, "max_u", (">=",))] * 2
    + [(2, "G", ("<=",))] * 3
    + [(3, "G", ("<=",))] * 2
    + [(2, "K", ("<=",))] * 4
    + [(2, "K", (">=",))] * 2
)


def build_inference(rng):
    blocks = []
    for _ in range(7):
        calls = [_inference_call(rng, n, kind, kinds) for n, kind, kinds in INFERENCE_SLOTS]
        blocks.append([calls[i] for i in rng.permutation(len(calls))])
    warmup = [_inference_call(rng, 2, kind, ("<=",)) for kind in ("max_u", "G", "K")]
    return Workload(blocks, warmup, trace_blocks=2)


# ---------------------------------------------------------------------------
# cli-batch


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, doc):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc))
    return path


def _discrete_doc(values):
    return {"kind": "discrete", "labels": [f"l{i}" for i in range(len(values))], "values": list(values)}


def _pw_doc(f):
    return {"kind": "piecewise_linear", "points": [list(p) for p in f.points]}


def _small_curve(rng):
    n = int(rng.integers(2, 11))
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.02, 0.98, n - 2)), [1.0]))
    vs = rng.integers(0, 11, n) / 10.0
    vs[int(rng.integers(n))] = 1.0
    return pi.PiecewisePossibility(zip(xs.tolist(), vs.tolist()))


def _normalized(rng, n):
    v = rng.integers(0, 101, n) / 100.0
    v[int(rng.integers(n))] = 1.0
    return v


def _cli_call(argv, expect, out_path=None, value=None):
    """``expect`` is the exit code; ``value`` an optional reference for the printed number."""

    def after(result):
        if out_path is None or result[0] != 0:
            return result
        with open(out_path, "rb") as fh:
            return result + (fh.read(),)

    def check(result):
        code, stdout, stderr = result[:3]
        if code != expect:
            return f"{argv[0]}: exit {code}, expected {expect} ({stderr.strip()[:80]})"
        category = {0: None, 2: "data", 3: "math"}[expect]
        if category and not stderr.startswith(f"error:{category}:"):
            return f"{argv[0]}: stderr {stderr[:60]!r} is not an error:{category}: line"
        if value is not None and not abs(float(stdout) - value) <= 1e-6:
            return f"{argv[0]}: printed {stdout.strip()}, expected {value:.6f}"
        return None

    return Call(f"cli {argv[0]}", _run_cli, (argv,), check, after=after)


def _cli_block(rng, d, b):
    """Twenty commands over documents written to ``d``; ``b`` makes file names unique."""

    def p(name):
        return os.path.join(d, f"b{b}-{name}")

    calls = []
    ln2 = math.log(2.0)
    for i, extra in enumerate(([], ["--bits"], None, [])):
        v = _normalized(rng, int(rng.integers(2, 11)))
        doc = _write(p(f"u{i}.json"), _discrete_doc(v))
        if extra is None:
            tau = _write(p("tau.json"), {"kind": "tau", "points": [[0, 0], [0.5, float(rng.uniform(0.2, 0.8))], [1, 1]]})
            calls.append(_cli_call(["uncertainty", doc, "--tau", tau], 0))
        else:
            u = u_layer_cake(v)
            calls.append(_cli_call(["uncertainty", doc, *extra], 0, value=u / ln2 if extra else u))
    n = int(rng.integers(2, 11))
    lower = _normalized(rng, n)
    upper = np.maximum(lower, _normalized(rng, n))
    d1 = _write(p("lower.json"), _discrete_doc(lower))
    d2 = _write(p("upper.json"), _discrete_doc(upper))
    for metric in ("g", "G", "H", "K"):
        calls.append(_cli_call(["distance", d1, d2, "--metric", metric], 0))
    f1 = _small_curve(rng)
    f2 = pi.PiecewisePossibility(zip(f1.xs.tolist(), np.maximum(f1.vs, rng.integers(0, 11, len(f1.points)) / 10.0).tolist()))
    c1 = _write(p("c1.json"), _pw_doc(f1))
    c2 = _write(p("c2.json"), _pw_doc(f2))
    calls.append(_cli_call(["distance", c1, c2, "--metric", "g", "--continuous"], 0))
    calls.append(_cli_call(["distance", c1, c2, "--metric", "G", "--continuous"], 0))
    calls.append(_cli_call(["distance", c1, c2, "--metric", ("H", "K")[b % 2], "--continuous"], 0))
    calls.append(_cli_call(["info", c1], 0))
    calls.append(_cli_call(["info", c2, "--bits"], 0))
    calls.append(_cli_call(["rearrange", c2, "--out", p("r.json")], 0, out_path=p("r.json")))
    calls.append(_cli_call(["approx", c1, "--n", "10,100,1000", "--csv", p("a.csv")], 0, out_path=p("a.csv")))
    # a tenth or more of the commands read 10^3-breakpoint documents
    big = [curve(shape, int(rng.integers(1, 6)), 1_000)[0] for shape in ("pow", "cos", "dpow")]
    g1, g2, g3 = (_write(p(f"big{i}.json"), _pw_doc(f)) for i, f in enumerate(big))
    calls.append(_cli_call(["info", g1], 0))
    calls.append(_cli_call(["rearrange", g2, "--out", p("rb.json")], 0, out_path=p("rb.json")))
    calls.append(_cli_call(["distance", g1, g3, "--metric", "G", "--continuous"], 0))
    # documents that must fail: a schema error (exit 2) and a divergence (exit 3)
    bad = _write(p("bad.json"), {"kind": "discrete", "labels": ["a", "b"], "values": [1.0, float(rng.uniform(1.1, 2.0))]})
    calls.append(_cli_call(["uncertainty", bad], 2))
    sub = _write(p("sub.json"), {"kind": "piecewise_linear", "points": [[0, float(rng.uniform(0.2, 0.9))], [1, 0]]})
    calls.append(_cli_call(["info", sub], 3))
    return calls


def build_cli(rng, workdir):
    os.makedirs(workdir, exist_ok=True)
    blocks = []
    for b in range(10):
        calls = _cli_block(rng, workdir, b)
        blocks.append([calls[i] for i in rng.permutation(len(calls))])
    warmup = _cli_block(rng, workdir, -1)
    return Workload(blocks, warmup, trace_blocks=10)


def build(name, seed, workdir):
    index = WORKLOADS.index(name)
    rng = np.random.default_rng([seed, index])
    if name == "continuous-large":
        return build_continuous(rng)
    if name == "sampling":
        return build_sampling(rng)
    if name == "inference":
        return build_inference(rng)
    return build_cli(rng, workdir)
