"""Small dense exact LP solver: the reference LP of the inference oracles in the tests.

Two-phase simplex on ``fractions.Fraction`` with Bland's rule, so every
pivot is exact and termination is guaranteed without numerical
tolerances.  Float inputs convert losslessly (binary floats are
rationals).  Problems here are tiny (a handful of variables and rows);
clarity and exactness beat speed.

Variables are implicitly nonnegative; upper bounds go in as rows.
"""

from dataclasses import dataclass
from fractions import Fraction

_RELS = ("<=", ">=", "=")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple | None  # Fractions for the original variables
    objective: Fraction | None
    violation: Fraction | None = None  # total residual for infeasible problems


def _price_out(tableau, basis, costs, ncols):
    z = [-c for c in costs] + [Fraction(0)]
    for i, b in enumerate(basis):
        cb = costs[b]
        if cb:
            row = tableau[i]
            for j in range(ncols + 1):
                z[j] += cb * row[j]
    return z


def _pivot(tableau, basis, z, ncols, leaving, entering):
    piv_row = tableau[leaving]
    piv = piv_row[entering]
    cols = [j for j in range(ncols + 1) if piv_row[j]]  # zeros change nothing
    for j in cols:
        piv_row[j] /= piv
    for row in tableau if z is None else [*tableau, z]:
        if row is not piv_row and row[entering]:
            factor = row[entering]
            for j in cols:
                row[j] -= factor * piv_row[j]
    basis[leaving] = entering


def _iterate(tableau, basis, z, ncols, banned):
    while True:
        entering = -1
        for j in range(ncols):
            if j not in banned and z[j] < 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, z, ncols, leaving, entering)


def _expel_artificials(tableau, basis, ncols, art_cols):
    """Pivot basic artificials (all at value 0 here) out of the basis.

    A row whose non-artificial entries are all zero is redundant and gets
    dropped; otherwise a degenerate pivot on any nonzero entry keeps the
    solution unchanged while restoring a clean basis for phase 2.
    """
    i = 0
    while i < len(tableau):
        if basis[i] in art_cols:
            row = tableau[i]
            entering = next(
                (j for j in range(ncols) if j not in art_cols and row[j] != 0), None
            )
            if entering is None:
                del tableau[i]
                del basis[i]
                continue
            _pivot(tableau, basis, None, ncols, i, entering)
        i += 1


def solve_lp(num_vars, objective, rows, maximize=True):
    """Maximize (or minimize) objective . x subject to rows, x >= 0.

    ``rows`` is a sequence of ``(coeffs, rel, rhs)`` with rel one of
    "<=", ">=", "=".  Returns an exact ``LpResult``.
    """
    objective = [Fraction(c) for c in objective]
    if len(objective) != num_vars:
        raise ValueError("objective length must equal num_vars")
    if not maximize:
        objective = [-c for c in objective]

    norm = []
    for coeffs, rel, rhs in rows:
        if rel not in _RELS:
            raise ValueError(f"unknown relation {rel!r}")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != num_vars:
            raise ValueError("constraint length must equal num_vars")
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm.append((coeffs, rel, rhs))

    m = len(norm)
    n_slack = sum(1 for _, rel, _ in norm if rel != "=")
    n_art = sum(1 for _, rel, _ in norm if rel != "<=")
    ncols = num_vars + n_slack + n_art
    art_cols = set()

    tableau = []
    basis = []
    slack_at = num_vars
    art_at = num_vars + n_slack
    for coeffs, rel, rhs in norm:
        row = coeffs + [Fraction(0)] * (n_slack + n_art) + [rhs]
        if rel == "<=":
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        tableau.append(row)

    def extract_x():
        x = [Fraction(0)] * num_vars
        for i, b in enumerate(basis):
            if b < num_vars:
                x[b] = tableau[i][ncols]
        return tuple(x)

    if art_cols:
        phase1_costs = [Fraction(-1) if j in art_cols else Fraction(0) for j in range(ncols)]
        z = _price_out(tableau, basis, phase1_costs, ncols)
        status = _iterate(tableau, basis, z, ncols, banned=set())
        assert status == "optimal"  # phase 1 is always bounded
        residual = -z[ncols]
        if residual > 0:
            return LpResult("infeasible", extract_x(), None, violation=residual)
        _expel_artificials(tableau, basis, ncols, art_cols)

    costs = objective + [Fraction(0)] * (n_slack + n_art)
    z = _price_out(tableau, basis, costs, ncols)
    status = _iterate(tableau, basis, z, ncols, banned=art_cols)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    value = z[ncols]
    if not maximize:
        value = -value
    return LpResult("optimal", extract_x(), value)


def feasible_point(num_vars, rows):
    """Phase-1 check: an exact feasible point, or phase 1's residual.

    Rows that the origin satisfies get no artificial variable and are held
    hard, so the residual is the least total violation of the other rows
    under them: the least summed violation over the box only when every
    row but x <= 1 has one.
    """
    return solve_lp(num_vars, [0] * num_vars, rows)
