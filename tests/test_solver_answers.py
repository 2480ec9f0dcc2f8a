"""The inference solvers' answers, bit for bit, against a committed file.

``tests/data/solver_answers.json`` holds, for seeded problems, the
``float.hex`` of ``values``, ``objective_value`` and ``candidates`` (max-U)
or ``tied_optima`` (G, K), or the infeasibility message.  A change to the
vertex search that moves any bit of an answer fails here.

``tests/data/solver_vertices.json`` holds the certificates' ``vertices``
(None for an infeasible problem) apart from the answers: they count the
enumeration's float-feasible candidates, so a change to how the search is
carried out must keep them, while a change to what it enumerates moves
them with every answer staying.

Rewrite the files only for an intended and explained change:

    PYTHONPATH=src python tests/test_solver_answers.py

which prints every entry it changes (index, old and new) before writing.
"""

import functools
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from possinfo import (
    DiscreteDistribution,
    InfeasibleProblemError,
    InferenceProblem,
    LinearConstraint,
    MaxU,
    MinDistance,
    solve_max_u,
    solve_min_distance,
)

ANSWERS = Path(__file__).parent / "data" / "solver_answers.json"
VERTICES = Path(__file__).parent / "data" / "solver_vertices.json"
SEED = 20261018
COUNT = 300
# the most rows per label count, which keeps the whole file under a few seconds
ROW_CAPS = {"max_u": (3, 3, 3, 3, 2, 1, 1), "G": (3, 3, 3, 2, 2), "K": (3, 3, 2, 1, 1)}


def _row(rng, n, witness):
    """A row through or near the witness: 0.1-grid or full-precision coefficients."""
    c = rng.integers(-10, 11, n) / 10.0 if rng.random() < 0.75 else rng.uniform(-1.0, 1.0, n)
    if not np.any(c):
        c[0] = 1.0
    rel = str(rng.choice(["<=", ">=", "="]))
    # mostly slack around the witness; now and then a cut past it, which may be infeasible
    offset = 0.0 if rel == "=" else 0.1 if rng.random() < 0.875 else -0.3
    bound = float(c @ witness) + (offset if rel == "<=" else -offset)
    return LinearConstraint(tuple(c), rel, bound)


def _grid_or_float(rng, n):
    v = rng.integers(0, 11, n) / 10.0 if rng.random() < 0.75 else rng.uniform(0.0, 1.0, n)
    v[rng.integers(n)] = 1.0
    return v


def answer_problems():
    """Max-U at 1-7 labels, G and K at 1-5, each with 0-3 rows up to its ``ROW_CAPS``."""
    rng = np.random.default_rng(SEED)
    for i in range(COUNT):
        kind = ("max_u", "G", "K")[i % 3]
        n = int(rng.integers(1, 8 if kind == "max_u" else 6))
        m = min(int(rng.integers(0, 4)), ROW_CAPS[kind][n - 1])
        labels = tuple(f"x{j}" for j in range(n))
        witness = _grid_or_float(rng, n)
        cons = tuple(_row(rng, n, witness) for _ in range(m))
        if kind == "max_u":
            objective = MaxU()
        else:
            objective = MinDistance(DiscreteDistribution(labels, _grid_or_float(rng, n)), kind)
        yield InferenceProblem(labels, cons, objective, require_normalized=i % 2 == 0)


def _digest(problem):
    """A short fingerprint of the problem, so a changed generator is told from a changed answer."""
    rows = [([x.hex() for x in c.coefficients], c.relation, c.bound.hex())
            for c in problem.constraints]
    prior = getattr(problem.objective, "prior", None)
    text = json.dumps([len(problem.labels), rows, problem.require_normalized,
                       getattr(problem.objective, "metric", "max_u"),
                       None if prior is None else [x.hex() for x in prior.values]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hex(points):
    return [[x.hex() for x in p] for p in points]


def answer(problem):
    """(the answer's entry, the certificate's ``vertices`` entry) of one problem."""
    entry = {"problem": _digest(problem)}
    counted = {"problem": entry["problem"], "vertices": None}
    max_u = isinstance(problem.objective, MaxU)
    try:
        sol = (solve_max_u if max_u else solve_min_distance)(problem)
    except InfeasibleProblemError as exc:
        entry["error"] = str(exc)
        return entry, counted
    entry["values"] = _hex([sol.distribution.values])[0]
    entry["objective_value"] = sol.objective_value.hex()
    key = "candidates" if max_u else "tied_optima"
    entry[key] = _hex(sol.certificate[key])
    counted["vertices"] = sol.certificate["vertices"]
    return entry, counted


@functools.cache
def answers():
    """(answer entries, ``vertices`` entries) of every seeded problem, solved once."""
    entries, counts = zip(*map(answer, answer_problems()))
    return list(entries), list(counts)


def rewrite(path, entries):
    """Print every entry that differs from the file's (index, old and new), then write the file."""
    old = json.loads(path.read_text()) if path.exists() else []
    for i, (before, entry) in enumerate(itertools.zip_longest(old, entries)):
        if before != entry:
            print(f"#{i}\n  old: {json.dumps(before)}\n  new: {json.dumps(entry)}")
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {path}")


def _check(path, got, what):
    expected = json.loads(path.read_text())
    assert len(expected) == COUNT
    assert [e["problem"] for e in got] == [e["problem"] for e in expected], "generator changed"
    moved = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not moved, f"{what} moved on problems {moved}: first {got[moved[0]]}"


def test_answers_match_the_committed_file():
    _check(ANSWERS, answers()[0], "answers")


def test_vertex_counts_match_the_committed_file():
    _check(VERTICES, answers()[1], "vertex counts")


if __name__ == "__main__":
    entries, counts = answers()
    rewrite(ANSWERS, entries)
    rewrite(VERTICES, counts)
