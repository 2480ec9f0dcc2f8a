"""The grid oracle's answers, bit for bit, against a committed file.

``tests/data/oracle_answers.json`` holds, for the seeded problems of
``test_solver_answers`` with at most four labels, at resolutions 0.1 and
0.05, the ``float.hex`` of ``brute_force_oracle``'s ``values`` and
``objective_value`` and its certificate, or the infeasibility message.
The oracle referees both solvers, so a change to its scan that moves any
bit of an answer, the tie-break included, fails here.

Rewrite the file only for an intended and explained answer change:

    PYTHONPATH=src python tests/test_oracle_answers.py

which prints every entry it changes (index, old and new) before writing.
"""

import json
from pathlib import Path

from test_solver_answers import _digest, _hex, answer_problems, rewrite

from possinfo import InfeasibleProblemError, brute_force_oracle

ANSWERS = Path(__file__).parent / "data" / "oracle_answers.json"
RESOLUTIONS = (0.1, 0.05)


def oracle_problems():
    """(problem, resolution) for each seeded problem of at most four labels."""
    for problem in answer_problems():
        if len(problem.labels) <= 4:
            for resolution in RESOLUTIONS:
                yield problem, resolution


def answer(problem, resolution):
    entry = {"problem": _digest(problem), "resolution": resolution}
    try:
        sol = brute_force_oracle(problem, resolution)
    except InfeasibleProblemError as exc:
        entry["error"] = str(exc)
        return entry
    entry["values"] = _hex([sol.distribution.values])[0]
    entry["objective_value"] = sol.objective_value.hex()
    entry["certificate"] = sol.certificate
    return entry


def test_answers_match_the_committed_file():
    expected = json.loads(ANSWERS.read_text())
    got = [answer(*p) for p in oracle_problems()]
    assert [(e["problem"], e["resolution"]) for e in got] == [
        (e["problem"], e["resolution"]) for e in expected
    ], "generator changed"
    moved = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not moved, f"answers moved on problems {moved}: first {got[moved[0]]}"


if __name__ == "__main__":
    rewrite(ANSWERS, [answer(*p) for p in oracle_problems()])
