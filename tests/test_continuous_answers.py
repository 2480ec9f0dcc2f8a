"""The continuous pipeline's answers, bit for bit, against a committed file.

``tests/data/continuous_answers.json`` holds, for x^k and 1 - x^k
(k = 1..8), cosines with 1-20 periods and seeded plateau curves, each at
10^3 and 10^4 breakpoints, and for the ramp:

- ``info``: the ``float.hex`` of ``info(f)``;
- ``product_info``: of ``info_from_level(product_level(L, L))``, L being
  ``level_measure(f)``;
- ``rearranged``: the point count of ``rearrange(product_level(L, L))``
  and the SHA-256 of its points written as ``float.hex`` pairs.  A
  rearranged product holds up to about 10^5 points, so the file keeps
  their digest rather than the text itself.

A change to ``level_measure``, ``product_level``, ``info_from_level`` or
``rearrange`` that moves any bit of these fails here.  An error is kept
as its message.

Rewrite the file only for an intended and explained answer change:

    PYTHONPATH=src python tests/test_continuous_answers.py

which prints every entry it changes (index, old and new) before writing.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from test_solver_answers import rewrite

from possinfo import (
    PiecewisePossibility,
    info,
    info_from_level,
    level_measure,
    product_level,
    rearrange,
    sample_function,
)

ANSWERS = Path(__file__).parent / "data" / "continuous_answers.json"
SEED = 20261019
SIZES = (1_000, 10_000)


def _plateau(rng):
    """A top plateau at 1, a middle plateau and linear ramps in between."""
    a, w, level, wm = rng.uniform(0.05, 0.3), rng.uniform(0.1, 0.25), rng.uniform(0.2, 0.7), rng.uniform(0.1, 0.25)
    cx = [0.0, a, a + w, a + w + 0.1, a + w + 0.1 + wm, 1.0]
    cv = [rng.uniform(0.0, 0.5), 1.0, 1.0, level, level, 0.0]
    return lambda x: np.interp(x, cx, cv)


def answer_curves():
    """(name, curve) for every input of the file, in a fixed order."""
    rng = np.random.default_rng(SEED)
    for n in SIZES:
        for k in range(1, 9):
            yield f"x^{k} n={n}", sample_function(lambda x, k=k: x**k, n)
            yield f"1-x^{k} n={n}", sample_function(lambda x, k=k: 1.0 - x**k, n)
        for p in range(1, 21):
            yield f"cos {p} periods n={n}", sample_function(
                lambda x, p=p: 0.5 + 0.5 * np.cos(2 * np.pi * p * x), n
            )
        for i in range(4):
            yield f"plateau {i} n={n}", sample_function(_plateau(rng), n)
    yield "ramp", PiecewisePossibility([(0.0, 1.0), (1.0, 0.0)])


def _hex_or_error(call, *args):
    try:
        return call(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return f"error: {exc}"


def answer(name, f):
    L = level_measure(f)
    PP = product_level(L, L)
    points = rearrange(PP).points
    text = ";".join(f"{x.hex()},{y.hex()}" for x, y in points)
    return {
        "curve": name,
        "info": _hex_or_error(info, f),
        "product_info": _hex_or_error(info_from_level, PP),
        "rearranged": [len(points), hashlib.sha256(text.encode()).hexdigest()],
    }


# -integral_0^1 ln P(y) dy of the stored pieces of L = level_measure(f) and of
# product_level(L, L), at 50 digits (mpmath, piece by piece in closed form)
EXACT = {
    "cos 18 periods n=10000": (0.82417976813314455955548029398934607, 1.6483595362662891166476540895204629),
    "plateau 0 n=10000": (0.87457272122327140201532188129716, 1.7491454424465428026298311065180),
    "x^5 n=1000": (2.2833198774682046832463385524815, 4.5666397549364093657778923119773),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_integrator_matches_the_exact_integral_of_its_pieces(name):
    L = level_measure(dict(answer_curves())[name])
    exact, product = EXACT[name]
    assert info_from_level(L) == pytest.approx(exact, rel=5e-16, abs=0.0)
    assert info_from_level(product_level(L, L)) == pytest.approx(product, rel=5e-16, abs=0.0)


def test_answers_match_the_committed_file():
    expected = json.loads(ANSWERS.read_text())
    got = [answer(*c) for c in answer_curves()]
    assert [e["curve"] for e in got] == [e["curve"] for e in expected], "generator changed"
    moved = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not moved, f"answers moved on curves {moved}: first {got[moved[0]]}"


if __name__ == "__main__":
    rewrite(ANSWERS, [answer(*c) for c in answer_curves()])
