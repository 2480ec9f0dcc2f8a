"""Level measures and the descending rearrangement on [0, 1].

P(y) measures the set where f stays at or above level y; its generalized
inverse rearranges f into the unique nonincreasing profile with the same
level-set measures.  Two classical examples: the symmetric tent
rearranges to the straight ramp, and the parabola 4(x - 1/2)^2 to
(1 - x)^2.
"""

import numpy as np

from possinfo import PiecewisePossibility, level_measure, rearrange, sample_function

tent = PiecewisePossibility([(0, 0), (0.5, 1), (1, 0)])
P = level_measure(tent)
print("tent level measure: single piece", P.coeffs[0], "i.e. P(y) = -(y - 1) = 1 - y")
print("rearranged tent breakpoints:", rearrange(P).points, "(the ramp 1 - x)")
print()

parabola = sample_function(lambda x: 4 * (x - 0.5) ** 2, 1001)
Pq = level_measure(parabola)
ys = np.array([0.04, 0.25, 0.64])
print("P(y) for the parabola vs 1 - sqrt(y):")
for y in ys:
    print(f"  y={y}: {Pq(float(y)):.6f} vs {1 - np.sqrt(y):.6f}")
ft = rearrange(Pq)
xs = np.linspace(0, 1, 5)
print("rearranged parabola vs (1 - x)^2:")
for x in xs:
    print(f"  x={x}: {float(ft(x)):.6f} vs {(1 - x) ** 2:.6f}")
print()

# every level set keeps its measure under rearrangement
def measure_at_or_above(f, alpha, grid=200_001):
    xs = np.linspace(0, 1, grid)
    return float(np.mean(f(xs) >= alpha))

for alpha in (0.2, 0.5, 0.9):
    before = measure_at_or_above(parabola, alpha)
    after = measure_at_or_above(ft, alpha)
    print(f"measure(f >= {alpha}): {before:.4f} -> {after:.4f} after rearrangement")
