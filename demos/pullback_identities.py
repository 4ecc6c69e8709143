"""Pullback proportionality: where it holds, where it breaks.

Two stories.  First, a map into C^4 whose Jacobian has unit determinant on
its first block: the top wedge power pulls back to exactly the source form
(lambda = 1) while the degree-1 pullback is not proportional to the source
metric at all.  Second, the degree-2 rational curve into the projective
plane, which is a genuine isometry up to the integer factor 2.
"""

import numpy as np

from kform import (
    euclidean,
    parse_map,
    projective,
    proportionality_test,
    pullback_pp,
    sample_chart_points,
)

src, tgt = euclidean(2), euclidean(4)
F = parse_map(["z1+1/(1-z2)", "z2", "0", "0"], 2)
points = sample_chart_points(src, 50, seed=1, radius=0.5)

top = proportionality_test(F, src, tgt, 2, points)
low = proportionality_test(F, src, tgt, 1, points)
theta = pullback_pp(F, src, tgt, 2, points[0])[0, 0]

print("flat example, p = 2 (top degree):")
print(f"  Theta at first sample = {theta:.12f}")
print(f"  lambdaHat = {top.lambdaHat:.12f}, residual = {top.maxResidual:.2e}, "
      f"verdict {'PASS' if top.passed else 'FAIL'}")
print("same map, p = 1:")
print(f"  lambdaHat = {low.lambdaHat:.6f}, residual = {low.maxResidual:.2e}, "
      f"verdict {'PASS' if low.passed else 'FAIL'}")
print("  top-degree preservation does not force lower degrees.")
print()

ver = parse_map(["1.4142135623730951*z1", "z1^2"], 1)
pts1 = sample_chart_points(projective(1), 50, seed=2)
res = proportionality_test(ver, projective(1), projective(2), 1, pts1, tol=1e-10)
print("degree-2 rational curve into the projective plane, p = 1:")
print(f"  lambdaHat = {res.lambdaHat:.12f} (exact factor 2), "
      f"verdict {'PASS' if res.passed else 'FAIL'}")

worst = max(
    float(np.abs(pullback_pp(ver, projective(1), projective(2), 1, w)
                 - 2.0 * (1.0 + abs(w[0]) ** 2) ** -2).max())
    for w in pts1
)
print(f"  pointwise check against 2 * metric: worst deviation {worst:.2e}")
