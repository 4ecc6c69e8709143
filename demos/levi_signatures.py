"""Levi signatures of unit sphere bundles, and the curvature-sign probe.

The level set { omega^p(xi, conj(xi)) = r } inside the p-th wedge power of
the tangent bundle is a real hypersurface; its Levi form signature is
constant per space form and degree.  Projective space at top degree is
all-negative, lower degrees mix signs, and the ball is strictly
pseudoconvex.  The probe compares those signs across a holomorphic map and
flags the combinations no nonconstant map can realize.
"""

import numpy as np

from kform import (
    ball,
    euclidean,
    levi_signatures,
    obstruction_probe,
    parse_map,
    projective,
)

print("signatures (negative, zero, positive) at 5 random bundle points each:")
for sf, p in [
    (projective(2), 2),
    (projective(2), 1),
    (projective(3), 2),
    (ball(2), 1),
    (euclidean(2), 1),
]:
    (sig,), _ = levi_signatures(sf, p, 1.0, 5, seed=3)
    print(f"  {sf.kind}({sf.dim}), p={p}: {sig}")

print()
print("probe: flat source into a ball target (signs can never agree):")
F = parse_map(["0.2*z1", "0.2*z2", "0.1"], 2)
rng = np.random.default_rng(4)
w = np.array([0.3 + 0.1j, -0.2j])
xi = rng.normal(size=2) + 1j * rng.normal(size=2)
res = obstruction_probe(euclidean(2), ball(3), F, 1, w, xi)
print(f"  source side {res.lhs:+.4e}, target side {res.rhs:+.4e}, "
      f"conflict={res.conflict}")

print("control: ball into ball along z -> (z, 0) (no obstruction):")
res = obstruction_probe(ball(1), ball(2), parse_map(["z1", "0"], 1), 1,
                        np.array([0.25]), np.array([1.0]))
print(f"  source side {res.lhs:+.4e}, target side {res.rhs:+.4e}, "
      f"conflict={res.conflict}")
