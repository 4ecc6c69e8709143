"""Seeded generation of the benchmark's op lists, each op with its closed-form verdict.

An op is one ``kform`` command-line call: ``run`` on a generated scenario
file, or ``suite``.  The seed draws the maps' coefficients (unitary frames,
boosts, scale factors, polynomial coefficients), sampling seeds and level
sets; it never changes which cases a workload holds, so the cost of a pass
is the same for every seed.  Expectations come from closed forms worked out
here with numpy alone, never from kform itself:

* linear isometric embeddings and ball/projective automorphisms preserve
  omega, so every wedge power is preserved with lambda = 1;
* the degree-d Veronese embedding of projective space multiplies omega by d,
  so omega^p by d^p;
* a scaled linear map c*U is a homothety of flat space (lambda = |c|^(2p))
  and no isometry of the ball or projective space (FAIL);
* the flat map (a*z1 + h(z2, ...), z2, ...) has det J = a, so it preserves
  the top power up to |a|^2 but no lower one;
* the sphere-bundle Levi signature is (0, 0, n + C(n,p) - 1) over B^n and
  (n, 0, C(n,p) - 1) over P^n;
* slice series ranks are N + 1 for ball_slice and proj_slice, min(k, d + 1)
  for |F|^2 of k generic degree-d polynomials, and growing for psi.

This module imports numpy only; it must not import kform.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

WORKLOADS = ("suite", "pullback", "levi", "ranks")

# Ops whose expected verdict the library is known to miss at this version:
# top-degree ball automorphisms at n = 7, 8 FAIL the absolute residual bound
# (the omega^p entries grow like (1 - |w|^2)^-(p+1) near the ball's edge).
KNOWN_DEFECTS = ("pullback/aut-ball-7-p7", "pullback/aut-ball-8-p8")

LAMBDA_RTOL = 1e-6


def _num(z) -> str:
    """A complex number as a literal of the kform map grammar."""
    z = complex(z)
    re, im = float(z.real), float(z.imag)
    return f"({re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i)"


def _linear(row, const=None) -> str:
    terms = [] if const is None else [_num(const)]
    terms += [f"{_num(c)}*z{k + 1}" for k, c in enumerate(row)]
    return "+".join(terms)


def _poly(coeffs, var: str = "z1") -> str:
    """sum_k coeffs[k] * var^k."""
    return "+".join(f"{_num(c)}*{var}^{k}" for k, c in enumerate(coeffs))


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with orthonormal columns."""
    q, _ = np.linalg.qr(_complex_normal(rng, (rows, cols)))
    return q


def _unit_vector(rng, n: int) -> np.ndarray:
    v = _complex_normal(rng, n)
    return v / np.linalg.norm(v)


def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _space(kind: str, dim: int, sig: int | None = None) -> dict:
    out = {"kind": kind, "dim": dim}
    if sig is not None:
        out["sig"] = sig
    return out


def _fraction_map(a: np.ndarray) -> list:
    """Components of z -> (a[1:,0] + a[1:,1:] z) / (a[0,0] + a[0,1:] z)."""
    den = _linear(a[0, 1:], a[0, 0])
    return [f"({_linear(a[j, 1:], a[j, 0])})/({den})" for j in range(1, a.shape[0])]


def _automorphism(rng, kind: str, n: int) -> np.ndarray:
    """A matrix of U(1,n) (ball) or U(n+1) (projective) acting on [1; z].

    A boost (ball) or rotation (projective) in the plane of e0 and a random
    direction u, sandwiched between block unitaries fixing e0.  Rotation
    angles stay below atan(1/2), so the denominator of the fraction map is
    at least cos(t) - 2 sin(t) > 0 on the projective sampling radius 2.
    """
    u = _unit_vector(rng, n)
    t = rng.uniform(0.2, 0.8) if kind == "ball" else rng.uniform(0.1, 0.35)
    c, s = (math.cosh(t), math.sinh(t)) if kind == "ball" else (math.cos(t), math.sin(t))
    sign = 1.0 if kind == "ball" else -1.0
    b = np.eye(n + 1, dtype=np.complex128)
    b[0, 0] = c
    b[0, 1:] = sign * s * u.conj()
    b[1:, 0] = s * u
    b[1:, 1:] += (c - 1.0) * np.outer(u, u.conj())

    def block_unitary():
        m = np.eye(n + 1, dtype=np.complex128)
        m[0, 0] = _phase(rng)
        m[1:, 1:] = _isometry(rng, n, n)
        return m

    return block_unitary() @ b @ block_unitary()


def _veronese(d: int, m: int):
    """Monomials z^alpha, 1 <= |alpha| <= d, weighted by sqrt(multinomial).

    1 + |V(z)|^2 = (1 + |z|^2)^d, so V pulls the Fubini-Study form back to
    d times itself.  Returns (exponent tuples, weights).
    """
    exps, weights = [], []
    for deg in range(1, d + 1):
        for combo in combinations_with_replacement(range(m), deg):
            alpha = tuple(combo.count(k) for k in range(m))
            coef = math.factorial(d) / (
                math.factorial(d - deg) * math.prod(math.factorial(a) for a in alpha)
            )
            exps.append(alpha)
            weights.append(math.sqrt(coef))
    return exps, weights


def _monomial(alpha, factors) -> str:
    parts = [f"({factors[k]})^{a}" for k, a in enumerate(alpha) if a]
    return "*".join(parts)


def _veronese_map(rng, d: int, inner: list) -> list:
    """U * V_d(inner) for a random unitary U of the Veronese target."""
    exps, weights = _veronese(d, len(inner))
    u = _isometry(rng, len(exps), len(exps))
    monos = [_monomial(alpha, inner) for alpha in exps]
    return [
        "+".join(f"{_num(u[i, j] * weights[j])}*{monos[j]}" for j in range(len(exps)))
        for i in range(len(exps))
    ]


def _op(op_id: str, scenario: dict, exit_code: int, checks: dict) -> dict:
    return {
        "id": op_id,
        "argv": ["run"],
        "scenario": scenario,
        "expect": {"exit": exit_code, "checks": checks},
    }


def _ok(lam=None) -> dict:
    return {"verdict": "PASS"} if lam is None else {"verdict": "PASS", "lambdaHat": float(lam)}


_FAIL = {"verdict": "FAIL"}


# Sample points per pullback, relatives and rigidity scenario.  Far fewer
# than the library default of 50, so a pass takes well under a second and
# every op runs some twenty times in a run, spread over the run: an op's
# latency is the median of its executions, each scaled by the host's speed
# next to it.
PULLBACK_COUNT = 5


def _sampling(rng, radius=None, count=PULLBACK_COUNT) -> dict:
    out = {"count": count, "seed": int(rng.integers(0, 2**31))}
    if radius is not None:
        out["radius"] = radius
    return out


def _pullback(rng, op_id, src, tgt, comps, p, lam_p, lam_1, radius=None, count=PULLBACK_COUNT) -> dict:
    """Pullback op; lam_* is the closed-form lambda, or None for FAIL."""
    checks = {f"pullback_p{p}": _FAIL if lam_p is None else _ok(lam_p)}
    if p > 1:
        checks["pullback_p1"] = _FAIL if lam_1 is None else _ok(lam_1)
    exit_code = 0 if all(c["verdict"] == "PASS" for c in checks.values()) else 1
    scenario = {
        "mode": "pullback",
        "source": src,
        "target": tgt,
        "map": comps,
        "p": p,
        "sampling": _sampling(rng, radius, count),
    }
    return _op(op_id, scenario, exit_code, checks)


def _rigidity(rng, op_id, src, tgt, comps, p, checks, radius=None) -> dict:
    exit_code = 0 if all(c["verdict"] == "PASS" for c in checks.values()) else 1
    scenario = {
        "mode": "rigidity",
        "source": src,
        "target": tgt,
        "map": comps,
        "p": p,
        "sampling": _sampling(rng, radius),
    }
    return _op(op_id, scenario, exit_code, checks)


def _relatives(rng, op_id, m, targets, maps, p, lam) -> dict:
    scenario = {
        "mode": "relatives",
        "source": _space("euclidean", m),
        "targets": targets,
        "maps": maps,
        "p": p,
        "sampling": _sampling(rng),
    }
    if lam is None:
        return _op(op_id, scenario, 1, {f"relatives_p{p}": _FAIL})
    scenario["expect"] = {"lambdaHat": lam}
    return _op(op_id, scenario, 0, {f"relatives_p{p}": _ok(lam), "lambda_matches": _ok(lam)})


def _flat_example(rng, m: int, n_tgt: int, scale: float):
    """(a*z1 + b/(1-z2) + c*z3^2 ..., z2, ..., zm, 0, ...) with |a| = scale."""
    a = scale * _phase(rng)
    head = f"{_num(a)}*z1+{_num(_complex_normal(rng, ()))}/(1-z2)"
    for k in range(3, m + 1):
        head += f"+{_num(_complex_normal(rng, ()))}*z{k}^2"
    return [head] + [f"z{k}" for k in range(2, m + 1)] + ["0"] * (n_tgt - m)


def pullback_ops(rng) -> list:
    ops = []
    # linear isometric embeddings U z, U^H U = I (definite) or blockwise (indefinite)
    for kind, m, n, p in (
        ("ball", 1, 8, 1),
        ("ball", 2, 4, 2),
        ("ball", 2, 6, 2),
        ("ball", 3, 5, 2),
        ("ball", 3, 6, 2),
        ("projective", 1, 6, 1),
        ("projective", 2, 5, 2),
        ("projective", 3, 4, 3),
        ("projective", 4, 8, 1),
        ("euclidean", 2, 3, 2),
        ("euclidean", 3, 6, 2),
        ("euclidean", 5, 5, 2),
    ):
        u = _isometry(rng, n, m)
        comps = [_linear(u[i]) for i in range(n)]
        ops.append(
            _pullback(rng, f"pullback/iso-{kind}-{m}-{n}-p{p}", _space(kind, m), _space(kind, n), comps, p, 1.0, 1.0)
        )
    for (m, s), (n, t), p in (((2, 1), (4, 2), 2), ((3, 2), (5, 3), 2)):
        u = np.zeros((n, m), dtype=np.complex128)
        u[:t, :s] = _isometry(rng, t, s)
        u[t:, s:] = _isometry(rng, n - t, m - s)
        comps = [_linear(u[i]) for i in range(n)]
        ops.append(
            _pullback(
                rng,
                f"pullback/iso-indefinite-{m}{s}-{n}{t}-p{p}",
                _space("euclidean", m, s),
                _space("euclidean", n, t),
                comps,
                p,
                1.0,
                1.0,
            )
        )
    # scaled maps c U z: flat homotheties PASS with |c|^(2p); curved ones FAIL
    for kind, m, n, p in (
        ("euclidean", 2, 4, 2),
        ("euclidean", 3, 3, 3),
        ("ball", 2, 3, 2),
        ("projective", 2, 4, 1),
    ):
        scale = rng.uniform(0.3, 0.8) if kind == "ball" else rng.uniform(1.3, 2.0)
        u = scale * _phase(rng) * _isometry(rng, n, m)
        comps = [_linear(u[i]) for i in range(n)]
        if kind == "euclidean":
            lam_p, lam_1 = scale ** (2 * p), scale**2
        else:
            lam_p = lam_1 = None
        ops.append(
            _pullback(rng, f"pullback/scaled-{kind}-{m}-{n}-p{p}", _space(kind, m), _space(kind, n), comps, p, lam_p, lam_1)
        )
    # Veronese embeddings of projective space: lambda = d^p
    for d in (2, 5, 8):
        comps = _veronese_map(rng, d, ["z1"])
        ops.append(
            _pullback(rng, f"pullback/veronese-1-d{d}-p1", _space("projective", 1), _space("projective", d), comps, 1, d, d)
        )
    for p in (1, 2):
        comps = _veronese_map(rng, 2, ["z1", "z2"])
        ops.append(
            _pullback(rng, f"pullback/veronese-2-d2-p{p}", _space("projective", 2), _space("projective", 5), comps, p, 2.0**p, 2.0)
        )
    # the flat top-degree example: PASS at p = m with lambda = |a|^2, FAIL at p = 1
    for m, n in ((2, 4), (3, 4)):
        scale = rng.uniform(0.5, 1.5)
        comps = _flat_example(rng, m, n, scale)
        ops.append(
            _pullback(rng, f"pullback/flat-example-{m}-{n}-p{m}", _space("euclidean", m), _space("euclidean", n), comps, m, scale**2, None, radius=0.5)
        )
    # chart automorphisms: isometries, lambda = 1 in every degree
    for kind, n, p in (
        ("ball", 2, 2),
        ("ball", 3, 1),
        ("ball", 4, 2),
        ("ball", 5, 5),
        ("ball", 6, 1),
        ("ball", 7, 7),
        ("ball", 8, 8),
        ("projective", 3, 2),
        ("projective", 5, 1),
    ):
        op_id = f"pullback/aut-{kind}-{n}-p{p}"
        comps = _fraction_map(_automorphism(rng, kind, n))
        # 20 points reach far enough toward the ball's edge that the known
        # defects miss on 49 of 50 seeds tried at n = 7 and on all at n = 8
        # (at 5 points, half of them pass)
        count = 20 if op_id in KNOWN_DEFECTS else PULLBACK_COUNT
        ops.append(_pullback(rng, op_id, _space(kind, n), _space(kind, n), comps, p, 1.0, 1.0, count=count))
    # relatives: F^* omega_1^p = lambda G^* omega_2^p over a common flat domain
    for d in (3, 6):
        ops.append(
            _relatives(
                rng,
                f"relatives/veronese-1-d{d}",
                1,
                [_space("projective", d), _space("projective", 1)],
                [_veronese_map(rng, d, ["z1"]), ["z1"]],
                1,
                float(d),
            )
        )
    for p in (1, 2):
        a = _complex_normal(rng, (2, 2))
        inner = [_linear(a[0]), _linear(a[1])]
        ops.append(
            _relatives(
                rng,
                f"relatives/veronese-2-d2-p{p}",
                2,
                [_space("projective", 5), _space("projective", 2)],
                [_veronese_map(rng, 2, inner), inner],
                p,
                2.0**p,
            )
        )
    c = rng.uniform(0.3, 0.9) * _phase(rng)
    u = _isometry(rng, 4, 2) * c
    ops.append(
        _relatives(
            rng,
            "relatives/ball-iso-2-4-p2",
            2,
            [_space("ball", 4), _space("ball", 2)],
            [[_linear(u[i]) for i in range(4)], [f"{_num(c)}*z1", f"{_num(c)}*z2"]],
            2,
            1.0,
        )
    )
    ops.append(
        _relatives(
            rng,
            "relatives/ball-vs-projective-2-p1",
            2,
            [_space("ball", 2), _space("projective", 2)],
            [["z1", "z2"], ["z1", "z2"]],
            1,
            None,
        )
    )
    # rigidity: eigenvalue products, isometry factor (p < m), Ricci (equal dims)
    u = _isometry(rng, 3, 2)
    ops.append(
        _rigidity(
            rng,
            "rigidity/iso-ball-2-3-p1",
            _space("ball", 2),
            _space("ball", 3),
            [_linear(u[i]) for i in range(3)],
            1,
            {"eigen_products": _ok(), "isometry_factor": _ok(1.0)},
        )
    )
    for kind, n, p in (("ball", 3, 1), ("ball", 3, 2), ("projective", 2, 1)):
        comps = _fraction_map(_automorphism(rng, kind, n))
        ops.append(
            _rigidity(
                rng,
                f"rigidity/aut-{kind}-{n}-p{p}",
                _space(kind, n),
                _space(kind, n),
                comps,
                p,
                {"eigen_products": _ok(), "isometry_factor": _ok(1.0), "ricci_pullback": _ok()},
            )
        )
    ops.append(
        _rigidity(
            rng,
            "rigidity/veronese-2-d2-p1",
            _space("projective", 2),
            _space("projective", 5),
            _veronese_map(rng, 2, ["z1", "z2"]),
            1,
            {"eigen_products": _ok(), "isometry_factor": _ok(2.0)},
        )
    )
    scale = rng.uniform(1.3, 2.0)
    u = scale * _isometry(rng, 3, 2)
    ops.append(
        _rigidity(
            rng,
            "rigidity/scaled-euclidean-2-3-p1",
            _space("euclidean", 2),
            _space("euclidean", 3),
            [_linear(u[i]) for i in range(3)],
            1,
            {"eigen_products": _ok(), "isometry_factor": _ok(scale**2)},
        )
    )
    for p, checks in (
        (1, {"eigen_products": _FAIL, "isometry_factor": _FAIL, "ricci_pullback": _ok()}),
        (2, {"eigen_products": _ok(), "ricci_pullback": _ok()}),
    ):
        ops.append(
            _rigidity(
                rng,
                f"rigidity/flat-example-2-p{p}",
                _space("euclidean", 2),
                _space("euclidean", 2),
                _flat_example(rng, 2, 2, 1.0),
                p,
                checks,
                radius=0.5,
            )
        )
    return ops


# Levi sample counts by base dimension: fewer where a single point costs
# C(n,p)^2 curvature blocks, so a pass stays under a second (see
# PULLBACK_COUNT).
LEVI_COUNT = {2: 5, 3: 5, 4: 2, 5: 1}


def levi_ops(rng) -> list:
    ops = []
    for kind in ("projective", "ball"):
        for n in range(2, 6):
            for p in range(1, n + 1):
                c = math.comb(n, p)
                sig = [0, 0, n + c - 1] if kind == "ball" else [n, 0, c - 1]
                scenario = {
                    "mode": "levi",
                    "source": _space(kind, n),
                    "p": p,
                    "r": float(rng.uniform(0.5, 2.0)),
                    "sampling": {"count": LEVI_COUNT[n], "seed": int(rng.integers(0, 2**31))},
                    "expect": {"signature": sig},
                }
                ops.append(
                    _op(f"levi/{kind}-{n}-p{p}", scenario, 0, {"levi_signature": {"verdict": "PASS", "signature": sig}})
                )
    return ops


def _umehara(op_id, name, params, orders, verdict, ranks=None) -> dict:
    scenario = {
        "mode": "umehara",
        "series": {"name": name, "params": params},
        "orders": list(orders),
        "expect": {"verdict": verdict},
    }
    check = {"verdict": "PASS"}
    if ranks is not None:
        check["rankTable"] = [[n, r] for n, r in zip(orders, ranks)]
    return _op(op_id, scenario, 0, {"rank_growth": check})


def ranks_ops(rng) -> list:
    ops = []
    slice_orders = (30, 60, 90, 120)
    for name, ps in (("ball_slice", (1, 2, 3, 4)), ("proj_slice", (1, 2, 3))):
        for p in ps:
            for k, orders in enumerate((slice_orders, slice_orders[:3])):
                ops.append(
                    _umehara(f"ranks/{name}-p{p}-{k}", name, {"p": p}, orders, "growing", [n + 1 for n in orders])
                )
    # |F|^2 of k generic polynomials of degree d in z1: rank min(k, d + 1)
    for k, d in ((1, 3), (2, 1), (2, 4), (3, 2), (3, 5), (4, 2), (4, 6), (5, 3), (6, 4), (6, 8), (8, 5), (8, 9), (3, 9), (5, 7)):
        comps = [_poly(_complex_normal(rng, d + 1)) for _ in range(k)]
        orders = (10, 40, 80, 120)
        ops.append(
            _umehara(f"ranks/abs_square-k{k}-d{d}", "abs_square", {"map": comps}, orders, "bounded", [min(k, d + 1)] * 4)
        )
    # psi(p, F) = (1 + |F|^2)^(2p) * ball_slice(p): rank keeps growing
    for p, k, d, orders in (
        (1, 1, 1, (8, 16, 24)),
        (1, 1, 2, (8, 16, 24)),
        (1, 2, 2, (10, 20, 30)),
        (1, 2, 3, (10, 20, 30)),
        (1, 1, 3, (12, 18, 24)),
        (1, 3, 2, (12, 18, 24)),
        (2, 1, 1, (8, 16, 24)),
        (2, 1, 2, (8, 16, 24)),
        (2, 2, 2, (10, 20, 30)),
        (2, 2, 1, (10, 20, 30)),
        (2, 1, 3, (12, 18, 24)),
        (3, 1, 1, (10, 20, 30)),
    ):
        comps = [_poly(np.concatenate(([0.0], 0.5 * _complex_normal(rng, d)))) for _ in range(k)]
        ops.append(_umehara(f"ranks/psi-p{p}-k{k}-d{d}", "psi", {"p": p, "map": comps}, orders, "growing"))
    return ops


def suite_ops(rng) -> list:
    """The library's pinned battery: every check PASS."""
    return [{"id": "suite/battery", "argv": ["suite"], "scenario": {"mode": "suite"}, "expect": {"exit": 0, "checks": {}}}]


_GENERATORS = {"suite": suite_ops, "pullback": pullback_ops, "levi": levi_ops, "ranks": ranks_ops}


def generate(workload: str, seed: int) -> list:
    """The op list of ``workload`` for ``seed``; equal seeds give equal lists."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _GENERATORS[workload](rng)
    for op in ops:
        op["known_defect"] = op["id"] in KNOWN_DEFECTS
    return ops
