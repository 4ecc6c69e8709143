import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kform.errors import (
    DimensionError,
    PreconditionError,
    ScenarioError,
    SingularEvaluationError,
)
from kform.expressions import parse_map
from kform.ppforms import wedge_power_coeffs
from kform.spaceforms import ball, metric, projective
from kform.umehara import (
    BiSeries,
    abs_square,
    add,
    ball_slice,
    bi_series,
    builtin_series,
    coeff_rank,
    multiply,
    power,
    proj_slice,
    psi,
    rank_growth,
    reciprocal,
    series_eval,
)
from kform.umehara import _Series
from child import run_python


def _diag_series(values):
    n = len(values) - 1
    c = np.zeros((n + 1, n + 1), dtype=complex)
    c[np.arange(n + 1), np.arange(n + 1)] = values
    return bi_series(c)


def _one_minus_abs2(n):
    c = np.zeros((n + 1, n + 1), dtype=complex)
    c[0, 0] = 1.0
    c[1, 1] = -1.0
    return bi_series(c)


def _rank_oracle(coeffs, tol=1e-10):
    # independent route: SVD rank at the same absolute threshold
    scale = np.abs(coeffs).max()
    if scale == 0:
        return 0
    return int(np.linalg.matrix_rank(coeffs, tol=tol * scale))


def test_bi_series_validation():
    with pytest.raises(DimensionError):
        bi_series(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        BiSeries(order=3, coeffs=np.zeros((3, 3)))
    s = bi_series(np.eye(4))
    assert s.order == 3
    assert s.is_real_valued


def test_add_requires_matching_orders():
    with pytest.raises(DimensionError):
        add(ball_slice(1, 3), ball_slice(1, 4))


def test_multiply_pinned_difference_of_squares():
    n = 4
    plus = _diag_series([1.0, 1.0, 0.0, 0.0, 0.0])
    minus = _one_minus_abs2(n)
    prod = multiply(plus, minus)
    expected = np.zeros((n + 1, n + 1), dtype=complex)
    expected[0, 0] = 1.0
    expected[2, 2] = -1.0
    assert_allclose(prod.coeffs, expected, atol=1e-14)


def test_multiply_matches_pointwise_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = np.zeros((6, 6), dtype=complex)
        b = np.zeros((6, 6), dtype=complex)
        a[:3, :3] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b[:3, :3] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sa, sb = bi_series(a), bi_series(b)
        zeta = 0.4 * (rng.normal() + 1j * rng.normal())
        lhs = series_eval(multiply(sa, sb), zeta)
        rhs = series_eval(sa, zeta) * series_eval(sb, zeta)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_multiply_matches_convolve2d_within_error_bound():
    # independent route: the full 2-D convolution, cut to the operands' block
    from scipy.signal import convolve2d

    rng = np.random.default_rng(11)

    def entries(n):
        unit = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return unit * 10.0 ** rng.uniform(-12, 12, size=(n, n))

    for n in range(1, 41):
        a, b = entries(n), entries(n)
        got = multiply(bi_series(a), bi_series(b)).coeffs
        expected = convolve2d(a, b)[:n, :n]
        bound = 1e-13 * convolve2d(np.abs(a), np.abs(b))[:n, :n]
        assert (np.abs(got - expected) <= bound).all(), n


def test_reciprocal_geometric_series():
    rec = reciprocal(_one_minus_abs2(6))
    assert_allclose(rec.coeffs, np.eye(7), atol=1e-13)


def test_reciprocal_of_cube_is_binomial_diagonal():
    n = 6
    rec = reciprocal(power(_one_minus_abs2(n), 3))
    assert_allclose(rec.coeffs, ball_slice(2, n).coeffs, atol=1e-11)


def test_reciprocal_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        c = 0.2 * c
        c[0, 0] = 1.0 + rng.uniform(0.5, 1.5)
        s = bi_series(c)
        back = reciprocal(reciprocal(s))
        assert_allclose(back.coeffs, s.coeffs, rtol=1e-11, atol=1e-11)


def test_power_matches_repeated_multiply():
    rng = np.random.default_rng(23)
    c = 0.3 * (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    c[0, 0] = 1.0
    s = bi_series(c)
    product = bi_series(np.eye(1, 49).reshape(7, 7))
    for n in range(10):
        assert_allclose(power(s, n).coeffs, product.coeffs, rtol=1e-12, atol=1e-12)
        product = multiply(product, s)


def test_slice_reciprocal_times_polynomial_is_one():
    rng = np.random.default_rng(29)
    for degree, order in ((1, 8), (3, 12), (5, 5), (6, 3)):
        poly = np.zeros(order + 1, dtype=complex)
        head = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        head[0] = 2.0 + rng.uniform()
        poly[: min(degree, order) + 1] = head[: order + 1]
        product = (_Series(poly).reciprocal() * _Series(poly)).c
        assert_allclose(product, np.eye(1, order + 1)[0], atol=1e-10)


def test_reciprocal_zero_constant_raises():
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 1.0
    with pytest.raises(SingularEvaluationError):
        reciprocal(bi_series(c))


def test_slice_diagonals_pinned():
    assert_allclose(ball_slice(1, 4).coeffs, np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert_allclose(proj_slice(1, 4).coeffs, np.diag([1.0, -2.0, 3.0, -4.0, 5.0]))
    assert_allclose(ball_slice(2, 4).coeffs, np.diag([1.0, 3.0, 6.0, 10.0, 15.0]))


def test_slice_series_match_closed_forms():
    rng = np.random.default_rng(3)
    for p in (1, 2, 3):
        bs = ball_slice(p, 30)
        ps = proj_slice(p, 30)
        for _ in range(20):
            zeta = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
            x = abs(zeta) ** 2
            assert abs(series_eval(bs, zeta) - (1 - x) ** (-(p + 1))) < 1e-10
            assert abs(series_eval(ps, zeta) - (1 + x) ** (-(p + 1))) < 1e-10


def test_slice_series_match_metric_minors():
    # entry [0, 0] of the wedge power along (zeta, 0, ..., 0) is its (1..p) minor
    rng = np.random.default_rng(5)
    for p in (1, 2):
        bs = ball_slice(p, 30)
        ps = proj_slice(p, 30)
        for _ in range(10):
            zeta = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
            w = np.array([zeta, 0.0, 0.0])
            minor_b = wedge_power_coeffs(metric(ball(3), w), p)[0, 0]
            minor_p = wedge_power_coeffs(metric(projective(3), w), p)[0, 0]
            assert abs(series_eval(bs, zeta) - minor_b) < 1e-10
            assert abs(series_eval(ps, zeta) - minor_p) < 1e-10


def test_psi_of_zero_map_is_ball_slice():
    out = psi(1, parse_map(["0"], 1), 8)
    assert_allclose(out.coeffs, ball_slice(1, 8).coeffs, atol=1e-13)


def test_psi_of_coordinate_map_diagonal():
    # (1+x)^2/(1-x)^2 = 1 + sum_{k>=1} 4k x^k
    out = psi(1, parse_map(["z1"], 1), 8)
    expected = np.diag([1.0] + [4.0 * k for k in range(1, 9)])
    assert_allclose(out.coeffs, expected, atol=1e-12)


def test_abs_square_with_division_and_higher_vars():
    s = abs_square(parse_map(["1/(1-z1)"], 1), 6)
    assert coeff_rank(s) == 1
    assert_allclose(s.coeffs, np.ones((7, 7)), atol=1e-13)
    t = abs_square(parse_map(["z1/(1-z2)", "z2^2"], 2), 5)
    expected = np.zeros((6, 6))
    expected[1, 1] = 1.0
    assert_allclose(t.coeffs, expected, atol=1e-13)
    with pytest.raises(SingularEvaluationError):
        abs_square(parse_map(["1/z1"], 1), 4)


def test_abs_square_of_powers_is_binomial():
    # (1 + z1)^13 has Taylor coefficients C(13, j); odd and even exponent bits
    c = np.array([float(math.comb(13, j)) for j in range(9)])
    s = abs_square(parse_map(["(1+z1)^13"], 1), 8)
    assert_allclose(s.coeffs, np.outer(c, c), rtol=1e-13)


def _literal(z):
    z = complex(z)
    return f"({z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i)"


def test_abs_square_matches_fft_of_circle_samples():
    # second route: Taylor coefficients from the FFT of values on |zeta| = rho
    rng = np.random.default_rng(23)
    order, samples, rho = 8, 64, 0.5
    zeta = rho * np.exp(2j * np.pi * np.arange(samples) / samples)
    for _ in range(20):
        sources, values = [], []
        for _ in range(int(rng.integers(1, 4))):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b, c = rng.normal() + 1j * rng.normal(), rng.choice([-1, 1]) * rng.uniform(1.5, 3.0)
            poly = "+".join(f"{_literal(a[j])}*z1^{j}" for j in range(4))
            sources.append(f"{poly}+{_literal(b)}/({_literal(c)}+z1)+z2*(z1-3)^2")
            values.append(np.polyval(a[::-1], zeta) + b / (c + zeta))
        s = abs_square(parse_map(sources, 2), order)
        taylor = np.fft.fft(np.array(values), axis=1)[:, : order + 1] / samples
        taylor /= rho ** np.arange(order + 1)
        assert_allclose(s.coeffs, taylor.T @ taylor.conj(), atol=1e-10)


def test_real_symmetry_preserved_by_arithmetic():
    rng = np.random.default_rng(19)
    for _ in range(10):
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        herm = 0.1 * (raw + raw.conj().T)
        herm[0, 0] = 2.0
        a = bi_series(herm)
        b = ball_slice(1, 4)
        assert add(a, b).is_real_valued
        assert multiply(a, b).is_real_valued
        assert reciprocal(a).is_real_valued
        assert power(a, 3).is_real_valued


def test_coeff_rank_basics():
    assert coeff_rank(bi_series(np.zeros((4, 4)))) == 0
    only = np.zeros((4, 4), dtype=complex)
    only[1, 1] = 1.0
    assert coeff_rank(bi_series(only)) == 1
    for p in (1, 2, 3):
        for n in (4, 7, 10):
            assert coeff_rank(ball_slice(p, n)) == n + 1
            assert coeff_rank(proj_slice(p, n)) == n + 1


def test_coeff_rank_matches_svd_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(0, 5))
        c = np.zeros((n, n), dtype=complex)
        for _ in range(r):
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            c += np.outer(u, v)
        s = bi_series(c)
        assert coeff_rank(s) == _rank_oracle(c)


def test_coeff_rank_ignores_power_of_two_scalings():
    # rows and columns spread over 2^-100 .. 2^100 keep the rank of the
    # unscaled matrix, which a threshold on the raw maximum would lose
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, n + 1))
        u = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        v = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        c = u @ v
        rows = np.exp2(rng.integers(-100, 101, size=(n, 1)))
        cols = np.exp2(rng.integers(-100, 101, size=(1, n)))
        assert coeff_rank(bi_series(rows * c * cols)) == coeff_rank(bi_series(c)) == r


def test_coeff_rank_rejects_nonpositive_tol():
    # in a child process: before the check these tolerances never stopped
    done = run_python(
        "from kform.umehara import ball_slice, coeff_rank\n"
        "for tol in (0.0, -1.0, float('nan')):\n"
        "    try:\n"
        "        coeff_rank(ball_slice(1, 6), tol)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"rank tolerance must be positive, got {tol}" for tol in ("0.0", "-1.0", "nan")
    ]


def test_coeff_rank_is_at_most_the_block_size():
    # a hypothesis property, in a child process: roundoff taken as pivots used
    # to run the elimination far past min(R, C) steps, or without end
    done = run_python(
        "import numpy as np\n"
        "from hypothesis import given, settings, strategies as st\n"
        "from kform.umehara import bi_series, coeff_rank\n"
        "@settings(max_examples=150, deadline=None, database=None)\n"
        "@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**32 - 1),\n"
        "       st.sampled_from([1e-300, 1e-18, 1e-16]))\n"
        "def bounded(n, k, seed, tol):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    u, v = (rng.normal(size=(n, min(k, n), 2)) @ [1, 1j] for _ in range(2))\n"
        "    assert coeff_rank(bi_series(u @ v.T), tol) <= n\n"
        "bounded()\n"
    )
    assert done.returncode == 0, done.stderr


def test_pair_rank_bound():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = 8
        tf = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        tg = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        c = np.outer(tf, np.conj(tg)) + np.outer(tg, np.conj(tf))
        assert coeff_rank(bi_series(c)) <= 2


def test_sum_of_r_pairs_rank_bound():
    rng = np.random.default_rng(31)
    for r in (1, 2, 3):
        for _ in range(30):
            c = np.zeros((9, 9), dtype=complex)
            for _ in range(r):
                tf = rng.normal(size=9) + 1j * rng.normal(size=9)
                tg = rng.normal(size=9) + 1j * rng.normal(size=9)
                c += np.outer(tf, np.conj(tg)) + np.outer(tg, np.conj(tf))
            assert coeff_rank(bi_series(c)) <= 2 * r


def test_rank_invariant_under_phase_rotation():
    rng = np.random.default_rng(37)
    s = psi(1, parse_map(["0.4*z1 + 0.2", "z1^2"], 1), 8)
    base = coeff_rank(s)
    idx = np.arange(s.order + 1)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phases = np.exp(1j * theta * idx)
        rotated = bi_series(s.coeffs * np.outer(phases, np.conj(phases)))
        assert coeff_rank(rotated) == base


def test_rank_growth_psi_growing():
    table, verdict = rank_growth("psi", {"p": 1, "map": ["z1"]}, [2, 4, 6, 8, 10])
    assert [n for n, _ in table] == [2, 4, 6, 8, 10]
    ranks = [r for _, r in table]
    assert ranks == [3, 5, 7, 9, 11]
    assert verdict == "growing"


def test_rank_growth_bounded_for_finite_rank_input():
    table, verdict = rank_growth("abs_square", {"map": ["1 + 0.5*z1^2"]}, [2, 4, 6, 8])
    assert all(r == 1 for _, r in table)
    assert verdict == "bounded"


def test_rank_growth_ball_slice():
    table, verdict = rank_growth("ball_slice", {"p": 2}, [2, 4, 6, 8])
    assert [r for _, r in table] == [3, 5, 7, 9]
    assert verdict == "growing"


def test_rank_growth_reads_leading_blocks_of_one_series():
    # every truncation order is the leading block of the top-order series
    # (to roundoff: convolve2d's summation order depends on the array size),
    # and the table equals the per-order ranks exactly
    rng = np.random.default_rng(41)
    cases = [("ball_slice", {"p": 3}), ("proj_slice", {"p": 2})]
    cases += [("psi", {"p": p, "map": ["z1", "0.5*z1^2-0.25i*z1"]}) for p in (1, 2, 3)]
    for draw in range(4):
        sources = []
        for _ in range(int(rng.integers(1, 4))):
            a = 0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            b, c = rng.normal() + 1j * rng.normal(), rng.choice([-1, 1]) * rng.uniform(1.5, 3.0)
            poly = "+".join(f"{_literal(a[j])}*z1^{j}" for j in range(3))
            sources.append(f"{poly}+{_literal(b)}/({_literal(c)}+z1)")
        cases.append(("abs_square", {"map": sources}))
        if draw % 2:
            cases.append(("psi", {"p": 1, "map": sources}))
    orders = [2, 7, 15, 28, 40]
    for name, params in cases:
        per_order = [builtin_series(name, params, n) for n in orders]
        table, _ = rank_growth(name, params, orders)
        assert table == [(n, coeff_rank(s)) for n, s in zip(orders, per_order)]
        top = per_order[-1].coeffs
        for n, s in zip(orders, per_order):
            assert_allclose(top[: n + 1, : n + 1], s.coeffs, rtol=0, atol=1e-14 * np.abs(s.coeffs).max())


def test_rank_growth_validation():
    with pytest.raises(PreconditionError):
        rank_growth("ball_slice", {"p": 1}, [4, 2])
    with pytest.raises(PreconditionError):
        rank_growth("ball_slice", {"p": 1}, [])
    for orders in ([5], [2, 4]):
        with pytest.raises(PreconditionError):
            rank_growth("ball_slice", {"p": 1}, orders)
    with pytest.raises(ScenarioError):
        builtin_series("no_such_series", {}, 4)


def test_power_validation():
    with pytest.raises(ValueError):
        power(ball_slice(1, 3), -1)
    assert_allclose(power(ball_slice(1, 3), 0).coeffs[0, 0], 1.0)
