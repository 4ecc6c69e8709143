import math
import operator

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
from kform.scenarios import parse_scenario
from kform.spaceforms import ball, metric, projective
from kform.umehara import (
    SERIES,
    BiSeries,
    abs_square,
    ball_slice,
    builtin_series,
    coeff_rank,
    multiply,
    proj_slice,
    psi,
    rank_growth,
    series_eval,
)
from child import run_python
from kform.linalg import pow2_scaled
from oracles import coeff_rank_reference


def _diag_series(values):
    n = len(values) - 1
    c = np.zeros((n + 1, n + 1), dtype=complex)
    c[np.arange(n + 1), np.arange(n + 1)] = values
    return BiSeries(c)


def _one_minus_abs2(n):
    c = np.zeros((n + 1, n + 1), dtype=complex)
    c[0, 0] = 1.0
    c[1, 1] = -1.0
    return BiSeries(c)


def _rank_oracle(coeffs, tol=1e-10):
    # independent route: SVD rank at the same absolute threshold
    scale = np.abs(coeffs).max()
    if scale == 0:
        return 0
    return int(np.linalg.matrix_rank(coeffs, tol=tol * scale))


def _is_real_valued(s):
    # a bidegree series is a real-valued function iff its coefficients are Hermitian
    return float(np.abs(s.coeffs - s.coeffs.conj().T).max()) < 1e-12


def test_bi_series_validation():
    for shape in ((2, 3), (3, 3, 3), ()):
        with pytest.raises(DimensionError):
            BiSeries(np.zeros(shape))
    s = BiSeries(np.eye(4))
    assert s.order == 3
    assert _is_real_valued(s)
    assert BiSeries(np.ones(6)).order == 5
    with pytest.raises(AttributeError):
        s.order = 2


def test_arithmetic_requires_matching_orders():
    pairs = [(ball_slice(1, 3), ball_slice(1, 4)), (BiSeries(np.ones(4)), BiSeries(np.ones(5)))]
    pairs.append((BiSeries(np.ones(4)), ball_slice(1, 3)))  # one order, 1-D against 2-D
    for a, b in pairs:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, multiply):
            with pytest.raises(DimensionError):
                op(a, b)


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
        sa, sb = BiSeries(a), BiSeries(b)
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
        got = multiply(BiSeries(a), BiSeries(b)).coeffs
        expected = convolve2d(a, b)[:n, :n]
        bound = 1e-13 * convolve2d(np.abs(a), np.abs(b))[:n, :n]
        assert (np.abs(got - expected) <= bound).all(), n


def test_reciprocal_geometric_series():
    rec = _one_minus_abs2(6).reciprocal()
    assert_allclose(rec.coeffs, np.eye(7), atol=1e-13)


def test_reciprocal_of_cube_is_binomial_diagonal():
    n = 6
    rec = (_one_minus_abs2(n) ** 3).reciprocal()
    assert_allclose(rec.coeffs, ball_slice(2, n).coeffs, atol=1e-11)


def test_reciprocal_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        c = 0.2 * c
        c[0, 0] = 1.0 + rng.uniform(0.5, 1.5)
        s = BiSeries(c)
        back = s.reciprocal().reciprocal()
        assert_allclose(back.coeffs, s.coeffs, rtol=1e-11, atol=1e-11)


def test_power_matches_repeated_multiply():
    rng = np.random.default_rng(23)
    c = 0.3 * (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    c[0, 0] = 1.0
    s = BiSeries(c)
    product = BiSeries(np.eye(1, 49).reshape(7, 7))
    for n in range(10):
        assert_allclose((s**n).coeffs, product.coeffs, rtol=1e-12, atol=1e-12)
        product = multiply(product, s)


def test_one_and_two_dimensional_series_share_reciprocal_and_power():
    # |f|^2 has coefficients outer(f, conj(f)), so |f^n|^2 = (|f|^2)^n and |1/f|^2 = 1/|f|^2
    rng = np.random.default_rng(43)

    def abs2(f):
        return BiSeries(np.outer(f.coeffs, np.conj(f.coeffs)))

    for order in (0, 1, 4, 9):
        c = 0.5 * (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        c[0] = 2.0
        f = BiSeries(c)
        for n in range(6):
            assert_allclose(abs2(f**n).coeffs, (abs2(f) ** n).coeffs, rtol=1e-12, atol=1e-12)
        assert_allclose(abs2(f.reciprocal()).coeffs, abs2(f).reciprocal().coeffs, rtol=1e-12, atol=1e-12)


def test_slice_reciprocal_times_polynomial_is_one():
    rng = np.random.default_rng(29)
    for degree, order in ((1, 8), (3, 12), (5, 5), (6, 3)):
        poly = np.zeros(order + 1, dtype=complex)
        head = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        head[0] = 2.0 + rng.uniform()
        poly[: min(degree, order) + 1] = head[: order + 1]
        product = (BiSeries(poly).reciprocal() * BiSeries(poly)).coeffs
        assert_allclose(product, np.eye(1, order + 1)[0], atol=1e-10)
        assert_allclose((BiSeries(poly) / BiSeries(poly)).coeffs, product, atol=1e-10)


def test_reciprocal_zero_constant_raises():
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 1.0
    with pytest.raises(SingularEvaluationError):
        BiSeries(c).reciprocal()
    with pytest.raises(SingularEvaluationError):
        BiSeries(c[1]).reciprocal()


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
        a = BiSeries(herm)
        b = ball_slice(1, 4)
        assert _is_real_valued(a + b)
        assert _is_real_valued(a - b)
        assert _is_real_valued(-a)
        assert _is_real_valued(multiply(a, b))
        assert _is_real_valued(a / b)
        assert _is_real_valued(a.reciprocal())
        assert _is_real_valued(a**3)


def test_coeff_rank_basics():
    assert coeff_rank(BiSeries(np.zeros((4, 4)))) == 0
    only = np.zeros((4, 4), dtype=complex)
    only[1, 1] = 1.0
    assert coeff_rank(BiSeries(only)) == 1
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
        s = BiSeries(c)
        assert coeff_rank(s) == _rank_oracle(c)


def _both_routes(c, tol=1e-10):
    # coeff_rank divides the pivot column once, the reference every entry of the update
    got = coeff_rank(BiSeries(c), tol)
    assert got == coeff_rank_reference(c, tol)
    return got


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_coeff_rank_matches_reference_on_low_rank_products():
    rng = np.random.default_rng(41)
    for _ in range(150):
        n = int(rng.integers(2, 14))
        r = int(rng.integers(0, n + 1))
        c = _complex_normal(rng, (n, r)) @ _complex_normal(rng, (r, n))
        assert _both_routes(c) == r
        # zeroed entries can raise or lower the rank; the two routes must still agree
        c[rng.random((n, n)) < 0.3] = 0.0
        _both_routes(c)


def test_coeff_rank_matches_reference_on_permuted_block_diagonals():
    rng = np.random.default_rng(43)
    for _ in range(100):
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 5)))
        ranks = [int(rng.integers(0, k + 1)) for k in sizes]
        n = int(sizes.sum())
        c = np.zeros((n, n), dtype=complex)
        start = 0
        for k, r in zip(sizes, ranks):
            # blocks a few decades apart, each still far above the threshold
            block = _complex_normal(rng, (k, r)) @ _complex_normal(rng, (r, k))
            c[start : start + k, start : start + k] = block * 10.0 ** rng.integers(-3, 4)
            start += k
        c = c[rng.permutation(n)][:, rng.permutation(n)]
        assert _both_routes(c) == sum(ranks)


def test_coeff_rank_matches_reference_on_tied_diagonals():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        values = rng.choice([0.0, 0.5, 1.0, 3.0], size=n) * np.exp(1j * rng.choice([0.0, np.pi / 2, np.pi], size=n))
        assert _both_routes(np.diag(values)) == np.count_nonzero(values)


def test_coeff_rank_matches_reference_at_the_threshold():
    # every entry peaks in [1/2, 1) on its row and column, so pow2_scaled keeps
    # the matrix as it is and the threshold is tol * 0.75 exactly as coeff_rank forms it
    tol = 0.8
    at = tol * 0.75
    block = np.array([[0.75, 0.5], [0.5j, -0.75]])
    for edge, extra in ((np.nextafter(at, 0.0), 0), (at, 0), (np.nextafter(at, 1.0), 1)):
        diagonal = np.diag([0.75, 0.75j, edge, -0.75])
        blocks = np.zeros((3, 3), dtype=complex)
        blocks[:2, :2], blocks[2, 2] = block, edge * 1j
        for c, rank in ((diagonal, 3), (blocks, 2)):
            assert np.array_equal(pow2_scaled(c), c)
            assert _both_routes(c, tol) == rank + extra


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
        assert coeff_rank(BiSeries(rows * c * cols)) == coeff_rank(BiSeries(c)) == r


def test_empty_series_are_refused():
    with pytest.raises(DimensionError, match=r"\(0,\)"):
        BiSeries(np.zeros(0))


def test_coeff_rank_of_an_empty_block_is_refused():
    with pytest.raises(DimensionError, match=r"\(0, 0\)"):
        coeff_rank(BiSeries(np.zeros((0, 0))))


def test_series_eval_wants_a_bidegree_series():
    with pytest.raises(DimensionError, match=r"\(4,\)"):
        series_eval(BiSeries(np.ones(4)), 0.1)


def test_coeff_rank_wants_a_bidegree_series():
    with pytest.raises(DimensionError):
        coeff_rank(BiSeries(np.ones(4)))


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
        "from kform.umehara import BiSeries, coeff_rank\n"
        "@settings(max_examples=150, deadline=None, database=None)\n"
        "@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**32 - 1),\n"
        "       st.sampled_from([1e-300, 1e-18, 1e-16]))\n"
        "def bounded(n, k, seed, tol):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    u, v = (rng.normal(size=(n, min(k, n), 2)) @ [1, 1j] for _ in range(2))\n"
        "    assert coeff_rank(BiSeries(u @ v.T), tol) <= n\n"
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
        assert coeff_rank(BiSeries(c)) <= 2


def test_sum_of_r_pairs_rank_bound():
    rng = np.random.default_rng(31)
    for r in (1, 2, 3):
        for _ in range(30):
            c = np.zeros((9, 9), dtype=complex)
            for _ in range(r):
                tf = rng.normal(size=9) + 1j * rng.normal(size=9)
                tg = rng.normal(size=9) + 1j * rng.normal(size=9)
                c += np.outer(tf, np.conj(tg)) + np.outer(tg, np.conj(tf))
            assert coeff_rank(BiSeries(c)) <= 2 * r


def test_rank_invariant_under_phase_rotation():
    rng = np.random.default_rng(37)
    s = psi(1, parse_map(["0.4*z1 + 0.2", "z1^2"], 1), 8)
    base = coeff_rank(s)
    idx = np.arange(s.order + 1)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phases = np.exp(1j * theta * idx)
        rotated = BiSeries(s.coeffs * np.outer(phases, np.conj(phases)))
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


def test_series_catalogue_is_one_table():
    # the scenario parser and builtin_series both read umehara.SERIES, in its order
    assert list(SERIES) == ["abs_square", "ball_slice", "proj_slice", "psi"]
    values = {"p": 2, "map": ["z1", "0.5*z1^2"]}
    for name, (reads, build) in SERIES.items():
        params = {key: values[key] for key in reads}
        scenario = {"mode": "umehara", "series": {"name": name, "params": params}}
        scenario.update(orders=[2, 4, 6], expect={"verdict": "bounded"})
        assert parse_scenario(scenario).inputs[0] == name
        scenario["series"]["params"] = dict(params, tool=1)
        with pytest.raises(ScenarioError, match=f"series.params.tool is not read by the {name} series"):
            parse_scenario(scenario)
        args = [values["p"] if key == "p" else parse_map(values["map"], 1) for key in reads]
        assert np.array_equal(builtin_series(name, params, 6).coeffs, build(*args, 6).coeffs)
    # both slices are (1 + c |zeta|^2)^-(p+1), diagonal (-c)^k C(k+p, p), c = -1 and +1
    for p in (0, 1, 4):
        diag = np.array([math.comb(k + p, p) for k in range(9)], dtype=float)
        assert np.array_equal(ball_slice(p, 8).coeffs, np.diag(diag))
        assert np.array_equal(proj_slice(p, 8).coeffs, np.diag((-1.0) ** np.arange(9) * diag))


def test_power_validation():
    for s in (ball_slice(1, 3), BiSeries(np.ones(4))):
        with pytest.raises(ValueError):
            s ** -1
        with pytest.raises(TypeError):
            s ** 1.5
        assert_allclose((s**0).coeffs, np.eye(1, s.coeffs.size).reshape(s.coeffs.shape))
