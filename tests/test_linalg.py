import numpy as np
import pytest

from kform.errors import DefinitenessError, DimensionError
from kform.linalg import (
    cofactor_matrix,
    det,
    generalized_eigenvalues,
    hermitian_eigen,
    hermitize,
    sign_counts,
)
from kform.ppforms import compound_matrix

from oracles import cofactor_det, random_hermitian, random_posdef, random_unitary


def test_det_pinned_values():
    assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)
    m = np.array([[2.0, 1j], [-1j, 2.0]])
    assert det(m) == pytest.approx(3.0)
    assert det(np.zeros((3, 3))) == 0.0
    assert det(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-15)


def test_det_matches_cofactor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expect = cofactor_det(a)
        got = det(a)
        assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect)), (
            f"LU det {got} vs cofactor {expect}"
        )


def test_det_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = det(a @ b)
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_single_minors_of_the_compound():
    m = np.diag([1.0, 2.0, 3.0])
    # index_basis(3, 2) is (1, 2), (1, 3), (2, 3)
    assert compound_matrix(m, 2)[2, 2] == pytest.approx(6.0)
    assert compound_matrix(m, 2)[0, 2] == pytest.approx(0.0)
    assert compound_matrix(m, 1)[1, 1] == pytest.approx(2.0)


def _oracle_cofactors(m):
    p = m.shape[0]
    return np.array([
        [(-1) ** (s + t) * cofactor_det(np.delete(np.delete(m, s, 0), t, 1)) for t in range(p)]
        for s in range(p)
    ])


def test_cofactor_matrix_matches_cofactor_oracle():
    rng = np.random.default_rng(13)
    np.testing.assert_array_equal(cofactor_matrix(np.array([[2.5j]])), [[1.0]])
    for p in range(1, 6):
        a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        singular = a.copy()
        singular[-1] = (1 - 2j) * singular[0] if p > 1 else 0.0
        for m in (a, singular):
            expect = _oracle_cofactors(m)
            scale = max(1.0, np.abs(expect).max())
            np.testing.assert_allclose(cofactor_matrix(m), expect, atol=1e-10 * scale)
        # adjugate identity m @ cof^T = det(m) I, also when det(m) = 0
        np.testing.assert_allclose(singular @ cofactor_matrix(singular).T, 0.0, atol=1e-10)


def test_hermitize_projects_to_hermitian_part():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
    np.testing.assert_allclose(h, 0.5 * (a + a.conj().T), atol=1e-15)


def test_hermitian_eigen_pinned_example():
    m = np.array([[2.0, 1j], [-1j, 2.0]])
    w, v = hermitian_eigen(m)
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)


def test_hermitian_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        h = random_hermitian(rng, n)
        w, v = hermitian_eigen(h)
        assert np.all(np.diff(w) >= -1e-14)
        np.testing.assert_allclose(
            v.conj().T @ v, np.eye(n), atol=1e-11,
            err_msg="eigenvector matrix is not unitary",
        )
        np.testing.assert_allclose(
            v @ np.diag(w) @ v.conj().T, h, atol=1e-10 * max(1.0, np.abs(h).max()),
        )


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _signature(h):
    return sign_counts(hermitian_eigen(h)[0])


def test_signature_examples_and_congruence_invariance():
    assert _signature(np.diag([-1.0, 0.0, 2.0])) == (1, 1, 1)
    assert sign_counts([-1e-12, 1e-12, 0.5]) == (0, 2, 1)
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        d = rng.choice([-1.0, 1.0, 2.5, -0.5], size=n)
        h = np.diag(d).astype(np.complex128)
        expect = sign_counts(d)
        # congruence by a random invertible matrix preserves inertia
        u = random_unitary(rng, n) @ np.diag(rng.uniform(0.5, 2.0, size=n))
        assert _signature(u @ h @ u.conj().T) == expect


def test_generalized_eigenvalues_pinned_example():
    h = np.diag([2.0, 8.0])
    g = np.diag([1.0, 2.0])
    np.testing.assert_allclose(generalized_eigenvalues(h, g), [2.0, 4.0], atol=1e-12)


def test_generalized_eigenvalues_satisfy_pencil_equation():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        h = random_hermitian(rng, n)
        g = random_posdef(rng, n)
        lams = generalized_eigenvalues(h, g)
        for lam in lams:
            d = det(h - lam * g)
            assert abs(d) <= 1e-7 * max(1.0, abs(det(g))) * max(1.0, np.abs(h).max()) ** n


def test_generalized_eigenvalues_requires_positive_base():
    h = np.eye(2)
    with pytest.raises(DefinitenessError):
        generalized_eigenvalues(h, np.diag([1.0, -1.0]))
    with pytest.raises(DefinitenessError):
        generalized_eigenvalues(h, np.diag([1.0, 0.0]))
    with pytest.raises(DimensionError):
        generalized_eigenvalues(np.eye(2), np.eye(3))


def test_stacked_eigen_solves_equal_per_matrix_calls():
    rng = np.random.default_rng(37)
    for m in range(1, 7):
        h = np.stack([random_hermitian(rng, m) for _ in range(12)])
        g = np.stack([random_posdef(rng, m) for _ in range(12)])
        w, v = hermitian_eigen(h)
        lams = generalized_eigenvalues(h, g)
        assert w.shape == lams.shape == (12, m) and v.shape == (12, m, m)
        for k in range(12):
            wk, vk = hermitian_eigen(h[k])
            np.testing.assert_array_equal(w[k], wk)
            np.testing.assert_array_equal(v[k], vk)
            np.testing.assert_array_equal(lams[k], generalized_eigenvalues(h[k], g[k]))
        # two leading axes are one stack of twelve
        np.testing.assert_array_equal(
            generalized_eigenvalues(h.reshape(3, 4, m, m), g.reshape(3, 4, m, m)),
            lams.reshape(3, 4, m),
        )
    for shape in ((0, 3, 3), (2, 0, 0)):
        w, v = hermitian_eigen(np.zeros(shape))
        assert w.shape == shape[:-1] and v.shape == shape
        assert generalized_eigenvalues(np.zeros(shape), np.zeros(shape)).shape == shape[:-1]


def test_stacked_eigen_errors_name_the_stack_index():
    rng = np.random.default_rng(41)
    h = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    g = np.stack([random_posdef(rng, 3) for _ in range(5)])

    skew = h.copy()
    skew[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="matrix at stack index 2 is not Hermitian"):
        hermitian_eigen(skew)
    with pytest.raises(ValueError, match=r"at stack index \(0, 2\) is not Hermitian"):
        generalized_eigenvalues(h.reshape(1, 5, 3, 3), skew.reshape(1, 5, 3, 3))

    broken = h.copy()
    broken[3, 1, 1] = np.nan
    with pytest.raises(ValueError, match="entries at stack index 3 must be finite"):
        hermitian_eigen(broken)
    with pytest.raises(ValueError, match="entries at stack index 3 must be finite"):
        generalized_eigenvalues(broken, g)

    indefinite = g.copy()
    indefinite[4] = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(DefinitenessError, match=r"at stack index 4 .*min eigenvalue -1"):
        generalized_eigenvalues(h, indefinite)

    # a lone matrix keeps its messages without an index
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        hermitian_eigen(skew[2])
    with pytest.raises(DefinitenessError, match="^base form is not positive definite"):
        generalized_eigenvalues(h[4], indefinite[4])
    with pytest.raises(DimensionError):
        generalized_eigenvalues(h, g[:4])
