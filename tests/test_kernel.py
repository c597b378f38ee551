"""Closed-form regularized kernel against its momentum-space oracle."""

import numpy as np
import pytest

from seacausal import kernel, spinor
from seacausal.kernel import (RegKernelParams, TWO_PI_CUBED,
                              kernel_column_partial, kernel_matrix_batch,
                              kernel_p, kernel_p_momentum_oracle, scalar_FG)

ORACLE_ABS_TOL = 1e-6
RECON_REL_TOL = 1e-12
FD_REL_TOL = 1e-6

K1_AT_ONE = 0.6019072302
K2_AT_ONE = 1.6248388986


class TestScalarFactors:
    def test_g_at_one(self):
        assert scalar_FG(1.0, 1.0)[1] == pytest.approx(
            K1_AT_ONE / TWO_PI_CUBED, rel=1e-9)

    def test_f_at_one(self):
        val = complex(scalar_FG(1.0, 1.0)[0])
        assert val.real == pytest.approx(0.0, abs=1e-15)
        assert val.imag == pytest.approx(K2_AT_ONE / TWO_PI_CUBED, rel=1e-9)

    def test_f_purely_imaginary_on_positive_axis(self):
        for z in (0.2, 1.0, 5.0):
            val = complex(scalar_FG(z, 1.3)[0])
            assert abs(val.real) <= 1e-15 * abs(val)
            assert val.imag > 0

    def test_conjugation_symmetry(self):
        z = 0.7 + 0.4j
        assert scalar_FG(np.conj(z), 1.0)[1] == pytest.approx(
            np.conj(scalar_FG(z, 1.0)[1]), rel=1e-12)

    def test_f_is_scaled_derivative_of_g(self):
        # G' = (i m/2) F, G' by central differences
        m, z, h = 1.2, 0.8 + 0.3j, 1e-6
        fd = (scalar_FG(z + h, m)[1] - scalar_FG(z - h, m)[1]) / (2.0 * h)
        assert 0.5j * m * scalar_FG(z, m)[0] == pytest.approx(
            fd, rel=FD_REL_TOL)


class TestColumnPartial:
    @staticmethod
    def _displacements():
        rng = np.random.default_rng(21)
        xi = rng.normal(size=(40, 4))
        xi[:20, 0] = np.abs(xi[:20, 0])      # future and past
        xi[20:, 0] = -np.abs(xi[20:, 0])
        return xi

    def test_column_is_kernel_column(self):
        xi = self._displacements()
        params = RegKernelParams(1.0, 0.1)
        mats = kernel_matrix_batch(xi, params)
        for mu in range(4):
            col = spinor.from_parts(
                kernel_column_partial(xi, mu, 0, params)[0])
            assert np.max(np.abs(col - mats[..., mu])) \
                <= 1e-14 * np.max(np.abs(mats))

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_partial_matches_central_differences(self, eps):
        # fourth-order central differences of kernel_matrix_batch
        xi = self._displacements()
        params = RegKernelParams(1.0, eps)
        h = 1e-4

        def column(pts, mu):
            return kernel_matrix_batch(pts, params)[..., mu]

        for mu in range(4):
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd = (8.0 * (column(xi + e, mu) - column(xi - e, mu))
                      - column(xi + 2 * e, mu) + column(xi - 2 * e, mu)) \
                    / (12.0 * h)
                dcol = spinor.from_parts(
                    kernel_column_partial(xi, mu, k, params)[1])
                rel = np.linalg.norm(dcol - fd, axis=-1) \
                    / np.linalg.norm(fd, axis=-1)
                assert np.max(rel) <= 1e-8


class TestClosedForm:
    def test_coincidence_diagonal(self):
        kv = kernel_p(np.zeros(4), np.zeros(4), RegKernelParams(1.0, 1.0))
        diag = np.real(np.diag(kv.matrix))
        assert diag == pytest.approx(
            [-4.1239e-3, -4.1239e-3, 8.9770e-3, 8.9770e-3], rel=1e-4)
        assert np.max(np.abs(kv.matrix - np.diag(diag))) <= 1e-15

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        params = RegKernelParams(1.0, 0.2)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            kv = kernel_p(x, y, params)
            recon = kv.f * spinor.slash(kv.xi_eps) + kv.g * np.eye(4)
            scale = np.linalg.norm(kv.matrix)
            assert np.max(np.abs(kv.matrix - recon)) <= RECON_REL_TOL * scale

    def test_exchange_is_spin_adjoint(self):
        rng = np.random.default_rng(12)
        params = RegKernelParams(1.0, 0.15)
        for _ in range(10):
            x, y = rng.normal(size=4), rng.normal(size=4)
            pxy = kernel_p(x, y, params).matrix
            pyx = kernel_p(y, x, params).matrix
            # P(y, x) = gamma^0 P(x, y)^dagger gamma^0
            adj = spinor.GAMMA0 @ pxy.conj().T @ spinor.GAMMA0
            assert np.max(np.abs(adj - pyx)) \
                <= 1e-12 * np.linalg.norm(pxy)

    def test_translation_invariance_exact(self):
        params = RegKernelParams(1.0, 0.1)
        x = np.array([0.3, -0.2, 0.5, 0.1])
        y = np.array([-0.1, 0.4, 0.0, 0.2])
        h = np.array([1.7, -2.3, 0.9, 4.1])
        # identical up to the rounding of the shifted displacements
        assert np.allclose(kernel_p(x, y, params).matrix,
                           kernel_p(x + h, y + h, params).matrix,
                           rtol=1e-12, atol=0.0)

    def test_batch_matches_single(self):
        params = RegKernelParams(1.0, 0.3)
        xi = np.array([[0.5, 0.1, -0.2, 0.3], [1.0, 0.0, 0.0, 0.0]])
        batch = kernel.kernel_matrix_batch(xi, params)
        for i in range(2):
            single = kernel_p(xi[i], np.zeros(4), params).matrix
            assert np.allclose(batch[i], single, rtol=0, atol=1e-15)

    def test_decay_along_rays(self):
        params = RegKernelParams(1.0, 0.1)
        for ray in ([1.0, 0, 0, 0], [1.0, 1.0, 0, 0], [0.3, 1.0, 0, 0]):
            ray = np.asarray(ray)
            norms = [np.linalg.norm(
                kernel_p(np.zeros(4), s * ray, params).matrix, 2)
                for s in (5.0, 15.0, 45.0)]
            assert norms[0] > norms[1] > norms[2]
            assert norms[2] < 0.1 * norms[0]


class TestMomentumOracle:
    @pytest.mark.parametrize("xi,m,eps", [
        (np.zeros(4), 1.0, 1.0),
        (np.array([0.5, 0.3, 0.0, 0.0]), 1.0, 0.2),
        (np.array([0.1, 2.0, 0.0, 0.0]), 1.0, 0.2),
    ])
    def test_named_points(self, xi, m, eps):
        params = RegKernelParams(m, eps)
        closed = kernel_p(xi, np.zeros(4), params).matrix
        mom, err = kernel_p_momentum_oracle(xi, np.zeros(4), params)
        assert np.max(np.abs(closed - mom)) <= ORACLE_ABS_TOL + err

    def test_random_points(self):
        rng = np.random.default_rng(21)
        params = RegKernelParams(1.0, 0.3)
        for _ in range(5):
            x, y = 0.8 * rng.normal(size=4), 0.8 * rng.normal(size=4)
            closed = kernel_p(x, y, params).matrix
            mom, err = kernel_p_momentum_oracle(x, y, params)
            assert np.max(np.abs(closed - mom)) <= ORACLE_ABS_TOL + err


def nu_pm(params):
    """(nu_minus, nu_plus): 2 pi times the first and last diagonal entry
    of the doubled-regularization kernel at coincidence."""
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    d = np.real(np.diag(kernel_p(np.zeros(4), np.zeros(4), doubled).matrix))
    return 2.0 * np.pi * d[0], 2.0 * np.pi * d[3]


class TestCoincidenceEigenvalues:
    def test_frozen_values(self):
        nm, np_ = nu_pm(RegKernelParams(1.0, 0.5))
        assert nm == pytest.approx(-2.5911e-2, rel=1e-4)
        assert np_ == pytest.approx(5.6404e-2, rel=1e-4)

    def test_diagonal_structure(self):
        params = RegKernelParams(1.0, 0.5)
        nm, np_ = nu_pm(params)
        doubled = RegKernelParams(1.0, 1.0)
        mat = 2.0 * np.pi * kernel_p(np.zeros(4), np.zeros(4), doubled).matrix
        assert np.allclose(mat, np.diag([nm, nm, np_, np_]), atol=1e-15)

    def test_growth_as_regularization_shrinks(self):
        vals = [nu_pm(RegKernelParams(1.0, e)) for e in (1.0, 0.5, 0.25)]
        assert all(nm < 0.0 < np_ for nm, np_ in vals)
        mags = [max(abs(a), abs(b)) for a, b in vals]
        assert mags[0] < mags[1] < mags[2]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RegKernelParams(0.0, 0.1)
        with pytest.raises(ValueError):
            RegKernelParams(1.0, -0.1)
