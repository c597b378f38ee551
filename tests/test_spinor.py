"""Gamma algebra, complexified four-vectors and the spin product."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seacausal import spinor

MACH_TOL = 1e-14

four_vectors = arrays(np.float64, (4,),
                      elements=st.floats(min_value=-10.0, max_value=10.0))


class TestGammaAlgebra:
    def test_anticommutators(self):
        for i in range(4):
            for j in range(4):
                anti = (spinor.GAMMA[i] @ spinor.GAMMA[j]
                        + spinor.GAMMA[j] @ spinor.GAMMA[i])
                want = 2.0 * spinor.METRIC[i, j] * np.eye(4)
                assert np.max(np.abs(anti - want)) <= MACH_TOL

    def test_signature_vector_is_gamma0_diagonal(self):
        assert np.array_equal(np.diag(spinor.GAMMA0), [1, 1, -1, -1])

    def test_gamma0_spectral_norm(self):
        assert np.linalg.norm(spinor.GAMMA0, 2) == pytest.approx(1.0)


class TestComplexify:
    def test_examples(self):
        v = spinor.complexify(np.array([1.0, 0, 0, 0]), 0.1)
        assert np.allclose(v, [1.0 + 0.1j, 0, 0, 0])
        v = spinor.complexify(np.zeros(4), 1.0)
        assert np.allclose(v, [1j, 0, 0, 0])
        v = spinor.complexify(np.array([2.0, 1.0, -1.0, 0.0]), 0.5)
        assert np.allclose(v, [2.0 + 0.5j, 1.0, -1.0, 0.0])

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            spinor.complexify(np.zeros(4), 0.0)

    def test_neg_square_examples(self):
        z = spinor.neg_minkowski_square(spinor.complexify(np.zeros(4), 1.0))
        assert z == pytest.approx(1.0)
        z = spinor.neg_minkowski_square(
            spinor.complexify(np.array([1.0, 0, 0, 0]), 0.1))
        assert z == pytest.approx(-0.99 - 0.2j)
        z = spinor.neg_minkowski_square(
            spinor.complexify(np.array([0.0, 2.0, 0, 0]), 0.1))
        assert z == pytest.approx(4.01)

    @settings(max_examples=200, deadline=None)
    @given(xi=four_vectors, eps=st.floats(min_value=1e-3, max_value=2.0))
    def test_neg_square_avoids_excluded_ray(self, xi, eps):
        z = spinor.neg_minkowski_square(spinor.complexify(xi, eps))
        assert not (z.imag == 0 and z.real <= 0)


class TestSlash:
    def test_basis_vectors(self):
        assert np.allclose(spinor.slash([1, 0, 0, 0]), spinor.GAMMA0)
        assert np.allclose(spinor.slash([0, 0, 0, 1]), -spinor.GAMMA[3])

    @settings(max_examples=200, deadline=None)
    @given(v=four_vectors)
    def test_clifford_square(self, v):
        sq = spinor.slash(v) @ spinor.slash(v)
        vv = v @ spinor.METRIC @ v
        assert np.max(np.abs(sq - vv * np.eye(4))) <= 1e-10 * (1 + abs(vv))


class TestSpinAdjoint:
    def test_fixed_points(self):
        # 1, gamma^0 and the slash of a real vector are their own spin
        # adjoints: <a | M b> = <M a | b>
        rng = np.random.default_rng(3)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        for m in (np.eye(4), spinor.GAMMA0, spinor.slash(rng.normal(size=4))):
            assert spinor.spin_product(a, m @ b) == pytest.approx(
                spinor.spin_product(m @ a, b), rel=1e-12)

    def test_involution_and_product_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            # the spin product is Hermitian, so the adjoint is an involution
            assert spinor.spin_product(a, b) == pytest.approx(
                np.conj(spinor.spin_product(b, a)), rel=1e-12)
            # (u/ v/)* = v/* u/* = v/ u/
            su = spinor.slash(rng.normal(size=4))
            sv = spinor.slash(rng.normal(size=4))
            assert spinor.spin_product(a, su @ sv @ b) == pytest.approx(
                spinor.spin_product(sv @ su @ a, b), rel=1e-12)

    def test_compatible_with_spin_product(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        # <a | M b> = <M* a | b> with the indefinite product, where the
        # spin adjoint is M* = gamma^0 M^dagger gamma^0
        adj = spinor.GAMMA0 @ m.conj().T @ spinor.GAMMA0
        lhs = spinor.spin_product(a, m @ b)
        rhs = spinor.spin_product(adj @ a, b)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSignedMap:
    @pytest.mark.parametrize("mat", [
        spinor.GAMMA[2] @ spinor.GAMMA[3],
        spinor.METRIC @ spinor.GAMMA[:, :, 1],
        1j * np.eye(4), spinor.GAMMA[0, None, :, 2]])
    def test_matches_matmul(self, mat):
        # the real parts of v @ mat, bitwise: every product is exact
        rng = np.random.default_rng(4)
        v = rng.normal(size=(50, mat.shape[0])) \
            + 1j * rng.normal(size=(50, mat.shape[0]))
        parts = np.empty((2 * mat.shape[0], 50))
        parts[0::2], parts[1::2] = v.real.T, v.imag.T
        got = spinor.from_parts(spinor.apply_signed_map(
            parts, *spinor.signed_map(mat)))
        assert np.array_equal(got, v @ mat)

    def test_rejects_other_entries(self):
        with pytest.raises(ValueError):
            spinor.signed_map(0.5 * np.eye(4))
