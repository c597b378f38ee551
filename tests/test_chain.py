"""Closed chain eigenvalues, causal classification and the Lagrangian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seacausal import spinor
from seacausal.chain import (CausalClass, class_codes, closed_chain,
                             invariants_from_radial, lagrangian_of_b)
from seacausal.kernel import RegKernelParams
from seacausal.quadrature import p_norm_radial

EIG_REL_TOL = 1e-8
PARAMS = RegKernelParams(1.0, 0.1)


def radial(x, y):
    """(t, r) of the displacement x - y."""
    xi = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return xi[0], float(np.linalg.norm(xi[1:]))


def invariants(x, y, params=PARAMS):
    """(a, b) of the chain of P^{2eps}(x, y) P^{2eps}(y, x)."""
    return invariants_from_radial(*radial(x, y), 2.0 * params.eps, params.m)


def class_of(x, y, params=PARAMS):
    return CausalClass(class_codes(*invariants(x, y, params)).item())


def lagrangian(x, y, params=PARAMS):
    return float(lagrangian_of_b(invariants(x, y, params)[1]))


def eigensolver_pairs(mat):
    """Eigenvalues of a 4x4 matrix sorted for deterministic pairing."""
    ev = np.linalg.eigvals(mat)
    order = np.lexsort((-ev.imag, -ev.real, -np.abs(ev)))
    return ev[order]


class TestFrozenValues:
    def test_b_at_coincidence(self):
        # chain regularization 1.0: b = 4 |F(1)|^2 G(1)^2
        _, b = invariants_from_radial(0.0, 0.0, 1.0, 1.0)
        assert b == pytest.approx(1.0107e-9, rel=1e-3, abs=0.0)

    def test_lagrangian_at_coincidence(self):
        val = lagrangian(np.zeros(4), np.zeros(4), RegKernelParams(1.0, 0.5))
        assert val == pytest.approx(4.0428e-9, rel=1e-3, abs=0.0)

    def test_coincidence_is_timelike(self):
        assert class_of(np.zeros(4), np.zeros(4)) is CausalClass.Timelike

    def test_spacelike_displacement(self):
        y = np.array([0.0, 1.0, 0.0, 0.0])
        assert class_of(np.zeros(4), y) is CausalClass.Spacelike
        assert lagrangian(np.zeros(4), y) == 0.0

    def test_far_spacelike_falls_into_lightlike_band(self):
        # b underflows the classification band far out; the Lagrangian
        # still vanishes identically
        y = np.array([0.0, 5.0, 0.0, 0.0])
        assert class_of(np.zeros(4), y) is CausalClass.Lightlike
        assert lagrangian(np.zeros(4), y) == 0.0


class TestEigenvalueOracle:
    def test_multiplicity_two_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x, y = rng.normal(size=4), rng.normal(size=4)
            a, b = invariants(x, y)
            ev = eigensolver_pairs(closed_chain(x, y, PARAMS))
            scale = max(np.max(np.abs(ev)), 1e-300)
            # each closed-form eigenvalue matches two solver eigenvalues
            for lam in (a + np.sqrt(complex(b)), a - np.sqrt(complex(b))):
                close = np.abs(ev - lam) <= EIG_REL_TOL * scale
                assert np.sum(close) >= 2

    def test_trace_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            a, _ = invariants(x, y)
            tr = np.trace(closed_chain(x, y, PARAMS))
            # lambda_+ + lambda_- = 2a, each with multiplicity two
            assert tr == pytest.approx(4.0 * a, rel=1e-10, abs=1e-300)

    def test_chain_spin_self_adjoint(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            a = closed_chain(x, y, PARAMS)
            # the spin adjoint gamma^0 A^dagger gamma^0
            adj = spinor.GAMMA0 @ a.conj().T @ spinor.GAMMA0
            assert np.max(np.abs(adj - a)) \
                <= 1e-12 * np.linalg.norm(a)


class TestInvariantProperties:
    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(min_value=-8.0, max_value=8.0),
           r=st.floats(min_value=0.0, max_value=8.0),
           eps=st.floats(min_value=0.05, max_value=1.0))
    def test_a_square_dominates_b(self, t, r, eps):
        a, b = invariants_from_radial(t, r, eps, 1.0)
        assert a * a >= b - 1e-10 * (a * a + 1.0)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(min_value=-5.0, max_value=5.0),
           r=st.floats(min_value=0.0, max_value=5.0))
    def test_lagrangian_identity_and_sign(self, t, r):
        a, b = invariants_from_radial(t, r, 0.2, 1.0)
        lam_p = a + np.sqrt(complex(b))
        lam_m = a - np.sqrt(complex(b))
        lag = 4.0 * max(b, 0.0)
        assert lag >= 0.0
        assert lag == pytest.approx((abs(lam_p) - abs(lam_m)) ** 2,
                                    rel=1e-8, abs=1e-30)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert lagrangian(x, y) == pytest.approx(
                lagrangian(y, x), rel=1e-12, abs=1e-300)

    def test_rotation_invariance_of_classification(self):
        xi = np.array([0.4, 0.7, 0.0, 0.0])
        rot = np.array([0.4, 0.0, 0.7, 0.0])  # same t, same |spatial part|
        # off the lightlike band, the matrix route classifies too: a real
        # eigenvalue pair is timelike, a non-real conjugate pair spacelike
        for v in (xi, rot):
            ev = np.linalg.eigvals(closed_chain(v, np.zeros(4), PARAMS))
            real = np.max(np.abs(ev.imag)) <= EIG_REL_TOL * np.max(np.abs(ev))
            assert class_of(v, np.zeros(4)) is (
                CausalClass.Timelike if real else CausalClass.Spacelike)

    def test_lightlike_band(self):
        codes = class_codes(np.ones(4), np.array([0.0, 1e-16, 1e-3, -1e-3]))
        assert codes.tolist() == [CausalClass.Lightlike.value,
                                  CausalClass.Lightlike.value,
                                  CausalClass.Timelike.value,
                                  CausalClass.Spacelike.value]


class TestBlockIndependence:
    @pytest.mark.parametrize("block", [1000, 16383, 16384, 40000])
    def test_bits_do_not_depend_on_the_block(self, block):
        # a point's b and |P| are the bits of one call over the whole grid
        # at any block size, on both sides of the 16 384 elements where
        # numpy's temporary elision starts to reuse buffers
        tt, rr = np.meshgrid(np.linspace(-2.0, 2.0, 229),
                             np.linspace(0.0, 2.0, 251), indexing="ij")
        t, r = tt.ravel(), rr.ravel()
        whole = (invariants_from_radial(t, r, 0.1, 1.0)[1],
                 p_norm_radial(t, r, 0.1, 1.0))
        blocks = [(invariants_from_radial(t[i:i + block], r[i:i + block],
                                          0.1, 1.0)[1],
                   p_norm_radial(t[i:i + block], r[i:i + block], 0.1, 1.0))
                  for i in range(0, t.size, block)]
        for n, one in enumerate(whole):
            assert np.concatenate([b[n] for b in blocks]).tobytes() \
                == one.tobytes()


def two_operator_chain(x, y, eps1, eps2):
    """Chain of F^{eps1}(x) and F^{eps2}(y): (2 pi)^2 times the closed chain
    at the mean regularization."""
    return (2.0 * np.pi) ** 2 * closed_chain(
        x, y, RegKernelParams(1.0, (eps1 + eps2) / 2.0))


class TestMixedChain:
    def test_continuity_in_second_regularization(self):
        x = np.array([0.2, 0.1, -0.3, 0.0])
        y = np.array([-0.1, 0.2, 0.0, 0.4])
        base = two_operator_chain(x, y, 0.1, 0.1)
        devs = [np.max(np.abs(two_operator_chain(x, y, 0.1, 0.1 + d) - base))
                for d in (0.1, 0.01, 0.001)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.05 * np.max(np.abs(base))
