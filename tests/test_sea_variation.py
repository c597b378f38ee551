"""Local correlation operators realized through Gram data: correlations,
the joint-frame Gram matrix, operator-norm distances and the product
spectrum."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from seacausal import chain, kernel, sea_variation, spinor
from seacausal.kernel import RegKernelParams
from seacausal.sea_variation import (op_norm_difference,
                                     product_coefficient_matrix)

M = 1.0
PRODUCT_SPEC_TOL = 1e-7
ORACLE_REL_TOL = 1e-6
I4 = np.eye(4)


def mixed_correlation(x, y, eps1, eps2, a, b, m):
    """<P^{eps1}(.,x) a | P^{eps2}(.,y) b> by the correlation identity,
    -(1/2pi) <a | P^{eps1+eps2}(x,y) b>_spin."""
    p = kernel.kernel_p(x, y, RegKernelParams(m, eps1 + eps2)).matrix
    return complex(-spinor.spin_product(a, p @ b) / (2.0 * np.pi))


def gram_block(x, eps1, eps2, m):
    """8x8 Gram matrix of {P^{eps1}(.,x) e_mu} u {P^{eps2}(.,x) e_mu}."""
    frame = [(eps, mu) for eps in (eps1, eps2) for mu in range(4)]
    return np.array([[mixed_correlation(x, x, ek, el, I4[mk], I4[ml], m)
                      for el, ml in frame] for ek, mk in frame])


def pencil_norm_oracle(x, eps1, eps2, m):
    """||F^{eps1}(x) - F^{eps2}(x)|| from a 16-vector discretization.

    Compress the difference onto the span of kernel columns anchored at
    several points (including x itself, which carries the whole range of
    the difference), whiten with the Gram matrix and take the largest
    absolute eigenvalue of the compression.
    """
    x = np.asarray(x, dtype=float)
    fams = [(eps1, x), (eps2, x),
            (eps1, x + np.array([0.3, 0.1, -0.2, 0.0])),
            (eps2, x + np.array([-0.1, 0.2, 0.0, 0.25]))]
    vecs = [(eta, z, mu) for eta, z in fams for mu in range(4)]
    n = len(vecs)

    def p(a, b, eps):
        return kernel.kernel_p(a, b, RegKernelParams(m, eps)).matrix

    s = np.empty((n, n), dtype=complex)
    comp = np.empty((n, n), dtype=complex)
    for k, (hk, zk, mk) in enumerate(vecs):
        for l, (hl, zl, ml) in enumerate(vecs):
            s[k, l] = mixed_correlation(zk, zl, hk, hl, I4[mk], I4[ml], m)
            comp[k, l] = (
                -spinor.spin_product(
                    I4[mk], p(zk, x, hk + eps1) @ p(x, zl, eps1 + hl)
                    @ I4[ml])
                + spinor.spin_product(
                    I4[mk], p(zk, x, hk + eps2) @ p(x, zl, eps2 + hl)
                    @ I4[ml]))
    s = 0.5 * (s + s.conj().T)
    comp = 0.5 * (comp + comp.conj().T)
    sval, svec = np.linalg.eigh(s)
    keep = sval > 1e-10 * sval.max()
    white = svec[:, keep] / np.sqrt(sval[keep])
    c = white.conj().T @ comp @ white
    return float(np.max(np.abs(np.linalg.eigvalsh(c))))


class TestMixedCorrelation:
    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            lhs = mixed_correlation(x, y, 0.1, 0.25, a, b, M)
            rhs = np.conj(mixed_correlation(y, x, 0.25, 0.1, b, a, M))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_same_point_diagonal(self):
        # the diagonal is -(1/2pi) gamma^0 times the diagonal of the
        # doubled-regularization kernel at coincidence, whose entries are
        # the coincidence eigenvalues (nu_-, nu_-, nu_+, nu_+) over 2 pi
        d = np.real(np.diag(kernel.kernel_p(
            np.zeros(4), np.zeros(4), RegKernelParams(M, 0.2)).matrix))
        assert d[0] < 0.0 < d[3]
        vals = [mixed_correlation(np.zeros(4), np.zeros(4), 0.1, 0.1,
                                  I4[mu], I4[mu], M).real
                for mu in range(4)]
        want = -np.array([d[0], d[0], -d[3], -d[3]]) / (2.0 * np.pi)
        assert np.allclose(vals, want, rtol=1e-12)

    def test_positive_regularizations_required(self):
        # the correlation identity needs both regularizations positive
        for eps1, eps2 in ((0.0, 0.1), (0.1, -0.1)):
            with pytest.raises(ValueError):
                op_norm_difference(np.zeros(4), eps1, eps2, M)
            with pytest.raises(ValueError):
                product_coefficient_matrix(np.zeros(4), np.zeros(4), eps1,
                                           eps2, M)


class TestGramBlock:
    def test_hermitian_and_psd(self):
        for x in (np.zeros(4), np.array([0.7, -0.3, 0.2, 0.1])):
            g = gram_block(x, 0.1, 0.3, M)
            assert np.allclose(g, g.conj().T, rtol=0.0,
                               atol=1e-14 * np.trace(g).real)
            assert np.linalg.eigvalsh(g).min() >= -1e-10 * np.trace(g).real

    def test_translation_invariance(self):
        a = gram_block(np.zeros(4), 0.1, 0.3, M)
        b = gram_block(np.array([2.0, -1.0, 0.5, 0.0]), 0.1, 0.3, M)
        assert np.array_equal(a, b)


class TestOpNormDifference:
    def test_identical_regularizations_vanish(self):
        assert op_norm_difference(np.zeros(4), 0.1, 0.1, M) \
            == pytest.approx(0.0, abs=1e-9)

    def test_translation_invariance(self):
        a = op_norm_difference(np.zeros(4), 0.1, 0.25, M)
        b = op_norm_difference(np.array([1.5, 0.3, -0.7, 2.0]), 0.1, 0.25, M)
        assert a == pytest.approx(b, rel=1e-10)

    def test_monotone_in_gap(self):
        vals = [op_norm_difference(np.zeros(4), 0.1, 0.1 + d, M)
                for d in (0.01, 0.03, 0.1, 0.3)]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))

    def test_matches_discretization_oracle(self):
        x = np.array([0.4, -0.2, 0.1, 0.3])
        for eps2 in (0.15, 0.25):
            direct = op_norm_difference(x, 0.1, eps2, M)
            oracle = pencil_norm_oracle(x, 0.1, eps2, M)
            assert direct == pytest.approx(oracle, rel=ORACLE_REL_TOL)


class TestProductSpectrumOracle:
    def test_matches_mixed_chain(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            x, y = 0.6 * rng.normal(size=4), 0.6 * rng.normal(size=4)
            e1, e2 = rng.uniform(0.08, 0.4, 2)
            coeff = product_coefficient_matrix(x, y, e1, e2, M)
            ev = np.linalg.eigvals(coeff)
            # the chain of F^{e1}(x), F^{e2}(y) carries regularization
            # e1 + e2
            mixed = np.linalg.eigvals((2.0 * np.pi) ** 2 * chain.closed_chain(
                x, y, RegKernelParams(M, (e1 + e2) / 2.0)))
            scale = 1.0 + np.max(np.abs(mixed))
            # the 8x8 coefficient matrix carries the 4 chain eigenvalues
            # plus zeros
            full = np.concatenate([mixed, np.zeros(4)])
            cost = np.abs(ev[:, None] - full[None, :])
            ri, ci = linear_sum_assignment(cost)
            assert cost[ri, ci].max() <= PRODUCT_SPEC_TOL * scale

