"""The decay lemma and the certified integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seacausal import chain, gk, quadrature
from seacausal.kernel import RegKernelParams, kernel_p
from seacausal.quadrature import (decay_lower_bound, ell_varied,
                                  exponent_exact, integrate_lagrangian,
                                  integrate_p4, mc_p4_at_x, p_norm_radial)

INTEGRAL_TOL = 0.005
PARAMS = RegKernelParams(1.0, 0.1)

# values fixed from runs of this deterministic code path; any drift in
# the quadrature chain shows up here.  Each is twice the box [0, 4T] x
# [0, Rbig] refined from one heap.  The independent "p4@0.1" of
# bench/refs.json reads 0.004268224431688537 (this value -3.31e-5
# relative from it, against a certified 1.6e-3), and the box on the
# second partition (band 4 eps_chain, corner 2 delta) at tol_rel 1e-8,
# plus the closures, 0.004268221374970692
FROZEN_P4 = 0.00426808294323429
# the p4 box refinement, pinned bitwise: value (as the CSV prints it) and
# panel count
FROZEN_P4_EXACT = 0.004268082943234294
FROZEN_P4_PANELS = 20
# the Lagrangian's box panel count at eps = 0.1, on its partition cut
# along the kink b = 0
FROZEN_LAGRANGIAN_PANELS = 13
# the independent "lagrangian@0.1" of bench/refs.json reads
# 6.139239596111072e-07 (this value +1.65e-5 relative from it, against a
# certified 2.2e-3), and the box on the cone partition at tol_rel 1e-8,
# plus the closures, 6.139191729333015e-07
FROZEN_LAGRANGIAN = 6.139340702209918e-07
# int L d^4 xi at m = 1, eps = 0.05 by an independent route: one
# tolerance-driven 2-D Gauss-Kronrod pass over growing boxes [0, T] x
# [0, 1.2 T] without the certified tail or retry loop (bench/make_refs.py,
# "lagrangian@0.05" in bench/refs.json: 4.7480e-6 at T = 320, 4.7483e-6
# at T = 1280)
REF_LAGRANGIAN_EPS005 = 4.748e-6


class TestPanels:
    def test_polynomial_exactness_1d(self):
        val, err, _ = gk.integrate_1d(lambda x: x ** 10, 0.0, 2.0,
                                      tol_abs=1e-14)
        assert val == pytest.approx(2.0 ** 11 / 11.0, rel=1e-13)

    def test_oscillatory_1d(self):
        val, _, _ = gk.integrate_1d(np.cos, 0.0, 10.0, tol_abs=1e-12)
        assert val == pytest.approx(np.sin(10.0), abs=1e-11)

    def test_product_2d(self):
        def f(x, y):
            return (x * x * np.exp(-y))[:, None]
        val, _, _ = gk.integrate_2d(f, (0.0, 1.0, 0.0, 2.0), tol_abs=1e-12)
        want = (1.0 / 3.0) * (1.0 - np.exp(-2.0))
        assert float(val[0]) == pytest.approx(want, rel=1e-10)


class TestRegions:
    # the lemma gives a constant on C2 (r >= t / lam) and on C1- (t <= r
    # < t / lam) with t >= 1, and none on C0 and C1+
    def test_named_points(self):
        # C2 at (1, 10) and C1- at (2, 2.2) carry their own constants
        assert decay_lower_bound([1.0, 2.0], [10.0, 2.2], 0.1, 0.9) \
            == pytest.approx([np.sqrt(0.5 * (0.2 + 0.19 * 100.0)),
                              np.sqrt(0.1) * 2.0 ** 0.1], rel=1e-12)

    def test_time_slice_rejected(self):
        with pytest.raises(ValueError):
            decay_lower_bound(0.0, 1.0, 0.1, 0.8)
        with pytest.raises(ValueError):
            decay_lower_bound([1.0, 0.0], [1.0, 1.0], 0.1, 0.8)

    def test_parameter_range(self):
        for lam in (0.4, 0.5, 1.0, [0.8, 1.0]):
            with pytest.raises(ValueError):
                decay_lower_bound(1.0, 1.0, 0.1, lam)

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(min_value=0.01, max_value=20.0),
           r=st.floats(min_value=0.0, max_value=30.0),
           lam=st.floats(min_value=0.55, max_value=0.95))
    def test_finite_exactly_where_the_lemma_applies(self, t, r, lam):
        bound = decay_lower_bound(t, r, 0.1, lam)
        assert np.isfinite(bound) == (r >= t / lam or (r >= t and t >= 1.0))
        assert np.isfinite(decay_lower_bound(-t, r, 0.1, lam)) \
            == np.isfinite(bound)


class TestExponent:
    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(min_value=-20.0, max_value=20.0),
           r=st.floats(min_value=0.0, max_value=20.0),
           eps=st.floats(min_value=0.05, max_value=1.0))
    def test_matches_principal_square_root(self, t, r, eps):
        z = -((t + 1j * eps) ** 2) + r * r
        want = np.sqrt(z).real
        assert exponent_exact(t, r, eps) == pytest.approx(want, abs=1e-12,
                                                          rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(min_value=-20.0, max_value=20.0),
           r=st.floats(min_value=0.0, max_value=20.0),
           eps=st.floats(min_value=1e-4, max_value=0.05))
    def test_small_regularization_looser(self, t, r, eps):
        # deep timelike points with tiny eps lose digits to cancellation
        # in either evaluation route; only agreement to the conditioning
        # level is meaningful there
        z = -((t + 1j * eps) ** 2) + r * r
        want = np.sqrt(z).real
        assert exponent_exact(t, r, eps) == pytest.approx(want, abs=1e-8,
                                                          rel=1e-6)

    def test_lower_bound_named_values(self):
        # steep-cone point
        v = decay_lower_bound(4.0, 4.0, 0.25, 0.8)
        assert v == pytest.approx(0.5 * 4.0 ** 0.2, rel=1e-12)
        assert v <= exponent_exact(4.0, 4.0, 0.25)
        # far-sideways point
        v = decay_lower_bound(1.0, 10.0, 0.1, 0.8)
        assert v == pytest.approx(np.sqrt(0.5 * (0.2 + 0.36 * 100.0)),
                                  rel=1e-12)
        assert v <= exponent_exact(1.0, 10.0, 0.1)

    def test_lower_bound_never_exceeds_exact(self):
        # one array of draws, at least 2000 of them where the lemma applies
        rng = np.random.default_rng(41)
        t, r, eps, lam = rng.uniform((0.01, 0.0, 1e-3, 0.55),
                                     (20.0, 40.0, 1.0, 0.95), (8000, 4)).T
        bound = decay_lower_bound(t, r, eps, lam)
        has = np.isfinite(bound)
        assert np.count_nonzero(has) >= 2000
        assert np.all(bound[has] <= exponent_exact(t, r, eps)[has]
                      * (1 + 1e-12))

    def test_regions_without_constants_rejected(self):
        # C0 at (2, 0), C1+ at (0.5, 0.4) and C1- below t = 1 at (0.5, 0.6)
        # get no bound, alone and inside an array with a C2 point
        for t, r in ((2.0, 0.0), (0.5, 0.4), (0.5, 0.6)):
            assert np.isnan(decay_lower_bound(t, r, 0.1, 0.8))
        bound = decay_lower_bound([2.0, 1.0], [0.0, 10.0], 0.1, 0.8)
        assert np.isnan(bound[0]) and np.isfinite(bound[1])


class TestKernelNormClosedForm:
    def test_matches_svd(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = rng.uniform(-3.0, 3.0)
            r = rng.uniform(0.0, 3.0)
            ec = rng.uniform(0.05, 1.0)
            mat = kernel_p(np.array([t, r, 0.0, 0.0]), np.zeros(4),
                           RegKernelParams(1.0, ec)).matrix
            assert float(p_norm_radial(t, r, ec, 1.0)) == pytest.approx(
                np.linalg.norm(mat, 2), rel=1e-12)


class TestCertifiedIntegrals:
    def test_p4_frozen_and_certified(self):
        rep = integrate_p4(PARAMS, tol=INTEGRAL_TOL)
        assert rep.value == pytest.approx(FROZEN_P4, rel=1e-9)
        assert rep.abs_error_estimate >= 0.0
        assert rep.tail_bound >= 0.0
        assert rep.abs_error_estimate + rep.tail_bound \
            <= INTEGRAL_TOL * rep.value

    def test_p4_refinement_pinned(self):
        rep = integrate_p4(PARAMS, tol=INTEGRAL_TOL)
        assert rep.value == FROZEN_P4_EXACT
        assert rep.regions_evaluated == FROZEN_P4_PANELS

    def test_lagrangian_frozen_and_bounded(self):
        rep = integrate_lagrangian(PARAMS, tol=INTEGRAL_TOL)
        assert rep.value == pytest.approx(FROZEN_LAGRANGIAN, rel=1e-9, abs=0.0)
        assert rep.abs_error_estimate + rep.tail_bound \
            <= INTEGRAL_TOL * rep.value

    def test_lagrangian_refinement_pinned(self):
        rep = integrate_lagrangian(PARAMS, tol=INTEGRAL_TOL)
        assert rep.regions_evaluated == FROZEN_LAGRANGIAN_PANELS

    def test_lagrangian_small_eps_grows_domain(self):
        # the box [0, 12] x [0, 14.4] is too small at eps = 0.05: every
        # retry of the certified loop must grow the domain to converge
        rep = integrate_lagrangian(RegKernelParams(1.0, 0.05),
                                   tol=INTEGRAL_TOL, T=12.0, R=14.4)
        assert rep.extras["attempts"] == 2
        assert rep.truncation_T > 12.0
        assert rep.abs_error_estimate + rep.tail_bound \
            <= INTEGRAL_TOL * rep.value
        assert rep.value == pytest.approx(REF_LAGRANGIAN_EPS005, rel=0.005)

    def test_lagrangian_small_eps_default_domain_one_attempt(self):
        rep = integrate_lagrangian(RegKernelParams(1.0, 0.05),
                                   tol=INTEGRAL_TOL)
        assert rep.extras["attempts"] == 1
        assert rep.truncation_T == 40.0
        assert rep.value == pytest.approx(REF_LAGRANGIAN_EPS005, rel=0.005)

    def test_small_eps_converges_below_cap(self):
        # the corner box holds the blob at the origin and the band the
        # ridge along r = t, so small eps needs about as many panels as
        # eps = 0.1; on one root box the Lagrangian took 9937 panels at
        # eps = 0.0125 and ran into the 20 001-panel cap at 0.00625
        for integrate in (integrate_p4, integrate_lagrangian):
            for eps in (0.0125, 0.00625):
                rep = integrate(RegKernelParams(1.0, eps), tol=INTEGRAL_TOL)
                assert rep.regions_evaluated <= 200
                assert rep.abs_error_estimate + rep.tail_bound \
                    <= INTEGRAL_TOL * rep.value
        eps = 0.0125
        rep = integrate_p4(RegKernelParams(1.0, eps), tol=INTEGRAL_TOL)
        assert rep.extras["attempts"] == 1
        # eps^8 int |P^{2 eps}|^4 is the integral at mass eps and
        # regularization 1, so it barely moves between small eps
        near = integrate_p4(RegKernelParams(1.0, 0.025), tol=INTEGRAL_TOL)
        assert eps ** 8 * rep.value == pytest.approx(0.025 ** 8 * near.value,
                                                     rel=0.01, abs=0.0)

    def test_ell_at_zero_shift_reduces(self):
        rep0 = ell_varied(0.0, PARAMS, tol=INTEGRAL_TOL)
        base = integrate_lagrangian(PARAMS, tol=INTEGRAL_TOL)
        assert rep0.value == base.value  # identical code path, bitwise

    def test_value_grows_as_regularization_shrinks(self):
        coarse = integrate_p4(RegKernelParams(1.0, 0.2), tol=INTEGRAL_TOL)
        assert coarse.value < FROZEN_P4

    def test_report_counts_attempts_and_tail_panels(self):
        rep = integrate_p4(PARAMS, tol=INTEGRAL_TOL)
        assert rep.extras["attempts"] == 1
        assert rep.extras["interior_panels"] == rep.regions_evaluated
        # the corner, the strip and two log-t pieces of four cone roots
        assert rep.extras["interior_roots"] == 10
        assert rep.extras["tail_panels_1d"] > 0
        # the closures alone make the bound
        assert rep.tail_bound == pytest.approx(
            2.0 * (rep.extras["tail_rem_t"] + rep.extras["tail_rem_r"]),
            rel=1e-12, abs=0.0)
        # and the box [0, 4T] x [0, Rbig] alone makes the value
        f = quadrature._integrand_factory("p4", PARAMS)
        box, err, _ = gk.integrate_2d(
            f, quadrature._interior_roots(160.0, 192.0, 0.2), tol_abs=0.0,
            tol_rel=0.5 * INTEGRAL_TOL)
        assert rep.value == 2.0 * float(box[0])
        assert rep.abs_error_estimate == 2.0 * err

    @pytest.mark.parametrize("integrate", [integrate_p4,
                                           integrate_lagrangian])
    def test_mass_scaling_covariance(self, integrate):
        # P_m^eps(xi) = m^3 P_1^{m eps}(m xi), so at (m, eps/m, T/m, R/m)
        # the integrals are m^8 times the m = 1 ones; powers of two keep
        # every node and Bessel argument exact
        base = integrate(PARAMS, tol=INTEGRAL_TOL)
        for m in (0.5, 2.0, 4.0):
            rep = integrate(RegKernelParams(m, PARAMS.eps / m),
                            tol=INTEGRAL_TOL, T=40.0 / m, R=48.0 / m)
            assert rep.value == m ** 8 * base.value
            assert rep.tail_bound == pytest.approx(m ** 8 * base.tail_bound,
                                                   rel=1e-12, abs=0.0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            integrate_p4(PARAMS, tol=0.0)

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            ell_varied(-0.2, PARAMS)


def assert_tiles(roots, box):
    """The roots alone, unrefined, integrate 1 and a polynomial in (t, r)
    exactly over box = (t0, t1, r0, r1), and no root has a negative
    Jacobian, which could cancel an overlap: no gap and no overlap."""
    for (a, b, _, _), chart in roots:
        _, jac = chart(np.array([a, b]), np.zeros(2))
        assert np.all(jac >= 0.0)

    def moments(t, r):
        return np.stack([np.ones_like(t), t ** 3 * r * r - 2.0 * t * r ** 4
                         + r], axis=-1)
    value, _, count = gk.integrate_2d(moments, roots, tol_abs=0.0,
                                      max_panels=len(roots))
    assert count == len(roots)
    t0, t1, r0, r1 = box

    def t(k):
        return (t1 ** k - t0 ** k) / k

    def r(k):
        return (r1 ** k - r0 ** k) / k
    want = [t(1) * r(1), t(4) * r(3) - 2.0 * t(2) * r(5) + t(1) * r(2)]
    assert value == pytest.approx(want, rel=1e-12, abs=0.0)


class TestInteriorPartition:
    @pytest.mark.parametrize("T,R,eps_chain", [
        (40.0, 48.0, 0.2), (40.0, 30.0, 0.2), (12.0, 14.4, 0.2),
        (40.0, 48.0, 4.0), (40.0, 20.0, 4.0), (40.0, 48.0, 0.0125),
        (0.5, 48.0, 0.2), (0.5, 0.6, 0.2), (40.0, 40.0, 0.2),
        (40.0, 39.3, 0.2), (160.0, 192.0, 0.2), (160.0, 192.0, 2e-5),
        (160.0, 120.0, 2e-3), (24.0, 28.8, 0.2)],
        ids=["default", "R<T", "small", "eps2", "eps2-R<T", "eps-small",
             "T<tc", "T,R<tc", "R=T", "R<T<R+2delta", "box", "6-pieces",
             "4-pieces-R<T", "ratio-16"])
    def test_tiles_the_box(self, T, R, eps_chain):
        # also where the cone partition is cut into 2 to 6 pieces in log t,
        # and where T / t_c is 16 exactly (one piece)
        assert_tiles(quadrature._interior_roots(T, R, eps_chain),
                     (0.0, T, 0.0, R))

    def test_cone_aligned_roots(self):
        # at the defaults the box is [0, 160] x [0, 192]: the corner, the
        # strip above it, and for t >= t_c = 3 delta two pieces cut at
        # t_c (160 / t_c)^(1/2), each with the timelike side, two band
        # halves of width delta = 2.5 eps_chain, and the spacelike side
        roots = quadrature._interior_roots(160.0, 192.0, 0.2)
        assert len(roots) == 10
        x = np.array([0.0, 0.5, 1.0])
        edges = []
        for (t0, t1, s0, s1), chart in roots:
            assert (s0, s1) == (0.0, 1.0)
            (t, r), jac = chart(np.full(3, t1), x)
            edges.append((t0, t1, r[0], r[-1]))
            assert np.all(jac > 0)
        cut = 1.5 * math.sqrt(160.0 / 1.5)
        assert edges == pytest.approx(
            [(0.0, 1.5, 0.0, 2.0), (0.0, 1.5, 2.0, 192.0)]
            + [(a, b, lo, hi) for a, b in ((1.5, cut), (cut, 160.0))
               for lo, hi in ((0.0, b - 0.5), (b - 0.5, b), (b, b + 0.5),
                              (b + 0.5, 192.0))], rel=1e-15, abs=0.0)
        assert roots[5][0][1] == roots[6][0][0] == 1.5 * (160.0 / 1.5) ** 0.5

    def test_pieces_span_at_most_the_ratio(self):
        # k = ceil(log(T / t_c) / log 16) pieces in geometric progression
        for T, eps_chain, k in ((160.0, 0.2, 2), (160.0, 2e-3, 4),
                                (160.0, 2e-4, 5), (160.0, 2e-5, 6),
                                (24.0, 0.2, 1)):
            roots = quadrature._interior_roots(T, 1.2 * T, eps_chain)
            starts = sorted({box[0] for box, _ in roots[2:]})
            tc = quadrature._CORNER * (quadrature._BAND * eps_chain)
            assert len(starts) == k
            assert starts[0] == tc
            ends = starts[1:] + [T]
            assert max(b / a for a, b in zip(starts, ends)) \
                <= 16.0 * (1.0 + 1e-15)


def assert_covers(roots, box, n=4000):
    """Every sampled point of box = (t0, t1, r0, r1) lies in exactly one
    root, each root's Jacobian is its width hi - lo >= 0, and no root
    reaches outside the box.  Unlike `assert_tiles` this needs no
    quadrature, so it holds for curved edges, whose roots a single panel
    does not integrate exactly."""
    t0, t1, r0, r1 = box
    rng = np.random.default_rng(7)
    t = rng.uniform(t0, t1, n)
    r = rng.uniform(r0, r1, n)
    hits = np.zeros(n, dtype=int)
    for (a, b, _, _), chart in roots:
        on = (a <= t) & (t < b)
        ts = t[on]
        (_, lo), jac = chart(ts, np.zeros_like(ts))
        (_, hi), _ = chart(ts, np.ones_like(ts))
        assert np.all(jac >= 0.0)
        assert jac == pytest.approx(hi - lo, rel=1e-12, abs=1e-12 * r1)
        # hi = lo + 1 * (hi - lo) may round past the top edge
        assert np.all(lo >= r0) and np.all(hi <= r1 * (1.0 + 1e-15))
        hits[on] += (lo <= r[on]) & (r[on] < hi)
    assert np.all(hits == 1)


class TestLagrangianPartition:
    CASES = [(40.0, 48.0, 0.2), (40.0, 30.0, 0.2), (12.0, 14.4, 0.2),
             (40.0, 48.0, 4.0), (40.0, 20.0, 4.0), (40.0, 48.0, 0.0125),
             (0.5, 48.0, 0.2), (0.5, 0.6, 0.2), (40.0, 40.0, 0.2),
             (40.0, 39.3, 0.2)]
    IDS = ["default", "R<T", "small", "eps2", "eps2-R<T", "eps-small",
           "T<tc", "T,R<tc", "R=T", "R<T<R+2delta"]

    @pytest.mark.parametrize("T,R,eps_chain", CASES, ids=IDS)
    def test_tiles_the_box(self, T, R, eps_chain):
        # also where the curve leaves [0, R] (R < T, R = T) or the corner
        # is the whole box (T < t_c)
        assert_covers(quadrature._lagrangian_roots(T, R, eps_chain, 1.0),
                      (0.0, T, 0.0, R))

    @pytest.mark.parametrize("R", [48.0, 40.0, 30.0])
    def test_integrates_moments(self, R):
        # the moments of assert_tiles, each scaled to 1, refined on the
        # curved roots to 1e-12; at R <= T the curve and its band's upper
        # edge meet r = R, and the roots are cut there in t, where the
        # clip puts a kink into the edges
        T = 40.0
        want = np.array([T * R, T ** 4 / 4 * R ** 3 / 3
                         - 2.0 * T * T / 2 * R ** 5 / 5 + T * R * R / 2])

        def moments(t, r):
            return np.stack([np.ones_like(t), t ** 3 * r * r
                             - 2.0 * t * r ** 4 + r], axis=-1) / want
        value, _, _ = gk.integrate_2d(
            moments, quadrature._lagrangian_roots(T, R, 0.2, 1.0),
            tol_abs=0.0, tol_rel=1e-12)
        assert value == pytest.approx([1.0, 1.0], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("eps_chain", [0.2, 0.025])
    def test_b_changes_sign_on_the_curve(self, eps_chain):
        # the lower edge of root 1 (the corner) and of root 5 (t >= t_c)
        # is the curve; b > 0 just under it and b < 0 just above it
        roots = quadrature._lagrangian_roots(40.0, 48.0, eps_chain, 1.0)
        for (a, b, _, _), chart in (roots[1], roots[5]):
            t = np.linspace(a, b, 202)[1:-1]
            (_, curve), _ = chart(t, np.zeros_like(t))
            gap = 0.02 * np.minimum(curve, eps_chain)
            _, below = chain.invariants_from_radial(t, curve - gap,
                                                    eps_chain, 1.0)
            _, above = chain.invariants_from_radial(t, curve + gap,
                                                    eps_chain, 1.0)
            assert np.all(below > 0.0) and np.all(above < 0.0)

    def test_fewer_panels_than_the_cone_partition(self):
        for eps in (0.1, 0.05, 0.0125, 0.00625):
            f = quadrature._integrand_factory("lagrangian",
                                              RegKernelParams(1.0, eps))
            kink = gk.integrate_2d(
                f, quadrature._lagrangian_roots(40.0, 48.0, 2 * eps, 1.0),
                tol_abs=0.0, tol_rel=0.5 * INTEGRAL_TOL)[2]
            cone = gk.integrate_2d(
                f, quadrature._interior_roots(40.0, 48.0, 2 * eps),
                tol_abs=0.0, tol_rel=0.5 * INTEGRAL_TOL)[2]
            assert 2 * kink <= cone

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_a_missed_kink_costs_panels_not_accuracy(self, shift,
                                                     monkeypatch):
        # a curve half a band below the kink leaves L > 0 above it, and
        # one half a band above leaves L = 0 under it; either way the
        # interior still matches the cone partition within the errors
        eps_chain = 0.2
        f = quadrature._integrand_factory("lagrangian", PARAMS)
        cone, cone_err, _ = gk.integrate_2d(
            f, quadrature._interior_roots(40.0, 48.0, eps_chain),
            tol_abs=0.0, tol_rel=0.5 * INTEGRAL_TOL)
        fit, _, fit_count = gk.integrate_2d(
            f, quadrature._lagrangian_roots(40.0, 48.0, eps_chain, 1.0),
            tol_abs=0.0, tol_rel=0.5 * INTEGRAL_TOL)
        kink = quadrature._kink
        monkeypatch.setattr(quadrature, "_kink", lambda t, e, m: kink(
            t, e, m) + shift * quadrature._BAND * e)
        value, err, count = gk.integrate_2d(
            f, quadrature._lagrangian_roots(40.0, 48.0, eps_chain, 1.0),
            tol_abs=0.0, tol_rel=0.5 * INTEGRAL_TOL)
        assert count > 2 * fit_count
        assert abs(float(value[0]) - float(cone[0])) <= err + cone_err
        assert abs(float(fit[0]) - float(cone[0])) <= err + cone_err


class TestConeRoots:
    @pytest.mark.parametrize("box,delta", [
        ((40.0, 160.0, 0.0, 192.0), 1.0), ((0.0, 40.0, 48.0, 192.0), 1.0),
        ((0.0, 40.0, 40.0, 190.0), 1.0), ((0.0, 40.0, 30.0, 192.0), 1.0),
        ((0.0, 40.0, 39.3, 157.2), 1.0), ((2.0, 9.0, 3.0, 7.0), 1.5),
        ((0.5, 1.0, 4.0, 5.0), 0.25)],
        ids=["t-zone", "r-zone", "R=T", "R<T", "R<T<R+2delta", "r0>0",
             "off-cone"])
    def test_tiles_the_box(self, box, delta):
        assert_tiles(quadrature._cone_roots(*box, delta), box)

    def test_zones_at_the_defaults(self):
        # a box out along the cone is cut along the three lines; one above
        # it at R > T never meets them and is one root
        assert len(quadrature._cone_roots(40.0, 160.0, 0.0, 192.0, 1.0)) == 4
        assert len(quadrature._cone_roots(0.0, 40.0, 48.0, 192.0, 1.0)) == 1
        assert quadrature._cone_roots(40.0, 40.0, 0.0, 48.0, 1.0) == []


class TestTailZones:
    """The region the extension zones covered, [T, 4T] x [0, Rbig] and
    [0, T] x [R, Rbig], is now part of the one box [0, 4T] x [0, Rbig]."""

    @staticmethod
    def assert_matches_rectangle(kind, eps, T, R):
        # the box's value against a plain (t, r)-rectangle integration of
        # [0, 4T] x [0, Rbig], within both error estimates
        params = RegKernelParams(1.0, eps)
        rep = {"p4": integrate_p4,
               "lagrangian": integrate_lagrangian}[kind](
            params, tol=INTEGRAL_TOL, T=T, R=R)
        assert rep.extras["attempts"] == 1
        T2, Rbig = quadrature._tail_geometry(T, R)[:2]
        rect, rect_err, _ = gk.integrate_2d(
            quadrature._integrand_factory(kind, params),
            (0.0, T2, 0.0, Rbig), tol_abs=0.0, tol_rel=1e-4)
        assert abs(0.5 * rep.value - float(rect[0])) \
            <= 0.5 * rep.abs_error_estimate + rect_err

    @pytest.mark.parametrize("kind", ["p4", "lagrangian"])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_light_cone_zone_matches_rectangle(self, kind, eps):
        self.assert_matches_rectangle(kind, eps, 40.0, 48.0)

    def test_r_zone_at_r_equal_t(self):
        # at R = T the former r-zone touched the cone at its corner (T, R);
        # now R only sets Rbig = max(4R, 4T / 0.85 + T/20)
        self.assert_matches_rectangle("p4", 0.1, 40.0, 40.0)


class TestTailClosures:
    CASES = [(kind, eps, T) for kind in ("p4", "lagrangian")
             for eps in (0.1, 0.0125) for T in (15.0, 40.0)]

    @pytest.mark.parametrize("kind,eps,T", CASES,
                             ids=["%s-%g-%g" % c for c in CASES])
    def test_fits_match_capped_samples(self, kind, eps, T, monkeypatch):
        # cross-sections stopped at the tail's share of the tolerance fit
        # the same closures as cross-sections run to their 40-panel cap
        integrate = {"p4": integrate_p4,
                     "lagrangian": integrate_lagrangian}[kind]
        params = RegKernelParams(1.0, eps)
        rep = integrate(params, tol=INTEGRAL_TOL, T=T, R=1.2 * T)
        integrate_many = gk.integrate_many

        def capped(f, problems):
            return integrate_many(f, [
                p._replace(tol_abs=0.0, tol_rel=0.0)
                if len(p.roots[0][0]) == 2 else p for p in problems])
        monkeypatch.setattr(gk, "integrate_many", capped)
        old = integrate(params, tol=INTEGRAL_TOL, T=T, R=1.2 * T)
        assert rep.truncation_T == old.truncation_T
        assert rep.extras["tail_panels_1d"] < old.extras["tail_panels_1d"]
        for key in ("tail_fit_k_t", "tail_fit_k_r", "tail_rem_t",
                    "tail_rem_r"):
            assert rep.extras[key] == pytest.approx(old.extras[key],
                                                    rel=1e-3, abs=0.0), key
        # ln A: A within 1e-3 relative
        for key in ("tail_fit_logA_t", "tail_fit_logA_r"):
            assert rep.extras[key] == pytest.approx(old.extras[key],
                                                    rel=0.0, abs=1e-3), key

    @pytest.mark.parametrize("integrate,most", [(integrate_p4, 108),
                                                (integrate_lagrangian, 58)])
    def test_samples_stop_early(self, integrate, most):
        # eight 40-panel samples would be 328 panels; p4 stops at 108 and
        # the Lagrangian, whose sideways samples are below the floor, at 58
        rep = integrate(PARAMS, tol=INTEGRAL_TOL)
        assert rep.extras["tail_panels_1d"] <= most

    @pytest.mark.parametrize("kind", ["p4", "lagrangian"])
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_cone_cut_samples_match_one_root(self, kind, eps):
        # each along-cone sample, cut at r = t - delta, t, t + delta, reads
        # a tight integral of its section on one root within its own error
        T, R = 40.0, 48.0
        f = quadrature._integrand_factory(kind, RegKernelParams(1.0, eps))
        _, _, delta, ts, _ = quadrature._tail_geometry(T, R)
        sections = quadrature._tail_sections(
            T, R, quadrature._SECTION_SHARE * INTEGRAL_TOL)[:len(ts)]
        for t, problem, (value, err, _) in zip(
                ts, sections, gk.integrate_many(f, sections)):
            hi = t / 0.85 + T / 8.0
            cuts = [0.0, t - delta, t, t + delta, hi]
            assert [box for box, _ in problem.roots] \
                == list(zip(cuts[:-1], cuts[1:]))
            ref, ref_err, _ = gk.integrate_1d(
                lambda r: f(np.full_like(r, t), r), 0.0, hi, tol_abs=0.0,
                tol_rel=1e-10)
            assert ref_err <= 1e-10 * abs(float(ref[0]))
            assert abs(float(value[0]) - float(ref[0])) <= err


class TestIntegrandCalls:
    # one integrand call per refinement step, across the box's roots and
    # the tail's cross-sections
    @staticmethod
    def calls(integrate, monkeypatch):
        calls = []
        factory = quadrature._integrand_factory

        def counting(*args):
            f = factory(*args)

            def counted(t, r):
                calls.append(t.size)
                return f(t, r)
            return counted
        monkeypatch.setattr(quadrature, "_integrand_factory", counting)
        return integrate(PARAMS, tol=INTEGRAL_TOL), len(calls)

    def test_p4_calls(self, monkeypatch):
        rep, calls = self.calls(integrate_p4, monkeypatch)
        assert rep.value == FROZEN_P4_EXACT
        assert calls <= 8

    def test_lagrangian_calls(self, monkeypatch):
        rep, calls = self.calls(integrate_lagrangian, monkeypatch)
        assert rep.value == FROZEN_LAGRANGIAN
        assert calls <= 6


class TestLockstep:
    """The one batch of a certified attempt, the box and the eight
    cross-sections, against its sub-integrals run alone."""

    @staticmethod
    def assert_bitwise(got, want):
        assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
        assert got[1] == want[1] and got[2] == want[2]

    @pytest.mark.parametrize("integrate", [integrate_p4,
                                           integrate_lagrangian])
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_batches_replay_alone(self, integrate, eps, monkeypatch):
        batches = []
        integrate_many = gk.integrate_many

        def recording(f, problems):
            results = integrate_many(f, problems)
            batches.append((f, problems, results))
            return results
        monkeypatch.setattr(gk, "integrate_many", recording)
        rep = integrate(RegKernelParams(1.0, eps), tol=INTEGRAL_TOL)
        monkeypatch.undo()
        assert len(batches) == rep.extras["attempts"]
        f, first, got = batches[-1]
        interior = first[0]
        assert (interior.tol_abs, interior.tol_rel) == (0.0,
                                                        0.5 * INTEGRAL_TOL)
        assert len(interior.roots) == rep.extras["interior_roots"]
        self.assert_bitwise(got[0], gk.integrate_2d(
            f, interior.roots, interior.tol_abs, interior.max_panels,
            interior.tol_rel))
        assert got[0][2] == rep.regions_evaluated
        assert len(first) == 9
        for problem, run in zip(first[1:], got[1:]):
            self.assert_bitwise(run, integrate_many(f, [problem])[0])


class TestLogging:
    def test_one_record_per_attempt(self, caplog, capsys):
        with caplog.at_level("DEBUG", logger="seacausal"):
            rep = integrate_lagrangian(RegKernelParams(1.0, 0.05),
                                       tol=INTEGRAL_TOL, T=12.0, R=14.4)
        assert rep.extras["attempts"] == 2
        assert [r.name for r in caplog.records] == ["seacausal"] * 2
        assert all(r.levelname == "DEBUG" for r in caplog.records)
        first, last = (r.getMessage() for r in caplog.records)
        assert "attempt 1: T=12 R=14.4" in first
        assert "attempt 2: T=19.2 R=23.04" in last
        assert "interior %d panels" % rep.regions_evaluated in last
        # the library never prints
        assert capsys.readouterr() == ("", "")
        # the interior's panels are summed over attempts, like the tail's;
        # the Lagrangian's interior has seven roots around its kink
        assert rep.extras["interior_roots"] == 7
        assert rep.extras["interior_panels"] > rep.regions_evaluated


class TestMonteCarlo:
    def test_seed_determinism(self):
        x = np.array([1.0, 2.0, 0.0, 0.0])
        a = mc_p4_at_x(PARAMS, x, n_samples=2000, seed=99)
        b = mc_p4_at_x(PARAMS, x, n_samples=2000, seed=99)
        assert a == b

    def test_base_point_dependence_of_samples(self):
        # different base points reweight the same sample cloud
        a, _ = mc_p4_at_x(PARAMS, np.zeros(4), n_samples=2000, seed=5)
        b, _ = mc_p4_at_x(PARAMS, np.array([0.5, 1.0, 0.0, 0.0]),
                          n_samples=2000, seed=5)
        assert a != b

    def test_agrees_with_reduced_value(self):
        est, se = mc_p4_at_x(PARAMS, np.zeros(4), n_samples=20000, seed=12345)
        assert abs(est - FROZEN_P4) <= 3.0 * se + INTEGRAL_TOL * FROZEN_P4
