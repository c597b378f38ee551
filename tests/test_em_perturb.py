"""Retarded Green's kernel and the first-order perturbation field."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize, special

from seacausal import em_perturb, spinor, verify
from seacausal.em_perturb import (GreenParams, Potential, convolve_S,
                                  convolve_surface, convolve_volume,
                                  psi1_on_frame)
from seacausal.kernel import RegKernelParams, kernel_p

PARAMS = RegKernelParams(1.0, 0.1)
GP = GreenParams(-0.1593, 0.0812)  # near green_constants(1.0)
Z = np.array([-0.3, 0.1, 0.0, -0.2])


def gaussian_source(center, width):
    center = np.asarray(center, dtype=float)

    def g(y):
        y = np.asarray(y, dtype=float)
        s = np.sum((y - center) ** 2, axis=-1) / width ** 2
        out = np.zeros(y.shape[:-1] + (4,), dtype=complex)
        out[..., 0] = np.exp(-s)
        return out

    return g


def ball_source(center, radius):
    """A unit scalar source on the closed 4-ball, zero outside."""
    center = np.asarray(center, dtype=float)

    def g(y):
        out = np.zeros(y.shape[:-1] + (4,), dtype=complex)
        out[..., 0] = np.sum((y - center) ** 2, axis=-1) <= radius ** 2
        return out

    return g


class TestPotential:
    def test_support_must_follow_initial_time(self):
        with pytest.raises(ValueError):
            Potential(center=np.array([0.3, 0.0, 0.0, 0.0]), radius=0.5)
        with pytest.raises(ValueError):
            Potential(radius=-0.1)

    def test_bump_vanishes_outside(self):
        pot = Potential()
        outside = np.array([[1.0, 0.6, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        assert np.all(pot.bump(outside) == 0.0)
        assert pot.bump(pot.center) == pytest.approx(1.0)

    def test_bump_gradient_matches_central_differences(self):
        pot = Potential(amplitude=1.7)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            d = rng.normal(size=4)
            y = pot.center + rng.uniform(0.0, 0.9) * pot.radius * d \
                / np.linalg.norm(d)
            fd = np.array([(pot.bump(y + h * e) - pot.bump(y - h * e))
                           / (2.0 * h) for e in np.eye(4)])
            assert np.allclose(pot.bump_and_gradient(y)[1], fd, rtol=1e-6,
                               atol=1e-8)

    def test_bump_gradient_vanishes_outside(self):
        pot = Potential()
        outside = np.array([[1.0, 0.5, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        assert np.all(pot.bump_and_gradient(outside)[1] == 0.0)


class TestGreenVolumePart:
    """The beta-part beta J1(m sqrt(xi^2))/(m sqrt(xi^2)) of the retarded
    Green's kernel on the forward cone, integrated by convolve_volume on
    the nodes where a ball source meets the past cone of x."""

    CENTER = np.array([0.5, 0.1, -0.2, 0.3])
    RADIUS = 0.5

    @staticmethod
    def h(m, t, rho):
        s = m * np.sqrt(max(t * t - rho * rho, 0.0))
        return 0.5 if s == 0.0 else special.j1(s) / s

    def volume(self, x, m):
        g = ball_source(self.CENTER, self.RADIUS)
        return convolve_volume(x, g, m, GP, self.CENTER, self.RADIUS)

    def test_outside_cone_zero(self):
        # sources in x's time window but spacelike to it, or in its
        # future, meet no point of its past cone
        x = np.array([1.0, 0.0, 0.0, 0.0])
        for c in ([1.0, 3.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]):
            out = convolve_volume(x, ball_source(c, 0.5), 1.0, GP, c, 0.5)
            assert np.max(np.abs(out)) == 0.0

    def test_interior_value(self):
        # x sits 1.5 above the ball's center, so the ball lies inside its
        # past cone and each t-slice is a whole 3-ball of radius r_t:
        # int dt int_0^r_t 4 pi rho^2 J1(m s)/(m s) drho by scipy
        tau, r2 = 1.5, self.RADIUS ** 2
        out = self.volume(self.CENTER + np.array([tau, 0.0, 0.0, 0.0]), 1.0)
        want = GP.beta_const * integrate.dblquad(
            lambda rho, t: 4.0 * np.pi * rho * rho * self.h(1.0, t, rho),
            tau - self.RADIUS, tau + self.RADIUS, 0.0,
            lambda t: np.sqrt(max(r2 - (t - tau) ** 2, 0.0)),
            epsabs=0.0, epsrel=1e-13)[0]
        assert out[0] == pytest.approx(want, rel=1e-10)
        assert np.all(out[1:] == 0.0)

    def test_continuous_limit_on_cone(self):
        # as m -> 0 the kernel tends to its value beta/2 on the cone, and
        # the volume part of a ball inside the past cone to beta/2 times
        # the ball's 4-volume pi^2 R^4 / 2; x is off the ball's axis, so
        # the spheres around x meet the t-slices in caps
        out = self.volume(self.CENTER + np.array([1.5, 0.2, 0.1, 0.0]), 1e-4)
        want = GP.beta_const * 0.5 * np.pi ** 2 * self.RADIUS ** 4 / 2.0
        assert out[0].real == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("tau", [0.3, 0.6])
    def test_ball_cut_by_cone_edge(self, tau):
        # x above the ball's center and close enough that the cone edge
        # rho = t cuts the ball (and at tau < R, x lies in the ball's time
        # range).  Oracle: scipy over the whole cone slab 0 <= rho <= t,
        # with the reach of the source in rho found by a root of the
        # pointwise membership test of the ball, so any part of the
        # support that the nodes miss shows
        x = self.CENTER + np.array([tau, 0.0, 0.0, 0.0])
        g = ball_source(self.CENTER, self.RADIUS)

        def inside(t, rho):
            return g(x - np.array([t, rho, 0.0, 0.0]))[0].real - 0.5

        def reach(t):
            if inside(t, 0.0) < 0.0:
                return 0.0
            if inside(t, t) > 0.0:
                return t
            return optimize.brentq(lambda rho: inside(t, rho), 0.0, t,
                                   xtol=1e-15)

        def slab(t):
            return integrate.quad(
                lambda rho: 4.0 * np.pi * rho * rho * self.h(1.0, t, rho),
                0.0, reach(t), epsabs=0.0, epsrel=1e-13)[0]

        want = GP.beta_const * integrate.quad(
            slab, 0.0, tau + self.RADIUS, epsabs=0.0, epsrel=1e-12,
            limit=200)[0]
        assert self.volume(x, 1.0)[0].real == pytest.approx(want, rel=1e-10)
        # the surface part: the cone t = rho meets the ball where
        # (tau - rho)^2 + rho^2 <= R^2, rho >= 0
        root = np.sqrt(2.0 * self.RADIUS ** 2 - tau ** 2)
        lo, hi = max(0.5 * (tau - root), 0.0), 0.5 * (tau + root)
        surf = convolve_surface(x, g, GP, self.CENTER, self.RADIUS)
        assert surf[0].real == pytest.approx(
            GP.alpha_const * np.pi * (hi * hi - lo * lo), rel=1e-12)


class TestGreenConstants:
    def test_closed_form_at_m2(self):
        gp = em_perturb.green_constants(2.0)
        assert gp.alpha_const == pytest.approx(-0.15915494309189535,
                                               rel=1e-15)
        assert gp.beta_const == pytest.approx(1.0 / np.pi, rel=1e-15)
        assert em_perturb.green_constants(1.0).beta_const \
            == pytest.approx(0.25 * gp.beta_const, rel=1e-15)

    @pytest.mark.parametrize("alpha_factor, beta_factor, passes", [
        (1.0, 1.0, True), (1.0, 1.005, False), (1.001, 1.0, False)])
    def test_exact_solution_oracle_detects_wrong_constants(
            self, monkeypatch, alpha_factor, beta_factor, passes):
        # verify em's green_closed_form check, at m = 1 with each constant
        # of the convolution's Green's kernel scaled
        closed = em_perturb.green_constants

        def scaled(m):
            gp = closed(m)
            return GreenParams(alpha_factor * gp.alpha_const,
                               beta_factor * gp.beta_const)

        monkeypatch.setattr(em_perturb, "green_constants", scaled)
        err = verify._green_closed_form(1.0)
        assert (err <= verify._GREEN_BOUND) is passes


class TestConvolution:
    def test_disjoint_past_cone_is_zero(self):
        g = gaussian_source([1.0, 0.0, 0.0, 0.0], 0.2)
        out = convolve_S(np.array([0.2, 0.0, 0.0, 0.0]), g, 1.0, GP,
                         np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        assert np.max(np.abs(out)) == 0.0

    def test_linearity(self):
        c = np.array([1.0, 0.0, 0.0, 0.0])
        g1 = gaussian_source(c, 0.2)
        g2 = gaussian_source(c + np.array([0.0, 0.1, 0.0, 0.0]), 0.15)

        def gsum(y):
            return g1(y) + g2(y)

        x = np.array([2.2, 0.3, 0.0, 0.1])
        lhs = convolve_S(x, gsum, 1.0, GP, c, 0.5)
        rhs = (convolve_S(x, g1, 1.0, GP, c, 0.5)
               + convolve_S(x, g2, 1.0, GP, c, 0.5))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_volume_part_fades_at_large_mass(self):
        c = np.array([1.0, 0.0, 0.0, 0.0])
        g = gaussian_source(c, 0.2)
        # x close enough that its light cone t = rho meets the support
        x = np.array([1.6, 0.1, 0.0, 0.0])
        gp1 = GreenParams(1.0, 1.0)
        ratios = []
        for m in (1.0, 5.0):
            surf = convolve_surface(x, g, gp1, c, 0.5)
            vol = convolve_volume(x, g, m, gp1, c, 0.5)
            ratios.append(np.max(np.abs(vol)) / np.max(np.abs(surf)))
        assert ratios[1] < ratios[0]


class TestFirstOrderField:
    def test_zero_outside_causal_future(self):
        pot = Potential()
        x = np.array([0.3, 0.0, 0.0, 0.0])  # before the support
        out = psi1_on_frame(x, Z, 1, pot, PARAMS, GP)
        assert np.max(np.abs(out)) == 0.0
        far = np.array([1.0, 8.0, 0.0, 0.0])  # spacelike to the support
        out = psi1_on_frame(far, Z, 1, pot, PARAMS, GP)
        assert np.max(np.abs(out)) == 0.0

    def test_linearity_in_potential_and_symmetry(self):
        x = np.array([1.6, 0.1, 0.0, 0.2])
        z2, nu = np.array([-0.2, -0.1, 0.2, 0.0]), 2
        pot = Potential(amplitude=1.0)
        pot2 = Potential(amplitude=2.0)
        doubled = RegKernelParams(PARAMS.m, 2.0 * PARAMS.eps)

        r1 = kernel_p(x, Z, doubled).matrix[:, 1]
        r2 = kernel_p(x, z2, doubled).matrix[:, nu]
        p1 = psi1_on_frame(x, Z, 1, pot, PARAMS, GP)
        p2 = psi1_on_frame(x, z2, nu, pot2, PARAMS, GP)

        # amplitude is a strict scale factor of the field
        assert np.allclose(p2, 2.0 * psi1_on_frame(x, z2, nu, pot,
                                                   PARAMS, GP),
                           rtol=1e-10, atol=0.0)

        # the two matrix elements built from the same fields are mutually
        # conjugate
        half = 0.5 * p2
        v12 = complex(-spinor.spin_product(r1, half)
                      - spinor.spin_product(p1, r2))
        v21 = complex(-spinor.spin_product(r2, p1)
                      - spinor.spin_product(half, r1))
        assert v12 == pytest.approx(np.conj(v21), rel=1e-12, abs=0.0)
        assert v12 != 0.0

    def test_dirac_source_zero_outside_support(self):
        pot = Potential()
        src = em_perturb._dirac_source(pot, ((Z, 1),), PARAMS)
        rng = np.random.default_rng(5)
        d = rng.normal(size=(200, 4))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        # on and beyond the boundary sphere of the support ball
        y = pot.center + pot.radius * rng.uniform(1.0, 3.0, (200, 1)) * d
        assert np.all(src(y) == 0.0)
        inside = src(pot.center + 0.5 * pot.radius * d)
        assert np.all(np.linalg.norm(inside, axis=-1) > 0.0)

    def test_matrix_element_matches_finite_difference_reference(self):
        # reference: an independent tight run, the support-adapted nodes
        # at twice the working orders in each of psi, rho, cos theta and
        # the azimuth (which agrees with the full-cone (t, u, Omega) grid at
        # (t, u, rho, cos theta, phi) orders (48, 36, 64, 40, 40) to 2.5e-4)
        x = np.array([1.6, 0.35, 0.1, 0.35])
        z2, nu = np.array([-0.2, -0.1, 0.2, 0.0]), 2
        ref = -5.229082451568816e-08 + 8.685119058922702e-08j
        val = em_perturb.f1_matrix_element(
            x, Z, 1, z2, nu, Potential(), PARAMS,
            em_perturb.green_constants(PARAMS.m))
        assert abs(val - ref) <= 2e-4 * abs(ref)


class TestSourceBlocks:
    """The element runs both frame vectors through one source on one node
    set, whose cap points are built and evaluated in blocks of whole node
    rows, at most _SOURCE_BLOCK points, and summed in node order."""

    Z2 = np.array([-0.2, -0.1, 0.2, 0.0])
    # verify em's point and the benchmark's
    POINTS = ((2.0, 0.2, -0.1, 0.3), (1.6, 0.35, 0.1, 0.35))

    def element(self, x):
        return em_perturb.f1_matrix_element(
            np.array(x), Z, 1, self.Z2, 2, Potential(), PARAMS,
            em_perturb.green_constants(PARAMS.m))

    @pytest.mark.parametrize("x", POINTS)
    def test_blocks_match_one_call(self, x, monkeypatch):
        blocked = self.element(x)
        monkeypatch.setattr(em_perturb, "_SOURCE_BLOCK", 10 ** 7)
        assert blocked == self.element(x)

    @pytest.mark.parametrize("block", [1, 1000])
    def test_any_block_size(self, block, monkeypatch):
        # one node row (128 points) and seven per block read the bits of
        # the default block
        x = self.POINTS[1]
        default = self.element(x)
        monkeypatch.setattr(em_perturb, "_SOURCE_BLOCK", block)
        assert self.element(x) == default

    def test_block_sizes(self, monkeypatch):
        sizes, frames = [], []
        dirac_source = em_perturb._dirac_source

        def counted(a, fr, params):
            frames.append(len(fr))
            src = dirac_source(a, fr, params)

            def values(ys):
                sizes.append(len(ys))
                return src(ys)
            return values

        monkeypatch.setattr(em_perturb, "_dirac_source", counted)
        self.element(self.POINTS[1])
        assert frames == [2]
        assert max(sizes) <= em_perturb._SOURCE_BLOCK
        assert sum(sizes) > 4 * em_perturb._SOURCE_BLOCK

    @pytest.mark.parametrize("x", POINTS)
    def test_two_frames_match_one_frame_calls(self, x):
        # the two-frame pass gives each frame's field bitwise, and the
        # element is built from those fields
        x = np.array(x)
        gp = em_perturb.green_constants(PARAMS.m)
        a = Potential()
        src = em_perturb._dirac_source(a, ((Z, 1), (self.Z2, 2)), PARAMS)
        both = -convolve_S(x, src, PARAMS.m, gp, a.center, a.radius)
        p1 = psi1_on_frame(x, Z, 1, a, PARAMS, gp)
        p2 = psi1_on_frame(x, self.Z2, 2, a, PARAMS, gp)
        assert np.array_equal(both, np.concatenate([p1, p2]))
        doubled = RegKernelParams(PARAMS.m, 2.0 * PARAMS.eps)
        r1 = kernel_p(x, Z, doubled).matrix[:, 1]
        r2 = kernel_p(x, self.Z2, doubled).matrix[:, 2]
        assert self.element(x) == complex(-spinor.spin_product(r1, p2)
                                          - spinor.spin_product(p1, r2))

    def test_empty_node_set_gives_zeros_of_the_source_width(self):
        # x before the support: no node, and the source runs on no point
        widths = []
        src = em_perturb._dirac_source(Potential(), ((Z, 1), (self.Z2, 2)),
                                       PARAMS)

        def g(ys):
            out = src(ys)
            widths.append(out.shape)
            return out

        out = convolve_S(np.array([0.3, 0.0, 0.0, 0.0]), g, 1.0, GP,
                         Potential().center, Potential().radius)
        assert out.shape == (8,) and np.all(out == 0.0)
        assert widths == [(0, 8), (0, 8)]


class TestElementMemory:
    """One element's working set is one block, whatever the node count."""

    @staticmethod
    def traced_peak(x):
        tracemalloc.start()
        try:
            em_perturb.f1_matrix_element(
                np.array(x), Z, 1, TestSourceBlocks.Z2, 2, Potential(),
                PARAMS, em_perturb.green_constants(PARAMS.m))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_bounded_by_the_block(self, monkeypatch):
        # about 4.7 MB at verify em's x_in, and 0.1 MB more at twice the
        # psi and rho orders; with the cap points built for all nodes it
        # was 16.7 and 51.9 MB
        x_in = TestSourceBlocks.POINTS[0]
        peak = self.traced_peak(x_in)
        assert peak <= 8e6
        monkeypatch.setattr(em_perturb, "_N_PSI", 2 * em_perturb._N_PSI)
        monkeypatch.setattr(em_perturb, "_N_RHO", 2 * em_perturb._N_RHO)
        assert self.traced_peak(x_in) < peak + 1e6
