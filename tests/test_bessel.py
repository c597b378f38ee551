"""The pair (K1, K2) on the cut plane, and the K0 inside K2."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv

from seacausal.bessel import BesselDomainError, bessel_k12, j1_over_x

REL_TOL = 1e-10
ORACLE_REL_TOL = 1e-10
MPMATH_REL_TOL = 1e-13


def k_integral_oracle(n, x):
    """K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt for real x > 0."""
    tmax = np.arccosh(700.0 / x) if x < 700.0 else 1.0
    val, err = quad(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(n * t),
                    0.0, tmax, limit=200)
    return val


def cut_plane_points():
    return st.builds(
        lambda r, frac: r * np.exp(1j * frac * np.pi),
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=-0.999, max_value=0.999),
    )


def k_n(n, z):
    """K_n(z) for n in {1, 2} from the public pair."""
    return bessel_k12(z)[n - 1]


class TestFrozenValues:
    def test_k1_at_one(self):
        assert k_n(1, 1.0) == pytest.approx(0.6019072302, rel=1e-9)

    def test_k2_at_one(self):
        # K2 = K0 + 2 K1 at z = 1
        assert k_n(2, 1.0) == pytest.approx(1.6248388986, rel=1e-9)

    def test_large_argument_envelope(self):
        # K1(10) within 5% of sqrt(pi/20) e^{-10}
        ref = np.sqrt(np.pi / 20.0) * np.exp(-10.0)
        assert k_n(1, 10.0) == pytest.approx(ref, rel=0.05)

    def test_small_argument_law(self):
        # K1(z) ~ 1/z and K2(z) ~ 2/z^2 as z -> 0
        assert k_n(1, 1e-3) == pytest.approx(1000.0, rel=1e-3)
        assert k_n(2, 1e-3) == pytest.approx(2e6, rel=1e-3)


class TestIntegralOracle:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 3.0, 7.5, 15.0, 30.0])
    def test_positive_axis(self, n, x):
        # n = 0 checks the K0 that K2 is built from: K2 - (2/z) K1
        k1, k2 = bessel_k12(x)
        got = complex(k2 - (2.0 / x) * k1 if n == 0 else (k1, k2)[n - 1])
        assert got.imag == pytest.approx(0.0, abs=1e-300)
        assert got.real == pytest.approx(k_integral_oracle(n, x),
                                         rel=ORACLE_REL_TOL)


def mpmath_k12(z):
    """K1, K2 at 40 significant digits, rounded to complex."""
    with mpmath.workdps(40):
        w = mpmath.mpc(z.real, z.imag)
        return np.array([complex(mpmath.besselk(n, w)) for n in (1, 2)])


def kernel_domain_points(eps, n, rng):
    """m sqrt(zeta) with zeta = r^2 - (t + i eps)^2, m = 1: half generic
    (t, r), half within a few eps of the light cone r = |t|."""
    t = rng.uniform(-50.0, 50.0, n)
    r = np.concatenate([rng.uniform(0.0, 60.0, n // 2),
                        np.abs(t[n // 2:])
                        + rng.uniform(-5.0, 5.0, n - n // 2) * eps])
    r = np.abs(r)
    return np.sqrt(-((t + 1j * eps) ** 2) + r * r)


class TestMpmathOracle:
    def check(self, z):
        got = np.stack(bessel_k12(z), axis=-1)
        want = np.array([mpmath_k12(zz) for zz in z])
        rel = np.abs(got - want) / np.abs(want)
        assert float(np.max(rel)) <= MPMATH_REL_TOL

    def test_cut_plane(self):
        rng = np.random.default_rng(20240607)
        mod = np.exp(rng.uniform(np.log(1e-6), np.log(200.0), 64))
        arg = rng.uniform(-0.999 * np.pi, 0.999 * np.pi, 64)
        self.check(mod * np.exp(1j * arg))

    @pytest.mark.parametrize("eps", [0.025, 0.05, 0.1])
    def test_kernel_domain(self, eps):
        z = kernel_domain_points(eps, 16, np.random.default_rng(11))
        assert np.all(z.real >= 0)
        self.check(z)


class TestIdentities:
    @settings(max_examples=200, deadline=None)
    @given(z=cut_plane_points())
    def test_recurrence(self, z):
        # K2 from the recurrence K0 + (2/z) K1 against AMOS's direct K2
        k2 = k_n(2, z)
        assert abs(k2 - kv(2, z)) <= 1e-10 * (1.0 + abs(k2))

    @settings(max_examples=100, deadline=None)
    @given(z=cut_plane_points())
    def test_conjugation_symmetry(self, z):
        assert k_n(1, np.conj(z)) == pytest.approx(
            np.conj(k_n(1, z)), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(min_value=0.05, max_value=40.0),
        frac=st.floats(min_value=-0.49, max_value=0.49),
        n=st.integers(min_value=1, max_value=2),
    )
    def test_magnitude_bounded_by_real_axis_value(self, r, frac, n):
        # |K_n(w)| <= K_n(Re w) in the right half plane
        w = r * np.exp(1j * frac * np.pi)
        assert abs(k_n(n, w)) <= abs(k_n(n, w.real)) * (1 + 1e-10)

    def test_exponentially_weighted_monotone(self):
        xs = np.linspace(0.1, 40.0, 400)
        vals = np.real(k_n(1, xs)) * np.exp(xs)
        assert np.all(np.diff(vals) < 0)

    def test_asymptotic_envelope_far_out(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(20.0, 60.0, 200)
        ph = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 200)
        z = r * np.exp(1j * ph)
        for n in (1, 2):
            ratio = k_n(n, z) * np.sqrt(2.0 * z / np.pi) * np.exp(z)
            # the leading correction (4n^2 - 1)/(8z) is itself ~9% for
            # n = 2 at |z| = 20, so divide it out before bounding
            ratio = ratio / (1.0 + (4.0 * n * n - 1.0) / (8.0 * z))
            assert np.max(np.abs(ratio - 1.0)) <= 0.05


class TestDomainErrors:
    def test_zero_rejected(self):
        with pytest.raises(BesselDomainError):
            bessel_k12(0.0)

    def test_negative_axis_rejected(self):
        with pytest.raises(BesselDomainError):
            bessel_k12(-2.0)

    @pytest.mark.parametrize("z", [2e9 + 0.1j, 0.1 - 5e9j, 1e10 + 0j])
    def test_beyond_amos_range_rejected(self, z):
        # scipy's kv returns nan there; at 0.1 - 5e9 i, |K| is about 1.6e-5
        with pytest.raises(BesselDomainError):
            bessel_k12(np.array([1.0, z]))

    @pytest.mark.parametrize("z,message", [
        (0.0, "K_n undefined at z = 0"),
        (-0.0 + 0j, "K_n undefined at z = 0"),
        (-1.0 + 0j, "K_n undefined on the negative real axis"),
        (complex(-1.0, -0.0), "K_n undefined on the negative real axis"),
        (2e9 + 0.1j, "K_n not computable at z = (2000000000+0.1j)"),
        (np.array([1.0, 2e9 + 0.1j, -1.0, 0.0]), "K_n undefined at z = 0"),
        (np.array([1.0, 2e9 + 0.1j, -1.0]),
         "K_n undefined on the negative real axis"),
        (np.array([1.0, 1e10 + 0j, 2e9 + 0.1j]),
         "K_n not computable at z = (10000000000+0j)")],
        ids=["zero", "minus-zero", "cut-above", "cut-below", "nan",
             "mixed-zero", "mixed-cut", "mixed-nan"])
    def test_messages(self, z, message):
        # the cut (z = 0 on it) and the nan of kv are each tested once per
        # call; which message is raised follows z = 0, then the cut, then
        # the first point where kv returns nan
        with pytest.raises(BesselDomainError) as err:
            bessel_k12(z)
        assert str(err.value) == message

    def test_underflow_is_not_rejected(self):
        k1, k2 = bessel_k12(1e9 + 0.1j)
        assert k1 == 0.0 and k2 == 0.0


class TestJ1:
    def test_values(self):
        # J1(1) = 0.4400505857, J1(2) = 0.5767248078, first zero 3.8317
        assert j1_over_x(1.0) == pytest.approx(0.4400505857, rel=1e-9)
        assert np.allclose(j1_over_x(np.array([2.0, 3.8317059702])),
                           [0.5767248078 / 2.0, 0.0], rtol=1e-9, atol=1e-9)

    def test_j1_over_x_continuous_at_zero(self):
        assert j1_over_x(0.0) == pytest.approx(0.5, rel=1e-12)
        assert j1_over_x(1e-6) == pytest.approx(0.5, rel=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(BesselDomainError):
            j1_over_x(-0.5)
        with pytest.raises(BesselDomainError):
            j1_over_x(np.array([1.0, -1.0]))
