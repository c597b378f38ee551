"""First-order electromagnetic perturbation of the regularized sea.

The retarded Green's kernel of the Klein-Gordon operator splits into a
light-cone surface part (delta(xi^2) Theta(xi^0)) and an interior volume
part (J1(m sqrt(xi^2)) / (m sqrt(xi^2)) inside the forward cone):

    S(xi) = alpha delta(xi^2) Theta(xi^0) + beta h(xi^2) Theta(xi^2) Theta(xi^0).

For the sign convention (box + m^2) phi = -g of phi = S * g the constants
have the closed form alpha = -1/(2 pi), beta = m^2/(4 pi)
(green_constants).  verify em checks them against an exact retarded
solution of the inhomogeneous Klein-Gordon equation.

The first-order perturbation field on a frame vector is

    Psi1(x) = -(i gamma^j d_j + m) [S * (slashed A . P^{2 eps}(., z) e_mu)](x).

The source is smooth and compactly supported, so the derivatives move
onto it, d(S * g) = S * dg, and never touch the delta distribution of S.
With the Dirac equation (i d-slash - m) P = 0 of the kernel,

    (i d-slash + m)(slashed A P) = i (d-slash slashed A) P + 2 i (A.d) P,

and Psi1 is one convolution of this closed-form source (_dirac_source).
Matrix elements of the first-order correlation correction combine Psi1
with closed-form kernel evaluations only.

The convolutions put every node where the source's support, a 4-ball
around c of radius R, meets the past cone of x.  With tau = x0 - c0 and
d = xvec - cvec, the ball's t-slice is the 3-ball of radius
r = sqrt(R^2 - (t - tau)^2) around d, so the radius rho = |xi| runs over
[max(0, |d| - r), min(t, |d| + r)] and the direction over the cap around
d-hat where |d - rho omega| < r (the surface part is the same on
t = rho).  Gauss-Legendre panels end at every kink of these limits, and
when the ball and the cone do not meet the node set is empty and the
convolution is zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bessel, kernel, spinor
from .kernel import RegKernelParams


@dataclass(frozen=True)
class Potential:
    """Compactly supported smooth vector potential: a C-infinity bump of
    given radius around `center`, placed in component `component`."""
    center: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    radius: float = 0.5
    component: int = 3
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.center[0] - self.radius <= 0.0:
            raise ValueError("support must stay after the initial time 0")

    def bump(self, y) -> np.ndarray:
        """exp(1 - 1/(1 - s)) on s = |y - c|^2/r^2 < 1, zero outside."""
        y = np.asarray(y, dtype=float)
        s = np.sum((y - self.center) ** 2, axis=-1) / self.radius ** 2
        out = np.zeros(s.shape)
        inside = s < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return out

    def bump_gradient(self, y) -> np.ndarray:
        """d_j of the bump, (..., 4); zero outside the support."""
        y = np.asarray(y, dtype=float)
        d = y - self.center
        s = np.sum(d * d, axis=-1) / self.radius ** 2
        out = np.zeros(y.shape)
        inside = s < 1.0
        si = s[inside]
        b = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - si))
        out[inside] = (-2.0 * b / (self.radius * (1.0 - si)) ** 2)[:, None] \
            * d[inside]
        return out


@dataclass(frozen=True)
class GreenParams:
    alpha_const: float
    beta_const: float


def green_constants(m: float) -> GreenParams:
    """Closed-form retarded constants alpha = -1/(2 pi), beta = m^2/(4 pi)."""
    return GreenParams(-1.0 / (2.0 * np.pi), m * m / (4.0 * np.pi))


# Orders of the convolution quadratures.  psi parametrizes the ball's
# time axis and rho = |xi| the radius: each runs on a composite
# Gauss-Legendre rule whose panels get nodes in proportion to their length
# (_N_PSI over [0, pi], _N_RHO over the ball's diameter 2 R), at least
# _N_MIN each.  cos theta runs on _N_CT Gauss-Legendre nodes over the cap
# of directions around d, and the azimuth about d, which is periodic, on
# _N_PH points of the trapezoid rule.  The steep edge of Potential.bump's
# gradient sets these orders: at twice them, the matrix elements at the
# four EM points of bench/refs.json, at (1.6, 0.1, 0, 0.2) and at verify
# em's x_in move by at most 8e-5 (relative), and verify em's
# dirac_factor_fd, whose stencil points each get their own nodes, keeps
# its margin.
_N_PSI = 56
_N_RHO = 24
_N_MIN = 4
_N_CT = 16
_N_PH = 8


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    return leggauss(n)


def _composite(edges, n, span):
    """Composite Gauss-Legendre nodes and weights on the panels between
    the sorted edges: ceil(n * length / span) nodes per panel, at least
    _N_MIN."""
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = _leggauss(max(_N_MIN, int(np.ceil(n * (b - a) / span))))
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _offset(x, supp_center):
    """tau = x0 - c0, |d| for the spatial offset d = xvec - cvec, and an
    orthonormal frame (d-hat, e1, e2); d-hat = e3 when d = 0."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(supp_center, dtype=float)
    d = x[1:] - c[1:]
    dn = float(np.linalg.norm(d))
    u = d / dn if dn > 0.0 else np.array([0.0, 0.0, 1.0])
    e1 = np.cross(u, np.eye(3)[int(np.argmin(np.abs(u)))])
    e1 /= np.linalg.norm(e1)
    return x[0] - c[0], dn, np.stack([u, e1, np.cross(u, e1)])


def _psi_nodes(tau, radius, dn, keep):
    """Nodes of the ball's time axis, t = tau - R cos psi for psi in
    [0, pi]: the t-slice of the ball is the 3-ball of radius r = R sin psi
    around d, and dt = R sin psi dpsi is smooth at both poles.  Panel
    edges sit where t = 0, t + r = |d| (the support starts), t - r = +-|d|
    (the cone edge rho = t starts clipping the slice; the whole sphere
    rho <= r - |d| reaches the cone edge) and r = |d|, so every kink of
    the rho and cap limits is a panel edge.  The panels whose middle
    satisfies t > 0 and keep(t, r) form an interval.  Returns t, r and
    the weights of dt, or empty arrays."""
    # each edge solves a cos psi + b sin psi = k, i.e.
    # cos(psi - phase) = k / hypot(a, b)
    a = np.array([-1.0, -1.0, -1.0, -1.0, 0.0])
    b = np.array([0.0, 1.0, -1.0, -1.0, 1.0])
    k = np.array([-tau, dn - tau, dn - tau, -dn - tau, dn]) / radius
    amp, phase = np.hypot(a, b), np.arctan2(b, a)
    ok = np.abs(k) <= amp
    dev = np.arccos(k[ok] / amp[ok])
    roots = np.mod(np.concatenate([phase[ok] + dev, phase[ok] - dev]),
                   2.0 * np.pi)
    edges = np.unique(np.concatenate([[0.0, np.pi], roots[roots < np.pi]]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    t_mid, r_mid = tau - radius * np.cos(mid), radius * np.sin(mid)
    inside = np.flatnonzero((t_mid > 0.0) & keep(t_mid, r_mid))
    if inside.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    psi, w = _composite(edges[inside[0]:inside[-1] + 2], _N_PSI, np.pi)
    r = radius * np.sin(psi)
    return tau - radius * np.cos(psi), r, w * r


def _cap_points(x, t, rho, r, dn, frame):
    """Source points y = (x0 - t, xvec - rho omega) for omega on the cap
    |d - rho omega| < r around d-hat (the whole sphere where
    rho <= r - |d|), and the cap's weights of dOmega: (K, n, 4), (K, n)."""
    x = np.asarray(x, dtype=float)
    if dn > 0.0:
        c_lo = np.clip((dn * dn + rho * rho - r * r) / (2.0 * rho * dn),
                       -1.0, 1.0)
    else:
        c_lo = np.full(rho.shape, -1.0)
    g, wg = _leggauss(_N_CT)
    half = 0.5 * (1.0 - c_lo)[:, None]
    ct = c_lo[:, None] + half * (g + 1.0)                  # (K, n_ct)
    st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
    ph = 2.0 * np.pi * (np.arange(_N_PH) + 0.5) / _N_PH
    omega = (ct[:, :, None, None] * frame[0]
             + (st[:, :, None] * np.cos(ph))[..., None] * frame[1]
             + (st[:, :, None] * np.sin(ph))[..., None] * frame[2])
    n = _N_CT * _N_PH
    pts = np.empty((rho.size, n, 4))
    pts[..., 0] = (x[0] - t)[:, None]
    pts[..., 1:] = x[1:] - rho[:, None, None] * omega.reshape(-1, n, 3)
    w = np.repeat(half * wg, _N_PH, axis=1) * (2.0 * np.pi / _N_PH)
    return pts, w


# source points per evaluation of g in _apply.  The block bounds the
# working set: a one-element `em` process at (1.6, 0.35, 0.1, 0.35) peaks
# at about 96 MB with the source evaluated in one call, and at about 67,
# 69 and 73 MB with blocks of 4096, 8192 and 16 384 (55 MB of it the
# imports), at the same speed.  Blocks from 2048 points up gave the
# elements of one call bitwise.
_SOURCE_BLOCK = 8192


def _apply(g, pts, w):
    """sum_k w_k g(pts_k): g evaluated on consecutive blocks of at most
    _SOURCE_BLOCK points, gathered into one array before the one weighted
    sum, so the order of the sum does not depend on the block."""
    pts = pts.reshape(-1, 4)
    values = np.empty((len(pts), 4), dtype=complex)
    for i in range(0, len(pts), _SOURCE_BLOCK):
        values[i:i + _SOURCE_BLOCK] = g(pts[i:i + _SOURCE_BLOCK])
    return w.ravel() @ values


def convolve_surface(x, g, gp: GreenParams, supp_center,
                     supp_radius: float) -> np.ndarray:
    """alpha-part: int drho (rho/2) int dOmega g(x0 - rho, xvec - rho w).

    g maps batched points (..., 4) to spinors (..., 4); supported in the
    4-ball (supp_center, supp_radius).  Every node lies in that ball: on
    the cone t = rho, the sphere of radius rho around xvec meets the
    slice's 3-ball where |rho - |d|| < r."""
    tau, dn, frame = _offset(x, supp_center)
    rho, r, wr = _psi_nodes(tau, supp_radius, dn,
                            lambda t, r: abs(t - dn) < r)
    if rho.size == 0:
        return np.zeros(4, dtype=complex)
    pts, w = _cap_points(x, rho, rho, r, dn, frame)
    return gp.alpha_const * _apply(g, pts, (wr * 0.5 * rho)[:, None] * w)


def convolve_volume(x, g, m: float, gp: GreenParams, supp_center,
                    supp_radius: float) -> np.ndarray:
    """beta-part: int d^4 xi h(xi^2) g(x - xi) over the forward cone,
    d^4 xi = rho^2 drho dOmega dt, on the nodes of the ball: per t-slice,
    rho runs over [max(0, |d| - r), min(t, |d| + r)], split where the
    cap around d-hat becomes the whole sphere (rho = r - |d|)."""
    tau, dn, frame = _offset(x, supp_center)
    t, r, wt = _psi_nodes(tau, supp_radius, dn,
                          lambda t, r: t + r > dn)
    if t.size == 0:
        return np.zeros(4, dtype=complex)
    tk, rk, rho, wk = [], [], [], []
    for ti, ri, wi in zip(t, r, wt):
        lo, hi, cut = max(dn - ri, 0.0), min(ti, dn + ri), ri - dn
        p, w = _composite([lo, cut, hi] if lo < cut < hi else [lo, hi],
                          _N_RHO, 2.0 * supp_radius)
        tk.append(np.full(p.size, ti))
        rk.append(np.full(p.size, ri))
        rho.append(p)
        wk.append(wi * w)
    tk, rk, rho, wk = map(np.concatenate, (tk, rk, rho, wk))
    h = bessel.j1_over_x(m * np.sqrt(np.maximum(tk * tk - rho * rho, 0.0)))
    pts, w = _cap_points(x, tk, rho, rk, dn, frame)
    return gp.beta_const * _apply(g, pts, (wk * h * rho * rho)[:, None] * w)


def convolve_S(x, g, m: float, gp: GreenParams, supp_center,
               supp_radius: float) -> np.ndarray:
    return (convolve_surface(x, g, gp, supp_center, supp_radius)
            + convolve_volume(x, g, m, gp, supp_center, supp_radius))


def _frame_source(a: Potential, z, mu: int, params: RegKernelParams):
    """g(y) = slashed A(y) P^{2 eps}(y, z) e_mu, batched over y."""
    z = np.asarray(z, dtype=float)
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    slashed_e = spinor.slash(np.eye(4)[a.component])

    def values(ys):
        col, _ = kernel.kernel_column_partial(ys - z, mu, a.component,
                                              doubled)
        return a.bump(ys)[:, None] * (col @ slashed_e.T)

    return values


def _dirac_source(a: Potential, z, mu: int, params: RegKernelParams):
    """(i d-slash + m) of the frame source, in closed form, batched over y:
    i (d-slash slashed A) P^{2 eps}(y, z) e_mu + 2 i b d_c P^{2 eps}(y, z) e_mu
    with A = b e_c (b the bump, c the potential's component)."""
    z = np.asarray(z, dtype=float)
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    # d-slash slashed A = sum_j (d_j b) gamma^j slashed e_c
    gamma_e = spinor.GAMMA @ spinor.slash(np.eye(4)[a.component])

    def values(ys):
        col, dcol = kernel.kernel_column_partial(ys - z, mu, a.component,
                                                 doubled)
        grad = a.bump_gradient(ys)
        dslash_a = sum(grad[:, j, None] * (col @ gamma_e[j].T)
                       for j in range(4))
        return 1j * (dslash_a + 2.0 * a.bump(ys)[:, None] * dcol)

    return values


def psi1_on_frame(x, z, mu: int, a: Potential, params: RegKernelParams,
                  gp: GreenParams) -> np.ndarray:
    """First-order perturbation field at x of the frame vector
    P^eps(., z) e_mu under the potential a: -S * _dirac_source."""
    src = _dirac_source(a, z, mu, params)
    return -convolve_S(x, src, params.m, gp, a.center, a.radius)


def f1_matrix_element(x, z1, mu: int, z2, nu: int, a: Potential,
                      params: RegKernelParams, gp: GreenParams) -> complex:
    """<u1 | F1(x) u2> = -<R u1(x)|Psi1 u2(x)>_spin - <Psi1 u1(x)|R u2(x)>_spin
    for frame vectors u_i = P^eps(., z_i) e; R u_i(x) = P^{2 eps}(x, z_i) e."""
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    r1 = kernel.kernel_p(x, z1, doubled).matrix[:, mu]
    r2 = kernel.kernel_p(x, z2, doubled).matrix[:, nu]
    p1 = psi1_on_frame(x, z1, mu, a, params, gp)
    p2 = psi1_on_frame(x, z2, nu, a, params, gp)
    return complex(-spinor.spin_product(r1, p2) - spinor.spin_product(p1, r2))
