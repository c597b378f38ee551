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

A matrix element runs both frame vectors' sources side by side through
one pass over one node set.  The pass builds and evaluates the cap
points one block of node rows at a time and carries a sum in node order
(_apply), so its memory is one block, whatever the node count.  The
source's columns are real products and signed maps of real parts, and
the bump and the node positions take libm's exp and trigonometric
functions, so the pass's bits depend on its inputs alone: not on the
block size, BLAS's thread count or numpy's CPU dispatch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bessel, kernel, spinor
from .kernel import RegKernelParams


def _libm(fn, x):
    """The math function fn elementwise on the array x: libm's bits,
    where numpy's exp, cos, sin and arccos loops round with the CPU's
    dispatch."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


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

    def bump_and_gradient(self, y):
        """The bump exp(1 - 1/(1 - s)) on s = |y - c|^2/r^2 < 1, zero
        outside, and its gradient d_j, (...,) and (..., 4), from one exp
        per point of the support."""
        y = np.asarray(y, dtype=float)
        d = y - self.center
        s = np.sum(d * d, axis=-1) / self.radius ** 2
        b = np.zeros(s.shape)
        grad = np.zeros(y.shape)
        inside = s < 1.0
        si = s[inside]
        bi = self.amplitude * _libm(math.exp, 1.0 - 1.0 / (1.0 - si))
        b[inside] = bi
        grad[inside] = (-2.0 * bi / (self.radius * (1.0 - si)) ** 2)[:, None] \
            * d[inside]
        return b, grad

    def bump(self, y) -> np.ndarray:
        return self.bump_and_gradient(y)[0]


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
    amp = np.sqrt(a * a + b * b)
    phase = np.array(list(map(math.atan2, b, a)))
    ok = np.abs(k) <= amp
    dev = _libm(math.acos, k[ok] / amp[ok])
    roots = np.mod(np.concatenate([phase[ok] + dev, phase[ok] - dev]),
                   2.0 * np.pi)
    edges = np.unique(np.concatenate([[0.0, np.pi], roots[roots < np.pi]]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    t_mid = tau - radius * _libm(math.cos, mid)
    r_mid = radius * _libm(math.sin, mid)
    inside = np.flatnonzero((t_mid > 0.0) & keep(t_mid, r_mid))
    if inside.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    psi, w = _composite(edges[inside[0]:inside[-1] + 2], _N_PSI, np.pi)
    r = radius * _libm(math.sin, psi)
    return tau - radius * _libm(math.cos, psi), r, w * r


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
             + (st[:, :, None] * _libm(math.cos, ph))[..., None] * frame[1]
             + (st[:, :, None] * _libm(math.sin, ph))[..., None] * frame[2])
    n = _N_CT * _N_PH
    pts = np.empty((rho.size, n, 4))
    pts[..., 0] = (x[0] - t)[:, None]
    pts[..., 1:] = x[1:] - rho[:, None, None] * omega.reshape(-1, n, 3)
    w = np.repeat(half * wg, _N_PH, axis=1) * (2.0 * np.pi / _N_PH)
    return pts, w


# source points per evaluation of g in _apply, rounded down to whole node
# rows of _N_CT * _N_PH cap points.  The block bounds the working set: one
# element's traced peak (tracemalloc, 1 MB = 10^6 bytes) reads 4.7 MB at
# the benchmark's point (1.6, 0.35, 0.1, 0.35) and at verify em's x_in,
# and 4.8 MB there at twice _N_PSI and _N_RHO; with the cap points of all
# nodes built before one weighted sum it read 12.2, 17.5 and 54.4 MB.
# Blocks of 8192 points took the same time at about twice the peak.
_SOURCE_BLOCK = 4096


def _apply(g, x, t, rho, r, w, dn, frame):
    """sum_k w_k g(y_k) over the cap points y_k of the node rows
    (t, rho, r) with row weights w; for g's values (n, 4 k) the sum is
    (4 k,) complex, returned as its real parts (8 k,).  The cap points of
    consecutive blocks of whole rows, at most _SOURCE_BLOCK points, are
    built and evaluated one block at a time.

    The weighted terms are real products.  Each cap node's terms are
    summed over the rows in order, by np.add.reduce down a block's rows
    seeded with the sums so far, and the cap nodes' sums in order at the
    end; so the sum depends on neither the block size nor BLAS.  With no
    rows, g still runs on zero points and the sum is zeros of its
    width."""
    n = _N_CT * _N_PH
    rows = max(_SOURCE_BLOCK // n, 1)
    total = 0.0
    for i in range(0, max(t.size, 1), rows):
        s = slice(i, i + rows)
        pts, wc = _cap_points(x, t[s], rho[s], r[s], dn, frame)
        values = np.ascontiguousarray(g(pts.reshape(-1, 4)),
                                      dtype=complex).view(float)
        terms = np.empty((len(wc) + 1, n, values.shape[-1]))
        terms[0] = total
        np.multiply((w[s, None] * wc)[..., None],
                    values.reshape(terms[1:].shape), out=terms[1:])
        total = np.add.reduce(terms, axis=0)
    return np.add.reduce(total, axis=0)


def convolve_surface(x, g, gp: GreenParams, supp_center,
                     supp_radius: float) -> np.ndarray:
    """alpha-part: int drho (rho/2) int dOmega g(x0 - rho, xvec - rho w).

    g maps batched points (n, 4) to spinors (n, 4), or to k spinors side
    by side (n, 4 k), and the result is (4 k,); supported in the 4-ball
    (supp_center, supp_radius).  Every node lies in that ball: on the
    cone t = rho, the sphere of radius rho around xvec meets the slice's
    3-ball where |rho - |d|| < r."""
    tau, dn, frame = _offset(x, supp_center)
    rho, r, wr = _psi_nodes(tau, supp_radius, dn,
                            lambda t, r: abs(t - dn) < r)
    total = _apply(g, x, rho, rho, r, wr * 0.5 * rho, dn, frame)
    return (gp.alpha_const * total).view(complex)


def convolve_volume(x, g, m: float, gp: GreenParams, supp_center,
                    supp_radius: float) -> np.ndarray:
    """beta-part: int d^4 xi h(xi^2) g(x - xi) over the forward cone,
    d^4 xi = rho^2 drho dOmega dt, on the nodes of the ball: per t-slice,
    rho runs over [max(0, |d| - r), min(t, |d| + r)], split where the
    cap around d-hat becomes the whole sphere (rho = r - |d|).  g as in
    convolve_surface."""
    tau, dn, frame = _offset(x, supp_center)
    t, r, wt = _psi_nodes(tau, supp_radius, dn,
                          lambda t, r: t + r > dn)
    rho, wk, count = [np.empty(0)], [np.empty(0)], []
    for ti, ri, wi in zip(t, r, wt):
        lo, hi, cut = max(dn - ri, 0.0), min(ti, dn + ri), ri - dn
        p, w = _composite([lo, cut, hi] if lo < cut < hi else [lo, hi],
                          _N_RHO, 2.0 * supp_radius)
        rho.append(p)
        wk.append(wi * w)
        count.append(p.size)
    tk, rk = np.repeat(t, count), np.repeat(r, count)
    rho, wk = np.concatenate(rho), np.concatenate(wk)
    h = bessel.j1_over_x(m * np.sqrt(np.maximum(tk * tk - rho * rho, 0.0)))
    total = _apply(g, x, tk, rho, rk, wk * h * rho * rho, dn, frame)
    return (gp.beta_const * total).view(complex)


def convolve_S(x, g, m: float, gp: GreenParams, supp_center,
               supp_radius: float) -> np.ndarray:
    return (convolve_surface(x, g, gp, supp_center, supp_radius)
            + convolve_volume(x, g, m, gp, supp_center, supp_radius))


@functools.lru_cache(maxsize=None)
def _source_maps(component: int):
    """Signed maps (spinor.signed_map) of col -> slashed(e_c) col, of
    col -> gamma^j slashed(e_c) col for j = 0..3, c the potential's
    component, and of col -> i col: each a signed permutation of the real
    parts."""
    slashed_e = spinor.slash(np.eye(4)[component])
    return (spinor.signed_map(slashed_e.T),
            [spinor.signed_map((g @ slashed_e).T) for g in spinor.GAMMA],
            spinor.signed_map(1j * np.eye(4)))


def _frame_source(a: Potential, z, mu: int, params: RegKernelParams):
    """g(y) = slashed A(y) P^{2 eps}(y, z) e_mu, batched over y."""
    z = np.asarray(z, dtype=float)
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    slashed_e = _source_maps(a.component)[0]

    def values(ys):
        col, _ = kernel.kernel_column_partial(ys - z, mu, a.component,
                                              doubled)
        return spinor.from_parts(
            a.bump(ys) * spinor.apply_signed_map(col, *slashed_e))

    return values


def _dirac_source(a: Potential, frames, params: RegKernelParams):
    """(i d-slash + m) of the frame source, in closed form, batched over y:
    i (d-slash slashed A) P^{2 eps}(y, z) e_mu + 2 i b d_c P^{2 eps}(y, z) e_mu
    with A = b e_c (b the bump, c the potential's component), for the
    frame vectors (z, mu) of `frames` side by side: (n, 4 len(frames)).
    The bump and its gradient are evaluated once per point for all of
    them, and each frame's columns read the bits of its one-frame
    source."""
    frames = [(np.asarray(z, dtype=float), mu) for z, mu in frames]
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    # d-slash slashed A = sum_j (d_j b) gamma^j slashed e_c
    _, gamma_e, times_i = _source_maps(a.component)

    def values(ys):
        bump, grad = a.bump_and_gradient(ys)
        bump2, grad = 2.0 * bump, grad.T
        out = np.empty((len(ys), 8 * len(frames)))
        for i, (z, mu) in enumerate(frames):
            col, dcol = kernel.kernel_column_partial(ys - z, mu, a.component,
                                                     doubled)
            src = grad[0] * spinor.apply_signed_map(col, *gamma_e[0])
            for j in range(1, 4):
                src += grad[j] * spinor.apply_signed_map(col, *gamma_e[j])
            src += bump2 * dcol
            out[:, 8 * i:8 * i + 8] = spinor.apply_signed_map(
                src, *times_i).T
        return out.view(complex)

    return values


def psi1_on_frame(x, z, mu: int, a: Potential, params: RegKernelParams,
                  gp: GreenParams) -> np.ndarray:
    """First-order perturbation field at x of the frame vector
    P^eps(., z) e_mu under the potential a: -S * _dirac_source."""
    src = _dirac_source(a, ((z, mu),), params)
    return -convolve_S(x, src, params.m, gp, a.center, a.radius)


def f1_matrix_element(x, z1, mu: int, z2, nu: int, a: Potential,
                      params: RegKernelParams, gp: GreenParams) -> complex:
    """<u1 | F1(x) u2> = -<R u1(x)|Psi1 u2(x)>_spin - <Psi1 u1(x)|R u2(x)>_spin
    for frame vectors u_i = P^eps(., z_i) e; R u_i(x) = P^{2 eps}(x, z_i) e.

    Psi1 u1 and Psi1 u2 come from one pass of both sources over one node
    set, each bitwise what psi1_on_frame gives."""
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    r1 = kernel.kernel_p(x, z1, doubled).matrix[:, mu]
    r2 = kernel.kernel_p(x, z2, doubled).matrix[:, nu]
    src = _dirac_source(a, ((z1, mu), (z2, nu)), params)
    p1, p2 = np.split(-convolve_S(x, src, params.m, gp, a.center, a.radius),
                      2)
    return complex(-spinor.spin_product(r1, p2) - spinor.spin_product(p1, r2))
