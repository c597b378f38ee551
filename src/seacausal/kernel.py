"""Closed-form regularized kernel of the fermionic projector.

P^eps(x,y) = F(-xi_eps^2) slash(xi_eps) + G(-xi_eps^2) Id  with xi = x - y,

where F and G are combinations of modified Bessel functions K1, K2.  A
momentum-space quadrature oracle provides an independent evaluation path
used to certify the closed form (including the sign/direction convention
of xi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gk, spinor
from .bessel import bessel_k12

TWO_PI_CUBED = (2.0 * np.pi) ** 3


@dataclass(frozen=True)
class RegKernelParams:
    m: float
    eps: float

    def __post_init__(self):
        if not (self.m > 0 and self.eps > 0):
            raise ValueError("mass and regularization must be positive")


@dataclass(frozen=True)
class KernelValue:
    matrix: np.ndarray   # 4x4 complex
    f: complex           # F(-xi_eps^2)
    g: complex           # G(-xi_eps^2)
    zeta: complex        # -xi_eps^2
    xi_eps: np.ndarray   # complexified xi


def scalar_FG(z, m: float):
    """(F(z), G(z)) from one K1/K2 evaluation at m sqrt z, principal root.

    G(z) = m^2/(2 pi)^3 * K1(m sqrt z)/sqrt z and
    F(z) = (2/(i m)) G'(z) = i m^2/(2 pi)^3 * K2(m sqrt z)/z.
    """
    z = np.asarray(z, dtype=complex)
    rt = np.sqrt(z)
    k1, k2 = bessel_k12(m * rt)
    f = 1j * m * m / TWO_PI_CUBED * k2 / z
    g = m * m / TWO_PI_CUBED * k1 / rt
    return f, g


def kernel_column_partial(xi, mu: int, k: int, params: RegKernelParams):
    """Kernel column P^eps e_mu and its partial derivative d/dxi^k P^eps e_mu
    for displacement rows xi (..., 4); both (..., 4), from one scalar_FG call.

    d_k P = eta_kk [F gamma^k - 2 xi_eps^k (F' xi_eps-slash + G')], with
    G' = (i m/2) F and F' = -(2 F + (i m/2) G)/zeta (from K3 = K1 + (4/w) K2).
    Only columns are formed, never the (..., 4, 4) matrices.
    """
    xi_eps = spinor.complexify(xi, params.eps)
    zeta = spinor.neg_minkowski_square(xi_eps)
    f, g = scalar_FG(zeta, params.m)
    half_im = 0.5j * params.m
    df = -(2.0 * f + half_im * g) / zeta
    dg = half_im * f
    # (xi_eps-slash) e_mu = sum_a eta_aa xi_eps^a gamma^a[:, mu]
    slashed = xi_eps @ (spinor.METRIC @ spinor.GAMMA[:, :, mu])
    e_mu = spinor.IDENTITY4[mu]
    col = f[..., None] * slashed + g[..., None] * e_mu
    dcol = spinor.METRIC[k, k] * (
        f[..., None] * spinor.GAMMA[k, :, mu]
        - 2.0 * xi_eps[..., k, None]
        * (df[..., None] * slashed + dg[..., None] * e_mu))
    return col, dcol


def _assemble(xi, params: RegKernelParams):
    """Kernel matrices F xi_eps-slash + G for displacement rows xi (..., 4),
    with F, G, zeta = -xi_eps^2 and xi_eps."""
    xi_eps = spinor.complexify(xi, params.eps)
    zeta = spinor.neg_minkowski_square(xi_eps)
    f, g = scalar_FG(zeta, params.m)
    matrix = (f[..., None, None] * spinor.slash(xi_eps)
              + g[..., None, None] * spinor.IDENTITY4)
    return matrix, f, g, zeta, xi_eps


def kernel_p(x, y, params: RegKernelParams) -> KernelValue:
    """Closed-form P^eps(x,y)."""
    xi = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    matrix, f, g, zeta, xi_eps = _assemble(xi, params)
    return KernelValue(matrix=matrix, f=complex(f), g=complex(g),
                       zeta=complex(zeta), xi_eps=xi_eps)


def kernel_matrix_batch(xi, params: RegKernelParams):
    """Batched closed-form kernel matrices for displacement rows xi (..., 4)."""
    return _assemble(xi, params)[0]


def kernel_fg_radial(t, r, params: RegKernelParams):
    """F, G and -xi_eps^2 as functions of (xi^0, |xi_vec|) only."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    e = params.eps
    zeta = (r * r - t * t + e * e) - 2j * e * t
    f, g = scalar_FG(zeta, params.m)
    return f, g, zeta


def kernel_p_momentum_oracle(x, y, params: RegKernelParams,
                             tol: float = 1e-9, max_panels: int = 4000):
    """Momentum-space evaluation of P^eps(x,y).

    The three-momentum integral is reduced over the sphere: the polar
    integral of the plane wave gives spherical Bessel factors j0, j1, so
    only the radial integral is performed numerically.  Returns
    (matrix, abs_error_estimate).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, eps = params.m, params.eps
    xi = x - y
    t = xi[0]
    rvec = xi[1:]
    r = float(np.linalg.norm(rvec))
    rhat = rvec / r if r > 0 else np.zeros(3)
    rhat_gamma = sum(rhat[i] * spinor.GAMMA[i + 1] for i in range(3))

    def radial(k):
        w = np.sqrt(k * k + m * m)
        damp = np.exp(-eps * w) * np.exp(1j * w * t)
        if r > 0:
            kr = k * r
            j0 = np.sin(kr) / kr
            j1 = np.sin(kr) / kr ** 2 - np.cos(kr) / kr
        else:
            j0 = np.ones_like(k)
            j1 = np.zeros_like(k)
        c_g0 = -0.5 * j0                      # gamma^0 coefficient
        c_id = (m / (2.0 * w)) * j0           # identity coefficient
        c_rg = -(k / (2.0 * w)) * 1j * j1     # rhat.gamma coefficient
        # 4 pi from the angular average over the 1/(2 pi)^4 measure
        pref = k * k * damp / (4.0 * np.pi ** 3)
        out = np.empty(k.shape + (3,), dtype=complex)
        out[:, 0] = pref * c_g0
        out[:, 1] = pref * c_id
        out[:, 2] = pref * c_rg
        return out

    kmax = 45.0 / eps
    coef, err, _ = gk.integrate_1d(radial, 1e-12, kmax, tol, max_panels)
    matrix = (coef[0] * spinor.GAMMA0 + coef[1] * spinor.IDENTITY4
              + coef[2] * rhat_gamma)
    return matrix, err
