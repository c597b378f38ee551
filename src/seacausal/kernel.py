"""Closed-form regularized kernel of the fermionic projector.

P^eps(x,y) = F(-xi_eps^2) slash(xi_eps) + G(-xi_eps^2) Id  with xi = x - y,

where F and G are combinations of modified Bessel functions K1, K2.  A
momentum-space quadrature oracle provides an independent evaluation path
used to certify the closed form (including the sign/direction convention
of xi).
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _column_maps(mu: int, k: int):
    """Signed maps (spinor.signed_map) of (xi_eps-slash) e_mu =
    xi_eps @ (METRIC @ GAMMA[:, :, mu]), at most two terms in each
    component, and of gamma^k e_mu = 1 @ GAMMA[k, :, mu], one term.  Built
    on first use, so the certified integrals, which never call
    kernel_column_partial, touch none of their numpy routines."""
    slashed = np.diag(spinor.METRIC)[:, None] * spinor.GAMMA[:, :, mu]
    return (spinor.signed_map(slashed),
            spinor.signed_map(spinor.GAMMA[k, None, :, mu]))


def _cmul(ar, ai, br, bi):
    """The product of a = ar + i ai and b = br + i bi in real parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _pack(re, im):
    """Complex array from its real and imaginary parts."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def kernel_column_partial(xi, mu: int, k: int, params: RegKernelParams):
    """Kernel column P^eps e_mu and its partial derivative d/dxi^k P^eps e_mu
    for displacement rows xi (..., 4), from one scalar_FG call.  Both come
    as component-major real parts (8, ...): rows 2 a and 2 a + 1 hold the
    real and imaginary parts of spinor component a (spinor.from_parts
    turns them into (..., 4) spinors).

    d_k P = eta_kk [F gamma^k - 2 xi_eps^k (F' xi_eps-slash + G')], with
    G' = (i m/2) F and F' = -(2 F + (i m/2) G)/zeta (from K3 = K1 + (4/w) K2).
    Only columns are formed, never the (..., 4, 4) matrices.  zeta and the
    products are formed in real parts, and the gamma factors as signed
    maps (see chain.invariants_from_radial), so a point's bits depend on
    its inputs alone.
    """
    xi = np.asarray(xi, dtype=float)
    t, x1, x2, x3 = comps = np.moveaxis(xi, -1, 0)
    e = params.eps
    zeta = (x1 * x1 + x2 * x2 + x3 * x3 - t * t + e * e) - 2j * e * t
    spinor.check_excluded_ray(zeta)
    f, g = scalar_FG(zeta, params.m)
    fr, fi, gr, gi = f.real, f.imag, g.real, g.imag
    half_m = 0.5 * params.m
    df = -_pack(2.0 * fr - half_m * gi, 2.0 * fi + half_m * gr) / zeta
    xi_eps = np.zeros((8,) + t.shape)
    xi_eps[0::2] = comps
    xi_eps[1] = e
    # (xi_eps-slash) e_mu, then F (xi_eps-slash) e_mu + G e_mu
    slashed_map, gamma_map = _column_maps(mu, k)
    slashed = spinor.apply_signed_map(xi_eps, *slashed_map)
    sr, si = slashed[0::2], slashed[1::2]
    col = np.empty(slashed.shape)
    col[0::2], col[1::2] = _cmul(fr, fi, sr, si)
    col[2 * mu] += gr
    col[2 * mu + 1] += gi
    # F' xi_eps-slash + G' e_mu, times 2 xi_eps^k
    in_r, in_i = _cmul(df.real, df.imag, sr, si)
    in_r[mu] -= half_m * fi
    in_i[mu] += half_m * fr
    xk = 2.0 * comps[k]
    if k == 0:
        in_r, in_i = _cmul(xk, 2.0 * e, in_r, in_i)
    else:
        in_r, in_i = xk * in_r, xk * in_i
    dcol = spinor.apply_signed_map(np.stack([fr, fi]), *gamma_map)
    dcol[0::2] -= in_r
    dcol[1::2] -= in_i
    dcol *= spinor.METRIC[k, k]
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
