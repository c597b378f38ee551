"""Variation experiments on the regularized Dirac sea.

Local correlation operators F^eps(x) act on the (infinite-dimensional)
solution space, but every quantity needed here reduces to 4x4 and 8x8
matrices built from kernel evaluations, via the correlation identity

    2 pi <P^{eps1}(.,x) a | P^{eps2}(.,y) b>  =  -<a | P^{eps1+eps2}(x,y) b>_spin.

Provided: mixed correlations, the Gram block of the joint frame at a
point, operator-norm distances ||F^{eps1}(x) - F^{eps2}(x)||, the
regularization-rescaling sweep with its Hoelder fit, and L1 norms of the
time-zero frame data.
"""

from __future__ import annotations

import numpy as np

from . import gk, kernel, quadrature, spinor
from .kernel import RegKernelParams

TWO_PI = 2.0 * np.pi


def _block(points, eps, m: float) -> np.ndarray:
    """8x8 block matrix [P^{eps_i + eps_j}(x_i, x_j)]_{i,j = 1,2} of the
    joint frame {P^{eps_1}(., x_1) e_mu} u {P^{eps_2}(., x_2) e_mu}."""
    out = np.empty((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[4 * i:4 * i + 4, 4 * j:4 * j + 4] = kernel.kernel_p(
                points[i], points[j], RegKernelParams(m, eps[i] + eps[j])
            ).matrix
    return out


def mixed_correlation(x, y, eps1: float, eps2: float, a, b, m: float) -> complex:
    """<P^{eps1}(.,x) a | P^{eps2}(.,y) b> = -(1/2pi) <a|P^{eps1+eps2}(x,y) b>_spin."""
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("regularizations must be positive")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p = kernel.kernel_p(x, y, RegKernelParams(m, eps1 + eps2)).matrix
    return complex(-(1.0 / TWO_PI) * spinor.spin_product(a, p @ b))


def gram_block(x, eps1: float, eps2: float, m: float) -> np.ndarray:
    """8x8 Gram matrix of {P^{eps1}(.,x) e_mu} u {P^{eps2}(.,x) e_mu};
    positive semidefinite."""
    rows = _block((x, x), (eps1, eps2), m).reshape(2, 4, 8)
    g = ((-(1.0 / TWO_PI) * spinor.GAMMA0) @ rows).reshape(8, 8)
    g = 0.5 * (g + g.conj().T)
    ev = np.linalg.eigvalsh(g)
    if ev.min() < -1e-10 * max(np.trace(g).real, 1.0):
        raise RuntimeError("Gram matrix indefinite: inner-product bug")
    return g


def op_norm_difference(x, eps1: float, eps2: float, m: float) -> float:
    """||F^{eps1}(x) - F^{eps2}(x)|| on the solution space.

    The difference D = -R_1^* R_1 + R_2^* R_2 with the pointwise
    evaluation maps R_i = R_{eps_i}(x): H -> C^4 has the same nonzero
    spectrum as the 8x8 matrix diag(-1, 1) (R_i R_j^*), and
    R_i R_j^* = -2 pi P^{eps_i+eps_j}(x,x).  D is self-adjoint, so its
    norm is the largest absolute eigenvalue of that matrix.
    """
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("regularizations must be positive")
    x = np.asarray(x, dtype=float)
    sign = np.repeat([TWO_PI, -TWO_PI], 4)[:, None]
    ev = np.linalg.eigvals(sign * _block((x, x), (eps1, eps2), m))
    return float(np.max(np.abs(ev.real)))


def product_coefficient_matrix(x, y, eps1: float, eps2: float,
                               m: float) -> np.ndarray:
    """Coefficient matrix of F^{eps1}(x) F^{eps2}(y) on the joint family
    {P^{eps1}(.,x) e_mu} u {P^{eps2}(.,y) e_mu}.

    Its nonzero eigenvalues are those of the product operator; used as an
    independent check of the mixed-chain reduction.  Row block i holds
    F^{eps_i}(x_i) u_{j nu} = 2 pi P^{eps_i}(., x_i)
    [P^{eps_i + eps_j}(x_i, x_j) e_nu].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = TWO_PI * _block((x, y), (eps1, eps2), m)
    zeros = np.zeros((4, 8), dtype=complex)
    return np.vstack([rows[:4], zeros]) @ np.vstack([zeros, rows[4:]])


def holder_sweep(lam_list, params: RegKernelParams, tol: float = 0.005,
                 lam_region: float = 0.85):
    """Rows (lambda, dF_norm, dEll, ell_value, alpha_fit_running) for the
    regularization-rescaling variation, plus the final log-log fit.

    Returns (rows, fit) with fit = {alpha, intercept, r2}.
    """
    x0 = np.zeros(4)
    base = quadrature.integrate_lagrangian(params, tol=tol, lam=lam_region)
    rows = []
    log_df, log_dl = [], []
    for lam in lam_list:
        if params.eps + lam <= 0:
            raise ValueError("eps + lambda must stay positive")
        if lam == 0.0:
            rows.append((0.0, 0.0, 0.0, base.value, np.nan))
            continue
        df = op_norm_difference(x0, params.eps + lam, params.eps, params.m)
        rep = quadrature.ell_varied(lam, params, tol=tol, lam=lam_region)
        dl = abs(rep.value - base.value)
        if df > 0 and dl > 0:
            log_df.append(np.log(df))
            log_dl.append(np.log(dl))
        alpha_run = np.nan
        if len(log_df) >= 2:
            alpha_run = float(np.polyfit(log_df, log_dl, 1)[0])
        rows.append((lam, df, dl, rep.value, alpha_run))
    fit = {"alpha": np.nan, "intercept": np.nan, "r2": np.nan}
    if len(log_df) >= 2:
        coef = np.polyfit(log_df, log_dl, 1)
        pred = np.polyval(coef, log_df)
        resid = np.asarray(log_dl) - pred
        ss_tot = float(np.sum((log_dl - np.mean(log_dl)) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
        fit = {"alpha": float(coef[0]), "intercept": float(coef[1]),
               "r2": r2}
    return rows, fit


def l1_frame_norms(params: RegKernelParams, radius: float = 60.0,
                   tol: float = 1e-4, max_panels: int = 6000,
                   normalized: bool = True) -> np.ndarray:
    """L1(R^3) norms of the time-zero data of the four normalized frame
    vectors (2 pi / sqrt|nu_mu|) P^eps((0,.), 0) e_mu.

    With normalized=False the raw kernel columns are integrated instead
    (their L1 norms grow as eps decreases; the unit-norm frame vectors
    concentrate, so their L1 norms shrink).

    The integrand is azimuthally symmetric, so a 2-D (r, theta)
    quadrature with weight 2 pi r^2 sin(theta) suffices.
    """
    nm, np_ = kernel.nu_pm(params)
    nus = np.array([nm, nm, np_, np_])

    def integrand(r, th):
        ct, st = np.cos(th), np.sin(th)
        xi = np.zeros(r.shape + (4,))
        xi[..., 1] = r * st
        xi[..., 3] = r * ct
        mats = kernel.kernel_matrix_batch(xi, params)
        colnorm = np.linalg.norm(mats, axis=-2)         # per column mu
        w = 2.0 * np.pi * r * r * st
        return w[:, None] * colnorm

    # the capped probe fixes the tolerance scale and shares its panels
    # with the tolerance pass, which starts with the same splits
    panels = {}
    vest, _, _ = gk.integrate_2d(integrand, (0.0, radius, 0.0, np.pi),
                                 tol_abs=0.0, max_panels=64, cache=panels)
    scale = float(np.max(np.abs(vest)))
    v, err, _ = gk.integrate_2d(integrand, (0.0, radius, 0.0, np.pi),
                                tol_abs=tol * scale, max_panels=max_panels,
                                cache=panels)
    if err > 10.0 * tol * scale:
        raise quadrature.QuadratureError("L1 frame-norm quadrature did not "
                                         "converge")
    if not normalized:
        return np.real(v)
    return np.real(v) * (TWO_PI / np.sqrt(np.abs(nus)))
