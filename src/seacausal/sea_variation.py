"""Variation experiments on the regularized Dirac sea.

Local correlation operators F^eps(x) act on the (infinite-dimensional)
solution space, but every quantity needed here reduces to 4x4 and 8x8
matrices built from kernel evaluations, via the correlation identity

    2 pi <P^{eps1}(.,x) a | P^{eps2}(.,y) b>  =  -<a | P^{eps1+eps2}(x,y) b>_spin.

Provided: operator-norm distances ||F^{eps1}(x) - F^{eps2}(x)||, the
coefficient matrix of the product F^{eps1}(x) F^{eps2}(y) on the joint
frame, and the regularization-rescaling sweep with its Hoelder fit.
"""

from __future__ import annotations

import numpy as np

from . import kernel, quadrature
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


def holder_sweep(lam_list, params: RegKernelParams, **quad):
    """Rows (lambda, dF_norm, dEll, ell_value, alpha_fit_running) for the
    regularization-rescaling variation, plus the final log-log fit.

    lam_list None sweeps the default decade of shifts, +-0.2, +-0.1,
    +-0.05 and +-0.025 eps.  quad holds the certified integrals' keywords
    (tol, T, R, max_panels), passed to `integrate_lagrangian` and
    `ell_varied`.  Returns (rows, fit) with fit = {alpha, intercept, r2}.
    """
    if lam_list is None:
        lam_list = [s * f * params.eps for f in (0.2, 0.1, 0.05, 0.025)
                    for s in (1, -1)]
    x0 = np.zeros(4)
    base = quadrature.integrate_lagrangian(params, **quad)
    rows = []
    log_df, log_dl = [], []
    for lam in lam_list:
        if params.eps + lam <= 0:
            raise ValueError("eps + lambda must stay positive")
        if lam == 0.0:
            rows.append((0.0, 0.0, 0.0, base.value, np.nan))
            continue
        df = op_norm_difference(x0, params.eps + lam, params.eps, params.m)
        rep = quadrature.ell_varied(lam, params, **quad)
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
