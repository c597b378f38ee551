"""Certified integrals of the kernel theory over Minkowski space.

All integrands depend on the displacement only through (t, r) =
(xi^0, |xi_vec|) and are even in t, so integrals over R^4 reduce to
2 * int dt int dr 4 pi r^2 (...) on the quarter plane.  The interior
[0, T] x [0, R] takes half the tolerance budget tol * |value| in
adaptive Gauss-Kronrod panels.

The exterior is two extension zones out to (4T, Rbig) plus exponential
closures beyond them.  The integrands decay away from a ridge of width
about eps along the light cone r = t, so each zone is integrated in
light-cone coordinates (t, u = r - t), with u-breakpoints at 0 and
+-delta (delta proportional to T): the ridge lies along a panel edge,
where a (t, r) panel would straddle it with its sparse nodes.  Each zone
runs tolerance-driven on a fixed private share of the budget, and its
error estimate is counted into the tail bound with its value.  The
closures are fitted to sampled cross-sections and inflated 2x (their
constants are recorded in the report); they are estimates, not proofs.
All tail geometry scales with T, so the integrals are covariant under
the mass scaling (m, eps, T, R) -> (s m, eps / s, T / s, R / s).

Also houses the light-cone region decomposition C0, C1+, C1-, C2, the
exact decay exponent Re sqrt(-xi_eps^2), and its proof-level lower
bounds on C1- and C2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import chain, gk, kernel


# tail samples below this are numerically extinguished (near-subnormal)
_TAIL_FLOOR = 1e-280
# share of the certified budget tol * |value| given to each tail extension
# zone as its absolute tolerance (the interior takes half the budget)
_TAIL_ZONE_SHARE = 0.01


class QuadratureError(RuntimeError):
    """Budget exhausted or tail estimate failed to converge."""


class RegionTag(Enum):
    C0 = "C0"
    C1plus = "C1plus"
    C1minus = "C1minus"
    C2 = "C2"


def check_region_lambda(lam: float) -> None:
    """The region parameter lambda of C0, C1+, C1-, C2 lies in (1/2, 1)."""
    if not 0.5 < lam < 1.0:
        raise ValueError("region parameter must lie in (1/2, 1)")


def region_classify_radial(t: float, r: float, lam: float) -> RegionTag:
    check_region_lambda(lam)
    t = abs(t)
    if t == 0:
        raise ValueError("region decomposition needs t != 0")
    if r >= t / lam:
        return RegionTag.C2
    if r >= t:
        return RegionTag.C1minus
    # r < t from here on
    if t >= 1.0:
        edge = np.sqrt(max(t * t - t ** (2.0 * lam), 0.0))
        if r <= edge:
            return RegionTag.C0
    return RegionTag.C1plus


def region_classify(xi, lam: float) -> RegionTag:
    xi = np.asarray(xi, dtype=float)
    return region_classify_radial(xi[0], float(np.linalg.norm(xi[1:])), lam)


def exponent_exact(t, r, eps: float):
    """Re sqrt(-xi_eps^2) = sqrt((|z| + Re z)/2) with z = -xi_eps^2."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    re_z = r * r - t * t + eps * eps
    abs_z = np.hypot(re_z, 2.0 * eps * t)
    return np.sqrt(0.5 * (abs_z + re_z))


def decay_lower_bound(xi, eps: float, lam: float) -> float:
    """Proof-level lower bound for Re sqrt(-xi_eps^2) on C1- (t >= 1) and C2."""
    xi = np.asarray(xi, dtype=float)
    t = abs(float(xi[0]))
    r = float(np.linalg.norm(xi[1:]))
    tag = region_classify_radial(t, r, lam)
    if tag is RegionTag.C2:
        return float(np.sqrt(0.5 * (2.0 * eps * t + (1.0 - lam * lam) * r * r)))
    if tag is RegionTag.C1minus and t >= 1.0:
        return float(np.sqrt(eps) * t ** (1.0 - lam))
    raise ValueError("no proof-level constant on region %s" % tag.value)


def p_norm_radial(t, r, eps_chain: float, m: float):
    """Spectral norm |P(t, r)|_2 of the kernel at chain regularization,
    via the closed form for its doubled singular-value pairs."""
    p = kernel.RegKernelParams(m, eps_chain)
    f, g, zeta = kernel.kernel_fg_radial(t, r, p)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    # P^H P has doubled eigenvalues mu1, mu1, mu2, mu2 with
    # mu1 + mu2 = tr(P^H P)/2 and mu1 mu2 = |det P| = |g^2 + f^2 zeta|^2
    quarter_tr = (np.abs(f) ** 2 * (t * t + eps_chain * eps_chain + r * r)
                  + np.abs(g) ** 2)
    absdet = np.abs(g * g + f * f * zeta) ** 2
    mu_max = quarter_tr + np.sqrt(np.maximum(quarter_tr ** 2 - absdet, 0.0))
    return np.sqrt(mu_max)


@dataclass
class QuadratureReport:
    integral_name: str
    m: float
    epsilon: float
    lambda_region: float
    value: float
    abs_error_estimate: float
    truncation_T: float
    truncation_R: float
    tail_bound: float
    regions_evaluated: int
    wall_time: float
    extras: dict = field(default_factory=dict)

    @property
    def truncation_radius(self) -> float:
        return max(self.truncation_T, self.truncation_R)


def _integrand_factory(kind: str, params: kernel.RegKernelParams,
                       eps_chain: float | None = None):
    m = params.m
    ec = 2.0 * params.eps if eps_chain is None else eps_chain

    if kind == "p4":
        def f(t, r):
            w = 4.0 * np.pi * r * r
            return (w * p_norm_radial(t, r, ec, m) ** 4)[:, None]
        return f
    if kind == "lagrangian":
        def f(t, r):
            w = 4.0 * np.pi * r * r
            a, b = chain.invariants_from_radial(t, r, ec, m)
            lag = chain.lagrangian_of_b(b)
            lp = np.where(b >= 0, (a + np.sqrt(np.maximum(b, 0.0))) ** 2,
                          a * a - b)
            lm = np.where(b >= 0, (a - np.sqrt(np.maximum(b, 0.0))) ** 2,
                          a * a - b)
            return np.stack([w * lag, w * lp, w * lm], axis=-1)
        return f
    raise ValueError(kind)


def _scalar_integrand(f):
    def g(t, r):
        return f(t, r)[:, 0]
    return g


def _fit_exp(xs, ys):
    """Least-squares fit ln y = c0 - k x; returns (c0, k) in log space
    (so the caller can evaluate remainders without overflow)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = ys > _TAIL_FLOOR
    if mask.sum() < 2:
        return -np.inf, np.inf
    coef = np.polyfit(xs[mask], np.log(ys[mask]), 1)
    return float(coef[1]), float(-coef[0])


def _cone_coordinates(f, r_lo: float, r_hi: float):
    """f in light-cone coordinates (t, u = r - t), zero for r outside
    [r_lo, r_hi] (the change of variables has unit Jacobian)."""
    def g(t, u):
        r = t + u
        keep = (r >= r_lo) & (r <= r_hi)
        vals = f(t[keep], r[keep])
        out = np.zeros((t.size,) + vals.shape[1:], dtype=vals.dtype)
        out[keep] = vals
        return out
    return g


def _tail_estimate(f, T: float, R: float, lam: float, tol_abs: float,
                   max_panels: int = 800):
    """Integral of f over the exterior of [0,T]x[0,R] (t >= 0 quarter).

    Two extension zones are integrated directly: [T, 4T] x [0, Rbig]
    (the t-zone) and [0, T] x [R, Rbig] (the r-zone).  Each runs in
    light-cone coordinates (t, u = r - t) over the u-range of its
    rectangle, with r outside the rectangle masked to 0, split at the
    breakpoints u = -delta, 0, +delta (delta = T/40) that fall inside
    it, so the ridge along the cone is a strip edge.  Each zone gets the
    absolute tolerance tol_abs, shared evenly among its strips, and
    contributes value + error estimate.  Beyond the zones, fitted
    exponential envelopes (inflated 2x) close the ends.

    Every length (Rbig, the sample ranges, delta) scales with T.
    Returns (tail, info_dict); info carries each zone's value and error,
    the fitted closures and the 2-D and 1-D panel counts.
    """
    fs = _scalar_integrand(f)
    T2 = 4.0 * T
    # margins of 2, 5 and 1 at the default T = 40, scaled with T
    Rbig = max(4.0 * R, T2 / lam + T / 20.0)
    delta = T / 40.0

    zones = {"t": (T, T2, 0.0, Rbig), "r": (0.0, T, R, Rbig)}
    zone_val, zone_err = {}, {}
    panels_2d = panels_1d = 0
    for key, (t0, t1, r0, r1) in zones.items():
        g = _cone_coordinates(f, r0, r1)
        u_lo, u_hi = r0 - t1, r1 - t0
        cuts = [u for u in (-delta, 0.0, delta) if u_lo < u < u_hi]
        edges = [u_lo] + cuts + [u_hi]
        share = tol_abs / (len(edges) - 1)
        zone_val[key] = zone_err[key] = 0.0
        for u0, u1 in zip(edges[:-1], edges[1:]):
            v, err, n = gk.integrate_2d(g, (t0, t1, u0, u1), tol_abs=share,
                                        max_panels=max_panels)
            zone_val[key] += float(v[0])
            zone_err[key] += err
            panels_2d += n

    # along-cone closure beyond t = 4T: s(t) ~ A exp(-k sqrt(t))
    ts = T2 * np.array([1.0, 1.3, 1.6, 2.0])
    svals = []
    for tj in ts:
        val, _, n = gk.integrate_1d(
            lambda r, tj=tj: fs(np.full_like(r, tj), r),
            0.0, tj / lam + T / 8.0, tol_abs=0.0, max_panels=40)
        svals.append(max(float(np.real(val)), 0.0))
        panels_1d += n
    c_t, k_t = _fit_exp(np.sqrt(ts), svals)
    if k_t > 0 and np.isfinite(k_t):
        # int_{4T}^inf A e^{-k sqrt t} dt = 2 A e^{-k s0}(s0/k + 1/k^2)
        s0 = np.sqrt(T2)
        rem_t = 2.0 * np.exp(c_t - k_t * s0) * (s0 / k_t + 1.0 / k_t ** 2)
    elif max(svals) <= _TAIL_FLOOR:
        rem_t = 0.0
    else:
        rem_t = np.inf

    # sideways closure beyond r = Rbig: q(r) ~ A exp(-k r)
    rs = Rbig * np.array([1.0, 1.05, 1.1, 1.2])
    qvals = []
    for rj in rs:
        val, _, n = gk.integrate_1d(
            lambda t, rj=rj: fs(t, np.full_like(t, rj)),
            0.0, T2, tol_abs=0.0, max_panels=40)
        qvals.append(max(float(np.real(val)), 0.0))
        panels_1d += n
    c_r, k_r = _fit_exp(rs, qvals)
    if k_r > 0 and np.isfinite(k_r):
        rem_r = np.exp(c_r - k_r * Rbig) / k_r
    elif max(qvals) <= _TAIL_FLOOR:
        rem_r = 0.0
    else:
        rem_r = np.inf

    tail = sum(zone_val.values()) + sum(zone_err.values()) \
        + 2.0 * (rem_t + rem_r)
    info = {"tail_zone_t": zone_val["t"], "tail_zone_r": zone_val["r"],
            "tail_zone_err_t": zone_err["t"],
            "tail_zone_err_r": zone_err["r"],
            "tail_fit_logA_t": c_t, "tail_fit_k_t": k_t,
            "tail_fit_logA_r": c_r, "tail_fit_k_r": k_r,
            "tail_rem_t": 2.0 * rem_t, "tail_rem_r": 2.0 * rem_r,
            "tail_panels_2d": panels_2d, "tail_panels_1d": panels_1d}
    return tail, info


def _run_reduced(kind: str, params: kernel.RegKernelParams, tol: float,
                 lam: float, T: float, R: float, max_panels: int,
                 eps_chain: float | None = None, name: str | None = None):
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    check_region_lambda(lam)
    start = time.perf_counter()
    f = _integrand_factory(kind, params, eps_chain)

    value = None
    tail_panels = {"tail_panels_2d": 0, "tail_panels_1d": 0}
    for attempt in range(3):
        # the capped probe fixes the tolerance scale; its splits are the
        # tolerance pass's first, so the two share their panels
        panels = {}
        vest, _, _ = gk.integrate_2d(f, (0.0, T, 0.0, R), tol_abs=0.0,
                                     max_panels=64, cache=panels)
        scale = max(abs(float(np.real(vest[0]))), 1e-300)
        vvec, err, count = gk.integrate_2d(
            f, (0.0, T, 0.0, R), tol_abs=0.5 * tol * scale,
            max_panels=max_panels, cache=panels)
        tail, tail_info = _tail_estimate(f, T, R, lam,
                                         _TAIL_ZONE_SHARE * tol * scale)
        for key in tail_panels:
            tail_panels[key] += tail_info[key]
        value = 2.0 * float(np.real(vvec[0]))
        err_total = 2.0 * float(err)
        tail_total = 2.0 * float(tail)
        if not np.isfinite(tail_total):
            raise QuadratureError("tail fit failed (no decay detected)")
        if err_total + tail_total <= tol * abs(value):
            break
        T *= 1.6
        R *= 1.6
    else:
        raise QuadratureError("interior+tail did not reach tolerance")

    # panel counts are summed over all attempts; the rest is the last one's
    extras = dict(tail_info, **tail_panels, attempts=attempt + 1)
    if kind == "lagrangian":
        extras["int_lambda_plus_sq"] = 2.0 * float(np.real(vvec[1]))
        extras["int_lambda_minus_sq"] = 2.0 * float(np.real(vvec[2]))
    return QuadratureReport(
        integral_name=name or kind, m=params.m, epsilon=params.eps,
        lambda_region=lam, value=value, abs_error_estimate=err_total,
        truncation_T=T, truncation_R=R, tail_bound=tail_total,
        regions_evaluated=count, wall_time=time.perf_counter() - start,
        extras=extras)


def integrate_p4(params: kernel.RegKernelParams, tol: float = 0.005,
                 lam: float = 0.85, T: float = 40.0, R: float = 48.0,
                 max_panels: int = 20000) -> QuadratureReport:
    """int_{R^4} |P^{2eps}(0,xi)|_2^4 d^4 xi."""
    return _run_reduced("p4", params, tol, lam, T, R, max_panels)


def integrate_lagrangian(params: kernel.RegKernelParams, tol: float = 0.005,
                         lam: float = 0.85, T: float = 40.0, R: float = 48.0,
                         max_panels: int = 20000) -> QuadratureReport:
    """int L(0, xi) d^4 xi; |lambda_pm|^2 integrals ride along in extras."""
    return _run_reduced("lagrangian", params, tol, lam, T, R, max_panels)


def ell_varied(lam_var: float, params: kernel.RegKernelParams,
               tol: float = 0.005, lam: float = 0.85, T: float = 40.0,
               R: float = 48.0, max_panels: int = 20000) -> QuadratureReport:
    """Integrated Lagrangian of the eps-rescaled variation: the chain of
    F^{eps+lam_var}(x) with the vacuum F^{eps}(y) carries effective
    regularization 2 eps + lam_var."""
    if params.eps + lam_var <= 0:
        raise ValueError("varied regularization must stay positive")
    return _run_reduced("lagrangian", params, tol, lam, T, R, max_panels,
                        eps_chain=2.0 * params.eps + lam_var,
                        name="ell(%g)" % lam_var)


def mc_p4_at_x(params: kernel.RegKernelParams, x, n_samples: int = 20000,
               seed: int = 12345, c_t: float = 4.0, c_u: float = 1.5):
    """Monte-Carlo estimate of int |P^{2eps}(x,y)|^4 d^4 y.

    The sample points y live in a fixed frame (light-cone-concentrated
    proposal around the origin), so moving the base point x genuinely
    reweights the estimator; agreement across base points within the
    standard error certifies translation invariance of the integral.
    Returns (estimate, standard_error).
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    m, ec = params.m, 2.0 * params.eps

    def sample_heavy(n, scale):
        # density 2/(pi scale (1+(u/scale)^2)^2), sampled by rejection
        # from a Cauchy proposal
        out = np.empty(n)
        filled = 0
        while filled < n:
            cand = rng.standard_cauchy(2 * (n - filled))
            acc = rng.random(cand.size) < 1.0 / (1.0 + cand * cand)
            take = cand[acc][: n - filled]
            out[filled:filled + take.size] = take
            filled += take.size
        return out * scale

    def dens_heavy(u, scale):
        return 2.0 / (np.pi * scale * (1.0 + (u / scale) ** 2) ** 2)

    t = sample_heavy(n_samples, c_t)
    u = sample_heavy(n_samples, c_u)
    rho = np.abs(np.abs(t) + u)                    # folded around the cone
    q_rho = dens_heavy(rho - np.abs(t), c_u) + dens_heavy(-rho - np.abs(t), c_u)
    dirs = rng.normal(size=(n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    y = np.concatenate([t[:, None], rho[:, None] * dirs], axis=1)
    q4 = dens_heavy(t, c_t) * q_rho / (4.0 * np.pi * rho * rho)

    xi = x[None, :] - y
    r = np.linalg.norm(xi[:, 1:], axis=1)
    fvals = p_norm_radial(xi[:, 0], np.maximum(r, 1e-300), ec, m) ** 4
    w = fvals / q4
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / np.sqrt(n_samples))
    return est, se
