"""Certified integrals of the kernel theory over Minkowski space.

All integrands depend on the displacement only through (t, r) =
(xi^0, |xi_vec|) and are even in t, so integrals over R^4 reduce to
2 * int dt int dr 4 pi r^2 (...) on the quarter plane.  Each integrand
is the one certified column, 4 pi r^2 |P|^4 or 4 pi r^2 L.

The integrands have two features at the scale of the chain's
regularization eps_c (2 eps, or 2 eps + lambda for `ell_varied`): a
ridge of width about eps_c along the light cone r = t, and a blob of
size about eps_c at the origin, which carries most of L at small eps.
One partition aligned with the cone (`_cone_roots`) cuts every box
that meets the ridge: the lines r = t - delta, t, t + delta, clipped to
the box, bound the two halves of a band around r = t and its timelike
and spacelike sides, so the ridge lies on root edges, where a (t, r)
panel would straddle it with its sparse nodes.  The partition of |P|^4
(`_interior_roots`) of a box [0, T] x [0, R] is a corner box around the
origin, the strip above it, and the cone partition of the rest with
delta = 2.5 eps_c, cut in log t, so that its first panels see the mass
at t ~ eps_c however far the box reaches.  The Lagrangian's
(`_lagrangian_roots`) is cut instead along its kink: L = 4 max(b, 0) is
0 beyond a curve r0(t) where b changes sign, which runs from near the
origin to the cone.  The curve is found once per attempt (one bisection
of b at fixed nodes, `_kink`) and interpolated; a band of half-width
delta on each side of it holds the ridge of L under the kink, the
region under the band is smooth, and the regions above the curve read 0
with an error of 0.  Where the curve or a band edge is clipped to
[0, R], the roots are also cut in t where the clip switches.  On either
partition all roots are refined from one heap of adaptive Gauss-Kronrod
panels, until the error total is at most tol/2 * |running value|: the
quadrature takes half the tolerance budget, and its mesh is never
coarser than the partition, whose nodes see the ridge and the blob at
every eps.

Each attempt integrates the box [0, 4T] x [0, Rbig] of `_tail_geometry`
on its partition, as one sub-integral, and the closures' eight
cross-sections beyond it in the same `gk.integrate_many` batch, one
integrand call per refinement step for all of them.  The closures are
exponentials fitted to the cross-sections and inflated 2x (their
constants are recorded in the report); they are estimates, not proofs,
so `tail_bound` is an estimate as long as it rests on them.  All tail
geometry scales with T, so the integrals are covariant under the mass
scaling (m, eps, T, R) -> (s m, eps / s, T / s, R / s).

Also houses the exact decay exponent Re sqrt(-xi_eps^2) and the paper's
decay lemma, its lower bounds on the regions C1- and C2
(`decay_lower_bound`), which `verify geometry` checks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import chain, gk, kernel

_log = logging.getLogger("seacausal")

# tail samples below this are numerically extinguished (near-subnormal)
_TAIL_FLOOR = 1e-280
# share of tol given to the closures' cross-sections as their relative
# tolerance (the box takes half the budget)
_SECTION_SHARE = 0.01
# the interior partition: a band of half-width delta = _BAND eps_chain
# around the cone r = t, and a corner box out to t_c = _CORNER delta.
# Measured against rel-2e-6 runs on this partition and on (4 eps_chain,
# 2 delta), which agree within 1.2e-5 at eps from 0.2 to 0.00625 (p4 and
# L): the default-tolerance interior lies within 7.4e-4 of them, against
# estimates of 1.8e-3 to 2.5e-3.  Bands of 2 to 4 eps_chain with t_c of
# 2 to 4 delta all stayed within their estimates at eps = 0.1, 0.05 and
# 0.0125; a band of eps_chain did not: with t_c = 2 delta it read p4 at
# eps = 0.05 low by 4.6e-3 against an estimate of 2.4e-3
_BAND = 2.5
_CORNER = 3.0
# the largest ratio t1 / t0 of a piece of p4's cone partition beyond the
# corner.  At eps = 1e-5 to 2e-4 ratios of 16, 8 and 4 all read the
# eps^8 law within 6.6e-6 at the default tolerance, and one piece from
# t_c to 4T read it 8.1 % low already at 2e-4; at eps = 0.1 and 0.05
# they take 20 and 24, 24 and 22, and 28 and 26 panels
_CONE_RATIO = 16.0
# the Lagrangian's kink b = 0: Chebyshev nodes per t-piece of the curve,
# and bisection steps of the root solve at them.  With 16 and 16, rel-2e-7
# runs of L on its partition and on the cone partition agree within 4e-8
# at eps = 0.1 to 0.0125; with 12 nodes they differed by 1.2e-5 at
# eps = 0.1, against estimates of 1.6e-7
_KINK_NODES = 16
_KINK_STEPS = 16
# the tail's reach across the cone r = t: the box runs out to r = 4T /
# _TAIL_REACH + T/20 at least, the cross-section at t to t / _TAIL_REACH + T/8
_TAIL_REACH = 0.85


class QuadratureError(RuntimeError):
    """Budget exhausted or tail estimate failed to converge."""


def exponent_exact(t, r, eps: float):
    """Re sqrt(-xi_eps^2) = sqrt((|z| + Re z)/2) with z = -xi_eps^2."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    re_z = r * r - t * t + eps * eps
    abs_z = np.hypot(re_z, 2.0 * eps * t)
    return np.sqrt(0.5 * (abs_z + re_z))


def decay_lower_bound(t, r, eps: float, lam: float):
    """The decay lemma's lower bounds for Re sqrt(-xi_eps^2) at (t, r) =
    (xi^0, |xi_vec|), with the region parameter lam in (1/2, 1); all four
    arguments broadcast.

    On C2 (r >= |t| / lam) the bound is sqrt((2 eps |t| + (1 - lam^2)
    r^2) / 2), on C1- (|t| <= r < |t| / lam) with |t| >= 1 it is
    sqrt(eps) |t|^(1 - lam), and elsewhere (C0, C1+ and C1- with |t| < 1)
    the lemma gives no constant and the result is nan.  The regions need
    t != 0.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((0.5 < lam) & (lam < 1.0)):
        raise ValueError("region parameter must lie in (1/2, 1)")
    t = np.abs(np.asarray(t, dtype=float))
    if np.any(t == 0.0):
        raise ValueError("region decomposition needs t != 0")
    r = np.asarray(r, dtype=float)
    c2 = np.sqrt(0.5 * (2.0 * eps * t + (1.0 - lam * lam) * r * r))
    c1_minus = np.sqrt(eps) * t ** (1.0 - lam)
    return np.where(r >= t / lam, c2,
                    np.where((r >= t) & (t >= 1.0), c1_minus, np.nan))[()]


def p_norm_radial(t, r, eps_chain: float, m: float):
    """Spectral norm |P(t, r)|_2 of the kernel at chain regularization,
    via the closed form for its doubled singular-value pairs."""
    p = kernel.RegKernelParams(m, eps_chain)
    f, g, zeta = kernel.kernel_fg_radial(t, r, p)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    # P^H P has doubled eigenvalues mu1, mu1, mu2, mu2 with
    # mu1 + mu2 = tr(P^H P)/2 and mu1 mu2 = |det P| = |g^2 + f^2 zeta|^2,
    # in real parts as in chain.invariants_from_radial
    fr, fi, gr, gi = f.real, f.imag, g.real, g.imag
    fr2, fi2, gr2, gi2 = fr * fr, fi * fi, gr * gr, gi * gi
    quarter_tr = ((fr2 + fi2) * (t * t + eps_chain * eps_chain + r * r)
                  + (gr2 + gi2))
    f2r, f2i = fr2 - fi2, 2.0 * fr * fi            # f^2
    det_r = gr2 - gi2 + f2r * zeta.real - f2i * zeta.imag
    det_i = 2.0 * gr * gi + f2r * zeta.imag + f2i * zeta.real
    absdet = det_r * det_r + det_i * det_i
    mu_max = quarter_tr + np.sqrt(np.maximum(quarter_tr ** 2 - absdet, 0.0))
    return np.sqrt(mu_max)


@dataclass
class QuadratureReport:
    integral_name: str
    m: float
    epsilon: float
    value: float
    abs_error_estimate: float
    truncation_T: float
    truncation_R: float
    tail_bound: float
    regions_evaluated: int
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
            p2 = p_norm_radial(t, r, ec, m) ** 2
            return (w * (p2 * p2))[:, None]
        return f
    if kind == "lagrangian":
        def f(t, r):
            w = 4.0 * np.pi * r * r
            _, b = chain.invariants_from_radial(t, r, ec, m)
            return (w * chain.lagrangian_of_b(b))[:, None]
        return f
    raise ValueError(kind)


def _fit_exp(xs, ys):
    """Least-squares fit ln y = c0 - k x; returns (c0, k) in log space
    (so the caller can evaluate remainders without overflow)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = ys > _TAIL_FLOOR
    if mask.sum() < 2:
        return -np.inf, np.inf
    # the least-squares line through the centred points
    x, y = xs[mask], np.log(ys[mask])
    xm, ym = x.mean(), y.mean()
    slope = np.dot(x - xm, y - ym) / np.dot(x - xm, x - xm)
    return float(ym - slope * xm), float(-slope)


def _section_chart(t=None, r=None):
    """gk chart of the cross-section at fixed t (over r) or fixed r (over
    t)."""
    if r is None:
        return lambda x: ((np.full_like(x, t), x), None)
    return lambda x: ((x, np.full_like(x, r)), None)


def _edge(e, t, u):
    """r on the edge e at t: a function e(u) of u (see `_between`), or a
    line e = (c0, c1) meaning c0 + c1 t."""
    return e(u) if callable(e) else e[0] + e[1] * t


def _between(lo, hi, curve=None):
    """Chart of the region lo <= r <= hi on (t, s) in [t0, t1] x [0, 1]:
    r = lo + s (hi - lo), with Jacobian hi - lo.  Each edge is a line
    (c0, c1) or a function of u (see `_edge`), u = curve(t), or t where
    no curve is given; the chart evaluates the curve once per call, for
    both edges."""
    curved = callable(lo) or callable(hi)

    def chart(t, s):
        if curved:
            u = t if curve is None else curve(t)
            bottom = _edge(lo, t, u)
            width = _edge(hi, t, u) - bottom
        else:
            bottom = lo[0] + lo[1] * t
            width = (hi[0] - lo[0]) + (hi[1] - lo[1]) * t
        return (t, bottom + s * width), width
    return chart


def _cone_roots(t0: float, t1: float, r0: float, r1: float, delta: float):
    """The box [t0, t1] x [r0, r1] as gk roots aligned with the cone.

    The lines r = t - delta, t, t + delta cut each r-range into regions
    (the two halves of a band of half-width delta around the ridge along
    r = t, and its timelike and spacelike sides).  A line outside
    [r0, r1] is clipped to the nearer edge, so the t-range is also cut
    where a line meets r = r0 or r = r1, and a region of zero width is
    dropped: the roots tile the box exactly.
    """
    bottom, top = (r0, 0.0), (r1, 0.0)
    cuts = [t0] + sorted(r - d for r in (r0, r1)
                         for d in (delta, 0.0, -delta)
                         if t0 < r - d < t1) + [t1]
    roots = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        lines = [bottom] + [bottom if mid + d <= r0 else
                            top if mid + d >= r1 else (d, 1.0)
                            for d in (-delta, 0.0, delta)] + [top]
        roots.extend(((a, b, 0.0, 1.0), _between(lo, hi))
                     for lo, hi in zip(lines[:-1], lines[1:]) if lo != hi)
    return roots


def _interior_roots(T: float, R: float, eps_chain: float,
                    band: float = _BAND, corner: float = _CORNER):
    """The box [0, T] x [0, R] as gk roots aligned with the cone.

    The corner [0, t_c] x [0, t_c + delta] holds the blob at the origin
    and the strip [0, t_c] x [t_c + delta, R] lies above it.  For t >=
    t_c the band of half-width delta around r = t and its sides come
    from `_cone_roots`, on k pieces cut at t_c (T / t_c)^(i / k), k the
    fewest for which no piece spans more than _CONE_RATIO in t.  The
    roots tile the box exactly for every T, R > 0.  Every length scales
    with eps_chain, T and R: delta = band eps_chain and t_c = corner
    delta, at most T.  The cuts are Python floats, so their bits depend
    on the inputs alone.
    """
    delta = band * eps_chain
    tc = min(corner * delta, T)
    edge = min(tc + delta, R)
    roots = [((0.0, tc, 0.0, 1.0), _between((0.0, 0.0), (edge, 0.0)))]
    if edge < R:
        roots.append(((0.0, tc, 0.0, 1.0), _between((edge, 0.0), (R, 0.0))))
    if tc < T:
        k = math.ceil(math.log(T / tc) / math.log(_CONE_RATIO))
        cuts = [tc * (T / tc) ** (i / k) for i in range(k)] + [T]
        for a, b in zip(cuts[:-1], cuts[1:]):
            roots += _cone_roots(a, b, 0.0, R, delta)
    return roots


def _bisect(g, lo, hi, g_lo, g_hi):
    """Where g changes sign between lo, where g_lo = g(lo) > 0, and hi,
    where g_hi = g(hi) <= 0 (lo may lie on either side of hi).

    The brackets are bisected in _KINK_STEPS fixed steps, so the bits
    depend on the inputs alone, and then cut once by false position.
    Where g has no sign change across a bracket, the result is hi.
    """
    for _ in range(_KINK_STEPS):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        above = g_mid > 0.0
        lo, g_lo = np.where(above, mid, lo), np.where(above, g_mid, g_lo)
        hi, g_hi = np.where(above, hi, mid), np.where(above, g_hi, g_mid)
    change = (g_lo > 0.0) & (g_hi <= 0.0)
    drop = np.where(change, g_lo - g_hi, 1.0)
    return np.where(change, lo + (hi - lo) * (g_lo / drop), hi)


def _kink(t, eps_chain: float, m: float):
    """Where b(t, r) changes sign, r0(t) at the nodes t.

    b > 0 at r = 0 and b < 0 at r = t + delta (delta = _BAND eps_chain),
    and b changes sign once between them; `_bisect` solves each bracket.
    Where b has no sign change across the bracket, the result is its
    upper end.
    """
    n = len(t)
    lo, hi = np.zeros_like(t), t + _BAND * eps_chain
    _, b = chain.invariants_from_radial(np.concatenate([t, t]),
                                        np.concatenate([lo, hi]), eps_chain, m)
    return _bisect(lambda r: chain.invariants_from_radial(
        t, r, eps_chain, m)[1], lo, hi, b[:n], b[n:])


def _chebyshev_curve(values, to_x):
    """The Chebyshev interpolant through values at the first-kind
    Chebyshev points x (`chebpts1`), as a function of t with x =
    to_x(t)."""
    n = len(values)
    vander = np.polynomial.chebyshev.chebvander(
        np.polynomial.chebyshev.chebpts1(n), n - 1)
    coef = vander.T @ values / n
    coef[1:] *= 2.0
    return lambda t: np.polynomial.chebyshev.chebval(to_x(t), coef)


def _crossings(curve, ts, levels):
    """The t where curve(t) crosses one of the levels, one for each sign
    change of curve - level between neighbours of the ascending samples
    ts, each solved by `_bisect`."""
    levels = np.asarray(levels, dtype=float)
    above = curve(ts)[:, None] > levels
    k, j = np.nonzero(above[:-1] != above[1:])
    if not len(k):
        return []
    # the bisection's lo is the end where curve - level > 0
    first = above[k, j]
    lo = np.where(first, ts[k], ts[k + 1])
    hi = np.where(first, ts[k + 1], ts[k])

    def g(t):
        return curve(t) - levels[j]
    return _bisect(g, lo, hi, g(lo), g(hi)).tolist()


def _lagrangian_roots(T: float, R: float, eps_chain: float, m: float):
    """The box [0, T] x [0, R] as gk roots cut along the kink of L.

    L = 4 max(b, 0) has a kink where b changes sign, once in each t, on a
    curve r0(t) that runs from near the origin to the cone r = t.  The
    curve is interpolated on two t-pieces, the corner [0, t_c] (in t) and
    [t_c, T] (in log t), each by the Chebyshev polynomial through r0 at
    _KINK_NODES Chebyshev points, from one `_kink` solve for both, and
    clipped to [0, R].  On each piece a band of half-width delta around
    the curve, clipped to [0, R], is cut like the band around the cone in
    `_cone_roots`: below the curve L = 4b is smooth, and above it b < 0,
    so the upper half-band and the region beyond it read 0 with an error
    of 0.  The upper half-band puts nodes next to the curve, so a curve
    below the kink leaves no L > 0 where no node sees it: a curve that
    misses the kink by less than delta costs panels, not accuracy.  In
    the corner the region under the curve is one root (the curve stays
    below delta there at small eps).  A clip puts a kink in t into an
    edge where it switches, so each piece is also cut in t where the
    polynomial crosses 0 or R, where the band's upper edge crosses R,
    and (beyond the corner) where its lower edge crosses 0; the
    crossings are found between the ends and the nodes of the piece
    (`_crossings`).  The roots tile the box for any curve in [0, R].
    delta and t_c are those of `_interior_roots`.
    """
    delta = _BAND * eps_chain
    tc = min(_CORNER * delta, T)
    u = 0.5 + 0.5 * np.polynomial.chebyshev.chebpts1(_KINK_NODES)
    pieces = [(0.0, tc, tc * u, lambda t: (t + t) / tc - 1.0)]
    if tc < T:
        span = np.log(T / tc)
        pieces.append((tc, T, tc * (T / tc) ** u,
                       lambda t: 2.0 * np.log(t / tc) / span - 1.0))
    r0 = _kink(np.concatenate([t for _, _, t, _ in pieces]), eps_chain, m)
    # the edges on the curve and its band, functions of the curve's value
    bottom, top = (0.0, 0.0), (R, 0.0)

    def under(c):
        return np.maximum(c - delta, 0.0)

    def on(c):
        return c

    def over(c):
        return np.minimum(c + delta, R)
    roots = []
    for n, (a, b, nodes, to_x) in enumerate(pieces):
        poly = _chebyshev_curve(
            r0[n * _KINK_NODES:(n + 1) * _KINK_NODES], to_x)

        def curve(t, poly=poly):
            return np.clip(poly(t), 0.0, R)
        edges = ([bottom] if a == 0.0 else [bottom, under]) \
            + [on, over, top]
        levels = (0.0, R, R - delta) + (() if a == 0.0 else (delta,))
        cuts = sorted(c for c in _crossings(
            poly, np.concatenate([[a], nodes, [b]]), levels) if a < c < b)
        cuts = [a] + cuts + [b]
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            if t0 < t1:
                roots.extend(((t0, t1, 0.0, 1.0), _between(lo, hi, curve))
                             for lo, hi in zip(edges[:-1], edges[1:]))
    return roots


def _tail_geometry(T: float, R: float):
    """The tail's lengths, all scaling with T: the box's outer ends 4T
    and Rbig, the half-width delta of the cross-sections' cone band, and
    the abscissae of the closures' cross-sections, ts (in t, beyond 4T)
    and rs (in r, beyond Rbig)."""
    T2 = 4.0 * T
    # margins of 2, 5 and 1 at the default T = 40, scaled with T
    Rbig = max(4.0 * R, T2 / _TAIL_REACH + T / 20.0)
    delta = T / 40.0
    # along-cone closure beyond t = 4T: s(t) ~ A exp(-k sqrt(t)), sampled
    # at ts; sideways closure beyond r = Rbig: q(r) ~ A exp(-k r), at rs
    ts = T2 * np.array([1.0, 1.3, 1.6, 2.0])
    rs = Rbig * np.array([1.0, 1.05, 1.1, 1.2])
    return T2, Rbig, delta, ts, rs


def _tail_sections(T: float, R: float, tol_rel: float):
    """The closures' eight 1-D cross-sections as gk problems: four at
    fixed t = ts over r in [0, t / _TAIL_REACH + T/8], each cut at r =
    t - delta, t and t + delta (clipped to the range, as `_cone_roots`
    cuts a box), so the ridge along the cone lies on root edges; and
    four at fixed r = rs over t in [0, 4T].  Each is refined until its
    error is at most max(_TAIL_FLOOR, tol_rel |its value|) or it reaches
    40 panels: a log-linear fit needs no more, and a sample below the
    floor, which the fit drops, stops at its roots."""
    T2, _, delta, ts, rs = _tail_geometry(T, R)
    problems = []
    for tj in ts:
        hi = tj / _TAIL_REACH + T / 8.0
        cuts = [0.0] + [c for c in (tj - delta, tj, tj + delta)
                        if 0.0 < c < hi] + [hi]
        chart = _section_chart(t=tj)
        problems.append(gk.Problem([((a, b), chart) for a, b in
                                    zip(cuts[:-1], cuts[1:])],
                                   _TAIL_FLOOR, 40, tol_rel))
    problems += [gk.Problem([((0.0, T2), _section_chart(r=rj))],
                            _TAIL_FLOOR, 40, tol_rel) for rj in rs]
    return problems


def _tail_estimate(T: float, R: float, sections):
    """The tail beyond the box [0, 4T] x [0, Rbig] (t >= 0 quarter), from
    the gk results (value, err, count) of `_tail_sections`.

    Exponential envelopes fitted to the cross-sections (inflated 2x)
    close the ends.  Returns (bound, info_dict).  The closures are
    fitted, so the bound is an estimate.  info carries the fitted
    closures and the 1-D panel count.
    """
    T2, Rbig, _, ts, rs = _tail_geometry(T, R)
    samples = [max(float(np.real(v[0])), 0.0) for v, _, _ in sections]
    svals, qvals = samples[:len(ts)], samples[len(ts):]

    c_t, k_t = _fit_exp(np.sqrt(ts), svals)
    if k_t > 0 and np.isfinite(k_t):
        # int_{4T}^inf A e^{-k sqrt t} dt = 2 A e^{-k s0}(s0/k + 1/k^2)
        s0 = np.sqrt(T2)
        rem_t = 2.0 * np.exp(c_t - k_t * s0) * (s0 / k_t + 1.0 / k_t ** 2)
    elif max(svals) <= _TAIL_FLOOR:
        rem_t = 0.0
    else:
        rem_t = np.inf

    c_r, k_r = _fit_exp(rs, qvals)
    if k_r > 0 and np.isfinite(k_r):
        rem_r = np.exp(c_r - k_r * Rbig) / k_r
    elif max(qvals) <= _TAIL_FLOOR:
        rem_r = 0.0
    else:
        rem_r = np.inf

    info = {"tail_fit_logA_t": c_t, "tail_fit_k_t": k_t,
            "tail_fit_logA_r": c_r, "tail_fit_k_r": k_r,
            "tail_rem_t": 2.0 * rem_t, "tail_rem_r": 2.0 * rem_r,
            "tail_panels_1d": sum(n for _, _, n in sections)}
    return 2.0 * (rem_t + rem_r), info


def _run_reduced(kind: str, params: kernel.RegKernelParams, tol: float,
                 T: float, R: float, max_panels: int,
                 eps_chain: float | None = None, name: str | None = None):
    """The certified integral of the integrand `kind` on up to three
    attempts, T and R growing 1.6x after each that misses tol.

    An attempt refines the box [0, 4T] x [0, Rbig] and the tail's eight
    cross-sections (`_tail_sections`) as one `gk.integrate_many` batch:
    independent sub-integrals of one integrand, one integrand call per
    refinement step for all of them, while each stops on its own
    tolerance and cap and reads bitwise what it would alone.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    ec = 2.0 * params.eps if eps_chain is None else eps_chain
    f = _integrand_factory(kind, params, ec)

    value = None
    panels = {"interior_panels": 0, "tail_panels_1d": 0}
    for attempt in range(3):
        T2, Rbig = _tail_geometry(T, R)[:2]
        roots = (_interior_roots(T2, Rbig, ec) if kind == "p4"
                 else _lagrangian_roots(T2, Rbig, ec, params.m))
        (vvec, err, count), *sections = gk.integrate_many(
            f, [gk.Problem(roots, 0.0, max_panels, 0.5 * tol)]
            + _tail_sections(T, R, _SECTION_SHARE * tol))
        tail, tail_info = _tail_estimate(T, R, sections)
        panels["interior_panels"] += count
        panels["tail_panels_1d"] += tail_info["tail_panels_1d"]
        value = 2.0 * float(np.real(vvec[0]))
        err_total = 2.0 * float(err)
        tail_total = 2.0 * float(tail)
        _log.debug("%s attempt %d: T=%g R=%g, interior %d panels, tail "
                   "%d 1-D panels, error %.6g against %.6g",
                   name or kind, attempt + 1, T, R, count,
                   tail_info["tail_panels_1d"], err_total + tail_total,
                   tol * abs(value))
        if not np.isfinite(tail_total):
            raise QuadratureError(
                "the tail closures found no decay beyond T = %g, R = %g; "
                "raise --truncation-T/-R" % (T, R))
        if err_total + tail_total <= tol * abs(value):
            break
        if attempt == 2:
            raise QuadratureError(
                "error %.3g (interior %.3g on %d panels, cap %d; tail %.3g) "
                "above tol |value| = %.3g at T = %g, R = %g, the last "
                "attempt; loosen --quad-rel-tol, or raise --quad-max-panels "
                "(interior) or --truncation-T/-R (tail)" % (
                    err_total + tail_total, err_total, count, max_panels,
                    tail_total, tol * abs(value), T, R))
        T *= 1.6
        R *= 1.6

    # a value below the normal doubles carries no certified digits
    if not value >= np.finfo(float).tiny:
        raise ValueError(
            "%s reads %r, no positive normal double: the integral scales "
            "as m^8 I(1, m eps), which leaves the double range at m = %g; "
            "integrate at --mass 1 --epsilon %g and multiply by m^8"
            % (name or kind, value, params.m, params.m * params.eps))
    # panel counts are summed over all attempts; the rest is the last one's
    extras = dict(tail_info, **panels, interior_roots=len(roots),
                  attempts=attempt + 1)
    return QuadratureReport(
        integral_name=name or kind, m=params.m, epsilon=params.eps,
        value=value, abs_error_estimate=err_total,
        truncation_T=T, truncation_R=R, tail_bound=tail_total,
        regions_evaluated=count, extras=extras)


def integrate_p4(params: kernel.RegKernelParams, tol: float = 0.005,
                 T: float = 40.0, R: float = 48.0,
                 max_panels: int = 20000) -> QuadratureReport:
    """int_{R^4} |P^{2eps}(0,xi)|_2^4 d^4 xi."""
    return _run_reduced("p4", params, tol, T, R, max_panels)


def integrate_lagrangian(params: kernel.RegKernelParams, tol: float = 0.005,
                         T: float = 40.0, R: float = 48.0,
                         max_panels: int = 20000) -> QuadratureReport:
    """int L(0, xi) d^4 xi."""
    return _run_reduced("lagrangian", params, tol, T, R, max_panels)


def ell_varied(lam_var: float, params: kernel.RegKernelParams,
               tol: float = 0.005, T: float = 40.0, R: float = 48.0,
               max_panels: int = 20000) -> QuadratureReport:
    """Integrated Lagrangian of the eps-rescaled variation: the chain of
    F^{eps+lam_var}(x) with the vacuum F^{eps}(y) carries effective
    regularization 2 eps + lam_var."""
    if params.eps + lam_var <= 0:
        raise ValueError("varied regularization must stay positive")
    return _run_reduced("lagrangian", params, tol, T, R, max_panels,
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
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    y = np.concatenate([t[:, None], rho[:, None] * dirs], axis=1)
    q4 = dens_heavy(t, c_t) * q_rho / (4.0 * np.pi * rho * rho)

    xi = x[None, :] - y
    r = np.linalg.norm(xi[:, 1:], axis=1)
    fvals = p_norm_radial(xi[:, 0], np.maximum(r, 1e-300), ec, m) ** 4
    w = fvals / q4
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / np.sqrt(n_samples))
    return est, se
