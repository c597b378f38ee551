"""Generic adaptive Gauss-Kronrod panel integrators (1-D and 2-D)."""

from __future__ import annotations

import heapq

import numpy as np


# QUADPACK 15-point Kronrod rule with embedded 7-point Gauss rule
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG7 = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


def gk_panel(f, a: float, b: float):
    """One 15/7 panel; returns (kronrod_value, error_estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = f(mid + half * _XK)
    vk = half * np.tensordot(_WK, fx, axes=(0, 0))
    vg = half * np.tensordot(_WG7, fx[_G7_IDX], axes=(0, 0))
    return vk, float(np.max(np.abs(vk - vg)))


def integrate_1d(f, a: float, b: float, tol_abs: float, max_panels: int = 4000):
    """Adaptive 1-D integration of a vectorized (complex, possibly
    array-valued) integrand."""
    val, err = gk_panel(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    total_err = err
    while heap and total_err > tol_abs:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, (neg, _, pa, pb, pval, perr))
            break
        pm = 0.5 * (pa + pb)
        v1, e1 = gk_panel(f, pa, pm)
        v2, e2 = gk_panel(f, pm, pb)
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, pm, pb, v2, e2))
        count += 2
    panels = sorted(heap, key=lambda p: (p[2], p[3]))   # deterministic order
    value = sum(p[4] for p in panels)
    err = float(sum(p[5] for p in panels))
    return value, err, count


def _panel2d(f, box):
    """Tensor 15x15 Kronrod panel on box = (t0, t1, r0, r1).

    Returns (value_vec, err_t, err_r): per-axis error estimates obtained
    by downgrading one axis to the embedded 7-point rule.
    """
    t0, t1, r0, r1 = box
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    tt = tm + th * _XK
    rr = rm + rh * _XK
    T, R = np.meshgrid(tt, rr, indexing="ij")
    ft = f(T.ravel(), R.ravel())
    ft = np.asarray(ft)
    vals = ft.reshape(15, 15, -1)
    kk = th * rh * np.einsum("i,j,ijk->k", _WK, _WK, vals)
    gk = th * rh * np.einsum("i,j,ijk->k", _WG7, _WK, vals[_G7_IDX, :, :])
    kg = th * rh * np.einsum("i,j,ijk->k", _WK, _WG7, vals[:, _G7_IDX, :])
    err_t = float(np.max(np.abs(kk - gk)))
    err_r = float(np.max(np.abs(kk - kg)))
    return kk, err_t, err_r


def integrate_2d(f, box, tol_abs: float, max_panels: int = 20000):
    """Adaptive 2-D integration with bisection on the larger-error axis.

    f maps (t_array, r_array) -> array (npts, k) of k integrands; the
    error is controlled on their maximum.  Deterministic: panels are
    accumulated in a fixed geometric order at the end.
    """
    val, et, er = _panel2d(f, box)
    heap = [(-(et + er), 0, box, val, et, er)]
    count = 1
    total = et + er
    while heap and total > tol_abs:
        neg, _, pbox, pval, pet, per = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, (neg, _, pbox, pval, pet, per))
            break
        t0, t1, r0, r1 = pbox
        if pet >= per:
            m = 0.5 * (t0 + t1)
            b1, b2 = (t0, m, r0, r1), (m, t1, r0, r1)
        else:
            m = 0.5 * (r0 + r1)
            b1, b2 = (t0, t1, r0, m), (t0, t1, m, r1)
        v1, e1t, e1r = _panel2d(f, b1)
        v2, e2t, e2r = _panel2d(f, b2)
        total += e1t + e1r + e2t + e2r - (pet + per)
        heapq.heappush(heap, (-(e1t + e1r), count, b1, v1, e1t, e1r))
        heapq.heappush(heap, (-(e2t + e2r), count + 1, b2, v2, e2t, e2r))
        count += 2
    panels = sorted(heap, key=lambda p: (p[2][0], p[2][2], p[2][1], p[2][3]))
    value = np.sum([p[3] for p in panels], axis=0)
    err = float(sum(p[4] + p[5] for p in panels))
    return value, err, count
