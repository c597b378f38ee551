"""Generic adaptive Gauss-Kronrod panel integrators (1-D and 2-D).

Panels use the QUADPACK 15-point Kronrod rule with its embedded 7-point
Gauss rule (tensor 15x15 in 2-D).  The refinement is sequential: pop the
panel with the largest error estimate, bisect it (in 2-D on the axis
with the larger error), and stop when the running error total reaches
tol_abs or the panel count reaches max_panels.

Batched evaluation.  The integrand is not called once per panel.  When
the popped panel's children have not been evaluated yet, one call
evaluates them together with the children of the next best panels on
the heap, which the refinement will most likely split soon.  The loop
then takes every panel from a cache keyed by its interval or box.  A
panel's value and error come from the same per-point values and the same
per-panel reductions as a one-panel call, so the refinement replays the
one-panel-per-call loop exactly: the final panels, value, error and
count are bitwise the same.  A capped probe pass and a tolerance pass on
the same integrand and domain take the same first splits, so they can
share one cache (``integrate_2d(..., cache=)``) and the probe costs no
extra evaluations.

Integrand contract: f must be pure and pointwise (a point's value may not
depend on the other points in the call), and defined on the whole
domain, because speculative panels may be evaluated and never used.
"""

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
_WK_ROW = _WK.reshape(1, 15)
_WG7_ROW = _WG7.reshape(1, 7)

# Children of at most this many panels are evaluated per integrand call,
# fewer while the panel count is small (count // 8): early on the heap is
# small and every split reorders it, so wide speculation would mostly be
# wasted.  A wider cap evaluates more panels that are never used: on the
# certify benchmark (2-core x86, one BLAS thread) caps of 4, 8, 16 and 64
# ran a round in 1.06, 1.04, 1.08 and 1.17 s, and peak memory grew with
# the cap.  One call carries at most 8 * 2 * 225 = 3600 points in 2-D.
_MAX_SPECULATION = 8


def _panels_1d(f, intervals):
    """15/7 panels on intervals [(a, b), ...] from one call of f; returns
    [(kronrod_value, (error_estimate,)), ...]."""
    ab = np.array(intervals, dtype=float)
    mid = 0.5 * (ab[:, 0] + ab[:, 1])
    half = 0.5 * (ab[:, 1] - ab[:, 0])
    fx = np.asarray(f((mid[:, None] + half[:, None] * _XK).ravel()))
    fx = fx.reshape((len(ab), 15) + fx.shape[1:])
    out = []
    for h, fxn in zip(half, fx):
        # np.tensordot(_WK, fxn, axes=(0, 0)) without its Python overhead:
        # the same dot of the same reshaped operands
        cols = fxn.reshape(15, -1)
        vk = h * np.dot(_WK_ROW, cols).reshape(fxn.shape[1:])
        vg = h * np.dot(_WG7_ROW, cols[_G7_IDX]).reshape(fxn.shape[1:])
        out.append((vk, (float(np.max(np.abs(vk - vg))),)))
    return out


def _panels_2d(f, boxes):
    """Tensor 15x15 Kronrod panels on boxes [(t0, t1, r0, r1), ...] from one
    call of f; returns [(value_vec, (err_t, err_r)), ...], the per-axis
    error estimates obtained by downgrading one axis to the embedded
    7-point rule."""
    bx = np.array(boxes, dtype=float)
    th = 0.5 * (bx[:, 1] - bx[:, 0])
    rh = 0.5 * (bx[:, 3] - bx[:, 2])
    tt = (0.5 * (bx[:, 0] + bx[:, 1]))[:, None] + th[:, None] * _XK
    rr = (0.5 * (bx[:, 2] + bx[:, 3]))[:, None] + rh[:, None] * _XK
    # point (i, j) of a panel is (tt[i], rr[j]), i-major as in meshgrid "ij"
    ft = np.asarray(f(np.repeat(tt, 15, axis=1).ravel(),
                      np.tile(rr, 15).ravel()))
    vals = ft.reshape(len(bx), 15, 15, -1)
    out = []
    for w, v in zip(th * rh, vals):
        kk = w * np.einsum("i,j,ijk->k", _WK, _WK, v)
        gk = w * np.einsum("i,j,ijk->k", _WG7, _WK, v[_G7_IDX, :, :])
        kg = w * np.einsum("i,j,ijk->k", _WK, _WG7, v[:, _G7_IDX, :])
        out.append((kk, (float(np.max(np.abs(kk - gk))),
                         float(np.max(np.abs(kk - kg))))))
    return out


def _split_1d(ab, errs):
    a, b = ab
    m = 0.5 * (a + b)
    return (a, m), (m, b)


def _split_2d(box, errs):
    """Bisect on the axis with the larger error estimate."""
    t0, t1, r0, r1 = box
    if errs[0] >= errs[1]:
        m = 0.5 * (t0 + t1)
        return (t0, m, r0, r1), (m, t1, r0, r1)
    m = 0.5 * (r0 + r1)
    return (t0, t1, r0, m), (t0, t1, m, r1)


def _err_sum(errs):
    """Left-to-right sum, the order the error totals have always used."""
    s = errs[0]
    for e in errs[1:]:
        s = s + e
    return s


def _refine(f, panels, split, root, tol_abs, max_panels, cache):
    """The adaptive loop shared by both dimensions; returns (heap, count).

    Heap entries are (-err, tie_break, key, value, errs), key the interval
    or box and errs its error parts.  Panels come from `cache`; a miss
    evaluates, in one call of `panels`, the missing children of the
    popped panel and those of the next best heap panels.
    """
    if root not in cache:
        cache[root] = panels(f, [root])[0]
    val, errs = cache[root]
    total = _err_sum(errs)
    heap = [(-total, 0, root, val, errs)]
    count = 1
    while heap and total > tol_abs:
        entry = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, entry)
            break
        key, errs = entry[2], entry[4]
        k1, k2 = split(key, errs)
        if k1 not in cache or k2 not in cache:
            # splits left before max_panels stops the loop, this one included
            width = min(max(1, min(_MAX_SPECULATION, count // 8)),
                        (max_panels - count + 1) // 2)
            todo = [k for k in (k1, k2) if k not in cache]
            for other in heapq.nsmallest(width - 1, heap):
                todo.extend(k for k in split(other[2], other[4])
                            if k not in cache)
            cache.update(zip(todo, panels(f, todo)))
        v1, e1 = cache[k1]
        v2, e2 = cache[k2]
        total += _err_sum(e1 + e2) - _err_sum(errs)
        heapq.heappush(heap, (-_err_sum(e1), count, k1, v1, e1))
        heapq.heappush(heap, (-_err_sum(e2), count + 1, k2, v2, e2))
        count += 2
    return heap, count


def integrate_1d(f, a: float, b: float, tol_abs: float, max_panels: int = 4000):
    """Adaptive 1-D integration of a vectorized (complex, possibly
    array-valued) integrand."""
    heap, count = _refine(f, _panels_1d, _split_1d, (a, b), tol_abs,
                          max_panels, {})
    panels = sorted(heap, key=lambda p: p[2])   # deterministic order
    value = sum(p[3] for p in panels)
    err = float(sum(p[4][0] for p in panels))
    return value, err, count


def integrate_2d(f, box, tol_abs: float, max_panels: int = 20000,
                 cache: dict | None = None):
    """Adaptive 2-D integration with bisection on the larger-error axis.

    f maps (t_array, r_array) -> array (npts, k) of k integrands; the
    error is controlled on their maximum.  Deterministic: panels are
    accumulated in a fixed geometric order at the end.  `cache` holds the
    panels of earlier calls on the same f and box and receives this
    call's; the result does not depend on it.
    """
    heap, count = _refine(f, _panels_2d, _split_2d, tuple(box), tol_abs,
                          max_panels, {} if cache is None else cache)
    panels = sorted(heap, key=lambda p: (p[2][0], p[2][2], p[2][1], p[2][3]))
    value = np.sum([p[3] for p in panels], axis=0)
    err = float(sum(p[4][0] + p[4][1] for p in panels))
    return value, err, count
