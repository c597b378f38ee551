"""Generic adaptive Gauss-Kronrod panel integrators (1-D and 2-D).

Panels use the QUADPACK 15-point Kronrod rule with its embedded 7-point
Gauss rule (tensor 15x15 in 2-D).  The refinement is sequential: pop the
panel with the largest error estimate, bisect it (in 2-D on the axis
with the larger error), and stop when the running error total reaches
the tolerance or the panel count reaches max_panels.  The tolerance is
max(tol_abs, tol_rel |running value|) in both dimensions, the running
value being the sum of the current panels' values.

A vector integrand is integrated column by column on one mesh.  A
panel's error estimate is the max over columns of |Kronrod - Gauss|, and
|running value| the max over columns.

Several roots.  The domain may be a list of roots, each a box with a
chart that maps the box's coordinates to the integrand's arguments and
gives the Jacobian.  All roots are refined from one heap, so the error
budget goes wherever the largest panel error is.

Several sub-integrals.  `integrate_many` refines independent
sub-integrals of one integrand together.  Each has its own heap,
tolerance and panel cap, so it takes exactly the steps it would take
alone; `integrate_1d` and `integrate_2d` are its one-problem cases.

Batched evaluation.  The integrand is not called once per panel, nor
once per root or sub-integral.  Each refinement is a generator that
yields the panels it needs next; the driver gathers the pending panels
of every root of every sub-integral and evaluates them in one integrand
call, however many points they hold.  When a popped
panel's children have not been evaluated yet, they are requested
together with the children of the next best panels on the heap, which
the refinement will most likely split soon; later splits take them from
a cache.  A step is one array pass per dimension: the nodes of all its
1-D panels, and of all its 2-D panels, are built at once, each root's
chart maps its slice of them, and all panels of a dimension are reduced
with one stacked matmul (1-D) or einsum (2-D) per rule.  A panel's value
and error come from the same per-point values as a one-panel call and
from the same bits of the one-panel rule, because the stacked operands
keep each panel's one-panel memory layout (see `_reduce_1d` and
`_reduce_2d`).  So each sub-integral replays the one-panel-per-call
loop exactly: the final panels, value, error and count are bitwise the
same.  Running totals are accumulated left to right, never with the
built-in `sum`, which Python compensates from 3.12 on.

Integrand contract: f must be pure and pointwise (a point's value may not
depend on the other points in the call), and defined on the whole
domain, because speculative panels may be evaluated and never used.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

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

# Children of at most this many panels are evaluated per refinement step,
# fewer while the panel count is small (count // 8): early on the heap is
# small and every split reorders it, so wide speculation would mostly be
# wasted.  On the certify benchmark's round (seed 1), caps of 1, 2 and 4
# to 64 evaluate 30 360, 31 110 and 31 140 points, of which 30 360 are
# kept, in 76, 73 and 73 evaluation steps; sixteen alternating pairs of
# in-process rounds (2-core x86, one BLAS thread) put a cap of 1 faster
# in 10 (medians 0.060 and 0.064 s), which does not resolve a difference.
# `verify kernel` takes 478 evaluation steps at a cap of 8 and 1261 at 1.
# One step of one sub-integral needs at most 8 * 2 * 225 = 3600 points in
# 2-D.
_MAX_SPECULATION = 8


class Problem(NamedTuple):
    """One sub-integral of `integrate_many`.

    roots: [(box, chart), ...], refined from one heap.  A box is an
    interval (a, b) or a rectangle (x0, x1, y0, y1), the same for every
    root of a problem.  chart(*nodes) -> (args, jac) maps the box's nodes
    to the integrand's arguments `args` (a tuple of arrays), with the
    Jacobian `jac` (None for 1).  A chart of None passes the nodes to the
    integrand as they are.  The refinement stops as in `integrate_2d`.
    """
    roots: list
    tol_abs: float
    max_panels: int
    tol_rel: float = 0.0


def _axis(lo, hi):
    """Kronrod nodes (n, 15) of the intervals [lo, hi] and their half
    widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _XK, half


def _reduce_1d(half, fx):
    """15/7 panels from the values fx at their nodes, all panels in one
    pass; returns [(kronrod_value, (error_estimate,)), ...].

    The matmul of a panel's (15, k) block is bitwise the np.dot of the
    one-panel rule (np.tensordot of the weights and the values) as long
    as each block keeps that rule's memory layout: `take` copies the
    Gauss nodes panel by panel, where fancy indexing on axis 1 would
    copy them node-major and move the last bits.
    """
    n = len(half)
    cols = fx.reshape(n, 15, -1)
    shape = (n,) + fx.shape[1:]
    scale = half.reshape((n,) + (1,) * (fx.ndim - 1))
    vk = scale * np.matmul(_WK_ROW, cols).reshape(shape)
    vg = scale * np.matmul(_WG7_ROW, cols.take(_G7_IDX, axis=1)).reshape(
        shape)
    err = np.abs(vk - vg).reshape(n, -1).max(axis=1)
    return list(zip(vk, zip(err.tolist())))


def _reduce_2d(weight, ft):
    """Tensor 15x15 Kronrod panels from the values ft at their nodes, all
    panels in one pass; returns [(value_vec, (err_x, err_y)), ...], the
    per-axis error estimates obtained by downgrading one axis to the
    embedded 7-point rule.  An estimate is the max over columns of
    |Kronrod - Gauss|.

    Each rule is one einsum over the stack, bitwise the one-panel einsum
    when every panel's Gauss operand has the one-panel memory layout:
    x-major for Gauss in x (`take` on axis 1) and y-major for Gauss in y,
    the layout one panel's v[:, _G7_IDX, :] has (taken on the swapped
    axes and swapped back).
    """
    v = ft.reshape(len(weight), 15, 15, -1)
    w = weight[:, None]
    gx = v.take(_G7_IDX, axis=1)
    gy = v.swapaxes(1, 2).take(_G7_IDX, axis=1).swapaxes(1, 2)
    kk = w * np.einsum("i,j,nijk->nk", _WK, _WK, v)
    gk = w * np.einsum("i,j,nijk->nk", _WG7, _WK, gx)
    kg = w * np.einsum("i,j,nijk->nk", _WK, _WG7, gy)
    err_x = np.abs(kk - gk).max(axis=1).tolist()
    err_y = np.abs(kk - kg).max(axis=1).tolist()
    return list(zip(kk, zip(err_x, err_y)))


def _nodes(box):
    """Kronrod nodes of the panels box, an array (n, 2) of intervals or
    (n, 4) of rectangles: (nodes, weight, reduce), nodes the tuple of
    coordinate arrays (panel-major, 15 or 225 points a panel), weight
    the panels' half widths (their products in 2-D) and reduce the rule
    that turns the values at the nodes into panels."""
    xx, xh = _axis(box[:, 0], box[:, 1])
    if box.shape[1] == 2:
        return (xx.ravel(),), xh, _reduce_1d
    yy, yh = _axis(box[:, 2], box[:, 3])
    # point (i, j) of a panel is (xx[i], yy[j]), i-major as in meshgrid "ij"
    return ((np.repeat(xx, 15, axis=1).ravel(), np.tile(yy, 15).ravel()),
            xh * yh, _reduce_2d)


def _evaluate(f, requests):
    """Panels of several problems from one call of f, in one array pass
    per dimension.  requests: [(roots, keys)], keys [(root, box), ...];
    returns, per request, [(value, errs), ...] in the order of its keys.

    The pending panels are grouped by request, then by root, and stacked
    by dimension in that order: one `_nodes` call per dimension builds
    their nodes, each root's chart maps its group's slice of them, f is
    called on the groups' arguments in group order, and one reduction
    per dimension turns the values into panels.
    """
    # a group's dim is its boxes' length, 2 or 4, and its row the index
    # of its first panel in the stack of that dimension
    stacks = {2: [], 4: []}
    groups = []                  # (request, key indices, chart, dim, row)
    for n, (roots, keys) in enumerate(requests):
        by_root = {}
        for m, (root, _) in enumerate(keys):
            by_root.setdefault(root, []).append(m)
        for root, idx in by_root.items():
            dim = len(keys[idx[0]][1])
            groups.append((n, idx, roots[root][1], dim, len(stacks[dim])))
            stacks[dim].extend(keys[m][1] for m in idx)
    built = {dim: _nodes(np.array(boxes, dtype=float))
             for dim, boxes in stacks.items() if boxes}
    args, jacs = [], []
    for _, idx, chart, dim, row in groups:
        size = 15 ** (dim // 2)          # points a panel
        nodes = tuple(c[row * size:(row + len(idx)) * size]
                      for c in built[dim][0])
        a, jac = (nodes, None) if chart is None else chart(*nodes)
        args.append(a)
        jacs.append(jac)
    values = np.asarray(f(*(c[0] if len(c) == 1 else np.concatenate(c)
                            for c in zip(*args))))
    parts = {dim: [] for dim in built}
    start = 0
    for (_, _, _, dim, _), a, jac in zip(groups, args, jacs):
        v = values[start:start + len(a[0])]
        start += len(a[0])
        if jac is not None:
            v = v * jac.reshape((-1,) + (1,) * (v.ndim - 1))
        parts[dim].append(v)
    panels = {dim: reduce(weight, np.concatenate(parts[dim]))
              for dim, (_, weight, reduce) in built.items()}
    out = [[None] * len(keys) for _, keys in requests]
    for n, idx, _, dim, row in groups:
        for m, panel in zip(idx, panels[dim][row:row + len(idx)]):
            out[n][m] = panel
    return out


def _total(errs):
    """The sum of error parts, left to right."""
    total = 0.0
    for e in errs:
        total += e
    return total


def _split(key, errs):
    """Bisect an interval, or a rectangle on the axis with the larger
    error estimate."""
    root, box = key
    if len(box) == 2:
        a, b = box
        m = 0.5 * (a + b)
        return (root, (a, m)), (root, (m, b))
    x0, x1, y0, y1 = box
    if errs[0] >= errs[1]:
        m = 0.5 * (x0 + x1)
        return (root, (x0, m, y0, y1)), (root, (m, x1, y0, y1))
    m = 0.5 * (y0 + y1)
    return (root, (x0, x1, y0, m)), (root, (x0, x1, m, y1))


def _refine(keys, tol_abs, tol_rel, max_panels):
    """The adaptive loop of one problem from its root keys, as a
    generator: it yields the keys whose panels it needs, is sent their
    [(value, errs), ...], and returns (heap, count).

    Heap entries are (-err, tie_break, key, value, errs), key (root, box)
    and errs its error parts.  The roots are requested first, together.
    Later panels come from a cache; a miss requests the missing children
    of the popped panel and those of the next best heap panels together.
    The loop stops when the error total is at most
    max(tol_abs, tol_rel |running value|).
    """
    heap, cache = [], {}
    total = value = 0.0
    panels = yield keys
    for n, (key, (val, errs)) in enumerate(zip(keys, panels)):
        heap.append((-_total(errs), n, key, val, errs))
        total += _total(errs)
        value = value + val
    heapq.heapify(heap)
    count = len(heap)
    while heap and total > max(tol_abs,
                               tol_rel * float(np.abs(value).max())):
        entry = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, entry)
            break
        key, val, errs = entry[2], entry[3], entry[4]
        k1, k2 = _split(key, errs)
        if k1 not in cache or k2 not in cache:
            # splits left before max_panels stops the loop, this one included
            width = min(max(1, min(_MAX_SPECULATION, count // 8)),
                        (max_panels - count + 1) // 2)
            todo = [k for k in (k1, k2) if k not in cache]
            for other in heapq.nsmallest(width - 1, heap):
                todo.extend(k for k in _split(other[2], other[4])
                            if k not in cache)
            cache.update(zip(todo, (yield todo)))
        v1, e1 = cache.pop(k1)
        v2, e2 = cache.pop(k2)
        total += _total(e1 + e2) - _total(errs)
        value = value + v1 + v2 - val
        heapq.heappush(heap, (-_total(e1), count, k1, v1, e1))
        heapq.heappush(heap, (-_total(e2), count + 1, k2, v2, e2))
        count += 2
    return heap, count


def integrate_many(f, problems):
    """Refine the sub-integrals `problems` (a list of `Problem`) of one
    integrand f together; returns [(value, err, count), ...] in their
    order, each bitwise what it would be alone.

    f maps the charts' argument arrays to an array (npts,) or (npts, k).
    Each step evaluates the panels every unfinished problem needs next in
    one call of f; a problem stops on its own tolerance or panel cap.
    Deterministic: a problem's panels are accumulated in a fixed order
    (root, then geometry) at the end, in 1-D left to right and in 2-D by
    np.sum.
    """
    runs = [_refine([(n, tuple(box)) for n, (box, _) in enumerate(p.roots)],
                    p.tol_abs, p.tol_rel, p.max_panels) for p in problems]
    pending = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        panels = _evaluate(f, [(problems[i].roots, keys)
                               for i, keys in pending.items()])
        step = {}
        for i, out in zip(pending, panels):
            try:
                step[i] = runs[i].send(out)
            except StopIteration as stop:
                results[i] = stop.value
        pending = step
    return [_result(heap, count) for heap, count in results]


def _result(heap, count):
    """(value, err, count) from a finished heap."""
    panels = sorted(heap, key=lambda p: (p[2][0], p[2][1][0::2],
                                         p[2][1][1::2]))
    err = 0.0
    for p in panels:
        err += _total(p[4])
    if len(panels[0][2][1]) == 4:
        return np.sum([p[3] for p in panels], axis=0), err, count
    value = 0.0
    for p in panels:
        value = value + p[3]
    return value, err, count


def integrate_1d(f, a: float, b: float, tol_abs: float, max_panels: int = 4000,
                 tol_rel: float = 0.0):
    """Adaptive 1-D integration of a vectorized (complex, possibly
    array-valued) integrand.  The refinement stops when the error is at
    most max(tol_abs, tol_rel |value|), |value| the max over columns of
    the running value, as in `integrate_2d`."""
    return integrate_many(f, [Problem([((a, b), None)], tol_abs, max_panels,
                                      tol_rel)])[0]


def integrate_2d(f, domain, tol_abs: float, max_panels: int = 20000,
                 tol_rel: float = 0.0):
    """Adaptive 2-D integration with bisection on the larger-error axis.

    f maps (t_array, r_array) -> array (npts, k) of k integrands.  The
    domain is one box (t0, t1, r0, r1), or a list of roots (box, chart)
    refined from one heap: chart(x, y) -> ((t, r), jacobian) maps the
    box's coordinates to f's, as in `Problem`, and a chart of None is the
    identity.  A panel's error is the max over columns of |Kronrod -
    Gauss|, and the refinement and the returned error follow it.  The
    refinement stops when the error is at most max(tol_abs, tol_rel
    |value|), |value| the max over columns of the running value.
    Deterministic: panels are accumulated in a fixed order (root, then
    geometry) at the end.
    """
    if np.isscalar(domain[0]):
        domain = [(domain, None)]
    return integrate_many(f, [Problem(domain, tol_abs, max_panels,
                                      tol_rel)])[0]
