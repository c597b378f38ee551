"""Batched Gauss-Kronrod refinement against the one-panel-per-call loops.

The reference loops below evaluate one panel per integrand call; the
batched integrators must replay them exactly: value, error and panel
count bitwise equal.
"""

import heapq

import numpy as np
import pytest

from seacausal import gk, quadrature
from seacausal.kernel import RegKernelParams

XK, WK, WG7, G7_IDX = gk._XK, gk._WK, gk._WG7, gk._G7_IDX


# ------------------------------------------------------- reference loops
def ref_panel_1d(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = f(mid + half * XK)
    vk = half * np.tensordot(WK, fx, axes=(0, 0))
    vg = half * np.tensordot(WG7, fx[G7_IDX], axes=(0, 0))
    return vk, float(np.max(np.abs(vk - vg)))


def ref_integrate_1d(f, a, b, tol_abs, max_panels=4000):
    val, err = ref_panel_1d(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    total_err = err
    while heap and total_err > tol_abs:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, (neg, _, pa, pb, pval, perr))
            break
        pm = 0.5 * (pa + pb)
        v1, e1 = ref_panel_1d(f, pa, pm)
        v2, e2 = ref_panel_1d(f, pm, pb)
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, pm, pb, v2, e2))
        count += 2
    panels = sorted(heap, key=lambda p: (p[2], p[3]))
    value = sum(p[4] for p in panels)
    err = float(sum(p[5] for p in panels))
    return value, err, count


def ref_panel_2d(f, box):
    t0, t1, r0, r1 = box
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    T, R = np.meshgrid(tm + th * XK, rm + rh * XK, indexing="ij")
    vals = np.asarray(f(T.ravel(), R.ravel())).reshape(15, 15, -1)
    kk = th * rh * np.einsum("i,j,ijk->k", WK, WK, vals)
    gk_ = th * rh * np.einsum("i,j,ijk->k", WG7, WK, vals[G7_IDX, :, :])
    kg = th * rh * np.einsum("i,j,ijk->k", WK, WG7, vals[:, G7_IDX, :])
    return kk, float(np.max(np.abs(kk - gk_))), \
        float(np.max(np.abs(kk - kg)))


def ref_integrate_2d(f, box, tol_abs, max_panels=20000):
    val, et, er = ref_panel_2d(f, box)
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
        v1, e1t, e1r = ref_panel_2d(f, b1)
        v2, e2t, e2r = ref_panel_2d(f, b2)
        total += e1t + e1r + e2t + e2r - (pet + per)
        heapq.heappush(heap, (-(e1t + e1r), count, b1, v1, e1t, e1r))
        heapq.heappush(heap, (-(e2t + e2r), count + 1, b2, v2, e2t, e2r))
        count += 2
    panels = sorted(heap, key=lambda p: (p[2][0], p[2][2], p[2][1], p[2][3]))
    value = np.sum([p[3] for p in panels], axis=0)
    err = float(sum(p[4] + p[5] for p in panels))
    return value, err, count


def assert_bitwise(got, want):
    (gv, ge, gn), (wv, we, wn) = got, want
    gv, wv = np.asarray(gv), np.asarray(wv)
    assert gv.dtype == wv.dtype and gv.shape == wv.shape
    assert gv.tobytes() == wv.tobytes()
    assert np.float64(ge).tobytes() == np.float64(we).tobytes()
    assert gn == wn


# ------------------------------------------------------------ integrands
def smooth_1d(x):
    return np.stack([np.exp(-x) * np.sin(3.0 * x), 1.0 / (1.0 + x * x),
                     np.sqrt(x)], axis=-1)


def complex_1d(x):
    return np.exp(5j * x) / (1.0 + x)


def smooth_2d(t, r):
    return np.stack([np.exp(-t * r) * np.cos(t - r), np.sqrt(t + r),
                     1.0 / (1.0 + (t - 0.3) ** 2 + r * r)], axis=-1)


def complex_2d(t, r):
    return (np.exp(1j * (3.0 * t + r)) / (1.0 + t * r))[:, None]


CASES_1D = [
    ("smooth", smooth_1d, (0.0, 5.0), dict(tol_abs=1e-12)),
    ("complex", complex_1d, (0.0, 20.0), dict(tol_abs=1e-12)),
    ("capped64", smooth_1d, (0.0, 5.0), dict(tol_abs=0.0, max_panels=64)),
    ("capped40", complex_1d, (0.0, 20.0), dict(tol_abs=0.0, max_panels=40)),
    ("max_panels", lambda x: np.abs(x - 1.0 / 3.0) ** 0.2, (0.0, 1.0),
     dict(tol_abs=1e-15, max_panels=101)),
]

CASES_2D = [
    ("smooth", smooth_2d, (0.0, 2.0, 0.0, 3.0), dict(tol_abs=1e-11)),
    ("complex", complex_2d, (0.0, 4.0, 0.0, 2.0), dict(tol_abs=1e-13)),
    ("capped64", smooth_2d, (0.0, 2.0, 0.0, 3.0),
     dict(tol_abs=0.0, max_panels=64)),
    ("capped40", complex_2d, (0.0, 4.0, 0.0, 2.0),
     dict(tol_abs=0.0, max_panels=40)),
    ("max_panels", lambda t, r: np.abs(t - r) ** 0.3, (0.0, 1.0, 0.0, 1.0),
     dict(tol_abs=1e-14, max_panels=301)),
]


class TestExactReplay:
    @pytest.mark.parametrize("name,f,ab,kw", CASES_1D,
                             ids=[c[0] for c in CASES_1D])
    def test_1d(self, name, f, ab, kw):
        got = gk.integrate_1d(f, *ab, **kw)
        assert_bitwise(got, ref_integrate_1d(f, *ab, **kw))
        if name == "max_panels":
            assert got[2] == 101

    @pytest.mark.parametrize("name,f,box,kw", CASES_2D,
                             ids=[c[0] for c in CASES_2D])
    def test_2d(self, name, f, box, kw):
        got = gk.integrate_2d(f, box, **kw)
        assert_bitwise(got, ref_integrate_2d(f, box, **kw))
        if name == "max_panels":
            assert got[2] == 301

    def test_tail_zone_integrand(self):
        # the r-zone strip of the p4 tail at the defaults, masked to
        # r in [R, Rbig] in light-cone coordinates (t, u = r - t)
        f = quadrature._integrand_factory("p4", RegKernelParams(1.0, 0.1))
        g = quadrature._cone_coordinates(f, 48.0, 192.0)
        box = (0.0, 40.0, 8.0, 192.0)
        for kw in (dict(tol_abs=1e-14), dict(tol_abs=0.0, max_panels=40)):
            assert_bitwise(gk.integrate_2d(g, box, **kw),
                           ref_integrate_2d(g, box, **kw))

    def test_tail_cross_section(self):
        fs = quadrature._scalar_integrand(
            quadrature._integrand_factory("p4", RegKernelParams(1.0, 0.1)))

        def q(t):
            return fs(t, np.full_like(t, 192.0))
        kw = dict(tol_abs=0.0, max_panels=40)
        assert_bitwise(gk.integrate_1d(q, 0.0, 160.0, **kw),
                       ref_integrate_1d(q, 0.0, 160.0, **kw))

    @pytest.mark.parametrize("kind", ["p4", "lagrangian"])
    def test_certified_interior(self, kind):
        f = quadrature._integrand_factory(kind, RegKernelParams(1.0, 0.1))
        box = (0.0, 40.0, 0.0, 48.0)
        probe = ref_integrate_2d(f, box, tol_abs=0.0, max_panels=64)
        tol_abs = 0.5 * 0.005 * abs(float(probe[0][0]))
        want = ref_integrate_2d(f, box, tol_abs=tol_abs)
        assert_bitwise(gk.integrate_2d(f, box, tol_abs=tol_abs), want)
        # the probe's panels shared with the tolerance pass
        cache = {}
        assert_bitwise(gk.integrate_2d(f, box, tol_abs=0.0, max_panels=64,
                                       cache=cache), probe)
        assert_bitwise(gk.integrate_2d(f, box, tol_abs=tol_abs, cache=cache),
                       want)


class _Recorder:
    """Wraps the integrands handed to gk and records each panel's nodes."""

    SIZES = {"integrate_1d": 15, "integrate_2d": 225}

    def __init__(self, monkeypatch):
        self.calls = {name: 0 for name in self.SIZES}
        self.panels = {name: [] for name in self.SIZES}
        self._alive = []
        for name in self.SIZES:
            monkeypatch.setattr(gk, name, self._wrap(name, getattr(gk, name)))

    def _wrap(self, name, integrate):
        size = self.SIZES[name]

        def wrapper(f, *args, **kwargs):
            self._alive.append(f)        # keeps id(f) unique

            def recorded(*xs):
                self.calls[name] += 1
                for i in range(0, len(xs[0]), size):
                    self.panels[name].append((id(f),) + tuple(
                        x[i:i + size].tobytes() for x in xs))
                return f(*xs)
            return integrate(recorded, *args, **kwargs)
        return wrapper


class TestSaving:
    def test_no_panel_evaluated_twice(self, monkeypatch):
        rec = _Recorder(monkeypatch)
        quadrature.integrate_p4(RegKernelParams(1.0, 0.1))
        for name, panels in rec.panels.items():
            assert panels, name
            assert len(set(panels)) == len(panels), name

    def test_panels_per_call(self, monkeypatch):
        # 2-D refinement is where the work is; the capped 1-D tail samples
        # zoom along one chain, so most of their splits cannot be batched
        rec = _Recorder(monkeypatch)
        quadrature.integrate_p4(RegKernelParams(1.0, 0.1))
        assert 4 * rec.calls["integrate_2d"] \
            <= len(rec.panels["integrate_2d"])
