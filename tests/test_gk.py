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


def ref_integrate_1d(f, a, b, tol_abs, max_panels=4000, tol_rel=0.0):
    val, err = ref_panel_1d(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    total_err = err
    value = val
    while heap and total_err > max(tol_abs,
                                   tol_rel * float(np.max(np.abs(value)))):
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, (neg, _, pa, pb, pval, perr))
            break
        pm = 0.5 * (pa + pb)
        v1, e1 = ref_panel_1d(f, pa, pm)
        v2, e2 = ref_panel_1d(f, pm, pb)
        total_err += e1 + e2 - perr
        value = value + v1 + v2 - pval
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
    return kk, float(np.max(np.abs(kk - gk_))), float(np.max(np.abs(kk - kg)))


def ref_integrate_2d(f, box, tol_abs, max_panels=20000):
    return ref_integrate_roots(f, [(box, None)], tol_abs,
                               max_panels=max_panels)


def ref_panel_root(f, box, chart):
    if chart is None:
        return ref_panel_2d(f, box)

    def g(x, y):
        (t, r), jac = chart(x, y)
        return np.asarray(f(t, r)) * jac[:, None]
    return ref_panel_2d(g, box)


def ref_integrate_roots(f, roots, tol_abs, tol_rel=0.0, max_panels=20000):
    heap = []
    total = value = 0.0
    for n, (box, chart) in enumerate(roots):
        val, et, er = ref_panel_root(f, box, chart)
        heap.append((-(et + er), n, n, box, val, et, er))
        total += et + er
        value = value + val
    heapq.heapify(heap)
    count = len(roots)
    while heap and total > max(tol_abs,
                               tol_rel * float(np.max(np.abs(value)))):
        neg, tie, n, pbox, pval, pet, per = heapq.heappop(heap)
        if count >= max_panels:
            heapq.heappush(heap, (neg, tie, n, pbox, pval, pet, per))
            break
        t0, t1, r0, r1 = pbox
        if pet >= per:
            m = 0.5 * (t0 + t1)
            b1, b2 = (t0, m, r0, r1), (m, t1, r0, r1)
        else:
            m = 0.5 * (r0 + r1)
            b1, b2 = (t0, t1, r0, m), (t0, t1, m, r1)
        v1, e1t, e1r = ref_panel_root(f, b1, roots[n][1])
        v2, e2t, e2r = ref_panel_root(f, b2, roots[n][1])
        total += e1t + e1r + e2t + e2r - (pet + per)
        value = value + v1 + v2 - pval
        heapq.heappush(heap, (-(e1t + e1r), count, n, b1, v1, e1t, e1r))
        heapq.heappush(heap, (-(e2t + e2r), count + 1, n, b2, v2, e2t, e2r))
        count += 2
    panels = sorted(heap, key=lambda p: (p[2], p[3][0], p[3][2], p[3][1],
                                         p[3][3]))
    value = np.sum([p[4] for p in panels], axis=0)
    err = float(sum(p[5] + p[6] for p in panels))
    return value, err, count


def assert_bitwise(got, want):
    (gv, ge, gn), (wv, we, wn) = got, want
    gv, wv = np.asarray(gv), np.asarray(wv)
    assert gv.dtype == wv.dtype and gv.shape == wv.shape
    assert gv.tobytes() == wv.tobytes()
    assert np.float64(ge).tobytes() == np.float64(we).tobytes()
    assert gn == wn


def charted(f, chart):
    """f through a gk.Problem chart, as one integrand of the box's nodes,
    times the Jacobian."""
    def g(*nodes):
        args, jac = chart(*nodes)
        out = np.asarray(f(*args))
        return out if jac is None else out * jac[:, None]
    return g


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
    ("rel", smooth_1d, (0.0, 5.0), dict(tol_abs=0.0, tol_rel=1e-10)),
    ("rel_complex", complex_1d, (0.0, 20.0),
     dict(tol_abs=0.0, tol_rel=1e-9)),
    ("both", complex_1d, (0.0, 20.0), dict(tol_abs=1e-8, tol_rel=1e-12)),
    ("rel_capped", lambda x: np.abs(x - 1.0 / 3.0) ** 0.2, (0.0, 1.0),
     dict(tol_abs=0.0, tol_rel=1e-14, max_panels=41)),
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
        if name == "rel_capped":
            assert got[2] == 41

    def test_1d_relative_stop(self):
        # as in 2-D, scaling the integrand by a power of two scales the
        # result and keeps the mesh
        def scaled(x):
            return 2.0 ** -40 * smooth_1d(x)
        v1, e1, n1 = gk.integrate_1d(smooth_1d, 0.0, 5.0, 0.0, tol_rel=1e-10)
        v2, e2, n2 = gk.integrate_1d(scaled, 0.0, 5.0, 0.0, tol_rel=1e-10)
        assert n1 == n2 > 1
        assert np.all(v2 == 2.0 ** -40 * v1) and e2 == 2.0 ** -40 * e1
        assert e1 <= 1e-10 * float(np.max(np.abs(v1)))

    def test_1d_floor_stops_subnormal_sample(self):
        # a cross-section that reads subnormal noise, as the Lagrangian's
        # sideways tail samples do far out, is below the floor everywhere:
        # one panel, where tol_abs = 0 runs it to the cap
        def noise(x):
            return 1e-310 * np.sin(7.0 * x) ** 2
        floor = quadrature._TAIL_FLOOR
        kw = dict(tol_abs=floor, max_panels=40, tol_rel=1e-4)
        got = gk.integrate_1d(noise, 0.0, 160.0, **kw)
        assert_bitwise(got, ref_integrate_1d(noise, 0.0, 160.0, **kw))
        assert got[2] == 1 and 0.0 < abs(got[0]) <= floor
        assert gk.integrate_1d(noise, 0.0, 160.0, 0.0, max_panels=40)[2] == 41

    @pytest.mark.parametrize("name,f,box,kw", CASES_2D,
                             ids=[c[0] for c in CASES_2D])
    def test_2d(self, name, f, box, kw):
        got = gk.integrate_2d(f, box, **kw)
        assert_bitwise(got, ref_integrate_2d(f, box, **kw))
        if name == "max_panels":
            assert got[2] == 301

    def test_tail_zone_integrand(self):
        # p4 on the cone-aligned roots (delta = 1) of a box out along the
        # cone and of one above it, at R = 48 and at R = 40, where the
        # second touches the cone at its corner
        f = quadrature._integrand_factory("p4", RegKernelParams(1.0, 0.1))
        for R in (48.0, 40.0):
            rbig = max(4.0 * R, 160.0 / 0.85 + 2.0)
            for box in ((40.0, 160.0, 0.0, rbig), (0.0, 40.0, R, rbig)):
                roots = quadrature._cone_roots(*box, 1.0)
                for kw in (dict(tol_abs=1e-14),
                           dict(tol_abs=0.0, max_panels=40)):
                    problem = gk.Problem(roots, kw["tol_abs"],
                                         kw.get("max_panels", 20000))
                    assert_bitwise(gk.integrate_many(f, [problem])[0],
                                   ref_integrate_roots(f, roots, **kw))

    def test_tail_cross_section(self):
        f = quadrature._integrand_factory("p4", RegKernelParams(1.0, 0.1))

        def q(t):
            return f(t, np.full_like(t, 192.0))[:, 0]
        for kw in (dict(tol_abs=0.0, max_panels=40),
                   dict(tol_abs=quadrature._TAIL_FLOOR, max_panels=40,
                        tol_rel=quadrature._SECTION_SHARE * 0.005)):
            assert_bitwise(gk.integrate_1d(q, 0.0, 160.0, **kw),
                           ref_integrate_1d(q, 0.0, 160.0, **kw))

    @pytest.mark.parametrize("kind", ["p4", "lagrangian"])
    def test_certified_interior(self, kind):
        # the ten cone-aligned roots of the box [0, 4T] x [0, Rbig] at the
        # defaults, refined from one heap to the relative tolerance the
        # certified integrals ask
        f = quadrature._integrand_factory(kind, RegKernelParams(1.0, 0.1))
        roots = quadrature._interior_roots(160.0, 192.0, 0.2)
        assert len(roots) == 10
        kw = dict(tol_abs=0.0, tol_rel=0.5 * 0.005)
        assert_bitwise(gk.integrate_2d(f, roots, **kw),
                       ref_integrate_roots(f, roots, **kw))

    @pytest.mark.parametrize("kw", [
        dict(tol_abs=1e-12), dict(tol_abs=0.0, tol_rel=1e-10),
        dict(tol_abs=1e-9, tol_rel=1e-12),
        dict(tol_abs=0.0, max_panels=41)], ids=["abs", "rel", "both", "cap"])
    def test_roots(self, kw):
        # a box, a triangle r <= t through a chart with Jacobian t, and a
        # vector integrand: the panels of one call span several roots
        def triangle(t, s):
            return (t, s * t), t
        roots = [((0.0, 1.0, 0.0, 2.0), None),
                 ((1.0, 3.0, 0.0, 1.0), triangle),
                 ((0.0, 1.0, 2.0, 3.0), None)]
        got = gk.integrate_2d(smooth_2d, roots, **kw)
        assert_bitwise(got, ref_integrate_roots(smooth_2d, roots, **kw))
        if "max_panels" in kw:
            assert got[2] == 41

    def test_relative_stop(self):
        # the rule is |error| <= tol_rel |running value|, so scaling the
        # integrand by a power of two scales the result and keeps the mesh
        def scaled(t, r):
            return 2.0 ** -40 * smooth_2d(t, r)
        box = (0.0, 2.0, 0.0, 3.0)
        v1, e1, n1 = gk.integrate_2d(smooth_2d, box, 0.0, tol_rel=1e-9)
        v2, e2, n2 = gk.integrate_2d(scaled, box, 0.0, tol_rel=1e-9)
        assert n1 == n2 > 1
        assert np.all(v2 == 2.0 ** -40 * v1) and e2 == 2.0 ** -40 * e1
        assert e1 <= 1e-9 * float(np.max(np.abs(v1)))


class _Recorder:
    """Wraps the driver gk.integrate_many, which every gk integration
    runs through: counts the integrand calls made for problems of each
    dimension and records each panel's nodes as its root's chart sees
    them."""

    SIZES = {"integrate_1d": 15, "integrate_2d": 225}

    def __init__(self, monkeypatch):
        self.calls = {name: 0 for name in self.SIZES}
        self.panels = {name: [] for name in self.SIZES}
        self._alive = []
        monkeypatch.setattr(gk, "integrate_many",
                            self._wrap(gk.integrate_many))

    @staticmethod
    def _name(box):
        return "integrate_1d" if len(box) == 2 else "integrate_2d"

    def _wrap(self, integrate_many):
        def wrapper(f, problems):
            names = {self._name(box) for p in problems for box, _ in p.roots}

            def recorded(*xs):
                for name in names:
                    self.calls[name] += 1
                return f(*xs)
            problems = [p._replace(roots=[(box, self._chart(box, chart))
                                          for box, chart in p.roots])
                        for p in problems]
            return integrate_many(recorded, problems)
        return wrapper

    def _chart(self, box, chart):
        name = self._name(box)
        size = self.SIZES[name]

        def recorded(*nodes):
            # id(recorded) tells the roots apart: one panel of two roots
            # is two panels
            for i in range(0, len(nodes[0]), size):
                self.panels[name].append((id(recorded),) + tuple(
                    x[i:i + size].tobytes() for x in nodes))
            return (nodes, None) if chart is None else chart(*nodes)
        self._alive.append(recorded)         # keeps id(recorded) unique
        return recorded


class TestSaving:
    def test_no_panel_evaluated_twice(self, monkeypatch):
        rec = _Recorder(monkeypatch)
        quadrature.integrate_p4(RegKernelParams(1.0, 0.1))
        for name, panels in rec.panels.items():
            assert panels, name
            assert len(set(panels)) == len(panels), name

    def test_panels_per_call(self, monkeypatch):
        # deep 2-D refinement is where the work is: one call per root
        # evaluates that root's pending panels together.  The 1-D tail
        # samples stop after a few splits along one chain, so most of
        # their splits cannot be batched
        rec = _Recorder(monkeypatch)
        f = quadrature._integrand_factory("lagrangian",
                                          RegKernelParams(1.0, 0.1))
        roots = quadrature._interior_roots(40.0, 48.0, 0.2)
        gk.integrate_2d(f, roots, tol_abs=0.0, tol_rel=1e-5)
        assert 4 * rec.calls["integrate_2d"] \
            <= len(rec.panels["integrate_2d"])


class TestDriver:
    """gk.integrate_many against separate integrate_1d / integrate_2d
    calls of the same sub-integrals."""

    @staticmethod
    def separate(f, problem):
        if len(problem.roots[0][0]) == 4:
            return gk.integrate_2d(f, problem.roots, problem.tol_abs,
                                   problem.max_panels, problem.tol_rel)
        (box, chart), = problem.roots
        g = f if chart is None else charted(f, chart)
        return gk.integrate_1d(g, *box, problem.tol_abs, problem.max_panels,
                               problem.tol_rel)

    CASES = {
        "1d": (smooth_1d, [
            gk.Problem([((0.0, 5.0), None)], 1e-12, 4000),
            gk.Problem([((0.0, 2.0), None)], 0.0, 64),
            gk.Problem([((1.0, 9.0), None)], 0.0, 4000, 1e-10),
            gk.Problem([((0.0, 0.5), None)], 1e-3, 4000)]),
        "cone_2d": (smooth_2d, [
            gk.Problem(quadrature._cone_roots(0.0, 2.0, 0.0, 1.5, 0.25),
                       1e-10, 800),
            gk.Problem(quadrature._cone_roots(0.0, 2.0, 0.5, 3.0, 0.25),
                       1e-11, 800),
            gk.Problem(quadrature._cone_roots(1.0, 3.0, 0.0, 2.5, 0.25),
                       0.0, 41)]),
        "mixed": (smooth_2d, [
            gk.Problem(quadrature._cone_roots(0.0, 2.0, 0.0, 1.5, 0.5),
                       1e-10, 800),
            gk.Problem([((0.0, 2.0, 0.0, 1.0), None)], 0.0, 800, 1e-9),
            gk.Problem([((0.0, 3.0), quadrature._section_chart(t=0.7))],
                       quadrature._TAIL_FLOOR, 40, 1e-9),
            gk.Problem([((0.0, 2.0), quadrature._section_chart(r=1.5))],
                       0.0, 40),
            gk.Problem([((1.0, 3.0, 0.0, 1.0),
                         lambda t, s: ((t, s * t), t))], 1e-12, 800)]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_batch_matches_separate_calls(self, name):
        f, problems = self.CASES[name]
        got = gk.integrate_many(f, problems)
        assert len(got) == len(problems)
        for run, problem in zip(got, problems):
            assert_bitwise(run, self.separate(f, problem))

    def test_one_call_per_step(self):
        # sixteen sub-integrals of sixteen roots each ask for 16 * 16 * 225
        # = 57 600 points in their first step, all in one call, and each
        # replays its run alone bitwise
        sizes = []

        def f(t, r):
            sizes.append(t.size)
            return (np.abs(t - r) ** 0.3)[:, None]
        problems = []
        for n in range(16):
            ts = np.linspace(0.0, 1.0 + 0.125 * n, 5)
            rs = np.linspace(0.0, 1.0, 5)
            problems.append(gk.Problem(
                [((t0, t1, r0, r1), None) for t0, t1 in zip(ts, ts[1:])
                 for r0, r1 in zip(rs, rs[1:])], 0.0, 100))
        got = gk.integrate_many(f, problems)
        assert sizes[0] == 16 * 16 * 225
        for run, problem in zip(got, problems):
            assert run[2] == 100
            assert_bitwise(run, self.separate(f, problem))

    def test_roots_share_a_call(self):
        calls = []

        def f(t, r):
            calls.append(t.size)
            return smooth_2d(t, r)
        roots = quadrature._interior_roots(40.0, 48.0, 0.2)
        gk.integrate_2d(f, roots, tol_abs=0.0, tol_rel=1e-6)
        # the ten roots come in one call
        assert calls[0] == len(roots) * 225


class TestStepIndependence:
    """A panel's (value, errs) from gk._evaluate, which reduces all the
    panels of a refinement step as stacked arrays, is bitwise the same
    alone and inside any step: whatever the other problems' dimensions,
    charts and panel counts, and whether the step spills into several
    integrand calls."""

    @staticmethod
    def integrand(columns, dtype):
        def f(t, r):
            cols = [np.exp(-t * r) * np.cos(t - r), np.sqrt(t + r),
                    1.0 / (1.0 + (t - 0.3) ** 2 + r * r)][:columns]
            out = np.stack(cols, axis=-1)
            return out * np.exp(0.5j * t)[:, None] if dtype is complex \
                else out
        return f

    # three problems of one step: 2-D without a chart, 2-D with charts
    # (a triangle r <= t, Jacobian t, and the band of a curve), and 1-D
    # cross-sections, whose charts map to (t, r)
    ROOTS = [
        [((0.0, 2.0, 0.0, 3.0), None)],
        [((1.0, 3.0, 0.0, 1.0), lambda t, s: ((t, s * t), t)),
         ((0.5, 2.5, 0.0, 1.0), quadrature._between(
             lambda t: 0.2 * t * t, (3.0, 0.5)))],
        [((0.0, 3.0), quadrature._section_chart(t=0.7)),
         ((0.0, 2.0), quadrature._section_chart(r=1.5))],
    ]

    @staticmethod
    def keys(roots, count, rng):
        """count random panels spread over the roots."""
        keys = []
        for n in range(count):
            root = n % len(roots)
            box = roots[root][0]
            edges = []
            for lo, hi in zip(box[0::2], box[1::2]):
                a, b = np.sort(rng.uniform(lo, hi, 2))
                edges += [float(a), float(b)]
            keys.append((root, tuple(edges)))
        return keys

    @staticmethod
    def assert_same(got, want):
        (gv, ge), (wv, we) = got, want
        gv, wv = np.asarray(gv), np.asarray(wv)
        assert gv.dtype == wv.dtype and gv.shape == wv.shape
        assert gv.tobytes() == wv.tobytes()
        assert np.array(ge).tobytes() == np.array(we).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("count", [1, 7, 40])
    def test_alone_and_in_a_step(self, count, columns, dtype):
        f = self.integrand(columns, dtype)
        rng = np.random.default_rng(count * 10 + columns)
        requests = [(roots, self.keys(roots, count, rng))
                    for roots in self.ROOTS]
        mixed = gk._evaluate(f, requests)
        for subset in ([0], [1], [2], [0, 2], [1, 2]):
            step = gk._evaluate(f, [requests[i] for i in subset])
            for i, panels in zip(subset, step):
                for got, want in zip(panels, mixed[i]):
                    self.assert_same(got, want)
        for (roots, keys), panels in zip(requests, mixed):
            for key, panel in zip(keys, panels):
                alone, = gk._evaluate(f, [(roots, [key])])
                self.assert_same(panel, alone[0])
        # alone, a panel is the one-panel reduction of test_gk's
        # reference loops
        for (roots, keys), panels in zip(requests, mixed):
            for (root, box), (value, errs) in zip(keys, panels):
                chart = roots[root][1]
                if len(box) == 4:
                    want = ref_panel_root(
                        lambda t, r: np.asarray(f(t, r)), box, chart)
                    self.assert_same((value, errs), (want[0], want[1:]))
                else:
                    vk, err = ref_panel_1d(charted(f, chart), *box)
                    self.assert_same((value, errs), (vk, (err,)))


class TestPythonVersion:
    def test_totals_ignore_a_compensated_sum(self, monkeypatch):
        # Python 3.12's sum of floats is compensated; gk's totals are
        # accumulated left to right as 3.10 and 3.11 do, so they do not
        # depend on the built-in
        import builtins
        import math

        plain = builtins.sum

        def compensated(items, start=0):
            items = list(items)
            if items and all(type(x) is float for x in items):
                return start + math.fsum(items)
            return plain(items, start)
        # the complex cases' error totals read differently under a
        # compensated sum
        one = (complex_1d, 0.0, 20.0, 1e-12)
        two = (complex_2d, (0.0, 4.0, 0.0, 2.0), 1e-13)
        want_1d, want_2d = gk.integrate_1d(*one), gk.integrate_2d(*two)
        monkeypatch.setattr(builtins, "sum", compensated)
        assert_bitwise(gk.integrate_1d(*one), want_1d)
        assert_bitwise(gk.integrate_2d(*two), want_2d)
