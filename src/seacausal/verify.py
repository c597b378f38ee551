"""Property suites: implementation-vs-oracle checks runnable from the CLI.

Each suite function returns a list of `Check` records (measured value,
bound, detail); no suite decides a verdict, `Check.ok` is the one pass
rule.  Oracles are independent evaluation routes: integral
representations, finite differences, momentum-space quadrature, generic
eigensolvers, Gram-matrix spectra, and Monte-Carlo sampling.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import (abstract_cfs, bessel, chain, em_perturb, gk, kernel,
               quadrature, sea_variation, spinor)
from .kernel import RegKernelParams


@dataclasses.dataclass(frozen=True)
class Check:
    """One oracle check, passed when `measured` <= `bound`, so a nan fails;
    a yes/no condition is a count against 0, or inf when it is missed."""
    name: str
    measured: float
    bound: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.measured <= self.bound)


def _sample_cut_plane(rng, n, r_lo=1e-3, r_hi=60.0, arg_frac=0.999):
    mod = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), n))
    arg = rng.uniform(-arg_frac * np.pi, arg_frac * np.pi, n)
    return mod * np.exp(1j * arg)


def _k_integral_oracle(n, z):
    """K_n(z) = int_0^inf e^{-z cosh t} cosh(n t) dt for Re z > 0."""
    x = z.real
    t_max = float(np.arccosh(700.0 / x)) if x < 700.0 else 1.0

    def f(t):
        return np.exp(-z * np.cosh(t)) * np.cosh(n * t)

    # absolute tolerance scaled to the K magnitude ~ sqrt(pi/2x) e^{-x},
    # with the (2/|z|)^n growth of K_n at small |z|
    tol = (1e-13 * np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
           * (1.0 + (2.0 / abs(z)) ** n))
    val, _, _ = gk.integrate_1d(f, 0.0, t_max, tol, 4000)
    return complex(val)


def suite_bessel(seed=12345):
    rng = np.random.default_rng(seed)
    out = []
    z = _sample_cut_plane(rng, 1000)
    zk = _sample_cut_plane(rng, 40, r_lo=0.1, r_hi=30.0, arg_frac=1.0 / 3.0)
    k2 = bessel.bessel_k12(zk)[1]
    ref = np.array([_k_integral_oracle(2, zj) for zj in zk])
    dev = float(np.max(np.abs(k2 - ref) / np.abs(ref)))
    out.append(Check("k2_complex_integral", dev, 1e-10, "max rel"))

    xs = np.exp(np.linspace(np.log(0.1), np.log(30.0), 20))
    worst = 0.0
    for x in xs:
        for n, got in zip((1, 2), bessel.bessel_k12(complex(x))):
            ref = _k_integral_oracle(n, float(x)).real
            worst = np.maximum(worst,
                               abs(float(np.real(got)) - ref) / abs(ref))
    out.append(Check("integral_representation", worst, 1e-10, "max rel"))

    zz = _sample_cut_plane(rng, 400, r_lo=20.0, r_hi=200.0, arg_frac=0.5)
    env = np.abs(bessel.bessel_k12(zz)[0] * np.sqrt(2.0 * zz / np.pi)
                 * np.exp(zz) - 1.0)
    out.append(Check("asymptotic_envelope", float(np.max(env)), 0.05,
                     "max dev"))

    zs = _sample_cut_plane(rng, 400, r_lo=1e-6, r_hi=1e-3)
    k1, k2 = bessel.bessel_k12(zs)
    d1 = float(np.max(np.abs(k1 * zs - 1.0)))
    d2 = float(np.max(np.abs(k2 * zs * zs / 2.0 - 1.0)))
    out.append(Check("small_z_laws", np.maximum(d1, d2), 1e-3,
                     "K1 %.1e K2 %.1e" % (d1, d2)))
    return out


def suite_kernel(seed=12345):
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(20):
        p = RegKernelParams(1.0, rng.uniform(0.1, 0.3))
        x = rng.uniform(-1.5, 1.5, 4)
        y = rng.uniform(-1.5, 1.5, 4)
        closed = kernel.kernel_p(x, y, p).matrix
        mom, _ = kernel.kernel_p_momentum_oracle(x, y, p, tol=1e-10)
        worst = np.maximum(worst, float(np.max(np.abs(closed - mom))))
    out.append(Check("momentum_oracle", worst, 1e-6, "max abs"))

    # vector part v^j = (i/m) d^j beta, beta = scalar part of the kernel
    p = RegKernelParams(1.0, 0.15)
    worst = 0.0
    for _ in range(10):
        xi = rng.uniform(-1.0, 1.0, 4)
        kv = kernel.kernel_p(xi, np.zeros(4), p)
        v = kv.f * kv.xi_eps
        h = 1e-5
        for j in range(4):
            e = h * np.eye(4)[j]
            d_j = (kernel.kernel_p(xi + e, np.zeros(4), p).g
                   - kernel.kernel_p(xi - e, np.zeros(4), p).g) / (2.0 * h)
            fd = (1j / p.m) * (d_j if j == 0 else -d_j)
            worst = np.maximum(worst,
                               abs(fd - v[j]) / max(abs(v[j]), 1e-12))
    out.append(Check("vector_gradient_identity", worst, 1e-5, "max rel"))

    # Dirac equation residual (i gamma d - m) P = 0, Richardson-refined fd
    worst = 0.0
    for _ in range(6):
        xi = rng.uniform(-0.8, 0.8, 4)

        def pmat(v):
            return kernel.kernel_p(v, np.zeros(4), p).matrix

        def dirac_resid(h):
            sl = sum(spinor.GAMMA[j] @ ((pmat(xi + e) - pmat(xi - e))
                                        / (2.0 * h))
                     for j, e in enumerate(h * np.eye(4)))
            return 1j * sl - p.m * pmat(xi)

        r1 = dirac_resid(2e-3)
        r2 = dirac_resid(1e-3)
        r = (4.0 * r2 - r1) / 3.0
        scale = float(p.m * np.max(np.abs(pmat(xi))))
        worst = np.maximum(worst, float(np.max(np.abs(r))) / scale)
    out.append(Check("dirac_equation_residual", worst, 1e-4, "max rel"))

    # the closed-form d_k P e_mu of kernel_column_partial, which the EM
    # source uses, against central differences of kernel_matrix_batch
    # columns, for all 16 (mu, k) pairs; relative to the largest partial
    # at each point
    h = 1e-5
    xi = rng.uniform(-1.0, 1.0, (10, 4))
    steps = h * np.eye(4)
    fd = (kernel.kernel_matrix_batch(xi[:, None] + steps, p)
          - kernel.kernel_matrix_batch(xi[:, None] - steps, p)) / (2.0 * h)
    # axes (mu, k, point, spinor), as fd.transpose(3, 1, 0, 2)
    closed = np.array([[spinor.from_parts(
        kernel.kernel_column_partial(xi, mu, k, p)[1])
        for k in range(4)] for mu in range(4)])
    dev = np.abs(closed - fd.transpose(3, 1, 0, 2))
    worst = float(np.max(np.max(dev, axis=(0, 1, 3))
                         / np.max(np.abs(closed), axis=(0, 1, 3))))
    out.append(Check("column_partial_fd", worst, 1e-6, "max rel"))
    return out


def suite_spectral(seed=12345, n_trials=1000):
    rng = np.random.default_rng(seed)
    out = []
    t = rng.uniform(-3.0, 3.0, n_trials)
    r = rng.uniform(1e-3, 4.0, n_trials)
    eps, m = 0.2, 1.0
    a, b = chain.invariants_from_radial(t, r, eps, m)
    lam_p = a + np.sqrt(b.astype(complex))
    lam_m = a - np.sqrt(b.astype(complex))

    xi = np.column_stack((t, r, np.zeros((n_trials, 2))))
    pr = RegKernelParams(m, eps)
    ev = np.linalg.eigvals(kernel.kernel_matrix_batch(xi, pr)
                           @ kernel.kernel_matrix_batch(-xi, pr))
    tol = 1e-8 * (np.maximum(np.abs(lam_p), np.abs(lam_m)) + 1e-300)
    cp = np.sum(np.abs(ev - lam_p[:, None]) <= tol[:, None], axis=1)
    cm = np.sum(np.abs(ev - lam_m[:, None]) <= tol[:, None], axis=1)
    miss = int(np.count_nonzero(~((cp >= 2) & (cm >= 2) & (cp + cm >= 4))))
    out.append(Check("closed_form_eigenvalues", miss, 0,
                     "%d of %d pairs miss the multiplicity-2 match"
                     % (miss, n_trials)))

    out.append(Check("a_sq_ge_b", float(np.max((b - a * a) / (a * a + 1.0))),
                     1e-12, "max (b - a^2)/(a^2 + 1)"))

    lag = chain.lagrangian_of_b(b)
    alt = (np.abs(lam_p) - np.abs(lam_m)) ** 2
    dev = float(np.max(np.abs(lag - alt)
                       / (np.abs(lag) + np.abs(alt) + 1e-300)))
    out.append(Check("lagrangian_identity", dev, 1e-8, "max rel"))

    space = b < 0
    out.append(Check("spacelike_lagrangian_zero",
                     float(np.max(np.abs(lag[space]), initial=0.0)), 0.0,
                     "max |L| over %d spacelike samples" % int(space.sum())))
    return out


def suite_integrability(seed=12345):
    out = []

    @functools.cache
    def certified(kind, eps, T, R):
        # the checks share integrals, so each is computed once; the cache
        # keys on the arguments as passed, so every call passes all four
        integrate = quadrature.integrate_p4 if kind == "p4" \
            else quadrature.integrate_lagrangian
        return integrate(RegKernelParams(1.0, eps), tol=0.005, T=T, R=R)

    for kind in ("p4", "lagrangian"):
        small = certified(kind, 0.1, 20.0, 24.0)
        big = certified(kind, 0.1, 40.0, 48.0)
        out.append(Check(kind + "_domain_doubling",
                         abs(big.value - small.value) / abs(big.value), 0.01,
                         "Cauchy diff"))

    # the change on doubling the domain against the tail bound plus both
    # error estimates
    ratios, details = [], []
    for t0, r0 in ((15.0, 18.0), (20.0, 24.0), (30.0, 36.0)):
        ra = certified("p4", 0.1, t0, r0)
        rb = certified("p4", 0.1, 2 * t0, 2 * r0)
        change = abs(rb.value - ra.value)
        ratios.append(change / (ra.tail_bound + ra.abs_error_estimate
                                + rb.abs_error_estimate))
        details.append("T=%g: change %.1e vs bound %.1e"
                       % (t0, change, ra.tail_bound))
    out.append(Check("tail_bound_soundness", np.max(ratios), 1.0,
                     "; ".join(details)))

    # the reported box integral against the box on a second partition
    # (band 4 eps_chain, corner 2 delta) at a 10x tighter tolerance.  For L
    # it is a valid second partition only down to eps ~ 0.003: at 0.0008 it
    # reads 1.2e-3 where the kink partition reads 1.02
    ratios = []
    for kind, eps in (("p4", 0.1), ("p4", 0.0125), ("lagrangian", 0.1),
                      ("lagrangian", 0.0125)):
        rep = certified(kind, eps, 40.0, 48.0)
        T2, Rbig = quadrature._tail_geometry(rep.truncation_T,
                                             rep.truncation_R)[:2]
        roots = quadrature._interior_roots(T2, Rbig, 2.0 * eps, band=4.0,
                                           corner=2.0)
        other, _, _ = gk.integrate_2d(quadrature._integrand_factory(
            kind, RegKernelParams(1.0, eps)), roots, tol_abs=0.0,
            tol_rel=0.05 * 0.005)
        ratios.append(abs(0.5 * rep.value - float(other[0]))
                      / (0.5 * rep.abs_error_estimate))
    out.append(Check("interior_second_partition", np.max(ratios), 1.0,
                     "|diff|/err p4@0.1 %.2e, p4@0.0125 %.2e, L@0.1 %.2e, "
                     "L@0.0125 %.2e" % tuple(ratios)))

    # P_m^eps(xi) = m^3 P_1^{m eps}(m xi), so at m = 2 with (eps/2, T/2,
    # R/2) both integrals are 2^8 times the m = 1 ones; a power of two
    # keeps every node and Bessel argument exact, so they agree bitwise.
    # A difference, not a ratio: two different doubles can divide to 1.0
    devs = []
    for kind, integrate in (("p4", quadrature.integrate_p4),
                            ("lagrangian", quadrature.integrate_lagrangian)):
        rep = integrate(RegKernelParams(2.0, 0.05), tol=0.005, T=20.0, R=24.0)
        scaled = 2.0 ** 8 * certified(kind, 0.1, 40.0, 48.0).value
        devs.append(abs(rep.value - scaled) / abs(scaled))
    out.append(Check("mass_scaling_covariance", np.max(devs), 0.0,
                     "rel diff from 2^8 x (m = 1) p4 %.1e, L %.1e"
                     % tuple(devs)))

    # eps^8 int |P|^4 tends to the massless integral 4.1282e-11 (5 digits)
    # as eps -> 0, where the integrand lives at t ~ eps_chain, 1e5 times
    # below the box; the larger deviation from the law is bounded by the
    # smaller of the two runs' relative errors plus the law's rounding
    devs, errs = [], []
    for eps in (1e-4, 1e-5):
        rep = certified("p4", eps, 40.0, 48.0)
        devs.append(abs(eps ** 8 * rep.value / 4.1282e-11 - 1.0))
        errs.append((rep.abs_error_estimate + rep.tail_bound) / rep.value)
    out.append(Check("p4_small_eps_law", np.max(devs), min(errs) + 1.2e-5,
                     "|eps^8 I / 4.1282e-11 - 1| at eps = 1e-4 %.1e, "
                     "1e-5 %.1e; rel err %.1e, %.1e"
                     % (devs[0], devs[1], errs[0], errs[1])))

    r2 = certified("p4", 0.1, 40.0, 48.0)
    est, se = quadrature.mc_p4_at_x(RegKernelParams(1.0, 0.1),
                                    np.array([0.7, -0.3, 0.2, 0.1]),
                                    n_samples=60000, seed=seed)
    combined = np.sqrt(se ** 2 + r2.abs_error_estimate ** 2
                       + r2.tail_bound ** 2)
    z = float(abs(est - r2.value) / combined)
    out.append(Check("mc_x_independence", z, 3.0,
                     "|MC - certified| / combined error"))
    return out


def suite_geometry(seed=12345, n=10000):
    rng = np.random.default_rng(seed)
    out = []
    t = rng.uniform(-10.0, 10.0, n)
    r = rng.uniform(0.0, 12.0, n)
    eps = 0.1
    zeta = -((t + 1j * eps) ** 2) + r * r
    direct = np.real(np.sqrt(zeta))
    ours = quadrature.exponent_exact(t, r, eps)
    dev = float(np.max(np.abs(direct - ours) / (np.abs(direct) + 1e-30)))
    out.append(Check("exponent_identity", dev, 1e-12, "max rel"))

    # the lemma's constants at lambda = 0.85, where it gives one
    ta = np.abs(t) + 1e-6
    bound = quadrature.decay_lower_bound(ta, r, eps, 0.85)
    has = np.isfinite(bound)
    checked = int(np.count_nonzero(has))
    bad = int(np.count_nonzero(
        bound[has] > quadrature.exponent_exact(ta[has], r[has], eps) + 1e-12))
    out.append(Check("proof_lower_bounds", bad, 0,
                     "violations in %d/%d region samples" % (checked, n)))
    return out


# pairs per stacked block in suite_abstract.  The block bounds peak RSS:
# at seed 1 the process running the suite peaks at about 167 MB with all
# 10^4 pairs in one stack, 69 MB with blocks of 1000, 64 MB with 500,
# 61 MB with 250 and 59 MB with 125 (55 MB of it the imports), each in
# 1.2-1.3 s at one BLAS thread on a 2-core x86-64 machine.  The
# near-equal pairs are drawn per block, so the printed margins move with
# the block size; the verdicts do not.
_ABSTRACT_BLOCK = 250


def _blocks(n_pairs):
    return [min(_ABSTRACT_BLOCK, n_pairs - i)
            for i in range(0, n_pairs, _ABSTRACT_BLOCK)]


def _hermitian_norm(a):
    """Spectral norm of each Hermitian matrix of a stack: the largest
    |eigenvalue|, which needs no SVD."""
    return np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)


def _near_equal(pairs, rng):
    """Make the second member of the first half of the pairs a small
    perturbation of the first: a copy of the first plus the drawn second
    member scaled to a relative (Frobenius) size log-uniform in
    [1e-8, 1e-1].  Returns the number of pairs changed."""
    h = pairs.shape[0] // 2
    base, step = pairs[:h, 0], pairs[:h, 1]
    size = 10.0 ** rng.uniform(-8.0, -1.0, h)
    pairs[:h, 1] = base + step * (size * np.linalg.norm(base, axis=(-2, -1))
                                  / np.linalg.norm(step, axis=(-2, -1))
                                  )[:, None, None]
    return h


def _over_blocks(block, n_pairs):
    """Run `block(k)` on each block of n_pairs pairs in turn, so one
    block's arrays are alive at a time.  Each returns (excess, ratio,
    count); the result is the largest excess and ratio and the summed
    count."""
    excess, ratio, count = zip(*(block(k) for k in _blocks(n_pairs)))
    return np.max(excess), max(ratio), sum(count)


def _eigenvalue_lipschitz(rng, n, dim, n_pairs):
    # Weyl and Mirsky bound each spectral shift by ||delta||: the largest
    # ratio is the margin.  Half of each block's pairs are nearly equal,
    # where an ordering or padding slip would show as a ratio far above 1.
    # The pass rule is the absolute excess |shift| - ||delta|| <= 1e-12.
    def block(k):
        # the draw of random_regular_operator(n, dim, rng, (k, 2)); the
        # near-equal pairs perturb B rank-preservingly, B -> B + E, as a
        # full-rank Hermitian delta would leave the signature
        b = abstract_cfs._complex_normal(rng, (k, 2, 2, 2 * n, dim), 2)
        near = _near_equal(b, rng)
        pairs = abstract_cfs.indefinite_gram(b, n)
        spec = abstract_cfs.ordered_spectrum(pairs)
        d = _hermitian_norm(pairs.matrix[:, 0] - pairs.matrix[:, 1])
        gap = np.max(np.abs(spec[:, 0] - spec[:, 1]), axis=-1)
        return float(np.max(gap - d)), float(np.max(gap / d)), near

    worst, ratio, near = _over_blocks(block, n_pairs)
    return Check("eigenvalue_lipschitz", worst, 1e-12,
                 "max |dspec|/||delta|| %.4f over %d pairs, %d near-equal"
                 % (ratio, n_pairs, near))


def _singular_value_lipschitz(rng, n_pairs):
    def block(k):
        # pairs (s, t)
        st = abstract_cfs._complex_normal(rng, (k, 2, 2, 6, 6), 2)
        near = _near_equal(st, rng)
        sv = np.linalg.svd(st, compute_uv=False)
        d = abstract_cfs._op_norm(st[:, 0] - st[:, 1])
        gap = np.max(np.abs(sv[:, 0] - sv[:, 1]), axis=-1)
        return float(np.max(gap - d)), float(np.max(gap / d)), near

    worst, ratio, near = _over_blocks(block, n_pairs)
    return Check("singular_value_lipschitz", worst, 1e-12,
                 "max |dsv|/||delta|| %.4f over %d pairs, %d near-equal"
                 % (ratio, n_pairs, near))


def _gen_inverse_lipschitz(rng, n, dim, n_pairs):
    # rank-preserving perturbations: x = -B^dag J B becomes
    # y = -(B+E)^dag J (B+E).  A full-rank Hermitian delta would lift the
    # kernel of x and leave the signature, so no pair would be checked.
    # The excess lhs - rhs tends to 0 with ||delta||, so the margin shown
    # is the largest ratio lhs/rhs.
    def block(k):
        b, e = abstract_cfs._complex_normal(rng, (2, 2, k, 2 * n, dim), 1)
        x = abstract_cfs.indefinite_gram(b, n)
        gx = abstract_cfs.gen_inverse(x)
        # ||delta|| <= 2 ||B|| ||E|| + ||E||^2, so E of norm
        # s / (||B|| + sqrt(||B||^2 + s)) keeps ||delta|| <= s <= radius
        s = rng.uniform(0.0, 1.0, k) / (4.0 * gx.norm())
        nb = abstract_cfs._op_norm(b)
        e *= (s / (nb + np.sqrt(nb * nb + s))
              / abstract_cfs._op_norm(e))[:, None, None]
        y = abstract_cfs.indefinite_gram(b + e, n)
        regular = abstract_cfs.is_regular(y)
        lhs = _hermitian_norm(abstract_cfs.gen_inverse(y).matrix - gx.matrix)
        rhs = 6.0 * gx.norm() ** 2 * _hermitian_norm(y.matrix - x.matrix)
        return (float(np.max((lhs - rhs)[regular], initial=-np.inf)),
                float(np.max((lhs / rhs)[regular], initial=0.0)),
                int(np.sum(regular)))

    worst, ratio, checked = _over_blocks(block, n_pairs)
    return Check("gen_inverse_lipschitz", worst if checked else np.inf,
                 1e-10, "max lhs/rhs %.4f over %d/%d pairs"
                 % (ratio, checked, n_pairs))


def _gen_inverse_discontinuity(seed, n, dim):
    zero = abstract_cfs.CfsOperator(np.zeros((dim, dim)), n)
    dev = 0.0
    for eps in (0.5, 0.1, 0.01):
        xp = abstract_cfs.regular_perturbation(zero, eps, seed=seed)
        dev = np.maximum(dev, abs(abstract_cfs.gen_inverse(xp).norm()
                                  - 1.0 / eps))
    return Check("gen_inverse_discontinuity_witness", dev, 1e-10,
                 "max |  ||g|| - 1/eps |")


def _admissibility_chains(rng, n, dim, n_pairs):
    def block(k):
        # the draw of random_regular_operator(n, dim, rng, (k, 2)), its
        # members x and y built one after the other, never as one stack
        b = abstract_cfs._complex_normal(rng, (k, 2, 2, 2 * n, dim), 2)
        x = abstract_cfs.indefinite_gram(b[:, 0], n)
        y = abstract_cfs.indefinite_gram(b[:, 1], n)
        try:
            abstract_cfs.admissibility_bounds(x, y)
        except AssertionError:
            return 1
        return 0

    failed = sum(block(k) for k in _blocks(n_pairs))
    return Check("admissibility_chains", failed, 0,
                 "failed blocks of %d, %d pairs"
                 % (len(_blocks(n_pairs)), n_pairs))


def _local_representation(rng, n, dim):
    # one stack, the operators that 200 one-item draws give in turn
    xs = abstract_cfs.random_regular_operator(n, dim, rng, (200,))
    psi, signs = abstract_cfs.local_representation(xs)
    recon = -(abstract_cfs._adjoint(psi) * signs[:, None, :]) @ psi
    worst = float(np.max(abstract_cfs._op_norm(recon - xs.matrix)
                         / np.maximum(xs.norm(), 1e-300)))
    return Check("local_representation", worst, 1e-10, "max rel resid")


def suite_abstract(seed=12345, n_pairs=10000):
    rng = np.random.default_rng(seed)
    n, dim = 2, 8
    # the checks draw from rng in this order; each frees its arrays when
    # it returns, so only one check's working set is alive at a time
    return [_eigenvalue_lipschitz(rng, n, dim, n_pairs),
            _singular_value_lipschitz(rng, n_pairs),
            _gen_inverse_lipschitz(rng, n, dim, n_pairs),
            _gen_inverse_discontinuity(seed, n, dim),
            _admissibility_chains(rng, n, dim, n_pairs),
            _local_representation(rng, n, dim)]


def suite_variation(seed=12345):
    rng = np.random.default_rng(seed)
    out = []
    m = 1.0
    worst = 0.0
    # local, so that importing seacausal.cli does not load scipy.optimize
    from scipy.optimize import linear_sum_assignment
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 4)
        y = rng.uniform(-1.0, 1.0, 4)
        e1, e2 = rng.uniform(0.1, 0.3, 2)
        # the chain of F^{e1}(x), F^{e2}(y) carries regularization e1 + e2
        mc = (2.0 * np.pi) ** 2 * chain.closed_chain(
            x, y, RegKernelParams(m, (e1 + e2) / 2.0))
        ev_mc = np.linalg.eigvals(mc)
        pc = sea_variation.product_coefficient_matrix(x, y, e1, e2, m)
        ev_pc = np.linalg.eigvals(pc)
        scale = float(np.max(np.abs(ev_pc)))
        nz_pc = ev_pc[np.abs(ev_pc) > 1e-8 * scale]
        nz_mc = ev_mc[np.abs(ev_mc) > 1e-8 * scale]
        if nz_pc.size != nz_mc.size:
            worst = np.inf
            break
        cost = np.abs(nz_pc[:, None] - nz_mc[None, :])
        ri, ci = linear_sum_assignment(cost)
        worst = np.maximum(worst, float(cost[ri, ci].max()) / scale)
    out.append(Check("mixed_chain_product_oracle", worst, 1e-7, "max rel"))

    rows, fit = sea_variation.holder_sweep(None, RegKernelParams(m, 0.1),
                                           tol=0.005)
    dls = [row[2] for row in rows]
    # the fit's 1 - r^2, once alpha > 0 and dEll shrinks
    shape = fit["alpha"] > 0 and max(dls[-2:]) < max(dls[:2])
    out.append(Check("holder_sweep", 1.0 - fit["r2"] if shape else np.inf,
                     0.1, "alpha %.3f r2 %.3f" % (fit["alpha"], fit["r2"])))

    d1 = sea_variation.op_norm_difference(np.zeros(4), 0.1, 0.2, m)
    d2 = sea_variation.op_norm_difference(
        np.array([0.4, -0.2, 0.7, 0.1]), 0.1, 0.2, m)
    out.append(Check("op_norm_translation_invariance", abs(d1 - d2) / d1,
                     1e-10, "rel diff"))
    return out


# step of the central differences in the Dirac-factor oracle of suite_em
_EM_FD_STEP = 1e-3

# the Green's-kernel oracle of suite_em: test points (offsets from the
# default potential's center), the power n of its test field and its bound
_GREEN_OFFSETS = np.array([[0.00, 0.15, 0.0, 0.0], [0.10, -0.1, 0.1, 0.0],
                           [-0.1, 0.0, -0.15, 0.1], [0.20, 0.05, 0.0, -0.1]])
_GREEN_POWER = 8
_GREEN_BOUND = 1e-6


def _green_closed_form(m):
    """Max |S * g - phi| at the test points, S at green_constants(m), for
    the exact solution phi = (1 - s)^n, s = |y - c|^2/r^2 < 1 (zero
    outside), on the default potential's ball (c, r).  phi vanishes before
    the initial time, so it is the retarded solution of (box + m^2) phi = -g
    for g = -(box + m^2) phi, which has the closed form below; S * g must
    return phi in spinor component 0 and zero in the others."""
    a = em_perturb.Potential()
    n, r2 = _GREEN_POWER, a.radius ** 2

    def source(y):
        d = y - a.center
        q = np.maximum(1.0 - np.sum(d * d, axis=-1) / r2, 0.0)
        box = (4.0 * n * (n - 1) * q ** (n - 2)
               * (d[..., 0] ** 2 - np.sum(d[..., 1:] ** 2, axis=-1)) / r2
               + 4.0 * n * q ** (n - 1)) / r2
        out = np.zeros(y.shape[:-1] + (4,), dtype=complex)
        out[..., 0] = -(box + m * m * q ** n)
        return out

    gp = em_perturb.green_constants(m)
    worst = 0.0
    for x in a.center + _GREEN_OFFSETS:
        phi = np.zeros(4)
        phi[0] = (1.0 - np.sum((x - a.center) ** 2) / r2) ** n
        got = em_perturb.convolve_S(x, source, m, gp, a.center, a.radius)
        worst = np.maximum(worst, np.max(np.abs(got - phi)))
    return float(worst)


def _dirac_factor_fd(x, z, mu, a, p, gp):
    """Psi1 = -(i gamma^j d_j + m)(S * g) at x, g the frame source, by
    central differences of convolve_S.  Each stencil point has its own
    support-adapted nodes; they move smoothly with x, and so does their
    error."""
    src = em_perturb._frame_source(a, z, mu, p)
    h = _EM_FD_STEP

    def phi(pt):
        return em_perturb.convolve_S(pt, src, p.m, gp, a.center, a.radius)

    out = -p.m * phi(x)
    for j, e in enumerate(h * np.eye(4)):
        out = out - 1j * spinor.GAMMA[j] @ ((phi(x + e) - phi(x - e))
                                            / (2.0 * h))
    return out


def suite_em(seed=12345):
    rng = np.random.default_rng(seed)
    out = []
    p = RegKernelParams(1.0, 0.1)
    a = em_perturb.Potential()
    gp = em_perturb.green_constants(p.m)
    errs = [_green_closed_form(m) for m in (1.0, 2.0)]
    out.append(Check("green_closed_form", np.max(errs), _GREEN_BOUND,
                     "max |S*g - phi| %.2e at m = 1, %.2e at m = 2"
                     % tuple(errs)))

    z1 = np.array([-0.3, 0.1, 0.0, -0.2])
    z2 = np.array([-0.2, -0.1, 0.2, 0.0])
    x_in = np.array([2.0, 0.2, -0.1, 0.3])
    worst, n_ext = 0.0, 50
    scale = abs(em_perturb.f1_matrix_element(x_in, z1, 1, z2, 2, a, p, gp))
    for _ in range(n_ext):
        t0 = rng.uniform(-2.0, 3.0)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        if t0 <= a.center[0] - a.radius:
            rr = rng.uniform(0.0, 3.0)       # before the potential acts
        else:
            # outside the forward cone of the support ball
            rr = (t0 - a.center[0]) + a.radius + rng.uniform(0.3, 3.0)
        x = np.array([t0, *(d * rr)])
        val = em_perturb.f1_matrix_element(x, z1, 1, z2, 2, a, p, gp)
        worst = np.maximum(worst, abs(val))
    out.append(Check("causal_support", worst / scale, 1e-6,
                     "max |elem|/scale at %d exterior points, scale %.2e"
                     % (n_ext, scale)))

    # closed-form Dirac factor against central differences of S * g
    dev = 0.0
    for z, mu in ((z1, 1), (z2, 2)):
        fd = _dirac_factor_fd(x_in, z, mu, a, p, gp)
        cf = em_perturb.psi1_on_frame(x_in, z, mu, a, p, gp)
        dev = np.maximum(dev, np.linalg.norm(cf - fd) / np.linalg.norm(fd))
    out.append(Check("dirac_factor_fd", dev, 1e-3, "max rel"))
    return out


SUITES = {
    "bessel": suite_bessel,
    "kernel": suite_kernel,
    "spectral": suite_spectral,
    "integrability": suite_integrability,
    "geometry": suite_geometry,
    "abstract": suite_abstract,
    "variation": suite_variation,
    "em": suite_em,
}


def run_suite(name: str, seed: int = 12345):
    if name == "all":
        return [dataclasses.replace(c, name=key + "." + c.name)
                for key in SUITES for c in SUITES[key](seed)]
    if name not in SUITES:
        raise KeyError("unknown suite: %s" % name)
    return SUITES[name](seed)
