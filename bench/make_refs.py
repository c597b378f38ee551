"""Regenerate bench/refs.json, the recorded references of the benchmark.

    python3 bench/make_refs.py [certify] [em]

Run from the root of a git checkout.  With no argument every section is
rebuilt; otherwise only the named sections are, and the others are kept.
The references are computed once and committed; run.py only reads them.

certify: the certified integrals are recomputed by a route independent
    of the program's certified quadrature (its interior split, tail zones,
    fitted tail closures and retry loop): one tolerance-driven
    gk.integrate_2d pass of the public integrand functions over the
    quarter plane [0, T] x [0, R], for boxes growing 2x at a time until
    two successive boxes agree within REF_REL_TOL.  The largest box is
    the reference.
em: f1_matrix_element with the closed-form Green constants at a
    finite-difference step of 5e-4, half the program's default 1e-3.  The
    default-step value is stored next to it, so the step's effect is on
    record.
dF_norm: sea_variation.op_norm_difference, a closed-form 8x8 operator
    norm with no tolerance of its own.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import common  # pins the thread count, puts src on sys.path

import numpy as np
import scipy

from seacausal import chain, em_perturb, gk, quadrature, sea_variation
from seacausal.kernel import RegKernelParams

REF_REL_TOL = 2e-5
BOXES = [(40.0 * 2 ** k, 48.0 * 2 ** k) for k in range(6)]


def _integrand(kind: str, eps_chain: float, m: float):
    if kind == "p4":
        def f(t, r):
            pn = quadrature.p_norm_radial(t, r, eps_chain, m)
            return (4.0 * np.pi * r * r * pn ** 4)[:, None]
        return f

    def f(t, r):
        _, b = chain.invariants_from_radial(t, r, eps_chain, m)
        return (4.0 * np.pi * r * r * 4.0 * np.maximum(b, 0.0))[:, None]
    return f


def box_reference(kind: str, eps_chain: float, m: float = 1.0) -> dict:
    """Integral over R^4 (twice the t >= 0 quarter plane) on growing boxes."""
    f = _integrand(kind, eps_chain, m)
    history = []
    value = None
    for T, R in BOXES:
        start = time.perf_counter()
        coarse, _, _ = gk.integrate_2d(f, (0.0, T, 0.0, R), tol_abs=0.0,
                                       max_panels=64)
        tol_abs = 0.1 * REF_REL_TOL * abs(float(coarse[0].real))
        v, err, panels = gk.integrate_2d(f, (0.0, T, 0.0, R),
                                         tol_abs=tol_abs, max_panels=10 ** 6)
        new = 2.0 * float(v[0].real)
        history.append({"T": T, "R": R, "value": new, "abs_err": 2.0 * err,
                        "panels": panels,
                        "seconds": round(time.perf_counter() - start, 2)})
        print("  %s eps_chain=%g box (%g, %g): %.12e err %.1e panels %d"
              % (kind, eps_chain, T, R, new, 2.0 * err, panels), flush=True)
        if value is not None and abs(new - value) <= REF_REL_TOL * abs(new):
            value = new
            break
        value = new
    else:
        raise RuntimeError("box sequence did not settle for %s" % kind)
    return {"value": value, "rel_tol": REF_REL_TOL,
            "route": "gk.integrate_2d of the %s integrand over growing "
                     "boxes; stops when two boxes agree within rel_tol"
                     % ("quadrature.p_norm_radial^4" if kind == "p4"
                        else "4 max(b, 0) of chain.invariants_from_radial"),
            "eps_chain": eps_chain, "m": m, "boxes": history}


def certify_refs() -> dict:
    from workloads import CERTIFY_EPS, CERTIFY_LAMBDAS
    m = 1.0
    out = {}
    for eps in CERTIFY_EPS:
        out["p4@%g" % eps] = box_reference("p4", 2.0 * eps, m)
        out["lagrangian@%g" % eps] = box_reference("lagrangian", 2.0 * eps, m)
    eps = CERTIFY_EPS[0]
    for lam in CERTIFY_LAMBDAS:
        out["ell(%g)@%g" % (lam, eps)] = box_reference(
            "lagrangian", 2.0 * eps + lam, m)
        out["dF(%g)@%g" % (lam, eps)] = {
            "value": sea_variation.op_norm_difference(
                np.zeros(4), eps + lam, eps, m),
            "route": "sea_variation.op_norm_difference at x = 0"}
    return out


def em_refs() -> dict:
    from workloads import EM_DEFAULTS, EM_POINTS, green_constants
    m, eps = 1.0, 0.1
    params = RegKernelParams(m, eps)
    alpha, beta = green_constants(m)
    gp = em_perturb.GreenParams(alpha, beta)
    pot = em_perturb.Potential(
        center=np.array(EM_DEFAULTS["center"]), radius=EM_DEFAULTS["radius"],
        component=EM_DEFAULTS["component"],
        amplitude=EM_DEFAULTS["amplitude"])
    z1 = np.array(EM_DEFAULTS["z1"])
    z2 = np.array(EM_DEFAULTS["z2"])
    mu, nu = EM_DEFAULTS["mu"], EM_DEFAULTS["nu"]
    points = []
    for x in EM_POINTS:
        vals = {}
        for step in (5e-4, 1e-3):
            v = em_perturb.f1_matrix_element(np.array(x), z1, mu, z2, nu,
                                             pot, params, gp, fd_step=step)
            vals[step] = [v.real, v.imag]
            print("  em x=%s step %g: %r" % (x, step, v), flush=True)
        ref, dflt = complex(*vals[5e-4]), complex(*vals[1e-3])
        points.append({"x": list(x), "value": vals[5e-4],
                       "value_fd_step_1e-3": vals[1e-3],
                       "rel_diff_steps": abs(ref - dflt) / abs(ref)})
    return {"route": "em_perturb.f1_matrix_element with fd_step=5e-4",
            "m": m, "epsilon": eps, "alpha": alpha, "beta": beta,
            "mu": mu, "nu": nu, "points": points}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv) -> int:
    sections = {"certify": certify_refs, "em": em_refs}
    wanted = argv or list(sections)
    unknown = set(wanted) - set(sections)
    if unknown:
        print("unknown section(s): %s" % ", ".join(sorted(unknown)),
              file=sys.stderr)
        return 2
    try:
        with open(common.REFS_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in wanted:
        print("section %s" % name, flush=True)
        refs[name] = sections[name]()
        refs[name]["provenance"] = {
            "commit": _commit(),
            "command": "python3 bench/make_refs.py %s" % name,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "date": time.strftime("%Y-%m-%d", time.gmtime())}
    with open(common.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
