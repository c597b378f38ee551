"""Command-line front end.

Subcommands: kernel, cone-scan, integrate, holder, em, verify.
Exit codes: 0 ok, 1 invariant failure, 2 config error, 3 domain error,
4 quadrature non-convergence.

All CSV output is comma-separated with '.' decimals, LF line endings, a
mandatory header row, and a schema_version column.  Output is bitwise
deterministic for a fixed seed and configuration; for that reason the
quadrature reports record wall time only when --timing is given (zero
otherwise).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import chain, em_perturb, kernel, quadrature, sea_variation, verify
from .bessel import BesselDomainError
from .config import ConfigError, load_config
from .kernel import RegKernelParams
from .quadrature import QuadratureError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NONCONV = 4


def _apply_thread_cap() -> None:
    cap = os.environ.get("CFS_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _open_output(path: str):
    if path in ("-", ""):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_rows(path: str, header, rows) -> None:
    fh, close = _open_output(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _config_from_args(args) -> "RunConfig":
    overrides = {
        "mass": args.mass,
        "epsilon": args.epsilon,
        "region_lambda": args.region_lambda,
        "quad_rel_tol": args.quad_rel_tol,
        "quad_max_panels": args.quad_max_panels,
        "truncation_T": args.truncation_T,
        "truncation_R": args.truncation_R,
        "seed": args.seed,
        "output_path": args.output,
    }
    return load_config(args.config, overrides)


def _parse_vec(text: str, length: int) -> np.ndarray:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != length:
        raise ConfigError("expected %d comma-separated numbers, got %r"
                          % (length, text))
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError("bad number in %r" % text) from exc


def cmd_kernel(args) -> int:
    cfg = _config_from_args(args)
    params = RegKernelParams(cfg.mass, cfg.epsilon)
    header = ["schema_version", "t", "r", "re_F", "im_F", "re_G", "im_G",
              "p_norm"]
    rows = []
    for text in args.xi or []:
        xi = _parse_vec(text, 4)
        t = float(xi[0])
        r = float(np.linalg.norm(xi[1:]))
        kv = kernel.kernel_p(xi, np.zeros(4), params)
        pn = float(quadrature.p_norm_radial(t, r, cfg.epsilon, cfg.mass))
        rows.append([SCHEMA_VERSION] + [_fmt(v) for v in (
            t, r, kv.f.real, kv.f.imag, kv.g.real, kv.g.imag, pn)])
    _write_rows(cfg.output_path, header, rows)
    return EXIT_OK


def _scan_lines(ts, rs, a, b, cls, lag):
    """cone-scan CSV lines, t outer and r inner, streamed.

    Each distinct t and r is formatted once.  No field can need quoting
    (floats by repr, one-letter class codes), so the joined lines are the
    bytes `csv.writer` would write."""
    r_txt = [repr(r) for r in rs.tolist()]
    cells = zip(map(repr, a.tolist()), map(repr, b.tolist()), cls.tolist(),
                map(repr, lag.tolist()))
    for t in ts.tolist():
        lead = "%s,%r," % (SCHEMA_VERSION, t)
        # zip asks r_txt first, so it stops without taking the next row's
        # cells
        for r, cell in zip(r_txt, cells):
            yield lead + r + ",%s,%s,%s,%s\n" % cell


def cmd_cone_scan(args) -> int:
    cfg = _config_from_args(args)
    if args.t_steps < 1 or args.r_steps < 1:
        raise ConfigError("--t-steps and --r-steps must be at least 1")
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    rs = np.linspace(args.r_min, args.r_max, args.r_steps)
    if ts.size * rs.size > 10 ** 7:
        raise ConfigError("grid too large (> 1e7 points)")
    tt, rr = np.meshgrid(ts, rs, indexing="ij")
    a, b = chain.invariants_from_radial(
        tt.ravel(), rr.ravel(), 2.0 * cfg.epsilon, cfg.mass)
    header = ["schema_version", "t", "r", "a", "b", "class", "lagrangian"]
    fh, close = _open_output(cfg.output_path)
    try:
        fh.write(",".join(header) + "\n")
        fh.writelines(_scan_lines(ts, rs, a, b, chain.class_codes(a, b),
                                  chain.lagrangian_of_b(b)))
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _report_row(rep: quadrature.QuadratureReport, timing: bool):
    return [SCHEMA_VERSION, rep.integral_name, _fmt(rep.m),
            _fmt(rep.epsilon), _fmt(rep.lambda_region), _fmt(rep.value),
            _fmt(rep.abs_error_estimate), _fmt(rep.truncation_radius),
            _fmt(rep.tail_bound), str(rep.regions_evaluated),
            _fmt(rep.wall_time if timing else 0.0)]


def cmd_integrate(args) -> int:
    cfg = _config_from_args(args)
    params = RegKernelParams(cfg.mass, cfg.epsilon)
    kwargs = dict(tol=cfg.quad_rel_tol, lam=cfg.region_lambda,
                  T=cfg.truncation_T, R=cfg.truncation_R,
                  max_panels=cfg.quad_max_panels)
    if args.which == "p4":
        rep = quadrature.integrate_p4(params, **kwargs)
    elif args.which == "lagrangian":
        rep = quadrature.integrate_lagrangian(params, **kwargs)
    else:
        rep = quadrature.ell_varied(args.lambda_var, params, **kwargs)
    header = ["schema_version", "integral_name", "m", "epsilon",
              "lambda_region", "value", "abs_err", "trunc_radius",
              "tail_bound", "panels", "seconds"]
    _write_rows(cfg.output_path, header, [_report_row(rep, args.timing)])
    return EXIT_OK


def cmd_holder(args) -> int:
    cfg = _config_from_args(args)
    params = RegKernelParams(cfg.mass, cfg.epsilon)
    if args.lambda_list:
        try:
            lam_list = [float(s) for s in args.lambda_list.split(",")]
        except ValueError as exc:
            raise ConfigError("bad number in --lambda-list %r"
                              % args.lambda_list) from exc
    else:
        lam_list = [s * f * cfg.epsilon for f in (0.2, 0.1, 0.05, 0.025)
                    for s in (1, -1)]
    rows, fit = sea_variation.holder_sweep(
        lam_list, params, tol=cfg.quad_rel_tol, lam_region=cfg.region_lambda)
    header = ["schema_version", "lambda", "dF_norm", "dEll", "ell_value",
              "alpha_fit_running"]
    out = [[SCHEMA_VERSION] + [_fmt(v) for v in row] for row in rows]
    _write_rows(cfg.output_path, header, out)
    return EXIT_OK


def cmd_em(args) -> int:
    cfg = _config_from_args(args)
    params = RegKernelParams(cfg.mass, cfg.epsilon)
    pot = em_perturb.Potential(center=_parse_vec(args.center, 4),
                               radius=args.radius,
                               component=args.component,
                               amplitude=args.amplitude)
    gp = em_perturb.green_constants(cfg.mass)
    gp = em_perturb.GreenParams(
        gp.alpha_const if args.alpha is None else args.alpha,
        gp.beta_const if args.beta is None else args.beta)
    z1 = _parse_vec(args.z1, 4)
    z2 = _parse_vec(args.z2, 4)
    header = ["schema_version", "x0", "x1", "x2", "x3", "mu", "nu",
              "re_value", "im_value", "causal_flag"]
    rows = []
    for text in args.x or []:
        x = _parse_vec(text, 4)
        val = em_perturb.f1_matrix_element(x, z1, args.mu, z2, args.nu,
                                           pot, params, gp)
        reach = x[0] - (pot.center[0] - pot.radius)
        dist = float(np.linalg.norm(x[1:] - pot.center[1:]))
        exterior = reach <= 0.0 or dist >= reach + pot.radius
        flag = "causal_exterior" if exterior else "interior"
        rows.append([SCHEMA_VERSION] + [_fmt(float(v)) for v in x]
                    + [str(args.mu), str(args.nu), _fmt(val.real),
                       _fmt(val.imag), flag])
    _write_rows(cfg.output_path, header, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    try:
        results = verify.run_suite(args.suite, seed=cfg.seed)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    failed = 0
    for name, ok, detail in results:
        print("%s %s %s" % ("PASS" if ok else "FAIL", name, detail))
        if not ok:
            failed += 1
    print("verify %s: %d/%d passed"
          % (args.suite, len(results) - failed, len(results)))
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def _add_common(sub) -> None:
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--mass", type=float, default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--region-lambda", dest="region_lambda", type=float,
                     default=None)
    sub.add_argument("--quad-rel-tol", dest="quad_rel_tol", type=float,
                     default=None)
    sub.add_argument("--quad-max-panels", dest="quad_max_panels", type=int,
                     default=None)
    sub.add_argument("--truncation-T", dest="truncation_T", type=float,
                     default=None)
    sub.add_argument("--truncation-R", dest="truncation_R", type=float,
                     default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--output", "-o", default=None,
                     help="output CSV path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seacausal",
        description="Regularized Dirac-sea kernels, causal structure, "
                    "and variation experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("kernel", help="evaluate the kernel at displacements")
    _add_common(s)
    s.add_argument("--xi", action="append",
                   help="displacement t,x,y,z (repeatable)")
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("cone-scan",
                        help="causal classification on a (t, r) grid")
    _add_common(s)
    s.add_argument("--t-min", type=float, default=-2.0)
    s.add_argument("--t-max", type=float, default=2.0)
    s.add_argument("--t-steps", type=int, default=41)
    s.add_argument("--r-min", type=float, default=0.0)
    s.add_argument("--r-max", type=float, default=2.0)
    s.add_argument("--r-steps", type=int, default=21)
    s.set_defaults(func=cmd_cone_scan)

    s = subs.add_parser("integrate", help="certified space-time integrals")
    _add_common(s)
    s.add_argument("which", choices=["p4", "lagrangian", "ell"])
    s.add_argument("--lambda-var", dest="lambda_var", type=float,
                   default=0.0, help="regularization shift for 'ell'")
    s.add_argument("--timing", action="store_true",
                   help="record wall time (breaks bitwise determinism)")
    s.set_defaults(func=cmd_integrate)

    s = subs.add_parser("holder", help="regularization-rescaling sweep")
    _add_common(s)
    s.add_argument("--lambda-list", default=None,
                   help="comma-separated shifts (default: eps-scaled decade)")
    s.set_defaults(func=cmd_holder)

    s = subs.add_parser("em", help="first-order electromagnetic perturbation")
    _add_common(s)
    s.add_argument("--x", action="append", help="base point t,x,y,z")
    s.add_argument("--z1", default="-0.3,0.1,0.0,-0.2")
    s.add_argument("--z2", default="-0.2,-0.1,0.2,0.0")
    s.add_argument("--mu", type=int, choices=range(4), default=1)
    s.add_argument("--nu", type=int, choices=range(4), default=2)
    s.add_argument("--center", default="1.0,0.0,0.0,0.0")
    s.add_argument("--radius", type=float, default=0.5)
    s.add_argument("--component", type=int, choices=range(4), default=3)
    s.add_argument("--amplitude", type=float, default=1.0)
    s.add_argument("--alpha", type=float, default=None,
                   help="Green surface constant (default -1/(2 pi))")
    s.add_argument("--beta", type=float, default=None,
                   help="Green volume constant (default m^2/(4 pi))")
    s.set_defaults(func=cmd_em)

    s = subs.add_parser("verify", help="run a property suite")
    _add_common(s)
    s.add_argument("suite", help="suite name or 'all'")
    s.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (BesselDomainError, ValueError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except QuadratureError as exc:
        print("non-convergence: %s" % exc, file=sys.stderr)
        return EXIT_NONCONV


if __name__ == "__main__":
    sys.exit(main())
