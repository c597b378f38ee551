"""Command-line front end.

Subcommands: kernel, cone-scan, integrate, holder, em, verify.
Exit codes: 0 ok, 1 invariant failure, 2 config error, 3 domain error,
4 quadrature non-convergence.  `main` returns the code, also for an input
that argparse rejects.

Each flag's argparse `type=` is the only code that reads and checks its
value.  A `--config` file's `key = value` lines become `--flag=value`
tokens right after the command token, so a value is accepted or rejected
the same way in a file as on the command line, and a flag given on the
command line wins.

All CSV output is comma-separated with '.' decimals, LF line endings, a
mandatory header row, and a schema_version column.  Output is bitwise
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys


def _apply_thread_cap() -> None:
    cap = os.environ.get("CFS_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


# BLAS reads its thread count once, when numpy loads it, so the cap must
# be in the environment before numpy is imported (in a process that has
# imported numpy already, it changes nothing)
_apply_thread_cap()

import numpy as np  # noqa: E402

from . import (chain, em_perturb, kernel, quadrature,  # noqa: E402
               sea_variation, verify)
from .bessel import BesselDomainError  # noqa: E402
from .config import ConfigError, config_argv  # noqa: E402
from .kernel import RegKernelParams  # noqa: E402
from .quadrature import QuadratureError  # noqa: E402

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NONCONV = 4


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


def _checked(kind, ok, message: str):
    """An argparse type: kind(text), which must satisfy ok; `message`
    formats the rejected text."""
    def read(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid %s value: %r" % (kind.__name__, text)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(message % text)
        return value
    return read


_number = _checked(float, math.isfinite, "non-finite number %r")
_positive = _checked(_number, lambda v: v > 0, "%r is not positive")
_count = _checked(int, lambda v: v >= 1, "%r is below 1")
_seed = _checked(int, lambda v: -2 ** 63 <= v < 2 ** 63,
                 "%r does not fit in 64 bits")


def _numbers(text: str) -> list:
    """Comma-separated finite numbers; an empty entry is rejected."""
    return [_number(part) for part in text.split(",")]


# a space-time point t,x,y,z
_point = _checked(lambda text: np.array(_numbers(text)),
                  lambda v: v.size == 4,
                  "expected 4 comma-separated numbers, got %r")


def cmd_kernel(args) -> int:
    params = RegKernelParams(args.mass, args.epsilon)
    header = ["schema_version", "t", "r", "re_F", "im_F", "re_G", "im_G",
              "p_norm"]
    rows = []
    for xi in args.xi or []:
        t = float(xi[0])
        r = float(np.linalg.norm(xi[1:]))
        kv = kernel.kernel_p(xi, np.zeros(4), params)
        pn = float(quadrature.p_norm_radial(t, r, args.epsilon, args.mass))
        rows.append([SCHEMA_VERSION] + [_fmt(v) for v in (
            t, r, kv.f.real, kv.f.imag, kv.g.real, kv.g.imag, pn)])
    _write_rows(args.output_path, header, rows)
    return EXIT_OK


# grid points per chain.invariants_from_radial call in cone-scan.  The
# block bounds the working set: a 501 x 501 scan peaks at about 106 MB in
# one call and at about 61 MB in blocks of 16 384 (55 MB of it the
# imports), at the same speed.
_SCAN_BLOCK = 16384


def _scan_lines(ts, r_txt, start, a, b, cls, lag):
    """cone-scan CSV lines of the grid points start, start + 1, ... in the
    order t outer and r inner; r_txt holds the formatted r values.

    No field can need quoting (floats by repr, one-letter class codes), so
    the joined lines are the bytes `csv.writer` would write."""
    cells = zip(map(repr, a.tolist()), map(repr, b.tolist()), cls.tolist(),
                map(repr, lag.tolist()))
    row, col = divmod(start, len(r_txt))
    stop_row = (start + a.size - 1) // len(r_txt) + 1
    for t in ts[row:stop_row].tolist():
        lead = "%s,%r," % (SCHEMA_VERSION, t)
        # zip asks r_txt first, so it stops without taking the next row's
        # cells
        for r, cell in zip(itertools.islice(r_txt, col, None), cells):
            yield lead + r + ",%s,%s,%s,%s\n" % cell
        col = 0


def cmd_cone_scan(args) -> int:
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    rs = np.linspace(args.r_min, args.r_max, args.r_steps)
    n = ts.size * rs.size
    if n > 10 ** 7:
        raise ConfigError("grid too large (> 1e7 points)")
    r_txt = [repr(r) for r in rs.tolist()]
    header = ["schema_version", "t", "r", "a", "b", "class", "lagrangian"]
    fh, close = _open_output(args.output_path)
    try:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _SCAN_BLOCK):
            row, col = np.divmod(
                np.arange(start, min(start + _SCAN_BLOCK, n)), rs.size)
            a, b = chain.invariants_from_radial(
                ts[row], rs[col], 2.0 * args.epsilon, args.mass)
            fh.writelines(_scan_lines(ts, r_txt, start, a, b,
                                      chain.class_codes(a, b),
                                      chain.lagrangian_of_b(b)))
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _report_row(rep: quadrature.QuadratureReport):
    return [SCHEMA_VERSION, rep.integral_name, _fmt(rep.m),
            _fmt(rep.epsilon), _fmt(rep.value),
            _fmt(rep.abs_error_estimate), _fmt(rep.truncation_radius),
            _fmt(rep.tail_bound), str(rep.regions_evaluated)]


def _quad_kwargs(args) -> dict:
    """The certified integrals' keywords from their four flags."""
    return dict(tol=args.quad_rel_tol, T=args.truncation_T,
                R=args.truncation_R, max_panels=args.quad_max_panels)


def cmd_integrate(args) -> int:
    params = RegKernelParams(args.mass, args.epsilon)
    kwargs = _quad_kwargs(args)
    if args.which == "p4":
        rep = quadrature.integrate_p4(params, **kwargs)
    elif args.which == "lagrangian":
        rep = quadrature.integrate_lagrangian(params, **kwargs)
    else:
        rep = quadrature.ell_varied(args.lambda_var, params, **kwargs)
    header = ["schema_version", "integral_name", "m", "epsilon", "value",
              "abs_err", "trunc_radius", "tail_bound", "panels"]
    _write_rows(args.output_path, header, [_report_row(rep)])
    return EXIT_OK


def cmd_holder(args) -> int:
    params = RegKernelParams(args.mass, args.epsilon)
    rows, _ = sea_variation.holder_sweep(args.lambda_list, params,
                                         **_quad_kwargs(args))
    header = ["schema_version", "lambda", "dF_norm", "dEll", "ell_value",
              "alpha_fit_running"]
    out = [[SCHEMA_VERSION] + [_fmt(v) for v in row] for row in rows]
    _write_rows(args.output_path, header, out)
    return EXIT_OK


def cmd_em(args) -> int:
    params = RegKernelParams(args.mass, args.epsilon)
    pot = em_perturb.Potential(center=args.center, radius=args.radius,
                               component=args.component,
                               amplitude=args.amplitude)
    gp = em_perturb.green_constants(args.mass)
    gp = em_perturb.GreenParams(
        gp.alpha_const if args.alpha is None else args.alpha,
        gp.beta_const if args.beta is None else args.beta)
    header = ["schema_version", "x0", "x1", "x2", "x3", "mu", "nu",
              "re_value", "im_value", "causal_flag"]
    rows = []
    for x in args.x or []:
        val = em_perturb.f1_matrix_element(x, args.z1, args.mu, args.z2,
                                           args.nu, pot, params, gp)
        reach = x[0] - (pot.center[0] - pot.radius)
        dist = float(np.linalg.norm(x[1:] - pot.center[1:]))
        exterior = reach <= 0.0 or dist >= reach + pot.radius
        flag = "causal_exterior" if exterior else "interior"
        rows.append([SCHEMA_VERSION] + [_fmt(float(v)) for v in x]
                    + [str(args.mu), str(args.nu), _fmt(val.real),
                       _fmt(val.imag), flag])
    _write_rows(args.output_path, header, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = verify.run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    for c in results:
        print(" ".join(filter(None, (
            "PASS" if c.ok else "FAIL", c.name, c.detail,
            "[measured %.3g, bound %.3g]" % (c.measured, c.bound)))))
    failed = sum(not c.ok for c in results)
    print("verify %s: %d/%d passed"
          % (args.suite, len(results) - failed, len(results)))
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


# a config file's keys and the flags they set: a command reads the keys of
# the flags it takes
_CONFIG_FLAGS = {"mass": "--mass", "epsilon": "--epsilon",
                 "quad_rel_tol": "--quad-rel-tol",
                 "quad_max_panels": "--quad-max-panels",
                 "truncation_T": "--truncation-T",
                 "truncation_R": "--truncation-R",
                 "output_path": "--output", "seed": "--seed"}


def _add_model(sub, quadrature: bool = False) -> None:
    """--config, --mass, --epsilon and --output, and with quadrature the
    certified integrals' four flags; each dest is its config key."""
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--mass", type=_positive, default=1.0)
    sub.add_argument("--epsilon", type=_positive, default=0.1)
    if quadrature:
        sub.add_argument("--quad-rel-tol", type=_positive, default=0.005)
        sub.add_argument("--quad-max-panels", type=_count, default=20000)
        sub.add_argument("--truncation-T", type=_positive, default=40.0)
        sub.add_argument("--truncation-R", type=_positive, default=48.0)
    sub.add_argument("--output", "-o", dest="output_path", metavar="PATH",
                     default="-", help="output CSV path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seacausal",
        description="Regularized Dirac-sea kernels, causal structure, "
                    "and variation experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("kernel", help="evaluate the kernel at displacements")
    _add_model(s)
    s.add_argument("--xi", action="append", type=_point,
                   help="displacement t,x,y,z (repeatable)")
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("cone-scan",
                        help="causal classification on a (t, r) grid")
    _add_model(s)
    s.add_argument("--t-min", type=_number, default=-2.0)
    s.add_argument("--t-max", type=_number, default=2.0)
    s.add_argument("--t-steps", type=_count, default=41)
    s.add_argument("--r-min", type=_number, default=0.0)
    s.add_argument("--r-max", type=_number, default=2.0)
    s.add_argument("--r-steps", type=_count, default=21)
    s.set_defaults(func=cmd_cone_scan)

    s = subs.add_parser("integrate", help="certified space-time integrals")
    _add_model(s, quadrature=True)
    s.add_argument("which", choices=["p4", "lagrangian", "ell"])
    s.add_argument("--lambda-var", type=_number, default=0.0,
                   help="regularization shift for 'ell'")
    s.set_defaults(func=cmd_integrate)

    s = subs.add_parser("holder", help="regularization-rescaling sweep")
    _add_model(s, quadrature=True)
    s.add_argument("--lambda-list", type=_numbers, default=None,
                   help="comma-separated shifts (default: eps-scaled decade)")
    s.set_defaults(func=cmd_holder)

    s = subs.add_parser("em", help="first-order electromagnetic perturbation")
    _add_model(s)
    s.add_argument("--x", action="append", type=_point,
                   help="base point t,x,y,z")
    s.add_argument("--z1", type=_point, default="-0.3,0.1,0.0,-0.2")
    s.add_argument("--z2", type=_point, default="-0.2,-0.1,0.2,0.0")
    s.add_argument("--mu", type=int, choices=range(4), default=1)
    s.add_argument("--nu", type=int, choices=range(4), default=2)
    s.add_argument("--center", type=_point, default="1.0,0.0,0.0,0.0")
    s.add_argument("--radius", type=_number, default=0.5)
    s.add_argument("--component", type=int, choices=range(4), default=3)
    s.add_argument("--amplitude", type=_number, default=1.0)
    s.add_argument("--alpha", type=_number, default=None,
                   help="Green surface constant (default -1/(2 pi))")
    s.add_argument("--beta", type=_number, default=None,
                   help="Green volume constant (default m^2/(4 pi))")
    s.set_defaults(func=cmd_em)

    s = subs.add_parser("verify", help="run a property suite")
    s.add_argument("--config", default=None, help="key=value config file")
    s.add_argument("--seed", type=_seed, default=12345)
    s.add_argument("suite", help="suite name or 'all'")
    s.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and then reused:
    building six subparsers and their arguments takes about 2 ms, which
    in-process callers would otherwise pay on every call."""
    return build_parser()


def _parse_args(argv: list) -> argparse.Namespace:
    """argv's namespace, with a --config file's tokens right after the
    command token, where a flag given later on the command line wins."""
    args = _parser().parse_args(argv)
    if args.config is None:
        return args
    # the namespace holds exactly the dests the command registered
    flags = {key: flag for key, flag in _CONFIG_FLAGS.items()
             if key in vars(args)}
    at = argv.index(args.command) + 1
    return _parser().parse_args(
        argv[:at] + config_argv(args.config, flags, args.command) + argv[at:])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse's exit: 2 on a rejected input, 0 after --help
        return exc.code
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
