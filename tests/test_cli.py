"""Command-line front end: CSV schemas, exit codes, determinism."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from seacausal import cli, em_perturb, verify
from seacausal.chain import (LIGHTLIKE_BAND, class_codes, closed_chain,
                             invariants_from_radial, lagrangian_of_b)
from seacausal.kernel import RegKernelParams

CLI = [sys.executable, "-m", "seacausal.cli"]
THREAD_VARS = ("CFS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=600, **kwargs)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def scan_bytes(ts, rs, eps_chain):
    """The cone-scan CSV of the grid ts x rs at m = 1: one
    invariants_from_radial call over the whole grid, written through
    csv.writer."""
    tt, rr = np.meshgrid(ts, rs, indexing="ij")
    a, b = invariants_from_radial(tt.ravel(), rr.ravel(), eps_chain, 1.0)
    classes = class_codes(a, b).tolist()
    assert {"T", "S", "L"} <= set(classes)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["schema_version", "t", "r", "a", "b", "class",
                     "lagrangian"])
    for t, r, ai, bi, cls, lag in zip(
            tt.ravel().tolist(), rr.ravel().tolist(), a.tolist(),
            b.tolist(), classes, lagrangian_of_b(b).tolist()):
        writer.writerow([cli.SCHEMA_VERSION, repr(t), repr(r), repr(ai),
                         repr(bi), cls, repr(lag)])
    return ref.getvalue().encode("utf-8")


def chain_class(t, r, eps):
    """Class of the displacement (t, r) from the eigenvalues of the 4x4
    closed chain: a real pair is timelike, a non-real conjugate pair
    spacelike.  Valid off the lightlike band only."""
    ev = np.linalg.eigvals(closed_chain(np.array([t, r, 0.0, 0.0]),
                                        np.zeros(4), RegKernelParams(1.0, eps)))
    real = np.max(np.abs(ev.imag)) <= 1e-8 * np.max(np.abs(ev))
    return "T" if real else "S"


# every config key with its default, each the default of its flag
DEFAULTS = {"mass": 1.0, "epsilon": 0.1, "quad_rel_tol": 0.005,
            "quad_max_panels": 20000, "truncation_T": 40.0,
            "truncation_R": 48.0, "seed": 12345, "output_path": "-"}

# (key, flag, value) of values rejected from a config file and from the
# command line alike
REJECTED = [("mass", "--mass", "-1"),
            ("quad_rel_tol", "--quad-rel-tol", "0")] + [
    (key, "--" + key.replace("_", "-"), bad)
    for key in ("mass", "epsilon", "quad_rel_tol", "truncation_T",
                "truncation_R") for bad in ("inf", "nan")]


def write_config(tmp_path, *lines):
    path = tmp_path / "run.cfg"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def stdout_of(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


class TestConfig:
    def test_defaults_valid(self):
        # each command parses its config keys' flags to the defaults a
        # config file starts from, as floats where they are floats
        model = ["epsilon", "mass", "output_path"]
        quad = sorted(set(DEFAULTS) - {"seed"})
        for argv, keys in ((["kernel"], model), (["cone-scan"], model),
                           (["em"], model), (["integrate", "p4"], quad),
                           (["holder"], quad), (["verify", "all"], ["seed"])):
            args = vars(cli._parser().parse_args(argv))
            assert sorted(set(args) & set(DEFAULTS)) == keys, argv
            assert {key: repr(args[key]) for key in keys} \
                == {key: repr(DEFAULTS[key]) for key in keys}

    def test_invalid_values(self, capsys):
        for _, flag, bad in REJECTED:
            assert cli.main(["integrate", "p4", "%s=%s" % (flag, bad)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and flag in err, (flag, bad, err)

    def test_region_lambda_flag_removed(self, capsys):
        assert cli.main(["integrate", "p4", "--region-lambda", "0.85"]) == 2
        assert "--region-lambda" in capsys.readouterr().err

    def test_region_lambda_key_removed(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("region_lambda = 0.85\n")
        assert cli.main(["integrate", "p4", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "region_lambda" in err

    def test_file_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, "mass = 2.0", "# comment",
                            "epsilon = 0.3")
        xi = ["--xi", "1,0.2,0,0"]
        from_file = stdout_of(["kernel", "--config", path] + xi, capsys)
        assert from_file == stdout_of(
            ["kernel", "--mass", "2.0", "--epsilon", "0.3"] + xi, capsys)
        assert from_file != stdout_of(["kernel"] + xi, capsys)

    def test_unknown_key_named(self, tmp_path, capsys):
        path = write_config(tmp_path, "masss = 2.0")
        assert cli.main(["kernel", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "masss" in err

    def test_overrides_win(self, tmp_path, capsys):
        path = write_config(tmp_path, "mass = 2.0")
        xi = ["--xi", "1,0.2,0,0"]
        assert stdout_of(["kernel", "--config", path, "--mass", "3"] + xi,
                         capsys) \
            == stdout_of(["kernel", "--mass", "3", "--epsilon", "0.1"] + xi,
                         capsys)

    @pytest.mark.parametrize("name", ["missing.cfg", "."],
                             ids=["missing", "directory"])
    def test_unreadable_file_named(self, name, tmp_path, capsys):
        path = str(tmp_path / name)
        assert cli.main(["kernel", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") \
            and path in err

    def test_non_utf8_file_named(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"mass = \xff\n")
        assert cli.main(["kernel", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") \
            and str(path) in err


class TestOneValueTwoSources:
    # a config file's lines are parsed by their flags' own types, so a
    # value reads, and fails, the same way from either source
    @pytest.mark.parametrize("argv, lines, flags, override", [
        (["integrate", "lagrangian"], ["epsilon = 0.05"],
         ["--epsilon", "0.05"], ["--epsilon", "0.1"]),
        (["kernel", "--xi", "1,0.2,0,0"],
         ["mass = 2", "epsilon = 0.3", "output_path = -"],
         ["--mass", "2", "--epsilon", "0.3", "-o", "-"], ["--mass", "3"]),
        (["verify", "geometry"], ["seed = 1"], ["--seed", "1"],
         ["--seed", "2"])], ids=["integrate", "kernel", "verify"])
    def test_accepted_values_print_the_same_bytes(self, argv, lines, flags,
                                                  override, tmp_path,
                                                  capsys):
        path = write_config(tmp_path, *lines)
        from_file = stdout_of(argv + ["--config", path], capsys)
        assert from_file == stdout_of(argv + flags, capsys)
        overridden = stdout_of(argv + ["--config", path] + override, capsys)
        assert overridden == stdout_of(argv + flags + override, capsys)
        assert overridden != from_file

    @pytest.mark.parametrize("key, flag, bad", REJECTED,
                             ids=["%s=%s" % (k, v) for k, _, v in REJECTED])
    def test_rejected_values_exit_2(self, key, flag, bad, tmp_path, capsys):
        path = write_config(tmp_path, "%s = %s" % (key, bad))
        for argv in (["%s=%s" % (flag, bad)], ["--config", path]):
            assert cli.main(["integrate", "p4"] + argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and flag in err, (argv, err)


class TestKernelCommand:
    def test_coincidence_row(self):
        res = run_cli("kernel", "--epsilon", "1.0", "--xi", "0,0,0,0")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        assert header[0] == "schema_version"
        row = dict(zip(header, rows[0]))
        assert float(row["im_F"]) == pytest.approx(6.55045e-3, rel=1e-4)
        assert float(row["re_G"]) == pytest.approx(2.42655e-3, rel=1e-4)

    def test_empty_list_header_only(self):
        res = run_cli("kernel")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        assert header and rows == []

    def test_bitwise_determinism(self):
        args = ("kernel", "--xi", "0.5,0.1,0,0", "--xi", "1,2,3,4")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_exit_codes(self):
        assert run_cli("kernel", "--xi", "1,2,3").returncode == 2
        assert run_cli("kernel", "--xi", "a,b,c,d").returncode == 2
        assert run_cli("kernel", "--epsilon", "-1").returncode == 2

    def test_non_finite_exit_codes(self):
        assert run_cli("kernel", "--mass", "inf",
                       "--xi", "1,0,0,0").returncode == 2
        assert run_cli("kernel", "--epsilon", "nan",
                       "--xi", "1,0,0,0").returncode == 2
        for flag in ("--quad-rel-tol", "--truncation-T"):
            res = run_cli("integrate", "p4", flag, "inf")
            assert res.returncode == 2 and res.stdout == ""

    @pytest.mark.parametrize("xi", ["inf,0,0,0", "0,nan,0,0", "0,0,-inf,0"])
    def test_non_finite_xi_is_config_error(self, xi, capsys):
        assert cli.main(["kernel", "--xi", xi]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-finite" in err

    def test_unknown_config_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("masss = 2.0\n")
        res = run_cli("kernel", "--config", str(path))
        assert res.returncode == 2
        assert "masss" in res.stderr

    def test_successive_calls_are_independent(self, capsys):
        # main builds its parser once per process; --xi appends, so a list
        # shared between calls would carry one call's rows into the next
        argv = ["kernel", "--xi", "0.5,0.1,0,0", "--xi", "1,2,3,4"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(["kernel", "--xi", "1,2,3,4"]) == 0
        second = capsys.readouterr().out
        assert cli.main(["kernel"]) == 0
        empty = capsys.readouterr().out
        header, rows = parse_csv(first)
        assert len(rows) == 2
        assert parse_csv(second) == (header, rows[1:])
        assert parse_csv(empty) == (header, [])
        assert cli._parser() is cli._parser()
        # the bytes of a fresh process
        assert run_cli(*argv).stdout == first

    def test_beyond_bessel_range_is_domain_error(self, capsys):
        # at (t, r) = (5e9, 0) the Bessel argument is about 0.1 - 5e9 i,
        # where scipy's kv returns nan although K is not negligible there
        assert cli.main(["kernel", "--xi", "5e9,0,0,0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "domain error" in err


class TestConeScanCommand:
    def test_beyond_bessel_range_is_domain_error(self, capsys):
        assert cli.main(["cone-scan", "--t-max", "1e10", "--r-max", "1e10",
                         "--t-steps", "3", "--r-steps", "3"]) == 3
        out, err = capsys.readouterr()
        assert "nan" not in out and "domain error" in err

    def test_classification_rows(self):
        res = run_cli("cone-scan", "--t-min", "0", "--t-max", "0",
                      "--t-steps", "1", "--r-min", "0", "--r-max", "1",
                      "--r-steps", "2")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        at_origin = dict(zip(header, rows[0]))
        far_out = dict(zip(header, rows[1]))
        assert at_origin["class"] == "T"
        assert far_out["class"] == "S"
        assert float(far_out["lagrangian"]) == 0.0

    def test_grid_cap(self):
        res = run_cli("cone-scan", "--t-steps", "100000",
                      "--r-steps", "10000")
        assert res.returncode == 2

    def test_steps_below_one(self):
        for flag in ("--t-steps", "--r-steps"):
            for bad in ("0", "-1"):
                res = run_cli("cone-scan", flag, bad)
                assert res.returncode == 2 and res.stdout == ""

    @pytest.mark.parametrize("flag", ["--t-min", "--t-max", "--r-min",
                                      "--r-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_bounds_are_config_errors(self, flag, value, capsys):
        assert cli.main(["cone-scan", "%s=%s" % (flag, value),
                         "--t-steps", "2", "--r-steps", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    def test_determinism(self):
        args = ("cone-scan", "--t-steps", "5", "--r-steps", "5")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_row_contract(self, tmp_path):
        # t = 0 and r = 0 lie on the grid; far out along t = 0 the
        # invariant b underflows into the lightlike band
        path = tmp_path / "scan.csv"
        assert cli.main(["cone-scan", "--t-min", "-1", "--t-max", "1",
                         "--t-steps", "5", "--r-min", "0", "--r-max", "6",
                         "--r-steps", "13", "-o", str(path)]) == 0
        header, rows = parse_csv(path.read_text())
        assert header == ["schema_version", "t", "r", "a", "b", "class",
                          "lagrangian"]
        tt, rr = np.meshgrid(np.linspace(-1.0, 1.0, 5),
                             np.linspace(0.0, 6.0, 13), indexing="ij")
        a, b = invariants_from_radial(tt.ravel(), rr.ravel(), 0.2, 1.0)
        assert len(rows) == a.size
        for row, t, r, ai, bi in zip(rows, tt.ravel().tolist(),
                                     rr.ravel().tolist(), a.tolist(),
                                     b.tolist()):
            assert row[:5] + row[6:] == [
                cli.SCHEMA_VERSION, repr(t), repr(r), repr(ai), repr(bi),
                repr(4.0 * max(bi, 0.0))]
            band = abs(bi) <= LIGHTLIKE_BAND * (ai * ai + 1.0)
            assert row[5] == ("L" if band else chain_class(t, r, 0.1))
        assert {row[5] for row in rows} == {"T", "S", "L"}
        assert "0.0" in {row[1] for row in rows}
        assert "0.0" in {row[2] for row in rows}

    def test_bytes_match_csv_writer(self, tmp_path, capsys):
        # the default grid's range at eps = 0.05: t = 0 and r = 0 lie on
        # it, and it crosses the lightlike band
        argv = ["cone-scan", "--epsilon", "0.05", "--t-steps", "21",
                "--r-steps", "31"]
        path = tmp_path / "scan.csv"
        assert cli.main(argv + ["-o", str(path)]) == 0
        ts, rs = np.linspace(-2.0, 2.0, 21), np.linspace(0.0, 2.0, 31)
        assert 0.0 in ts and 0.0 in rs
        expected = scan_bytes(ts, rs, 0.1)
        assert path.read_bytes() == expected
        capsys.readouterr()
        assert cli.main(argv + ["-o", "-"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected

    def test_blocks_match_one_call(self, tmp_path):
        # four blocks, the last one smaller than the others, and block
        # edges inside t rows; written block by block, the grid has the
        # bytes of one invariants_from_radial call over all of it
        argv = ["cone-scan", "--epsilon", "0.05", "--t-steps", "229",
                "--r-steps", "251"]
        n = 229 * 251
        assert 3 * cli._SCAN_BLOCK < n < 4 * cli._SCAN_BLOCK
        assert cli._SCAN_BLOCK % 251
        path = tmp_path / "scan.csv"
        assert cli.main(argv + ["-o", str(path)]) == 0
        assert path.read_bytes() == scan_bytes(
            np.linspace(-2.0, 2.0, 229), np.linspace(0.0, 2.0, 251), 0.1)


class TestIntegrateCommand:
    def test_ell_zero_equals_lagrangian(self):
        lag = run_cli("integrate", "lagrangian")
        ell = run_cli("integrate", "ell", "--lambda-var", "0")
        assert lag.returncode == ell.returncode == 0
        h1, r1 = parse_csv(lag.stdout)
        h2, r2 = parse_csv(ell.stdout)
        v1 = dict(zip(h1, r1[0]))
        v2 = dict(zip(h2, r2[0]))
        assert v1["value"] == v2["value"]
        assert h1 == h2 == ["schema_version", "integral_name", "m", "epsilon",
                            "value", "abs_err", "trunc_radius", "tail_bound",
                            "panels"]
        assert v1["schema_version"] == "3"

    @pytest.mark.parametrize("flags, names", [
        (["--epsilon", "1e-4"], ["T = 40, R = 48", "--truncation-T/-R"]),
        (["--quad-rel-tol", "2e-5"],
         ["T = 102.4, R = 122.88", "--quad-rel-tol", "--quad-max-panels",
          "--truncation-T/-R"])], ids=["eps 1e-4", "tol 2e-5"])
    def test_non_convergence_names_what_to_change(self, flags, names,
                                                  capsys):
        # the tail closures see no decay at eps = 1e-4; at tol 2e-5 the
        # third attempt's error is still above the budget
        assert cli.main(["integrate", "lagrangian"] + flags) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("non-convergence: ")
        for name in names:
            assert name in err, (name, err)

    def test_small_eps_lagrangian_converges(self):
        res = run_cli("integrate", "lagrangian", "--epsilon", "0.05")
        assert res.returncode == 0, res.stderr
        header, rows = parse_csv(res.stdout)
        assert float(dict(zip(header, rows[0]))["value"]) > 0.0

    @pytest.mark.parametrize("args", [["--truncation-R", "30"],
                                      ["--epsilon", "2"],
                                      ["--epsilon", "2", "--truncation-R",
                                       "30"]])
    def test_clipped_partitions(self, args, capsys):
        # R < T + delta and T < t_c: the interior's partition is clipped to
        # the box
        for which in ("p4", "lagrangian"):
            assert cli.main(["integrate", which] + args) == 0
            header, rows = parse_csv(capsys.readouterr().out)
            row = dict(zip(header, rows[0]))
            assert float(row["abs_err"]) + float(row["tail_bound"]) \
                <= 0.005 * float(row["value"])

    def test_debug_log_leaves_stdout(self, capsys, caplog):
        # the library's attempt records go to the "seacausal" logger, never
        # to stdout: the CSV bytes are the same with DEBUG on
        argv = ["integrate", "lagrangian", "--truncation-T", "12",
                "--truncation-R", "14.4", "--epsilon", "0.05"]
        assert cli.main(argv) == 0
        quiet = capsys.readouterr()
        with caplog.at_level("DEBUG", logger="seacausal"):
            assert cli.main(argv) == 0
        loud = capsys.readouterr()
        assert loud.out.encode("utf-8") == quiet.out.encode("utf-8")
        assert loud.err == quiet.err
        assert len(caplog.records) == 2

    @pytest.mark.parametrize("which", ["p4", "lagrangian"])
    def test_underflow_is_domain_error(self, which, capsys):
        # at m = 1000 the integral m^8 I(1, m eps) is below the double
        # range and reads 0; that is no certified value
        assert cli.main(["integrate", which, "--mass", "1000"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "m^8 I(1, m eps)" in err

    @staticmethod
    def p4_value(m, eps, capsys):
        assert cli.main(["integrate", "p4", "--mass", repr(m), "--epsilon",
                         repr(eps), "--truncation-T", repr(40.0 / m),
                         "--truncation-R", repr(48.0 / m)]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        return float(dict(zip(header, rows[0]))["value"])

    @pytest.mark.parametrize("args", [(1.0, 1e-4), (1.0, 1e-5),
                                      (2.0, 5e-5)])
    def test_p4_follows_the_small_eps_law(self, args, capsys):
        # eps^8 int |P|^4 tends to 4.1282e-11 as m eps -> 0; the cone
        # partition, cut in log t, sees the mass at t ~ eps_chain.  At
        # m = 2 the box is halved too, so the value is bitwise 2^8 times
        # the m = 1 one (see TestMassScaling)
        m, eps = args
        value = self.p4_value(m, eps, capsys)
        assert (m * eps) ** 8 * value / m ** 8 \
            == pytest.approx(4.1282e-11, rel=1e-4)
        if m != 1.0:
            assert value == m ** 8 * self.p4_value(1.0, m * eps, capsys)

    def test_p4_at_the_edge_of_its_range(self, capsys):
        # at m eps = 2e-4, where p4's range ended before its cone partition
        # was cut in log t, it reads the eps -> 0 law eps^8 int |P|^4 =
        # 4.1282e-11 within 1e-4
        assert cli.main(["integrate", "p4", "--epsilon", "2e-4"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        value = float(dict(zip(header, rows[0]))["value"])
        assert 2e-4 ** 8 * value == pytest.approx(4.1282e-11, rel=1e-4)

    def test_bad_tolerance_is_config_error(self):
        assert run_cli("integrate", "p4", "--quad-rel-tol", "0")\
            .returncode == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_shift_is_config_error(self, value, capsys):
        assert cli.main(["integrate", "ell", "--lambda-var", value]) == 2
        assert capsys.readouterr().out == ""


class TestEmCommand:
    def test_exterior_point_flagged_and_zero(self):
        res = run_cli("em", "--alpha", "-0.1593", "--beta", "0.0812",
                      "--x", "0.2,0,0,0")
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        row = dict(zip(header, rows[0]))
        assert row["causal_flag"] == "causal_exterior"
        assert float(row["re_value"]) == 0.0
        assert float(row["im_value"]) == 0.0

    def test_closed_form_default_and_overrides(self, monkeypatch, tmp_path):
        seen = []

        def element(x, z1, mu, z2, nu, a, params, gp):
            seen.append(gp)
            return 0j

        monkeypatch.setattr(em_perturb, "f1_matrix_element", element)
        argv = ["em", "--mass", "2", "--x", "1.6,0.35,0.1,0.35",
                "-o", str(tmp_path / "em.csv")]
        for extra in ([], ["--alpha", "-0.2"], ["--beta", "0.3"]):
            assert cli.main(argv + extra) == 0
        closed = em_perturb.green_constants(2.0)
        assert seen == [closed,
                        em_perturb.GreenParams(-0.2, closed.beta_const),
                        em_perturb.GreenParams(closed.alpha_const, 0.3)]

    @pytest.mark.parametrize("flag, value", [
        ("--x", "nan,0,0,0"), ("--x", "0.2,inf,0,0"), ("--z1", "0,0,inf,0"),
        ("--center", "1,0,nan,0"), ("--radius", "inf"),
        ("--amplitude", "nan"), ("--alpha", "inf"), ("--beta", "-inf")])
    def test_non_finite_input_is_config_error(self, flag, value, capsys):
        argv = ["em", "%s=%s" % (flag, value)]
        if flag != "--x":
            argv += ["--x", "0.2,0,0,0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("flag, value", [("--mu", "4"), ("--mu", "-1"),
                                             ("--component", "7")])
    def test_out_of_range_index_is_config_error(self, flag, value):
        assert cli.main(["em", "--alpha", "-0.1593", "--beta", "0.0812",
                         "--x", "0.2,0,0,0", flag, value]) == 2


class TestThreadCap:
    def test_cfs_threads_caps_blas(self):
        # CFS_THREADS alone must give the bytes of an explicit one-thread
        # run; em no longer sums through BLAS (see the next test), so this
        # holds the cap's plumbing, whatever reads the thread count
        base = {k: v for k, v in os.environ.items()
                if k not in THREAD_VARS}
        args = ("em", "--x", "2.0,0.2,-0.1,0.3")
        capped = run_cli(*args, env=dict(base, CFS_THREADS="1"))
        one = run_cli(*args, env=dict(base, **{k: "1" for k in THREAD_VARS}))
        assert capped.returncode == one.returncode == 0
        assert capped.stdout == one.stdout

    def test_em_bytes_from_inputs_alone(self):
        # em forms its columns in real parts and sums its convolutions in
        # node order, without BLAS and without numpy's dispatch-dependent
        # exp and trigonometric loops: two BLAS threads and reduced CPU
        # dispatch print the bytes of one thread
        base = {k: v for k, v in os.environ.items()
                if k not in THREAD_VARS + ("NPY_DISABLE_CPU_FEATURES",)}
        args = ("em", "--x", "2.0,0.2,-0.1,0.3", "--x", "1.6,0.35,0.1,0.35")
        runs = [run_cli(*args, env=dict(base, **env)) for env in (
            {k: "1" for k in THREAD_VARS},
            {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
            {"CFS_THREADS": "1", "NPY_DISABLE_CPU_FEATURES":
             "AVX512_SPR AVX512_ICL X86_V4 X86_V3"})]
        assert [r.returncode for r in runs] == [0, 0, 0]
        assert runs[1].stdout == runs[0].stdout
        assert runs[2].stdout == runs[0].stdout


class TestHolderCommand:
    def test_malformed_lambda_list_is_config_error(self):
        assert cli.main(["holder", "--lambda-list", "0,abc"]) == 2

    @pytest.mark.parametrize("text", ["0,inf", "nan,0.01"])
    def test_non_finite_lambda_list_is_config_error(self, text):
        assert cli.main(["holder", "--lambda-list", text]) == 2

    def test_truncation_flags_reach_the_sweep(self, capsys):
        # the lambda = 0 row's ell_value is the integrated Lagrangian that
        # integrate prints with the same flags
        flags = ["--epsilon", "0.05", "--truncation-T", "12",
                 "--truncation-R", "14.4"]
        assert cli.main(["holder", "--lambda-list=0"] + flags) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        ell = dict(zip(header, rows[0]))["ell_value"]
        assert cli.main(["integrate", "lagrangian"] + flags) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert ell == dict(zip(header, rows[0]))["value"]

    def test_panel_cap_reaches_the_sweep(self, capsys):
        # at eps = 0.05 six panels leave the interior's seven roots
        # unrefined, so neither command converges
        flags = ["--epsilon", "0.05", "--quad-max-panels", "6"]
        assert cli.main(["integrate", "lagrangian"] + flags) == 4
        assert cli.main(["holder", "--lambda-list=0"] + flags) == 4


class TestVerifyCommand:
    def test_unknown_suite_is_config_error(self):
        assert run_cli("verify", "nosuchsuite").returncode == 2

    @pytest.mark.parametrize("records, verdicts, rc", [
        ([("below", 0.5, 1.0), ("at", 1.0, 1.0), ("count", 0, 0)],
         ["PASS", "PASS", "PASS"], 0),
        ([("above", 1.5, 1.0), ("at", 0.0, 0.0)], ["FAIL", "PASS"], 1),
        ([("nan", float("nan"), 1.0)], ["FAIL"], 1),
        ([("missed", float("inf"), 0.1)], ["FAIL"], 1)],
        ids=["at or below", "above", "nan", "inf"])
    def test_pass_rule(self, monkeypatch, capsys, records, verdicts, rc):
        # one rule for every check: pass when measured <= bound, so a
        # record at its bound passes and a nan fails
        def fake(seed=12345):
            return [verify.Check(name, measured, bound, "detail words")
                    for name, measured, bound in records]

        monkeypatch.setattr(verify, "SUITES", {"fake": fake})
        assert cli.main(["verify", "fake"]) == rc
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [
            [verdict, name] for verdict, (name, _, _) in zip(verdicts,
                                                             records)]
        for line, (_, measured, bound) in zip(lines, records):
            assert line.split(" ", 2)[2] == (
                "detail words [measured %.3g, bound %.3g]"
                % (measured, bound))
        assert lines[-1] == "verify fake: %d/%d passed" % (
            verdicts.count("PASS"), len(records))

    def test_all_prefixes_suite_names(self, monkeypatch, capsys):
        def fake(seed=12345):
            return [verify.Check("check", seed, 0)]

        monkeypatch.setattr(verify, "SUITES", {"one": fake, "two": fake})
        assert cli.main(["verify", "all", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS one.check [measured 0, bound 0]",
            "PASS two.check [measured 0, bound 0]",
            "verify all: 2/2 passed"]

    @pytest.mark.parametrize("seed, rc", [
        ("-1", 2), ("0", 0), (str(2 ** 64 - 1), 0), (str(2 ** 64), 2)],
        ids=["-1", "0", "2**64-1", "2**64"])
    def test_seed_range(self, seed, rc, tmp_path, capsys):
        # numpy's default_rng takes 0 <= seed: a seed it would reject is
        # a rejected input, from the command line and a config file alike
        path = write_config(tmp_path, "seed = %s" % seed)
        for argv in (["--seed", seed], ["--config", path]):
            assert cli.main(["verify", "geometry"] + argv) == rc, argv
            out, err = capsys.readouterr()
            if rc:
                assert out == "" and "--seed" in err, (argv, err)
            else:
                assert "FAIL" not in out and err == ""

    def test_fast_suite_passes(self):
        res = run_cli("verify", "geometry")
        assert res.returncode == 0
        assert "PASS" in res.stdout and "FAIL" not in res.stdout


class TestSubcommandFlags:
    # each subcommand takes only the flags it reads: argparse rejects the
    # others with exit code 2 instead of running without them
    @pytest.mark.parametrize("argv", [
        ["verify", "bessel", "--epsilon", "0.3"],
        ["verify", "bessel", "--mass", "2"],
        ["verify", "bessel", "--quad-rel-tol", "0.01"],
        ["verify", "bessel", "-o", "out.csv"],
        ["kernel", "--seed", "1"],
        ["kernel", "--truncation-T", "20"],
        ["cone-scan", "--quad-max-panels", "10"],
        ["em", "--seed", "1"],
        ["integrate", "p4", "--seed", "1"],
        ["holder", "--seed", "1"]], ids=" ".join)
    def test_unread_flag_rejected(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "geometry", "epsilon"],
        ["verify", "geometry", "quad_rel_tol"],
        ["kernel", "seed"],
        ["cone-scan", "truncation_T"],
        ["integrate", "p4", "seed"],
        ["kernel", "xi"], ["em", "x"], ["cone-scan", "t_min"],
        ["holder", "lambda_list"]], ids=" ".join)
    def test_unread_config_key_rejected(self, argv, tmp_path, capsys):
        # a config file sets only keys of the command's own flags: verify
        # geometry with epsilon = 0.3 ran at eps = 0.1 and passed.  Those
        # are the flags of _add_model and verify's --seed, so no other
        # flag's dest is a key
        *command, key = argv
        path = tmp_path / "run.cfg"
        path.write_text("%s = 1\n" % key)
        assert cli.main(command + ["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err and command[0] in err

    def test_own_config_keys_accepted(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n")
        assert cli.main(["verify", "geometry", "--config", str(path)]) == 0
        path.write_text("epsilon = 0.3\nmass = 2\noutput_path = -\n")
        assert cli.main(["kernel", "--config", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestMassScaling:
    # P_m^eps(xi) = m^3 P_1^{m eps}(m xi): at m = 2 with eps, T and R
    # halved, each integral is 2^8 times the m = 1 one.  A power of two
    # keeps every node and Bessel argument exact, so values, interior
    # errors and panels agree bitwise; the tail closures' log and exp do
    # not scale exactly
    M2 = ["--mass", "2", "--epsilon", "0.05", "--truncation-T", "20",
          "--truncation-R", "24"]

    @staticmethod
    def rows(argv, capsys):
        assert cli.main(argv) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        return [{k: float(v) for k, v in zip(header, row)
                 if k != "integral_name"} for row in rows]

    @pytest.mark.parametrize("which", ["p4", "lagrangian"])
    def test_integrate(self, which, capsys):
        (one,) = self.rows(["integrate", which], capsys)
        (two,) = self.rows(["integrate", which] + self.M2, capsys)
        for key in ("value", "abs_err"):
            assert two[key] == 2.0 ** 8 * one[key], key
        assert two["trunc_radius"] == 0.5 * one["trunc_radius"]
        assert two["panels"] == one["panels"]
        assert two["tail_bound"] == pytest.approx(
            2.0 ** 8 * one["tail_bound"], rel=1e-12, abs=0.0)

    def test_holder(self, capsys):
        ones = self.rows(["holder", "--lambda-list=0,0.02"], capsys)
        twos = self.rows(["holder", "--lambda-list=0,0.01"] + self.M2,
                         capsys)
        assert len(ones) == len(twos) == 2
        for one, two in zip(ones, twos):
            assert two["lambda"] == 0.5 * one["lambda"]
            for key in ("ell_value", "dEll"):
                assert two[key] == 2.0 ** 8 * one[key], key
            assert two["dF_norm"] == pytest.approx(
                2.0 ** 3 * one["dF_norm"], rel=1e-12, abs=0.0)


class TestHelp:
    def test_top_level(self):
        assert run_cli("--help").returncode == 0

    @pytest.mark.parametrize("sub", ["kernel", "cone-scan", "integrate",
                                     "holder", "em", "verify"])
    def test_subcommands(self, sub):
        assert run_cli(sub, "--help").returncode == 0
