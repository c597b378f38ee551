"""Command-line front end: CSV schemas, exit codes, determinism."""

import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from seacausal import cli, em_perturb
from seacausal.chain import (class_codes, classify_invariants,
                             invariants_from_radial, lagrangian_of_b)
from seacausal.config import ConfigError, RunConfig, load_config, \
    parse_config_file

CLI = [sys.executable, "-m", "seacausal.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=600, **kwargs)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            RunConfig(mass=-1.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(region_lambda=0.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(quad_rel_tol=0.0).validate()
        for key in ("mass", "epsilon", "quad_rel_tol", "truncation_T",
                    "truncation_R"):
            for bad in (float("inf"), float("nan")):
                with pytest.raises(ConfigError, match=key):
                    RunConfig(**{key: bad}).validate()

    def test_region_lambda_range(self):
        RunConfig(region_lambda=0.6).validate()
        for bad in (0.5, 1.0):
            with pytest.raises(ConfigError):
                RunConfig(region_lambda=bad).validate()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mass = 2.0\n# comment\nepsilon = 0.3\n")
        cfg = load_config(str(path), {})
        assert cfg.mass == 2.0 and cfg.epsilon == 0.3

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("masss = 2.0\n")
        with pytest.raises(ConfigError, match="masss"):
            parse_config_file(str(path))

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mass = 2.0\n")
        cfg = load_config(str(path), {"mass": 3.0, "epsilon": None})
        assert cfg.mass == 3.0 and cfg.epsilon == 0.1


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

    def test_unknown_config_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("masss = 2.0\n")
        res = run_cli("kernel", "--config", str(path))
        assert res.returncode == 2
        assert "masss" in res.stderr


class TestConeScanCommand:
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
            assert row == ["1", repr(t), repr(r), repr(ai), repr(bi),
                           classify_invariants(ai, bi).value,
                           repr(4.0 * max(bi, 0.0))]
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
        tt, rr = np.meshgrid(np.linspace(-2.0, 2.0, 21),
                             np.linspace(0.0, 2.0, 31), indexing="ij")
        a, b = invariants_from_radial(tt.ravel(), rr.ravel(), 0.1, 1.0)
        classes = class_codes(a, b).tolist()
        assert {"T", "S", "L"} <= set(classes)
        assert 0.0 in tt and 0.0 in rr
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["schema_version", "t", "r", "a", "b", "class",
                         "lagrangian"])
        for t, r, ai, bi, cls, lag in zip(
                tt.ravel().tolist(), rr.ravel().tolist(), a.tolist(),
                b.tolist(), classes, lagrangian_of_b(b).tolist()):
            writer.writerow(["1", repr(t), repr(r), repr(ai), repr(bi), cls,
                             repr(lag)])
        expected = ref.getvalue().encode("utf-8")
        assert path.read_bytes() == expected
        capsys.readouterr()
        assert cli.main(argv + ["-o", "-"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected


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
        assert v1["seconds"] == v2["seconds"] == "0.0"

    def test_small_eps_lagrangian_converges(self):
        res = run_cli("integrate", "lagrangian", "--epsilon", "0.05")
        assert res.returncode == 0, res.stderr
        header, rows = parse_csv(res.stdout)
        assert float(dict(zip(header, rows[0]))["value"]) > 0.0

    def test_bad_tolerance_is_config_error(self):
        assert run_cli("integrate", "p4", "--quad-rel-tol", "0")\
            .returncode == 2


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

    def test_closed_form_default_skips_calibration(self, monkeypatch,
                                                   tmp_path):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrate_green must not run")

        monkeypatch.setattr(em_perturb, "calibrate_green", calibrate)
        path = tmp_path / "em.csv"
        assert cli.main(["em", "--x", "0.2,0,0,0", "-o", str(path)]) == 0
        header, rows = parse_csv(path.read_text())
        assert dict(zip(header, rows[0]))["causal_flag"] == "causal_exterior"

    @pytest.mark.parametrize("flag, value", [("--mu", "4"), ("--mu", "-1"),
                                             ("--component", "7")])
    def test_out_of_range_index_is_config_error(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["em", "--alpha", "-0.1593", "--beta", "0.0812",
                      "--x", "0.2,0,0,0", flag, value])
        assert exc.value.code == 2


class TestHolderCommand:
    def test_malformed_lambda_list_is_config_error(self):
        assert cli.main(["holder", "--lambda-list", "0,abc"]) == 2


class TestVerifyCommand:
    def test_unknown_suite_is_config_error(self):
        assert run_cli("verify", "nosuchsuite").returncode == 2

    def test_fast_suite_passes(self):
        res = run_cli("verify", "geometry")
        assert res.returncode == 0
        assert "PASS" in res.stdout and "FAIL" not in res.stdout


class TestHelp:
    def test_top_level(self):
        assert run_cli("--help").returncode == 0

    @pytest.mark.parametrize("sub", ["kernel", "cone-scan", "integrate",
                                     "holder", "em", "verify"])
    def test_subcommands(self, sub):
        assert run_cli(sub, "--help").returncode == 0
