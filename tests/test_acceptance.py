"""End-to-end acceptance: the eight property suites and the CLI contract.

Each numbered test runs one oracle suite through the library entry point
used by the ``verify`` subcommand and asserts every property in it, plus
the stated runtime budget where one applies.
"""

import subprocess
import sys
import time

import pytest

from seacausal import verify

CLI = [sys.executable, "-m", "seacausal.cli"]
SEED = 12345

_cache = {}


def run_suite_timed(name):
    if name not in _cache:
        start = time.perf_counter()
        results = verify.run_suite(name, seed=SEED)
        _cache[name] = (results, time.perf_counter() - start)
    return _cache[name]


def assert_all_pass(results):
    failures = ["%s: %s (measured %r, bound %r)"
                % (c.name, c.detail, c.measured, c.bound)
                for c in results if not c.ok]
    assert not failures, "failed checks:\n" + "\n".join(failures)
    not_bool = [c.name for c in results if type(c.ok) is not bool]
    assert not not_bool, "verdicts that are not a bool: " + ", ".join(not_bool)


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=1200)


class TestAcceptance:
    def test_1_bessel_suite(self):
        results, elapsed = run_suite_timed("bessel")
        assert_all_pass(results)
        assert elapsed <= 10.0

    def test_2_kernel_oracle_equivalence(self):
        results, elapsed = run_suite_timed("kernel")
        assert_all_pass(results)
        assert elapsed <= 60.0

    def test_3_spectral_suite(self):
        results, _ = run_suite_timed("spectral")
        assert_all_pass(results)

    def test_4_integrability(self):
        results, elapsed = run_suite_timed("integrability")
        assert_all_pass(results)
        assert elapsed <= 600.0

    def test_5_region_geometry(self):
        results, _ = run_suite_timed("geometry")
        assert_all_pass(results)

    def test_6_abstract_operator_suite(self):
        results, elapsed = run_suite_timed("abstract")
        assert_all_pass(results)
        assert elapsed <= 120.0

    def test_7_variation_and_holder(self):
        results, _ = run_suite_timed("variation")
        assert_all_pass(results)

    def test_8_em_perturbation(self):
        results, elapsed = run_suite_timed("em")
        assert_all_pass(results)
        assert elapsed <= 900.0

    def test_9_reproducibility_and_aggregation(self):
        # the aggregate runner covers exactly the eight suites above
        assert set(verify.SUITES) == {
            "bessel", "kernel", "spectral", "integrability", "geometry",
            "abstract", "variation", "em"}

        # every CLI command is bitwise deterministic under a fixed
        # seed/config
        deterministic_invocations = [
            ("kernel", "--xi", "0.5,0.1,0,0", "--xi", "0,0,0,0"),
            ("cone-scan", "--t-steps", "7", "--r-steps", "7"),
            ("integrate", "p4", "--quad-rel-tol", "0.02"),
            ("integrate", "ell", "--lambda-var", "0.02",
             "--quad-rel-tol", "0.02"),
            ("holder", "--lambda-list", "0,0.02", "--quad-rel-tol", "0.02"),
            ("em", "--alpha", "-0.1593", "--beta", "0.0812",
             "--x", "0.2,0,0,0", "--x", "0.1,3,0,0",
             "--x", "1.6,0.35,0.1,0.35"),
        ]
        for args in deterministic_invocations:
            first, second = run_cli(*args), run_cli(*args)
            assert first.returncode == 0, (args, first.stderr)
            assert first.stdout == second.stdout, args
            assert first.returncode == second.returncode

        # the verify subcommand reports per-property lines and exits 0 on
        # a passing suite, 2 on an unknown one
        res = run_cli("verify", "bessel")
        assert res.returncode == 0
        assert "PASS" in res.stdout
        assert run_cli("verify", "nosuchsuite").returncode == 2
