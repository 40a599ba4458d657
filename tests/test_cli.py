import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import sosperturb
from sosperturb import sdp, sos
from sosperturb.cli import main

MOTZKIN = "1 + x1^2*x2^2*(x1^2 + x2^2 - 3)"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestCheckSos:
    def test_perfect_square_exit_zero(self, runner):
        res = invoke(runner, ["check-sos", "-n", "2", "-f", "x1^2 + 2*x1*x2 + x2^2"])
        assert res.exit_code == 0
        assert "yes" in res.output

    def test_motzkin_exit_one(self, runner):
        res = invoke(runner, ["check-sos", "-n", "2", "-f", MOTZKIN])
        assert res.exit_code == 1
        assert "no" in res.output

    def test_malformed_exit_two(self, runner):
        res = invoke(runner, ["check-sos", "-n", "1", "-f", "1 ++ x1"])
        assert res.exit_code == 2
        assert "error" in res.output

    def test_poly_file_same_as_inline(self, runner, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("(1 - x1)^2\n")
        from_file = invoke(runner, ["check-sos", "-n", "1", "--poly-file", str(path),
                                    "--json"])
        inline = invoke(runner, ["check-sos", "-n", "1", "-f", "(1 - x1)^2", "--json"])
        assert from_file.exit_code == inline.exit_code == 0
        assert from_file.output == inline.output

    def test_json_certificate(self, runner):
        res = invoke(runner, ["check-sos", "-n", "1", "-f", "(1 - x1)^2", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["sos"] is True
        assert report["certificate"]["residual_linf"] <= 1e-6


class TestEigensolverFailure:
    """A dense eigendecomposition that does not converge is a numerical
    failure: exit 2 with an error line, never the definite "no" of exit 1."""

    @pytest.mark.parametrize("args", [
        ["check-sos", "-n", "1", "-f", "1 + x1^2"],
        ["epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "2"],
    ])
    def test_exit_two(self, runner, monkeypatch, args):
        def failing(*_args, **_kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        res = invoke(runner, args)
        assert res.exit_code == 2
        assert "error: Eigenvalues did not converge" in res.output


class TestUnwritableReport:
    """A report that cannot be written is an error: exit 2 with an error
    line, never a traceback and the definite "no" of exit 1."""

    @pytest.mark.parametrize("args", [
        ["check-sos", "-n", "1", "-f", "1 + x1^2"],
        ["epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "2"],
        ["minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.3", "--r-max", "6"],
    ])
    def test_missing_directory_exit_two(self, runner, tmp_path, args):
        missing = tmp_path / "missing" / "report.json"
        res = invoke(runner, args + ["--json", "-o", str(missing)])
        assert res.exit_code == 2
        assert "error:" in res.output
        assert not missing.exists()



class TestTooDeepOrTooLarge:
    """An input nested too deep to parse, or a grid too large to allocate,
    is an input error: exit 2 with an error line, never a traceback and
    the definite "no" of exit 1."""

    DEEP = "(" * 1000 + "x1" + ")" * 1000

    def test_deep_polynomial_exit_two(self, runner, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(self.DEEP)
        res = invoke(runner, ["check-sos", "-n", "1", "--poly-file", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")

    def test_deep_generator_exit_two(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text(f"nvars 1\nmoment_problem asserted\n{self.DEEP}\n")
        res = invoke(runner, ["preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
                              "--system", str(system)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")

    def test_deep_certificate_exit_two(self, runner, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text("[" * 100000 + "]" * 100000)
        res = invoke(runner, ["verify", "-n", "1", "-f", "x1", "--certificate", str(cert)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")

    NESTED = "(" * 101 + "x1" + ")" * 101
    NESTING_ERROR = "error: parentheses nested more than 100 deep (at position 100)\n"

    def test_nested_polynomial_names_the_limit(self, runner, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(self.NESTED)
        res = invoke(runner, ["check-sos", "-n", "1", "--poly-file", str(path)])
        assert res.exit_code == 2
        assert res.stderr == self.NESTING_ERROR

    def test_nested_generator_names_the_limit(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text(f"nvars 1\nmoment_problem asserted\n{self.NESTED}\n")
        res = invoke(runner, ["preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
                              "--system", str(system)])
        assert res.exit_code == 2
        assert res.stderr == self.NESTING_ERROR

    def test_nested_perturbation_template_names_the_limit(self, runner, tmp_path):
        template = tmp_path / "p.txt"
        template.write_text("(" * 101 + "1 + x1^{2r}" + ")" * 101)
        res = invoke(runner, ["minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.5",
                              "--perturbation", f"custom:{template}"])
        assert res.exit_code == 2
        assert res.stderr == self.NESTING_ERROR

    def test_probe_grid_too_large_exit_two(self, runner, monkeypatch):
        # the grid of -n 6 has 33^6 points; allocating it is not attempted here
        def too_large(f, n):
            raise MemoryError("Unable to allocate 9.62 GiB for the probe grid")

        monkeypatch.setattr(sosperturb.probe, "_grid_minimum", too_large)
        res = invoke(runner, ["degree-probe", "-n", "6", "-d", "2", "-N", "1",
                              "--eps", "0.5", "--samples", "1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: Unable to allocate")

class TestNonFiniteInput:
    """A non-finite weight, box scale or coefficient is a usage error: exit
    2 with an error line and no report, never an answer."""

    ONE = ["-n", "1", "-f", "1 - x1^2"]

    @pytest.mark.parametrize("args", [
        ["minimal-r", *ONE, "--eps", "nan"],
        ["minimal-r", *ONE, "--eps", "inf"],
        ["degree-probe", "-n", "1", "-d", "2", "-N", "1.0", "--eps", "nan",
         "--samples", "6", "--seed", "42"],
        ["preorder-membership", "-f", "1 - x1^2", "--eps", "nan", "--system", "SYSTEM"],
        ["approximate", *ONE, "--eps", "0.2", "--box-scale", "nan"],
        ["approximate", *ONE, "--eps", "0.2", "--box-scale", "inf"],
        ["minimal-r", "-n", "1", "-f", "1" + "0" * 400 + " - x1^2", "--eps", "0.3"],
        *(["degree-probe", "-n", "1", "-d", "2", "-N", bound, "--eps", "0.5",
           "--samples", "3"] for bound in ("nan", "inf", "1e308")),
        *(["degree-probe", "-n", n, "-d", d, "-N", "1", "--eps", "0.5", "--samples", "2"]
          for n, d in (("0", "2"), ("1", "-1"))),
    ])
    def test_exit_two(self, runner, tmp_path, args):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        res = invoke(runner, [str(system) if a == "SYSTEM" else a for a in args])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""


class TestBoxScaleOverflow:
    """A box scale whose powers overflow a double, on the way to the unit
    box (1e200) or back (1e-200), or that takes a coefficient past the
    largest double (10^300 * 1e10^2), is a usage error: exit 2 with an
    error line that names it, never a traceback or a "no"."""

    @pytest.mark.parametrize("poly, scale", [
        ("4 - x1^2", "1e200"), ("4 - x1^2", "1e-200"),
        ("1 + 1" + "0" * 300 + "*x1^2", "1e10")], ids=["1e200", "1e-200", "coefficient"])
    def test_exit_two(self, runner, poly, scale):
        res = invoke(runner, ["approximate", "-n", "1", "-f", poly, "--eps", "0.2",
                              "--box-scale", scale])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: box scale {float(scale)!r} is out of range")
        assert res.stdout == ""


class TestDecompositionFailed:
    """A sweep that covers eps at a degree whose feasibility re-solve
    fails, and finds nothing else, has no definite answer: exit 2 with
    status decomposition-failed and the trajectory, never the "no" of
    exit 1."""

    @pytest.fixture
    def failing_resolve(self, monkeypatch):
        real = sos.solve

        def failing(problem):
            sol = real(problem)
            if not any(c.any() for c in problem.C):  # the feasibility re-solve
                return dataclasses.replace(sol, status=sosperturb.SolveStatus.ITERATION_LIMIT)
            return sol

        monkeypatch.setattr(sos, "solve", failing)

    @pytest.mark.parametrize("args", [
        ["minimal-r", "-n", "1", "-f", "1 - x1^2"],
        ["preorder-membership", "-f", "1 - x1^2", "--system", "SYSTEM"],
    ])
    def test_exit_two(self, runner, tmp_path, failing_resolve, args):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        args = [str(system) if a == "SYSTEM" else a for a in args] + [
            "--eps", "0.5", "--perturbation", "theta-small", "--r-max", "3"]
        res = invoke(runner, args + ["--json"])
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert report["found"] is False
        assert report["status"] == "decomposition-failed"
        assert [t["status"] for t in report["trajectory"]] == [
            "ok", "weight-ok-decomposition-failed", "weight-ok-decomposition-failed"]
        res = invoke(runner, args)
        assert res.exit_code == 2
        lines = res.output.splitlines()
        assert lines[0].startswith("eps=0.5 is covered at r=2, 3 but not decomposed")
        assert lines[2].startswith("  r=2: min_eps=")
        assert lines[2].endswith(" weight-ok-decomposition-failed")


class TestSolverFailed:
    """A sweep that covers eps at no solved degree while the weight solve
    failed at some degree has no definite answer: exit 2 with status
    solver-failed and the trajectory, never the "no" of exit 1."""

    @pytest.mark.parametrize("args", [
        ["minimal-r", "-n", "1", "-f", "1 - x1^2"],
        ["preorder-membership", "-f", "1 - x1^2", "--system", "SYSTEM"],
    ])
    def test_exit_two(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        args = [str(system) if a == "SYSTEM" else a for a in args] + [
            "--eps", "0.5", "--perturbation", "theta-small", "--r-max", "3"]
        res = invoke(runner, args + ["--json"])
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert report["found"] is False
        assert report["status"] == "solver-failed"
        assert [t["status"] for t in report["trajectory"]] == ["solver-failed"] * 3
        res = invoke(runner, args)
        assert res.exit_code == 2
        assert res.output.splitlines()[0] == (
            "eps=0.5 is covered at no solved degree r <= 3, and the weight solve "
            "failed at r=1, 2, 3; trajectory:")


class TestEpsilonStar:
    def test_quartic_weight(self, runner):
        res = invoke(runner, [
            "epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "2",
            "--perturbation", "custom:/dev/stdin", "--json"],)
        # custom:/dev/stdin has no content under CliRunner; use a real file
        assert res.exit_code == 2

    def test_quartic_weight_with_file(self, runner, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("x1^{2r}\n")
        res = invoke(runner, [
            "epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "2",
            "--perturbation", f"custom:{fam}", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["min_eps"] == pytest.approx(0.25, abs=1e-4)
        assert report["eps_star"] == pytest.approx(-0.25, abs=1e-4)
        assert abs(report["gap"]) <= 1e-6

    def test_sos_input_gives_zero_weight(self, runner):
        res = invoke(runner, [
            "epsilon-star", "-n", "1", "-f", "(1 + x1)^2", "-r", "1", "--json"])
        assert res.exit_code == 0
        assert abs(json.loads(res.output)["min_eps"]) <= 1e-7

    def test_degree_too_low_exit_two(self, runner):
        res = invoke(runner, [
            "epsilon-star", "-n", "2", "-f", MOTZKIN, "-r", "2"])
        assert res.exit_code == 2


class TestMinimalR:
    def test_sweep_finds_three(self, runner, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("x1^{2r}")
        res = invoke(runner, [
            "minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.15",
            "--perturbation", f"custom:{fam}", "--r-max", "8", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["found"] is True
        assert report["r"] == 3

    def test_huge_weight_trajectory_length_one(self, runner):
        res = invoke(runner, [
            "minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "5.0", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["r"] == 1
        assert len(report["trajectory"]) == 1

    def test_cap_too_small_exit_one(self, runner):
        res = invoke(runner, [
            "minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.0001",
            "--r-max", "3", "--json"])
        assert res.exit_code == 1
        report = json.loads(res.output)
        assert report["found"] is False
        assert [t["r"] for t in report["trajectory"]] == [1, 2, 3]


    def test_certificate_that_does_not_verify_exit_two(self, runner, tmp_path,
                                                         monkeypatch):
        # the re-solve at the covered degree returns its Gram blocks plus
        # 0.5 * I, which miss the target by 0.5 on the even monomials
        real = sos.solve

        def off_by_half(problem):
            sol = real(problem)
            if any(c.any() for c in problem.C):
                return sol
            return dataclasses.replace(sol, primal_blocks=[
                x + 0.5 * np.eye(len(x)) for x in sol.primal_blocks])

        monkeypatch.setattr(sos, "solve", off_by_half)
        fam = tmp_path / "fam.txt"
        fam.write_text("2 + x1 + x1^{2r}")
        res = invoke(runner, [
            "minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.5",
            "--perturbation", f"custom:{fam}", "--json"])
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert report["found"] is False
        assert report["status"] == "certificate-does-not-verify"
        assert report["r"] == 2
        assert report["residual_linf"] > 1e-6
        assert "gram" not in report and "trajectory" not in report


class TestApproximate:
    def test_wide_box(self, runner):
        res = invoke(runner, [
            "approximate", "-n", "1", "-f", "4 - x1^2", "--eps", "0.2",
            "--box-scale", "2.0", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["found"] is True
        assert report["residual_linf"] <= 1e-6


class TestPreorderMembership:
    def test_cusp_case(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text(
            "nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        res = invoke(runner, [
            "preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
            "--perturbation", "theta-small", "--system", str(system),
            "--r-max", "12", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["found"] is True
        assert report["r"] == 2
        assert report["residual_linf"] <= 1e-6

    def test_empty_intersection_case(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\nx1 - 2\n")
        res = invoke(runner, [
            "preorder-membership", "-f", "-1", "--eps", "1.0",
            "--perturbation", "theta-big", "--system", str(system), "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["found"] is True and report["r"] == 1

    def test_nvars_mismatch_exit_two(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\nx1\n")
        res = invoke(runner, [
            "preorder-membership", "-n", "2", "-f", "x1", "--eps", "0.1",
            "--system", str(system)])
        assert res.exit_code == 2

    def test_not_found_exit_one(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        res = invoke(runner, [
            "preorder-membership", "-f", "1 - x1^2", "--eps", "0.0001",
            "--perturbation", "theta-small", "--system", str(system),
            "--r-max", "3", "--json"])
        assert res.exit_code == 1
        assert json.loads(res.output)["found"] is False

    def test_certificate_that_does_not_verify_exit_two(self, runner, tmp_path):
        # the weight program covers eps at r = 15, but the certificate mapped
        # back to monomials misses the target by far more than 1e-6
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        res = invoke(runner, [
            "preorder-membership", "-f", "1 - x1^2", "--eps", "0.0019",
            "--perturbation", "theta-small", "--system", str(system),
            "--r-max", "15", "--json"])
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert report["found"] is False
        assert report["status"] == "certificate-does-not-verify"
        assert report["r"] == 15
        assert report["residual_linf"] > 1e-6
        assert "terms" not in report


class TestDegreeProbe:
    def test_table_and_max(self, runner):
        res = invoke(runner, [
            "degree-probe", "-n", "1", "-d", "2", "-N", "1.0", "--eps", "0.5",
            "--samples", "6", "--seed", "42", "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["counts"]["accepted"] == 1
        assert report["max_r"] == 1

    def test_zero_samples_exit_two(self, runner):
        res = invoke(runner, [
            "degree-probe", "-n", "1", "-d", "2", "-N", "1.0", "--eps", "0.5",
            "--samples", "0"])
        assert res.exit_code == 2

    def test_human_table(self, runner):
        res = invoke(runner, [
            "degree-probe", "-n", "1", "-d", "2", "-N", "1.0", "--eps", "0.5",
            "--samples", "6", "--seed", "42"])
        assert res.exit_code == 0
        assert "max r:" in res.output


class TestVerify:
    def make_certificate(self, runner, tmp_path):
        cert = tmp_path / "cert.json"
        res = invoke(runner, [
            "minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.3",
            "--r-max", "6", "--json", "-o", str(cert)])
        assert res.exit_code == 0
        return cert

    def test_valid_certificate_accepted(self, runner, tmp_path):
        cert = self.make_certificate(runner, tmp_path)
        res = invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", "0.3", "--perturbation", "theta-big", "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["residual_linf"] <= 1e-6

    def test_tampered_certificate_rejected(self, runner, tmp_path):
        cert = self.make_certificate(runner, tmp_path)
        obj = json.loads(cert.read_text())
        obj["gram"][0] += 1e-2
        cert.write_text(json.dumps(obj))
        res = invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", "0.3", "--perturbation", "theta-big", "--json"])
        assert res.exit_code == 1
        assert json.loads(res.output)["residual_linf"] > 1e-3

    def test_nan_squares_rejected(self, runner, tmp_path):
        # a NaN on the squares route must not be dropped by the max of the
        # two residuals
        cert = self.make_certificate(runner, tmp_path)
        obj = json.loads(cert.read_text())
        obj["squares"] = [[{"exponents": [0], "coeff": float("nan")}]]
        cert.write_text(json.dumps(obj))
        res = invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", "0.3", "--perturbation", "theta-big"])
        assert res.exit_code == 1
        assert "residual (squares route): nan" in res.output
        assert "verdict: REJECTED" in res.output

    @pytest.mark.parametrize("mangle", [
        lambda obj: [1, 2],
        lambda obj: {**obj, "squares": [t for h in obj["squares"] for t in h]},
    ], ids=["list", "object-squares"])
    def test_malformed_certificate_exit_two(self, runner, tmp_path, mangle):
        cert = self.make_certificate(runner, tmp_path)
        cert.write_text(json.dumps(mangle(json.loads(cert.read_text()))))
        res = invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", "0.3"])
        assert res.exit_code == 2
        assert "error:" in res.output

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exit_two(self, runner, tmp_path, eps):
        # a non-finite claimed weight is a usage error, not a rejection
        cert = self.make_certificate(runner, tmp_path)
        res = invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", eps])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""

    def test_wrong_nvars_exit_two(self, runner, tmp_path):
        cert = self.make_certificate(runner, tmp_path)
        res = invoke(runner, [
            "verify", "-n", "2", "-f", "x1 + x2", "--certificate", str(cert),
            "--eps", "0.3"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["check-sos", "-n", "1", "-f", "(1 - x1)^2 + x1^4"],
        ["epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "3"],
    ])
    def test_one_term_preorder_certificate_same_residuals(self, runner, tmp_path, args):
        # a plain certificate is the preorder certificate of no generators,
        # with the one product 1, and verify checks both through the same
        # residual
        cert = tmp_path / "cert.json"
        assert invoke(runner, args + ["--json", "-o", str(cert)]).exit_code == 0
        obj = json.loads(cert.read_text())
        sigma = obj.get("certificate", obj)
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"r": sigma["r"], "generators": [], "terms": [
            {"e": [], "product": [{"exponents": [0], "coeff": 1.0}], "sigma": sigma}]}))
        eps = repr(obj.get("min_eps", 0.0))
        outputs = [json.loads(invoke(runner, [
            "verify", "-n", "1", "-f", args[4], "--certificate", str(path),
            "--eps", eps, "--json"]).output) for path in (cert, wrapped)]
        assert outputs[0]["residual_linf"] <= 1e-6
        for key in ("residual_gram", "residual_squares", "residual_linf"):
            assert outputs[0][key] == outputs[1][key]

    def test_preorder_certificate_verifies(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        cert = tmp_path / "cert.json"
        res = invoke(runner, [
            "preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
            "--perturbation", "theta-small", "--system", str(system),
            "--r-max", "12", "--json", "-o", str(cert)])
        assert res.exit_code == 0
        res = invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", "0.5", "--perturbation", "theta-small", "--json"])
        assert res.exit_code == 0

    def make_preorder_certificate(self, runner, tmp_path):
        system = tmp_path / "system.txt"
        system.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
        cert = tmp_path / "cert.json"
        res = invoke(runner, [
            "preorder-membership", "-f", "1 - x1^2", "--eps", "0.1",
            "--perturbation", "theta-small", "--system", str(system),
            "--r-max", "12", "--json", "-o", str(cert)])
        assert res.exit_code == 0
        return cert

    def verify_preorder(self, runner, cert, *extra):
        return invoke(runner, [
            "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert),
            "--eps", "0.1", "--perturbation", "theta-small", *extra])

    def test_preorder_certificate_names_its_generators(self, runner, tmp_path):
        cert = self.make_preorder_certificate(runner, tmp_path)
        obj = json.loads(cert.read_text())
        assert obj["generators"] == [[{"exponents": [0], "coeff": 1.0},
                                      {"exponents": [2], "coeff": -3.0},
                                      {"exponents": [4], "coeff": 3.0},
                                      {"exponents": [6], "coeff": -1.0}]]
        res = self.verify_preorder(runner, cert, "--json")
        assert res.exit_code == 0
        assert json.loads(res.output)["unmatched_products"] == []

    def test_forged_preorder_certificate_undecided(self, runner, tmp_path):
        # x1 - 1 = 1^2 * (x1 - 1), whose one product is no product of
        # generators: the file names none, so nothing ties it to a set
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps({"r": 1, "terms": [{
            "e": [1],
            "product": [{"exponents": [0], "coeff": -1.0}, {"exponents": [1], "coeff": 1.0}],
            "sigma": {"basis": [[0]], "gram": [1.0],
                      "squares": [[{"exponents": [0], "coeff": 1.0}]]}}]}))
        res = invoke(runner, ["verify", "-n", "1", "-f", "x1 - 1",
                              "--certificate", str(forged)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: the preorder certificate names no generators")

    @pytest.mark.parametrize("tamper", [
        lambda term: term["product"][0].update(coeff=term["product"][0]["coeff"] + 1e-3),
        lambda term: term.update(e=[2]),
        lambda term: term.update(e=[1, 0]),
    ], ids=["product", "e-not-0-1", "e-wrong-length"])
    def test_tampered_product_rejected(self, runner, tmp_path, tamper):
        cert = self.make_preorder_certificate(runner, tmp_path)
        obj = json.loads(cert.read_text())
        assert [t["e"] for t in obj["terms"]] == [[0], [1]]
        tamper(obj["terms"][1])
        cert.write_text(json.dumps(obj))
        res = self.verify_preorder(runner, cert, "--json")
        assert res.exit_code == 1
        report = json.loads(res.output)
        assert report["unmatched_products"] == [1]
        assert report["accepted"] is False
        res = self.verify_preorder(runner, cert)
        assert res.exit_code == 1
        assert "products that are not g^e of the generators: terms 1" in res.output
        assert "verdict: REJECTED" in res.output

    def test_negative_degree_preorder_certificate_exit_two(self, runner, tmp_path):
        cert = self.make_preorder_certificate(runner, tmp_path)
        obj = json.loads(cert.read_text())
        obj["r"] = -1
        cert.write_text(json.dumps(obj))
        res = invoke(runner, ["verify", "-n", "1", "-f", "1 - x1^2",
                              "--certificate", str(cert)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: two_r must be >= 0")

    def test_too_many_generators_exit_two(self, runner, tmp_path, monkeypatch):
        cert = self.make_preorder_certificate(runner, tmp_path)
        obj = json.loads(cert.read_text())
        obj["generators"] *= 11
        cert.write_text(json.dumps(obj))

        def enumerate_products(*args):
            raise AssertionError("products enumerated")

        monkeypatch.setattr(sosperturb.preorder, "_products", enumerate_products)
        res = self.verify_preorder(runner, cert)
        assert res.exit_code == 2
        assert "11 generators exceed the cap of 10" in res.stderr


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["check-sos", "-n", "2", "-f", MOTZKIN, "--json"],
        ["epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "3", "--json"],
        ["minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.3", "--json"],
        ["degree-probe", "-n", "1", "-d", "2", "-N", "1.0", "--eps", "0.5",
         "--samples", "4", "--seed", "42", "--json"],
    ])
    def test_byte_identical_json(self, runner, args):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code

    def test_usage_without_poly_source(self, runner):
        res = runner.invoke(main, ["check-sos", "-n", "1"])
        assert res.exit_code == 2

    def test_both_poly_sources_rejected(self, runner, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x1")
        res = runner.invoke(main, [
            "check-sos", "-n", "1", "-f", "x1", "--poly-file", str(path)])
        assert res.exit_code == 2


class TestUsageErrors:
    def test_missing_nvars(self, runner):
        res = runner.invoke(main, ["check-sos", "-f", "1 + x1^2"])
        assert res.exit_code == 2
        assert "-n/--nvars is required" in res.output

    def test_no_variables(self, runner):
        res = runner.invoke(main, ["check-sos", "-n", "0", "-f", "x1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: n_vars must be >= 1, got 0")

    def test_r_max_below_the_starting_degree(self, runner):
        res = runner.invoke(main, ["minimal-r", "-n", "1", "-f", "1 - x1^4", "--eps", "0.1",
                                   "--r-max", "1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: r_max=1 is below the starting degree 2")

    def test_unknown_perturbation(self, runner):
        res = runner.invoke(main, ["epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "2",
                                   "--perturbation", "theta-medium"])
        assert res.exit_code == 2
        assert "--perturbation must be theta-big, theta-small or custom:<file>" in res.output


class TestLogging:
    """SOSPERTURB_LOG names a logging level for stderr; the report on
    stdout never changes, and a name that is no level changes nothing."""

    ARGS = ["check-sos", "-n", "1", "-f", "1 + x1^2", "--json"]

    def run(self, level):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sosperturb.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "SOSPERTURB_LOG"}
        if level is not None:
            env["SOSPERTURB_LOG"] = level
        return subprocess.run([sys.executable, "-m", "sosperturb.cli", *self.ARGS],
                              capture_output=True, env=dict(env, PYTHONPATH=path),
                              timeout=60)

    def test_debug_lines_on_stderr_only(self):
        plain, debug = self.run(None), self.run("debug")
        assert plain.returncode == debug.returncode == 0
        assert plain.stderr == b""
        assert debug.stdout == plain.stdout
        assert debug.stderr.startswith(b"sosperturb.sdp DEBUG iter 1 ")

    def test_unknown_level_changes_nothing(self):
        plain, unknown = self.run(None), self.run("chatty")
        assert (unknown.returncode, unknown.stdout, unknown.stderr) == (
            plain.returncode, plain.stdout, plain.stderr)


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # the package runs on numpy alone; scipy's import also brings in
        # numpy.f2py and a second OpenBLAS, about 0.3 s of every command
        src = os.path.dirname(os.path.dirname(os.path.abspath(sosperturb.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, sosperturb.cli; print(' '.join(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
        modules = proc.stdout.split()
        assert "sosperturb.cli" in modules
        assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
        assert "numpy.f2py" not in modules
