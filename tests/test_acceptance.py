"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Criteria 7 and 8 assert the concrete success degrees observed on
the first verified run (r = 2 and r = 1); those values are pinned.
"""

import functools
import json
import time

import pytest
from click.testing import CliRunner

from sosperturb.cli import main as cli_main
from sosperturb.moments import moment_matrix, psd_check
from sosperturb.parsing import parse
from sosperturb.polynomials import Polynomial, theta_big, theta_small
from sosperturb.preorder import (SemialgebraicSystem, build_preorder_sdp,
                                 epsilon_star_preorder, membership)
from sosperturb.rng import SplitMix64
from sosperturb.sdp import SolveStatus, solve
from sosperturb.sos import (THETA_BIG, THETA_SMALL, epsilon_star, is_sos,
                            verify_certificate)

from reference_programs import (atomic_moments, cauchy_schwarz_check,
                                check_lemma1, check_lemma3)

ONE_MINUS_SQ = parse("1 - x1^2", 1)
MOTZKIN = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", 2)
CUSP = SemialgebraicSystem([parse("(1 - x1^2)^3", 1)], True)
SHIFTED_RAY = SemialgebraicSystem([parse("x1 - 2", 1)], True)

PINNED_CUSP_R = 2
PINNED_RAY_R = 1


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS [{time.time() - start:.2f}s]")
        return run
    return wrap


@pytest.fixture(scope="module")
def duality_fixture_suite():
    """21 solved weight programs, each carrying both optima and, for the
    box-perturbation cases, the optimal moment functional."""
    instances = []

    def box(f, r, p, tagged_theta):
        res = epsilon_star(f, r, p)
        instances.append({
            "gram_optimum": res.min_eps,
            "moment_optimum": res.eps_star,
            "moments": res.dual_moments if tagged_theta else None,
            "r": r,
        })

    for r in range(2, 7):
        box(ONE_MINUS_SQ, r, Polynomial.monomial(1, (2 * r,)), False)
    for r in range(2, 9):
        box(ONE_MINUS_SQ, r, theta_big(1, r), True)
    box(MOTZKIN, 3, Polynomial.monomial(2, (6, 0)), False)
    box(MOTZKIN, 3, theta_big(2, 3), True)
    box(parse("4 - 4*x1^2", 1), 2, Polynomial.monomial(1, (4,)), False)
    box(parse("(1 + x1)^2", 1), 1, theta_big(1, 1), True)

    def preorder(f, r, p, system):
        res = epsilon_star_preorder(f, r, p, system)
        instances.append({
            "gram_optimum": res.min_eps,
            "moment_optimum": res.eps_star,
            "moments": None,
            "r": r,
        })

    interval = SemialgebraicSystem([parse("x1", 1), parse("1 - x1", 1)], True)
    preorder(parse("x1", 1), 1, theta_big(1, 1), interval)
    for r in (3, 4, 5):
        preorder(ONE_MINUS_SQ, r, theta_small(1, r), CUSP)
    preorder(parse("-1", 1), 1, theta_big(1, 1), SHIFTED_RAY)
    return instances


@criterion(1, "univariate weight series")
def test_criterion_1():
    start = time.time()
    expected = [0.25, 4.0 / 27.0, 27.0 / 256.0, 256.0 / 3125.0, 3125.0 / 46656.0]
    for r, want in zip(range(2, 7), expected):
        res = epsilon_star(ONE_MINUS_SQ, r, Polynomial.monomial(1, (2 * r,)))
        assert res.min_eps == pytest.approx(want, abs=1e-4)
    assert time.time() - start <= 1.0


@criterion(2, "Motzkin certification")
def test_criterion_2():
    start = time.time()
    for r in (3, 4):
        eps = 2.0 ** (4 - 2 * r)
        target = MOTZKIN + Polynomial.monomial(2, (2 * r, 0)).scale(eps)
        ok, cert = is_sos(target)
        assert ok
        assert cert.residual_linf <= 1e-6
        assert verify_certificate(target, cert.squares) <= 1e-6
    ok, _ = is_sos(MOTZKIN)
    assert not ok
    assert time.time() - start <= 5.0


@criterion(3, "strong duality across the fixture suite")
def test_criterion_3(duality_fixture_suite):
    assert len(duality_fixture_suite) >= 20
    for inst in duality_fixture_suite:
        assert abs(inst["gram_optimum"] + inst["moment_optimum"]) <= 1e-6


@criterion(4, "weights vanish as the degree grows")
def test_criterion_4():
    values = []
    for r in range(2, 11):
        res = epsilon_star(ONE_MINUS_SQ, r, theta_big(1, r))
        assert res.eps_star <= 1e-8
        values.append(res.eps_star)
    assert abs(values[-1]) < abs(values[0])


@criterion(5, "threshold dichotomy")
def test_criterion_5():
    fixtures = [
        (ONE_MINUS_SQ, 2, Polynomial.monomial(1, (4,))),
        (ONE_MINUS_SQ, 3, Polynomial.monomial(1, (6,))),
        (ONE_MINUS_SQ, 2, theta_big(1, 2)),
        (MOTZKIN, 3, Polynomial.monomial(2, (6, 0))),
        (parse("4 - 4*x1^2", 1), 2, Polynomial.monomial(1, (4,))),
    ]
    for f, r, p in fixtures:
        res = epsilon_star(f, r, p)
        assert res.min_eps > 1e-4
        above, _ = is_sos(f + p.scale(res.min_eps * 1.01))
        below, _ = is_sos(f + p.scale(res.min_eps * 0.9))
        assert above
        assert not below


@criterion(6, "moment bound property suite")
def test_criterion_6(duality_fixture_suite):
    start = time.time()
    rng = SplitMix64(20260810)
    cases = 0
    while cases < 1000:
        n = 1 + rng.next_u64() % 3
        r = 2 + rng.next_u64() % 3
        n_atoms = 1 + rng.next_u64() % 5
        atoms = []
        for _ in range(n_atoms):
            point = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
            atoms.append((point, rng.next_float()))
        total = sum(w for _, w in atoms)
        if total > 1.0:
            atoms = [(pt, w / total) for pt, w in atoms]
        y = atomic_moments(n, 2 * r, atoms)
        assert psd_check(moment_matrix(y, r), tol=1e-7)
        assert check_lemma3(y, r, tau=1.0, tol=1e-7)
        ok, _ = cauchy_schwarz_check(y, r, tol=1e-7)
        assert ok
        if n == 1:
            assert check_lemma1(y, r, tol=1e-7)
        cases += 1
    for inst in duality_fixture_suite:
        if inst["moments"] is not None:
            assert check_lemma3(inst["moments"], inst["r"], tau=1.0 + 1e-6,
                                tol=1e-6)
    assert time.time() - start <= 30.0


@criterion(7, "preordering membership for the cusp generator")
def test_criterion_7():
    cert = membership(ONE_MINUS_SQ, 0.5, THETA_SMALL, CUSP, 12)
    assert cert.r == PINNED_CUSP_R
    assert cert.r <= 12
    assert cert.residual_linf <= 1e-6
    sol = solve(build_preorder_sdp(ONE_MINUS_SQ, 0.0, Polynomial.zero(1), CUSP, 3))
    assert sol.status is SolveStatus.PRIMAL_LIKELY_INFEASIBLE


@criterion(8, "membership when the set misses the unit box")
def test_criterion_8():
    cert = membership(parse("-1", 1), 1.0, THETA_BIG, SHIFTED_RAY, 10)
    assert cert.r == PINNED_RAY_R
    assert cert.r <= 10
    assert cert.residual_linf <= 1e-6


ACCEPTANCE_COMMANDS = [
    ["check-sos", "-n", "2", "-f", "1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", "--json"],
    ["epsilon-star", "-n", "1", "-f", "1 - x1^2", "-r", "2", "--json"],
    ["minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.3", "--json"],
    ["approximate", "-n", "1", "-f", "4 - x1^2", "--eps", "0.2",
     "--box-scale", "2.0", "--json"],
    ["degree-probe", "-n", "1", "-d", "2", "-N", "1.0", "--eps", "0.5",
     "--samples", "6", "--seed", "42", "--json"],
]


@criterion(9, "certificates re-verify without the solver")
def test_criterion_9(tmp_path):
    runner = CliRunner()
    cert_path = tmp_path / "cert.json"
    res = runner.invoke(cli_main, [
        "minimal-r", "-n", "1", "-f", "1 - x1^2", "--eps", "0.3",
        "--r-max", "6", "--json", "-o", str(cert_path)])
    assert res.exit_code == 0

    res = runner.invoke(cli_main, [
        "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(cert_path),
        "--eps", "0.3", "--perturbation", "theta-big", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["residual_linf"] <= 1e-6

    tampered = json.loads(cert_path.read_text())
    tampered["gram"][0] += 1e-2
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(tampered))
    res = runner.invoke(cli_main, [
        "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(tampered_path),
        "--eps", "0.3", "--perturbation", "theta-big", "--json"])
    assert res.exit_code == 1
    assert json.loads(res.output)["residual_linf"] > 1e-3

    system_path = tmp_path / "system.txt"
    system_path.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
    pre_path = tmp_path / "pre.json"
    res = runner.invoke(cli_main, [
        "preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
        "--perturbation", "theta-small", "--system", str(system_path),
        "--r-max", "12", "--json", "-o", str(pre_path)])
    assert res.exit_code == 0
    res = runner.invoke(cli_main, [
        "verify", "-n", "1", "-f", "1 - x1^2", "--certificate", str(pre_path),
        "--eps", "0.5", "--perturbation", "theta-small", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["residual_linf"] <= 1e-6


@criterion(10, "byte-identical repeated runs")
def test_criterion_10(tmp_path):
    runner = CliRunner()
    for args in ACCEPTANCE_COMMANDS:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        assert first.output == second.output, args
    system_path = tmp_path / "system.txt"
    system_path.write_text("nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
    args = ["preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
            "--perturbation", "theta-small", "--system", str(system_path),
            "--r-max", "12", "--json"]
    assert runner.invoke(cli_main, args).output == runner.invoke(cli_main, args).output
