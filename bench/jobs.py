"""The three workloads: their job lists, seeded inputs and output checks.

A job is one `sosperturb` command run in-process with `--json -o <file>`,
or one call of the public `epsilon_star_preorder`.  Certificates a job
writes are then re-checked by the `verify` command, which is an operation
of its own.  The seed draws the evaluation points of the checks and a signed
permutation of the variables of every multivariate target; the box,
theta_big, theta_small and the box generators are invariant under it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
from checks import Poly

ONE_MINUS_SQ: Poly = {(0,): 1.0, (2,): -1.0}
FOUR_MINUS_SQ: Poly = {(0,): 4.0, (2,): -1.0}
MOTZKIN: Poly = {(4, 2): 1.0, (2, 4): 1.0, (2, 2): -3.0, (0, 0): 1.0}
CHOI_LAM_QUARTIC: Poly = {(2, 2, 0, 0): 1.0, (2, 0, 2, 0): 1.0, (0, 2, 2, 0): 1.0,
                          (0, 0, 0, 4): 1.0, (1, 1, 1, 1): -4.0}
CHOI_LAM_SEXTIC: Poly = {(4, 2, 0): 1.0, (0, 4, 2): 1.0, (2, 0, 4): 1.0,
                         (2, 2, 2): -3.0}
DISK: Poly = {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}

# theta_big epsilon-star degrees of 1 - x1^2 that end in IterationLimit:
# plain SOS still matches monomial coefficients
THETA_BIG_FAILING = (12, 15, 16)
MINIMAL_R_EPS = 0.022
CUSP_EPS = (0.5, 0.1, 0.05, 0.02, 0.0102, 0.0046)
DISK_CUSP_EPS = (0.2, 0.08, 0.03)
MOTZKIN_BOX_EPS = 0.01


def multiply(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for a, c in f.items():
        for b, d in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0.0) + c * d
    return out


def power(f: Poly, k: int) -> Poly:
    out: Poly = {(0,) * len(next(iter(f))): 1.0}
    for _ in range(k):
        out = multiply(out, f)
    return out


def render(f: Poly) -> str:
    """Text in the program's grammar, highest degree first."""
    text = ""
    for alpha, c in sorted(f.items(), key=lambda t: (-sum(t[0]), [-e for e in t[0]])):
        mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                        for i, e in enumerate(alpha) if e)
        mag = np.format_float_positional(abs(c), unique=True, trim="-")
        piece = mono if mono and mag == "1" else "*".join(filter(None, (mag, mono)))
        if not text:
            text = piece if c > 0 else f"-{piece}"
        else:
            text += f" {'+' if c > 0 else '-'} {piece}"
    return text


def signed_permutation(f: Poly, rng: np.random.Generator) -> Poly:
    n = len(next(iter(f)))
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    out: Poly = {}
    for alpha, c in f.items():
        beta = [0] * n
        for j, e in enumerate(alpha):
            beta[perm[j]] = e
            c *= signs[j] ** e
        out[tuple(beta)] = c
    return out


@dataclass
class Job:
    """One operation.  `args` runs a CLI command (the output flags are
    added), `call` a library function returning a report dict.  `check`
    receives the report and the exit code; `verify` maps the report to the
    `verify` arguments that re-check its certificate.  A `known_fault` job
    exits 2 because of a fault in the program; it counts as a failed
    operation, not as a wrong output."""

    name: str
    check: Callable[[dict, int], List[str]]
    args: Optional[List[str]] = None
    call: Optional[Callable[[], dict]] = None
    expect_code: int = 0
    known_fault: bool = False
    verify: Optional[Callable[[dict], List[str]]] = None


@dataclass
class Workload:
    jobs: List[Job] = field(default_factory=list)
    # checks across the reports of one round: name -> report
    round_checks: List[Callable[[Dict[str, dict]], List[str]]] = field(default_factory=list)


class Inputs:
    """Seeded points per variable count and the scratch files of a run."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._points: Dict[Tuple[int, float], np.ndarray] = {}

    def points(self, n: int, half_width: float = 1.0) -> np.ndarray:
        """12 points in [-l, l]^n and 6 beyond it, with |x_1| up to 1.2 l."""
        key = (n, half_width)
        if key not in self._points:
            inside = self.rng.uniform(-1.0, 1.0, (12, n))
            beyond = self.rng.uniform(-1.2, 1.2, (6, n))
            beyond[:, 0] = self.rng.choice([-1.0, 1.0], 6) * self.rng.uniform(1.0, 1.2, 6)
            self._points[key] = half_width * np.vstack([inside, beyond])
        return self._points[key]

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


def _verify_args(n: int, f: Poly, eps: Callable[[dict], float], perturbation: str):
    def build(report: dict) -> List[str]:
        return ["verify", "-n", str(n), "-f", render(f), f"--eps={eps(report)!r}",
                f"--perturbation={perturbation}"]
    return build


def _weight_job(name: str, inputs: Inputs, f: Poly, n: int, r: int,
                p: Poly, perturbation: str, extra=None, **kw) -> Job:
    """epsilon-star at degree r, checked at points and on the moment side,
    then verified."""
    X = inputs.points(n)

    def check(report: dict, code: int) -> List[str]:
        fails = checks.certificate_at_points(report, checks.add(f, p, report["min_eps"]), X)
        fails += checks.moment_checks(report, f, p, r, n)
        fails += checks.nonnegative_weight(report["min_eps"])
        if extra is not None:
            fails += extra(report)
        return fails

    return Job(name, check,
               args=["epsilon-star", "-n", str(n), "-f", render(f), "-r", str(r),
                     f"--perturbation={perturbation}"],
               verify=_verify_args(n, f, lambda rep: rep["min_eps"], perturbation), **kw)


def _sweep_weights(report: dict) -> Dict[int, Optional[float]]:
    return {e["r"]: e["min_eps"] for e in report["trajectory"]}


def box_small(inputs: Inputs) -> Workload:
    w = Workload()
    f1 = ONE_MINUS_SQ
    x2r = "custom:" + inputs.file("x2r.txt", "x1^{2r}")
    for r in range(2, 16):
        closed = (r - 1) ** (r - 1) / r ** r

        def closed_form(report, closed=closed, r=r):
            if abs(report["min_eps"] - closed) > 1e-6:
                return [f"x1^(2r) weight at r={r} is {report['min_eps']!r}, "
                        f"closed form {closed!r}"]
            return []

        w.jobs.append(_weight_job(f"x2r-r{r}", inputs, f1, 1, r, {(2 * r,): 1.0},
                                  x2r, extra=closed_form))
    for r in range(2, 21):
        w.jobs.append(_weight_job(f"big-r{r}", inputs, f1, 1, r, checks.theta_big(1, r),
                                  "theta-big", known_fault=r in THETA_BIG_FAILING))
    motzkin = signed_permutation(MOTZKIN, inputs.rng)
    for r in range(3, 7):
        def needs_weight(report, r=r):
            if r == 3 and not report["min_eps"] > 1e-4:
                return [f"Motzkin at r=3 has min_eps {report['min_eps']!r} <= 1e-4"]
            return []

        w.jobs.append(_weight_job(f"motzkin-r{r}", inputs, motzkin, 2, r,
                                  checks.theta_big(2, r), "theta-big", extra=needs_weight))

    X1 = inputs.points(1)

    def minimal_r_check(report: dict, code: int) -> List[str]:
        r = report["r"]
        target = checks.add(f1, checks.theta_big(1, r), MINIMAL_R_EPS)
        fails = checks.certificate_at_points(report, target, X1)
        return fails + checks.smallest_degree(r, MINIMAL_R_EPS, _sweep_weights(report))

    w.jobs.append(Job("minimal-r", minimal_r_check,
                      args=["minimal-r", "-n", "1", "-f", render(f1),
                            f"--eps={MINIMAL_R_EPS}", "--r-max", "20"],
                      verify=_verify_args(1, f1, lambda rep: MINIMAL_R_EPS, "theta-big")))

    def sweep_matches_weights(reports: Dict[str, dict]) -> List[str]:
        # the sweep's weights are the epsilon-star weights of this round
        if reports["minimal-r"] is None:
            return []  # a failed job is already counted
        weights = {r: (reports[f"big-r{r}"] or {}).get("min_eps") for r in range(2, 21)}
        found = reports["minimal-r"]["r"]
        return checks.smallest_degree(
            found, MINIMAL_R_EPS, {r: v for r, v in weights.items() if r <= found})

    w.round_checks.append(sweep_matches_weights)

    X2 = inputs.points(2)
    w.jobs.append(Job("check-sos-motzkin",
                      lambda rep, code: checks.verdict(rep, code, expected=False),
                      args=["check-sos", "-n", "2", "-f", render(motzkin)], expect_code=1))
    for r in (3, 4):
        shifted = checks.add(motzkin, signed_permutation(
            {(2 * r, 0): 2.0 ** (4 - 2 * r)}, inputs.rng))

        def yes(report, code, target=shifted):
            fails = checks.verdict(report, code, expected=True)
            return fails or checks.certificate_at_points(report["certificate"], target, X2)

        w.jobs.append(Job(f"check-sos-motzkin-r{r}", yes,
                          args=["check-sos", "-n", "2", "-f", render(shifted)],
                          verify=_verify_args(2, shifted, lambda rep: 0.0, "theta-big")))

    half = "custom:" + inputs.file("half2r.txt", "1 + (0.5*x1)^{2r}")
    X_wide = inputs.points(1, 2.0)

    def approximate_check(report: dict, code: int) -> List[str]:
        p = checks.rescale(checks.theta_big(1, report["r"]), 0.5)
        target = checks.add(FOUR_MINUS_SQ, p, 0.2)
        return checks.certificate_at_points(report, target, X_wide)

    w.jobs.append(Job("approximate", approximate_check,
                      args=["approximate", "-n", "1", "-f", render(FOUR_MINUS_SQ),
                            "--eps=0.2", "--box-scale", "2.0"],
                      verify=_verify_args(1, FOUR_MINUS_SQ, lambda rep: 0.2, half)))
    return w


def box_midsize(inputs: Inputs) -> Workload:
    w = Workload()
    targets = [("choi-lam-quartic-r4", CHOI_LAM_QUARTIC, 4),
               ("choi-lam-sextic-r6", CHOI_LAM_SEXTIC, 6),
               ("motzkin-r7", MOTZKIN, 7),
               ("motzkin-r8", MOTZKIN, 8)]
    for name, f, r in targets:
        f = signed_permutation(f, inputs.rng)
        n = len(next(iter(f)))
        w.jobs.append(_weight_job(name, inputs, f, n, r, checks.theta_big(n, r), "theta-big"))
    return w


def preorder(inputs: Inputs) -> Workload:
    import sosperturb

    w = Workload()
    cusp = inputs.file("cusp.txt", "nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n")
    disk = inputs.file("disk.txt", "nvars 2\nmoment_problem asserted\n(1 - x1^2 - x2^2)^3\n")
    box = inputs.file("box.txt", "nvars 2\nmoment_problem asserted\n1 - x1^2\n1 - x2^2\n")
    box_generators = [{(0, 0): 1.0, (2, 0): -1.0}, {(0, 0): 1.0, (0, 2): -1.0}]
    motzkin = signed_permutation(MOTZKIN, inputs.rng)

    def membership_job(name, f, n, eps, system, generators, r_max):
        X = inputs.points(n)

        def check(report: dict, code: int) -> List[str]:
            r = report["r"]
            target = checks.add(f, checks.theta_small(n, r), eps)
            fails = checks.certificate_at_points(report, target, X, generators)
            if report["min_eps"] > eps + checks.NONNEG_TOL:
                fails.append(f"found r = {r} has min_eps {report['min_eps']!r} > {eps}")
            return fails + checks.nonnegative_weight(report["min_eps"])

        return Job(name, check,
                   args=["preorder-membership", "-f", render(f), f"--eps={eps}",
                         "--perturbation=theta-small", "--system", system,
                         "--r-max", str(r_max)],
                   verify=_verify_args(n, f, lambda rep: eps, "theta-small"))

    for eps in CUSP_EPS:
        w.jobs.append(membership_job(f"cusp-{eps}", ONE_MINUS_SQ, 1, eps, cusp,
                                     [power(ONE_MINUS_SQ, 3)], 12))
    for eps in DISK_CUSP_EPS:
        w.jobs.append(membership_job(f"disk-cusp-{eps}", DISK, 2, eps, disk,
                                     [power(DISK, 3)], 8))
    w.jobs.append(membership_job("motzkin-box", motzkin, 2, MOTZKIN_BOX_EPS, box,
                                 box_generators, 8))

    def cusp_weights(reports: Dict[str, dict]) -> List[str]:
        # the report of each weight carries the minimal weight at its degree
        if any(reports[f"cusp-{eps}"] is None for eps in CUSP_EPS):
            return []  # a failed job is already counted
        found = [(reports[f"cusp-{eps}"]["r"], reports[f"cusp-{eps}"]["min_eps"])
                 for eps in CUSP_EPS]
        degrees = [r for r, _ in found]
        weights = [w for _, w in found]
        if degrees != sorted(set(degrees)) or min(weights) <= 0.0 or any(
                a <= b for a, b in zip(weights, weights[1:])):
            return [f"cusp weights {found} are not positive and strictly decreasing in r"]
        return []

    w.round_checks.append(cusp_weights)

    f_text = render(motzkin)
    system = sosperturb.load_system(open(box, encoding="utf-8").read())
    for r in range(4, 8):
        def call(r=r) -> dict:
            f = sosperturb.parse(f_text, 2)
            res = sosperturb.epsilon_star_preorder(
                f, r, sosperturb.theta_small(2, r), system)
            return {"r": res.r, "min_eps": res.min_eps, "eps_star": res.eps_star,
                    "gap": res.gap, "dual_moments": res.dual_moments}

        def check(report: dict, code: int, r=r) -> List[str]:
            report = dict(report, dual_moments=report["dual_moments"].to_obj())
            fails = checks.moment_checks(report, motzkin, checks.theta_small(2, r), r, 2)
            return fails + checks.nonnegative_weight(report["min_eps"])

        w.jobs.append(Job(f"motzkin-box-weight-r{r}", check, call=call))
    return w


WORKLOADS = {"box-small": box_small, "box-midsize": box_midsize, "preorder": preorder}
