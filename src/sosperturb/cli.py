"""Command-line front end.

Every command returns its report, its human lines and its exit code; one
command class, `_Command`, writes the report and exits, so the exit codes
follow one contract everywhere: 0 for success or membership, 1 for a
definite negative answer (not a sum of squares, nothing found within the
degree cap, a failed re-verification), 2 for usage errors, malformed input
(a certificate file included), an input too deep or too large to process
(a polynomial more than 100 parentheses deep, a certificate nested
past the recursion limit, a `degree-probe` grid that does not fit in
memory), a report that cannot be
written, or numerical failure (a sweep that covers eps at a degree it
cannot decompose, or finds nothing while the weight solve failed at some
degree, included).  All commands are deterministic: identical invocations
produce byte-identical output, and --json emits the same data the human
rendering shows.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from typing import List, Optional

import click

from .errors import (ConvergenceFailureError, DimensionMismatchError,
                     NoSamplesAcceptedError, NotFoundWithinRMaxError,
                     SolverFailureError)
from .parsing import parse, unparse
from .polynomials import Polynomial
from .preorder import load_system, membership, verify_preorder_obj
from .probe import run_probe
from .sos import (DEFAULT_RESIDUAL_TOL, THETA_BIG, THETA_SMALL,
                  approximate_on_box, epsilon_star, is_sos, minimal_r,
                  perturbation_polynomial, verify_certificate_obj)

# ValueError covers the input errors of `errors` (ParseError,
# DimensionMismatchError, DegreeTooLowError, ...) and malformed JSON; KeyError
# and TypeError a certificate file of the wrong shape; RecursionError a
# certificate nested too deep to decode, MemoryError an input too large to
# process
_USAGE_ERRORS = (
    ValueError, OSError, KeyError, TypeError, RecursionError, MemoryError,
    SolverFailureError, ConvergenceFailureError, NoSamplesAcceptedError,
)


def _setup_logging() -> None:
    level_name = os.environ.get("SOSPERTURB_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if isinstance(level, int):
            logging.basicConfig(
                level=level, format="%(name)s %(levelname)s %(message)s")


class _Command(click.Command):
    """A command whose callback returns (report, human lines, exit code).

    Adds --json and -o/--output, writes the report, the command's name first
    (JSON or the human lines, to stdout or the -o file), and exits with the
    code.  A usage error, malformed input or numerical failure, raised while
    computing or writing the report, prints `error: ...` and exits 2.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params += [
            click.Option(["--json", "as_json"], is_flag=True,
                         help="Emit the report as JSON."),
            click.Option(["-o", "--output"], type=click.Path(dir_okay=False),
                         help="Write the report to a file instead of stdout."),
        ]

    def invoke(self, ctx: click.Context):
        as_json = ctx.params.pop("as_json")
        output = ctx.params.pop("output")
        try:
            report, human, code = super().invoke(ctx)
            report = {"command": self.name, **report}
            text = (json.dumps(report, indent=2) if as_json else "\n".join(human)) + "\n"
            if output:
                with open(output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                click.echo(text, nl=False)
        except _USAGE_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        sys.exit(code)


@click.group()
def main() -> None:
    """Certificates of polynomial nonnegativity via perturbed sums of squares."""
    _setup_logging()


main.command_class = _Command


def _poly_options(fn):
    fn = click.option("--poly-file", type=click.Path(exists=True, dir_okay=False),
                      help="Read the polynomial from a file.")(fn)
    fn = click.option("-f", "--poly", "poly_text", help="Polynomial expression.")(fn)
    fn = click.option("-n", "--nvars", type=int, help="Number of variables.")(fn)
    return fn


def _load_poly(nvars: Optional[int], poly_text: Optional[str],
               poly_file: Optional[str]) -> Polynomial:
    if nvars is None:
        raise click.UsageError("-n/--nvars is required")
    if (poly_text is None) == (poly_file is None):
        raise click.UsageError("provide exactly one of -f/--poly or --poly-file")
    if poly_file is not None:
        with open(poly_file, "r", encoding="utf-8") as handle:
            poly_text = handle.read()
    return parse(poly_text, nvars)


def _perturbation(value: str):
    """Resolve a --perturbation value to (kind, descriptor dict)."""
    if value in (THETA_BIG, THETA_SMALL):
        return value, {"kind": value}
    if value.startswith("custom:"):
        path = value[len("custom:"):]
        with open(path, "r", encoding="utf-8") as handle:
            template = handle.read().strip()

        def family(n: int, r: int) -> Polynomial:
            text = template.replace("{2r}", str(2 * r)).replace("{r}", str(r))
            return parse(text, n)

        return family, {"kind": "custom", "template": template}
    raise click.UsageError(
        f"--perturbation must be theta-big, theta-small or custom:<file>, got {value!r}")


def _trajectory_lines(trajectory) -> List[str]:
    lines = []
    for entry in trajectory:
        if entry["min_eps"] is None:
            lines.append(f"  r={entry['r']}: {entry['status']}")
        elif entry["status"] == "ok":
            lines.append(f"  r={entry['r']}: min_eps={entry['min_eps']:.9g}")
        else:
            lines.append(f"  r={entry['r']}: min_eps={entry['min_eps']:.9g} "
                         f"{entry['status']}")
    return lines


@main.command("check-sos")
@_poly_options
def cmd_check_sos(nvars, poly_text, poly_file):
    """Decide whether a polynomial is a sum of squares."""
    f = _load_poly(nvars, poly_text, poly_file)
    ok, cert = is_sos(f)
    report = {
        "nvars": f.n_vars,
        "poly": unparse(f),
        "sos": ok,
    }
    human = [f"polynomial: {report['poly']}",
             f"sum of squares: {'yes' if ok else 'no'}"]
    if cert is not None:
        report["certificate"] = {"r": cert.basis.max_degree, **cert.to_obj()}
        human.append(f"squares: {len(cert.squares)}")
        human.append(f"residual: {cert.residual_linf:.3e}")
    return report, human, 0 if ok else 1


@main.command("epsilon-star")
@_poly_options
@click.option("-r", "relaxation_r", type=int, required=True,
              help="Half-degree of the squares basis.")
@click.option("--perturbation", default="theta-big", show_default=True)
def cmd_epsilon_star(nvars, poly_text, poly_file, relaxation_r, perturbation):
    """Minimal perturbation weight at a fixed degree."""
    f = _load_poly(nvars, poly_text, poly_file)
    kind, desc = _perturbation(perturbation)
    p = perturbation_polynomial(kind, f.n_vars, relaxation_r)
    res = epsilon_star(f, relaxation_r, p)
    report = {
        "nvars": f.n_vars,
        "poly": unparse(f),
        "perturbation": desc,
        **res.to_obj(),
        "dual_moments": res.dual_moments.to_obj(),
    }
    human = [
        f"polynomial: {report['poly']}",
        f"r: {res.r}",
        f"eps_star: {res.eps_star:.9g}",
        f"min_eps: {res.min_eps:.9g}",
        f"gap: {res.gap:.3e}",
        f"certificate residual: {res.certificate.residual_linf:.3e}",
    ]
    return report, human, 0


def _plain_details(res):
    residual = res.certificate.residual_linf
    return residual, [f"certificate residual: {residual:.3e}", "trajectory:",
                      *_trajectory_lines(res.trajectory or [])]


def _sweep_command(f, desc, eps, r_max, sweep, details=_plain_details, tail=None):
    """Run a degree sweep of f at weight eps and return (report, human
    lines, exit code), the same way for every sweep; the command class
    writes the report and exits.

    The report opens with nvars, poly, perturbation (desc) and eps.
    sweep() returns the result; details(result) gives its certificate
    residual and the human lines after the weight (by default those of
    `minimal_r`'s result).  Nothing found within r_max is code 1 with the
    trajectory when the sweep's verdict is a definite "no", else code 2
    with the sweep's status ("decomposition-failed" or "solver-failed",
    see `NotFoundWithinRMaxError`).  A certificate whose residual is not
    within DEFAULT_RESIDUAL_TOL (NaN included) is no membership: `verify`
    would reject it, so the verdict is numerically undecided and the code
    is 2.  Otherwise the result follows the fields, then tail, with code 0.
    """
    fields = {"nvars": f.n_vars, "poly": unparse(f), "perturbation": desc, "eps": eps}
    try:
        res = sweep()
    except NotFoundWithinRMaxError as exc:
        at = ", ".join(map(str, exc.degrees))
        first = {
            None: f"no degree r <= {r_max} admits eps={eps:.9g}",
            "decomposition-failed": f"eps={eps:.9g} is covered at r={at} but not "
                                    f"decomposed there: the feasibility re-solve failed",
            "solver-failed": f"eps={eps:.9g} is covered at no solved degree r <= {r_max}, "
                             f"and the weight solve failed at r={at}",
        }[exc.status]
        status = {} if exc.status is None else {"status": exc.status}
        report = {**fields, "found": False, **status, "trajectory": exc.trajectory}
        return (report, [f"{first}; trajectory:", *_trajectory_lines(exc.trajectory)],
                1 if exc.status is None else 2)
    residual, lines = details(res)
    if not residual <= DEFAULT_RESIDUAL_TOL:
        report = {**fields, "found": False, "status": "certificate-does-not-verify",
                  "r": res.r, "min_eps": res.min_eps, "residual_linf": residual}
        human = [
            f"polynomial: {fields['poly']}",
            f"certificate at r={res.r} does not re-verify: reconstruction "
            f"residual {residual:.3e} exceeds {DEFAULT_RESIDUAL_TOL:g}",
        ]
        return report, human, 2
    report = {**fields, "found": True, **res.to_obj(), **(tail or {})}
    human = [f"polynomial: {fields['poly']}",
             f"found r: {res.r}",
             f"min_eps at r: {res.min_eps:.9g}",
             *lines]
    return report, human, 0


@main.command("minimal-r")
@_poly_options
@click.option("--eps", type=float, required=True, help="Perturbation weight.")
@click.option("--perturbation", default="theta-big", show_default=True)
@click.option("--r-max", type=int, default=10, show_default=True)
def cmd_minimal_r(nvars, poly_text, poly_file, eps, perturbation, r_max):
    """Smallest degree whose minimal weight is covered by eps."""
    f = _load_poly(nvars, poly_text, poly_file)
    kind, desc = _perturbation(perturbation)
    return _sweep_command(f, desc, eps, r_max, lambda: minimal_r(f, eps, kind, r_max))


@main.command("approximate")
@_poly_options
@click.option("--eps", type=float, required=True, help="Perturbation weight.")
@click.option("--box-scale", type=float, default=1.0, show_default=True,
              help="Half-width of the certification box [-l, l]^n.")
@click.option("--r-max", type=int, default=10, show_default=True)
def cmd_approximate(nvars, poly_text, poly_file, eps, box_scale, r_max):
    """Certify nonnegativity on a box via the rescaled sweep."""
    f = _load_poly(nvars, poly_text, poly_file)
    return _sweep_command(f, {"kind": THETA_BIG}, eps, r_max,
                          lambda: approximate_on_box(f, eps, box_scale, r_max),
                          tail={"box_scale": box_scale})


@main.command("preorder-membership")
@_poly_options
@click.option("--eps", type=float, required=True, help="Perturbation weight.")
@click.option("--perturbation", default="theta-small", show_default=True,
              type=click.Choice(["theta-big", "theta-small"]))
@click.option("--system", "system_file", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Semialgebraic system description file.")
@click.option("--r-max", type=int, default=10, show_default=True)
def cmd_preorder_membership(nvars, poly_text, poly_file, eps, perturbation,
                            system_file, r_max):
    """Decompose f + eps*p over the system's truncated preordering."""
    with open(system_file, "r", encoding="utf-8") as handle:
        system = load_system(handle.read())
    if nvars is not None and nvars != system.n_vars:
        raise DimensionMismatchError(
            f"-n {nvars} disagrees with the system's nvars {system.n_vars}")
    f = _load_poly(system.n_vars, poly_text, poly_file)

    def details(cert):
        return cert.residual_linf, [
            f"terms: {len(cert.terms)}",
            f"reconstruction residual: {cert.residual_linf:.3e}",
            f"note: {cert.annotation}",
            *(f"warning: {w}" for w in cert.warnings)]

    return _sweep_command(f, {"kind": perturbation}, eps, r_max,
                          lambda: membership(f, eps, perturbation, system, r_max), details)


@main.command("degree-probe")
@click.option("-n", "--nvars", type=int, required=True)
@click.option("-d", "--degree", type=int, required=True,
              help="Max total degree of sampled polynomials.")
@click.option("-N", "--coeff-bound", type=float, required=True,
              help="Coefficients are uniform in [-N, N].")
@click.option("--eps", type=float, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--r-max", type=int, default=10, show_default=True)
def cmd_degree_probe(nvars, degree, coeff_bound, eps, samples, seed, r_max):
    """Estimate the certification degree over random nonnegative samples."""
    report_data = run_probe(nvars, degree, coeff_bound, eps, samples, seed, r_max)
    report = report_data.to_obj()
    human = [
        f"samples: {samples}  seed: {seed}",
        f"{'idx':>4} {'status':>9} {'grid_min':>12} {'shifted':>8} {'r':>5}",
    ]
    for row in report_data.rows:
        r_text = str(row.found_r) if row.found_r is not None else "-"
        human.append(
            f"{row.index:>4} {row.status:>9} {row.grid_min:>12.5f} "
            f"{str(row.shifted):>8} {r_text:>5}")
    counts = report_data.counts()
    human.append(f"accepted: {counts['accepted']}  rejected: {counts['rejected']}  "
                 f"shifted: {counts['shifted']}  unresolved: {counts['unresolved']}")
    human.append(f"max r: {report_data.max_r}")
    return report, human, 0


@main.command("verify")
@_poly_options
@click.option("--certificate", "certificate_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", type=float, default=0.0, show_default=True,
              help="Perturbation weight the certificate claims.")
@click.option("--perturbation", default="theta-big", show_default=True)
def cmd_verify(nvars, poly_text, poly_file, certificate_file, eps, perturbation):
    """Re-check a serialized certificate without the solver.

    Accepts when the coefficient residual is at most 1e-6
    (DEFAULT_RESIDUAL_TOL), the tolerance the degree sweeps certify at,
    and, for a preorder certificate, every stored product is g^e of the
    stored generators.  A preorder certificate without generators is
    undecided (exit 2)."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    f = _load_poly(nvars, poly_text, poly_file)
    with open(certificate_file, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if "certificate" in obj and isinstance(obj["certificate"], dict):
        obj = {**obj, **obj["certificate"]}
    if eps != 0.0:
        kind, _ = _perturbation(perturbation)
        p = perturbation_polynomial(kind, f.n_vars, int(obj["r"]))
        target = f + p.scale(eps)
    else:
        target = f
    if "terms" in obj:
        result = verify_preorder_obj(obj, target)
    else:
        result = verify_certificate_obj(obj, target)
    unmatched = result.get("unmatched_products")
    ok = result["residual_linf"] <= DEFAULT_RESIDUAL_TOL and not unmatched
    report = {
        "nvars": f.n_vars,
        "poly": unparse(f),
        "eps": eps,
        **result,
        "accepted": ok,
    }
    human = [
        f"residual (gram route): {result['residual_gram']:.3e}",
        f"residual (squares route): {result['residual_squares']:.3e}",
        *([f"products that are not g^e of the generators: terms "
           f"{', '.join(map(str, unmatched))}"] if unmatched else []),
        f"verdict: {'accepted' if ok else 'REJECTED'}",
    ]
    return report, human, 0 if ok else 1


if __name__ == "__main__":
    main()
