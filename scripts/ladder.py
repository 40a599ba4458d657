#!/usr/bin/env python3
"""Fingerprint of every solve on the ladder of reference programs.

Each program of the ladder is run through the public API while `sdp.solve`
is wrapped, in every module that bound it, to record the solutions it
returns.  For each solve one line is printed: the program, the status, the
iteration count, the precision classes the solve ran in (`class=ext`,
`class=dbl`, or `class=dbl>ext` for a double attempt retried in
extended), the number of equalities (`m`, the length of the dual vector),
the repr of both objectives and a sha256 over the primal blocks and the
dual vector.  Two checkouts whose outputs are identical
solved the same programs bit for bit, so a refactor can be checked by a
diff:

    PYTHONPATH=src python3 scripts/ladder.py > ladder.txt

The ladder: 1 - x1^2 with theta_big at r = 2..20 and with x1^(2r) at
r = 2..15; the Motzkin polynomial with theta_big at r = 3..8; the Choi-Lam
quartic at r = 4..7 and sextic at r = 6 and 7 with theta_big; with
theta_big, the signed Choi-Lam quartic (the sign of x1*x2*x3*x4 flipped)
at r = 4, the quartic 1 + (x1^2 + x2^2)^2 + x1*x2*(x1^2 - x2^2), which is
invariant under (x1, x2) -> (x2, -x1), at r = 2..4, and
1 + x1^4 + ... + x8^4 at r = 2; the preorder weight
programs of 1 - x1^2 on the cusp (1 - x1^2)^3 >= 0 at r = 2..29 step 3, of
1 - x1^2 - x2^2 on the disk cusp at r = 2..7, of the Motzkin polynomial
on the box at r = 4..7 and of 1 - x1^2 on the cusp and parabola
(1 - x1^2)^3 >= 0, 1 + 3*x1 + 1/7*x1^2 >= 0 at r = 3..9, whose product
of the two generators is not exact in binary, all with theta_small; is_sos
of the Motzkin polynomial and of the SOS quartic
(x1^2 - x2^2)^2 + (x1*x2 - 1)^2; the
feasibility programs of `build_preorder_sdp` for x1 and for x1*(1 - x1) on
the interval x1 >= 0, 1 - x1 >= 0 at r = 1 and for 1 - x1^2 on the cusp at
r = 3, each solved as built; and the preorder memberships of the benchmark
with theta_small, whose weight solves and feasibility re-solves are both
printed: 1 - x1^2 on the cusp at eps = 0.0102 (r_max 12), 1 - x1^2 - x2^2
on the disk cusp at eps = 0.08 (r_max 8) and the Motzkin polynomial on the
box at eps = 0.01 (r_max 8); and the plain degree sweeps, whose weight solves
and feasibility re-solve are printed the same way: `minimal_r` of 1 - x1^2
with theta_big at eps = 0.022 (r_max 20), the benchmark's `minimal-r` job,
and `approximate_on_box` of 4 - x1^2 on [-2, 2] at eps = 0.2 (r_max 10).
"""

import hashlib
import sys

import numpy as np

from sosperturb import (THETA_BIG, THETA_SMALL, Polynomial, SemialgebraicSystem,
                        approximate_on_box, build_preorder_sdp, epsilon_star,
                        epsilon_star_preorder, is_sos, membership, minimal_r,
                        parse, sdp, theta_big, theta_small)
from sosperturb.errors import SolverFailureError

ONE_MINUS_SQ = parse("1 - x1^2", 1)
MOTZKIN = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", 2)
CHOI_LAM_QUARTIC = parse(
    "x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 - 4*x1*x2*x3*x4", 4)
SIGNED_CHOI_LAM_QUARTIC = parse(
    "x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2 + x4^4 + 4*x1*x2*x3*x4", 4)
ROTATION_QUARTIC = parse("1 + (x1^2 + x2^2)^2 + x1*x2*(x1^2 - x2^2)", 2)
EIGHT_QUARTICS = parse("1 + " + " + ".join(f"x{i}^4" for i in range(1, 9)), 8)
CHOI_LAM_SEXTIC = parse("x1^4*x2^2 + x2^4*x3^2 + x3^4*x1^2 - 3*x1^2*x2^2*x3^2", 3)
DISK = parse("1 - x1^2 - x2^2", 2)
SOS_QUARTIC = parse("(x1^2 - x2^2)^2 + (x1*x2 - 1)^2", 2)
CUSP = SemialgebraicSystem([parse("(1 - x1^2)^3", 1)], True)
DISK_CUSP = SemialgebraicSystem([parse("(1 - x1^2 - x2^2)^3", 2)], True)
BOX = SemialgebraicSystem([parse("1 - x1^2", 2), parse("1 - x2^2", 2)], True)
INTERVAL = SemialgebraicSystem([parse("x1", 1), parse("1 - x1", 1)], True)
CUSP_PARABOLA = SemialgebraicSystem(
    [parse("(1 - x1^2)^3", 1), parse("1 + 3*x1 + 1/7*x1^2", 1)], True)


CLASS_LABELS = {"double": "dbl", "extended": "ext"}


def ladder():
    """(label, call) for every program, in a fixed order."""
    for r in range(2, 21):
        yield f"theta-big r={r}", lambda r=r: epsilon_star(ONE_MINUS_SQ, r, theta_big(1, r))
    for r in range(2, 16):
        yield f"x1^2r r={r}", lambda r=r: epsilon_star(
            ONE_MINUS_SQ, r, Polynomial.monomial(1, (2 * r,)))
    for r in range(3, 9):
        yield f"motzkin r={r}", lambda r=r: epsilon_star(MOTZKIN, r, theta_big(2, r))
    yield "choi-lam quartic r=4", lambda: epsilon_star(CHOI_LAM_QUARTIC, 4, theta_big(4, 4))
    for r in range(5, 8):
        yield f"choi-lam quartic r={r}", lambda r=r: epsilon_star(
            CHOI_LAM_QUARTIC, r, theta_big(4, r))
    yield "choi-lam sextic r=6", lambda: epsilon_star(CHOI_LAM_SEXTIC, 6, theta_big(3, 6))
    yield "choi-lam sextic r=7", lambda: epsilon_star(CHOI_LAM_SEXTIC, 7, theta_big(3, 7))
    yield "signed choi-lam quartic r=4", lambda: epsilon_star(
        SIGNED_CHOI_LAM_QUARTIC, 4, theta_big(4, 4))
    for r in range(2, 5):
        yield f"rotation quartic r={r}", lambda r=r: epsilon_star(
            ROTATION_QUARTIC, r, theta_big(2, r))
    yield "eight quartics r=2", lambda: epsilon_star(EIGHT_QUARTICS, 2, theta_big(8, 2))
    for r in range(2, 30, 3):
        yield f"cusp r={r}", lambda r=r: epsilon_star_preorder(
            ONE_MINUS_SQ, r, theta_small(1, r), CUSP)
    for r in range(2, 8):
        yield f"disk cusp r={r}", lambda r=r: epsilon_star_preorder(
            DISK, r, theta_small(2, r), DISK_CUSP)
    for r in range(4, 8):
        yield f"motzkin box r={r}", lambda r=r: epsilon_star_preorder(
            MOTZKIN, r, theta_small(2, r), BOX)
    for r in range(3, 10):
        yield f"cusp and parabola r={r}", lambda r=r: epsilon_star_preorder(
            ONE_MINUS_SQ, r, theta_small(1, r), CUSP_PARABOLA)
    yield "is_sos motzkin", lambda: is_sos(MOTZKIN)
    yield "is_sos sos quartic", lambda: is_sos(SOS_QUARTIC)
    for label, f, system, r in (("x1 interval", parse("x1", 1), INTERVAL, 1),
                                ("x1*(1 - x1) interval", parse("x1*(1 - x1)", 1),
                                 INTERVAL, 1),
                                ("cusp", ONE_MINUS_SQ, CUSP, 3)):
        # sdp.solve is looked up at call time, so the wrapped one records it
        yield f"feasibility {label} r={r}", lambda f=f, system=system, r=r: sdp.solve(
            build_preorder_sdp(f, 0.0, Polynomial.zero(1), system, r))
    yield "membership cusp eps=0.0102", lambda: membership(
        ONE_MINUS_SQ, 0.0102, THETA_SMALL, CUSP, 12)
    yield "membership disk cusp eps=0.08", lambda: membership(
        DISK, 0.08, THETA_SMALL, DISK_CUSP, 8)
    yield "membership motzkin box eps=0.01", lambda: membership(
        MOTZKIN, 0.01, THETA_SMALL, BOX, 8)
    yield "minimal-r eps=0.022", lambda: minimal_r(ONE_MINUS_SQ, 0.022, THETA_BIG, 20)
    yield "approximate box 2 eps=0.2", lambda: approximate_on_box(
        parse("4 - x1^2", 1), 0.2, 2.0, 10)


def fingerprint(sol) -> str:
    digest = hashlib.sha256()
    for block in sol.primal_blocks:
        digest.update(np.ascontiguousarray(block).tobytes())
    digest.update(np.ascontiguousarray(sol.dual_vector).tobytes())
    return digest.hexdigest()


def install(record) -> None:
    """Route every module binding of `sdp.solve` through `record`."""
    original = sdp.solve

    def traced(*args, **kwargs):
        sol = original(*args, **kwargs)
        record.append(sol)
        return sol

    for name, module in list(sys.modules.items()):
        if name == "sosperturb" or name.startswith("sosperturb."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def main() -> None:
    solutions = []
    install(solutions)
    for label, call in ladder():
        solutions.clear()
        try:
            call()
            outcome = "ok"
        except SolverFailureError as exc:
            outcome = type(exc).__name__
        for sol in solutions:
            print(f"{label}: {outcome} {sol.status.value} it={sol.iterations} "
                  f"class={'>'.join(CLASS_LABELS[a] for a in sol.attempts)} "
                  f"m={len(sol.dual_vector)} pobj={sol.primal_objective!r} dobj={sol.dual_objective!r} "
                  f"sha256={fingerprint(sol)}", flush=True)
        if not solutions:
            print(f"{label}: {outcome} no solve", flush=True)


if __name__ == "__main__":
    main()
