#!/usr/bin/env python3
"""Fingerprint of the command line: exit codes and output bytes.

Each command of a fixed list is run as `python -m sosperturb.cli` in a
fresh subprocess, inside a temporary directory that holds its input files,
so every path it prints is relative.  For each command one line is
printed: a label, the exit code and a sha256 over stdout, over stderr and
over the `-o` file (`-` when the command names none or writes none).  Two
checkouts whose outputs are identical behave the same on the command line,
byte for byte, so a refactor of the CLI can be checked by a diff:

    PYTHONPATH=src python3 scripts/cli_fingerprint.py > cli.txt

The list: the five acceptance commands of `tests/test_acceptance.py`
(`--json`), the human output of `check-sos`, `minimal-r` and
`degree-probe`, `preorder-membership` of 1 - x1^2 on the cusp
(1 - x1^2)^3 >= 0 at eps 0.5 and 0.1, `minimal-r --r-max 6 -o` and
`verify` of the file it writes, a sweep that finds nothing (exit 1),
`minimal-r` with a custom perturbation that has an odd monomial and with
theta-small at eps 0.25 (both `--json`), two bivariate certificates whose
Gram matrices split into several sign-symmetry blocks (`epsilon-star` of
the Motzkin polynomial at r = 4 and `check-sos` of the sum of squares
(x1^2 - x2^2)^2 + (x1*x2 - 1)^2, both `--json`), the error paths: a
parse error, no polynomial source, a degree too low, an `-o` in a missing
directory and two malformed certificate files, and four edge inputs:
`degree-probe` with coefficient bound nan, `check-sos --json` of
10^310/10^310 * x1^2, a rational literal whose two parts overflow a double
and whose value is 1, `degree-probe` with no variables and with a
negative degree, two sweeps whose weight covers eps at the last degree by
a few 1e-10 while its feasibility re-solve fails (`minimal-r` of 1 - x1^2
at r = 10, `preorder-membership` on the cusp at r = 9), `approximate`
with box scale 1e200, which overflows a double, and `approximate` of
1 + x1 with box scale 1e200, whose every degree ends solver-failed, and
`verify` of a forged preorder certificate whose one stored product is the
target x1 - 1 itself and names no generators, two inputs nested past
the recursion limit: `check-sos --poly-file` of x1 inside 300 pairs of
parentheses and `verify` of a certificate file of JSON arrays 100000
deep, and `check-sos --poly-file` of x1 inside 100 and inside 101 pairs
of parentheses.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import sosperturb

CUSP = "nvars 1\nmoment_problem asserted\n(1 - x1^2)^3\n"
ONE = ["-n", "1", "-f", "1 - x1^2"]
MOTZKIN = ["-n", "2", "-f", "1 + x1^2*x2^2*(x1^2 + x2^2 - 3)"]
HUGE = "1" + "0" * 310
DEPTH = 300

# (label, arguments, -o file or None); run in order, so `verify` reads the
# certificate the command before it wrote
COMMANDS = [
    ("acceptance check-sos", ["check-sos", "-n", "2", "-f",
                              "1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", "--json"], None),
    ("acceptance epsilon-star", ["epsilon-star", *ONE, "-r", "2", "--json"], None),
    ("acceptance minimal-r", ["minimal-r", *ONE, "--eps", "0.3", "--json"], None),
    ("acceptance approximate", ["approximate", "-n", "1", "-f", "4 - x1^2",
                                "--eps", "0.2", "--box-scale", "2.0", "--json"], None),
    ("acceptance degree-probe", ["degree-probe", "-n", "1", "-d", "2", "-N", "1.0",
                                 "--eps", "0.5", "--samples", "6", "--seed", "42",
                                 "--json"], None),
    ("human check-sos", ["check-sos", "-n", "2", "-f",
                         "1 + x1^2*x2^2*(x1^2 + x2^2 - 3)"], None),
    ("human minimal-r", ["minimal-r", *ONE, "--eps", "0.3"], None),
    ("human degree-probe", ["degree-probe", "-n", "1", "-d", "2", "-N", "1.0",
                            "--eps", "0.5", "--samples", "6", "--seed", "42"], None),
    ("cusp eps=0.5", ["preorder-membership", "-f", "1 - x1^2", "--eps", "0.5",
                      "--perturbation", "theta-small", "--system", "cusp.txt",
                      "--r-max", "12", "--json"], None),
    ("cusp eps=0.1", ["preorder-membership", "-f", "1 - x1^2", "--eps", "0.1",
                      "--perturbation", "theta-small", "--system", "cusp.txt",
                      "--r-max", "12", "--json"], None),
    ("minimal-r -o", ["minimal-r", *ONE, "--eps", "0.3", "--r-max", "6", "--json",
                      "-o", "cert.json"], "cert.json"),
    ("verify", ["verify", *ONE, "--certificate", "cert.json", "--eps", "0.3",
                "--json"], None),
    ("not found", ["minimal-r", *ONE, "--eps", "0.0001", "--r-max", "3", "--json"],
     None),
    ("odd custom lift", ["minimal-r", *ONE, "--eps", "0.5",
                         "--perturbation", "custom:odd.txt", "--json"], None),
    ("theta-small minimal-r", ["minimal-r", *ONE, "--eps", "0.25",
                               "--perturbation", "theta-small", "--json"], None),
    ("multi-block epsilon-star", ["epsilon-star", *MOTZKIN, "-r", "4", "--json"], None),
    ("multi-block check-sos", ["check-sos", "-n", "2", "-f",
                               "(x1^2 - x2^2)^2 + (x1*x2 - 1)^2", "--json"], None),
    ("error parse", ["check-sos", "-n", "1", "-f", "1 ++ x1"], None),
    ("error no polynomial source", ["check-sos", "-n", "1"], None),
    ("error degree too low", ["epsilon-star", "-n", "1", "-f", "1 - x1^4", "-r", "1"],
     None),
    ("error unwritable -o", ["check-sos", "-n", "1", "-f", "1 + x1^2", "--json",
                             "-o", "missing/report.json"], "missing/report.json"),
    ("error certificate list", ["verify", *ONE, "--certificate", "list.json"], None),
    ("error certificate object squares", ["verify", *ONE, "--certificate",
                                          "objects.json", "--eps", "0.3"], None),
    ("probe nan bound", ["degree-probe", "-n", "1", "-d", "2", "-N", "nan",
                         "--eps", "0.5", "--samples", "3"], None),
    ("huge rational", ["check-sos", "-n", "1", "-f", f"{HUGE}/{HUGE}*x1^2", "--json"],
     None),
    ("probe no variables", ["degree-probe", "-n", "0", "-d", "2", "-N", "1",
                            "--eps", "0.5", "--samples", "2"], None),
    ("probe negative degree", ["degree-probe", "-n", "1", "-d", "-1", "-N", "1",
                               "--eps", "0.5", "--samples", "2"], None),
    ("decomposition failed minimal-r", ["minimal-r", *ONE, "--eps", "0.0297559442",
                                        "--r-max", "10"], None),
    ("decomposition failed cusp", ["preorder-membership", "-f", "1 - x1^2",
                                   "--eps", "0.0057424826", "--perturbation",
                                   "theta-small", "--system", "cusp.txt",
                                   "--r-max", "9"], None),
    ("box scale 1e200", ["approximate", "-n", "1", "-f", "4 - x1^2", "--eps", "0.2",
                         "--box-scale", "1e200"], None),
    ("all degrees solver-failed", ["approximate", "-n", "1", "-f", "1 + x1",
                                   "--eps", "0.2", "--box-scale", "1e200"], None),
    ("verify forged preorder", ["verify", "-n", "1", "-f", "x1 - 1", "--certificate",
                                "forged.json"], None),
    ("deep polynomial", ["check-sos", "-n", "1", "--poly-file", "deep.txt"], None),
    ("deep certificate", ["verify", *ONE, "--certificate", "deep.json"], None),
    ("nested 100", ["check-sos", "-n", "1", "--poly-file", "nested100.txt"], None),
    ("nested 101", ["check-sos", "-n", "1", "--poly-file", "nested101.txt"], None),
]


def digest(data) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def write_inputs(workdir: str) -> None:
    files = {
        "cusp.txt": CUSP,
        "odd.txt": "2 + x1 + x1^{2r}\n",
        "list.json": "[1, 2]\n",
        "deep.txt": "(" * DEPTH + "x1" + ")" * DEPTH + "\n",
        "deep.json": "[" * 100000 + "]" * 100000 + "\n",
        "nested100.txt": "(" * 100 + "x1" + ")" * 100 + "\n",
        "nested101.txt": "(" * 101 + "x1" + ")" * 101 + "\n",
        # one square written as its term objects instead of a list of them
        "objects.json": json.dumps({"r": 1, "basis": [[0], [1]], "gram": [1.0, 0.0, 1.0],
                                    "squares": [{"exponents": [0], "coeff": 1.0}]}),
        # x1 - 1 = 1^2 * (x1 - 1): a product that is no product of generators
        "forged.json": json.dumps({"r": 1, "terms": [{
            "e": [1],
            "product": [{"exponents": [0], "coeff": -1.0}, {"exponents": [1], "coeff": 1.0}],
            "sigma": {"basis": [[0]], "gram": [1.0],
                      "squares": [[{"exponents": [0], "coeff": 1.0}]]}}]}),
    }
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def main() -> None:
    # the child runs the package this script imported, whatever the cwd
    src = os.path.dirname(os.path.dirname(os.path.abspath(sosperturb.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(workdir)
        for label, args, output in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "sosperturb.cli", *args],
                                  cwd=workdir, env=env, capture_output=True)
            written = None
            if output is not None and os.path.exists(os.path.join(workdir, output)):
                with open(os.path.join(workdir, output), "rb") as handle:
                    written = handle.read()
            print(f"{label}: exit={proc.returncode} stdout={digest(proc.stdout)} "
                  f"stderr={digest(proc.stderr)} file={digest(written)}", flush=True)


if __name__ == "__main__":
    main()
