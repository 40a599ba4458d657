#!/usr/bin/env python3
"""Run the two behaviour gates against a revision and the working tree.

    python3 scripts/gates.py [REV]        # REV defaults to HEAD

REV's `src` is exported with `git archive` to a temporary directory, and
a first line, `src: <REV lines> -> <working tree lines>`, counts the lines
of the Python files under each `src`.  The working tree's `scripts/ladder.py` and `scripts/cli_fingerprint.py` then run
twice each, once on REV's `src` and once on the working tree's `src`, so
both sides are measured by the same gate.  For each gate one line says
`identical` (with its line count), or a unified diff of REV's output
against the working tree's follows.  The exit code is 0 only when both
gates are identical; the line count does not change it.
"""

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATES = ("ladder.py", "cli_fingerprint.py")


def export_src(rev: str, dest: str) -> str:
    """Extract REV's `src` under dest and return its path."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def count_lines(src: str) -> int:
    """Lines of the Python files under src, as `wc -l` counts them."""
    total = 0
    for folder, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def run_gate(script: str, src: str) -> str:
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{script} failed on {src} with exit code {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stdout


def main() -> int:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        old_src = export_src(rev, tmp)
        new_src = os.path.join(ROOT, "src")
        print(f"src: {count_lines(old_src)} -> {count_lines(new_src)}", flush=True)
        for script in GATES:
            old = run_gate(script, old_src).splitlines(keepends=True)
            new = run_gate(script, new_src).splitlines(keepends=True)
            if old == new:
                print(f"{script}: identical ({len(new)} lines)", flush=True)
                continue
            same = False
            print(f"{script}: differs", flush=True)
            sys.stdout.writelines(difflib.unified_diff(
                old, new, f"{rev}/src", "working tree/src"))
            sys.stdout.flush()
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
