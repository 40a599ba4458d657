"""One workload in one fresh process: set up, then measure whole rounds.

Set-up is the import of sosperturb and its CLI, the generation of the
inputs and one warm-up command.  A round runs the workload's job list once,
as a closed loop with one client: each operation starts when the previous
one has ended.  Only the operations are timed; the checks of their outputs
run between them, off the clock.  Rounds repeat while the next one is
expected to end within --seconds (at least one round); each run therefore
attempts whole rounds, and the known failures are the same share of the
attempts in every run.  wall_s and cpu_s sum, over the operations of the
job list, each operation's median over the rounds.

With --trace 1 the module boundaries are wrapped (see `tracing`) and the
per-layer metrics of the round of median traced wall time are reported
instead.  The last line of
stdout is one JSON object; see run.py for the metrics it carries.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def machine() -> str:
    """Versions, cores and OpenBLAS threads, for the record."""
    import ctypes
    import glob

    import numpy
    import scipy

    threads = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(ctypes.CDLL(lib), symbol, None)
            if get is not None:
                get.restype = ctypes.c_int
                threads = get()
                break
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, cores {os.cpu_count()}, "
            f"OpenBLAS threads {threads}")


def run_cli(cli, args):
    """Run one sosperturb command in-process; return its exit code, or -1
    when it raised."""
    try:
        cli.main.main(args, prog_name="sosperturb", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a fault in the command: report it, keep measuring
        traceback.print_exc()
        return -1
    return 0


class Runner:
    """Runs the operations of a workload and checks what they return."""

    def __init__(self, cli, inputs, tracer=None):
        self.cli = cli
        self.inputs = inputs
        self.tracer = tracer
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.times = {}  # operation name -> (wall s, CPU s)
        self.report_bytes = 0

    def _timed(self, name, span, fn, *args):
        if self.tracer is not None:
            fn = self.tracer.wrap(span, fn)
        t0, c0 = time.perf_counter(), time.process_time()
        out = fn(*args)
        self.times[name] = (time.perf_counter() - t0, time.process_time() - c0)
        return out

    def command(self, name, args):
        """One CLI operation; returns (exit code, report or None)."""
        path = os.path.join(self.inputs.workdir, f"{name}.json")
        if os.path.exists(path):
            os.remove(path)
        self.attempted += 1
        code = self._timed(name, "cli.main", run_cli, self.cli,
                           args + ["--json", "-o", path])
        if not os.path.exists(path):
            return code, None
        self.report_bytes += os.path.getsize(path)
        with open(path, encoding="utf-8") as handle:
            return code, json.load(handle)

    def job(self, job):
        """Run one job and the verification of its certificate."""
        if job.call is not None:
            self.attempted += 1
            try:
                code, report = 0, self._timed(job.name, "preorder.job", job.call)
            except Exception:  # e.g. SolverFailureError: a failed operation
                traceback.print_exc()
                code, report = -1, None
        else:
            code, report = self.command(job.name, job.args)
        if code != job.expect_code or report is None:
            # a known fault exits 2 and counts as a failed operation only
            self.failed += 1
            if not (job.known_fault and code == 2):
                self.failures.append(f"{job.name}: exit {code}, expected {job.expect_code}")
            return None
        self.failures += [f"{job.name}: {msg}" for msg in job.check(report, code)]
        if job.verify is not None:
            path = os.path.join(self.inputs.workdir, f"{job.name}.json")
            vcode, vreport = self.command(f"{job.name}-verify",
                                          job.verify(report) + ["--certificate", path])
            if vcode != 0 or not (vreport or {}).get("accepted"):
                self.failed += 1
                self.failures.append(f"{job.name}: verify exit {vcode}")
        return report

    def round(self, workload):
        reports = {job.name: self.job(job) for job in workload.jobs}
        for check in workload.round_checks:
            self.failures += check(reports)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True, help="checkout holding src/sosperturb")
    ap.add_argument("--out", required=True, help="directory for this run's files")
    opts = ap.parse_args()

    # -- set-up -----------------------------------------------------------
    sys.path.insert(0, os.path.join(opts.root, "src"))
    from sosperturb import cli  # noqa: F401  (imports the whole package)

    import checks
    import jobs

    workdir = os.path.join(opts.out, f"{opts.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    inputs = jobs.Inputs(opts.seed, workdir)
    workload = jobs.WORKLOADS[opts.workload](inputs)
    runner = Runner(cli, inputs)
    code, warm = runner.command("warm-up", ["epsilon-star", "-n", "1", "-f", "1 - x1^2",
                                            "-r", "2", "--perturbation=theta-big"])
    setup_s = time.perf_counter() - START
    if code != 0 or warm is None:
        print(f"warm-up command failed with exit {code}", file=sys.stderr)
        sys.exit(3)
    if opts.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return

    print(f"machine: {machine()}", file=sys.stderr)
    failures = checks.self_test(warm, jobs.ONE_MINUS_SQ, checks.theta_big(1, 2), 2,
                                inputs.points(1))
    failures = [f"checker self-test: {msg}" for msg in failures]

    # -- measurement --------------------------------------------------------
    tracer = None
    if opts.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    rounds = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        runner = Runner(cli, inputs, tracer)
        first_span = len(tracer.spans) if tracer else 0
        runner.round(workload)
        failures += runner.failures
        attempted += runner.attempted
        failed += runner.failed
        if tracer is not None:
            wall = sum(w for w, _ in runner.times.values())
            rounds.append(tracing.layer_metrics(tracer.spans, first_span,
                                                wall, runner.report_bytes))
        else:
            rounds.append(runner.times)
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(rounds) > opts.seconds:
            break

    if tracer is not None:
        # one whole round, the one of median traced wall time, so that its
        # layer self times still add up to its wall time
        walls = [r["trace.wall_s"] for r in rounds]
        metrics = rounds[walls.index(statistics.median_low(walls))]
        tracer.uninstall()
        tracer.write(os.path.join(opts.out, f"trace-{opts.workload}-seed{opts.seed}.json"))
    else:
        # each operation's median over the rounds, summed over the job list:
        # contention that slows a few operations of one round drops out
        metrics = {key: sum(statistics.median(r[op][i] for r in rounds if op in r)
                            for op in rounds[0])
                   for i, key in enumerate(("wall_s", "cpu_s"))}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"setup_s": setup_s, "rounds": len(rounds), "correct": not failures,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
