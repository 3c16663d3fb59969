"""Run one pass of one workload in this process; print a JSON report as the
last line of stdout.

Started by run.py in a child process with an address-space limit.  Set-up
(import, seeded input generation, warm-up) is timed from the first line of
this file.  Every decision is checked against the known truth of its input;
with `--check full` the oracle also evaluates both compositions of each
inverse on a 3x3 matrix tuple and re-checks each collision witness.

Untraced (`--trace 0`): one timed pass over the jobs, then CLI_PER_PASS maps
of the fixed CLI subset (round `--cli-round` of it) each go once through
`python -m freeinv invert ... --json`.  Job times are reported as measured and
at the reference speed (calibrate.py); CLI times with the interpreter start
timed before each call.

Traced (`--trace 1`): one untraced pass, then the same pass with every layer
wrapped (tracer.py) and the full oracle, then the CLI subset through
`freeinv.cli.main` in this process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import freeinv  # noqa: E402
from freeinv import bipartite, inverter, mateval  # noqa: E402

import workloads  # noqa: E402
from calibrate import Timeline, startup_reference  # noqa: E402

JOB_DEADLINE_S = 30  # one decision call; the slowest job takes about 3 s untraced
RUN_DEADLINE_S = 100  # jobs not started by then count as failed
CLI_TIMEOUT_S = 30
IMPORT_PROBES = 5
CLI_PER_PASS = 4
REF_EVERY_S = 0.25  # at most this long between two reference samples


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a decision call past its deadline."""


def _on_alarm(signum, frame):
    raise JobTimeout


class Run:
    def __init__(self, workload, seed, toy, fault):
        self.fault = fault
        self.jobs, self.cli_jobs = workloads.build(workload, seed, toy)
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.decisions = 0
        self.failures = []
        self.results = {}  # job index -> library result
        self.timeline = Timeline()

    def call(self, job):
        # looked up at call time, so that tracing wrappers apply
        fn = inverter.invert if job.call == "invert" else bipartite.injectivity_test
        signal.setitimer(signal.ITIMER_REAL, JOB_DEADLINE_S)
        start = time.perf_counter()
        try:
            result = fn(job.p, **job.kwargs)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if self.fault == "wrong-inverse" and job.call == "invert" and result.q is not None:
            # self-test hook: corrupt the answer, which the oracle must catch
            result = dataclasses.replace(result, q=(result.q[0] + result.q[0],) + tuple(result.q[1:]))
        return result, elapsed

    def fail(self, job, why):
        self.failed += 1
        self.failures.append(f"{job.label} {job.call}: {why}")
        print(f"FAIL {job.label} {job.call}: {why}", file=sys.stderr)

    def attempt(self, idx, job, full):
        """Run and check one job; return its time, or None when it failed."""
        self.attempted += 1
        self.decisions += 1
        if time.perf_counter() - T0 > RUN_DEADLINE_S:
            self.fail(job, f"not started within the {RUN_DEADLINE_S} s run deadline")
            return None
        self.timeline.sample_if_older(REF_EVERY_S)
        try:
            result, elapsed = self.call(job)
        except JobTimeout:
            self.fail(job, f"killed by the {JOB_DEADLINE_S} s job deadline")
            return None
        except MemoryError:
            self.fail(job, "killed by the address-space limit (MemoryError)")
            return None
        except Exception:
            traceback.print_exc()
            self.fail(job, "exception")
            return None
        self.results[idx] = result
        verdict = _verdict(job, result)
        self.decided += verdict != "undecided"
        why = _oracle(job, verdict, result, full)
        if why:
            self.fail(job, why)
            return None
        self.timeline.record(("job", idx), elapsed)
        return elapsed

    def run_pass(self, full):
        times = [self.attempt(i, job, full) for i, job in enumerate(self.jobs)]
        self.timeline.sample()
        return times

    def library_answer(self, job):
        for idx, other in enumerate(self.jobs):
            if other is job and idx in self.results:
                return self.results[idx]
        return inverter.invert(job.p, **job.kwargs)

    def cli_argv(self, job):
        return ["invert", "-g", str(len(job.p)), "--cap", str(job.kwargs["cap"]),
                "--max-terms", "0", "--json", "--", *job.text]

    def cli_subprocess(self, round_):
        """Time CLI_PER_PASS maps of the CLI subset, starting at round_ * CLI_PER_PASS."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        n = len(self.cli_jobs)
        times, starts = [], []
        for k in range(round_ * CLI_PER_PASS, (round_ + 1) * CLI_PER_PASS):
            job = self.cli_jobs[k % n]
            self.attempted += 1
            expected = self.library_answer(job)
            cmd = [sys.executable, "-m", "freeinv", *self.cli_argv(job)]
            starts.append(startup_reference(env, ROOT))
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, env=env, cwd=ROOT)
            except subprocess.TimeoutExpired:
                self.fail(job, f"CLI killed after {CLI_TIMEOUT_S} s")
                continue
            elapsed = time.perf_counter() - start
            why = _cli_mismatch(proc.returncode, proc.stdout, expected)
            if why:
                self.fail(job, f"CLI: {why}; stderr: {proc.stderr.strip()[-300:]}")
                continue
            times.append(elapsed)
        return times, starts

    def cli_in_process(self, tracer):
        from freeinv import cli  # the traced binding

        for job in self.cli_jobs:
            tracer.job = f"cli {job.label}"
            self.attempted += 1
            expected = self.library_answer(job)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.cli_argv(job))
            why = _cli_mismatch(code, out.getvalue(), expected)
            if why:
                self.fail(job, f"CLI: {why}")


# -- oracle ----------------------------------------------------------------------


def _verdict(job, result):
    if job.call == "invert":
        return {"inverse": "injective", "not-injective": "not-injective"}.get(result.outcome, "undecided")
    if result.status == "injective":
        return "injective"
    if result.status == "not-injective" and result.certified:
        return "not-injective"
    return "undecided"


def _evaluate(p, X):
    return mateval.MatrixTuple(X.n, tuple(mateval.eval_poly(comp, X) for comp in p))


def _oracle(job, verdict, result, full):
    """Why the verdict is wrong, or None.  `full` also re-checks the input's
    collision witness and evaluates both compositions of an inverse."""
    if full and job.truth == "not-injective" and not mateval.collision_check(job.p, *job.witness):
        return "oracle: the collision witness does not collide"
    if verdict == "undecided":
        return "undecided, but the seed commit decides this job" if job.must_decide else None
    if verdict != job.truth:
        return f"wrong verdict: {verdict}, truth {job.truth}"
    if job.call == "invert" and verdict == "injective":
        q = tuple(result.q)
        if q != job.q_true:
            return "inverse differs from the known inverse"
        if full:
            X = job.point
            if _evaluate(job.p, _evaluate(q, X)) != X:
                return "p(q(X)) != X"
            if _evaluate(q, _evaluate(job.p, X)) != X:
                return "q(p(X)) != X"
    return None


def _cli_mismatch(code, stdout, expected):
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if data.get("outcome") != expected.outcome:
        return f"outcome {data.get('outcome')} != library {expected.outcome}"
    q = tuple(freeinv.parse_poly(text) for text in data.get("q", []))
    if q != tuple(expected.q) or data.get("iterations") != expected.iterations:
        return "inverse differs from the library's"
    return None


def import_time():
    code = "import time; t = time.perf_counter(); import freeinv.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=CLI_TIMEOUT_S, env=env, cwd=ROOT, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def traced_pass(run, workload, seed):
    """Per-layer metrics: an untraced pass, the traced pass, the CLI in process."""
    from tracer import Tracer

    untraced = run.run_pass(full=False)
    tracer = Tracer()
    tracer.install(freeinv)
    traced = []
    for idx, job in enumerate(run.jobs):
        tracer.job = f"{job.label} {job.call}"
        traced.append(run.attempt(idx, job, full=True))  # the oracle's mateval spans count
    run.cli_in_process(tracer)
    per_layer = tracer.metrics()
    per_layer["cli.import_s"] = import_time()
    ok = [(a, b) for a, b in zip(untraced, traced) if a is not None and b is not None]
    per_layer["trace.overhead_s"] = sum(b for _, b in ok) - sum(a for a, _ in ok)
    factor = run.timeline.factor()
    for name in per_layer:
        if name.endswith("_s"):
            per_layer[name] *= factor
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload}-seed{seed}.jsonl")
    return {"per_layer": per_layer, "missing_boundaries": tracer.missing}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", choices=("full", "verdict"), default="verdict")
    ap.add_argument("--cli-round", type=int, default=0, help="which maps of the CLI subset to time")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--fault", choices=("wrong-inverse",))
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _on_alarm)
    run = Run(args.workload, args.seed, args.toy, args.fault)
    for job in workloads.build("tame", 0, toy=True)[0][:2]:  # warm-up
        run.call(job)
    report = {"setup_s": time.perf_counter() - T0}

    if args.trace:
        report.update(traced_pass(run, args.workload, args.seed))
    else:
        start = time.perf_counter()
        times = run.run_pass(full=args.check == "full")
        report["pass_s"] = time.perf_counter() - start
        scaled = run.timeline.scaled()
        cli_s, cli_start_s = run.cli_subprocess(args.cli_round)
        report.update(
            calls=[job.call for job in run.jobs],
            job_s=[None if t is None else scaled[("job", i)] for i, t in enumerate(times)],
            job_raw_s=times,
            cli_s=cli_s,
            cli_start_s=cli_start_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    report.update(
        speed_factor=run.timeline.factor(),
        attempted=run.attempted,
        failed=run.failed,
        decided=run.decided,
        decisions=run.decisions,
        failures=run.failures[:20],
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
