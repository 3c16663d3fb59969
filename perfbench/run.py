#!/usr/bin/env python3
"""The freeinv benchmark: time to a certified verdict, end to end and per layer.

    python3 perfbench/run.py --workload tame --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Each pass over the workload runs in a fresh
child process (worker.py) under an address-space limit; passes repeat until
the next one would end past `--seconds` (at least MIN_PASSES).  Per-call
times are medians over passes and `setup_s` is the median set-up time of the
passes' processes, all scaled to a reference host speed (calibrate.py).
Every verdict is checked by an oracle that shares no code with the program.
With `--trace 1` one process makes an untraced and a traced pass and reports
the per-layer metrics instead.

The report goes to stdout: a readable summary, then one JSON line with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json, or with `--trace 1` its per-layer metrics).  Any wrong
verdict, failed job or killed process makes the exit code 1.  See
perfbench/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import STARTUP_NOMINAL_S, startup_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("tame", "negative")
AS_LIMIT_BYTES = 1 << 30  # the largest workload peaks near 60 MB resident
MIN_PASSES = 3  # one pass per process, so per-process speed differences average out
RUN_BUDGET_S = 170  # the whole run stays under 180 s
UNITS = {
    "invert_s": "s", "inj_s": "s", "invert_p50_ms": "ms", "invert_p90_ms": "ms", "inj_p50_ms": "ms",
    "inj_p90_ms": "ms", "cli_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
    "decided_ratio": "1", "fail_ratio": "1",
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def child(args, extra, timeout):
    """Run one worker; return its JSON report, or None when it died or timed out."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    if args.toy:
        cmd.append("--toy")
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              cwd=ROOT, preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} worker killed after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {args.workload} worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quantile(values, q):
    """Inclusive linear-interpolation quantile; NaN when every job failed."""
    if not values:
        return float("nan")
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def decision_metrics(reports, key="job_s"):
    """invert_s .. inj_p90_ms from the per-job medians over passes."""
    calls = reports[0]["calls"]
    medians = {"invert": [], "inj": []}
    for idx, call in enumerate(calls):
        samples = [r[key][idx] for r in reports if r[key][idx] is not None]
        if samples:
            medians[call].append(statistics.median(samples))
    inv, inj = medians["invert"], medians["inj"]
    return {
        "invert_s": sum(inv),
        "inj_s": sum(inj),
        "invert_p50_ms": 1e3 * quantile(inv, 0.5),
        "invert_p90_ms": 1e3 * quantile(inv, 0.9),
        "inj_p50_ms": 1e3 * quantile(inj, 0.5),
        "inj_p90_ms": 1e3 * quantile(inj, 0.9),
    }, (len(inv), len(inj))


def run_passes(args):
    """Start pass processes until the next would end past --seconds; each
    report gets `start_s`, a bare interpreter start timed just before it."""
    reports = []
    start = time.perf_counter()
    while True:
        extra = ["--cli-round", str(len(reports))] + (["--check", "full"] if not reports else [])
        started = time.perf_counter()
        interpreter_start = startup_reference(None, ROOT)
        report = child(args, extra, RUN_BUDGET_S - (started - start))
        if report is None:
            return reports, False
        report["start_s"] = interpreter_start
        reports.append(report)
        now = time.perf_counter()
        if report["failed"] or now - start + (now - started) > RUN_BUDGET_S - 30:
            return reports, True
        if len(reports) >= MIN_PASSES and now - start + (now - started) > args.seconds:
            return reports, True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for perfbench/selftest.py")
    ap.add_argument("--fault", choices=("wrong-inverse",), help="corrupt answers, for perfbench/selftest.py")
    args = ap.parse_args()

    if not (ROOT / "src" / "freeinv" / "__init__.py").is_file():
        print(f"error: no freeinv sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    if args.trace:
        report = child(args, [], RUN_BUDGET_S)
        reports, finished = ([report], True) if report else ([], False)
    else:
        reports, finished = run_passes(args)
    if not finished:
        print(json.dumps({"correct": False, "attempted": 1 + sum(r["attempted"] for r in reports),
                          "failed": 1 + sum(r["failed"] for r in reports), "metrics": {}}))
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    shown = {
        "decided_ratio": sum(r["decided"] for r in reports) / sum(r["decisions"] for r in reports),
        "fail_ratio": failed / attempted,
    }
    if args.trace:
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": report["per_layer"][name], "unit": unit} for name, unit in units.items()}
        print(f"{args.workload} seed {args.seed}, traced; times at reference speed "
              f"(speed factor {report['speed_factor']:.4f})")
        if report["missing_boundaries"]:
            print("  boundaries not found (their metrics read 0):", ", ".join(report["missing_boundaries"]))
    else:
        values, (n_inv, n_inj) = decision_metrics(reports)
        raw, _ = decision_metrics(reports, "job_raw_s")
        cli = [t for r in reports for t in r["cli_s"]]
        starts = [t for r in reports for t in r["cli_start_s"]]
        raw["cli_p50_ms"] = 1e3 * quantile(cli, 0.5)
        values["cli_p50_ms"] = raw["cli_p50_ms"] * STARTUP_NOMINAL_S / quantile(starts, 0.5)
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reports)
        raw["setup_s"] = statistics.median(r["setup_s"] for r in reports)
        values["setup_s"] = raw["setup_s"] * STARTUP_NOMINAL_S / statistics.median(r["start_s"] for r in reports)
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        print(f"{args.workload} seed {args.seed}: {len(reports)} passes, one per process, over {n_inv} invert and "
              f"{n_inj} injectivity_test jobs; percentiles over per-job medians; "
              f"{len(cli)} CLI calls; set-up median of {len(reports)}")
        print("  call times at reference speed (calibrate.py); speed factors "
              + ", ".join(f"{r['speed_factor']:.3f}" for r in reports)
              + "; as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, value in {**{k: m["value"] for k, m in metrics.items()}, **shown}.items():
        unit = metrics[name]["unit"] if name in metrics else UNITS[name]
        print(f"  {name:32s} {value:14.6g} {unit}")
    for r in reports:
        for line in r["failures"]:
            print(f"  FAILED {line}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
