#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, at toy size:

    python3 perfbench/selftest.py

Checks that, for every workload, every end-to-end metric of BENCHMARK.json
prints with its unit (and the summary shows decided_ratio and fail_ratio),
that two traced runs print every per-layer metric with identical counts, that
a deliberately wrong inverse makes fail_ratio positive and the exit code 1,
that the benchmark fails without printing a result where there are no
sources, and that the input generator reproduces the tame maps of
tests/tame.py (when that file exists).  Exits 1 on any failed check.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tame", "negative")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(*args, root=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--toy", *args],
                          capture_output=True, text=True, cwd=root, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines[:-1], result


def summary_value(lines, name, unit):
    for line in lines:
        m = re.fullmatch(rf"\s+{re.escape(name)}\s+(\S+)\s+{re.escape(unit)}", line)
        if m:
            return float(m.group(1))
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    counts = [name for name, unit in layer.items() if unit == "count"]

    for wl in WORKLOADS:
        code, lines, res = run("--workload", wl, "--trace", "0")
        check(code == 0 and res is not None and res["correct"] and res["failed"] == 0, f"{wl}: correct, exit 0")
        units = {k: v["unit"] for k, v in res["metrics"].items()} if res else {}
        check(units == e2e, f"{wl}: every end-to-end metric in the JSON line, with its unit")
        shown = dict(e2e, decided_ratio="1", fail_ratio="1")
        check(all(summary_value(lines, n, u) is not None for n, u in shown.items()),
              f"{wl}: every end-to-end metric, decided_ratio and fail_ratio in the summary")
        check(summary_value(lines, "fail_ratio", "1") == 0, f"{wl}: fail_ratio is 0")

        traced = [run("--workload", wl, "--trace", "1") for _ in range(2)]
        check(all(c == 0 and r is not None and r["correct"] for c, _, r in traced), f"{wl}: traced runs correct")
        if all(r is not None for _, _, r in traced):
            check(all({k: v["unit"] for k, v in r["metrics"].items()} == layer for _, _, r in traced),
                  f"{wl}: every per-layer metric, with its unit")
            first, second = ({k: r["metrics"][k]["value"] for k in counts} for _, _, r in traced)
            check(first == second, f"{wl}: counts repeat exactly across two traced runs")
            check(first["scalars.mul_ops"] > 0 and first["sysolve.step_calls"] > 0, f"{wl}: counts are recorded")

    code, lines, res = run("--workload", "tame", "--trace", "0", "--fault", "wrong-inverse")
    check(code == 1 and res is not None and not res["correct"] and res["failed"] > 0,
          "a wrong inverse fails the run with exit code 1")
    check((summary_value(lines, "fail_ratio", "1") or 0) > 0, "a wrong inverse makes fail_ratio positive")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, res = run("--workload", "tame", "--trace", "0", root=bare)
    check(code != 0 and res is None, "without sources: non-zero exit and no result")
    shutil.rmtree(bare)

    if (ROOT / "tests" / "tame.py").is_file():
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
        from tame import random_tame_pair

        import workloads

        rng = random.Random(workloads.TAME_STREAM_SEED)
        same = True
        for p, q in workloads.tame_corpus(workloads.TAME_MAPS):
            p_ref, q_ref = random_tame_pair(rng)
            same &= tuple(map(workloads.to_freepoly, p)) == p_ref and tuple(map(workloads.to_freepoly, q)) == q_ref
        check(same, f"the tame corpus equals the first {workloads.TAME_MAPS} maps of tests/tame.py at seed 8")
    else:
        print("skip  tests/tame.py not found")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
