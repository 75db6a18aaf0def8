"""Smoke self-test and one-command report of every workload.

    python3 perfbench/check.py [--seconds 1] [--seed 0]

Runs each workload through run.py once untraced and once traced, each in
its own process, at a tiny size by default.  It checks that every run
succeeds with no failed operation, that the result carries exactly the
metrics BENCHMARK.json names, each with its unit and the end-to-end ones
never 0, that the report line carries the workload's own figures,
and that the traced self times add up to no more than the traced wall time.
Then it prints every metric by name and unit, with the tracing overhead.
Exit code 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORTED = {
    "train_track": ("train_iter_ms_p50", "train_iter_ms_p95", "loss_end"),
    "train_mask": ("train_iter_ms_p50", "train_iter_ms_p95", "loss_end"),
    "infer_track": ("infer_ms_per_kdet_p50", "eval_ms_p50", "idf1", "mota", "loss_end"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(workload: str, trace: int, report: dict, result: dict, spec: dict) -> list[str]:
    bad = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        bad.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        bad.append(f"correct={result['correct']} attempted={result['attempted']} "
                   f"failed={result['failed']} problems={report['problems']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        bad.append(f"metric names or units differ from BENCHMARK.json: "
                   f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            bad.append(f"{name} is not a number")
        elif not trace and m["value"] == 0:
            bad.append(f"end-to-end metric {name} is 0")
    for name in REPORTED[workload]:
        if name not in report or "unit" not in report[name]:
            bad.append(f"report lacks {name} with its unit")
    if report["failed_frac"] != 0:
        bad.append(f"failed_frac {report['failed_frac']}")
    if trace:
        m = result["metrics"]
        self_sum = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
        if not self_sum <= m["trace.wall_s"]["value"]:
            bad.append(f"self times {self_sum} exceed wall time {m['trace.wall_s']['value']}")
    return bad


def show(workload: str, report: dict, results: dict) -> None:
    print(f"== {workload} ({report['op_unit']}; op_ms_p50 is that figure)")
    for name in REPORTED[workload]:
        entry = report[name]
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        print(f"  {name:<34} {entry['value']!s:<24} {entry['unit']:<8} {extra}")
    print(f"  {'failed_frac':<34} {report['failed_frac']!s:<24} ratio")
    for trace, result in results.items():
        print(f"  -- trace {trace}: attempted {result['attempted']}, failed {result['failed']}")
        for name, m in result["metrics"].items():
            if trace == 0 or m["value"]:
                print(f"  {name:<34} {m['value']!s:<24} {m['unit']}")
    m = results[1]["metrics"]
    print(f"  tracing overhead: op_ms_p50 {m['trace.untraced_op_ms_p50']['value']:.3f} ms "
          f"untraced -> {m['trace.op_ms_p50']['value']:.3f} ms traced "
          f"({100 * m['trace.overhead_frac']['value']:+.1f}%)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            report, results[trace] = run(workload, args.seed, args.seconds, trace)
            problems += [f"{workload} trace {trace}: {p}"
                         for p in check(workload, trace, report, results[trace], spec)]
            if trace == 0:
                untraced_report = report
        show(workload, untraced_report, results)
    for p in problems:
        print("FAIL", p)
    print("smoke self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
