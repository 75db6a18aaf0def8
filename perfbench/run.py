"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports mpnflow from `src/`, sets the
workload up several times (timed), then repeats whole units of work until
`--seconds` have passed.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it wraps every public function of the package
(see tracer.py) and reports the per-layer metrics instead, after measuring
the same work untraced first so the tracing overhead is part of the result.
The last line of standard output is one JSON object; the line before it is
a JSON report with per-workload figures, fingerprints and environment.
"""

import os

# pinned before numpy loads: BLAS threads would add noise, not speed, here
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mpnflow  # noqa: E402
from mpnflow import tensorkit as tk  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated at least this often and for at least this long; the
# median is reported
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# share of --seconds a traced run spends measuring the same work untraced
UNTRACED_SHARE = 1 / 3

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}

SELF_TIMED = (
    "graph.build_graph", "graph.ground_truth_labels", "graph.graph_from_edge_list",
    "train.augment", "train.joint_loss",
    "infer.run_inference", "infer.merge_windows", "infer.exact_round",
    "infer.extract_trajectories",
    "mpn.mpn_forward", "mpn.edge_feature_matrix", "mpn.predict_masks",
    "tensorkit.rows", "tensorkit.segment_sum", "tensorkit.backward", "tensorkit.adam_step",
    "tensorkit.conv2d", "tensorkit.load_checkpoint",
    "synthdata.load_mot_detections", "synthdata.attach_embeddings", "synthdata.load_tracks",
    "metrics.clear_mot", "metrics.idf1", "cli.cmd_infer", "cli.cmd_eval",
)
# inclusive time, for functions whose work runs in the functions they call
INCLUSIVE = ("mpn.mpn_forward", "mpn.predict_masks", "infer.run_inference", "cli.cmd_infer",
             "cli.cmd_eval")
CALL_COUNTED = ("graph.build_graph", "mpn.mpn_forward", "tensorkit.conv2d")
PER_OP_COUNTS = ("graph.nodes", "graph.edges", "infer.windows", "infer.union_edges",
                 "infer.violations_pre_round", "infer.edges_flipped")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s/op" for name in SELF_TIMED}
    units["synthdata.generate_scenario.self_s"] = "s/setup"
    units.update({f"{name}.total_s": "s/op" for name in INCLUSIVE})
    units.update({f"{layer}.self_s": "s/op" for layer in tr.LAYERS})
    units.update({f"{name}.calls": "count/op" for name in CALL_COUNTED})
    units.update({name: "count/op" for name in PER_OP_COUNTS})
    units.update({
        "train.sample_yield": "ratio",
        "infer.frame_visits_per_frame": "ratio",
        "tensorkit.conv2d.gflop": "GFLOP/op",
        "tensorkit.conv2d.mb": "MB/op",
        "tensorkit.conv2d.floor_ratio": "ratio",
        "trace.wall_s": "s/op",
        "trace.op_ms_p50": "ms",
        "trace.untraced_op_ms_p50": "ms",
        "trace.overhead_frac": "ratio",
    })
    return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seconds: float, pause=contextlib.nullcontext) -> tuple[int, float]:
    """Run whole units until `seconds` have passed; (operations, wall s)."""
    ops0 = workload.ops()
    t0 = time.perf_counter()
    while True:
        workload.run_unit(pause)
        wall = time.perf_counter() - t0
        if wall >= seconds:
            return workload.ops() - ops0, wall


def untraced_run(workload, seconds: float) -> tuple[dict, dict]:
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    measure(workload, seconds)
    values = {"setup_s": statistics.median(setup_s), "op_ms_p50": workload.op_ms_p50(),
              "peak_rss_mb": peak_rss_mb()}
    return values, {"setup_s_samples": setup_s}


@contextlib.contextmanager
def tracing(tracer):
    undo = tr.install(tracer)
    tracer.on = True
    try:
        yield
    finally:
        tracer.on = False
        tr.uninstall(undo)


def traced_run(workload, seconds: float) -> tuple[dict, dict]:
    setup_tracer = tr.Tracer()
    with tracing(setup_tracer):
        workload.setup()
    measure(workload, seconds * UNTRACED_SHARE)
    untraced_p50 = workload.op_ms_p50()
    workload.reset_timing()

    t = tr.Tracer()
    with tracing(t):
        ops, wall = measure(workload, seconds * (1 - UNTRACED_SHARE), t.paused)
    traced_p50 = workload.op_ms_p50()

    values = {f"{name}.self_s": t.self_s[name] / ops for name in SELF_TIMED}
    values["synthdata.generate_scenario.self_s"] = \
        setup_tracer.self_s["synthdata.generate_scenario"]
    values.update({f"{name}.total_s": t.total_s[name] / ops for name in INCLUSIVE})
    values.update({f"{layer}.self_s": t.layer_self_s(layer) / ops for layer in tr.LAYERS})
    values.update({f"{name}.calls": t.calls[name] / ops for name in CALL_COUNTED})
    values.update({name: t.counts[name] / ops for name in PER_OP_COUNTS})
    built = t.calls["graph.build_graph"]
    values["train.sample_yield"] = t.calls["graph.ground_truth_labels"] / built if built else 0.0
    frames = t.counts["infer.frames"]
    values["infer.frame_visits_per_frame"] = t.counts["infer.frames_visited"] / frames \
        if frames else 0.0
    gflop, mb = tr.conv2d_work(t.conv_shapes)
    values["tensorkit.conv2d.gflop"] = gflop / ops
    values["tensorkit.conv2d.mb"] = mb / ops
    floor_s = tr.conv2d_gemm_floor_s(t.conv_shapes)
    values["tensorkit.conv2d.floor_ratio"] = t.self_s["tensorkit.conv2d"] / floor_s \
        if floor_s else 0.0
    values.update({
        "trace.wall_s": wall / ops,
        "trace.op_ms_p50": traced_p50,
        "trace.untraced_op_ms_p50": untraced_p50,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
    })
    info = {"traced_ops": ops, "traced_wall_s": wall,
            "conv2d_gemm_floor_s": floor_s, "conv2d_distinct_shapes": len(t.conv_shapes)}
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mpnflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    src = (ROOT / "src").resolve()
    if src not in Path(mpnflow.__file__).resolve().parents:
        print(f"error: mpnflow was imported from {mpnflow.__file__}, not {src}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        grad_on_before = tk.grad_enabled()
        run = traced_run if args.trace else untraced_run
        values, info = run(workload, args.seconds)
        grad_on_after = tk.grad_enabled()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    tally = workload.tally
    problems = list(tally.problems)
    failed = tally.failed
    if not (grad_on_before and grad_on_after):
        # grad mode off would turn every later training step into a no-op
        problems.append(f"grad mode before/after: {grad_on_before}/{grad_on_after}")
        failed = tally.attempted
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op_unit": workload.op_unit,
        "failed_frac": failed / tally.attempted if tally.attempted else 1.0,
        "problems": problems[:20], **info, **workload.report(),
        "environment": environment(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
