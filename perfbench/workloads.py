"""The three benchmark workloads and the correctness checks on their outputs.

Each workload derives every scenario seed from one workload seed; seed 0
reproduces the seeds of the test suite's shared fixtures.  The scenario
configs are copied here so that an edit to the tests cannot move the
benchmark.  A workload is set up with `setup()` (repeatable, timed from
outside) and then run unit by unit with `run_unit()`; it accumulates its own
timing samples, operation counts and failures.  Calls go through module
attributes (`train.train_loop`, `cli.main`, ...) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from mpnflow import cli, graph, infer, synthdata, train
from mpnflow.mpn import MpnConfig
from mpnflow.synthdata import ScenarioConfig
from mpnflow.train import TrainConfig

FRAMES_PER_GRAPH = 15
TOP_K = 10
MAX_FRAME_GAP = 5
SEED_STRIDE = 1000

TRACK_SCENARIO_SEEDS = (100, 101)
MASK_SCENARIO_SEEDS = (300, 301, 302, 304)
INFER_SCENARIO_SEEDS = (200, 201, 202)

# fixed run lengths: loss_end and the parameter fingerprint belong to a run
# of exactly this many iterations, whatever the measuring time
TRACK_ITERATIONS = 150
MASK_ITERATIONS = 50
# infer_track trains its checkpoint in every set-up, so it is kept short
CHECKPOINT_ITERATIONS = 60

# the tests' `time_aware` model and its mask-branch variant
TRACK_MODEL = MpnConfig(num_steps=2, variant="time_aware")
MASK_MODEL = MpnConfig(num_steps=2, variant="time_aware", with_masks=True)

# a p95 is reported only with at least ten samples above it
P95_MIN_SAMPLES = 200


def bench_scenario_config(seed: int) -> ScenarioConfig:
    """Tracking benchmark: 6 identities over 200 frames with dropout 0.1."""
    return ScenarioConfig(num_frames=200, num_identities=6, image_width=256.0,
                          image_height=256.0, speed_max=3.0, pos_noise_std=1.5,
                          detection_dropout=0.1, false_positive_rate=0.2,
                          box_jitter_std=0.5, box_size_min=16.0,
                          box_size_max=40.0, d_app=8, app_noise_std=0.6,
                          roi_noise_std=0.6, mask_fill_min=0.35, seed=seed)


def mask_scenario_config(seed: int) -> ScenarioConfig:
    """Shape-rendering benchmark: easy association, masks do the work."""
    return ScenarioConfig(num_frames=80, num_identities=4, image_width=200.0,
                          image_height=200.0, speed_max=2.0, pos_noise_std=1.0,
                          detection_dropout=0.05, false_positive_rate=0.1,
                          box_jitter_std=0.3, box_size_min=20.0,
                          box_size_max=48.0, d_app=8, app_noise_std=0.25,
                          roi_noise_std=0.3, mask_fill_min=0.6, seed=seed)


def derive_seeds(bases, seed: int) -> list[int]:
    return [b + SEED_STRIDE * seed for b in bases]


def train_config(iterations: int, seed: int) -> TrainConfig:
    return TrainConfig(iterations=iterations, frames_per_graph=FRAMES_PER_GRAPH,
                       top_k=TOP_K, max_frame_gap=MAX_FRAME_GAP, graphs_per_step=1,
                       seed=seed, checkpoint_every=1)


def params_sha256(params) -> str:
    h = hashlib.sha256()
    for name, p in params.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def loss_problems(history, first_k: int) -> tuple[float, list[str]]:
    """loss_end (mean total loss of the last first_k iterations) and the
    problems found: a non-finite loss, or no decrease from the first ones."""
    losses = [r.total for r in history]
    problems = []
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite training loss")
    first = statistics.fmean(losses[:first_k])
    end = statistics.fmean(losses[-first_k:])
    if not end < first:
        problems.append(f"loss_end {end!r} is not below the first-iterations mean {first!r}")
    return end, problems


def mean_or_none(values: list[float]) -> float | None:
    # None when every round trip failed before its outputs could be read
    return statistics.fmean(values) if values else None


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, n: int, problems: list[str]) -> None:
        self.attempted += n
        if problems:
            self.failed += n
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# training workloads: one operation is one train_loop iteration

class TrainWorkload:
    """Fixed-length train_loop runs, repeated until the time is spent.

    Iterations are timed from outside through the public snapshot callback
    (checkpoint_every=1; the callback saves nothing).  Every repeat must
    end in bit-identical parameters.
    """

    op_unit = "ms per training iteration"

    def __init__(self, make_config, bases, mpn_cfg: MpnConfig, iterations: int, seed: int):
        self.make_config = make_config
        self.bases = bases
        self.mpn_cfg = mpn_cfg
        self.iterations = iterations
        self.seed = seed
        self.tally = Tally()
        self.iter_ms: list[float] = []
        self.fingerprint = None
        self.loss_end = None
        self.scenarios = None

    def setup(self) -> None:
        self.scenarios = [synthdata.generate_scenario(self.make_config(s))
                          for s in derive_seeds(self.bases, self.seed)]

    def run_unit(self, pause) -> None:
        stamps = []
        cfg = train_config(self.iterations, self.seed)
        try:
            params, history = train.train_loop(
                self.scenarios, cfg, self.mpn_cfg,
                snapshot=lambda it, p: stamps.append(time.perf_counter()))
        except Exception:
            traceback.print_exc()
            self.tally.record(self.iterations, ["train_loop raised"])
            return
        with pause():
            loss_end, problems = loss_problems(history, self.iterations // 5)
            fp = params_sha256(params)
        if self.fingerprint is None:
            self.fingerprint, self.loss_end = fp, loss_end
        elif (fp, loss_end) != (self.fingerprint, self.loss_end):
            problems.append("repeat did not reproduce the first repeat bit for bit")
        # the first interval would include train_loop's own set-up
        self.iter_ms.extend(1e3 * d for d in np.diff(stamps))
        self.tally.record(self.iterations, problems)

    def ops(self) -> int:
        return self.tally.attempted

    def reset_timing(self) -> None:
        self.iter_ms = []

    def op_ms_p50(self) -> float:
        return statistics.median(self.iter_ms)

    def report(self) -> dict:
        n = len(self.iter_ms)
        return {
            "train_iter_ms_p50": {"value": statistics.median(self.iter_ms) if n else None,
                                  "unit": "ms",
                                  "samples": n},
            "train_iter_ms_p95": {"value": float(np.percentile(self.iter_ms, 95))
                                  if n >= P95_MIN_SAMPLES else None,
                                  "unit": "ms", "samples": n},
            "loss_end": {"value": self.loss_end, "unit": "nat",
                         "iterations": self.iterations, "last": self.iterations // 5},
            "params_sha256": self.fingerprint,
        }


def train_track(seed: int, work: Path) -> TrainWorkload:
    return TrainWorkload(bench_scenario_config, TRACK_SCENARIO_SEEDS, TRACK_MODEL,
                         TRACK_ITERATIONS, seed)


def train_mask(seed: int, work: Path) -> TrainWorkload:
    return TrainWorkload(mask_scenario_config, MASK_SCENARIO_SEEDS, MASK_MODEL,
                         MASK_ITERATIONS, seed)


# ---------------------------------------------------------------------------
# inference workload: one operation is `mpnflow infer` then `mpnflow eval`
# on one sequence directory, both in-process through cli.main

@dataclass
class Sequence:
    path: Path
    detections: list
    infer_ms_per_kdet: list[float] = field(default_factory=list)
    eval_ms: list[float] = field(default_factory=list)
    first: tuple | None = None          # (edges hash, idf1, mota) of the first run


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_edges(path: Path) -> tuple[list[tuple[int, int]], list[int], str]:
    """Pairs, rounded labels and the SHA-256 of the src,dst,prob columns."""
    pairs, labels = [], []
    h = hashlib.sha256()
    with open(path) as fh:
        if fh.readline().strip() != "src,dst,prob,label":
            raise ValueError(f"{path}: unexpected header")
        for line in fh:
            head, label = line.strip().rsplit(",", 1)
            src, dst, _ = head.split(",")
            pairs.append((int(src), int(dst)))
            labels.append(int(label))
            h.update(head.encode() + b"\n")
    return pairs, labels, h.hexdigest()


def read_report(path: Path) -> dict[str, float]:
    with open(path) as fh:
        if fh.readline().strip() != "metric,value":
            raise ValueError(f"{path}: unexpected header")
        return {k: float(v) for k, v in (line.strip().split(",") for line in fh)}


class InferWorkload:
    """Round trips over every sequence; one unit is one pass over all three."""

    op_unit = "ms of mpnflow infer per 1000 detections"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.tally = Tally()
        self.sequences: list[Sequence] = []
        self.checkpoint = None
        self.checkpoint_sha = None
        self.loss_end = None

    def setup(self) -> None:
        root = self.work / "setup"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        config = root / "config.json"
        config.write_text(json.dumps({"scenario": asdict(bench_scenario_config(0))}))
        sequences = []
        for s in derive_seeds(INFER_SCENARIO_SEEDS, self.seed):
            path = root / f"seq_{s}"
            if _cli(["generate", "--out", str(path), "--config", str(config),
                     "--seed", str(s)]) != 0:
                raise RuntimeError(f"mpnflow generate failed for seed {s}")
            sequences.append(Sequence(path, synthdata.load_mot_detections(path / "det.txt")))
        scenarios = [synthdata.generate_scenario(bench_scenario_config(s))
                     for s in derive_seeds(TRACK_SCENARIO_SEEDS, self.seed)]
        cfg = train_config(CHECKPOINT_ITERATIONS, self.seed)
        params, history = train.train_loop(scenarios, cfg, TRACK_MODEL)
        loss_end, problems = loss_problems(history, CHECKPOINT_ITERATIONS // 5)
        if problems:
            raise RuntimeError("checkpoint training: " + "; ".join(problems))
        checkpoint = root / "checkpoint.json"
        params.save(checkpoint)
        sha = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
        if self.checkpoint_sha not in (None, sha):
            raise RuntimeError("repeated set-up wrote a different checkpoint")
        self.sequences, self.checkpoint = sequences, checkpoint
        self.checkpoint_sha, self.loss_end = sha, loss_end

    def run_unit(self, pause) -> None:
        for seq in self.sequences:
            out = self.work / "out" / seq.path.name
            try:
                t0 = time.perf_counter()
                rc_infer = _cli(["infer", "--data", str(seq.path),
                                 "--checkpoint", str(self.checkpoint), "--out", str(out),
                                 "--frames-per-graph", str(FRAMES_PER_GRAPH),
                                 "--top-k", str(TOP_K), "--max-frame-gap", str(MAX_FRAME_GAP),
                                 "--rounder", "exact", "--threads", "1"])
                t1 = time.perf_counter()
                rc_eval = _cli(["eval", "--data", str(seq.path), "--run", str(out)])
                t2 = time.perf_counter()
                with pause():
                    problems = self._check(seq, out, rc_infer, rc_eval)
            except Exception:
                traceback.print_exc()
                self.tally.record(1, [f"{seq.path.name}: round trip raised"])
                continue
            seq.infer_ms_per_kdet.append(1e3 * (t1 - t0) / (len(seq.detections) / 1e3))
            seq.eval_ms.append(1e3 * (t2 - t1))
            self.tally.record(1, problems)

    def _check(self, seq: Sequence, out: Path, rc_infer: int, rc_eval: int) -> list[str]:
        name = seq.path.name
        if rc_infer != 0 or rc_eval != 0:
            return [f"{name}: infer exited {rc_infer}, eval exited {rc_eval}"]
        problems = []
        pairs, labels, edges_sha = read_edges(out / "edges.csv")
        union = graph.graph_from_edge_list(seq.detections, pairs)
        by_pair = dict(zip(pairs, labels))
        y = np.asarray([by_pair[p] for p in union.edge_pairs()], dtype=np.int64)
        if infer.check_constraints(union, y).rate != 1.0:
            problems.append(f"{name}: rounded labels violate the degree constraints")
        report = read_report(out / "report.csv")
        seen = (edges_sha, report["idf1"], report["mota"])
        if not all(math.isfinite(v) for v in seen[1:]):
            problems.append(f"{name}: non-finite idf1 or mota")
        if seq.first is None:
            seq.first = seen
        elif seen != seq.first:
            problems.append(f"{name}: repeat did not reproduce the first round trip")
        return problems

    def ops(self) -> int:
        return self.tally.attempted

    def reset_timing(self) -> None:
        for seq in self.sequences:
            seq.infer_ms_per_kdet, seq.eval_ms = [], []

    def op_ms_p50(self) -> float:
        # mean of per-sequence medians, so each sequence weighs the same
        return statistics.fmean(statistics.median(s.infer_ms_per_kdet)
                                for s in self.sequences)

    def report(self) -> dict:
        seqs = self.sequences
        firsts = [s.first for s in seqs if s.first is not None]
        return {
            "infer_ms_per_kdet_p50": {"value": self.op_ms_p50(), "unit": "ms",
                                      "samples": [len(s.infer_ms_per_kdet) for s in seqs]},
            "eval_ms_p50": {"value": statistics.fmean(statistics.median(s.eval_ms)
                                                      for s in seqs),
                            "unit": "ms", "samples": [len(s.eval_ms) for s in seqs]},
            "idf1": {"value": mean_or_none([f[1] for f in firsts]), "unit": "ratio",
                     "per_sequence": [f[1] for f in firsts]},
            "mota": {"value": mean_or_none([f[2] for f in firsts]), "unit": "ratio",
                     "per_sequence": [f[2] for f in firsts]},
            "detections": [len(s.detections) for s in seqs],
            "edges_sha256": [f[0] for f in firsts],
            "loss_end": {"value": self.loss_end, "unit": "nat",
                         "iterations": CHECKPOINT_ITERATIONS,
                         "last": CHECKPOINT_ITERATIONS // 5},
            "checkpoint_sha256": self.checkpoint_sha,
        }


def infer_track(seed: int, work: Path) -> InferWorkload:
    return InferWorkload(seed, work)


WORKLOADS = {"train_track": train_track, "train_mask": train_mask,
             "infer_track": infer_track}
