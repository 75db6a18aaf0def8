"""Shared fixtures for the test suite.

The acceptance tests compare trained model variants on one benchmark
scenario family.  Training is deterministic given (seed, config, data), so
the models are trained lazily once per session and shared between tests.
"""

import time

import numpy as np
import pytest

from scoring import constraint_rate, gt_boxes_from_scenario, track_boxes

from mpnflow import tensorkit as tk
from mpnflow.graph import NodeTable, Partners, build_graph, split_windows, window_gap
from mpnflow.infer import InferConfig, run_inference, threshold
from mpnflow.metrics import idf1
from mpnflow.mpn import MpnConfig, mpn_forward
from mpnflow.synthdata import ScenarioConfig, generate_scenario
from mpnflow.train import TrainConfig, train_loop

def count_calls(monkeypatch, cls, name):
    """The instances that method cls.name is called on, in call order, from
    now until the test ends."""
    calls = []
    method = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(self) or method(self, *args))
    return calls


def graph_over(detections, max_frame_gap, top_k):
    """The graph of all the detections, cut from their own ranking at
    max_frame_gap, as for a window that is its whole table."""
    table = NodeTable.from_detections(detections)
    return build_graph(table, Partners(table, max_frame_gap), top_k)


# benchmark geometry shared by training, validation, and inference
FRAMES_PER_GRAPH = 15
TOP_K = 10
MAX_FRAME_GAP = 5

BENCH_ITERATIONS = 600
BENCH_SEEDS = (0, 1, 2)
BENCH_TRAIN_SCENARIO_SEEDS = (100, 101)
BENCH_VAL_SCENARIO_SEEDS = (200, 201, 202)

MASK_ITERATIONS = 800
MASK_TRAIN_SCENARIO_SEEDS = (300, 301, 302, 304)
MASK_VAL_SCENARIO_SEEDS = (400, 401)


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


MODEL_KINDS = {
    "time_aware": MpnConfig(num_steps=2, variant="time_aware"),
    "vanilla": MpnConfig(num_steps=2, variant="vanilla"),
    "depth0": MpnConfig(num_steps=0, variant="time_aware"),
    "attentive": MpnConfig(num_steps=2, variant="time_aware", with_masks=True),
}


class ModelBank:
    """Lazy cache of trained benchmark models, one list per variant."""

    def __init__(self):
        self.train_scenarios = [generate_scenario(bench_scenario_config(s))
                                for s in BENCH_TRAIN_SCENARIO_SEEDS]
        self.val_scenarios = [generate_scenario(bench_scenario_config(s))
                              for s in BENCH_VAL_SCENARIO_SEEDS]
        self._models = {}

    def get(self, kind: str) -> list:
        """Parameters for `kind`, trained once per seed in BENCH_SEEDS."""
        if kind not in self._models:
            mpn_cfg = MODEL_KINDS[kind]
            models = []
            for seed in BENCH_SEEDS:
                cfg = TrainConfig(iterations=BENCH_ITERATIONS,
                                  frames_per_graph=FRAMES_PER_GRAPH,
                                  top_k=TOP_K, max_frame_gap=MAX_FRAME_GAP,
                                  seed=seed)
                params, _ = train_loop(self.train_scenarios, cfg, mpn_cfg)
                models.append(params)
            self._models[kind] = models
        return self._models[kind]

    def validation_windows(self, params) -> list:
        """(graph, thresholded labels) for every validation window."""
        pairs = []
        for sc in self.val_scenarios:
            nodes = NodeTable.from_detections(sc)
            partners = Partners(nodes, window_gap(MAX_FRAME_GAP, FRAMES_PER_GRAPH))
            for rows in split_windows(sc, FRAMES_PER_GRAPH):
                if len(rows) < 2:
                    continue
                g = build_graph(nodes.take(rows), partners, TOP_K)
                if g.num_edges == 0:
                    continue
                with tk.no_grad():
                    state = mpn_forward(g, params)
                pairs.append((g, threshold(state.final_probs(), 0.5)))
        return pairs

    def satisfaction(self, params) -> float:
        """Constraint satisfaction (%) of thresholded validation output."""
        return constraint_rate(self.validation_windows(params))

    def mean_idf1(self, params) -> float:
        """IDF1 of end-to-end inference, averaged over validation scenarios."""
        vals = []
        for sc in self.val_scenarios:
            sol = run_inference(sc, params,
                                InferConfig(frames_per_graph=FRAMES_PER_GRAPH, top_k=TOP_K,
                                            max_frame_gap=MAX_FRAME_GAP))
            vals.append(idf1(gt_boxes_from_scenario(sc), track_boxes(sol.tracks)))
        return float(np.mean(vals))


@pytest.fixture(scope="session")
def model_bank():
    return ModelBank()


@pytest.fixture(scope="session")
def mask_setup():
    """Scenarios plus one trained mask-enabled model for the shape benchmark."""
    train_scens = [generate_scenario(mask_scenario_config(s))
                   for s in MASK_TRAIN_SCENARIO_SEEDS]
    val_scens = [generate_scenario(mask_scenario_config(s))
                 for s in MASK_VAL_SCENARIO_SEEDS]
    cfg = TrainConfig(iterations=MASK_ITERATIONS,
                      frames_per_graph=FRAMES_PER_GRAPH, top_k=TOP_K,
                      max_frame_gap=MAX_FRAME_GAP, seed=0)
    mpn_cfg = MpnConfig(num_steps=2, variant="time_aware", with_masks=True)
    t0 = time.monotonic()
    params, _ = train_loop(train_scens, cfg, mpn_cfg)
    return val_scens, params, time.monotonic() - t0


ACCEPTANCE_RESULTS = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")
