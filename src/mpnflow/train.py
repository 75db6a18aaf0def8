"""Loss functions, graph augmentation, and the training loop.

Each step samples one frame window from one scenario, augments it with node
dropout and box jitter, rebuilds the graph and its labels, and descends the
joint objective: positive-weighted edge cross-entropy over the last m
message passing steps, plus mean per-pixel mask cross-entropy when masks
are enabled.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import tensorkit as tk
from .errors import ConfigError, TrainingError, check_at_least, check_finite_sign, check_in
from .graph import (NodeTable, Partners, build_graph, check_window_options, ground_truth_labels,
                    split_windows, window_gap)
from .mpn import ModelParams, MpnConfig, mpn_forward, predict_masks
from .synthdata import ScenarioConfig, generate_scenario

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    iterations: int = 500
    lr: float = 3e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    frames_per_graph: int = 15
    top_k: int = 10
    max_frame_gap: int | None = None     # None: no limit within a window
    node_drop_p: float = 0.05
    box_shift_std: float = 1.0
    graphs_per_step: int = 1
    seed: int = 0
    checkpoint_every: int = 0            # 0 disables periodic snapshots

    def validate(self) -> None:
        check_at_least("iterations", self.iterations, 1)
        for name in ("lr", "weight_decay", "box_shift_std"):
            check_finite_sign(name, getattr(self, name))
        for name in ("beta1", "beta2"):
            check_in(name, getattr(self, name), 0, 1, open_high=True)
        check_in("node_drop_p", self.node_drop_p, 0, 1)
        check_window_options(self.frames_per_graph, self.max_frame_gap, self.top_k)
        check_at_least("graphs_per_step", self.graphs_per_step, 1)
        check_at_least("seed", self.seed, 0)
        check_at_least("checkpoint_every", self.checkpoint_every, 0)


@dataclass
class LossReport:
    iteration: int
    edge: float
    mask: float
    total: float


def _step_mean(terms: list[tk.Tensor]) -> tk.Tensor:
    """The mean of per-step losses: a left-to-right sum, times 1 / count."""
    return tk.mul(functools.reduce(tk.add, terms), 1.0 / len(terms))


def edge_loss(probs_by_step: dict[int, tk.Tensor], y: np.ndarray) -> tk.Tensor:
    """Positive-weighted binary cross-entropy averaged over the recorded steps.

    The positive weight is edges/positives for this graph.  A graph with no
    positive edge has no positive term, and a warning says so.
    """
    if not probs_by_step:
        raise ConfigError("edge_loss needs at least one recorded step")
    steps = sorted(probs_by_step)
    y = np.asarray(y, dtype=np.float64)
    n_edges = y.size
    if n_edges == 0:
        raise ConfigError("edge_loss needs at least one edge")
    n_pos = float(y.sum())
    if n_pos > 0:
        pos_coef = n_edges / n_pos * y
    else:
        log.warning("graph has no positive edges; the loss has no positive term")
        pos_coef = y
    neg_coef = 1.0 - y
    return _step_mean([tk.bce(probs_by_step[l], pos_coef, neg_coef) for l in steps])


def mask_loss(masks_by_step: dict[int, tk.Tensor],
              gt_masks: list[np.ndarray | None]) -> tk.Tensor:
    """Mean per-pixel cross-entropy over supervised nodes, averaged over steps.

    Nodes without a ground-truth mask are excluded.  With none at all the
    loss is zero times the last step's masks, so the mask stacks still get
    a gradient, an all-zero one.
    """
    if not masks_by_step:
        raise ConfigError("mask_loss needs at least one recorded step")
    steps = sorted(masks_by_step)
    sup = [i for i, g in enumerate(gt_masks) if g is not None]
    if not sup:
        return tk.mul(tk.tsum(masks_by_step[steps[-1]]), 0.0)
    target = np.stack([gt_masks[i] for i in sup])
    supervised = tk.Segments(sup, masks_by_step[steps[-1]].data.shape[0])
    return _step_mean([tk.bce(tk.rows(masks_by_step[l], supervised), target, 1.0 - target)
                       for l in steps])


def augment(boxes: np.ndarray, p_drop: float, shift_std: float,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Randomly drop rows of an (n, 4) box array and jitter the survivors.

    Returns the kept row positions and their jittered boxes.  Each row draws
    one uniform, then, unless dropped, two normal pairs; widths and heights
    stay floored at one pixel.
    """
    kept, out = [], []
    for i, (x, y, w, h) in enumerate(boxes.tolist()):
        if rng.uniform() < p_drop:
            continue
        dx, dy = rng.normal(0.0, shift_std, size=2)
        dw, dh = rng.normal(0.0, shift_std, size=2)
        kept.append(i)
        out.append((x + dx, y + dy, max(w + dw, 1.0), max(h + dh, 1.0)))
    return np.asarray(kept, dtype=np.int64), np.asarray(out, dtype=np.float64).reshape(-1, 4)


def joint_loss(state, params: ModelParams, labels_arr: np.ndarray,
               gt_masks: list[np.ndarray | None] | None) -> tuple[tk.Tensor, LossReport]:
    loss_e = edge_loss(state.edge_probs, labels_arr)
    mask_val = 0.0
    total = loss_e
    if params.config.with_masks:
        masks_by_step = {l: predict_masks(state, params, step=l)
                         for l in state.recorded_steps()}
        loss_m = mask_loss(masks_by_step, [] if gt_masks is None else gt_masks)
        mask_val = loss_m.item()
        total = tk.add(loss_e, loss_m)
    report = LossReport(iteration=0, edge=loss_e.item(), mask=mask_val,
                        total=loss_e.item() + mask_val)
    return total, report


def _sample_graph(nodes: NodeTable, windows: list[np.ndarray], partners: Partners,
                  cfg: TrainConfig, rng):
    for _ in range(50):
        rows = windows[rng.integers(len(windows))]
        kept, boxes = augment(nodes.boxes[rows], cfg.node_drop_p, cfg.box_shift_std, rng)
        if len(kept) < 2:
            continue
        window = nodes.take(rows[kept])
        window.boxes = boxes
        graph = build_graph(window, partners, cfg.top_k)
        if graph.num_edges == 0:
            continue
        return graph
    raise TrainingError("could not sample a window with edges after 50 tries")


def train_loop(scenarios: list[list], cfg: TrainConfig, mpn_cfg: MpnConfig,
               params: ModelParams | None = None,
               snapshot=None) -> tuple[ModelParams, list[LossReport]]:
    """Optimize model parameters on scenario windows.

    Each scenario is its detection list, as generate_scenario returns it.
    snapshot, if given, is called as snapshot(iteration, params) every
    checkpoint_every iterations.  Returns the trained parameters and the
    per-iteration loss history.  The (seed, config, data) triple fully
    determines the outcome.
    """
    cfg.validate()
    mpn_cfg.validate()
    if not any(scenarios):
        raise ConfigError("training needs at least one scenario with detections")
    usable = [(NodeTable.from_detections(s), split_windows(s, cfg.frames_per_graph))
              for s in scenarios if s]
    d_app = next((v.size for t, _ in usable for v in t.appearance if v is not None), None)
    if d_app is None:
        raise ConfigError("training scenarios carry no appearance vectors")
    if params is None:
        params = ModelParams(mpn_cfg, d_app=d_app, seed=cfg.seed)
    elif params.config != mpn_cfg:
        raise ConfigError(f"params were built for {params.config}, not for {mpn_cfg}")
    # graph partners ranked once per scenario; each sampled window is cut from them
    gap = window_gap(cfg.max_frame_gap, cfg.frames_per_graph)
    usable = [(t, w, Partners(t, gap)) for t, w in usable]
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    adam = tk.AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                        weight_decay=cfg.weight_decay)
    named = params.named_parameters()
    history: list[LossReport] = []
    for it in range(1, cfg.iterations + 1):
        params.zero_grad()
        agg = LossReport(iteration=it, edge=0.0, mask=0.0, total=0.0)
        for _ in range(cfg.graphs_per_step):
            nodes, windows, partners = usable[rng.integers(len(usable))]
            graph = _sample_graph(nodes, windows, partners, cfg, rng)
            labels = ground_truth_labels(graph)
            state = mpn_forward(graph, params)
            gt_masks = graph.nodes.gt_masks if mpn_cfg.with_masks else None
            total, report = joint_loss(state, params, labels, gt_masks)
            if not np.isfinite(report.total):
                raise TrainingError(f"non-finite loss at iteration {it}")
            tk.backward(tk.mul(total, 1.0 / cfg.graphs_per_step))
            agg.edge += report.edge / cfg.graphs_per_step
            agg.mask += report.mask / cfg.graphs_per_step
            agg.total += report.total / cfg.graphs_per_step
        tk.adam_step(named, adam)
        history.append(agg)
        if cfg.checkpoint_every and snapshot and it % cfg.checkpoint_every == 0:
            snapshot(it, params)
    return params, history


def write_history(history: list[LossReport], path) -> None:
    with open(path, "w") as fh:
        fh.write("iter,edge_loss,mask_loss,total_loss\n")
        for r in history:
            fh.write(f"{r.iteration},{r.edge!r},{r.mask!r},{r.total!r}\n")


# ---------------------------------------------------------------------------
# gradient checking on the full objective

def build_gradcheck_case(with_masks: bool, seed: int = 0):
    """Small graph plus a closure computing the full training loss.

    Returns (f, params) suitable for tensorkit.grad_check: ten detections
    or fewer, two message passing steps, and every parameter group of the
    chosen model variant exercised by f.
    """
    sc_cfg = ScenarioConfig(num_frames=4, num_identities=2, d_app=3,
                            pos_noise_std=2.0, detection_dropout=0.1,
                            false_positive_rate=0.3, roi_h=4, roi_w=4, d_roi=2,
                            seed=seed)
    table = NodeTable.from_detections(generate_scenario(sc_cfg)[:10])
    graph = build_graph(table, Partners(table, 4), top_k=3)
    labels = ground_truth_labels(graph)
    mpn_cfg = MpnConfig(num_steps=2, variant="time_aware", with_masks=with_masks,
                        d_node=4, d_edge=3, hidden=4, conv_hidden=2,
                        roi_h=4, roi_w=4, d_roi=2)
    params = ModelParams(mpn_cfg, d_app=3, seed=seed + 1)
    gt_masks = graph.nodes.gt_masks

    def f():
        state = mpn_forward(graph, params)
        total, _ = joint_loss(state, params, labels, gt_masks if with_masks else None)
        return total

    return f, params
