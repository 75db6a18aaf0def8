import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import FRAMES_PER_GRAPH, MAX_FRAME_GAP, TOP_K, bench_scenario_config, count_calls
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_augment

from mpnflow import synthdata as sd
from mpnflow import tensorkit as tk
from mpnflow import train as tr
from mpnflow.errors import ConfigError, TrainingError, config_from_dict
from mpnflow.graph import (NodeTable, Partners, build_graph, ground_truth_labels, split_windows,
                           window_gap)
from mpnflow.mpn import MpnConfig, ModelParams, mpn_forward


def test_edge_loss_single_positive_edge_at_half():
    probs = {1: tk.Tensor([0.5])}
    loss = tr.edge_loss(probs, np.array([1.0]))
    assert abs(loss.item() - 0.6931) < 1e-4


def test_edge_loss_four_edges_one_positive_frozen_value():
    probs = {1: tk.Tensor([0.5, 0.5, 0.5, 0.5])}
    y = np.array([1.0, 0.0, 0.0, 0.0])
    loss = tr.edge_loss(probs, y)
    # (4 * log 2 + 3 * log 2) / 4: the positive edge carries weight 4
    assert abs(loss.item() - 1.2130) < 1e-4
    assert abs(loss.item() - 7 * math.log(2.0) / 4) < 1e-12


def test_edge_loss_averages_last_m_steps():
    probs = {2: tk.Tensor([0.25]), 3: tk.Tensor([0.75])}
    y = np.array([1.0])
    loss = tr.edge_loss(probs, y)
    want = (-math.log(0.25) - math.log(0.75)) / 2
    assert abs(loss.item() - want) < 1e-12


def test_edge_loss_no_positives_falls_back_with_warning(caplog):
    probs = {0: tk.Tensor([0.3, 0.6])}
    with caplog.at_level(logging.WARNING):
        loss = tr.edge_loss(probs, np.zeros(2))
    assert any("positive" in r.message for r in caplog.records)
    want = (-math.log(0.7) - math.log(0.4)) / 2
    assert abs(loss.item() - want) < 1e-12


def test_edge_loss_is_finite_under_saturation():
    probs = {0: tk.Tensor([0.0, 1.0])}
    loss = tr.edge_loss(probs, np.array([1.0, 0.0]))
    assert np.isfinite(loss.item())


def test_mask_loss_frozen_value():
    grid = np.array([[0.9, 0.1], [0.8, 0.2]])
    gt = np.array([[1.0, 0.0], [1.0, 0.0]])
    masks = {1: tk.Tensor(grid[None, :, :])}
    loss = tr.mask_loss(masks, [gt])
    assert abs(loss.item() - 0.1643) < 1e-4


def test_mask_loss_skips_unsupervised_nodes():
    grid = np.stack([np.full((2, 2), 0.5), np.full((2, 2), 0.99)])
    masks = {0: tk.Tensor(grid)}
    gt_all_half = [np.ones((2, 2)), None]
    # log 2 only if the 0.99 node is skipped
    loss = tr.mask_loss(masks, gt_all_half)
    assert abs(loss.item() - math.log(2.0)) < 1e-12
    loss_none = tr.mask_loss(masks, [None, None])
    assert loss_none.item() == 0.0


def test_augment_noop_and_full_drop():
    sc = sd.generate_scenario(sd.ScenarioConfig(num_frames=3, num_identities=2, seed=0))
    boxes = NodeTable.from_detections(sc).boxes
    kept, same = tr.augment(boxes, 0.0, 0.0, np.random.default_rng(0))
    assert same.tolist() == [list(d.box) for d in sc]
    assert kept.tolist() == list(range(len(sc)))
    kept, gone = tr.augment(boxes, 1.0, 0.0, np.random.default_rng(1))
    assert kept.shape == (0,) and gone.shape == (0, 4)


def test_augment_floors_box_size():
    rng = np.random.default_rng(2)
    _, out = tr.augment(np.tile([5.0, 5.0, 1.2, 1.2], (50, 1)), 0.0, 25.0, rng)
    assert (out[:, 2:] >= 1.0).all()


COORDS = st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(boxes=st.lists(st.tuples(COORDS, COORDS, st.floats(0.01, 80), st.floats(0.01, 80)),
                      max_size=30),
       p_drop=st.sampled_from([0.0, 0.05, 0.5, 1.0]), shift_std=st.sampled_from([0.0, 1.0, 25.0]),
       seed=st.integers(0, 2**32 - 1))
def test_augment_matches_detection_list_oracle_bit_for_bit(boxes, p_drop, shift_std, seed):
    dets = [sd.Detection(node_id=7 * i, frame=i % 3, box=b) for i, b in enumerate(boxes)]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    kept, out = tr.augment(NodeTable.from_detections(dets).boxes, p_drop, shift_std, rng)
    want = reference_augment(dets, p_drop, shift_std, ref_rng)
    assert [dets[i].node_id for i in kept] == [d.node_id for d in want]
    assert out.tobytes() == np.asarray([d.box for d in want], np.float64).reshape(-1, 4).tobytes()
    # the same draws were made: the generators continue alike
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_train_loop_builds_no_detection_per_iteration(monkeypatch):
    scenario = easy_scenario()
    made = []
    init = sd.Detection.__post_init__
    monkeypatch.setattr(sd.Detection, "__post_init__", lambda d: made.append(d) or init(d))
    tr.train_loop([scenario], quick_cfg(iterations=5), small_model())
    assert made == []


def easy_scenario(seed=0):
    return sd.generate_scenario(sd.ScenarioConfig(
        num_frames=8, num_identities=2, d_app=4, pos_noise_std=0.5,
        app_noise_std=0.05, seed=seed))


def quick_cfg(**kw):
    base = dict(iterations=40, lr=3e-3, frames_per_graph=6, top_k=3,
                node_drop_p=0.1, box_shift_std=0.5, seed=11)
    base.update(kw)
    return tr.TrainConfig(**base)


def small_model(**kw):
    base = dict(num_steps=2, variant="time_aware", d_node=6, d_edge=5, hidden=8,
                d_roi=2, conv_hidden=2)
    base.update(kw)
    return MpnConfig(**base)


def test_train_loop_builds_one_graph_per_sampling_attempt(monkeypatch):
    # the benchmark counts graphs and nodes from these calls; an attempt that
    # keeps fewer than two nodes builds none
    kept, calls = [], []
    augment = tr.augment

    def counted_augment(*args):
        rows, boxes = augment(*args)
        kept.append(len(rows))
        return rows, boxes

    def counted_build(nodes, *args, **kwargs):
        calls.append(len(nodes.ids))
        return build_graph(nodes, *args, **kwargs)

    monkeypatch.setattr("mpnflow.train.augment", counted_augment)
    monkeypatch.setattr("mpnflow.train.build_graph", counted_build)
    tr.train_loop([easy_scenario()], quick_cfg(iterations=6, node_drop_p=0.9), small_model())
    assert calls == [n for n in kept if n >= 2]
    assert len(kept) > len(calls) >= 6


def test_train_loop_names_a_detection_without_appearance():
    scenario = easy_scenario()
    dets = list(scenario)
    dets[3] = replace(dets[3], appearance=None)
    with pytest.raises(ConfigError, match=f"^detection {dets[3].node_id} has no appearance"):
        tr.train_loop([dets], quick_cfg(iterations=1), small_model())


def test_train_loop_reduces_loss():
    params, history = tr.train_loop([easy_scenario()], quick_cfg(), small_model())
    assert len(history) == 40
    head = np.mean([r.total for r in history[:8]])
    tail = np.mean([r.total for r in history[-8:]])
    assert tail < head


def test_train_loop_is_seed_deterministic():
    p1, h1 = tr.train_loop([easy_scenario()], quick_cfg(iterations=10), small_model())
    p2, h2 = tr.train_loop([easy_scenario()], quick_cfg(iterations=10), small_model())
    assert [r.total for r in h1] == [r.total for r in h2]
    for (n1, a), (n2, b) in zip(p1.named_parameters(), p2.named_parameters()):
        assert n1 == n2 and a.data.tobytes() == b.data.tobytes()


# trains the 30-identity scenario, whose windows reach about 1400 edges, and
# prints the SHA-256 of the parameter bytes
_DENSE_TRAINING = """
import hashlib
from dataclasses import replace
from conftest import FRAMES_PER_GRAPH, MAX_FRAME_GAP, TOP_K, MODEL_KINDS, bench_scenario_config
from mpnflow.synthdata import generate_scenario
from mpnflow.train import TrainConfig, train_loop
scenario = generate_scenario(replace(bench_scenario_config(100), num_identities=30,
                                     num_frames=40))
cfg = TrainConfig(iterations=5, frames_per_graph=FRAMES_PER_GRAPH, top_k=TOP_K,
                  max_frame_gap=MAX_FRAME_GAP, seed=0)
params, _ = train_loop([scenario], cfg, MODEL_KINDS["time_aware"])
h = hashlib.sha256()
for name, p in params.named_parameters():
    h.update(name.encode() + p.data.tobytes())
print(h.hexdigest())
"""


def test_training_is_bit_reproducible_for_a_fixed_blas_thread_count():
    # the promise is narrowed to a fixed thread count: OpenBLAS splits large
    # GEMMs across threads in a way that changes the rounding
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    digests = [subprocess.run([sys.executable, "-c", _DENSE_TRAINING], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()
               for _ in range(2)]
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_train_loop_zero_lr_keeps_parameters():
    cfg = quick_cfg(iterations=5, lr=0.0, weight_decay=0.0)
    init = ModelParams(small_model(), d_app=4, seed=cfg.seed)
    before = [p.data.copy() for _, p in init.named_parameters()]
    params, _ = tr.train_loop([easy_scenario()], cfg, small_model(), params=init)
    for (_, p), b in zip(params.named_parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_loop_raises_on_non_finite_loss():
    cfg = quick_cfg(iterations=3)
    params = ModelParams(small_model(), d_app=4, seed=0)
    params.node_encoder.weights[0].data[0, 0] = np.nan
    with pytest.raises(TrainingError) as e:
        tr.train_loop([easy_scenario()], cfg, small_model(), params=params)
    assert "iteration 1" in str(e.value)


def test_train_loop_rejects_params_built_for_another_config():
    # under a no-mask config a mask model's mask head would see a mask loss of 0
    params = ModelParams(small_model(with_masks=True), d_app=4, seed=0)
    with pytest.raises(ConfigError, match="params were built for"):
        tr.train_loop([easy_scenario()], quick_cfg(iterations=1), small_model(), params=params)


def test_train_loop_with_masks_runs_and_reports():
    sc = sd.generate_scenario(sd.ScenarioConfig(
        num_frames=6, num_identities=2, d_app=4, roi_h=4, roi_w=4, d_roi=2, seed=1))
    cfg = quick_cfg(iterations=4, frames_per_graph=4)
    params, history = tr.train_loop([sc], cfg, small_model(with_masks=True))
    assert all(r.mask > 0 for r in history)
    assert all(np.isfinite(r.total) for r in history)


def test_train_loop_with_masks_on_unsupervised_windows_gives_mask_stacks_zero_gradients():
    sc = sd.generate_scenario(sd.ScenarioConfig(
        num_frames=6, num_identities=2, d_app=4, roi_h=4, roi_w=4, d_roi=2, seed=1))
    sc = [replace(d, gt_mask=None) for d in sc]
    cfg = quick_cfg(iterations=3, frames_per_graph=4)
    params, history = tr.train_loop([sc], cfg, small_model(with_masks=True))
    assert all(r.mask == 0.0 and np.isfinite(r.total) for r in history)
    # the last iteration's gradients are left on the parameters
    for stack in (params.context_update, params.mask_head):
        for name, p in stack.parameters():
            assert p.grad is not None and not p.grad.any(), name


def test_mask_training_iteration_builds_one_col2im_operator(monkeypatch):
    # every conv backward of the pass shares the forward's one ConvGrid
    builds = count_calls(monkeypatch, tk.ConvGrid, "_build")
    sc = sd.generate_scenario(sd.ScenarioConfig(
        num_frames=6, num_identities=2, d_app=4, roi_h=4, roi_w=4, d_roi=2, seed=1))
    tr.train_loop([sc], quick_cfg(iterations=1, frames_per_graph=4), small_model(with_masks=True))
    assert len(builds) == 1


def test_two_graphs_per_step_average_their_losses_and_gradients(monkeypatch):
    # each iteration descends the mean over its graphs: its history row is
    # the mean of their loss reports, and Adam gets the mean of their own
    # gradients, each recomputed alone at the parameters of that iteration
    sc = sd.generate_scenario(sd.ScenarioConfig(
        num_frames=6, num_identities=2, d_app=4, roi_h=4, roi_w=4, d_roi=2, seed=1))
    joint_loss, adam_step = tr.joint_loss, tk.adam_step
    calls, steps = [], []

    def spy_joint_loss(state, params, labels, gt_masks):
        total, report = joint_loss(state, params, labels, gt_masks)
        calls.append((state.graph, params, labels, gt_masks, report))
        return total, report

    def spy_adam_step(named, adam):
        handed = [p.grad.copy() for _, p in named]
        own = []
        for graph, params, labels, gt_masks, _ in calls[-2:]:
            params.zero_grad()
            tk.backward(joint_loss(mpn_forward(graph, params), params, labels, gt_masks)[0])
            own.append([p.grad for _, p in named])
        for (name, p), g, g1, g2 in zip(named, handed, *own):
            np.testing.assert_allclose(g, (g1 + g2) / 2, rtol=1e-12, atol=0, err_msg=name)
            p.grad = g
        steps.append(len(calls))
        adam_step(named, adam)

    monkeypatch.setattr(tr, "joint_loss", spy_joint_loss)
    monkeypatch.setattr(tk, "adam_step", spy_adam_step)
    cfg = quick_cfg(iterations=2, frames_per_graph=4, graphs_per_step=2)
    _, history = tr.train_loop([sc], cfg, small_model(with_masks=True))
    assert steps == [2, 4] and len(history) == 2
    reports = [c[-1] for c in calls]
    for row, a, b in zip(history, reports[::2], reports[1::2]):
        assert (row.edge, row.mask, row.total) == ((a.edge + b.edge) / 2, (a.mask + b.mask) / 2,
                                                   (a.total + b.total) / 2)


STACK_ORDER = ("node_encoder", "edge_encoder", "edge_update", "node_update_past",
               "node_update_fut", "node_update", "edge_logits", "context_update", "mask_head")


def live_stacks(num_steps: int, variant: str, with_masks: bool) -> list[str]:
    """The stacks whose output reaches an edge probability or a mask."""
    live = {"edge_encoder", "edge_logits"}
    if num_steps >= 1:
        live |= {"node_encoder", "edge_update"}
    if num_steps >= 2:
        live |= {"node_update"}
        if variant == "time_aware":
            live |= {"node_update_past", "node_update_fut"}
    if with_masks:
        live |= {"mask_head"} | ({"context_update"} if num_steps >= 1 else set())
    return [name for name in STACK_ORDER if name in live]


@pytest.fixture(scope="module")
def bench_window():
    scenario = sd.generate_scenario(bench_scenario_config(100))
    window = split_windows(scenario, FRAMES_PER_GRAPH)[0]
    table = NodeTable.from_detections(scenario)
    graph = build_graph(table.take(window),
                        Partners(table, window_gap(MAX_FRAME_GAP, FRAMES_PER_GRAPH)), TOP_K)
    return graph, ground_truth_labels(graph)


@pytest.mark.parametrize("masks", ["off", "supervised", "unsupervised"])
@pytest.mark.parametrize("variant", ["vanilla", "time_aware"])
@pytest.mark.parametrize("num_steps", [0, 1, 2, 3])
def test_every_listed_group_gets_a_gradient(num_steps, variant, masks, bench_window):
    graph, labels = bench_window
    with_masks = masks != "off"
    params = ModelParams(MpnConfig(num_steps=num_steps, variant=variant, with_masks=with_masks),
                         d_app=8, seed=0)
    stacks = [name.split("/")[0] for name, _ in params.named_parameters()]
    assert list(dict.fromkeys(stacks)) == live_stacks(num_steps, variant, with_masks)
    gt_masks = graph.nodes.gt_masks if masks == "supervised" else None
    if masks == "supervised":
        assert any(m is not None for m in gt_masks)
    total, _ = tr.joint_loss(mpn_forward(graph, params), params, labels, gt_masks)
    tk.backward(total)
    assert [name for name, p in params.named_parameters() if p.grad is None] == []
    # the kept groups are drawn exactly as when every stack was kept
    full = ModelParams(MpnConfig(num_steps=3, variant=variant, with_masks=with_masks),
                       d_app=8, seed=0)
    full_groups = dict(full.named_parameters())
    for name, p in params.named_parameters():
        assert p.data.tobytes() == full_groups[name].data.tobytes(), name


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(iterations=0).validate()
    with pytest.raises(ConfigError):
        tr.TrainConfig(node_drop_p=1.5).validate()
    with pytest.raises(ConfigError):
        config_from_dict(tr.TrainConfig, "train", {"mystery": 2})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key,value,why", [
    ("lr", NAN, "lr must be finite and >= 0"),
    ("lr", INF, "lr must be finite and >= 0"),
    ("lr", -1e-3, "lr must be finite and >= 0"),
    ("weight_decay", NAN, "weight_decay must be finite and >= 0"),
    ("box_shift_std", INF, "box_shift_std must be finite and >= 0"),
    ("beta1", NAN, "beta1 must be in [0, 1)"),
    ("beta1", 1.0, "beta1 must be in [0, 1)"),
    ("beta1", -0.5, "beta1 must be in [0, 1)"),
    ("beta2", 1.0, "beta2 must be in [0, 1)"),
    ("beta2", INF, "beta2 must be in [0, 1)"),
], ids=["lr_nan", "lr_inf", "lr_negative", "weight_decay_nan", "box_shift_std_inf",
        "beta1_nan", "beta1_1", "beta1_negative", "beta2_1", "beta2_inf"])
def test_train_config_rejects_non_finite_and_out_of_range_optimiser_values(key, value, why):
    with pytest.raises(ConfigError) as e:
        tr.TrainConfig(**{key: value}).validate()
    assert str(e.value).startswith(why)


def test_train_config_accepts_the_edges_of_its_ranges():
    tr.TrainConfig(lr=0.0, weight_decay=0.0, box_shift_std=0.0, beta1=0.0, beta2=0.0).validate()


def test_write_history_format(tmp_path):
    history = [tr.LossReport(1, 0.5, 0.25, 0.75)]
    path = tmp_path / "hist.csv"
    tr.write_history(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,edge_loss,mask_loss,total_loss"
    assert lines[1].startswith("1,0.5,0.25,0.75")


def test_gradcheck_case_without_masks_passes_tolerance():
    f, params = tr.build_gradcheck_case(with_masks=False, seed=0)
    err = tk.grad_check(f, params.named_parameters(), fd_step=1e-6)
    assert err < 1e-4
