"""End-to-end acceptance suite.

Each test checks one promised property of the finished system, records a
one-line verdict for the terminal summary, and then asserts.  Trained
models come from the shared session fixtures in conftest.py so variants
are compared on identical data with identical budgets.
"""

import time

import numpy as np
import pytest

from conftest import (FRAMES_PER_GRAPH, MAX_FRAME_GAP, TOP_K,
                      graph_over, mask_scenario_config, record_acceptance)
from oracles import (brute_force_round, random_rounding_instance,
                     subgraph_objective)
from scoring import gt_masks_from_scenario

from mpnflow import tensorkit as tk
from mpnflow.cli import main as cli_main
from mpnflow.graph import (NodeTable, Partners, build_graph, graph_from_edge_list,
                           ground_truth_labels, split_windows, window_gap)
from mpnflow.infer import (InferConfig, check_constraints, exact_round, greedy_round,
                           run_inference, threshold, violating_edges)
from mpnflow.metrics import clear_mot, idf1, mots_metrics, track_masks
from mpnflow.mpn import ModelParams, MpnConfig, mpn_forward, predict_masks
from mpnflow.synthdata import Detection, ScenarioConfig, generate_scenario
from mpnflow.train import TrainConfig, build_gradcheck_case, train_loop

BOX = (10.0, 10.0, 20.0, 20.0)
FAR = (100.0, 100.0, 20.0, 20.0)


def test_gradient_correctness():
    t0 = time.monotonic()
    errs = {}
    for with_masks in (False, True):
        f, params = build_gradcheck_case(with_masks=with_masks, seed=0)
        errs[with_masks] = tk.grad_check(f, params.named_parameters())
    exit_code = cli_main(["gradcheck"])
    elapsed = time.monotonic() - t0
    ok = (errs[False] < 1e-4 and errs[True] < 1e-4 and exit_code == 0
          and elapsed < 60.0)
    record_acceptance(
        "gradient correctness",
        ok,
        f"masks off {errs[False]:.2e}, masks on {errs[True]:.2e} "
        f"(tolerance 1e-4), cli exit {exit_code}, {elapsed:.1f}s < 60s")
    assert errs[False] < 1e-4
    assert errs[True] < 1e-4
    assert exit_code == 0
    assert elapsed < 60.0


def test_rounding_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    matches = 0
    feasible = 0
    cases = 200
    for _ in range(cases):
        g, probs = random_rounding_instance(rng, max_active_sub=12)
        y_exact = exact_round(g, probs)
        y_greedy = greedy_round(g, probs)
        _, best = brute_force_round(g, probs)
        if subgraph_objective(g, probs, 0.5, y_exact) == pytest.approx(best, abs=1e-9):
            matches += 1
        if (check_constraints(g, y_exact).violations == []
                and check_constraints(g, y_greedy).violations == []):
            feasible += 1
    elapsed = time.monotonic() - t0
    ok = matches == cases and feasible == cases and elapsed < 60.0
    record_acceptance(
        "rounding exactness",
        ok,
        f"objective matches brute force {matches}/{cases}, "
        f"post-rounding feasible {feasible}/{cases}, {elapsed:.1f}s < 60s")
    assert matches == cases
    assert feasible == cases
    assert elapsed < 60.0


def test_constraint_satisfaction_ablation(model_bank):
    t0 = time.monotonic()
    sat_ta = [model_bank.satisfaction(p) for p in model_bank.get("time_aware")]
    sat_va = [model_bank.satisfaction(p) for p in model_bank.get("vanilla")]
    mean_ta = float(np.mean(sat_ta))
    mean_va = float(np.mean(sat_va))
    elapsed = time.monotonic() - t0
    ok = mean_ta >= 95.0 and mean_ta > mean_va and elapsed < 15 * 60
    record_acceptance(
        "constraint-satisfaction ablation",
        ok,
        f"time-aware {mean_ta:.2f}% (>= 95) vs vanilla {mean_va:.2f}%, "
        f"3-seed means, {elapsed:.0f}s < 900s")
    assert mean_ta >= 95.0
    assert mean_ta > mean_va
    assert elapsed < 15 * 60


def test_message_passing_depth_trend(model_bank):
    t0 = time.monotonic()
    idf_l2 = [model_bank.mean_idf1(p) for p in model_bank.get("time_aware")]
    idf_l0 = [model_bank.mean_idf1(p) for p in model_bank.get("depth0")]
    mean_l2 = float(np.mean(idf_l2))
    mean_l0 = float(np.mean(idf_l0))
    elapsed = time.monotonic() - t0
    ok = mean_l2 > mean_l0 and elapsed < 20 * 60
    record_acceptance(
        "message-passing depth trend",
        ok,
        f"IDF1 two steps {mean_l2:.4f} > zero steps {mean_l0:.4f}, "
        f"3-seed means, {elapsed:.0f}s < 1200s")
    assert mean_l2 > mean_l0
    assert elapsed < 20 * 60


def _grid_iou(pred, gt) -> float:
    p = np.asarray(pred) >= 0.5
    g = np.asarray(gt, dtype=bool)
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


def test_mask_learning(mask_setup):
    val_scens, params, train_seconds = mask_setup
    t0 = time.monotonic()
    ious = []
    smotsas = []
    for sc in val_scens:
        sol = run_inference(sc, params,
                            InferConfig(frames_per_graph=FRAMES_PER_GRAPH, top_k=TOP_K,
                                        max_frame_gap=MAX_FRAME_GAP))
        for det in sc:
            if det.gt_mask is None or det.node_id not in sol.node_masks:
                continue
            ious.append(_grid_iou(sol.node_masks[det.node_id], det.gt_mask))
        pred = track_masks(sol.track_node_ids, sol.node_masks, sc)
        smotsas.append(mots_metrics(gt_masks_from_scenario(sc), pred).smotsa)
    mean_iou = float(np.mean(ious))
    mean_smotsa = float(np.mean(smotsas))
    elapsed = time.monotonic() - t0 + train_seconds
    ok = mean_iou >= 0.9 and mean_smotsa >= 0.8 and elapsed < 20 * 60
    record_acceptance(
        "mask learning",
        ok,
        f"mask IoU {mean_iou:.4f} >= 0.9 over {len(ious)} detections, "
        f"sMOTSA {mean_smotsa:.4f} >= 0.8, {elapsed:.0f}s < 1200s")
    assert mean_iou >= 0.9
    assert mean_smotsa >= 0.8
    assert elapsed < 20 * 60


def test_joint_training_synergy(model_bank):
    idf_att = [model_bank.mean_idf1(p) for p in model_bank.get("attentive")]
    idf_base = [model_bank.mean_idf1(p) for p in model_bank.get("time_aware")]
    mean_att = float(np.mean(idf_att))
    mean_base = float(np.mean(idf_base))
    ok = mean_att >= mean_base
    record_acceptance(
        "joint-training synergy",
        ok,
        f"IDF1 with mask branch {mean_att:.4f} >= without {mean_base:.4f}, "
        f"3-seed means")
    assert mean_att >= mean_base


def test_metrics_closed_form():
    gt = {1: {f: BOX for f in (1, 2, 3, 4)}}
    split = {1: {1: BOX, 2: BOX}, 2: {3: BOX, 4: BOX}}
    idf1_split = idf1(gt, split)
    mota_switch = clear_mot(gt, split).mota

    perfect_gt = {1: {f: BOX for f in range(1, 5)},
                  2: {f: FAR for f in range(1, 5)}}
    perfect_clear = clear_mot(perfect_gt, perfect_gt)
    perfect_idf1 = idf1(perfect_gt, perfect_gt)
    full = np.ones((4, 4), dtype=bool)
    masks = {tid: {f: (box, full) for f, box in frames.items()}
             for tid, frames in perfect_gt.items()}
    perfect_mots = mots_metrics(masks, masks)

    ok = (idf1_split == pytest.approx(0.5, abs=1e-12)
          and mota_switch == pytest.approx(0.75, abs=1e-12)
          and perfect_clear.mota == 1.0 and perfect_clear.motp == 1.0
          and perfect_idf1 == 1.0
          and perfect_mots.motsa == 1.0 and perfect_mots.smotsa == 1.0)
    record_acceptance(
        "metrics closed form",
        ok,
        f"split-track IDF1 {idf1_split}, one-switch MOTA {mota_switch}, "
        f"perfect scores all 1.0: {ok}")
    assert idf1_split == pytest.approx(0.5, abs=1e-12)
    assert mota_switch == pytest.approx(0.75, abs=1e-12)
    assert perfect_clear.mota == 1.0
    assert perfect_clear.motp == 1.0
    assert perfect_idf1 == 1.0
    assert perfect_mots.motsa == 1.0
    assert perfect_mots.smotsa == 1.0


def _random_detections(rng, frames, per_frame, d_app=4, roi=(4, 4, 2)):
    dets = []
    nid = 0
    for frame in range(1, frames + 1):
        for _ in range(per_frame):
            dets.append(Detection(node_id=nid, frame=frame,
                                  box=tuple(rng.uniform(5, 200, size=4)),
                                  appearance=rng.normal(size=d_app),
                                  roi_grid=rng.normal(size=roi)))
            nid += 1
    return dets


def test_invariant_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    checks = []

    # permutation equivariance: relabeled nodes give bit-identical outputs
    dets = _random_detections(rng, frames=5, per_frame=3)
    cfg = MpnConfig(num_steps=2, variant="time_aware", with_masks=True,
                    d_node=6, d_edge=4, hidden=6, conv_hidden=2, d_roi=2)
    params = ModelParams(cfg, d_app=4, seed=3)
    g1 = graph_over(dets, 3, 3)
    state1 = mpn_forward(g1, params)
    masks1 = predict_masks(state1, params)
    perm = {d.node_id: 977 - 13 * d.node_id for d in dets}
    relabeled = [Detection(node_id=perm[d.node_id], frame=d.frame, box=d.box,
                           appearance=d.appearance, roi_grid=d.roi_grid)
                 for d in reversed(dets)]
    g2 = graph_over(relabeled, 3, 3)
    state2 = mpn_forward(g2, params)
    masks2 = predict_masks(state2, params)
    perm_edges = {(perm[a], perm[b]) for a, b in g1.edge_pairs()} == set(g2.edge_pairs())
    perm_probs = np.array_equal(state1.final_probs(), state2.final_probs())
    perm_masks = np.array_equal(masks1.data, masks2.data)
    checks.append(("permutation equivariance",
                   perm_edges and perm_probs and perm_masks))

    # attention normalization: each nonempty side sums to 1 within 1e-12
    att_ok = True
    for l, (a_past, a_fut) in state1.attention.items():
        for weights, seg in ((a_past.data, g1.edge_dst), (a_fut.data, g1.edge_src)):
            sums = np.zeros(g1.num_nodes)
            np.add.at(sums, seg, weights)
            nonempty = np.zeros(g1.num_nodes, dtype=bool)
            nonempty[seg] = True
            att_ok = att_ok and np.all(np.abs(sums[nonempty] - 1.0) <= 1e-12)
    checks.append(("attention normalization", bool(att_ok)))

    # empty aggregations are exact zeros: a node beyond every frame gap gets
    # no edges; the vanilla update leaves it the zero vector, and the mask
    # branch sees zero context grids
    iso_dets = _random_detections(rng, frames=2, per_frame=2)
    iso_dets.append(Detection(node_id=4, frame=30,
                              box=(1.0, 2.0, 3.0, 4.0),
                              appearance=rng.normal(size=4),
                              roi_grid=rng.normal(size=(4, 4, 2))))
    g_iso = graph_over(iso_dets, 3, 2)
    van_params = ModelParams(MpnConfig(num_steps=3, variant="vanilla",
                                       d_node=6, d_edge=4, hidden=6),
                             d_app=4, seed=5)
    van_state = mpn_forward(g_iso, van_params)
    incident = set(g_iso.edge_src) | set(g_iso.edge_dst)
    iso_nodes = [i for i in range(g_iso.num_nodes) if i not in incident]
    vanilla_zero = len(iso_nodes) > 0 and all(
        np.all(van_state.node_h[l].data[i] == 0.0)
        for l in (1, 2) for i in iso_nodes)
    att_params = ModelParams(cfg, d_app=4, seed=6)
    att_state = mpn_forward(g_iso, att_params)
    mask_ctx_zero = True
    for i in iso_nodes:
        for l in (1, 2):
            tilde0 = tk.Tensor(att_state.tilde_h[0].data[i:i + 1])
            zeros = tk.Tensor(np.zeros_like(tilde0.data))
            want = att_params.context_update(
                tk.concat([zeros, zeros, tilde0], axis=3),
                tk.ConvGrid(*tilde0.data.shape[:3], att_params.context_update.kernel))
            mask_ctx_zero = mask_ctx_zero and np.array_equal(
                att_state.tilde_h[l].data[i], want.data[0])
    checks.append(("empty aggregation zeros", vanilla_zero and mask_ctx_zero))

    # ground-truth labels always satisfy the degree constraints
    scenario = generate_scenario(ScenarioConfig(
        num_frames=60, num_identities=4, detection_dropout=0.1,
        false_positive_rate=0.2, seed=31))
    feasible = True
    windows = 0
    nodes = NodeTable.from_detections(scenario)
    partners = Partners(nodes, window_gap(MAX_FRAME_GAP, FRAMES_PER_GRAPH))
    for rows in split_windows(scenario, FRAMES_PER_GRAPH):
        if len(rows) < 2:
            continue
        g = build_graph(nodes.take(rows), partners, TOP_K)
        if g.num_edges == 0:
            continue
        y = ground_truth_labels(g)
        feasible = feasible and check_constraints(g, y).violations == []
        windows += 1
    checks.append(("label feasibility", feasible and windows > 0))

    # seed determinism: scenario generation, training, and inference are
    # bit-identical under a repeated seed
    cfg_a = ScenarioConfig(num_frames=30, num_identities=3, seed=12)
    sc_a = generate_scenario(cfg_a)
    sc_b = generate_scenario(ScenarioConfig(num_frames=30, num_identities=3,
                                            seed=12))
    same_scenario = len(sc_a) == len(sc_b) and all(
        a.frame == b.frame and a.box == b.box
        and np.array_equal(a.appearance, b.appearance)
        and np.array_equal(a.roi_grid, b.roi_grid)
        and a.gt_identity == b.gt_identity
        for a, b in zip(sc_a, sc_b))
    tcfg = TrainConfig(iterations=40, frames_per_graph=8, top_k=3,
                       max_frame_gap=3, seed=9)
    mcfg = MpnConfig(num_steps=2, variant="time_aware", d_node=6, d_edge=4,
                     hidden=6)
    p1, _ = train_loop([sc_a], tcfg, mcfg)
    p2, _ = train_loop([sc_b], tcfg, mcfg)
    same_training = all(np.array_equal(t1.data, t2.data)
                        for (_, t1), (_, t2) in zip(p1.named_parameters(),
                                                    p2.named_parameters()))
    icfg = InferConfig(frames_per_graph=8, top_k=3, max_frame_gap=3)
    sol1 = run_inference(sc_a, p1, icfg)
    sol2 = run_inference(sc_a, p1, icfg)
    same_inference = (np.array_equal(sol1.edge_probs, sol2.edge_probs)
                      and sol1.trajectories == sol2.trajectories)
    checks.append(("seed determinism",
                   same_scenario and same_training and same_inference))

    elapsed = time.monotonic() - t0
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 120.0
    record_acceptance(
        "invariant suite",
        ok,
        f"{len(checks) - len(failed)}/{len(checks)} invariants hold"
        + (f" (failed: {', '.join(failed)})" if failed else "")
        + f", {elapsed:.1f}s < 120s")
    assert not failed, f"invariants failed: {failed}"
    assert elapsed < 120.0
