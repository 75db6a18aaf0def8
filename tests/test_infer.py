from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import graph_over
from oracles import (brute_force_round, hand_built_graphs, random_rounding_instance,
                     reference_exact_round, reference_window_means, reference_windows,
                     subgraph_objective)

from mpnflow.errors import ConfigError, FeasibilityError, ParseError
from mpnflow.graph import build_graph, graph_from_edge_list, split_windows
from mpnflow.infer import (InferConfig, _window_means, check_constraints, exact_round,
                           extract_trajectories, greedy_round, interpolate_track, read_mask_pgm,
                           run_inference, threshold, violating_edges, write_mask_pgm)
from mpnflow.mpn import ModelParams, MpnConfig, mpn_forward, predict_masks
from mpnflow.tensorkit import no_grad
from mpnflow.synthdata import Detection, ScenarioConfig, generate_scenario


def _det(nid, frame):
    # box x grows with the id so canonical node order matches id order
    return Detection(node_id=nid, frame=frame, box=(10.0 * nid, 5.0, 4.0, 4.0),
                     confidence=1.0, appearance=np.zeros(3))


def test_threshold_tie_counts_as_active():
    y = threshold(np.array([0.5, 0.4999, 0.5001]), tau=0.5)
    assert y.tolist() == [1, 0, 1]
    with pytest.raises(ConfigError):
        threshold(np.array([0.5]), tau=0.0)


def test_constraint_report_on_clean_chain():
    dets = [_det(0, 1), _det(1, 2), _det(2, 3)]
    g = graph_from_edge_list(dets, [(0, 1), (1, 2)])
    report = check_constraints(g, np.array([1, 1]))
    assert report.violations == []
    assert report.satisfied == report.total == 6
    assert report.rate == 1.0


def test_constraint_report_star_violation():
    # one node feeding two successors, plus an isolated node: 7 of the
    # 8 degree inequalities hold
    dets = [_det(0, 1), _det(1, 2), _det(2, 2), _det(3, 3)]
    g = graph_from_edge_list(dets, [(0, 1), (0, 2)])
    report = check_constraints(g, np.array([1, 1]))
    assert report.violations == [(0, "future", 2)]
    assert report.satisfied == 7
    assert report.total == 8
    assert report.rate == pytest.approx(0.875, abs=1e-12)


def test_exact_round_resolves_crossing():
    # two tracks crossing between frames: the matching keeps the two
    # high-probability edges and drops the cross pair
    dets = [_det(0, 1), _det(1, 1), _det(2, 2), _det(3, 2)]
    g = graph_from_edge_list(dets, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert g.edge_pairs() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    probs = np.array([0.9, 0.6, 0.55, 0.9])
    y = exact_round(g, probs)
    assert y.tolist() == [1, 0, 0, 1]
    assert check_constraints(g, y).violations == []


def test_exact_round_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g, probs = random_rounding_instance(rng)
        tentative = threshold(probs, 0.5)
        sub = violating_edges(g, tentative)
        y = exact_round(g, probs)
        _, best = brute_force_round(g, probs)
        assert subgraph_objective(g, probs, 0.5, y) == pytest.approx(best, abs=1e-9)
        # edges outside the violating subgraph keep their thresholded labels
        assert np.array_equal(y[~sub], tentative[~sub])
        assert check_constraints(g, y).violations == []


# saturated probabilities tie exactly, so the solver's positional tie-break shows
PROBS = st.sampled_from([1.0, 1.0, 1.0, 0.9, 0.75, 0.5, 0.3, 0.0])


@settings(max_examples=300, deadline=None)
@given(g=hand_built_graphs(), data=st.data(), tau=st.sampled_from([0.5, 0.25, 0.9]))
def test_exact_round_matches_dict_reference_bit_for_bit(g, data, tau):
    probs = np.asarray(data.draw(st.lists(PROBS, min_size=g.num_edges, max_size=g.num_edges)),
                       dtype=np.float64)
    got, want = exact_round(g, probs, tau), reference_exact_round(g, probs, tau)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_exact_round_matches_dict_reference_on_saturated_instances():
    rng = np.random.default_rng(11)
    for _ in range(300):
        g, probs = random_rounding_instance(rng)
        probs = np.where(probs >= 0.8, 1.0, probs)
        assert exact_round(g, probs).tobytes() == reference_exact_round(g, probs).tobytes()


def test_greedy_round_feasible_and_never_beats_exact():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g, probs = random_rounding_instance(rng)
        y_greedy = greedy_round(g, probs)
        y_exact = exact_round(g, probs)
        assert check_constraints(g, y_greedy).violations == []
        assert (subgraph_objective(g, probs, 0.5, y_greedy)
                <= subgraph_objective(g, probs, 0.5, y_exact) + 1e-12)


def test_greedy_tie_prefers_lower_edge_index():
    dets = [_det(0, 1), _det(1, 2), _det(2, 2)]
    g = graph_from_edge_list(dets, [(0, 1), (0, 2)])
    y = greedy_round(g, np.array([0.8, 0.8]))
    assert y.tolist() == [1, 0]


def test_extract_trajectories_paths_and_singletons():
    dets = [_det(0, 1), _det(1, 2), _det(2, 3), _det(3, 2)]
    g = graph_from_edge_list(dets, [(0, 1), (1, 2)])
    trajectories = extract_trajectories(g, np.array([1, 1]))
    assert sorted(trajectories) == [[0, 1, 2], [3]]


def test_extract_trajectories_rejects_violations():
    dets = [_det(0, 1), _det(1, 2), _det(2, 2)]
    g = graph_from_edge_list(dets, [(0, 1), (0, 2)])
    with pytest.raises(FeasibilityError):
        extract_trajectories(g, np.array([1, 1]))


def test_interpolation_fills_gap_linearly():
    dets = {
        0: Detection(node_id=0, frame=1, box=(0.0, 0.0, 4.0, 4.0),
                     confidence=1.0, appearance=np.zeros(2)),
        1: Detection(node_id=1, frame=3, box=(10.0, 2.0, 4.0, 8.0),
                     confidence=0.5, appearance=np.zeros(2)),
    }
    series = interpolate_track([0, 1], dets)
    assert [f for f, _, _ in series] == [1, 2, 3]
    frame, box, conf = series[1]
    assert box == pytest.approx((5.0, 1.0, 4.0, 6.0))
    assert conf == pytest.approx(0.75)


def test_interpolation_adjacent_frames_inserts_nothing():
    dets = {
        0: Detection(node_id=0, frame=4, box=(0.0, 0.0, 4.0, 4.0),
                     confidence=1.0, appearance=np.zeros(2)),
        1: Detection(node_id=1, frame=5, box=(2.0, 0.0, 4.0, 4.0),
                     confidence=1.0, appearance=np.zeros(2)),
    }
    series = interpolate_track([0, 1], dets)
    assert [f for f, _, _ in series] == [4, 5]


def test_pgm_round_trip(tmp_path):
    grid = np.array([[0.0, 0.5, 1.0]])
    path = tmp_path / "mask.pgm"
    write_mask_pgm(path, grid)
    text = path.read_text().splitlines()
    assert text[0] == "P2"
    assert text[1] == "3 1"
    assert text[2] == "255"
    assert text[3].split() == ["0", "128", "255"]
    back = read_mask_pgm(path)
    assert back == pytest.approx(grid, abs=1.0 / 255.0)


@pytest.mark.parametrize("pixels", ["300 0", "0 -5"])
def test_pgm_values_outside_0_to_maxval_are_a_parse_error(pixels, tmp_path):
    path = tmp_path / "mask.pgm"
    path.write_text(f"P2\n2 1\n255\n{pixels}\n")
    with pytest.raises(ParseError, match="must be in \\[0, 255\\]") as err:
        read_mask_pgm(path)
    assert str(path) in str(err.value)


# -0.0 and 0.0 tell a sum started from +0.0 from one started at the first value
WINDOW_VALUES = st.sampled_from([-0.0, 0.0, 1.0, 1e-300]) | st.floats(-10, 10)


@st.composite
def windowed_keys(draw):
    """(src, dst) key rows, each key in 1 to 15 windows, in shuffled order."""
    counts = draw(st.lists(st.integers(1, 15), max_size=6))
    pool = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                         min_size=len(counts), max_size=len(counts), unique=True))
    rows = draw(st.permutations([key for key, k in zip(pool, counts) for _ in range(k)]))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(rows=windowed_keys(), data=st.data())
def test_window_means_match_both_earlier_forms_bit_for_bit(rows, data):
    n = len(rows)
    probs = np.asarray(data.draw(st.lists(WINDOW_VALUES, min_size=n, max_size=n)), dtype=float)
    h, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    grids = data.draw(arrays(np.float64, (n, h, w), elements=WINDOW_VALUES))
    node_ids = rows[:, 0] * 6 + rows[:, 1]
    for keys, values in (((rows[:, 0], rows[:, 1]), probs), ((node_ids,), grids)):
        got_keys, got = _window_means(keys, values)
        want_keys, want = reference_window_means(keys, values)
        assert got_keys.shape == want_keys.shape and got.shape == want.shape
        assert got_keys.tobytes() == want_keys.tobytes()
        assert got.tobytes() == want.tobytes()


def _inference_fixture():
    scenario = generate_scenario(ScenarioConfig(
        num_frames=10, num_identities=3, detection_dropout=0.1, d_app=8, seed=3))
    cfg = MpnConfig(num_steps=2, variant="time_aware", d_node=8, d_edge=6, hidden=8)
    params = ModelParams(cfg, d_app=8, seed=0)
    return scenario, params


def test_run_inference_produces_feasible_partition():
    scenario, params = _inference_fixture()
    sol = run_inference(scenario, params, InferConfig(frames_per_graph=5, top_k=3))
    assert sol.constraint_report.total == 2 * len(scenario)
    union = graph_from_edge_list(scenario, list(sol.labels))
    y = np.array([sol.labels[pair] for pair in union.edge_pairs()])
    assert check_constraints(union, y).violations == []
    covered = sorted(n for traj in sol.trajectories for n in traj)
    assert covered == sorted(d.node_id for d in scenario)
    for track, ids in zip(sol.tracks, sol.track_node_ids):
        assert len(ids) >= 2
        frames = [f for f, _, _ in track]
        assert frames == list(range(frames[0], frames[-1] + 1))


def test_run_inference_greedy_rounder_feasible():
    scenario, params = _inference_fixture()
    sol = run_inference(scenario, params,
                        InferConfig(frames_per_graph=5, top_k=3, rounder="greedy"))
    union = graph_from_edge_list(scenario, list(sol.labels))
    y = np.array([sol.labels[pair] for pair in union.edge_pairs()])
    assert check_constraints(union, y).violations == []
    with pytest.raises(ConfigError):
        run_inference(scenario, params,
                      InferConfig(frames_per_graph=5, top_k=3, rounder="fancy"))


@pytest.mark.parametrize("count", [0, 1], ids=["empty", "one detection"])
@pytest.mark.parametrize("option, message", [("max_frame_gap", "max_frame_gap must be >= 1"),
                                             ("top_k", "top_k must be >= 1")])
def test_run_inference_checks_graph_options_without_a_window_to_build(count, option, message):
    # no window holds two detections, so no graph is ever built
    scenario, params = _inference_fixture()
    dets = scenario[:count]
    options = {"frames_per_graph": 5, "top_k": 3}
    assert run_inference(dets, params, InferConfig(**options)).trajectories == \
        [[d.node_id] for d in dets]
    with pytest.raises(ConfigError, match=message):
        run_inference(dets, params, InferConfig(**{**options, option: 0}))


def _count_forwards(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return mpn_forward(*args)

    monkeypatch.setattr("mpnflow.infer.mpn_forward", counted)
    return calls


@pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_run_inference_checks_tau_before_any_window_forward(tau, monkeypatch):
    scenario, params = _inference_fixture()
    calls = _count_forwards(monkeypatch)
    options = {"frames_per_graph": 5, "top_k": 3}
    with pytest.raises(ConfigError, match=r"^tau must be in \(0, 1\), got"):
        run_inference(scenario, params, InferConfig(**options, tau=tau))
    assert calls == []
    run_inference(scenario, params, InferConfig(**options))
    assert calls


def test_run_inference_rejects_a_repeated_node_id_before_any_window_forward(monkeypatch):
    scenario = generate_scenario(ScenarioConfig(
        num_frames=40, num_identities=2, detection_dropout=0.0, false_positive_rate=0.0,
        d_app=8, seed=3))
    _, params = _inference_fixture()
    dets = list(scenario)
    assert len(dets) == 80
    first = min(range(len(dets)), key=lambda i: dets[i].frame)
    last = max(range(len(dets)), key=lambda i: dets[i].frame)
    assert dets[last].frame - dets[first].frame == 39
    dets[last] = replace(dets[last], node_id=dets[first].node_id)
    calls = _count_forwards(monkeypatch)
    with pytest.raises(ConfigError, match=f"^duplicate node id {dets[first].node_id}$"):
        run_inference(dets, params, InferConfig(frames_per_graph=5, top_k=3))
    assert calls == []


def test_run_inference_builds_one_graph_per_window_of_two_or_more(monkeypatch):
    # the benchmark counts graphs, nodes and visited frames from these calls
    scenario, params = _inference_fixture()
    dets = scenario
    calls = []

    def counted(nodes, *args, **kwargs):
        calls.append(len(nodes.ids))
        return build_graph(nodes, *args, **kwargs)

    monkeypatch.setattr("mpnflow.infer.build_graph", counted)
    run_inference(dets, params, InferConfig(frames_per_graph=3, top_k=3))
    sizes = [len(rows) for rows in split_windows(dets, 3)]
    assert calls == [n for n in sizes if n >= 2] and len(calls) > 3


def test_run_inference_names_a_detection_without_appearance():
    scenario, params = _inference_fixture()
    dets = list(scenario)
    dets[5] = replace(dets[5], appearance=None)
    with pytest.raises(ConfigError, match=f"^detection {dets[5].node_id} has no appearance"):
        run_inference(dets, params, InferConfig(frames_per_graph=5, top_k=3))


def test_infer_config_rejects_a_one_frame_window():
    with pytest.raises(ConfigError, match="^frames_per_graph must be >= 2, got 1$"):
        InferConfig(frames_per_graph=1).validate()
    InferConfig(frames_per_graph=2).validate()


def test_run_inference_emits_masks_when_enabled():
    scenario = generate_scenario(ScenarioConfig(
        num_frames=4, num_identities=2, d_app=6, roi_h=4, roi_w=4, d_roi=2, seed=1))
    cfg = MpnConfig(num_steps=2, with_masks=True, d_node=8, d_edge=6, hidden=8,
                    conv_hidden=4, roi_h=4, roi_w=4, d_roi=2)
    params = ModelParams(cfg, d_app=6, seed=0)
    sol = run_inference(scenario, params, InferConfig(frames_per_graph=4, top_k=3))
    node_ids = {d.node_id for d in scenario}
    assert set(sol.node_masks) <= node_ids
    assert sol.node_masks, "expected at least one predicted mask"
    for grid in sol.node_masks.values():
        assert grid.shape == (4, 4)
        assert np.all((grid >= 0.0) & (grid <= 1.0))


def test_run_inference_averages_windows_in_window_order():
    scenario = generate_scenario(ScenarioConfig(
        num_frames=9, num_identities=3, detection_dropout=0.2, false_positive_rate=0.3,
        d_app=6, roi_h=4, roi_w=4, d_roi=2, seed=4))
    cfg = MpnConfig(num_steps=2, with_masks=True, d_node=8, d_edge=6, hidden=8,
                    conv_hidden=4, roi_h=4, roi_w=4, d_roi=2)
    params = ModelParams(cfg, d_app=6, seed=2)
    sol = run_inference(scenario, params, InferConfig(frames_per_graph=4, top_k=3))

    probs: dict = {}
    masks: dict = {}
    windows = reference_windows(scenario, 4)
    assert len(windows) > 3
    for dets in windows:
        if len(dets) < 2:
            continue
        g = graph_over(dets, 4, 3)
        with no_grad():
            state = mpn_forward(g, params)
            grids = predict_masks(state, params).data
        for pair, p in zip(g.edge_pairs(), state.final_probs()):
            probs.setdefault(pair, []).append(float(p))
        for nid, grid in zip(g.node_ids, grids):
            masks.setdefault(int(nid), []).append(grid)
    assert max(len(v) for v in probs.values()) > 2
    want = {pair: float(np.sum(v) / len(v)) for pair, v in probs.items()}
    assert sol.edge_probs == want
    assert set(sol.node_masks) == set(masks)
    for nid, grids in masks.items():
        assert sol.node_masks[nid].tobytes() == (np.sum(grids, axis=0) / len(grids)).tobytes()


def test_run_inference_averages_eight_or_more_windows_bit_for_bit():
    # numpy's pairwise summation changes form at 8 values, so some pair must
    # sit in at least 8 windows; input order must not matter either
    scenario = generate_scenario(ScenarioConfig(
        num_frames=20, num_identities=3, detection_dropout=0.1, false_positive_rate=0.3,
        d_app=6, roi_h=4, roi_w=4, d_roi=2, seed=5))
    cfg = MpnConfig(num_steps=2, with_masks=True, d_node=8, d_edge=6, hidden=8,
                    conv_hidden=4, roi_h=4, roi_w=4, d_roi=2)
    params = ModelParams(cfg, d_app=6, seed=3)
    dets = [scenario[i] for i in np.random.default_rng(0).permutation(len(scenario))]
    sol = run_inference(dets, params, InferConfig(frames_per_graph=10, top_k=3))

    probs: dict = {}
    masks: dict = {}
    for dets_w in reference_windows(dets, 10):
        if len(dets_w) < 2:
            continue
        g = graph_over(dets_w, 10, 3)
        with no_grad():
            state = mpn_forward(g, params)
            grids = predict_masks(state, params).data
        for pair, p in zip(g.edge_pairs(), state.final_probs()):
            probs.setdefault(pair, []).append(float(p))
        for nid, grid in zip(g.node_ids, grids):
            masks.setdefault(int(nid), []).append(grid)
    assert max(len(v) for v in probs.values()) >= 8
    pairs = sorted(probs)
    want = np.asarray([np.sum(probs[pair]) / len(probs[pair]) for pair in pairs])
    assert sorted(sol.edge_probs) == pairs == sorted(sol.labels)
    assert all(type(sol.edge_probs[pair]) is float and type(sol.labels[pair]) is int
               for pair in pairs)
    assert np.asarray([sol.edge_probs[pair] for pair in pairs]).tobytes() == want.tobytes()
    assert sorted(sol.node_masks) == sorted(masks)
    for nid, grids in masks.items():
        assert sol.node_masks[nid].tobytes() == (np.sum(grids, axis=0) / len(grids)).tobytes()
