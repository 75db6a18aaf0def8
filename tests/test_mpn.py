import json
import math

import numpy as np
import pytest
from conftest import count_calls, graph_over

from mpnflow import graph as gr
from mpnflow import mpn
from mpnflow import synthdata as sd
from mpnflow import tensorkit as tk
from mpnflow.errors import CheckpointError, ConfigError, config_from_dict


def det(nid, frame, box=(0.0, 0.0, 10.0, 10.0), app=None, rng=None, d_app=4):
    if app is None:
        app = rng.normal(size=d_app) if rng is not None else np.zeros(d_app)
    return sd.Detection(node_id=nid, frame=frame, box=box, appearance=np.asarray(app, float))


def tiny_config(**kw):
    base = dict(num_steps=2, variant="time_aware", with_masks=False,
                d_node=5, d_edge=4, hidden=6, conv_hidden=3,
                roi_h=4, roi_w=4, d_roi=2)
    base.update(kw)
    return mpn.MpnConfig(**base)


def path_graph(n_nodes, rng, d_app=4):
    dets = [det(i, i + 1, box=tuple(rng.uniform(5, 50, size=4)), rng=rng, d_app=d_app)
            for i in range(n_nodes)]
    return dets, gr.graph_from_edge_list(dets, [(i, i + 1) for i in range(n_nodes - 1)])


def one_edge_features(det_i, det_j):
    # edge_feature_matrix of the two-node graph with the single edge i -> j
    g = gr.TrackGraph(gr.NodeTable.from_detections([det_i, det_j]), np.zeros(1, np.int64),
                      np.ones(1, np.int64))
    return mpn.edge_feature_matrix(g, np.stack([det_i.appearance, det_j.appearance]))[0]


def test_encode_geometry_identical_boxes():
    a = det(0, 1)
    b = det(1, 2)
    feats = one_edge_features(a, b)
    assert np.array_equal(feats, [0, 0, 0, 0, 1, 0])


def test_encode_geometry_log_height_ratio():
    a = det(0, 1, box=(0, 0, 10, 20))
    b = det(1, 2, box=(0, 0, 10, 10), app=(0.5, 0.0, 0.0, 0.0))
    feats = one_edge_features(a, b)
    assert abs(feats[2] - math.log(2.0)) < 1e-12
    assert feats[5] == 0.5


def test_encode_geometry_rejects_bad_inputs():
    a = det(0, 1)
    b = det(1, 1)
    with pytest.raises(ConfigError):
        one_edge_features(a, b)
    c = det(2, 3)
    c.box = (0.0, 0.0, -5.0, 10.0)   # bypass construction check on purpose
    with pytest.raises(ConfigError):
        one_edge_features(a, c)


def test_edge_feature_matrix_names_the_first_offending_edge():
    dets = [det(0, 1), det(1, 2), det(2, 2), det(3, 3)]
    dets[3].box = (0.0, 0.0, 10.0, -1.0)   # bypass construction check on purpose
    app = np.zeros((4, 4))
    g = gr.TrackGraph(gr.NodeTable.from_detections(dets), np.array([0, 1, 2]), np.array([1, 2, 3]))
    with pytest.raises(ConfigError, match=r"edge \(1, 2\) joins equal frames"):
        mpn.edge_feature_matrix(g, app)
    g = gr.TrackGraph(gr.NodeTable.from_detections(dets), np.array([0, 2]), np.array([1, 3]))
    with pytest.raises(ConfigError, match=r"edge \(2, 3\) has non-positive box dims"):
        mpn.edge_feature_matrix(g, app)


def test_classifier_logit_to_probability():
    assert abs(tk.sigmoid(tk.Tensor([0.8473])).data[0] - 0.7) < 1e-4


def test_vanilla_update_matches_hand_formula():
    rng = np.random.default_rng(0)
    dets = [det(0, 1, rng=rng), det(1, 2, rng=rng), det(2, 4, rng=rng)]
    g = gr.graph_from_edge_list(dets, [(0, 1)])   # node 2 is isolated
    cfg = tiny_config(variant="vanilla", num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=1)
    state = mpn.mpn_forward(g, params)

    app = np.stack(g.nodes.appearance)
    h0 = params.node_encoder(tk.Tensor(app)).data
    e0 = params.edge_encoder(tk.Tensor(mpn.edge_feature_matrix(g, app))).data
    u, v = g.edge_src[0], g.edge_dst[0]
    e1 = params.edge_update(tk.Tensor(
        np.concatenate([h0[u], h0[v], e0[0], e0[0]])[None, :])).data[0]
    msg_u = params.node_update(tk.Tensor(np.concatenate([h0[u], e1])[None, :])).data[0]
    msg_v = params.node_update(tk.Tensor(np.concatenate([h0[v], e1])[None, :])).data[0]
    assert np.allclose(state.edge_h[1].data[0], e1, atol=1e-12)
    assert np.allclose(state.node_h[1].data[u], msg_u, atol=1e-12)
    assert np.allclose(state.node_h[1].data[v], msg_v, atol=1e-12)
    # empty neighborhood aggregates to the exact zero vector
    iso = [i for i in range(3) if i not in (u, v)][0]
    assert np.array_equal(state.node_h[1].data[iso], np.zeros(cfg.d_node))


def test_time_aware_update_matches_hand_formula():
    rng = np.random.default_rng(2)
    dets = [det(0, 1, rng=rng), det(1, 2, rng=rng)]
    g = gr.graph_from_edge_list(dets, [(0, 1)])
    cfg = tiny_config(num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=3)
    state = mpn.mpn_forward(g, params)

    app = np.stack(g.nodes.appearance)
    h0 = params.node_encoder(tk.Tensor(app)).data
    e0 = params.edge_encoder(tk.Tensor(mpn.edge_feature_matrix(g, app))).data
    u, v = g.edge_src[0], g.edge_dst[0]
    e1 = params.edge_update(tk.Tensor(
        np.concatenate([h0[u], h0[v], e0[0], e0[0]])[None, :])).data[0]
    zeros = np.zeros(cfg.d_node)
    # v has one past neighbor and no future ones; u is the mirror image
    past_v = params.node_update_past(tk.Tensor(
        np.concatenate([h0[v], e1, h0[v]])[None, :])).data[0]
    fut_u = params.node_update_fut(tk.Tensor(
        np.concatenate([h0[u], e1, h0[u]])[None, :])).data[0]
    want_v = params.node_update(tk.Tensor(np.concatenate([past_v, zeros])[None, :])).data[0]
    want_u = params.node_update(tk.Tensor(np.concatenate([zeros, fut_u])[None, :])).data[0]
    assert np.allclose(state.node_h[1].data[v], want_v, atol=1e-12)
    assert np.allclose(state.node_h[1].data[u], want_u, atol=1e-12)


def test_recorded_steps_cover_last_m():
    rng = np.random.default_rng(4)
    _, g = path_graph(5, rng)
    cfg = tiny_config(num_steps=4, last_m_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=5)
    state = mpn.mpn_forward(g, params)
    assert state.recorded_steps() == [3, 4]
    probs = state.final_probs()
    assert probs.shape == (g.num_edges,)
    assert np.all((probs > 0) & (probs < 1))


def test_zero_steps_classifies_initial_embeddings():
    rng = np.random.default_rng(5)
    _, g = path_graph(4, rng)
    cfg = tiny_config(num_steps=0)
    params = mpn.ModelParams(cfg, d_app=4, seed=6)
    state = mpn.mpn_forward(g, params)
    assert state.recorded_steps() == [0]
    logits = params.edge_logits(state.edge_h[0]).data.reshape(-1)
    want = 1.0 / (1.0 + np.exp(-logits))
    assert np.allclose(state.edge_probs[0].data, want, atol=1e-12)


def test_zero_steps_still_checks_appearance_width():
    rng = np.random.default_rng(5)
    _, g = path_graph(3, rng, d_app=3)
    params = mpn.ModelParams(tiny_config(num_steps=0), d_app=4, seed=6)
    with pytest.raises(ConfigError) as e:
        mpn.mpn_forward(g, params)
    assert "appearance dim 3" in str(e.value)


def test_attention_normalizes_per_node_per_side():
    rng = np.random.default_rng(6)
    dets = [det(i, f, rng=rng) for i, f in enumerate([1, 1, 1, 2, 3, 3])]
    pairs = [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (0, 4), (1, 5)]
    for d in dets:
        d.roi_grid = rng.normal(size=(4, 4, 2))
    g = gr.graph_from_edge_list(dets, pairs)
    cfg = tiny_config(with_masks=True, num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=7)
    state = mpn.mpn_forward(g, params)
    for l, (a_past, a_fut) in state.attention.items():
        for node in range(g.num_nodes):
            past = a_past.data[g.edge_dst == node]
            if past.size:
                assert abs(past.sum() - 1.0) <= 1e-12
            fut = a_fut.data[g.edge_src == node]
            if fut.size:
                assert abs(fut.sum() - 1.0) <= 1e-12


def test_classifier_and_attention_share_the_logit_head():
    rng = np.random.default_rng(7)
    dets = [det(i, f, rng=rng) for i, f in enumerate([1, 1, 2])]
    for d in dets:
        d.roi_grid = rng.normal(size=(4, 4, 2))
    g = gr.graph_from_edge_list(dets, [(0, 2), (1, 2)])
    cfg = tiny_config(with_masks=True, num_steps=1)
    params = mpn.ModelParams(cfg, d_app=4, seed=8)
    for w in params.edge_logits.weights:
        w.data = np.zeros_like(w.data)
    for b in params.edge_logits.biases:
        b.data = np.zeros_like(b.data)
    state = mpn.mpn_forward(g, params)
    assert np.allclose(state.edge_probs[1].data, 0.5, atol=1e-15)
    a_past, _ = state.attention[1]
    assert np.allclose(a_past.data[g.edge_dst == np.nonzero(g.frames == 2)[0][0]], 0.5,
                       atol=1e-15)


def test_mask_prediction_shape_and_range():
    rng = np.random.default_rng(8)
    dets = [det(i, f, rng=rng) for i, f in enumerate([1, 2, 3])]
    for d in dets:
        d.roi_grid = rng.normal(size=(4, 4, 2))
    g = gr.graph_from_edge_list(dets, [(0, 1), (1, 2)])
    cfg = tiny_config(with_masks=True, num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=9)
    state = mpn.mpn_forward(g, params)
    masks = mpn.predict_masks(state, params)
    assert masks.data.shape == (3, 4, 4)
    assert np.all((masks.data > 0) & (masks.data < 1))
    first = mpn.predict_masks(state, params, step=0)
    assert first.data.shape == (3, 4, 4)
    with pytest.raises(ConfigError):
        mpn.predict_masks(state, params, step=9)


def masked_path_graph(rng):
    dets = [det(i, f, rng=rng) for i, f in enumerate([1, 2, 3])]
    for d in dets:
        d.roi_grid = rng.normal(size=(4, 4, 2))
    return gr.graph_from_edge_list(dets, [(0, 1), (1, 2)])


def test_mask_inference_builds_no_col2im_operator(monkeypatch):
    # as run_inference does: no backward, so no conv input gradient to sum
    builds = count_calls(monkeypatch, tk.ConvGrid, "_build")
    params = mpn.ModelParams(tiny_config(with_masks=True), d_app=4, seed=9)
    with tk.no_grad():
        state = mpn.mpn_forward(masked_path_graph(np.random.default_rng(8)), params)
        mpn.predict_masks(state, params)
    assert state.roi_grid.shape == (3, 4, 4) and builds == []


def test_model_without_masks_makes_no_conv_grid(monkeypatch):
    made = count_calls(monkeypatch, tk.ConvGrid, "__init__")
    params = mpn.ModelParams(tiny_config(with_masks=False), d_app=4, seed=9)
    state = mpn.mpn_forward(masked_path_graph(np.random.default_rng(8)), params)
    tk.backward(tk.tsum(state.edge_probs[max(state.edge_probs)]))
    assert state.roi_grid is None and made == []


def test_masks_with_zero_steps_use_initial_grids():
    rng = np.random.default_rng(9)
    dets = [det(i, f, rng=rng) for i, f in enumerate([1, 2])]
    for d in dets:
        d.roi_grid = rng.normal(size=(4, 4, 2))
    g = gr.graph_from_edge_list(dets, [(0, 1)])
    cfg = tiny_config(with_masks=True, num_steps=0)
    params = mpn.ModelParams(cfg, d_app=4, seed=10)
    state = mpn.mpn_forward(g, params)
    assert len(state.tilde_h) == 1
    assert mpn.predict_masks(state, params).data.shape == (2, 4, 4)


def test_permutation_equivariance_is_bit_exact():
    rng = np.random.default_rng(10)
    dets = []
    nid = 0
    for frame in range(1, 6):
        for _ in range(3):
            d = sd.Detection(node_id=nid, frame=frame,
                             box=tuple(rng.uniform(5, 200, size=4)),
                             appearance=rng.normal(size=4),
                             roi_grid=rng.normal(size=(4, 4, 2)))
            dets.append(d)
            nid += 1
    cfg = tiny_config(with_masks=True, num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=11)
    g1 = graph_over(dets, 3, 3)
    state1 = mpn.mpn_forward(g1, params)
    masks1 = mpn.predict_masks(state1, params)

    perm = {d.node_id: 977 - 13 * d.node_id for d in dets}
    relabeled = [sd.Detection(node_id=perm[d.node_id], frame=d.frame, box=d.box,
                              appearance=d.appearance, roi_grid=d.roi_grid)
                 for d in reversed(dets)]
    g2 = graph_over(relabeled, 3, 3)
    state2 = mpn.mpn_forward(g2, params)
    masks2 = mpn.predict_masks(state2, params)

    assert {(perm[a], perm[b]) for a, b in g1.edge_pairs()} == set(g2.edge_pairs())
    # content-keyed canonical order makes the arrays line up bit for bit
    assert np.array_equal(state1.final_probs(), state2.final_probs())
    assert np.array_equal(masks1.data, masks2.data)


def test_receptive_field_respects_graph_distance():
    rng = np.random.default_rng(12)
    base, _ = path_graph(6, rng)
    cfg = tiny_config(num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=13)

    def prob_of_first_edge(dets):
        g = gr.graph_from_edge_list(dets, [(i, i + 1) for i in range(5)])
        state = mpn.mpn_forward(g, params)
        probs = state.final_probs()
        pairs = g.edge_pairs()
        return probs[pairs.index((0, 1))]

    p_base = prob_of_first_edge(base)
    far = [sd.Detection(d.node_id, d.frame, d.box, appearance=d.appearance.copy())
           for d in base]
    far[5].appearance = far[5].appearance + 3.0   # graph distance 4 > num_steps + 1
    assert prob_of_first_edge(far) == p_base

    near = [sd.Detection(d.node_id, d.frame, d.box, appearance=d.appearance.copy())
            for d in base]
    near[2].appearance = near[2].appearance + 3.0  # distance 1 from an endpoint
    assert prob_of_first_edge(near) != p_base


def test_params_init_is_seed_deterministic():
    cfg = tiny_config(with_masks=True)
    a = mpn.ModelParams(cfg, d_app=4, seed=21)
    b = mpn.ModelParams(cfg, d_app=4, seed=21)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()


def test_params_reject_a_negative_seed_naming_it():
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        mpn.ModelParams(tiny_config(), d_app=4, seed=-1)


def test_model_params_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    _, g = path_graph(4, rng)
    cfg = tiny_config(num_steps=2)
    params = mpn.ModelParams(cfg, d_app=4, seed=15)
    before = mpn.mpn_forward(g, params).final_probs()
    path = tmp_path / "model.json"
    params.save(path)
    loaded = mpn.ModelParams.load(path)
    assert loaded.config == cfg
    after = mpn.mpn_forward(g, loaded).final_probs()
    assert np.array_equal(before, after)


def _checkpoint_with_aggregation(tmp_path, params, aggregation):
    # the model metadata of checkpoints written while aggregation was a
    # config field
    path = tmp_path / f"model_{aggregation}.json"
    params.save(path)
    doc = json.loads(path.read_text())
    doc["extra"]["model"]["aggregation"] = aggregation
    path.write_text(json.dumps(doc))
    return path


def test_checkpoint_with_sum_aggregation_loads_bit_identically(tmp_path):
    rng = np.random.default_rng(16)
    _, g = path_graph(4, rng)
    params = mpn.ModelParams(tiny_config(), d_app=4, seed=17)
    before = mpn.mpn_forward(g, params).final_probs()
    loaded = mpn.ModelParams.load(_checkpoint_with_aggregation(tmp_path, params, "sum"))
    assert loaded.config == params.config
    assert np.array_equal(mpn.mpn_forward(g, loaded).final_probs(), before)


def test_checkpoint_with_other_aggregation_is_rejected(tmp_path):
    params = mpn.ModelParams(tiny_config(), d_app=4, seed=17)
    with pytest.raises(CheckpointError, match="aggregation 'max'"):
        mpn.ModelParams.load(_checkpoint_with_aggregation(tmp_path, params, "max"))


def test_config_validation():
    with pytest.raises(ConfigError):
        mpn.MpnConfig(variant="fancy").validate()
    with pytest.raises(ConfigError):
        mpn.MpnConfig(num_steps=-1).validate()
    with pytest.raises(ConfigError):
        mpn.MpnConfig(num_steps=2, last_m_steps=3).validate()
    with pytest.raises(ConfigError):
        config_from_dict(mpn.MpnConfig, "model", {"nope": 1})
    assert mpn.MpnConfig(num_steps=8).resolved_last_m() == 6
    assert mpn.MpnConfig(num_steps=0).resolved_last_m() == 1


@pytest.mark.parametrize("key, value", [
    ("num_steps", "2"), ("num_steps", True), ("num_steps", 2.0), ("d_node", None),
    ("with_masks", 1), ("with_masks", "true"), ("variant", 3), ("last_m_steps", "1"),
    ("last_m_steps", False)])
def test_config_from_dict_rejects_wrongly_typed_values_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        config_from_dict(mpn.MpnConfig, "model", {key: value})


def test_config_from_dict_accepts_declared_types():
    cfg = config_from_dict(mpn.MpnConfig, "model", {"num_steps": 3, "with_masks": True,
                                                    "variant": "vanilla", "last_m_steps": None})
    assert cfg == mpn.MpnConfig(num_steps=3, with_masks=True, variant="vanilla")
    cfg = config_from_dict(mpn.MpnConfig, "model", {"num_steps": 3, "last_m_steps": 2})
    assert cfg.last_m_steps == 2
