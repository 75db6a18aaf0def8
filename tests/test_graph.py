import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import graph_over
from oracles import (hand_built_graphs, reference_build_graph, reference_canonical_order,
                     reference_check_constraints, reference_degrees, reference_edge_feature_matrix,
                     reference_graph_from_edge_list, reference_ground_truth_labels,
                     reference_windows)

from mpnflow import graph as gr
from mpnflow import mpn
from mpnflow import synthdata as sd
from mpnflow.errors import ConfigError


def det(nid, frame, x=0.0, app=(0.0,)):
    return sd.Detection(node_id=nid, frame=frame, box=(x, 0.0, 10.0, 10.0),
                        appearance=np.asarray(app, dtype=float))


def test_all_pairs_connected_with_generous_budget():
    dets = [det(0, 1, app=(0.0,)), det(1, 1, x=20, app=(1.0,)),
            det(2, 2, app=(0.2,)), det(3, 3, app=(0.4,))]
    g = graph_over(dets, 5, 10)
    # 2 nodes in frame 1 each connect to frames 2 and 3, plus the 2-3 pair
    assert g.num_edges == 5
    for u, v in zip(g.edge_src, g.edge_dst):
        assert g.frames[u] < g.frames[v]


def test_frame_gap_limits_candidates():
    dets = [det(0, 1), det(1, 2, app=(0.1,)), det(2, 5, app=(0.2,))]
    g = graph_over(dets, 2, 10)
    pairs = set(g.edge_pairs())
    assert (0, 1) in pairs
    assert (0, 2) not in pairs            # gap 4 exceeds the limit
    assert (1, 2) not in pairs            # gap 3 exceeds the limit
    # None sets no limit
    g = graph_over(dets, None, 10)
    assert set(g.edge_pairs()) == {(0, 1), (0, 2), (1, 2)}


def test_mutual_top_k_prunes_one_sided_neighbors():
    # b's nearest is c, but c prefers a; with k=1 only (a, c) survives
    dets = [det(0, 1, app=(0.0,)), det(1, 1, x=30, app=(1.0,)), det(2, 2, app=(0.1,))]
    g = graph_over(dets, 3, 1)
    assert g.edge_pairs() == [(0, 2)]


def test_knn_tie_broken_by_lower_node_id():
    # two frame-2 nodes at identical appearance distance from node 0
    dets = [det(0, 1, app=(0.0,)), det(5, 2, x=10, app=(1.0,)), det(3, 2, x=50, app=(-1.0,))]
    g = graph_over(dets, 2, 1)
    assert g.edge_pairs() == [(0, 3)]


def test_missing_appearance_rejected():
    d = sd.Detection(node_id=0, frame=1, box=(0, 0, 5, 5))
    with pytest.raises(ConfigError):
        graph_over([d], 2, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_appearance_rejected_naming_the_node(bad):
    dets = [det(0, 1, app=(0.0, 1.0)), det(7, 2, app=(bad, 1.0)), det(2, 3, app=(1.0, 1.0))]
    with pytest.raises(ConfigError, match="detection 7 "):
        graph_over(dets, 2, 3)


# a few shared values force distance ties; huge ones overflow distances to inf
APP_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0, 1e200, -1e200]) | st.floats(-10, 10)


@st.composite
def detection_sets(draw):
    n = draw(st.integers(0, 40))
    dim = draw(st.sampled_from([2, 8, 16]))
    palette = draw(st.lists(st.lists(APP_VALUES, min_size=dim, max_size=dim), min_size=1,
                            max_size=8))
    ids = draw(st.permutations(range(60)))[:n]
    dets = []
    for nid in ids:
        x, y = draw(st.sampled_from([0.0, 5.0])), draw(st.floats(-50, 50))
        w, h = draw(st.sampled_from([10.0, 20.0])), draw(st.floats(0.5, 80))
        dets.append(sd.Detection(node_id=nid, frame=draw(st.integers(1, 8)), box=(x, y, w, h),
                                 appearance=np.asarray(draw(st.sampled_from(palette)))))
    return dets


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dets=detection_sets(), top_k=st.integers(1, 12), gap=st.none() | st.integers(1, 6))
def test_build_graph_matches_loop_reference_bit_for_bit(dets, top_k, gap):
    with np.errstate(over="ignore"):
        g = graph_over(dets, gap, top_k)
        ref = reference_build_graph(dets, gap, top_k)
        rebuilt = gr.graph_from_edge_list(dets, g.edge_pairs())
    assert g.edge_src.dtype == g.edge_dst.dtype == np.int64
    assert np.array_equal(g.edge_src, ref.edge_src)
    assert np.array_equal(g.edge_dst, ref.edge_dst)
    # a graph rebuilt from its own pairs gets the same arrays
    for name in ("edge_src", "edge_dst"):
        assert getattr(rebuilt, name).tobytes() == getattr(g, name).tobytes(), name


@st.composite
def ranked_windows(draw):
    """Detections, a row subset of them with jittered boxes, and the same
    window as detections for the oracle."""
    dets = draw(detection_sets())
    rows = sorted(draw(st.sets(st.sampled_from(range(len(dets))))) if dets else [])
    window = []
    for i in rows:
        x, y, w, h = dets[i].box
        dx, dy, dw, dh = (draw(st.sampled_from([0.0, 0.5, -3.0])) for _ in range(4))
        window.append(dataclasses.replace(
            dets[i], box=(x + dx, y + dy, max(w + dw, 1.0), max(h + dh, 1.0))))
    return dets, np.asarray(rows, dtype=np.int64), window


def assert_same_graph(g, ref):
    assert g.node_ids.tolist() == ref.node_ids.tolist()
    assert g.nodes.boxes.tobytes() == ref.nodes.boxes.tobytes()
    for name in ("edge_src", "edge_dst"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=ranked_windows(), top_k=st.integers(1, 12), ranked_gap=st.none() | st.integers(1, 8))
def test_cut_from_partners_matches_loop_reference_on_every_window(case, top_k, ranked_gap):
    dets, rows, window = case
    table = gr.NodeTable.from_detections(dets)
    nodes = table.take(rows)
    nodes.boxes = gr.NodeTable.from_detections(window).boxes
    with np.errstate(over="ignore"):
        g = gr.build_graph(nodes, gr.Partners(table, ranked_gap), top_k)
        ref = reference_build_graph(window, ranked_gap, top_k)
    assert_same_graph(g, ref)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dets=detection_sets(), frames_per_graph=st.integers(2, 6), top_k=st.integers(1, 12))
def test_ranking_at_the_window_gap_gives_every_split_window_the_graph_of_the_gap(
        dets, frames_per_graph, top_k):
    # a window spans at most frames_per_graph - 1 frames, so ranking at
    # window_gap(gap, frames_per_graph) gives each window the graph of gap
    table = gr.NodeTable.from_detections(dets)
    windows = gr.split_windows(dets, frames_per_graph)
    for gap in [None, *range(1, frames_per_graph + 3)]:
        with np.errstate(over="ignore"):
            partners = gr.Partners(table, gr.window_gap(gap, frames_per_graph))
            for rows in windows:
                g = gr.build_graph(table.take(rows), partners, top_k)
                assert_same_graph(g, reference_build_graph([dets[i] for i in rows], gap, top_k))


def test_cut_breaks_distance_ties_by_lower_node_id():
    # node 0's partners 9, 3 and 5 all lie at distance 1; with k=2 it keeps 3 and 5
    dets = [det(0, 1, app=(0.0,)), det(9, 2, x=1, app=(1.0,)), det(3, 2, x=2, app=(-1.0,)),
            det(5, 3, x=3, app=(1.0,))]
    table = gr.NodeTable.from_detections(dets)
    g = gr.build_graph(table, gr.Partners(table, 2), 2)
    assert [pair for pair in g.edge_pairs() if 0 in pair] == [(0, 3), (0, 5)]


def test_cut_of_an_empty_window_and_of_nodes_without_partners():
    dets = [det(0, 1), det(1, 1, x=5), det(2, 4, app=(0.3,))]
    table = gr.NodeTable.from_detections(dets)
    for ranked_gap in (None, 2):
        partners = gr.Partners(table, ranked_gap)
        empty = gr.build_graph(table.take(np.zeros(0, np.int64)), partners, 3)
        assert empty.num_nodes == 0 and empty.num_edges == 0
        assert empty.edge_src.dtype == empty.edge_dst.dtype == np.int64
        # a window of one frame: no node has a partner in it
        lone = gr.build_graph(table.take(np.array([0, 1])), partners, 3)
        assert lone.num_nodes == 2 and lone.num_edges == 0
    # frames 3 apart under a ranking gap of 2: no node has a partner at all
    lone = gr.build_graph(table, gr.Partners(table, 2), 3)
    assert lone.num_nodes == 3 and lone.num_edges == 0
    empty = gr.NodeTable.from_detections([])
    assert gr.build_graph(empty, gr.Partners(empty, None), 1).num_nodes == 0


def test_cut_rejects_a_node_missing_from_the_ranked_table():
    table = gr.NodeTable.from_detections([det(0, 1), det(4, 2, app=(1.0,))])
    other = gr.NodeTable.from_detections([det(0, 1), det(7, 2, app=(1.0,))])
    for partners in (gr.Partners(table, None), gr.Partners(table.take(np.zeros(0, int)), None)):
        with pytest.raises(ConfigError, match="^node 7 is not in the ranked node table$"):
            gr.build_graph(other.take(np.array([1])), partners, 3)


def test_partners_check_the_gap_and_name_a_node_without_appearance():
    with pytest.raises(ConfigError, match="^max_frame_gap must be >= 1, got 0$"):
        gr.Partners(gr.NodeTable.from_detections([det(0, 1)]), 0)
    dets = [det(0, 1), sd.Detection(node_id=8, frame=2, box=(0, 0, 5, 5))]
    with pytest.raises(ConfigError, match="^detection 8 has no appearance vector$"):
        gr.Partners(gr.NodeTable.from_detections(dets), None)


@st.composite
def edge_lists(draw):
    """Detections, some without appearance, and cross-frame pairs drawn with
    replacement in either orientation."""
    dets = [dataclasses.replace(d, appearance=None) if draw(st.integers(0, 3)) == 0 else d
            for d in draw(detection_sets())]
    cross = [(a.node_id, b.node_id) for a in dets for b in dets if a.frame != b.frame]
    pairs = draw(st.lists(st.sampled_from(cross), max_size=60)) if cross else []
    return dets, pairs


def _config_error(build, dets, pairs):
    with pytest.raises(ConfigError) as err:
        build(dets, pairs)
    return str(err.value)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=edge_lists(), bad_id=st.integers(-3, 65), at=st.integers(0, 60))
def test_graph_from_edge_list_matches_dict_loop_reference(case, bad_id, at):
    dets, pairs = case
    with np.errstate(over="ignore"):
        ref = reference_graph_from_edge_list(dets, pairs)
        for given_pairs in (pairs, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)):
            g = gr.graph_from_edge_list(dets, given_pairs)
            for name in ("edge_src", "edge_dst"):
                got, want = getattr(g, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    # bad pairs spliced in, either kind first: an unknown id, or two
    # detections of one frame; the error names the first of them
    ids = {d.node_id for d in dets}
    same_frame = [(a.node_id, b.node_id) for a in dets for b in dets if a.frame == b.frame]
    bad = [(bad_id, d.node_id) for d in dets[:1] if bad_id not in ids] + same_frame[:at % 3]
    for first in range(len(bad)):
        spliced = pairs[:at] + bad[first:] + bad[:first] + pairs[at:]
        want = _config_error(reference_graph_from_edge_list, dets, spliced)
        assert _config_error(gr.graph_from_edge_list, dets, spliced) == want
        assert _config_error(gr.graph_from_edge_list, dets, np.asarray(spliced)) == want


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dets=detection_sets(), top_k=st.integers(1, 12), gap=st.integers(1, 6))
def test_edge_feature_matrix_matches_per_edge_loop_bit_for_bit(dets, top_k, gap):
    with np.errstate(over="ignore"):
        g = graph_over(dets, gap, top_k)
        app = np.stack(g.nodes.appearance) if g.num_nodes else np.zeros((0, 2))
        feats = mpn.edge_feature_matrix(g, app)
        want = reference_edge_feature_matrix(g, app)
    assert feats.shape == (g.num_edges, mpn.EDGE_FEATURE_DIM)
    assert feats.tobytes() == want.tobytes()


# few distinct values, so frames and whole boxes tie, and both signs of zero
TIED = st.sampled_from([0.0, -0.0, 1.0, 5.0])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 3), TIED, TIED, st.sampled_from([1.0, 2.0]),
                               st.sampled_from([1.0, 2.0])), max_size=30),
       data=st.data())
def test_canonical_order_matches_sorted_oracle(rows, data):
    ids = data.draw(st.permutations(range(100)))[:len(rows)]
    dets = [sd.Detection(node_id=nid, frame=f, box=box) for nid, (f, *box) in zip(ids, rows)]
    dets = data.draw(st.permutations(dets))
    got = gr.NodeTable.from_detections(dets).canonical().ids.tolist()
    assert got == [d.node_id for d in reference_canonical_order(dets)]


@pytest.mark.parametrize("coord", [0, 1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_box_rejected_naming_the_node(coord, bad):
    dets = [det(0, 1), det(1, 2)]
    box = list(dets[1].box)
    box[coord] = bad
    dets[1].box = tuple(box)        # set after the record's own size check
    for build in (lambda: graph_over(dets, None, 3),
                  lambda: gr.graph_from_edge_list(dets, [(0, 1)])):
        with pytest.raises(ConfigError, match="^detection 1 has a non-finite box$"):
            build()


@pytest.mark.parametrize("column, what", [("roi_grid", "roi grid"), ("gt_mask", "mask")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_roi_grid_or_mask_rejected_naming_the_node(column, what, bad):
    dets = [sd.Detection(node_id=i, frame=i, box=(0.0, 0.0, 5.0, 5.0), appearance=np.zeros(2),
                         roi_grid=np.zeros((4, 4, 2)), gt_mask=np.ones((4, 4))) for i in range(3)]
    getattr(dets[1], column)[2, 1] = bad
    with pytest.raises(ConfigError, match=f"^detection 1 has a non-finite {what}$"):
        gr.NodeTable.from_detections(dets)


def test_node_table_carries_each_identity_through_canonical_order():
    dets = [dataclasses.replace(det(5, 2), gt_identity=3), det(1, 1),
            dataclasses.replace(det(9, 1, x=4.0), gt_identity=0)]
    table = gr.NodeTable.from_detections(dets)
    assert table.gt_identity.dtype == np.int64 and table.gt_identity.tolist() == [3, -1, 0]
    canon = table.canonical()
    assert canon.ids.tolist() == [1, 9, 5] and canon.gt_identity.tolist() == [-1, 0, 3]


def test_relabeling_gives_isomorphic_graph():
    rng = np.random.default_rng(0)
    dets = []
    nid = 0
    for frame in range(1, 5):
        for _ in range(3):
            dets.append(sd.Detection(node_id=nid, frame=frame,
                                     box=tuple(rng.uniform(1, 100, size=4)),
                                     appearance=rng.normal(size=4)))
            nid += 1
    g1 = graph_over(dets, 3, 2)
    perm = {d.node_id: 1000 - d.node_id for d in dets}
    relabeled = [sd.Detection(node_id=perm[d.node_id], frame=d.frame, box=d.box,
                              appearance=d.appearance) for d in reversed(dets)]
    g2 = graph_over(relabeled, 3, 2)
    mapped = {(perm[a], perm[b]) for a, b in g1.edge_pairs()}
    assert mapped == set(g2.edge_pairs())
    # canonical order is content-keyed, so positional arrays agree too
    assert np.array_equal(g1.edge_src, g2.edge_src)
    assert np.array_equal(g1.edge_dst, g2.edge_dst)


def window_frames(dets, windows):
    return [[dets[i].frame for i in w] for w in windows]


def test_split_windows_frozen_example():
    dets = [det(i, f) for i, f in enumerate(range(1, 21))]
    wins = gr.split_windows(dets, 15)
    assert window_frames(dets, wins) == [list(range(f, f + 15)) for f in range(1, 7)]


def test_split_windows_short_sequence_and_gaps():
    dets = [det(i, f) for i, f in enumerate(range(1, 11))]
    assert window_frames(dets, gr.split_windows(dets, 15)) == [list(range(1, 11))]
    # start frames must be present: frame 2 is missing
    dets = [det(0, 1), det(1, 3), det(2, 4), det(3, 5), det(4, 6)]
    assert window_frames(dets, gr.split_windows(dets, 3)) == [[1, 3], [3, 4, 5], [4, 5, 6]]


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(st.integers(0, 40), max_size=60), frames_per_graph=st.integers(2, 12))
def test_split_windows_matches_bounds_and_filter_reference(frames, frames_per_graph):
    # unsorted frames with repeats and gaps; a short span gives one window
    dets = [det(i, f) for i, f in enumerate(frames)]
    got = gr.split_windows(dets, frames_per_graph)
    want = reference_windows(dets, frames_per_graph)
    assert [[id(dets[i]) for i in w] for w in got] == [[id(d) for d in w] for w in want]


def test_ground_truth_labels_consecutive_and_skip():
    rng = np.random.default_rng(1)
    dets = [sd.Detection(node_id=i, frame=f, box=(10.0 * i, 0, 5, 5),
                         appearance=rng.normal(size=3), gt_identity=0)
            for i, f in enumerate([1, 2, 3])]
    g = graph_over(dets, 2, 5)
    labels = dict(zip(g.edge_pairs(), gr.ground_truth_labels(g)))
    assert labels[(0, 1)] == 1 and labels[(1, 2)] == 1
    assert labels[(0, 2)] == 0

    # drop the middle detection: the skip edge becomes the consecutive one
    g2 = graph_over([dets[0], dets[2]], 2, 5)
    labels2 = dict(zip(g2.edge_pairs(), gr.ground_truth_labels(g2)))
    assert labels2[(0, 2)] == 1


def test_background_nodes_keep_negative_labels():
    rng = np.random.default_rng(2)
    dets = [sd.Detection(node_id=i, frame=f, box=(5.0 * i, 0, 5, 5),
                         appearance=rng.normal(size=3), gt_identity=ident)
            for i, (f, ident) in enumerate([(1, 0), (1, None), (2, 0)])]   # node 1 is clutter
    g = graph_over(dets, 1, 5)
    labels = gr.ground_truth_labels(g)
    assert labels.dtype == np.float64 and labels.shape == (g.num_edges,)
    by_pair = dict(zip(g.edge_pairs(), labels))
    assert by_pair[(0, 2)] == 1.0
    assert by_pair[(1, 2)] == 0.0
    assert labels.sum() == 1


def test_labels_respect_degree_constraints_on_random_scenarios():
    for seed in range(5):
        cfg = sd.ScenarioConfig(num_frames=12, num_identities=4,
                                detection_dropout=0.25, false_positive_rate=0.8,
                                pos_noise_std=1.0, seed=seed)
        sc = sd.generate_scenario(cfg)
        g = graph_over(sc.detections, 12, 4)
        labels = gr.ground_truth_labels(g)   # raises if infeasible
        assert set(np.unique(labels)).issubset({0.0, 1.0})


def test_ground_truth_labels_reject_an_identity_twice_in_one_frame():
    dets = [dataclasses.replace(det(nid, f, x=x, app=(x,)), gt_identity=ident)
            for nid, f, x, ident in [(0, 1, 0.0, 3), (1, 2, 1.0, 3), (2, 2, 2.0, 3), (3, 2, 3.0, 4)]]
    g = graph_over(dets, 2, 5)
    with pytest.raises(ConfigError, match="^identity 3 has two detections in frame 2$"):
        gr.ground_truth_labels(g)
    # background nodes may share a frame
    for d in dets[1:3]:
        d.gt_identity = None
    assert gr.ground_truth_labels(graph_over(dets, 2, 5)).sum() == 0


@st.composite
def labelled_graphs(draw):
    """A hand-built graph with random 0/1 labels, as int64 or float64."""
    g = draw(hand_built_graphs())
    bits = draw(st.lists(st.sampled_from([0, 1, 1]), min_size=g.num_edges, max_size=g.num_edges))
    return g, np.asarray(bits, dtype=draw(st.sampled_from([np.int64, np.float64])))


@settings(max_examples=300, deadline=None)
@given(case=labelled_graphs())
def test_degrees_and_constraint_report_match_loop_references(case):
    g, y = case
    for got, want in zip(gr._degrees(g, y), reference_degrees(g, y)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # repr tells a numpy scalar from a Python int or str
    assert repr(gr.check_constraints(g, y)) == repr(reference_check_constraints(g, y))


@st.composite
def identity_graphs(draw):
    """A hand-built graph whose nodes each have an identity or -1 (clutter),
    at most one node per identity and frame.  Node ids are drawn in no frame
    order, and frames skip values, as after a dropped middle detection."""
    g = draw(hand_built_graphs())
    taken = set()
    ident = []
    for frame in g.frames.tolist():
        i = draw(st.sampled_from([-1, 0, 1, 2, 3]))
        ident.append(-1 if (i, frame) in taken else i)
        taken.add((i, frame))
    g.nodes.gt_identity = np.asarray(ident, dtype=np.int64)
    return g


@settings(max_examples=300, deadline=None)
@given(g=identity_graphs())
def test_ground_truth_labels_match_pair_set_reference(g):
    got, want = gr.ground_truth_labels(g), reference_ground_truth_labels(g)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_graph_from_edge_list_dedupes_and_orients():
    rng = np.random.default_rng(3)
    dets = [sd.Detection(node_id=i, frame=f, box=(3.0 * i, 0, 5, 5),
                         appearance=rng.normal(size=2))
            for i, f in enumerate([1, 2, 3])]
    g = gr.graph_from_edge_list(dets, [(1, 0), (0, 1), (1, 2)])
    assert g.edge_pairs() == [(0, 1), (1, 2)]
    with pytest.raises(ConfigError):
        gr.graph_from_edge_list(dets, [(0, 99)])


def test_graph_from_edge_list_accepts_detections_without_appearance():
    dets = [det(0, 1, app=(0.0, 3.0)), det(1, 2, x=20, app=(4.0, 0.0)),
            sd.Detection(node_id=2, frame=3, box=(40.0, 0.0, 10.0, 10.0)),
            det(3, 4, x=60, app=(4.0, 3.0))]
    g = gr.graph_from_edge_list(dets, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    assert g.edge_pairs() == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert gr.graph_from_edge_list(dets[2:3], []).num_edges == 0


def test_both_constructors_reject_a_repeated_node_id():
    dets = [det(0, 1), det(1, 2, x=20), det(0, 3, x=40)]
    with pytest.raises(ConfigError, match="^duplicate node id 0$"):
        graph_over(dets, None, 3)
    with pytest.raises(ConfigError, match="^duplicate node id 0$"):
        gr.graph_from_edge_list(dets, [(0, 1)])
