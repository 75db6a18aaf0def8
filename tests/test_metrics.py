import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scoring import constraint_rate, gt_boxes_from_scenario, gt_masks_from_scenario, track_boxes

import mpnflow
from mpnflow.errors import ConfigError, MetricsError
from mpnflow.graph import graph_from_edge_list
from mpnflow.metrics import (box_iou, clear_mot, format_table, idf1, mask_iou, mots_metrics,
                             track_masks, write_report)
from mpnflow.synthdata import Detection, ScenarioConfig, generate_scenario

BOX = (10.0, 10.0, 4.0, 4.0)
FAR = (100.0, 100.0, 4.0, 4.0)


def test_box_iou_values():
    assert box_iou(BOX, BOX) == 1.0
    assert box_iou(BOX, FAR) == 0.0
    # 2x2 boxes shifted by 1: intersection 2, union 6
    assert box_iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3, abs=1e-12)


def test_mask_iou_matches_box_iou_for_full_masks():
    ones = np.ones((2, 2), dtype=bool)
    a, b = (0.0, 0.0, 4.0, 4.0), (2.0, 0.0, 4.0, 4.0)
    assert mask_iou(a, ones, b, ones) == pytest.approx(box_iou(a, b), abs=1e-12)
    assert mask_iou(a, ones, a, ones) == 1.0
    assert mask_iou(a, ones, FAR, ones) == 0.0


def test_mask_iou_half_mask():
    box = (0.0, 0.0, 4.0, 4.0)
    full = np.ones((2, 2), dtype=bool)
    left = np.array([[True, False], [True, False]])
    assert mask_iou(box, full, box, left) == pytest.approx(0.5, abs=1e-12)


def test_clear_mot_perfect():
    gt = {1: {f: BOX for f in range(1, 4)}, 2: {f: FAR for f in range(1, 4)}}
    report = clear_mot(gt, gt)
    assert report.mota == 1.0
    assert report.motp == 1.0
    assert report.fp == report.fn == report.idsw == 0
    assert report.mostly_tracked == 2
    assert report.mostly_lost == 0


def test_clear_mot_one_switch():
    # a single identity handed between two tracks mid-sequence: one switch
    # over four boxes costs exactly a quarter of the score
    gt = {1: {f: BOX for f in (1, 2, 3, 4)}}
    pred = {1: {1: BOX, 2: BOX}, 2: {3: BOX, 4: BOX}}
    report = clear_mot(gt, pred)
    assert report.idsw == 1
    assert report.fp == report.fn == 0
    assert report.mota == pytest.approx(0.75, abs=1e-12)
    assert report.mostly_tracked == 1


def test_clear_mot_fp_and_fn():
    gt = {1: {1: BOX, 2: BOX}}
    pred = {1: {1: BOX}, 2: {1: FAR}}
    report = clear_mot(gt, pred)
    assert (report.tp, report.fp, report.fn, report.idsw) == (1, 1, 1, 0)
    assert report.mota == pytest.approx(0.0, abs=1e-12)


def test_clear_mot_carry_over_prevents_switch():
    # at frame 2 both tracks sit on the gt box; the incumbent keeps it
    gt = {1: {1: BOX, 2: BOX}}
    pred = {1: {1: BOX, 2: BOX}, 2: {2: BOX}}
    report = clear_mot(gt, pred)
    assert report.idsw == 0
    assert report.fp == 1
    assert report.mota == pytest.approx(0.5, abs=1e-12)


def test_clear_mot_requires_ground_truth():
    with pytest.raises(MetricsError):
        clear_mot({}, {1: {1: BOX}})


def test_idf1_split_track_is_half():
    gt = {1: {f: BOX for f in (1, 2, 3, 4)}}
    pred = {1: {1: BOX, 2: BOX}, 2: {3: BOX, 4: BOX}}
    assert idf1(gt, pred) == pytest.approx(0.5, abs=1e-12)


def test_idf1_edge_cases():
    gt = {1: {1: BOX, 2: BOX}}
    assert idf1(gt, gt) == 1.0
    assert idf1({}, {}) == 1.0
    assert idf1(gt, {}) == 0.0
    # the dominant track wins the global assignment: 3 of 4 frames
    pred = {1: {1: BOX, 2: BOX, 3: BOX}, 2: {4: BOX}}
    gt4 = {1: {f: BOX for f in (1, 2, 3, 4)}}
    assert idf1(gt4, pred) == pytest.approx(0.75, abs=1e-12)


def test_mots_soft_score_uses_mask_overlap():
    box = (0.0, 0.0, 10.0, 1.0)
    full = np.ones((1, 10), dtype=bool)
    partial = full.copy()
    partial[0, 8:] = False           # 8 of 10 pixels: IoU 0.8
    gt = {1: {1: (box, full)}}
    pred = {1: {1: (box, partial)}}
    report = mots_metrics(gt, pred)
    assert report.tp == 1
    assert report.motsa == pytest.approx(1.0, abs=1e-12)
    assert report.smotsa == pytest.approx(0.8, abs=1e-12)
    assert report.mask_iou_mean == pytest.approx(0.8, abs=1e-12)


def test_mots_switch_penalty():
    box = (0.0, 0.0, 4.0, 4.0)
    full = np.ones((2, 2), dtype=bool)
    gt = {1: {1: (box, full), 2: (box, full)}}
    pred = {1: {1: (box, full)}, 2: {2: (box, full)}}
    report = mots_metrics(gt, pred)
    assert report.idsw == 1
    assert report.motsa == pytest.approx(0.5, abs=1e-12)
    assert report.smotsa == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(MetricsError):
        mots_metrics({}, pred)


def _star_graph():
    def det(nid, frame):
        return Detection(node_id=nid, frame=frame, box=(10.0 * nid, 5.0, 4.0, 4.0),
                         confidence=1.0, appearance=np.zeros(3))
    dets = [det(0, 1), det(1, 2), det(2, 2), det(3, 3)]
    return graph_from_edge_list(dets, [(0, 1), (0, 2)])


def test_constraint_rate_over_windows():
    star = _star_graph()
    bad = (star, np.array([1, 1]))       # 7 of 8 inequalities hold
    good = (star, np.array([1, 0]))      # all hold
    assert constraint_rate([bad]) == pytest.approx(87.5, abs=1e-12)
    assert constraint_rate([bad, good]) == pytest.approx(93.75, abs=1e-12)
    with pytest.raises(MetricsError):
        constraint_rate([])


def test_scenario_adapters_round_trip():
    scenario = generate_scenario(ScenarioConfig(
        num_frames=6, num_identities=2, d_app=4, seed=5))
    gt = gt_boxes_from_scenario(scenario)
    assert set(gt) == {0, 1}
    # feeding the ground truth back as tracks scores perfectly
    series = []
    for ident in sorted(gt):
        series.append(sorted((f, box, 1.0) for f, box in gt[ident].items()))
    pred = track_boxes(series)
    assert set(pred) == {1, 2}
    assert clear_mot(gt, pred).mota == 1.0
    assert idf1(gt, pred) == 1.0


def test_mask_adapters():
    scenario = generate_scenario(ScenarioConfig(
        num_frames=4, num_identities=2, d_app=4, roi_h=4, roi_w=4, d_roi=2, seed=2))
    gt = gt_masks_from_scenario(scenario)
    assert set(gt) == {0, 1}
    ids = [[d.node_id for d in scenario.detections if d.gt_identity == ident] for ident in (0, 1)]
    node_masks = {d.node_id: np.full((4, 4), 0.7) for d in scenario.detections}
    pred = track_masks(ids, node_masks, scenario.detections, threshold=0.5)
    for entries in pred.values():
        for frame, (box, grid) in entries.items():
            assert grid.dtype == bool and grid.all()
    # thresholding: a grid below tau becomes an empty mask, still present
    low = {d.node_id: np.full((4, 4), 0.3) for d in scenario.detections}
    pred_low = track_masks(ids, low, scenario.detections, threshold=0.5)
    assert all(not grid.any() for entries in pred_low.values()
               for _, grid in entries.values())


@pytest.mark.parametrize("iou_min", [0.0, -1.0, 1.5, np.nan])
def test_box_and_mask_metrics_reject_iou_min_outside_unit_interval(iou_min):
    gt = {1: {1: BOX, 2: BOX}}
    masks = {1: {1: (BOX, np.ones((2, 2), dtype=bool))}}
    for metric, truth in ((clear_mot, gt), (idf1, gt), (mots_metrics, masks)):
        with pytest.raises(ConfigError, match=r"^iou_min must be in \(0, 1\], got"):
            metric(truth, truth, iou_min=iou_min)
        assert metric(truth, truth, iou_min=1.0) is not None


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_track_masks_rejects_threshold_outside_open_unit_interval(threshold):
    dets = [Detection(node_id=0, frame=1, box=BOX)]
    with pytest.raises(ConfigError, match=r"^threshold must be in \(0, 1\), got"):
        track_masks([[0]], {0: np.ones((2, 2))}, dets, threshold=threshold)


def test_track_masks_rejects_a_masked_node_without_detection():
    dets = [Detection(node_id=0, frame=1, box=BOX)]
    masks = {0: np.ones((2, 2)), 7: np.ones((2, 2))}
    assert set(track_masks([[0, 5]], masks, dets)) == {1}     # 5 has no mask: skipped
    with pytest.raises(MetricsError, match="^node 7 has a mask but no detection$"):
        track_masks([[0, 7]], masks, dets)


def test_report_emitters(tmp_path):
    values = {"mota": 0.75, "idsw": 1}
    table = format_table(values)
    assert "mota" in table and "0.7500" in table and "1" in table
    path = tmp_path / "report.csv"
    write_report(path, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == "mota,0.75"
    assert lines[2] == "idsw,1"


def test_metrics_does_not_load_the_model_stack():
    code = ("import sys, mpnflow.metrics; "
            "print(sorted(m for m in ('mpnflow.graph', 'mpnflow.tensorkit', 'mpnflow.mpn', "
            "'mpnflow.infer') if m in sys.modules))")
    # import from wherever this suite imports mpnflow from
    env = dict(os.environ, PYTHONPATH=str(Path(mpnflow.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
