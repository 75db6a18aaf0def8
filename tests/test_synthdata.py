import json
import re
from dataclasses import asdict
from itertools import groupby

import numpy as np
import pytest

from mpnflow import synthdata as sd
from mpnflow.cli import main
from mpnflow.errors import ConfigError, ParseError, config_from_dict


def small_cfg(**kw):
    base = dict(num_frames=3, num_identities=1, pos_noise_std=0.0,
                detection_dropout=0.0, box_jitter_std=0.0, seed=7)
    base.update(kw)
    return sd.ScenarioConfig(**base)


def test_single_identity_three_frames_no_noise():
    sc = sd.generate_scenario(small_cfg())
    assert len(sc) == 3
    assert [d.frame for d in sc] == [1, 2, 3]
    assert [d.gt_identity for d in sc] == [0, 0, 0]
    # constant velocity: centers advance by the same step each frame
    centers = [(d.box[0] + d.box[2] / 2, d.box[1] + d.box[3] / 2) for d in sc]
    step1 = np.subtract(centers[1], centers[0])
    step2 = np.subtract(centers[2], centers[1])
    assert np.allclose(step1, step2, atol=1e-9)


def test_generation_is_byte_deterministic():
    cfg = sd.ScenarioConfig(num_frames=6, num_identities=3, detection_dropout=0.2,
                            false_positive_rate=0.5, pos_noise_std=1.5,
                            box_jitter_std=0.5, seed=123)
    a = sd.generate_scenario(cfg)
    b = sd.generate_scenario(cfg)
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert da.node_id == db.node_id and da.frame == db.frame
        assert da.box == db.box and da.confidence == db.confidence
        assert da.appearance.tobytes() == db.appearance.tobytes()
        assert da.roi_grid.tobytes() == db.roi_grid.tobytes()
        assert da.gt_identity == db.gt_identity


def test_full_dropout_leaves_only_clutter():
    cfg = small_cfg(detection_dropout=1.0, false_positive_rate=1.0, num_frames=5)
    sc = sd.generate_scenario(cfg)
    assert sc and all(d.gt_identity is None for d in sc)


def test_false_positives_have_no_mask_and_fresh_appearance():
    cfg = small_cfg(false_positive_rate=2.0, num_frames=4, roi_noise_std=0.0)
    sc = sd.generate_scenario(cfg)
    fps = [d for d in sc if d.gt_identity is None]
    assert fps, "expected some spurious detections"
    for d in fps:
        assert d.gt_mask is None
        assert np.all(d.roi_grid[:, :, 0] == 0.0)
    true = [d for d in sc if d.gt_identity == 0]
    assert np.array_equal(true[0].roi_grid[:, :, 0], true[0].gt_mask)


def test_roi_shape_channel_noise_varies_per_detection():
    cfg = small_cfg(num_frames=4, roi_noise_std=0.5)
    sc = sd.generate_scenario(cfg)
    views = [d.roi_grid[:, :, 0] for d in sc if d.gt_identity == 0]
    assert len(views) >= 2
    assert not np.array_equal(views[0], views[1])
    # the noise is centered on the mask: averaging views recovers it
    mean_view = np.mean(views, axis=0) >= 0.5
    mask = next(d.gt_mask for d in sc if d.gt_identity == 0)
    assert np.mean(mean_view == (mask >= 0.5)) > 0.8


def test_masks_are_nontrivial_and_stable_per_identity():
    cfg = sd.ScenarioConfig(num_frames=4, num_identities=5, seed=3)
    sc = sd.generate_scenario(cfg)
    by_ident = {}
    for d in sc:
        frac = d.gt_mask.mean()
        assert 0.05 < frac < 1.0
        by_ident.setdefault(d.gt_identity, d.gt_mask)
        assert np.array_equal(by_ident[d.gt_identity], d.gt_mask)


def test_config_validation_names_field():
    with pytest.raises(ConfigError) as e:
        sd.generate_scenario(sd.ScenarioConfig(num_frames=0))
    assert "num_frames" in str(e.value)
    with pytest.raises(ConfigError) as e:
        sd.generate_scenario(sd.ScenarioConfig(detection_dropout=1.5))
    assert "detection_dropout" in str(e.value)
    with pytest.raises(ConfigError) as e:
        config_from_dict(sd.ScenarioConfig, "scenario", {"num_frames": 5, "bogus": 1})
    assert "bogus" in str(e.value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key,value,why", [
    ("image_width", NAN, "image_width must be finite and > 0"),
    ("image_width", INF, "image_width must be finite and > 0"),
    ("image_height", 0.0, "image_height must be finite and > 0"),
    ("speed_max", INF, "speed_max must be finite and >= 0"),
    ("pos_noise_std", NAN, "pos_noise_std must be finite and >= 0"),
    ("false_positive_rate", INF, "false_positive_rate must be finite and >= 0"),
    ("roi_noise_std", -1.0, "roi_noise_std must be finite and >= 0"),
    ("box_size_max", INF, "box_size_max must be finite and > 0"),
], ids=["image_width_nan", "image_width_inf", "image_height_0", "speed_max_inf",
        "pos_noise_std_nan", "false_positive_rate_inf", "roi_noise_std_negative",
        "box_size_max_inf"])
def test_config_rejects_non_finite_values_naming_the_field(key, value, why):
    with pytest.raises(ConfigError) as e:
        sd.generate_scenario(sd.ScenarioConfig(**{key: value}))
    assert str(e.value).startswith(why)


def test_frame_stride_subsamples():
    cfg = small_cfg(num_frames=9, frame_stride=4)
    sc = sd.generate_scenario(cfg)
    assert sorted({d.frame for d in sc}) == [1, 5, 9]


NUMBERING_CFG = small_cfg(num_frames=20, num_identities=3, frame_stride=3,
                          detection_dropout=0.3, false_positive_rate=2.5, seed=200)


def test_node_ids_run_in_frame_order_true_detections_before_clutter():
    dets = sd.generate_scenario(NUMBERING_CFG)
    assert [d.node_id for d in dets] == list(range(len(dets)))
    frames = [d.frame for d in dets]
    assert frames == sorted(frames)
    # the config drops some true detections and adds some clutter
    assert sum(d.gt_identity is None for d in dets) > 0
    assert sum(d.gt_identity is not None for d in dets) < 3 * len(set(frames))
    for _, group in groupby(dets, key=lambda d: d.frame):
        idents = [d.gt_identity for d in group]
        true = [i for i in idents if i is not None]
        assert idents == sorted(true) + [None] * (len(idents) - len(true))


def test_generated_files_reload_with_the_generated_ids(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": asdict(NUMBERING_CFG)}))
    assert main(["generate", "--out", str(tmp_path / "data"), "--config", str(cfg)]) == 0
    want = sd.generate_scenario(NUMBERING_CFG)
    got = sd.load_mot_detections(tmp_path / "data" / "det.txt")
    sd.attach_embeddings(got, tmp_path / "data" / "embeddings.csv")
    assert [d.node_id for d in got] == [d.node_id for d in want]
    for g, w in zip(got, want):
        assert g.frame == w.frame and g.box == tuple(float(f"{v:.2f}") for v in w.box)
        assert g.appearance.tobytes() == w.appearance.tobytes()


@pytest.mark.parametrize("shape, message", [
    ((0, 4, 4), "detection 3: roi grid height must be >= 1, got 0"),
    ((5, 0, 4), "detection 3: roi grid width must be >= 1, got 0"),
    ((4, 4), "detection 3: roi grid needs 3 axes (H, W, d_roi), got shape (4, 4)")],
    ids=["no rows", "no columns", "no channel axis"])
def test_detection_names_itself_for_a_roi_grid_without_pixels(shape, message):
    # such a grid would otherwise first fail in the conv layers, naming no detection
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sd.Detection(3, 1, (0.0, 0.0, 5.0, 5.0), roi_grid=np.zeros(shape))
    sd.Detection(3, 1, (0.0, 0.0, 5.0, 5.0), roi_grid=np.zeros((1, 1, 1)))


def test_load_mot_detections_and_errors(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10.0,20.0,30.0,40.0,0.9,-1,-1,-1\n"
                 "2,7,11.0,21.0,30.0,40.0,0.8,-1,-1,-1\n")
    dets = sd.load_mot_detections(p)
    assert len(dets) == 2
    assert dets[0].gt_identity is None and dets[1].gt_identity == 7
    assert dets[0].box == (10.0, 20.0, 30.0, 40.0)
    assert dets[0].node_id == 0 and dets[1].node_id == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("1,-1,10,20,30,40,0.9\nnot,a,row\n")
    with pytest.raises(ParseError) as e:
        sd.load_mot_detections(bad)
    assert ":2" in str(e.value)

    flat = tmp_path / "flat.txt"
    flat.write_text("1,-1,10,20,0,40,0.9\n")
    with pytest.raises(ParseError) as e:
        sd.load_mot_detections(flat)
    assert ":1" in str(e.value)


def test_write_results_round_trip_and_id_assignment(tmp_path):
    tracks = [
        [(5, (1.234, 2.345, 3.456, 4.567), 0.9), (6, (2.0, 3.0, 3.5, 4.5), 0.9)],
        [(1, (10.0, 20.0, 30.0, 40.0), 1.0), (2, (11.0, 21.0, 30.0, 40.0), 1.0)],
    ]
    p = tmp_path / "res.txt"
    sd.write_results(tracks, p)
    loaded = sd.load_tracks(p)
    # the earliest-starting track gets id 1
    assert set(loaded) == {1, 2}
    assert set(loaded[1]) == {1, 2}
    assert set(loaded[2]) == {5, 6}
    for got, want in zip(loaded[2][5], (1.234, 2.345, 3.456, 4.567)):
        assert abs(got - want) <= 0.005 + 1e-12


def test_embedding_round_trip_is_exact(tmp_path):
    sc = sd.generate_scenario(small_cfg(num_frames=4))
    p = tmp_path / "emb.csv"
    sd.write_embeddings(sc, p)
    stripped = [sd.Detection(d.node_id, d.frame, d.box) for d in sc]
    sd.attach_embeddings(stripped, p)
    for orig, got in zip(sc, stripped):
        assert np.array_equal(orig.appearance, got.appearance)


def test_roi_and_mask_round_trip(tmp_path):
    sc = sd.generate_scenario(small_cfg(num_frames=3, false_positive_rate=1.0))
    roi_p = tmp_path / "roi.csv"
    mask_p = tmp_path / "masks.csv"
    sd.write_roi_grids(sc, roi_p)
    sd.write_gt_masks(sc, mask_p)
    stripped = [sd.Detection(d.node_id, d.frame, d.box) for d in sc]
    sd.attach_roi_grids(stripped, roi_p)
    for orig, got in zip(sc, stripped):
        assert np.array_equal(orig.roi_grid, got.roi_grid)
    table = sd.load_gt_masks(mask_p)
    for d in sc:
        if d.gt_mask is not None:
            ident, frame, mask = table[d.node_id]
            assert ident == d.gt_identity and frame == d.frame
            assert np.array_equal(mask, d.gt_mask)
    assert all(sc[i].gt_mask is not None or i not in table
               for i in range(len(sc)))
