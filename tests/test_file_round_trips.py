"""Every file mpnflow writes reads back as the writer's quantisation of its
input: boxes and confidences to 2 decimals, mask PGM levels to 1/255, and
repr-written floats (sidecar CSVs, checkpoints) exactly."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mpnflow import synthdata as sd
from mpnflow import tensorkit as tk
from mpnflow.errors import ConfigError, ParseError
from mpnflow.infer import read_mask_pgm, write_mask_pgm

FINITE = st.floats(allow_nan=False, allow_infinity=False)
COORD = st.floats(-1e4, 1e4)
SIZE = st.floats(0.01, 1e4)          # still positive after rounding to 2 decimals
BOX = st.tuples(COORD, COORD, SIZE, SIZE)


def two_decimals(v: float) -> float:
    return float(f"{v:.2f}")


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """One folder for the module; every example overwrites its own file."""
    return tmp_path_factory.mktemp("round_trips")


def detection_lists(payload=None):
    """Detections with distinct node ids in no order; payload() is a
    strategy for one detection's payload arrays as keyword arguments."""
    @st.composite
    def draw_list(draw):
        n = draw(st.integers(0, 12))
        ids = draw(st.permutations(range(50)))[:n]
        return [sd.Detection(node_id=nid, frame=draw(st.integers(0, 300)), box=draw(BOX),
                             confidence=draw(st.floats(0.0, 1.0)),
                             gt_identity=draw(st.none() | st.integers(0, 1000)),
                             **(draw(payload()) if payload else {}))
                for nid in ids]
    return draw_list()


@settings(max_examples=100, deadline=None)
@given(dets=detection_lists())
def test_det_txt_reads_back_rounded_in_frame_then_id_order(dets, folder):
    path = folder / "det.txt"
    sd.write_detections(dets, path)
    want = sorted(dets, key=lambda d: (d.frame, d.node_id))
    got = sd.load_mot_detections(path)
    assert [d.node_id for d in got] == list(range(len(want)))
    for g, d in zip(got, want):
        assert (g.frame, g.gt_identity) == (d.frame, d.gt_identity)
        assert g.box == tuple(map(two_decimals, d.box))
        assert g.confidence == two_decimals(d.confidence)


def stripped(dets):
    return [sd.Detection(d.node_id, d.frame, d.box) for d in dets]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6))
def test_embeddings_csv_reads_back_exactly(data, dim, folder):
    dets = data.draw(detection_lists(
        lambda: st.fixed_dictionaries({"appearance": arrays(np.float64, dim, elements=FINITE)})))
    path = folder / "embeddings.csv"
    sd.write_embeddings(dets, path)
    back = stripped(dets)
    sd.attach_embeddings(back, path)
    for g, d in zip(back, dets):
        assert g.appearance.dtype == np.float64 and g.appearance.tobytes() == d.appearance.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=array_shapes(min_dims=3, max_dims=3, max_side=4))
def test_roi_csv_reads_back_exactly(data, shape, folder):
    dets = data.draw(detection_lists(
        lambda: st.fixed_dictionaries({"roi_grid": arrays(np.float64, shape, elements=FINITE)})))
    path = folder / "roi.csv"
    sd.write_roi_grids(dets, path)
    back = stripped(dets)
    sd.attach_roi_grids(back, path)
    for g, d in zip(back, dets):
        assert g.roi_grid.shape == shape and g.roi_grid.tobytes() == d.roi_grid.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=array_shapes(min_dims=2, max_dims=2, max_side=5))
def test_gt_masks_csv_reads_back_every_binary_mask_with_identity_and_frame(data, shape, folder):
    mask = arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0]))
    dets = data.draw(detection_lists(lambda: st.fixed_dictionaries({"gt_mask": st.none() | mask})))
    path = folder / "gt_masks.csv"
    sd.write_gt_masks(dets, path)
    got = sd.load_gt_masks(path)
    want = {d.node_id: d for d in dets if d.gt_mask is not None}
    assert sorted(got) == sorted(want)
    for nid, (ident, frame, grid) in got.items():
        d = want[nid]
        assert (ident, frame) == (-1 if d.gt_identity is None else d.gt_identity, d.frame)
        assert grid.tobytes() == d.gt_mask.tobytes()


@pytest.mark.parametrize("value", [0.7, 2.0, -1.0, float("nan")])
def test_gt_mask_value_other_than_0_or_1_is_rejected_on_write_and_read(value, tmp_path):
    # int(v) would truncate 0.7 to 0, so the file would read back a different mask
    path = tmp_path / "gt_masks.csv"
    mask = np.array([[0.0, 1.0], [value, 1.0]])
    dets = [sd.Detection(4, 0, (0, 0, 5, 5), gt_mask=np.ones((2, 2))),
            sd.Detection(3, 1, (0, 0, 5, 5), gt_mask=mask)]
    with pytest.raises(ConfigError, match="^detection 3: gt mask values must be 0 or 1$"):
        sd.write_gt_masks(dets, path)
    assert not path.exists()
    if math.isfinite(value):
        path.write_text(f"4,-1,0,2,2,1,1,1,1\n3,-1,1,2,2,0,1,{value!r},1\n")
        where = re.escape(f"{path}:2:")
        with pytest.raises(ParseError, match=f"^{where} mask values must be 0 or 1$"):
            sd.load_gt_masks(path)


@pytest.mark.parametrize("writer, payload, why", [
    (sd.write_embeddings, {"appearance": np.ones(3)}, "has no appearance vector"),
    (sd.write_roi_grids, {"roi_grid": np.ones((2, 2, 1))}, "has no roi grid"),
], ids=["embeddings", "roi_grids"])
def test_sidecar_writer_missing_a_payload_writes_nothing(writer, payload, why, tmp_path):
    path = tmp_path / "sidecar.csv"
    dets = [sd.Detection(4, 0, (0, 0, 5, 5), **payload),
            sd.Detection(3, 1, (0, 0, 5, 5))]
    with pytest.raises(ConfigError, match=f"^detection 3 {why}$"):
        writer(dets, path)
    assert not path.exists()


def test_attach_roi_grids_missing_an_id_attaches_nothing(tmp_path):
    path = tmp_path / "roi.csv"
    sd.write_roi_grids([sd.Detection(4, 0, (0, 0, 5, 5), roi_grid=np.ones((2, 2, 1)))], path)
    dets = [sd.Detection(4, 0, (0, 0, 5, 5)), sd.Detection(3, 1, (0, 0, 5, 5))]
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no roi grid for node id 3$"):
        sd.attach_roi_grids(dets, path)
    assert all(d.roi_grid is None for d in dets)


@st.composite
def track_series(draw):
    """Non-empty tracks of (frame, box, conf), one entry per frame."""
    tracks = []
    for _ in range(draw(st.integers(0, 5))):
        frames = draw(st.lists(st.integers(0, 200), min_size=1, max_size=6, unique=True))
        tracks.append([(f, draw(BOX), draw(st.floats(0.0, 1.0))) for f in frames])
    return tracks


@settings(max_examples=100, deadline=None)
@given(tracks=track_series())
def test_results_txt_reads_back_rounded_through_load_tracks(tracks, folder):
    path = folder / "results.txt"
    order = sd.write_results(tracks, path)
    assert sorted(order) == list(range(len(tracks)))
    got = sd.load_tracks(path)
    assert sorted(got) == list(range(1, len(tracks) + 1))
    for new_id, i in enumerate(order, start=1):
        assert got[new_id] == {f: tuple(map(two_decimals, box)) for f, box, _ in tracks[i]}
    # ids go in order of first frame, ties by input position
    firsts = [(min(f for f, _, _ in tracks[i]), i) for i in order]
    assert firsts == sorted(firsts)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tracks_csv_reads_back_every_non_empty_track_in_order(data, folder):
    ids = data.draw(st.permutations(range(60)))[:data.draw(st.integers(0, 30))]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ids)), max_size=6)))
    tracks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [len(ids)])]
    path = folder / "tracks.csv"
    sd.write_track_assignment(tracks, path)
    assert sd.load_track_assignment(path) == [t for t in tracks if t]


@settings(max_examples=100, deadline=None)
@given(grid=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                   elements=st.floats(-2.0, 3.0)))
def test_mask_pgm_reads_back_in_levels_of_one_255th(grid, folder):
    path = folder / "mask.pgm"
    write_mask_pgm(path, grid)
    back = read_mask_pgm(path)
    assert back.shape == grid.shape
    levels = np.clip(np.rint(grid * 255.0), 0, 255).astype(int)    # no -0.0 level
    assert back.tobytes() == (levels / 255.0).tobytes()
    assert np.all(np.abs(back - np.clip(grid, 0.0, 1.0)) <= 0.5 / 255.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(shapes=st.lists(array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), max_size=4),
       data=st.data(),
       extra=st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=5), max_size=3))
def test_checkpoint_reads_back_exactly(shapes, data, extra, folder):
    params = [(f"group{i}", tk.Tensor(data.draw(arrays(np.float64, shape, elements=FINITE))))
              for i, shape in enumerate(shapes)]
    path = folder / "checkpoint.json"
    tk.save_checkpoint(path, params, extra=extra)
    groups, got_extra = tk.load_checkpoint(path)
    assert got_extra == extra
    assert list(groups) == [name for name, _ in params]
    for name, p in params:
        assert groups[name].shape == p.data.shape
        assert groups[name].dtype == np.float64 and groups[name].tobytes() == p.data.tobytes()
