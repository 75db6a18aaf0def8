import json
import shutil
import subprocess
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpnflow import cli
from mpnflow import tensorkit as tk
from mpnflow.cli import main
from mpnflow.errors import ConfigError, ParseError, check_at_least, check_in, config_from_dict
from mpnflow.infer import InferConfig, read_mask_pgm, run_inference
from mpnflow.mpn import ModelParams, MpnConfig
from mpnflow.synthdata import (Detection, ScenarioConfig, attach_embeddings, attach_roi_grids,
                               load_gt_masks, load_mot_detections, load_track_assignment,
                               load_tracks, write_detections, write_embeddings, write_roi_grids)
from mpnflow.train import TrainConfig, build_gradcheck_case


def _write_config(path, **sections):
    with open(path, "w") as fh:
        json.dump(sections, fh)
    return str(path)


SMALL = dict(
    scenario={"num_frames": 10, "num_identities": 3, "detection_dropout": 0.1,
              "d_app": 8, "seed": 11},
    model={"num_steps": 2, "variant": "time_aware", "d_node": 8, "d_edge": 6,
           "hidden": 8},
    train={"iterations": 15, "frames_per_graph": 5, "top_k": 3, "seed": 1},
    infer={"frames_per_graph": 5, "top_k": 3},
)


def test_generate_writes_reloadable_files(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", **SMALL)
    out = tmp_path / "data"
    assert main(["generate", "--out", str(out), "--config", cfg]) == 0
    for name in ("det.txt", "gt.txt", "embeddings.csv", "roi.csv",
                 "gt_masks.csv", "scenario.json"):
        assert (out / name).exists()
    # node ids assigned on reload line up with the sidecar files
    dets = load_mot_detections(out / "det.txt")
    attach_embeddings(dets, out / "embeddings.csv")
    attach_roi_grids(dets, out / "roi.csv")
    assert all(d.appearance is not None and d.appearance.shape == (8,) for d in dets)
    assert all(d.roi_grid is not None for d in dets)
    frames = [d.frame for d in dets]
    assert frames == sorted(frames)


def test_generate_is_deterministic_per_seed(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", **SMALL)
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        assert main(["generate", "--out", str(tmp_path / name), "--config", cfg,
                     "--seed", seed]) == 0
    same = (tmp_path / "a" / "det.txt").read_bytes()
    assert same == (tmp_path / "b" / "det.txt").read_bytes()
    assert same != (tmp_path / "c" / "det.txt").read_bytes()


def test_pipeline_generate_train_infer_eval(tmp_path, capsys):
    # SMALL's 15 iterations leave a checkpoint that writes no track at all
    train = {**SMALL["train"], "iterations": 100}
    cfg = _write_config(tmp_path / "cfg.json", **{**SMALL, "train": train})
    data, model, run = (str(tmp_path / n) for n in ("data", "model", "run"))
    assert main(["generate", "--out", data, "--config", cfg]) == 0
    assert main(["train", "--data", data, "--out", model, "--config", cfg]) == 0
    assert (tmp_path / "model" / "checkpoint.json").exists()
    history = (tmp_path / "model" / "history.csv").read_text().splitlines()
    assert history[0] == "iter,edge_loss,mask_loss,total_loss"
    assert len(history) == 1 + train["iterations"]

    assert main(["infer", "--data", data, "--checkpoint",
                 f"{model}/checkpoint.json", "--out", run, "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "constraint satisfaction before rounding:" in printed
    assert (tmp_path / "run" / "results.txt").read_text().strip()
    assert len((tmp_path / "run" / "tracks.csv").read_text().splitlines()) > 1
    assert (tmp_path / "run" / "edges.csv").exists()

    assert main(["eval", "--data", data, "--run", run]) == 0
    report = (tmp_path / "run" / "report.csv").read_text().splitlines()
    assert report[0] == "metric,value"
    keys = {line.split(",")[0] for line in report[1:]}
    assert {"mota", "idf1", "fp", "fn", "idsw"} <= keys

    # an --out path in a directory that does not exist yet is created
    nested = tmp_path / "deep" / "nested" / "report.csv"
    assert main(["eval", "--data", data, "--run", run,
                 "--out", str(nested)]) == 0
    assert nested.exists()


def test_pipeline_with_masks(tmp_path):
    sections = dict(
        scenario={"num_frames": 6, "num_identities": 2, "d_app": 6,
                  "roi_h": 4, "roi_w": 4, "d_roi": 2, "seed": 5},
        model={"num_steps": 1, "with_masks": True, "d_node": 6, "d_edge": 4,
               "hidden": 6, "conv_hidden": 2, "d_roi": 2},
        train={"iterations": 8, "frames_per_graph": 6, "top_k": 2, "seed": 0},
        infer={"frames_per_graph": 6, "top_k": 2},
    )
    cfg = _write_config(tmp_path / "cfg.json", **sections)
    data, model, run = (str(tmp_path / n) for n in ("data", "model", "run"))
    assert main(["generate", "--out", data, "--config", cfg]) == 0
    assert main(["train", "--data", data, "--out", model, "--config", cfg]) == 0
    assert main(["infer", "--data", data, "--checkpoint",
                 f"{model}/checkpoint.json", "--out", run, "--config", cfg]) == 0
    masks = sorted((tmp_path / "run" / "masks").glob("node_*.pgm"))
    assert masks, "expected mask files"
    assert main(["eval", "--data", data, "--run", run]) == 0
    report = (tmp_path / "run" / "report.csv").read_text()
    assert "motsa" in report and "smotsa" in report


def test_train_accepts_multiple_data_dirs(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", **SMALL)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["generate", "--out", a, "--config", cfg, "--seed", "1"]) == 0
    assert main(["generate", "--out", b, "--config", cfg, "--seed", "2"]) == 0
    assert main(["train", "--data", a, b, "--out", str(tmp_path / "m"),
                 "--config", cfg, "--iterations", "5"]) == 0


def test_tracks_csv_numbers_tracks_as_results_txt(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", **SMALL)
    data, model, run = (tmp_path / n for n in ("data", "model", "run"))
    assert main(["generate", "--out", str(data), "--config", cfg]) == 0
    assert main(["train", "--data", str(data), "--out", str(model), "--config", cfg,
                 "--iterations", "100"]) == 0
    assert main(["infer", "--data", str(data), "--checkpoint", str(model / "checkpoint.json"),
                 "--out", str(run), "--config", cfg]) == 0
    det_by_id = {d.node_id: d for d in load_mot_detections(data / "det.txt")}
    results = load_tracks(run / "results.txt")
    lines = (run / "tracks.csv").read_text().splitlines()
    assert lines[0] == "track_id,node_id"
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    assert {tid for tid, _ in rows} == set(results) and len(results) > 1
    for tid, nid in rows:
        det = det_by_id[nid]
        assert results[tid][det.frame] == det.box, (tid, nid)


def test_gradcheck_exit_codes(monkeypatch, capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("max relative error") == 2

    def skewed_case(with_masks, seed):
        f, params = build_gradcheck_case(with_masks=with_masks, seed=seed)

        def skewed():
            # scale the analytic pass only, so the check must find a mismatch
            return tk.mul(f(), 1.001) if tk.grad_enabled() else f()

        return skewed, params

    monkeypatch.setattr(cli, "build_gradcheck_case", skewed_case)
    assert main(["gradcheck"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "0", "-1e-4", "inf"])
def test_gradcheck_tolerance_must_be_finite_and_positive(tolerance, monkeypatch, capsys):
    # a bad tolerance fails or passes every comparison; it is a usage error,
    # reported before any case is built
    def no_case(with_masks, seed):
        raise AssertionError("a case was built before the tolerance was checked")

    monkeypatch.setattr(cli, "build_gradcheck_case", no_case)
    capsys.readouterr()
    assert main(["gradcheck", f"--tolerance={tolerance}"]) == 1
    assert "--tolerance must be finite and > 0" in capsys.readouterr().err


def test_gradcheck_reads_no_sabotage_variable(monkeypatch, capsys):
    monkeypatch.setenv("MPNFLOW_SABOTAGE_GRADCHECK", "1")
    assert main(["gradcheck"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_error_exit_codes(tmp_path, capsys):
    bad = _write_config(tmp_path / "bad.json", bogus={})
    assert main(["generate", "--out", str(tmp_path / "x"), "--config", bad]) == 1
    assert "unknown config sections" in capsys.readouterr().err

    assert main(["train", "--data", str(tmp_path), "--out",
                 str(tmp_path / "m")]) == 1
    assert "scenario.json" in capsys.readouterr().err

    assert main(["infer", "--data", str(tmp_path), "--checkpoint", "missing.json",
                 "--out", str(tmp_path / "r")]) == 1

    assert main(["train", "--variant", "bogus"]) == 1

    stray = _write_config(tmp_path / "stray.json",
                          infer={"frames_per_graph": 5, "typo": 1})
    ckpt = tmp_path / "c.json"
    ckpt.write_text("{}")
    assert main(["infer", "--data", str(tmp_path), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r"), "--config", str(stray)]) == 1


def test_console_script_installed():
    proc = subprocess.run(["mpnflow", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "gradcheck" in proc.stdout


# ---------------------------------------------------------------------------
# malformed and non-finite input files

@pytest.fixture(scope="module")
def mask_run(tmp_path_factory):
    """Generated data, a mask checkpoint and its infer output; read only."""
    root = tmp_path_factory.mktemp("mask_run")
    cfg = _write_config(root / "cfg.json", **SMALL)
    data, model, run = (str(root / n) for n in ("data", "model", "run"))
    assert main(["generate", "--out", data, "--config", cfg]) == 0
    assert main(["train", "--data", data, "--out", model, "--config", cfg,
                 "--with-masks", "--iterations", "2"]) == 0
    assert main(["infer", "--data", data, "--checkpoint", f"{model}/checkpoint.json",
                 "--out", run, "--config", cfg]) == 0
    return root


def _set_field(line_no, field, value):
    """Edit replacing one comma-separated field of one line (1-based)."""
    def edit(text):
        lines = text.splitlines()
        parts = lines[line_no - 1].split(",")
        parts[field] = value
        lines[line_no - 1] = ",".join(parts)
        return "\n".join(lines) + "\n"
    return edit


def _edit_checkpoint(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def _edit_first_group(change):
    return _edit_checkpoint(lambda doc: change(next(iter(doc["groups"].values()))))


def _edit_model_metadata(change):
    return _edit_checkpoint(lambda doc: change(doc["extra"]["model"]))


def _not_utf8(text):
    return text.encode() + b"\xff\xfe1,2\n"


def _repeat_line(line_no):
    """Edit inserting a copy of one line (1-based) right after it."""
    def edit(text):
        lines = text.splitlines()
        lines.insert(line_no, lines[line_no - 1])
        return "\n".join(lines) + "\n"
    return edit


def _negative_mask_dims(text):
    # -1 x -(h*w) still multiplies out to the number of mask values
    first, *rest = text.splitlines()
    parts = first.split(",")
    parts[3], parts[4] = "-1", str(-int(parts[3]) * int(parts[4]))
    return "\n".join([",".join(parts)] + rest) + "\n"


# case: (command, file under the mask_run copy, edit, line named in the error);
# an edit returns the new text or bytes, and gets "" for a file it creates
MALFORMED = {
    "det_box_nan": ("infer", "data/det.txt", _set_field(2, 2, "nan"), 2),
    "det_confidence_inf": ("infer", "data/det.txt", _set_field(2, 6, "inf"), 2),
    "det_frame_inf": ("infer", "data/det.txt", _set_field(3, 0, "inf"), 3),
    "embedding_nan": ("infer", "data/embeddings.csv", _set_field(1, 3, "nan"), 1),
    "roi_grid_inf": ("infer", "data/roi.csv", _set_field(2, 10, "-inf"), 2),
    "gt_mask_nan": ("eval", "data/gt_masks.csv", _set_field(1, 6, "nan"), 1),
    "gt_mask_not_binary": ("eval", "data/gt_masks.csv", _set_field(1, 6, "0.7"), 1),
    "gt_mask_negative_dims": ("eval", "data/gt_masks.csv", _negative_mask_dims, 1),
    "tracks_non_integer": ("eval", "run/tracks.csv",
                           lambda text: "track_id,node_id\n1,seven\n", 2),
    "pgm_truncated": ("eval", "run/masks/node_00000.pgm", lambda text: "P2\n8 8\n", None),
    "pgm_above_maxval": ("eval", "run/masks/node_00000.pgm", lambda text: "P2\n1 1\n255\n300\n",
                         None),
    "pgm_negative": ("eval", "run/masks/node_00000.pgm", lambda text: "P2\n1 1\n255\n-5\n", None),
    # a key written twice is an error at its second row, not a silent overwrite
    "embedding_node_repeated": ("infer", "data/embeddings.csv", _repeat_line(1), 2),
    "roi_grid_node_repeated": ("infer", "data/roi.csv", _repeat_line(1), 2),
    "gt_mask_node_repeated": ("eval", "data/gt_masks.csv", _repeat_line(1), 2),
    "gt_track_frame_repeated": ("eval", "data/gt.txt", _repeat_line(1), None),
    "results_track_frame_repeated": ("eval", "run/results.txt",
                                     lambda text: "1,1,0,0,5,5,1,-1,-1,-1\n" * 2, None),
    "tracks_node_in_two_tracks": ("eval", "run/tracks.csv",
                                  lambda text: "track_id,node_id\n1,0\n2,0\n", 3),
    # node 99999 gets a mask file below but has no line in det.txt
    "tracks_node_not_in_det": ("eval", "run/tracks.csv", lambda text: text + "1,99999\n", None),
    # the same node with no mask file is still checked against det.txt
    "tracks_node_not_in_det_without_mask": ("eval", "run/tracks.csv",
                                            lambda text: text + "1,99999\n", None),
    "checkpoint_group_without_data": (
        "infer", "model/checkpoint.json", _edit_first_group(lambda g: g.pop("data")), None),
    "checkpoint_data_short_of_shape": (
        "infer", "model/checkpoint.json", _edit_first_group(lambda g: g["data"].pop()), None),
    # json writes and reads NaN; a parameter holding one is rejected at load
    "checkpoint_value_nan": (
        "infer", "model/checkpoint.json",
        _edit_first_group(lambda g: g["data"].__setitem__(0, float("nan"))), None),
    "checkpoint_num_steps_str": (
        "infer", "model/checkpoint.json", _edit_model_metadata(lambda m: m.update(num_steps="2")),
        None),
    # a depth-0 model has no node_encoder, edge_update, node_update* or
    # context_update, so the depth-2 groups are unexpected names
    "checkpoint_num_steps_zero": (
        "infer", "model/checkpoint.json", _edit_model_metadata(lambda m: m.update(num_steps=0)),
        None),
    "checkpoint_with_masks_int": (
        "infer", "model/checkpoint.json", _edit_model_metadata(lambda m: m.update(with_masks=1)),
        None),
    "checkpoint_model_int": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d["extra"].update(model=3)),
        None),
    "checkpoint_d_app_str": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d["extra"].update(d_app="x")),
        None),
    "checkpoint_d_app_float": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d["extra"].update(d_app=7.9)),
        None),
    "checkpoint_d_app_bool": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d["extra"].update(d_app=True)),
        None),
    "checkpoint_d_app_of_other_model": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d["extra"].update(d_app=7)),
        None),
    "checkpoint_groups_list": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d.update(groups=[1])), None),
    "checkpoint_extra_int": (
        "infer", "model/checkpoint.json", _edit_checkpoint(lambda d: d.update(extra=3)), None),
    "mask_name_not_a_node_id": ("eval", "run/masks/node_x.pgm", lambda text: "P2\n1 1\n1\n1\n",
                                None),
    "det_not_utf8": ("infer", "data/det.txt", _not_utf8, None),
    "pgm_not_utf8": ("eval", "run/masks/node_00000.pgm", _not_utf8, None),
    "checkpoint_not_utf8": ("infer", "model/checkpoint.json", _not_utf8, None),
    "config_not_utf8": ("infer", "cfg.json", _not_utf8, None),
}


# case: {file to create: file to copy it from}, both under the mask_run copy
MALFORMED_COPIES = {"tracks_node_not_in_det": {"run/masks/node_99999.pgm":
                                               "run/masks/node_00000.pgm"}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_naming_the_file(case, mask_run, tmp_path, capsys):
    command, name, edit, line = MALFORMED[case]
    for sub in ("data", "model", "run"):
        shutil.copytree(mask_run / sub, tmp_path / sub)
    shutil.copy(mask_run / "cfg.json", tmp_path / "cfg.json")
    for made, source in MALFORMED_COPIES.get(case, {}).items():
        shutil.copy(tmp_path / source, tmp_path / made)
    path = tmp_path / name
    edited = edit(path.read_text() if path.exists() else "")
    path.write_bytes(edited if isinstance(edited, bytes) else edited.encode())
    capsys.readouterr()
    if command == "infer":
        argv = ["infer", "--data", str(tmp_path / "data"), "--checkpoint",
                str(tmp_path / "model" / "checkpoint.json"), "--out", str(tmp_path / "out"),
                "--config", str(tmp_path / "cfg.json")]
    else:
        argv = ["eval", "--data", str(tmp_path / "data"), "--run", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (str(path) if line is None else f"{path}:{line}:") in err


# case: (command, config sections, flags, text the error must contain);
# eval and gradcheck take no config, so their cases are flags alone
BAD_CONFIGS = {
    "scenario_int_as_str": ("generate", {"scenario": {"num_frames": "10"}}, [], "num_frames"),
    "scenario_float_as_bool": ("generate", {"scenario": {"speed_max": True}}, [], "speed_max"),
    "scenario_not_object": ("generate", {"scenario": 3}, [], "scenario"),
    "model_not_object": ("train", {"model": [1]}, [], "model"),
    "train_int_as_str": ("train", {"train": {"iterations": "2"}}, [], "iterations"),
    "train_float_as_str": ("train", {"train": {"lr": "0.1"}}, [], "lr"),
    "infer_int_as_str": ("infer", {"infer": {"top_k": "3"}}, [], "top_k"),
    "infer_float_as_str": ("infer", {"infer": {"tau": "0.5"}}, [], "tau"),
    "infer_unknown_key": ("infer", {"infer": {"typo": 1}}, [], "typo"),
    "infer_threads_2": ("infer", {"infer": {"threads": 2}}, [], "threads"),
    "infer_frames_per_graph_1": ("infer", {"infer": {"frames_per_graph": 1}}, [],
                                 "frames_per_graph must be >= 2"),
    "infer_max_frame_gap_0": ("infer", {"infer": {"max_frame_gap": 0}}, [], "max_frame_gap"),
    "infer_max_frame_gap_flag_0": ("infer", {}, ["--max-frame-gap", "0"], "max_frame_gap"),
    "infer_tau_1_5": ("infer", {"infer": {"tau": 1.5}}, [], "tau must be in (0, 1)"),
    "infer_tau_flag_0": ("infer", {}, ["--tau", "0"], "tau must be in (0, 1)"),
    "eval_iou_min_1_5": ("eval", None, ["--iou-min", "1.5"], "--iou-min must be in (0, 1]"),
    "eval_iou_min_0": ("eval", None, ["--iou-min", "0"], "--iou-min must be in (0, 1]"),
    "eval_iou_min_negative": ("eval", None, ["--iou-min", "-1"], "--iou-min must be in (0, 1]"),
    "eval_iou_min_nan": ("eval", None, ["--iou-min", "nan"], "--iou-min must be in (0, 1]"),
    "eval_tau_1": ("eval", None, ["--tau", "1"], "--tau must be in (0, 1)"),
    "eval_tau_negative": ("eval", None, ["--tau", "-0.5"], "--tau must be in (0, 1)"),
    "scenario_image_width_nan": ("generate", {"scenario": {"image_width": float("nan")}}, [],
                                 "image_width must be finite"),
    "scenario_speed_max_inf": ("generate", {"scenario": {"speed_max": float("inf")}}, [],
                               "speed_max must be finite"),
    "train_lr_nan": ("train", {"train": {"lr": float("nan")}}, [], "lr must be finite"),
    "train_beta1_1": ("train", {"train": {"beta1": 1.0}}, [], "beta1 must be in [0, 1)"),
    "train_beta2_negative": ("train", {"train": {"beta2": -0.5}}, [], "beta2 must be in [0, 1)"),
    # numpy's generators take no negative seed
    "generate_seed_flag_negative": ("generate", None, ["--seed", "-1"], "seed must be >= 0"),
    "train_seed_flag_negative": ("train", None, ["--seed", "-1"], "seed must be >= 0"),
    "gradcheck_seed_flag_negative": ("gradcheck", None, ["--seed", "-2"], "seed must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_wrongly_typed_config_exits_1_naming_the_key(case, mask_run, tmp_path, capsys):
    command, sections, flags, named = BAD_CONFIGS[case]
    config = [] if sections is None else ["--config", _write_config(tmp_path / "bad.json",
                                                                    **sections)]
    data, out = str(mask_run / "data"), str(tmp_path / "out")
    argv = {"generate": ["generate", "--out", out],
            "train": ["train", "--data", data, "--out", out],
            "infer": ["infer", "--data", data, "--out", out,
                      "--checkpoint", str(mask_run / "model" / "checkpoint.json")],
            "eval": ["eval", "--data", data, "--run", str(mask_run / "run"),
                     "--out", str(tmp_path / "report.csv")],
            "gradcheck": ["gradcheck"]}[command]
    capsys.readouterr()
    assert main(argv + flags + config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


CONFIG_CLASSES = {"scenario": ScenarioConfig, "model": MpnConfig, "train": TrainConfig,
                  "infer": InferConfig}
# fields checked by a rule over two of them, whose message names the rule
PAIRED = {"box_size_min": "box_size_min <= box_size_max",
          "mask_fill_min": "mask fill fractions", "mask_fill_max": "mask fill fractions"}
FLOAT_FIELDS = [(section, f.name) for section, cls in CONFIG_CLASSES.items()
                for f in fields(cls) if f.type == "float"]


def test_float_field_sweep_covers_every_section_with_floats():
    assert {section for section, _ in FLOAT_FIELDS} == {"scenario", "train", "infer"}
    assert len(FLOAT_FIELDS) >= 20


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, name", FLOAT_FIELDS,
                         ids=[f"{s}.{n}" for s, n in FLOAT_FIELDS])
def test_non_finite_float_config_value_is_rejected_naming_the_field(section, name, value):
    with pytest.raises(ConfigError) as info:
        config_from_dict(CONFIG_CLASSES[section], section, {name: value})
    assert PAIRED.get(name, name) in str(info.value)


NAN = float("nan")


@pytest.mark.parametrize("check, args, kwargs, message", [
    (check_at_least, ("top_k", 0, 1), {}, "top_k must be >= 1, got 0"),
    (check_at_least, ("seed", NAN, 0), {}, "seed must be >= 0, got nan"),
    (check_in, ("p", 1.5, 0, 1), {}, "p must be in [0, 1], got 1.5"),
    (check_in, ("p", -0.1, 0, 1), {}, "p must be in [0, 1], got -0.1"),
    (check_in, ("b", 1.0, 0, 1), {"open_high": True}, "b must be in [0, 1), got 1.0"),
    (check_in, ("t", 0, 0, 1), {"open_low": True, "open_high": True},
     "t must be in (0, 1), got 0"),
    (check_in, ("t", NAN, 0, 1), {"open_low": True}, "t must be in (0, 1], got nan"),
])
def test_range_checks_spell_one_message_and_fail_nan(check, args, kwargs, message):
    with pytest.raises(ConfigError) as info:
        check(*args, **kwargs)
    assert str(info.value) == message


def test_range_checks_accept_their_closed_bounds():
    check_at_least("top_k", 1, 1)
    check_in("p", 0, 0, 1)
    check_in("p", 1.0, 0, 1)
    check_in("iou_min", 1.0, 0, 1, open_low=True)
    check_in("beta1", 0.0, 0, 1, open_high=True)


def test_config_float_fields_accept_ints(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", scenario={"num_frames": 3, "image_width": 300},
                        train={"iterations": 1, "lr": 0})
    data = str(tmp_path / "data")
    assert main(["generate", "--out", data, "--config", cfg]) == 0
    assert main(["train", "--data", data, "--out", str(tmp_path / "m"), "--config", cfg]) == 0


@pytest.mark.parametrize("threads, code", [("1", 0), ("2", 1)])
def test_infer_threads_flag_accepts_only_1(threads, code, mask_run, tmp_path, capsys):
    argv = ["infer", "--data", str(mask_run / "data"), "--out", str(tmp_path / "out"),
            "--checkpoint", str(mask_run / "model" / "checkpoint.json"),
            "--config", str(mask_run / "cfg.json"), "--threads", threads]
    capsys.readouterr()
    assert main(argv) == code
    if code:
        assert "threads" in capsys.readouterr().err
    else:
        assert (tmp_path / "out" / "edges.csv").exists()


def _mask_run_detections(mask_run):
    dets = load_mot_detections(mask_run / "data" / "det.txt")
    attach_embeddings(dets, mask_run / "data" / "embeddings.csv")
    attach_roi_grids(dets, mask_run / "data" / "roi.csv")
    return dets


def test_infer_writes_edges_in_solution_order(mask_run):
    dets = _mask_run_detections(mask_run)
    params = ModelParams.load(mask_run / "model" / "checkpoint.json")
    sol = run_inference(dets, params, InferConfig(**SMALL["infer"]))
    lines = (mask_run / "run" / "edges.csv").read_text().splitlines()
    assert lines[0] == "src,dst,prob,label"
    rows = [line.split(",") for line in lines[1:]]
    pairs = [(int(src), int(dst)) for src, dst, _, _ in rows]
    assert pairs == list(sol.edge_probs) == list(sol.labels)
    assert all(a < b for a, b in zip(pairs, pairs[1:]))
    assert [(float(p), int(label)) for _, _, p, label in rows] == \
        [(sol.edge_probs[pair], sol.labels[pair]) for pair in pairs]


@pytest.mark.parametrize("flag, message", [("--top-k", "top_k must be >= 1"),
                                           ("--max-frame-gap", "max_frame_gap must be >= 1")])
def test_infer_rejects_a_zero_graph_option_on_a_one_detection_sequence(
        flag, message, mask_run, tmp_path, capsys):
    data = tmp_path / "one"
    data.mkdir()
    one = _mask_run_detections(mask_run)[:1]
    write_detections(one, data / "det.txt")
    write_embeddings(one, data / "embeddings.csv")
    write_roi_grids(one, data / "roi.csv")
    argv = ["infer", "--data", str(data), "--out", str(tmp_path / "out"),
            "--checkpoint", str(mask_run / "model" / "checkpoint.json"),
            "--config", str(mask_run / "cfg.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [flag, "0"]) == 1
    assert message in capsys.readouterr().err


FIELDS = st.sampled_from(["0", "1", "2", "-1", "3.5", "1e400", "nan", "-inf", "", "x",
                          "P2", "track_id", "node_id", "64"])
ROWS = st.lists(st.lists(FIELDS, min_size=1, max_size=12).map(",".join), max_size=6)
TEXT = st.one_of(st.text(), ROWS.map("\n".join),
                 ROWS.map(lambda rows: "track_id,node_id\n" + "\n".join(rows)),
                 st.lists(FIELDS, max_size=12).map(lambda t: "P2 " + " ".join(t)))

LOADERS = {
    "load_mot_detections": load_mot_detections,
    "load_tracks": load_tracks,
    "attach_embeddings": lambda path: attach_embeddings([Detection(0, 1, (0.0, 0.0, 1.0, 1.0))],
                                                        path),
    "attach_roi_grids": lambda path: attach_roi_grids([Detection(0, 1, (0.0, 0.0, 1.0, 1.0))],
                                                      path),
    "load_gt_masks": load_gt_masks,
    "load_track_assignment": load_track_assignment,
    "read_mask_pgm": read_mask_pgm,
}


# UTF-8 text, arbitrary bytes, and text with a byte no UTF-8 text contains
CONTENT = st.one_of(TEXT.map(str.encode), st.binary(),
                    st.tuples(TEXT, st.binary()).map(lambda tb: tb[0].encode() + b"\xff" + tb[1]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(content=CONTENT)
def test_loaders_return_or_raise_parse_error_on_any_text(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(content)
        for name, load in LOADERS.items():
            try:
                load(path)
            except ParseError as e:
                assert str(path) in str(e), name
