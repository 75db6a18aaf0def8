"""Command line entry point.

Subcommands cover the full pipeline: ``generate`` writes a synthetic
sequence to disk, ``train`` fits a model on generated scenarios, ``infer``
tracks a sequence with a trained checkpoint, ``eval`` scores results
against ground truth, and ``gradcheck`` compares backpropagated gradients
with numeric ones.

Exit codes: 0 on success, 1 for configuration or file problems, 2 when a
check fails (gradcheck above tolerance).  The MPNFLOW_LOG environment
variable sets the logging level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import tensorkit as tk
from .errors import (ConfigError, MpnflowError, ParseError, check_finite_sign, check_in,
                     config_from_dict, read_text)
from .infer import ROUNDERS, InferConfig, read_mask_pgm, run_inference, write_mask_pgm
from .metrics import (clear_mot, format_table, idf1, mots_metrics, track_masks,
                      write_report)
from .mpn import VARIANTS, ModelParams, MpnConfig
from .synthdata import (ScenarioConfig, attach_embeddings, attach_roi_grids, generate_scenario,
                        load_gt_masks, load_mot_detections, load_track_assignment, load_tracks,
                        write_detections, write_embeddings, write_gt_masks, write_results,
                        write_roi_grids, write_track_assignment)
from .train import TrainConfig, build_gradcheck_case, train_loop, write_history

CONFIG_SECTIONS = ("scenario", "model", "train", "infer")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = json.loads(read_text(path))
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_SECTIONS))
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {unknown}; "
                          f"expected a subset of {list(CONFIG_SECTIONS)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: config section {name!r} must be a JSON object")
    return cfg


def _section(config: dict, name: str, args, flags) -> dict:
    """The config's section `name` with each of the given flags laid over it;
    a flag left off (None) keeps the file's value."""
    section = dict(config.get(name, {}))
    section.update({key: getattr(args, key) for key in flags if getattr(args, key) is not None})
    return section


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    cfg = config_from_dict(ScenarioConfig, "scenario",
                           _section(_load_config(args.config), "scenario", args, ("seed",)))
    # ids run 0..n-1 in frame order, the row order det.txt is written and
    # reloaded in, so the sidecar files' node ids match the reloaded ones
    detections = generate_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    write_detections([replace(d, gt_identity=None) for d in detections], out / "det.txt")
    by_identity: dict[int, list] = {}
    for d in detections:
        if d.gt_identity is not None:
            by_identity.setdefault(d.gt_identity, []).append(
                (d.frame, d.box, 1.0))
    gt_tracks = [sorted(by_identity[i]) for i in sorted(by_identity)]
    write_results(gt_tracks, out / "gt.txt")
    write_embeddings(detections, out / "embeddings.csv")
    write_roi_grids(detections, out / "roi.csv")
    write_gt_masks(detections, out / "gt_masks.csv")
    with open(out / "scenario.json", "w") as fh:
        json.dump(asdict(cfg), fh, indent=2)
        fh.write("\n")

    clutter = sum(1 for d in detections if d.gt_identity is None)
    print(f"wrote {len(detections)} detections over {cfg.num_frames} frames "
          f"to {out} ({len(by_identity)} identities, {clutter} clutter)")
    return 0


# ---------------------------------------------------------------------------
# train

def _scenario_from_dir(path: Path):
    spec = path / "scenario.json"
    if not spec.exists():
        raise ConfigError(f"{path}: no scenario.json; generate the data first")
    return generate_scenario(config_from_dict(ScenarioConfig, "scenario",
                                              json.loads(read_text(spec))))


def cmd_train(args) -> int:
    config = _load_config(args.config)
    scenarios = [_scenario_from_dir(Path(d)) for d in args.data]

    mpn_cfg = config_from_dict(MpnConfig, "model",
                               _section(config, "model", args, ("variant", "with_masks")))
    train_cfg = config_from_dict(TrainConfig, "train",
                                 _section(config, "train", args, ("iterations", "seed")))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def snapshot(iteration, params):
        params.save(out / f"checkpoint_{iteration:06d}.json")

    params, history = train_loop(scenarios, train_cfg, mpn_cfg, snapshot=snapshot)
    params.save(out / "checkpoint.json")
    write_history(history, out / "history.csv")
    last = history[-1]
    print(f"trained {train_cfg.iterations} iterations "
          f"({mpn_cfg.variant}, masks={'on' if mpn_cfg.with_masks else 'off'}); "
          f"final loss {last.total:.4f} (edges {last.edge:.4f}, masks {last.mask:.4f})")
    print(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


# ---------------------------------------------------------------------------
# infer

def cmd_infer(args) -> int:
    # every infer option has a flag of the same name
    cfg = config_from_dict(InferConfig, "infer",
                           _section(_load_config(args.config), "infer", args,
                                    [f.name for f in fields(InferConfig)]))
    params = ModelParams.load(args.checkpoint)
    data = Path(args.data)
    detections = load_mot_detections(data / "det.txt")
    attach_embeddings(detections, data / "embeddings.csv")
    if params.config.with_masks:
        attach_roi_grids(detections, data / "roi.csv")

    solution = run_inference(detections, params, cfg)

    report = solution.constraint_report
    print(f"constraint satisfaction before rounding: {100.0 * report.rate:.2f}% "
          f"({report.satisfied} of {report.total})")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # tracks.csv numbers the tracks as results.txt does
    order = write_results(solution.tracks, out / "results.txt")
    write_track_assignment([solution.track_node_ids[i] for i in order], out / "tracks.csv")
    with open(out / "edges.csv", "w") as fh:
        fh.write("src,dst,prob,label\n")
        for (src, dst), p in solution.edge_probs.items():
            fh.write(f"{src},{dst},{repr(p)},{solution.labels[(src, dst)]}\n")
    if solution.node_masks:
        mask_dir = out / "masks"
        mask_dir.mkdir(exist_ok=True)
        for nid, grid in sorted(solution.node_masks.items()):
            write_mask_pgm(mask_dir / f"node_{nid:05d}.pgm", grid)
    print(f"{len(solution.tracks)} tracks written to {out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    check_in("--iou-min", args.iou_min, 0, 1, open_low=True)
    check_in("--tau", args.tau, 0, 1, open_low=True, open_high=True)
    data = Path(args.data)
    run = Path(args.run)
    gt = load_tracks(data / "gt.txt")
    pred = load_tracks(run / "results.txt")
    box_report = clear_mot(gt, pred, iou_min=args.iou_min)
    values = asdict(box_report)
    values["idf1"] = idf1(gt, pred, iou_min=args.iou_min)

    gt_mask_file = data / "gt_masks.csv"
    tracks_file = run / "tracks.csv"
    mask_dir = run / "masks"
    if gt_mask_file.exists() and tracks_file.exists() and mask_dir.is_dir():
        detections = load_mot_detections(data / "det.txt")
        det_by_id = {d.node_id: d for d in detections}
        gt_masks: dict[int, dict] = {}
        for nid, (ident, frame, mask) in load_gt_masks(gt_mask_file).items():
            if nid not in det_by_id:
                raise ConfigError(f"{gt_mask_file}: node {nid} not in det.txt")
            gt_masks.setdefault(ident, {})[frame] = \
                (det_by_id[nid].box, mask >= 0.5)
        node_masks = {}
        for pgm in sorted(mask_dir.glob("node_*.pgm")):
            digits = pgm.stem[len("node_"):]
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"{pgm}: mask file names must be node_<id>.pgm")
            node_masks[int(digits)] = read_mask_pgm(pgm)
        assignment = load_track_assignment(tracks_file)
        unknown = next((nid for ids in assignment for nid in ids if nid not in det_by_id), None)
        if unknown is not None:
            raise ParseError(f"{tracks_file}: node {unknown} not in det.txt")
        pred_masks = track_masks(assignment, node_masks, detections, threshold=args.tau)
        mots = mots_metrics(gt_masks, pred_masks, iou_min=args.iou_min)
        values.update({"motsa": mots.motsa, "smotsa": mots.smotsa,
                       "mask_iou_mean": mots.mask_iou_mean,
                       "mask_idsw": mots.idsw})

    print(format_table(values))
    report_path = Path(args.out) if args.out else run / "report.csv"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    write_report(report_path, values)
    print(f"report written to {report_path}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(args) -> int:
    tolerance = args.tolerance
    check_finite_sign("--tolerance", tolerance, positive=True)
    failed = False
    for with_masks in (False, True):
        f, params = build_gradcheck_case(with_masks=with_masks, seed=args.seed)
        error = tk.grad_check(f, params.named_parameters())
        label = "masks on" if with_masks else "masks off"
        verdict = "ok" if error < tolerance else "FAIL"
        print(f"gradcheck ({label}): max relative error {error:.3e} "
              f"(tolerance {tolerance:.0e}) {verdict}")
        failed = failed or error >= tolerance
    return 2 if failed else 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpnflow",
                     description="graph based multi object tracking on "
                                 "synthetic sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic sequence to a directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config with a 'scenario' section")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model on generated scenarios")
    p.add_argument("--data", required=True, nargs="+",
                   help="one or more directories produced by generate")
    p.add_argument("--out", required=True, help="directory for checkpoint and history")
    p.add_argument("--config", help="JSON config with 'model' and 'train' sections")
    p.add_argument("--iterations", type=int, help="override training iterations")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--variant", choices=VARIANTS,
                   help="override the message passing variant")
    p.add_argument("--with-masks", action="store_true", default=None,
                   help="enable the segmentation head")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="track a sequence with a trained checkpoint")
    p.add_argument("--data", required=True, help="directory produced by generate")
    p.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config with an 'infer' section")
    p.add_argument("--frames-per-graph", dest="frames_per_graph", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--max-frame-gap", dest="max_frame_gap", type=int)
    p.add_argument("--tau", type=float, help="classification threshold")
    p.add_argument("--rounder", choices=ROUNDERS)
    p.add_argument("--min-track-len", dest="min_track_len", type=int)
    p.add_argument("--threads", type=int, help="must be 1; windows run one after another")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--data", required=True, help="directory produced by generate")
    p.add_argument("--run", required=True, help="directory produced by infer")
    p.add_argument("--out", help="report path (default: <run>/report.csv)")
    p.add_argument("--iou-min", dest="iou_min", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=0.5,
                   help="mask binarization threshold")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="compare analytic and numeric gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("MPNFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (MpnflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
