"""Tracking quality metrics.

Ground truth and predictions are both given as ``{track_id: {frame: box}}``
with boxes in (x, y, w, h) top-left form.  Frame-level matching follows the
usual two-stage scheme: matches from the previous frame are kept while they
still overlap enough, then the remainder is matched by maximum total IoU.
Identity switches are counted against the last track each ground-truth
identity was ever matched to.

Mask metrics compare binary occupancy grids stretched over their boxes; the
overlap is computed on the integer pixel raster so grids on different boxes
remain comparable.  ``track_masks`` turns inference output (tracks as node
ids, one probability grid per node) into that mask form, and the report
emitters print and store the resulting values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import MetricsError, check_in
from .synthdata import Box


def box_iou(a: Box, b: Box) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0.0 else 0.0


def rasterize_mask(box: Box, grid: np.ndarray, x0: int, y0: int,
                   width: int, height: int) -> np.ndarray:
    """Paint a box-local occupancy grid onto an integer pixel window.

    A pixel belongs to the mask when its center falls inside the box and the
    grid cell under the center is set.
    """
    x, y, w, h = box
    gh, gw = grid.shape
    out = np.zeros((height, width), dtype=bool)
    px = x0 + np.arange(width) + 0.5
    py = y0 + np.arange(height) + 0.5
    in_x = (px >= x) & (px < x + w)
    in_y = (py >= y) & (py < y + h)
    if not in_x.any() or not in_y.any():
        return out
    cols = np.clip(((px - x) / w * gw).astype(int), 0, gw - 1)
    rows = np.clip(((py - y) / h * gh).astype(int), 0, gh - 1)
    cells = np.asarray(grid, dtype=bool)[np.ix_(rows, cols)]
    out[np.ix_(in_y, in_x)] = cells[np.ix_(in_y, in_x)]
    return out


def mask_iou(box_a: Box, grid_a: np.ndarray, box_b: Box, grid_b: np.ndarray) -> float:
    """IoU of two box-local masks on the shared pixel raster."""
    if box_iou(box_a, box_b) == 0.0:
        return 0.0
    x0 = int(math.floor(min(box_a[0], box_b[0])))
    y0 = int(math.floor(min(box_a[1], box_b[1])))
    x1 = int(math.ceil(max(box_a[0] + box_a[2], box_b[0] + box_b[2])))
    y1 = int(math.ceil(max(box_a[1] + box_a[3], box_b[1] + box_b[3])))
    a = rasterize_mask(box_a, grid_a, x0, y0, x1 - x0, y1 - y0)
    b = rasterize_mask(box_b, grid_b, x0, y0, x1 - x0, y1 - y0)
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a, b).sum() / union)


# ---------------------------------------------------------------------------
# frame-by-frame matching shared by the box and mask variants

def _match_sequence(gt: dict, pred: dict, iou_fn, iou_min: float):
    check_in("iou_min", iou_min, 0, 1, open_low=True)
    frames = sorted({f for t in gt.values() for f in t}
                    | {f for t in pred.values() for f in t})
    last: dict = {}
    tp = fp = fn = idsw = 0
    iou_sum = 0.0
    covered = {gid: 0 for gid in gt}
    for f in frames:
        g_here = sorted(gid for gid, t in gt.items() if f in t)
        p_here = sorted(pid for pid, t in pred.items() if f in t)
        matches: dict = {}
        taken = set()
        for gid in g_here:
            pid = last.get(gid)
            if pid is not None and pid in p_here and pid not in taken:
                iou = iou_fn(gt[gid][f], pred[pid][f])
                if iou >= iou_min:
                    matches[gid] = (pid, iou)
                    taken.add(pid)
        rem_g = [g for g in g_here if g not in matches]
        rem_p = [p for p in p_here if p not in taken]
        if rem_g and rem_p:
            weights = np.array([[iou_fn(gt[g][f], pred[p][f]) for p in rem_p]
                                for g in rem_g])
            rows, cols = linear_sum_assignment(weights, maximize=True)
            for i, j in zip(rows, cols):
                if weights[i, j] >= iou_min:
                    matches[rem_g[i]] = (rem_p[j], float(weights[i, j]))
                    taken.add(rem_p[j])
        for gid in sorted(matches):
            pid, iou = matches[gid]
            tp += 1
            iou_sum += iou
            covered[gid] += 1
            if gid in last and last[gid] != pid:
                idsw += 1
            last[gid] = pid
        fp += len(p_here) - len(taken)
        fn += len(g_here) - len(matches)
    return tp, fp, fn, idsw, iou_sum, covered


@dataclass
class ClearMotReport:
    mota: float
    motp: float          # mean IoU over matched boxes
    tp: int
    fp: int
    fn: int
    idsw: int
    num_gt: int
    mostly_tracked: int
    mostly_lost: int


def clear_mot(gt: dict, pred: dict, iou_min: float = 0.5) -> ClearMotReport:
    """Frame-level tracking accuracy against box ground truth."""
    num_gt = sum(len(t) for t in gt.values())
    if num_gt == 0:
        raise MetricsError("ground truth contains no boxes")
    tp, fp, fn, idsw, iou_sum, covered = _match_sequence(gt, pred, box_iou, iou_min)
    mt = sum(1 for gid, c in covered.items() if c / len(gt[gid]) > 0.8)
    ml = sum(1 for gid, c in covered.items() if c / len(gt[gid]) < 0.2)
    return ClearMotReport(
        mota=1.0 - (fp + fn + idsw) / num_gt,
        motp=iou_sum / tp if tp else 0.0,
        tp=tp, fp=fp, fn=fn, idsw=idsw, num_gt=num_gt,
        mostly_tracked=mt, mostly_lost=ml)


def idf1(gt: dict, pred: dict, iou_min: float = 0.5) -> float:
    """Identity F1: hits under the best global identity-to-track assignment."""
    check_in("iou_min", iou_min, 0, 1, open_low=True)
    num_gt = sum(len(t) for t in gt.values())
    num_pred = sum(len(t) for t in pred.values())
    if num_gt == 0 and num_pred == 0:
        return 1.0
    gids = sorted(gt)
    pids = sorted(pred)
    if not gids or not pids:
        return 0.0
    hits = np.zeros((len(gids), len(pids)))
    for i, gid in enumerate(gids):
        for j, pid in enumerate(pids):
            shared = set(gt[gid]) & set(pred[pid])
            hits[i, j] = sum(1 for f in shared
                             if box_iou(gt[gid][f], pred[pid][f]) >= iou_min)
    rows, cols = linear_sum_assignment(hits, maximize=True)
    idtp = float(hits[rows, cols].sum())
    return 2.0 * idtp / (num_gt + num_pred)


@dataclass
class MotsReport:
    motsa: float
    smotsa: float
    mask_iou_mean: float  # over matched masks
    tp: int
    fp: int
    fn: int
    idsw: int
    num_gt: int


def mots_metrics(gt: dict, pred: dict, iou_min: float = 0.5) -> MotsReport:
    """Mask-level tracking scores.

    Both inputs map ``track_id -> {frame: (box, binary grid)}``.  sMOTSA
    replaces each true positive's unit credit with its mask IoU, so soft
    segmentation errors lower the score even without a miss.
    """
    num_gt = sum(len(t) for t in gt.values())
    if num_gt == 0:
        raise MetricsError("ground truth contains no masks")

    def pair_iou(a, b):
        return mask_iou(a[0], a[1], b[0], b[1])

    tp, fp, fn, idsw, iou_sum, _ = _match_sequence(gt, pred, pair_iou, iou_min)
    return MotsReport(
        motsa=(tp - fp - idsw) / num_gt,
        smotsa=(iou_sum - fp - idsw) / num_gt,
        mask_iou_mean=iou_sum / tp if tp else 0.0,
        tp=tp, fp=fp, fn=fn, idsw=idsw, num_gt=num_gt)


# ---------------------------------------------------------------------------
# per-track masks from inference output

def track_masks(track_node_ids: list, node_masks: dict, detections: list,
                threshold: float = 0.5) -> dict:
    """Per-track binary masks at the frames that have a detection."""
    check_in("threshold", threshold, 0, 1, open_low=True, open_high=True)
    det_by_id = {d.node_id: d for d in detections}
    pred: dict = {}
    for i, ids in enumerate(track_node_ids):
        entries = {}
        for nid in ids:
            grid = node_masks.get(nid)
            if grid is None:
                continue
            det = det_by_id.get(nid)
            if det is None:
                raise MetricsError(f"node {nid} has a mask but no detection")
            entries[det.frame] = (det.box, np.asarray(grid) >= threshold)
        if entries:
            pred[i + 1] = entries
    return pred


def format_table(values: dict) -> str:
    width = max(len(k) for k in values)
    lines = []
    for key, val in values.items():
        shown = f"{val:.4f}" if isinstance(val, float) else str(val)
        lines.append(f"{key.ljust(width)}  {shown}")
    return "\n".join(lines)


def write_report(path, values: dict) -> None:
    with open(path, "w") as fh:
        fh.write("metric,value\n")
        for key, val in values.items():
            shown = repr(float(val)) if isinstance(val, float) else str(val)
            fh.write(f"{key},{shown}\n")
