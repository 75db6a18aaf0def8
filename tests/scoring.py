"""Scoring helpers only the tests read: ground truth straight from a
scenario, track series in the metrics' box form, and the constraint rate
over a set of windows."""

import numpy as np

from mpnflow.errors import MetricsError
from mpnflow.graph import check_constraints


def constraint_rate(graph_label_pairs: list) -> float:
    """Mean percentage of satisfied degree constraints over windows."""
    if not graph_label_pairs:
        raise MetricsError("no windows to evaluate")
    rates = [check_constraints(g, y).rate for g, y in graph_label_pairs]
    return 100.0 * float(np.mean(rates))


def gt_boxes_from_scenario(scenario) -> dict:
    gt: dict = {}
    for det in scenario:
        if det.gt_identity is not None:
            gt.setdefault(det.gt_identity, {})[det.frame] = det.box
    return gt


def gt_masks_from_scenario(scenario) -> dict:
    gt: dict = {}
    for det in scenario:
        if det.gt_identity is not None and det.gt_mask is not None:
            gt.setdefault(det.gt_identity, {})[det.frame] = \
                (det.box, np.asarray(det.gt_mask, dtype=bool))
    return gt


def track_boxes(tracks: list) -> dict:
    """Interpolated track series to {track_id: {frame: box}}, ids 1-based."""
    return {i + 1: {f: box for f, box, _ in series}
            for i, series in enumerate(tracks)}
