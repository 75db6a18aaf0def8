"""Turning edge probabilities into feasible trajectories.

Thresholded labels may violate the unit-degree flow constraints (at most
one active incoming edge from the past and one outgoing to the future per
node).  Rounding restricts attention to the violating subgraph and either
solves it exactly, via maximum-weight bipartite matching on a node-split
graph, or greedily by descending probability.  Feasible labels decompose
into node-disjoint paths, which become tracks after per-coordinate linear
interpolation over dropped frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensorkit as tk
from .errors import ConfigError, ParseError, check_at_least, check_in, read_text
from .graph import (ConstraintReport, NodeTable, Partners, TrackGraph, _assert_feasible,
                    _degrees, build_graph, check_constraints, check_window_options,
                    graph_from_edge_list, split_windows, violating_edges, window_gap)
from .mpn import ModelParams, classify_edges, encode, predict_masks, propagate
from .synthdata import Box, Detection


def threshold(probs: np.ndarray, tau: float = 0.5) -> np.ndarray:
    """Binary labels from probabilities; a tie at tau counts as active."""
    check_in("tau", tau, 0, 1, open_low=True, open_high=True)
    return (np.asarray(probs) >= tau).astype(np.int64)


def _first_appearance_ids(values: np.ndarray) -> np.ndarray:
    """Dense ids numbering the distinct values in order of first appearance."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def exact_round(graph: TrackGraph, probs: np.ndarray, tau: float = 0.5) -> np.ndarray:
    """Feasible labels maximizing the sum of (p - tau) over kept active edges.

    Only the violating subgraph is re-decided; its optimum is a maximum
    weight bipartite matching between future-slot copies of the earlier
    endpoints and past-slot copies of the later ones.  Edges untouched by
    any violation keep their thresholded labels.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = threshold(probs, tau)
    sub = np.nonzero(violating_edges(graph, y))[0]
    if sub.size == 0:
        return y
    # rows and columns in first-appearance order within sub: the solver breaks
    # ties by position, and saturated probabilities do tie
    rows = _first_appearance_ids(graph.edge_src[sub])
    cols = _first_appearance_ids(graph.edge_dst[sub])
    width = cols.max() + 1
    weights = np.zeros((rows.max() + 1, width))
    weights[rows, cols] = probs[sub] - tau
    matched_rows, matched_cols = linear_sum_assignment(weights, maximize=True)
    y[sub] = 0
    # a matched cell that holds no edge adds nothing
    y[sub[np.isin(rows * width + cols, matched_rows * width + matched_cols)]] = 1
    _assert_feasible(graph, y, "rounded labels")
    return y


def greedy_round(graph: TrackGraph, probs: np.ndarray, tau: float = 0.5) -> np.ndarray:
    """Feasible labels by accepting violating-subgraph edges in descending
    probability order (ties to the lower edge index) when both endpoint
    slots are still free."""
    probs = np.asarray(probs, dtype=np.float64)
    y = threshold(probs, tau)
    sub = np.nonzero(violating_edges(graph, y))[0]
    if sub.size == 0:
        return y
    y[sub] = 0
    out_used, in_used = _degrees(graph, y)
    for e in sorted(sub, key=lambda e: (-probs[e], e)):
        u, v = graph.edge_src[e], graph.edge_dst[e]
        if out_used[u] == 0 and in_used[v] == 0:
            y[e] = 1
            out_used[u] += 1
            in_used[v] += 1
    _assert_feasible(graph, y, "rounded labels")
    return y


def extract_trajectories(graph: TrackGraph, y: np.ndarray) -> list[list[int]]:
    """Decompose feasible labels into node-disjoint paths of node ids.

    Every node appears in exactly one trajectory; nodes without active
    edges become singletons.
    """
    _assert_feasible(graph, y, "labels")
    active = np.flatnonzero(y)
    succ = dict(zip(graph.edge_src[active].tolist(), graph.edge_dst[active].tolist()))
    has_pred = np.zeros(graph.num_nodes, dtype=bool)
    has_pred[graph.edge_dst[active]] = True
    trajectories = []
    for pos in range(graph.num_nodes):
        if has_pred[pos]:
            continue
        path = [pos]
        while path[-1] in succ:
            path.append(succ[path[-1]])
        trajectories.append([int(graph.node_ids[p]) for p in path])
    return trajectories


# ---------------------------------------------------------------------------
# window-level inference

def interpolate_track(node_ids: list[int], det_by_id: dict[int, Detection]
                      ) -> list[tuple[int, Box, float]]:
    """Full per-frame series for a trajectory, filling frame gaps linearly.

    Each box coordinate (and the confidence) is interpolated independently
    between consecutive detections; nothing is extrapolated beyond the ends.
    """
    dets = sorted((det_by_id[i] for i in node_ids), key=lambda d: d.frame)
    series: list[tuple[int, Box, float]] = []
    for a, b in zip(dets, dets[1:]):
        series.append((a.frame, a.box, a.confidence))
        span = b.frame - a.frame
        for f in range(a.frame + 1, b.frame):
            t = (f - a.frame) / span
            box = tuple((1 - t) * va + t * vb for va, vb in zip(a.box, b.box))
            conf = (1 - t) * a.confidence + t * b.confidence
            series.append((f, box, conf))
    last = dets[-1]
    series.append((last.frame, last.box, last.confidence))
    return series


@dataclass
class Solution:
    edge_probs: dict[tuple[int, int], float]
    labels: dict[tuple[int, int], int]
    trajectories: list[list[int]]                      # every node, incl. singletons
    tracks: list[list[tuple[int, Box, float]]]         # min-length filtered, interpolated
    track_node_ids: list[list[int]]
    node_masks: dict[int, np.ndarray]                  # ascending node id
    constraint_report: ConstraintReport


ROUNDERS = ("exact", "greedy")


@dataclass
class InferConfig:
    frames_per_graph: int = 15
    top_k: int = 10
    max_frame_gap: int | None = None    # None sets no gap limit inside a window
    tau: float = 0.5
    rounder: str = "exact"
    min_track_len: int = 2
    threads: int = 1   # accepted for scripts that pass it; windows run one after another

    def validate(self) -> None:
        if self.rounder not in ROUNDERS:
            raise ConfigError(f"rounder must be one of {ROUNDERS}, got {self.rounder!r}")
        check_at_least("min_track_len", self.min_track_len, 1)
        check_window_options(self.frames_per_graph, self.max_frame_gap, self.top_k)
        check_in("tau", self.tau, 0, 1, open_low=True, open_high=True)
        if self.threads != 1:
            raise ConfigError(
                f"threads must be 1 (windows run one after another), got {self.threads}")


def _window_means(keys: tuple[np.ndarray, ...], values: np.ndarray):
    """The distinct rows of the key columns in ascending order, and for each
    the mean of its values, given in window order: the stable sort keeps that
    order within a key, and each mean is np.sum over its k values / k."""
    order = np.lexsort(keys[::-1])
    keys, values = np.column_stack(keys)[order], values[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys))
    mean = np.empty((len(starts),) + values.shape[1:])
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        mean[rows] = np.sum(values[starts[rows, None] + np.arange(k)], axis=1) / k
    return keys[starts], mean


def _rows(t: tk.Tensor | None, rows: np.ndarray) -> tk.Tensor | None:
    return None if t is None else tk.Tensor(t.data[rows])


def run_inference(detections: list[Detection], params: ModelParams, cfg: InferConfig) -> Solution:
    """Classify each window, average every edge and node over its windows in
    window order, round, and extract tracks.  Graph partners are ranked once
    for the whole sequence, and each window's graph is cut from them.  The
    union of the window graphs is encoded once, and each window's message
    passing starts from its rows of that encoding."""
    cfg.validate()
    table = NodeTable.from_detections(detections)
    partners = Partners(table, window_gap(cfg.max_frame_gap, cfg.frames_per_graph))
    graphs = [build_graph(table.take(rows), partners, cfg.top_k)
              for rows in split_windows(detections, cfg.frames_per_graph) if len(rows) >= 2]
    # a node's slot is its rank by id, so keys of slot pairs sort as id pairs do
    n = max(len(table.ids), 1)
    slots = [partners._slots(g.node_ids) for g in graphs]
    keys, edge_key = np.unique(np.concatenate([np.zeros(0, np.int64)] + [
        s[g.edge_src] * n + s[g.edge_dst] for g, s in zip(graphs, slots)]), return_inverse=True)
    slot_pairs = np.column_stack(np.divmod(keys, n))
    pairs = partners.ids[slot_pairs]   # distinct, in id order
    union = graph_from_edge_list(table, pairs)
    # each slot's union node, and each pair's union edge
    node_at = np.empty(len(table.ids), np.int64)
    node_at[partners._slots(union.node_ids)] = np.arange(union.num_nodes)
    at = node_at[slot_pairs]
    pair_edge = np.searchsorted(union.edge_src * n + union.edge_dst, at[:, 0] * n + at[:, 1])
    edge_at = pair_edge[edge_key]   # every window edge's union edge, window by window
    ends = np.cumsum([g.num_edges for g in graphs], dtype=np.int64)

    probs, mask_ids, grids = [np.zeros(0)], [], []   # a mask model's node ids and masks too
    with tk.no_grad():
        node_h0, edge_h0, roi = encode(union, params)
        for g, s, edges in zip(graphs, slots, np.split(edge_at, ends[:-1])):
            rows = node_at[s]
            state = propagate(g, params, _rows(node_h0, rows), _rows(edge_h0, edges),
                              _rows(roi, rows))
            # final_probs reads the last step alone
            probs.append(classify_edges(state, params, params.config.num_steps).data)
            if params.config.with_masks:
                mask_ids.append(g.node_ids)
                grids.append(predict_masks(state, params).data)
    node_masks = {}
    if grids:
        nodes, node_mean = _window_means((np.concatenate(mask_ids),), np.concatenate(grids))
        node_masks = dict(zip(nodes[:, 0].tolist(), node_mean))
    # every union edge lies in a window, so the means come in union edge order
    _, probs_arr = _window_means((edge_at,), np.concatenate(probs))
    tentative = threshold(probs_arr, cfg.tau)
    report = check_constraints(union, tentative)
    y = exact_round(union, probs_arr, cfg.tau) if cfg.rounder == "exact" \
        else greedy_round(union, probs_arr, cfg.tau)
    trajectories = extract_trajectories(union, y)

    det_by_id = {d.node_id: d for d in detections}
    tracks = []
    track_node_ids = []
    for traj in trajectories:
        if len(traj) < cfg.min_track_len:
            continue
        tracks.append(interpolate_track(traj, det_by_id))
        track_node_ids.append(traj)
    pair_keys = list(map(tuple, pairs.tolist()))
    return Solution(edge_probs=dict(zip(pair_keys, probs_arr[pair_edge].tolist())),
                    labels=dict(zip(pair_keys, y[pair_edge].tolist())),
                    trajectories=trajectories, tracks=tracks, track_node_ids=track_node_ids,
                    node_masks=node_masks, constraint_report=report)


# ---------------------------------------------------------------------------
# mask output

def write_mask_pgm(path, grid: np.ndarray) -> None:
    """Store a probability grid as an ASCII PGM with maxval 255."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ConfigError(f"mask grid must be 2-D, got shape {grid.shape}")
    levels = np.clip(np.rint(grid * 255.0), 0, 255).astype(int)
    h, w = grid.shape
    lines = ["P2", f"{w} {h}", "255"]
    for row in levels:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mask_pgm(path) -> np.ndarray:
    """Load an ASCII PGM back into a [0, 1] probability grid."""
    tokens = read_text(path).split()
    if not tokens or tokens[0] != "P2":
        raise ParseError(f"{path}: not an ASCII PGM file")
    try:
        w, h, maxval = (int(t) for t in tokens[1:4])
        vals = np.asarray([int(t) for t in tokens[4:]], dtype=np.float64)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
    if min(w, h, maxval) < 1:
        raise ParseError(f"{path}: width, height and maxval must be positive, "
                         f"got {w}, {h}, {maxval}")
    if vals.size != w * h:
        raise ParseError(f"{path}: expected {w * h} pixels, got {vals.size}")
    if not 0 <= vals.min() <= vals.max() <= maxval:
        raise ParseError(f"{path}: pixel values must be in [0, {maxval}]")
    return vals.reshape(h, w) / maxval
