"""Tracking graphs over detections.

A sequence's detections become per-node arrays once, in a NodeTable, and
windows are row indices into it.  Nodes are detections, edges connect
detections in different frames that could belong to the same object.
Candidate edges are limited by a frame gap and pruned to mutual top-k
nearest neighbors in appearance space.  Nodes are held in a content-keyed
canonical order (frame, box, id) so a relabeling of node ids leaves every
internal array, and therefore every downstream float operation, unchanged.
The flow constraints on edge labels (at most one active edge into the past
and one into the future per node) are counted and checked here for training
and inference alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FeasibilityError
from .synthdata import Detection, Scenario


def _payload(ids: np.ndarray, values: list, what: str) -> np.ndarray:
    """Each detection's array, or None, in one object array; every array of a
    kind must have the first one's shape."""
    shape = next((np.shape(v) for v in values if v is not None), None)
    for nid, v in zip(ids, values):
        if v is not None and np.shape(v) != shape:
            raise ConfigError(f"detection {nid}: {what} {np.shape(v)} does not match {shape}")
    return np.fromiter(values, dtype=object, count=len(values))


def _check_finite(ids: np.ndarray, rows: np.ndarray, what: str) -> None:
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ConfigError(f"detection {ids[np.argmin(finite)]} has a non-finite {what}")


@dataclass
class NodeTable:
    """Detections as parallel arrays, one row per node.  A payload column
    (appearance, roi, gt_masks) holds each detection's own array, or None,
    and is stacked where it is read."""

    ids: np.ndarray                      # (n,) int64
    frames: np.ndarray                   # (n,) int64
    boxes: np.ndarray                    # (n, 4) float64: x, y, w, h
    appearance: np.ndarray               # (n,) objects: (d_app,) arrays
    roi: np.ndarray                      # (n,) objects: (H, W, d_roi) arrays
    gt_masks: np.ndarray                 # (n,) objects: (H, W) arrays

    @classmethod
    def from_detections(cls, detections: list[Detection]) -> NodeTable:
        """The one conversion of detections to arrays, in input order, with
        every check a graph relies on: unique ids, finite boxes and
        appearance vectors, and one shape per payload."""
        ids = np.fromiter((d.node_id for d in detections), np.int64, len(detections))
        repeat = np.ones(len(ids), dtype=bool)
        repeat[np.unique(ids, return_index=True)[1]] = False
        if repeat.any():
            raise ConfigError(f"duplicate node id {ids[np.argmax(repeat)]}")
        boxes = np.asarray([d.box for d in detections], dtype=np.float64).reshape(-1, 4)
        _check_finite(ids, boxes, "box")
        app = _payload(ids, [d.appearance for d in detections], "appearance vector")
        has_app = np.fromiter((v is not None for v in app), bool, len(app))
        if has_app.any():
            _check_finite(ids[has_app], np.stack(app[has_app]), "appearance vector")
        return cls(ids, np.fromiter((d.frame for d in detections), np.int64, len(ids)), boxes,
                   app, _payload(ids, [d.roi_grid for d in detections], "roi grid"),
                   _payload(ids, [d.gt_mask for d in detections], "mask"))

    def take(self, rows: np.ndarray) -> NodeTable:
        return NodeTable(*(col[rows] for col in vars(self).values()))

    def canonical(self) -> NodeTable:
        """The rows sorted by (frame, box, id): content first, so relabeled
        ids cannot reorder distinct boxes, or the float sums over them."""
        x, y, w, h = self.boxes.T
        return self.take(np.lexsort((self.ids, h, w, y, x, self.frames)))

    def stack(self, column: str, what: str) -> np.ndarray:
        """A payload column stacked into one array, or a ConfigError naming
        the first detection without one."""
        values = getattr(self, column)
        missing = next((i for i, v in enumerate(values) if v is None), None)
        if missing is not None:
            raise ConfigError(f"detection {self.ids[missing]} has no {what}")
        return np.stack(values)


def _as_table(nodes: NodeTable | list[Detection]) -> NodeTable:
    return nodes if isinstance(nodes, NodeTable) else NodeTable.from_detections(nodes)


@dataclass
class TrackGraph:
    """Immutable edge structure; embeddings live with the forward pass."""

    nodes: NodeTable                         # canonical node order
    edge_src: np.ndarray                     # node positions, earlier frame
    edge_dst: np.ndarray                     # node positions, later frame

    @property
    def node_ids(self) -> np.ndarray:
        return self.nodes.ids

    @property
    def frames(self) -> np.ndarray:
        return self.nodes.frames

    @property
    def num_nodes(self) -> int:
        return len(self.nodes.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Edges as (node_id_earlier, node_id_later) pairs in edge order."""
        return [(int(self.node_ids[u]), int(self.node_ids[v]))
                for u, v in zip(self.edge_src, self.edge_dst)]


def _app_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean appearance distance along the last axis, the one formula
    for ranking partners and for edge features."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def _check_graph_options(max_frame_gap: int | None, top_k: int) -> None:
    """The range checks on the graph options, for every caller that takes them."""
    if max_frame_gap is not None and max_frame_gap < 1:
        raise ConfigError(f"max_frame_gap must be >= 1, got {max_frame_gap}")
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")


def build_graph(nodes: NodeTable | list[Detection], max_frame_gap: int | None,
                top_k: int) -> TrackGraph:
    """Connect detections across frames, then keep mutual top-k neighbors.

    nodes is a node table, or detections to convert with
    NodeTable.from_detections.  Detections at most max_frame_gap frames
    apart are candidates; None sets no gap limit, so a window's graph spans
    the whole window.  Ranking uses Euclidean distance between appearance
    vectors, ties broken by lower node id.  Edges always point from the
    earlier frame to the later one.
    """
    _check_graph_options(max_frame_gap, top_k)
    nodes = _as_table(nodes).canonical()
    frames, ids, n = nodes.frames, nodes.ids, len(nodes.ids)
    if not n:
        return TrackGraph(nodes, np.zeros(0, np.int64), np.zeros(0, np.int64))
    app = nodes.stack("appearance", "appearance vector")

    gap = frames[None, :] - frames[:, None]
    candidate = gap >= 1                              # u earlier than v
    if max_frame_gap is not None:
        candidate &= gap <= max_frame_gap
    # distances of candidate pairs only, mirrored: a - b and b - a square to
    # the same values; the other entries rank last and are never read
    cu, cv = np.nonzero(candidate)
    dist = np.zeros((n, n))
    dist[cu, cv] = dist[cv, cu] = _app_dist(app[cu], app[cv])

    # per node: partners in either direction ranked by (distance, node id),
    # non-partners last; keep[u, v] marks v among u's top_k partners.  Dense on
    # purpose: one lexsort over the candidate pairs alone, ranked with
    # searchsorted, measured about 1.5x slower per window
    partner_mask = candidate | candidate.T
    rank_order = np.lexsort((np.broadcast_to(ids, dist.shape), dist, ~partner_mask), axis=1)
    keep = np.zeros_like(partner_mask)
    np.put_along_axis(keep, rank_order[:, :top_k], True, axis=1)
    keep &= partner_mask

    # row-major nonzero order is already sorted by (src, dst)
    src, dst = np.nonzero(candidate & keep & keep.T)
    return TrackGraph(nodes, src.astype(np.int64), dst.astype(np.int64))


def graph_from_edge_list(nodes: NodeTable | list[Detection], pairs) -> TrackGraph:
    """Build a graph from explicit (node_id, node_id) cross-frame pairs,
    given as a sequence of 2-tuples or an (n, 2) integer array, over a node
    table or detections to convert with NodeTable.from_detections."""
    nodes = _as_table(nodes).canonical()
    ids, frames, n = nodes.ids, nodes.frames, len(nodes.ids)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if n == 0 and len(pairs):
        raise ConfigError(f"edge ({pairs[0, 0]}, {pairs[0, 1]}) references unknown node ids")
    # id -> canonical position; a position holding another id marks an unknown one
    by_id = np.argsort(ids, kind="stable")
    at = by_id[np.searchsorted(ids, pairs, side="right", sorter=by_id) - 1]
    unknown = (ids[at] != pairs).any(axis=1)
    frame_i, frame_j = frames[at].T
    same_frame = ~unknown & (frame_i == frame_j)
    if (unknown | same_frame).any():
        first = int(np.argmax(unknown | same_frame))
        i, j = pairs[first]
        what = "references unknown node ids" if unknown[first] \
            else "connects detections in the same frame"
        raise ConfigError(f"edge ({i}, {j}) {what}")
    earlier, later = np.where(frame_i < frame_j, at.T, at.T[::-1])
    # sorted keys give the distinct edges in row-major (src, dst) order
    src, dst = np.divmod(np.unique(earlier * n + later), max(n, 1))
    return TrackGraph(nodes, src, dst)


def split_windows(detections: list[Detection], frames_per_graph: int) -> list[np.ndarray]:
    """Row indices into detections, and so into the node table made from
    them, of each frame window [f, f + n - 1], for every present start
    frame f whose window fits, each window in input order.

    A sequence spanning at most n frames yields exactly one window holding
    everything.  Consecutive windows overlap by n - 1 frames.
    """
    if frames_per_graph < 2:
        raise ConfigError(f"frames_per_graph must be >= 2, got {frames_per_graph}")
    if not detections:
        return []
    frames = np.asarray([d.frame for d in detections], dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    frames = frames[order]
    present = np.unique(frames)
    fits = present + frames_per_graph - 1 <= present[-1]
    fits[0] = True                     # a short sequence is one window
    starts = present[fits]
    lo = np.searchsorted(frames, starts)
    hi = np.searchsorted(frames, starts + frames_per_graph - 1, side="right")
    return [np.sort(order[a:b]) for a, b in zip(lo, hi)]


def ground_truth_labels(graph: TrackGraph, scenario: Scenario) -> np.ndarray:
    """Mark edges joining consecutive same-identity detections as positive.

    Returns one float64 target (0.0 or 1.0) per edge, in edge order.

    Consecutive means consecutive among the trajectory's detections that
    are present in the graph, so a dropped middle detection makes the
    surviving skip edge the positive one.  Detections without an identity
    count as background and keep all incident edges negative.
    """
    trajectories = list(scenario.gt_trajectories.values())
    members = np.concatenate([np.zeros(0, np.int64), *trajectories])
    owner = np.repeat(np.arange(len(trajectories)), list(map(len, trajectories)))
    present = np.isin(members, graph.node_ids)
    by_id = np.argsort(graph.node_ids, kind="stable")
    at = by_id[np.searchsorted(graph.node_ids, members[present], sorter=by_id)]
    # each trajectory's detections in the graph by frame, ties in trajectory order
    order = np.lexsort((graph.frames[at], owner[present]))
    at, owner = at[order], owner[present][order]
    follows = owner[1:] == owner[:-1]
    next_pos = np.full(graph.num_nodes, -1)
    next_pos[at[:-1][follows]] = at[1:][follows]
    y = (next_pos[graph.edge_src] == graph.edge_dst).astype(np.float64)
    _assert_feasible(graph, y, "ground-truth labels")
    return y


# ---------------------------------------------------------------------------
# flow constraints: at most one active edge into the past and one into the
# future per node

@dataclass
class ConstraintReport:
    violations: list[tuple[int, str, int]]   # (node_id, side, active degree)
    satisfied: int
    total: int

    @property
    def rate(self) -> float:
        return 1.0 if self.total == 0 else self.satisfied / self.total


def _degrees(graph: TrackGraph, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Active (out, in) degree per node position under edge labels y."""
    active = np.asarray(y, dtype=np.int64) != 0
    return (np.bincount(graph.edge_src[active], minlength=graph.num_nodes),
            np.bincount(graph.edge_dst[active], minlength=graph.num_nodes))


def _assert_feasible(graph: TrackGraph, y: np.ndarray, what: str) -> None:
    outdeg, indeg = _degrees(graph, y)
    if (outdeg > 1).any() or (indeg > 1).any():
        raise FeasibilityError(f"{what} violate the degree constraints")


def check_constraints(graph: TrackGraph, y: np.ndarray) -> ConstraintReport:
    """Count the satisfied unit-degree inequalities, two per node."""
    if len(y) != graph.num_edges:
        raise ConfigError(f"got {len(y)} labels for {graph.num_edges} edges")
    outdeg, indeg = _degrees(graph, y)
    # one row per node position, past before future
    degree = np.column_stack((indeg, outdeg))
    pos, side = np.divmod(np.flatnonzero(degree > 1), 2)
    sides = np.array(["past", "future"])[side].tolist()
    violations = list(zip(graph.node_ids[pos].tolist(), sides, degree[pos, side].tolist()))
    total = 2 * graph.num_nodes
    return ConstraintReport(violations=violations, satisfied=total - len(violations),
                            total=total)


def violating_edges(graph: TrackGraph, y: np.ndarray) -> np.ndarray:
    """Boolean mask of active edges that participate in a violated inequality."""
    outdeg, indeg = _degrees(graph, y)
    active = np.asarray(y, dtype=bool)
    return active & ((outdeg[graph.edge_src] > 1) | (indeg[graph.edge_dst] > 1))
