"""Tracking graphs over detections.

A sequence's detections become per-node arrays once, in a NodeTable, and
windows are row indices into it.  Nodes are detections, edges connect
detections in different frames that could belong to the same object.
Candidate edges are limited by a frame gap and pruned to mutual top-k
nearest neighbors in appearance space.  Partners ranks every node's
candidates once per table under that gap, and build_graph, the one way to
make a tracking graph, cuts each window's graph from the ranking: a node's
top-k within a window are the first k of its ranked list that lie in the
window.  Nodes are held in a content-keyed canonical order (frame, box, id)
so a relabeling of node ids leaves every internal array, and therefore
every downstream float operation, unchanged.
Edge labels, read in training from the identities the node table holds,
obey flow constraints (at most one active edge into the past and one into
the future per node), counted and checked here for training and inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FeasibilityError, check_at_least
from .synthdata import Detection


def _payload(ids: np.ndarray, values: list, what: str) -> np.ndarray:
    """Each detection's array, or None, in one object array; every array of a
    kind must have the first one's shape and finite values."""
    shape = next((np.shape(v) for v in values if v is not None), None)
    for nid, v in zip(ids, values):
        if v is not None and np.shape(v) != shape:
            raise ConfigError(f"detection {nid}: {what} {np.shape(v)} does not match {shape}")
    present = [i for i, v in enumerate(values) if v is not None]
    if present:
        _check_finite(ids[present], np.stack([values[i] for i in present]), what)
    return np.fromiter(values, dtype=object, count=len(values))


def _check_finite(ids: np.ndarray, rows: np.ndarray, what: str) -> None:
    finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
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
    gt_identity: np.ndarray              # (n,) int64, -1 without an identity
    appearance: np.ndarray               # (n,) objects: (d_app,) arrays
    roi: np.ndarray                      # (n,) objects: (H, W, d_roi) arrays
    gt_masks: np.ndarray                 # (n,) objects: (H, W) arrays

    @classmethod
    def from_detections(cls, detections: list[Detection]) -> NodeTable:
        """The one conversion of detections to arrays, in input order, with
        every check a graph relies on: unique ids, finite boxes and
        payloads, and one shape per payload."""
        ids = np.fromiter((d.node_id for d in detections), np.int64, len(detections))
        repeat = np.ones(len(ids), dtype=bool)
        repeat[np.unique(ids, return_index=True)[1]] = False
        if repeat.any():
            raise ConfigError(f"duplicate node id {ids[np.argmax(repeat)]}")
        boxes = np.asarray([d.box for d in detections], dtype=np.float64).reshape(-1, 4)
        _check_finite(ids, boxes, "box")
        return cls(ids, np.fromiter((d.frame for d in detections), np.int64, len(ids)), boxes,
                   np.fromiter((-1 if d.gt_identity is None else d.gt_identity
                                for d in detections), np.int64, len(ids)),
                   _payload(ids, [d.appearance for d in detections], "appearance vector"),
                   _payload(ids, [d.roi_grid for d in detections], "roi grid"),
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


def _check_gap(max_frame_gap: int | None) -> None:
    if max_frame_gap is not None:
        check_at_least("max_frame_gap", max_frame_gap, 1)


def check_window_options(frames_per_graph: int, max_frame_gap: int | None, top_k: int) -> None:
    """The range checks on the window options, for every config that takes them."""
    check_at_least("frames_per_graph", frames_per_graph, 2)
    _check_gap(max_frame_gap)
    check_at_least("top_k", top_k, 1)


def window_gap(max_frame_gap: int | None, frames_per_graph: int) -> int:
    """The widest frame gap of a candidate pair in any window of
    frames_per_graph frames, with None as no gap limit."""
    span = frames_per_graph - 1
    return span if max_frame_gap is None else min(max_frame_gap, span)


def _candidate_pairs(frames: np.ndarray, max_frame_gap: int | None):
    """(earlier, later) row arrays of the nodes 1 to max_frame_gap frames
    apart, one piece per distance k between present frames: the nodes of
    the i-th present frame paired with those of the (i + k)-th."""
    order = np.argsort(frames, kind="stable")
    present, start, count = np.unique(frames[order], return_index=True, return_counts=True)
    for k in range(1, len(present)):
        near = present[k:] - present[:-k]
        if max_frame_gap is not None:
            near = near <= max_frame_gap
            if not near.any():         # distances grow with k
                return
        a = np.flatnonzero(near)
        b = a + k
        size = count[a] * count[b]
        block = np.repeat(np.arange(len(a)), size)
        t = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        yield (order[start[a][block] + t // count[b][block]],
               order[start[b][block] + t % count[b][block]])


class Partners:
    """Every node's candidate partners in a node table, ranked once.

    A candidate pair is two nodes 1 to max_frame_gap frames apart, or in any
    two frames with None; this gap is the gap of every graph cut from the
    ranking, so windows of frames_per_graph frames are ranked at
    window_gap(max_frame_gap, frames_per_graph).  Each node's partners in
    either direction are listed by (appearance distance, node id), so its
    top-k partners among any rows of the table are the first k entries of
    its list among those rows.  A node is held by its slot, its position in
    ascending id order.
    """

    __slots__ = ("ids", "_indptr", "_partners")

    def __init__(self, nodes: NodeTable, max_frame_gap: int | None):
        _check_gap(max_frame_gap)
        n = len(nodes.ids)
        by_id = np.argsort(nodes.ids, kind="stable")
        slot = np.empty(n, np.int64)
        slot[by_id] = np.arange(n)
        self.ids = nodes.ids[by_id]
        pieces = list(_candidate_pairs(nodes.frames, max_frame_gap))
        app = nodes.stack("appearance", "appearance vector") if n else None
        earlier = np.concatenate([np.zeros(0, np.int64)] + [u for u, _ in pieces])
        later = np.concatenate([np.zeros(0, np.int64)] + [v for _, v in pieces])
        dist = np.concatenate([np.zeros(0)] + [_app_dist(app[u], app[v]) for u, v in pieces])
        owners = slot[np.concatenate((earlier, later))]
        partners = slot[np.concatenate((later, earlier))]
        # order each owner's entries by (distance, partner id) through one
        # sort of integer keys; slots ascend with ids, and dense ranks keep
        # the keys below n * entries
        _, dist_rank = np.unique(dist, return_inverse=True)
        keys, key_rank = np.unique(np.tile(dist_rank, 2) * n + partners, return_inverse=True)
        ranked = np.sort(owners * len(keys) + key_rank) % max(len(keys), 1)
        self._partners = keys[ranked] % max(n, 1)
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=n))))

    def _slots(self, ids: np.ndarray) -> np.ndarray:
        """Each id's slot, or a ConfigError naming the first unknown id."""
        slot = np.searchsorted(self.ids, ids)
        known = slot < len(self.ids)
        known[known] = self.ids[slot[known]] == ids[known]
        if not known.all():
            raise ConfigError(f"node {ids[np.argmin(known)]} is not in the ranked node table")
        return slot


def build_graph(nodes: NodeTable, partners: Partners, top_k: int) -> TrackGraph:
    """Cut a window's graph from its table's ranking, keeping mutual top-k
    neighbors.

    nodes is a window of the table that partners ranks: its rows are
    matched by node id (boxes may differ, as after augmentation), and an id
    missing from the ranked table is a ConfigError.  Every ranked candidate
    pair inside the window is a candidate, so the ranking's frame gap is the
    graph's.  Each node ranks its candidates in either direction by
    Euclidean distance between appearance vectors, ties broken by lower
    node id, and an edge joins two candidates that each rank among the
    other's first top_k in the window, read off the ranked lists with no
    sort.  Edges always point from the earlier frame to the later one, in
    row-major (src, dst) order of canonical positions.
    """
    check_at_least("top_k", top_k, 1)
    nodes = nodes.canonical()
    m = len(nodes.ids)
    slot = partners._slots(nodes.ids)
    pos = np.full(len(partners.ids), -1)
    pos[slot] = np.arange(m)
    lo = partners._indptr[slot]
    size = partners._indptr[slot + 1] - lo
    owner = np.repeat(np.arange(m), size)
    entry = np.arange(len(owner)) + (lo - (np.cumsum(size) - size))[owner]
    partner = pos[partners._partners[entry]]
    keep = np.flatnonzero(partner >= 0)
    owner = owner[keep]
    # each owner's partners in the window stay in ranked order: keep its first top_k
    top = np.arange(len(owner)) - np.searchsorted(owner, np.arange(m))[owner] < top_k
    owner, partner = owner[top], partner[keep[top]]
    # partners lie in other frames, so the earlier node has the lower
    # position; a pair chosen from both ends appears twice, and sorted
    # keys are in row-major (src, dst) order
    key = np.sort(np.minimum(owner, partner) * m + np.maximum(owner, partner))
    src, dst = np.divmod(key[1:][key[1:] == key[:-1]], max(m, 1))
    return TrackGraph(nodes, src, dst)


def graph_from_edge_list(nodes: NodeTable | list[Detection], pairs) -> TrackGraph:
    """Build a graph from explicit (node_id, node_id) cross-frame pairs,
    given as a sequence of 2-tuples or an (n, 2) integer array, over a node
    table or detections to convert with NodeTable.from_detections."""
    if not isinstance(nodes, NodeTable):
        nodes = NodeTable.from_detections(nodes)
    nodes = nodes.canonical()
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
    check_at_least("frames_per_graph", frames_per_graph, 2)
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


def ground_truth_labels(graph: TrackGraph) -> np.ndarray:
    """Mark edges joining consecutive detections of one identity positive.

    Returns one float64 target (0.0 or 1.0) per edge, in edge order.
    Identities come from graph.nodes.gt_identity; a node without one (< 0)
    is background and keeps all incident edges negative.  Consecutive means
    next in frame order among the identity's nodes in the graph, so a
    dropped middle detection makes the surviving skip edge the positive
    one.  Two nodes of one identity in one frame are a ConfigError.
    """
    ident, frames = graph.nodes.gt_identity, graph.frames
    order = np.lexsort((frames, ident))
    a, b = order[:-1], order[1:]
    same = (ident[a] == ident[b]) & (ident[a] >= 0)
    tie = same & (frames[a] == frames[b])
    if tie.any():
        i = a[np.argmax(tie)]
        raise ConfigError(f"identity {ident[i]} has two detections in frame {frames[i]}")
    next_pos = np.full(graph.num_nodes, -1)
    next_pos[a[same]] = b[same]
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
