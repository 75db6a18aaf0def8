"""Slow reference implementations the fast code is checked against, and
random inputs to compare them on."""

import itertools
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from scipy.optimize import linear_sum_assignment

from mpnflow.errors import ConfigError, FeasibilityError, ShapeError
from mpnflow.graph import (ConstraintReport, NodeTable, Partners, TrackGraph, build_graph,
                           graph_from_edge_list, window_gap)
from mpnflow.infer import threshold, violating_edges
from mpnflow.mpn import mpn_forward, predict_masks
from mpnflow.synthdata import Detection
from mpnflow.tensorkit import (AdamState, Tensor, _accum, _checked_grad, _live, _record,
                               _unbroadcast, add, astensor, mul, no_grad)


def subgraph_objective(graph, probs, tau, y):
    """Sum of (p - tau) over active edges of the violating subgraph."""
    tentative = threshold(probs, tau)
    sub = np.nonzero(violating_edges(graph, tentative))[0]
    return float(np.sum((probs[sub] - tau) * y[sub]))


def brute_force_round(graph, probs, tau=0.5):
    """Optimal feasible relabeling of the violating subgraph by enumerating
    every 0/1 assignment of its edges.  Returns (labels, objective)."""
    probs = np.asarray(probs, dtype=np.float64)
    tentative = threshold(probs, tau)
    sub = np.nonzero(violating_edges(graph, tentative))[0]
    base = tentative.copy()
    base[sub] = 0
    out0, in0 = reference_degrees(graph, base)

    best_y = base
    best_val = -np.inf
    for bits in itertools.product((0, 1), repeat=len(sub)):
        out = out0.copy()
        in_ = in0.copy()
        ok = True
        val = 0.0
        for e, b in zip(sub, bits):
            if not b:
                continue
            u, v = graph.edge_src[e], graph.edge_dst[e]
            out[u] += 1
            in_[v] += 1
            if out[u] > 1 or in_[v] > 1:
                ok = False
                break
            val += probs[e] - tau
        if ok and val > best_val:
            best_val = val
            y = base.copy()
            for e, b in zip(sub, bits):
                y[e] = b
            best_y = y
    return best_y, best_val


def random_rounding_instance(rng, max_active_sub=12):
    """A small layered graph with probabilities whose thresholded labels
    violate at least one degree constraint (used to exercise the rounders),
    with at most max_active_sub edges in the violating subgraph."""
    while True:
        num_frames = int(rng.integers(2, 5))
        nodes = []
        nid = 0
        for f in range(1, num_frames + 1):
            for _ in range(int(rng.integers(2, 5))):
                nodes.append(Detection(
                    node_id=nid, frame=f,
                    box=(float(10 * nid), float(10 * f), 5.0, 5.0),
                    confidence=1.0, appearance=rng.normal(size=3)))
                nid += 1
        pairs = []
        for a, b in itertools.combinations(nodes, 2):
            if a.frame != b.frame and abs(a.frame - b.frame) <= 2 and rng.random() < 0.5:
                pairs.append((a.node_id, b.node_id))
        if not pairs:
            continue
        graph = graph_from_edge_list(nodes, pairs)
        probs = rng.uniform(0.3, 1.0, size=graph.num_edges)
        sub = violating_edges(graph, threshold(probs, 0.5))
        if 1 <= int(sub.sum()) <= max_active_sub:
            return graph, probs


@st.composite
def hand_built_graphs(draw, max_nodes=12):
    """A TrackGraph built directly, possibly empty, with nodes and distinct
    edges in no particular order and edges in either frame direction."""
    ids = draw(st.permutations(range(40)))[:draw(st.integers(0, max_nodes))]
    dets = [Detection(node_id=nid, frame=draw(st.integers(0, 5)), box=(0.0, 0.0, 1.0, 1.0))
            for nid in ids]
    pairs = [(u, v) for u in range(len(ids)) for v in range(len(ids)) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    src, dst = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    return TrackGraph(NodeTable.from_detections(dets), src.copy(), dst.copy())


def reference_canonical_order(detections):
    """The canonical node order as a Python sort on (frame, box, id)."""
    # sort key uses detection content first so relabeled ids cannot change
    # the order (and with it the float summation order) of distinct boxes
    return sorted(detections, key=lambda d: (d.frame, d.box, d.node_id))


def reference_augment(detections, p_drop, shift_std, rng):
    """augment on a Detection list: one dataclasses.replace per survivor.

    Widths and heights stay floored at one pixel.  Identities, appearance
    vectors, and mask payloads are carried over untouched, so labels can be
    recomputed on the augmented graph.
    """
    out = []
    for d in detections:
        if rng.uniform() < p_drop:
            continue
        x, y, w, h = d.box
        dx, dy = rng.normal(0.0, shift_std, size=2)
        dw, dh = rng.normal(0.0, shift_std, size=2)
        box = (x + dx, y + dy, max(w + dw, 1.0), max(h + dh, 1.0))
        out.append(replace(d, box=box))
    return out


def _reference_distances(app):
    """Euclidean distance between every two rows of app, as an N x N matrix."""
    diff = app[:, None, :] - app[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def reference_build_graph(detections, max_frame_gap, top_k):
    """build_graph as per-node sorted() top-k plus a per-edge mutual check;
    max_frame_gap None sets no gap limit."""
    if max_frame_gap is not None and max_frame_gap < 1:
        raise ConfigError(f"max_frame_gap must be >= 1, got {max_frame_gap}")
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    seen = set()
    for d in detections:
        if d.appearance is None:
            raise ConfigError(f"detection {d.node_id} has no appearance vector")
        if d.node_id in seen:
            raise ConfigError(f"duplicate node id {d.node_id}")
        seen.add(d.node_id)
    ordered = reference_canonical_order(detections)
    n = len(ordered)
    if n == 0:
        return TrackGraph(NodeTable.from_detections([]), np.zeros(0, np.int64),
                          np.zeros(0, np.int64))
    frames = np.asarray([d.frame for d in ordered])
    ids = np.asarray([d.node_id for d in ordered])
    dist = _reference_distances(np.stack([d.appearance for d in ordered]))

    gap = frames[None, :] - frames[:, None]
    candidate = gap >= 1                              # u earlier than v
    if max_frame_gap is not None:
        candidate &= gap <= max_frame_gap

    # per node: partners in either direction ranked by (distance, node id)
    keep = [set() for _ in range(n)]
    partner_mask = candidate | candidate.T
    for u in range(n):
        partners = np.nonzero(partner_mask[u])[0]
        if partners.size == 0:
            continue
        order = sorted(partners, key=lambda v: (dist[u, v], ids[v]))
        keep[u] = set(order[:top_k])

    edges = sorted((u, int(v)) for u in range(n) for v in np.nonzero(candidate[u])[0]
                   if v in keep[u] and u in keep[v])
    src, dst = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    return TrackGraph(NodeTable.from_detections(ordered), src.copy(), dst.copy())


def reference_graph_from_edge_list(detections, pairs):
    """graph_from_edge_list as a per-pair loop over id -> position dicts."""
    ordered = reference_canonical_order(detections)
    pos = {d.node_id: i for i, d in enumerate(ordered)}
    frames = {d.node_id: d.frame for d in ordered}
    edges = set()
    for i, j in pairs:
        if i not in pos or j not in pos:
            raise ConfigError(f"edge ({i}, {j}) references unknown node ids")
        if frames[i] == frames[j]:
            raise ConfigError(f"edge ({i}, {j}) connects detections in the same frame")
        edges.add((pos[i], pos[j]) if frames[i] < frames[j] else (pos[j], pos[i]))
    edges = np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return TrackGraph(NodeTable.from_detections(ordered), edges[:, 0].copy(),
                      edges[:, 1].copy())


def reference_windows(detections, frames_per_graph):
    """split_windows as frame bounds [f, f + n - 1] for every present start
    frame that fits, each filtered out of the whole input."""
    if frames_per_graph < 2:
        raise ConfigError(f"frames_per_graph must be >= 2, got {frames_per_graph}")
    if not detections:
        return []
    present = sorted({d.frame for d in detections})
    first, last = present[0], present[-1]
    n = frames_per_graph
    if last - first + 1 <= n:
        bounds = [(first, last)]
    else:
        bounds = [(f, f + n - 1) for f in present if f + n - 1 <= last]
    return [[d for d in detections if lo <= d.frame <= hi] for lo, hi in bounds]


def reference_degrees(graph, y):
    """_degrees as two np.add.at scatters of the int-cast labels."""
    outdeg = np.zeros(graph.num_nodes, dtype=np.int64)
    indeg = np.zeros(graph.num_nodes, dtype=np.int64)
    active = np.asarray(y, dtype=np.int64)
    np.add.at(outdeg, graph.edge_src, active)
    np.add.at(indeg, graph.edge_dst, active)
    return outdeg, indeg


def reference_check_constraints(graph, y):
    """check_constraints as a loop over every node position."""
    if len(y) != graph.num_edges:
        raise ConfigError(f"got {len(y)} labels for {graph.num_edges} edges")
    outdeg, indeg = reference_degrees(graph, y)
    violations = []
    for pos in range(graph.num_nodes):
        nid = int(graph.node_ids[pos])
        if indeg[pos] > 1:
            violations.append((nid, "past", int(indeg[pos])))
        if outdeg[pos] > 1:
            violations.append((nid, "future", int(outdeg[pos])))
    total = 2 * graph.num_nodes
    return ConstraintReport(violations=violations, satisfied=total - len(violations),
                            total=total)


def _reference_assert_feasible(graph, y, what):
    outdeg, indeg = reference_degrees(graph, y)
    if (outdeg > 1).any() or (indeg > 1).any():
        raise FeasibilityError(f"{what} violate the degree constraints")


def reference_exact_round(graph, probs, tau=0.5):
    """exact_round with rows, columns and edges looked up in dicts filled in
    the order the violating edges appear."""
    probs = np.asarray(probs, dtype=np.float64)
    y = threshold(probs, tau)
    sub = np.nonzero(violating_edges(graph, y))[0]
    if sub.size == 0:
        return y
    left_ids = {}
    right_ids = {}
    for e in sub:
        left_ids.setdefault(int(graph.edge_src[e]), len(left_ids))
        right_ids.setdefault(int(graph.edge_dst[e]), len(right_ids))
    weights = np.zeros((len(left_ids), len(right_ids)))
    edge_at = {}
    for e in sub:
        i = left_ids[int(graph.edge_src[e])]
        j = right_ids[int(graph.edge_dst[e])]
        weights[i, j] = probs[e] - tau
        edge_at[(i, j)] = e
    rows, cols = linear_sum_assignment(weights, maximize=True)
    y[sub] = 0
    for i, j in zip(rows, cols):
        e = edge_at.get((int(i), int(j)))
        if e is not None:
            y[e] = 1
    _reference_assert_feasible(graph, y, "rounded labels")
    return y


def reference_ground_truth_labels(graph):
    """ground_truth_labels as a set of positive (node id, node id) pairs,
    collected per identity of the graph's nodes and looked up per edge."""
    frame_of = dict(zip(graph.node_ids.tolist(), graph.frames.tolist()))
    members = {}
    for nid, ident in zip(graph.node_ids.tolist(), graph.nodes.gt_identity.tolist()):
        if ident >= 0:
            members.setdefault(ident, []).append(nid)
    positive = set()
    for ids in members.values():
        ids.sort(key=lambda i: frame_of[i])
        for a, b in zip(ids, ids[1:]):
            positive.add((a, b))
    y = np.asarray([pair in positive for pair in graph.edge_pairs()], dtype=np.float64)
    _reference_assert_feasible(graph, y, "ground-truth labels")
    return y


def reference_encode_geometry(det_i, det_j, appearance_distance):
    """The edge feature 6-vector computed on Python scalars, one edge."""
    xi, yi, wi, hi = det_i.box
    xj, yj, wj, hj = det_j.box
    if det_i.frame == det_j.frame:
        raise ConfigError(f"edge ({det_i.node_id}, {det_j.node_id}) joins equal frames")
    if min(wi, hi, wj, hj) <= 0:
        raise ConfigError(f"edge ({det_i.node_id}, {det_j.node_id}) has non-positive box dims")
    return np.asarray([
        2.0 * (xj - xi) / (hi + hj),
        2.0 * (yj - yi) / (hi + hj),
        np.log(hi / hj),
        np.log(wi / wj),
        float(det_j.frame - det_i.frame),
        float(appearance_distance),
    ])


def reference_edge_feature_matrix(graph, app):
    """Edge features by one reference_encode_geometry call per edge, with
    the distance read from the N x N matrix reference_build_graph ranks by."""
    dist = _reference_distances(app)
    nodes = [Detection(node_id=int(i), frame=int(f), box=tuple(b.tolist()))
             for i, f, b in zip(graph.node_ids, graph.frames, graph.nodes.boxes)]
    feats = np.zeros((graph.num_edges, 6))
    for e, (u, v) in enumerate(zip(graph.edge_src, graph.edge_dst)):
        feats[e] = reference_encode_geometry(nodes[u], nodes[v], dist[u, v])
    return feats


def reference_window_means(keys, values):
    """The window means in their two earlier forms, as (distinct keys, means).

    Edge probabilities (1-D values, keys (src, dst)): a lexsort, then one
    gather and np.sum per bucket of pairs with equal window counts.  Node
    masks ((n, H, W) values, keys (node id,)): a dict of per-node lists in
    window order, each averaged as np.sum(grids, axis=0) / len(grids).
    """
    if values.ndim == 1:
        src, dst = keys
        order = np.lexsort((dst, src))
        src, dst, p = src[order], dst[order], values[order]
        first_of_pair = np.ones(len(src), dtype=bool)
        first_of_pair[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        starts = np.flatnonzero(first_of_pair)
        counts = np.diff(starts, append=len(src))
        mean = np.empty(len(starts))
        for k in np.unique(counts):
            rows = np.flatnonzero(counts == k)
            mean[rows] = np.sum(p[starts[rows, None] + np.arange(k)], axis=1) / k
        return np.column_stack((src[starts], dst[starts])), mean
    (ids,) = keys
    acc = {}
    for nid, grid in zip(ids.tolist(), values):
        acc.setdefault(nid, []).append(grid)
    nodes = sorted(acc)
    mean = np.asarray([np.sum(acc[nid], axis=0) / len(acc[nid]) for nid in nodes])
    return np.asarray(nodes, dtype=np.int64).reshape(-1, 1), mean.reshape((-1,) + values.shape[1:])


def reference_window_inference(detections, params, frames_per_graph, top_k, max_frame_gap=None):
    """run_inference's edge and mask means in the per-window form, as
    ({(src id, dst id): prob}, {node id: mask}) in key order.

    Every window of two or more detections is its own node table, ranked at
    the inference gap, and gets a whole mpn_forward: it encodes its own
    nodes and edges.  Each mean is np.sum over its values in window order,
    divided by their count.
    """
    probs, masks = {}, {}
    gap = window_gap(max_frame_gap, frames_per_graph)
    for window in reference_windows(detections, frames_per_graph):
        if len(window) < 2:
            continue
        table = NodeTable.from_detections(window)
        g = build_graph(table, Partners(table, gap), top_k)
        with no_grad():
            state = mpn_forward(g, params)
            grids = predict_masks(state, params).data if params.config.with_masks else []
        for pair, p in zip(g.edge_pairs(), state.final_probs()):
            probs.setdefault(pair, []).append(p)
        for nid, grid in zip(g.node_ids.tolist(), grids):
            masks.setdefault(nid, []).append(grid)
    return ({pair: float(np.sum(probs[pair]) / len(probs[pair])) for pair in sorted(probs)},
            {nid: np.sum(masks[nid], axis=0) / len(masks[nid]) for nid in sorted(masks)})


def reference_conv2d(x, w, b, kernel: int) -> Tensor:
    """conv2d as np.pad, a per-tap np.concatenate im2col, and a col2im that
    scatters every tap into a padded gradient buffer before cropping it."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if kernel % 2 != 1 or kernel < 1:
        raise ShapeError(f"kernel size must be odd and positive, got {kernel}")
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects (N, H, W, C) input, got {x.data.shape}")
    n, h, wd, cin = x.data.shape
    taps = kernel * kernel
    if w.data.shape[0] != taps * cin:
        raise ShapeError(f"kernel matrix {w.data.shape} does not match {taps}x{cin} taps")
    cout = w.data.shape[1]
    pad = kernel // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.concatenate(
        [xp[:, dy:dy + h, dx:dx + wd, :] for dy in range(kernel) for dx in range(kernel)],
        axis=3,
    )
    flat = cols.reshape(-1, taps * cin)
    out = (flat @ w.data + b.data).reshape(n, h, wd, cout)

    def bwd(g):
        gflat = g.reshape(-1, cout)
        _accum(w, flat.T @ gflat)
        _accum(b, gflat.sum(axis=0))
        if _live(x):
            gcols = (gflat @ w.data.T).reshape(n, h, wd, taps * cin)
            gxp = np.zeros_like(xp)
            for t_i, (dy, dx) in enumerate((dy, dx) for dy in range(kernel) for dx in range(kernel)):
                gxp[:, dy:dy + h, dx:dx + wd, :] += gcols[:, :, :, t_i * cin:(t_i + 1) * cin]
            _accum(x, gxp[:, pad:pad + h, pad:pad + wd, :])

    return _record(out, (x, w, b), bwd)


def reference_conv2d_tap_loop(x, w, b, kernel: int) -> Tensor:
    """conv2d before its col2im became a sparse product: the input gradient
    adds each tap's columns into a +0.0-initialised array in row-major
    (dy, dx) order, skipping the parts of a tap in the padding."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if kernel % 2 != 1 or kernel < 1:
        raise ShapeError(f"kernel size must be odd and positive, got {kernel}")
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects (N, H, W, C) input, got {x.data.shape}")
    n, h, wd, cin = x.data.shape
    taps = kernel * kernel
    if w.data.shape[0] != taps * cin:
        raise ShapeError(f"kernel matrix {w.data.shape} does not match {taps}x{cin} taps")
    cout = w.data.shape[1]
    pad = kernel // 2
    xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, cin))
    xp[:, pad:pad + h, pad:pad + wd, :] = x.data
    # (n, h, w, cin, dy, dx) window view, moved to (n, h, w, dy, dx, cin) and
    # copied once into a fresh C-ordered buffer: a reshape alone can return a
    # strided view for size-1 dims, and the GEMMs round differently on one
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(1, 2))
    flat = windows.transpose(0, 1, 2, 4, 5, 3).copy().reshape(-1, taps * cin)
    out = (flat @ w.data + b.data).reshape(n, h, wd, cout)

    def bwd(g):
        gflat = g.reshape(-1, cout)
        _accum(w, flat.T @ gflat)
        _accum(b, gflat.sum(axis=0))
        if _live(x):
            gcols = (gflat @ w.data.T).reshape(n, h, wd, taps * cin)
            gx = np.zeros_like(x.data)
            for t_i in range(taps):
                oy, ox = t_i // kernel - pad, t_i % kernel - pad
                if abs(oy) >= h or abs(ox) >= wd:
                    continue
                # source pixel (i, j) of this tap feeds input pixel (i + oy, j + ox)
                gx[:, max(oy, 0):h + min(oy, 0), max(ox, 0):wd + min(ox, 0), :] += \
                    gcols[:, max(-oy, 0):h - max(oy, 0), max(-ox, 0):wd - max(ox, 0),
                          t_i * cin:(t_i + 1) * cin]
            _accum(x, gx)

    return _record(out, (x, w, b), bwd)


def reference_segment_sum(values, ids, n):
    """A sum of rows by segment id as one np.add.at scatter into zeros."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, np.asarray(ids, dtype=np.intp), values)
    return out


def reference_segment_softmax(logits, ids, n, upstream):
    """segment_softmax's output and its logit gradient for an upstream
    gradient, with both segment sums as reference_segment_sum scatters."""
    mx = np.full(n, -np.inf)
    np.maximum.at(mx, ids, logits)
    ex = np.exp(logits - mx[ids])
    out = ex / reference_segment_sum(ex, ids, n)[ids]
    return out, out * (upstream - reference_segment_sum(upstream * out, ids, n)[ids])


class ReferenceAdamState(AdamState):
    """AdamState holding one moment array per group name, in dicts."""

    def __init__(self, **hyper):
        super().__init__(**hyper)
        self.m = {}
        self.v = {}


def reference_adam_step(params, state: ReferenceAdamState) -> None:
    """adam_step as a loop over the groups, one update per group."""
    grads = [_checked_grad(name, p) for name, p in params]
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for (name, p), g in zip(params, grads):
        g = g + state.weight_decay * p.data
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# The tape before linear and bce were fused: the six primitives only those
# two composites used, kept as they were in tensorkit.

def reference_sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _record(data, (a, b), bwd)


def reference_neg(a) -> Tensor:
    a = astensor(a)

    def bwd(g):
        _accum(a, -g)

    return _record(-a.data, (a,), bwd)


def reference_matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} and {b.data.shape} do not chain")
    data = a.data @ b.data

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _record(data, (a, b), bwd)


def reference_log(a) -> Tensor:
    a = astensor(a)

    def bwd(g):
        _accum(a, g / a.data)

    return _record(np.log(a.data), (a,), bwd)


def reference_clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through strictly inside."""
    a = astensor(a)
    inside = (a.data > lo) & (a.data < hi)

    def bwd(g):
        _accum(a, g * inside)

    return _record(np.clip(a.data, lo, hi), (a,), bwd)


def reference_mean(a) -> Tensor:
    a = astensor(a)
    n = a.data.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")

    def bwd(g):
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _record(a.data.mean(), (a,), bwd)


REFERENCE_PROB_EPS = 1e-7


def reference_bce(p: Tensor, pos_coef: Tensor, neg_coef: Tensor) -> Tensor:
    """Mean of -(pos_coef * log p + neg_coef * log(1 - p)), with p clamped to
    [PROB_EPS, 1 - PROB_EPS] so the loss stays finite for any input."""
    p = reference_clip(p, REFERENCE_PROB_EPS, 1.0 - REFERENCE_PROB_EPS)
    return reference_neg(reference_mean(add(mul(pos_coef, reference_log(p)),
                                            mul(neg_coef, reference_log(reference_sub(1.0, p))))))


def reference_linear(x, w, b) -> Tensor:
    """A dense layer as a matmul record followed by a broadcast add."""
    return add(reference_matmul(x, w), b)
