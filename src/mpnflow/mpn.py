"""Message passing network that classifies tracking-graph edges.

Node embeddings start from encoded appearance, edge embeddings from pairwise
geometry/appearance evidence.  Each step updates edges from their endpoints
(with a skip to the initial edge embedding), then nodes from their incident
edges.  The time-aware variant aggregates past and future neighbors through
separate networks before fusing; the attentive variant additionally routes
RoI feature grids through per-neighborhood softmax attention and decodes
them into per-pixel masks.  The same logit head drives both the edge
classifier and the attention weights.  A pass is encode, then propagate
from the encoded rows, then classification of the steps the caller reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensorkit as tk
from .errors import CheckpointError, ConfigError, check_at_least, check_config, config_from_dict
from .graph import TrackGraph, _app_dist

EDGE_FEATURE_DIM = 6
VARIANTS = ("vanilla", "time_aware")


@dataclass
class MpnConfig:
    """The model section; no field sets the RoI grid size, which the grids carry."""

    num_steps: int = 4
    variant: str = "time_aware"
    with_masks: bool = False
    d_node: int = 32
    d_edge: int = 16
    hidden: int = 32
    conv_hidden: int = 8
    d_roi: int = 4
    last_m_steps: int | None = None   # None resolves to min(num_steps, 6), at least 1

    def resolved_last_m(self) -> int:
        return max(1, min(self.num_steps, 6)) if self.last_m_steps is None else self.last_m_steps

    def validate(self) -> None:
        check_at_least("num_steps", self.num_steps, 0)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("d_node", "d_edge", "hidden", "conv_hidden", "d_roi"):
            check_at_least(name, getattr(self, name), 1)
        m = self.resolved_last_m()
        if not 1 <= m <= max(self.num_steps, 1):
            raise ConfigError(
                f"last_m_steps={self.last_m_steps} out of range for num_steps={self.num_steps}")


class ModelParams:
    """All trainable parameter groups for one model configuration."""

    def __init__(self, config: MpnConfig, d_app: int, seed: int = 0):
        config.validate()
        check_at_least("d_app", d_app, 1)
        check_at_least("seed", seed, 0)
        self.config = config
        self.d_app = d_app
        rng = np.random.default_rng(seed)
        dn, de, hid = config.d_node, config.d_edge, config.hidden
        self.node_encoder = tk.DenseStack([d_app, hid, dn], rng=rng, name="node_encoder")
        self.edge_encoder = tk.DenseStack([EDGE_FEATURE_DIM, hid, de], rng=rng,
                                          name="edge_encoder")
        self.edge_update = tk.DenseStack([2 * dn + 2 * de, hid, de], rng=rng,
                                         name="edge_update")
        if config.variant == "vanilla":
            self.node_update = tk.DenseStack([dn + de, hid, dn], rng=rng, name="node_update")
            self.node_update_past = None
            self.node_update_fut = None
        else:
            self.node_update_past = tk.DenseStack([2 * dn + de, hid, dn], rng=rng,
                                                  name="node_update_past")
            self.node_update_fut = tk.DenseStack([2 * dn + de, hid, dn], rng=rng,
                                                 name="node_update_fut")
            self.node_update = tk.DenseStack([2 * dn, hid, dn], rng=rng, name="node_update")
        # one logit head serves classification and attention
        self.edge_logits = tk.DenseStack([de, hid, 1], rng=rng, name="edge_logits")
        if config.with_masks:
            dr, ch = config.d_roi, config.conv_hidden
            self.context_update = tk.ConvStack([3 * dr, ch, dr], rng=rng,
                                               name="context_update")
            self.mask_head = tk.ConvStack([2 * dr] + [ch] * 6 + [1],
                                          out_activation="sigmoid", rng=rng,
                                          name="mask_head")
        else:
            self.context_update = None
            self.mask_head = None
        # every stack is drawn above so the kept ones start the same at any
        # depth; drop those whose output mpn_forward never reads
        if config.num_steps < 1:
            self.node_encoder = self.edge_update = self.context_update = None
        if config.num_steps < 2:
            self.node_update = self.node_update_past = self.node_update_fut = None

    def stacks(self):
        return [s for s in (self.node_encoder, self.edge_encoder, self.edge_update,
                            self.node_update_past, self.node_update_fut, self.node_update,
                            self.edge_logits, self.context_update, self.mask_head)
                if s is not None]

    def named_parameters(self) -> list[tuple[str, tk.Tensor]]:
        params = []
        for stack in self.stacks():
            params.extend(stack.parameters())
        return params

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None

    def save(self, path) -> None:
        tk.save_checkpoint(path, self.named_parameters(),
                           extra={"model": asdict(self.config), "d_app": self.d_app})

    @classmethod
    def load(cls, path) -> "ModelParams":
        groups, extra = tk.load_checkpoint(path)
        if "model" not in extra or "d_app" not in extra:
            raise CheckpointError(f"{path}: missing model config metadata")
        try:
            check_config("checkpoint metadata", {"model": extra["model"], "d_app": extra["d_app"]},
                         {"model": "dict", "d_app": "int"})
            # checkpoints from when the RoI grid size was a config field record it
            model = {k: v for k, v in extra["model"].items() if k not in ("roi_h", "roi_w")}
            # checkpoints written while aggregation was a config field record its
            # only legal value, "sum"; any other value names a model not built here
            aggregation = model.pop("aggregation", "sum")
            if aggregation != "sum":
                raise CheckpointError(f"unsupported aggregation {aggregation!r}")
            params = cls(config_from_dict(MpnConfig, "model", model), extra["d_app"], seed=0)
            tk.assign_parameters(params.named_parameters(), groups)
        except (ConfigError, CheckpointError) as e:
            raise CheckpointError(f"{path}: {e}") from e
        return params


@dataclass
class MpnState:
    """Embeddings and per-step outputs of one forward pass.

    With L message passing steps, edge_h and tilde_h hold steps 0..L and
    node_h holds steps 0..L-1: the last step's node embeddings feed no
    output, so they are not computed.  edge_probs holds the steps the
    caller classified.
    """

    graph: TrackGraph
    src: tk.Segments   # edges keyed by their earlier endpoint
    dst: tk.Segments   # edges keyed by their later endpoint
    roi_grid: tk.ConvGrid | None = None   # every conv of a pass with masks
    node_h: list[tk.Tensor] = field(default_factory=list)
    edge_h: list[tk.Tensor] = field(default_factory=list)
    tilde_h: list[tk.Tensor] = field(default_factory=list)
    edge_probs: dict[int, tk.Tensor] = field(default_factory=dict)
    attention: dict[int, tuple[tk.Tensor, tk.Tensor]] = field(default_factory=dict)

    def recorded_steps(self) -> list[int]:
        return sorted(self.edge_probs)

    def final_probs(self) -> np.ndarray:
        last = max(self.edge_probs)
        return self.edge_probs[last].data.copy()


def edge_feature_matrix(graph: TrackGraph, app: np.ndarray) -> np.ndarray:
    """Raw pairwise evidence, one 6-vector row per edge (u -> v).

    Components: size-normalized x and y offsets, log height and width
    ratios, frame difference, and the distance between the rows of app (one
    appearance vector per node).  Computed per column; an
    edge joining equal frames or a box with non-positive size is a
    ConfigError naming the first such edge.
    """
    u, v = graph.edge_src, graph.edge_dst
    box_u, box_v = graph.nodes.boxes[u], graph.nodes.boxes[v]
    equal_frames = graph.frames[u] == graph.frames[v]
    bad = equal_frames | (box_u[:, 2:] <= 0).any(axis=1) | (box_v[:, 2:] <= 0).any(axis=1)
    if bad.any():
        e = int(np.argmax(bad))
        why = "joins equal frames" if equal_frames[e] else "has non-positive box dims"
        raise ConfigError(f"edge ({graph.node_ids[u[e]]}, {graph.node_ids[v[e]]}) {why}")
    (xi, yi, wi, hi), (xj, yj, wj, hj) = box_u.T, box_v.T
    return np.stack([
        2.0 * (xj - xi) / (hi + hj),
        2.0 * (yj - yi) / (hi + hj),
        np.log(hi / hj),
        np.log(wi / wj),
        (graph.frames[v] - graph.frames[u]).astype(np.float64),
        _app_dist(app[u], app[v]),
    ], axis=1)


def _appearance(graph: TrackGraph, params: ModelParams) -> np.ndarray:
    app = graph.nodes.stack("appearance", "appearance vector") if graph.num_nodes \
        else np.zeros((0, params.d_app))
    if app.shape[1] != params.d_app:
        raise ConfigError(f"appearance dim {app.shape[1]} does not match model {params.d_app}")
    return app


def _roi_tensor(graph: TrackGraph, config: MpnConfig) -> tk.Tensor:
    """The nodes' RoI grids as one (n, H, W, d_roi) tensor, of any H and W; an
    empty graph has no grid size, so its tensor is (0, 1, 1, d_roi)."""
    if not graph.num_nodes:
        return tk.Tensor(np.zeros((0, 1, 1, config.d_roi)))
    roi = graph.nodes.stack("roi", "roi grid but masks are enabled")
    shape = roi.shape[1:3] + (config.d_roi,)
    if roi.shape[1:] != shape:
        raise ConfigError(
            f"detection {graph.node_ids[0]}: roi grid {roi.shape[1:]} does not match {shape}")
    return tk.Tensor(roi)


def attention_weights(state: MpnState, params: ModelParams, l: int) -> tuple[tk.Tensor, tk.Tensor]:
    """Per-neighborhood softmax over the shared edge logits of step l - 1.

    Each node normalizes separately over its past and future incident
    edges, so one edge gets one weight per endpoint.
    """
    if l < 1:
        raise ConfigError(f"attention needs step >= 1, got {l}")
    g = state.graph
    logits = tk.reshape(params.edge_logits(state.edge_h[l - 1]), (g.num_edges,))
    a_past = tk.segment_softmax(logits, state.dst)   # receiver is the later node
    a_fut = tk.segment_softmax(logits, state.src)    # receiver is the earlier node
    state.attention[l] = (a_past, a_fut)
    return a_past, a_fut


def classify_edges(state: MpnState, params: ModelParams, l: int) -> tk.Tensor:
    logits = tk.reshape(params.edge_logits(state.edge_h[l]), (state.graph.num_edges,))
    probs = tk.sigmoid(logits)
    state.edge_probs[l] = probs
    return probs


def _edge_step(state: MpnState, params: ModelParams, l: int) -> None:
    h_prev = state.node_h[l - 1]
    inp = tk.concat([
        tk.rows(h_prev, state.src),
        tk.rows(h_prev, state.dst),
        state.edge_h[l - 1],
        state.edge_h[0],
    ], axis=1)
    state.edge_h.append(params.edge_update(inp))


def _node_step_vanilla(state: MpnState, params: ModelParams, l: int) -> None:
    src, dst = state.src, state.dst
    h_prev = state.node_h[l - 1]
    e_l = state.edge_h[l]
    to_dst = params.node_update(tk.concat([tk.rows(h_prev, dst), e_l], axis=1))
    to_src = params.node_update(tk.concat([tk.rows(h_prev, src), e_l], axis=1))
    agg = tk.add(tk.segment_sum(to_dst, dst), tk.segment_sum(to_src, src))
    state.node_h.append(agg)


def _node_step_time_aware(state: MpnState, params: ModelParams, l: int) -> None:
    src, dst = state.src, state.dst
    h_prev = state.node_h[l - 1]
    h0 = state.node_h[0]
    e_l = state.edge_h[l]
    msg_past = params.node_update_past(tk.concat(
        [tk.rows(h_prev, dst), e_l, tk.rows(h0, dst)], axis=1))
    msg_fut = params.node_update_fut(tk.concat(
        [tk.rows(h_prev, src), e_l, tk.rows(h0, src)], axis=1))
    h_past = tk.segment_sum(msg_past, dst)
    h_fut = tk.segment_sum(msg_fut, src)
    state.node_h.append(params.node_update(tk.concat([h_past, h_fut], axis=1)))


def _mask_step(state: MpnState, params: ModelParams, l: int) -> None:
    g = state.graph
    a_past, a_fut = attention_weights(state, params, l)
    tilde_prev = state.tilde_h[l - 1]
    from_past = tk.mul(tk.rows(tilde_prev, state.src),
                       tk.reshape(a_past, (g.num_edges, 1, 1, 1)))
    from_fut = tk.mul(tk.rows(tilde_prev, state.dst),
                      tk.reshape(a_fut, (g.num_edges, 1, 1, 1)))
    c_past = tk.segment_sum(from_past, state.dst)
    c_fut = tk.segment_sum(from_fut, state.src)
    joined = tk.concat([c_past, c_fut, state.tilde_h[0]], axis=3)
    state.tilde_h.append(params.context_update(joined, state.roi_grid))


def encode(graph: TrackGraph, params: ModelParams
           ) -> tuple[tk.Tensor | None, tk.Tensor, tk.Tensor | None]:
    """A graph's step-0 rows: the encoded appearance of each node (None at
    depth 0, where nothing reads it), the encoded edge_feature_matrix row of
    each edge, and with masks the RoI tensor (else None).

    Each row is computed from its own node or edge alone, so a window of a
    larger graph may take its rows of that graph's encoding; they equal the
    window's own encoding bit for bit when it has at least two rows of each.
    """
    config = params.config
    app = _appearance(graph, params)
    node_h0 = params.node_encoder(tk.Tensor(app)) if config.num_steps else None
    edge_h0 = params.edge_encoder(tk.Tensor(edge_feature_matrix(graph, app)))
    roi = _roi_tensor(graph, config) if config.with_masks else None
    return node_h0, edge_h0, roi


def propagate(graph: TrackGraph, params: ModelParams, node_h0: tk.Tensor | None,
              edge_h0: tk.Tensor, roi: tk.Tensor | None) -> MpnState:
    """Run the message passing steps from the graph's step-0 rows, as encode
    gives them; no step is classified.

    Only what an output reads is computed: no node update in the last step.
    """
    config = params.config
    num_steps = config.num_steps
    # one sparse operator per endpoint serves every gather gradient, segment
    # sum and attention softmax of the pass, and one ConvGrid every conv
    state = MpnState(graph=graph, src=tk.Segments(graph.edge_src, graph.num_nodes),
                     dst=tk.Segments(graph.edge_dst, graph.num_nodes))
    if node_h0 is not None:
        state.node_h.append(node_h0)
    state.edge_h.append(edge_h0)
    if config.with_masks:
        state.tilde_h.append(roi)
        state.roi_grid = tk.ConvGrid(*roi.data.shape[:3], params.mask_head.kernel)
    for l in range(1, num_steps + 1):
        _edge_step(state, params, l)
        if l < num_steps:
            if config.variant == "vanilla":
                _node_step_vanilla(state, params, l)
            else:
                _node_step_time_aware(state, params, l)
        if config.with_masks:
            _mask_step(state, params, l)
    return state


def mpn_forward(graph: TrackGraph, params: ModelParams) -> MpnState:
    """Encode the graph, propagate, and classify the last m steps; a depth-0
    model's m is 1, so it records step 0."""
    state = propagate(graph, params, *encode(graph, params))
    num_steps = params.config.num_steps
    for l in range(num_steps - params.config.resolved_last_m() + 1, num_steps + 1):
        classify_edges(state, params, l)
    return state


def predict_masks(state: MpnState, params: ModelParams, step: int | None = None) -> tk.Tensor:
    """Per-node mask probabilities, of the pass's RoI grid size, from a step's RoI embeddings."""
    if not params.config.with_masks:
        raise ConfigError("mask prediction requires with_masks=True")
    if step is None:
        step = len(state.tilde_h) - 1
    if not 0 <= step < len(state.tilde_h):
        raise ConfigError(f"step {step} outside computed range 0..{len(state.tilde_h) - 1}")
    joined = tk.concat([state.tilde_h[step], state.tilde_h[0]], axis=3)
    return tk.reshape(params.mask_head(joined, state.roi_grid), state.roi_grid.shape)
