"""Reverse-mode differentiable tensor kernel on float64 numpy arrays.

Covers exactly what the tracking model needs: dense and same-padded 2-D
convolution layers (linear, conv2d) and a weighted binary cross-entropy
(bce), each one fused record; elementwise nonlinearities, gather / segment
reductions with per-segment softmax, scalar-loss backpropagation, Adam over
one flat vector, finite-difference gradient checking, and a JSON parameter
container.  Every sum by segment id (segment sums, softmax denominators,
gather gradients) is one product with a prebuilt scipy sparse ones-matrix, a
Segments, that adds in the same order as a scatter-add.  So is conv2d's
col2im, the sum of its im2col gradient by input pixel: a ConvGrid builds the
ones-matrix once per grid, on the first backward, and it adds each pixel's
taps in the row-major order of a tap-by-tap loop.  All arithmetic is
64-bit and reproducible bit for bit for a fixed BLAS thread count: OpenBLAS
splits large products across threads with other rounding (a 30-identity,
40-frame scenario trains to other parameters under OPENBLAS_NUM_THREADS=1
and 2).  The module imports nothing from the package but its errors.
"""

from __future__ import annotations

import itertools
import json
import math
import threading

import numpy as np
from scipy import sparse

from .errors import CheckpointError, GradientError, ShapeError, read_text


class _GradMode(threading.local):
    # per thread, so no_grad blocks entered and left in interleaved order by
    # worker threads cannot leave recording off for any other thread
    enabled = True


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    """Whether operations are currently recorded for backpropagation."""
    return _GRAD_MODE.enabled


class no_grad:
    """Context manager that suspends recording in the calling thread."""

    def __enter__(self):
        self._saved = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._saved
        return False


class Tensor:
    """Dense float64 array plus an optional link into the computation record.

    Leaves created with requires_grad=True are parameters; tensors produced
    by operations carry a backward closure while recording is enabled.
    Constants (labels, masks, feature matrices) stay outside the record and
    never receive gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple = ()
        self._backward = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _live(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _record(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_MODE.enabled and any(_live(p) for p in parents):
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not _live(t):
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # reduce a broadcast gradient back down to the operand's shape
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into .grad fields."""
    if loss.data.size != 1:
        raise GradientError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and linear algebra primitives

def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _record(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(data, (a, b), bwd)


def linear(x, w, b) -> Tensor:
    """Dense layer x @ w + b on (n, fin) input as one record, whose backward
    gives a matmul-then-add chain's g @ w.T, x.T @ g and g.sum(axis=0)."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] \
            or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear shapes {x.data.shape}, {w.data.shape} and "
                         f"{b.data.shape} do not chain")
    data = x.data @ w.data + b.data

    def bwd(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _record(data, (x, w, b), bwd)


def relu(a) -> Tensor:
    a = astensor(a)
    mask = a.data > 0.0

    def bwd(g):
        _accum(a, g * mask)

    return _record(a.data * mask, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = astensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        _accum(a, g * out * (1.0 - out))

    return _record(out, (a,), bwd)


def tsum(a) -> Tensor:
    """Sum of every element, as a scalar."""
    a = astensor(a)

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(a.data.sum(), (a,), bwd)


PROB_EPS = 1e-7


def bce(p, pos_coef, neg_coef) -> Tensor:
    """mean(-(pos_coef log q + neg_coef log(1 - q))) as one record, with q
    = p clamped to [PROB_EPS, 1 - PROB_EPS] so the loss stays finite.

    The coefficients are constants of p's shape.  p's gradient passes only
    strictly inside the clamp.  Both passes run the expressions of the chain
    clip, log, sub, log, mul, mul, add, mean, neg in its order, so they
    agree with it bit for bit.
    """
    p = astensor(p)
    pos_coef, neg_coef = astensor(pos_coef).data, astensor(neg_coef).data
    if pos_coef.shape != p.data.shape or neg_coef.shape != p.data.shape:
        raise ShapeError(f"bce coefficients {pos_coef.shape} and {neg_coef.shape} do not "
                         f"match probabilities {p.data.shape}")
    n = p.data.size
    if n == 0:
        raise ShapeError("bce of an empty tensor")
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    inside = (p.data > lo) & (p.data < hi)
    q = np.clip(p.data, lo, hi)
    rest = 1.0 - q
    data = -(pos_coef * np.log(q) + neg_coef * np.log(rest)).mean()

    def bwd(g):
        gm = (-g) / n
        _accum(p, ((gm * pos_coef) / q + -((gm * neg_coef) / rest)) * inside)

    return _record(data, (p,), bwd)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _record(data, (a,), bwd)


def concat(parts, axis: int = 1) -> Tensor:
    parts = [astensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    spans = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, spans, axis=axis)):
            _accum(p, piece)

    return _record(data, tuple(parts), bwd)


# ---------------------------------------------------------------------------
# gather / scatter primitives for graph aggregation

class Segments:
    """Row ids into n segments, plus the sparse operator that sums rows by id.

    The operator is the CSR ones-matrix of shape (n, len(ids)) whose row s
    lists, in ascending order, the positions i with ids[i] == s: column
    indices from a stable argsort of ids, row extents from a bincount.
    sum() multiplies it by the rows flattened to (len(ids), width).

    That product equals the unbuffered scatter-add of the rows into zeros
    (ufunc.at on np.add) bit for bit.  scipy's CSR-times-dense product
    starts each output at +0.0 and adds its row's entries one by one in
    column order, which is input order, the order the scatter adds them in;
    and each entry is the row times an exact 1.0.  So every output element
    sums the same terms in the same order, -0.0 inputs, overflow to inf and
    empty segments included.

    Build one per id array and reuse it: the build costs more than a sum.
    Ids outside [0, n) are a ShapeError.
    """

    __slots__ = ("ids", "n", "_matrix")

    def __init__(self, ids, n: int):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ShapeError(f"segment ids must lie in [0, {n}), "
                             f"got range [{ids.min()}, {ids.max()}]")
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
        self.ids = ids
        self.n = n
        self._matrix = sparse.csr_array(
            (np.ones(ids.size), np.argsort(ids, kind="stable"), indptr), shape=(n, ids.size))

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Sum the rows of values into (n,) + values.shape[1:] by id."""
        count, tail = values.shape[0], values.shape[1:]
        if count != self.ids.size:
            raise ShapeError(f"{self.ids.size} segment ids do not match rows {values.shape}")
        # the width is spelled out: reshape(count, -1) fails when count is 0
        flat = values.reshape(count, math.prod(tail))
        return (self._matrix @ flat).reshape((self.n,) + tail)


def rows(a, seg: Segments) -> Tensor:
    """Gather rows seg.ids along axis 0; the gradient sums back by seg."""
    a = astensor(a)
    if a.data.shape[0] != seg.n:
        raise ShapeError(f"segments over {seg.n} rows do not match {a.data.shape}")

    def bwd(g):
        _accum(a, seg.sum(g))

    return _record(a.data[seg.ids], (a,), bwd)


def segment_sum(a, seg: Segments) -> Tensor:
    """Sum rows into seg.n bins keyed by seg.ids; empty bins stay zero."""
    a = astensor(a)
    out = seg.sum(a.data)

    def bwd(g):
        _accum(a, g[seg.ids])

    return _record(out, (a,), bwd)


def segment_softmax(logits, seg: Segments) -> Tensor:
    """Softmax of a 1-D logit vector normalized within each segment."""
    a = astensor(logits)
    if a.data.ndim != 1:
        raise ShapeError(f"segment_softmax expects 1-D logits, got {a.data.shape}")
    ids = seg.ids
    if ids.shape[0] != a.data.shape[0]:
        raise ShapeError(f"segment ids {ids.shape} do not match logits {a.data.shape}")
    # max is exact in any order, so the ufunc scatter stays
    mx = np.full(seg.n, -np.inf)
    np.maximum.at(mx, ids, a.data)
    ex = np.exp(a.data - mx[ids])
    out = ex / seg.sum(ex)[ids]

    def bwd(g):
        _accum(a, out * (g - seg.sum(g * out)[ids]))

    return _record(out, (a,), bwd)


class ConvGrid:
    """The (n, h, w) pixel grid and odd kernel of same-padded convolutions,
    plus the sparse col2im operator that sums their input gradients.

    conv2d reads its kernel size from the grid and checks its input against
    the grid's shape; every conv of one forward pass shares one grid, so
    its operator is built at most once per pass, lazily, by the first sum()
    (a pass that runs no backward builds none).

    The operator is the CSR ones-matrix of shape (n*h*w, n*h*w*kernel**2)
    whose row for input pixel q lists the columns p*kernel**2 + t of every
    (output pixel p, tap t) that read q, in ascending tap order (taps run
    row-major over (dy, dx); a tap's part in the padding has no entry).
    sum() multiplies it by the im2col gradient viewed as (n*h*w*kernel**2,
    cin).  That product equals adding each tap's columns into a
    +0.0-initialised array tap by tap, bit for bit: scipy's CSR-times-dense
    product starts each output at +0.0 and adds its row's entries one by one
    in stored order, which is tap order, and each entry is the gradient
    times an exact 1.0.  So every element sums the same terms in the same
    order, -0.0 terms included, and the running sum, starting at +0.0,
    never becomes -0.0; another tap order would round differently.
    """

    __slots__ = ("shape", "kernel", "_matrix")

    def __init__(self, n: int, h: int, w: int, kernel: int):
        if kernel % 2 != 1 or kernel < 1:
            raise ShapeError(f"kernel size must be odd and positive, got {kernel}")
        if n < 0 or h < 1 or w < 1:
            raise ShapeError(f"conv grid needs n >= 0 and h, w >= 1, got {(n, h, w)}")
        self.shape = (n, h, w)
        self.kernel = kernel
        self._matrix = None

    def _build(self) -> sparse.csr_array:
        n, h, wd = self.shape
        kernel, pad = self.kernel, self.kernel // 2
        taps = kernel * kernel
        t = np.arange(taps)
        # (si, sj) is the output pixel whose tap t, at offset (oy, ox), reads
        # input pixel (i, j); its im2col column is (si * w + sj) * taps + t
        si = np.arange(h)[:, None, None] - (t // kernel - pad)
        sj = np.arange(wd)[None, :, None] - (t % kernel - pad)
        inside = (si >= 0) & (si < h) & (sj >= 0) & (sj < wd)
        # boolean indexing walks (i, j, t) in C order: pixel by pixel, taps
        # ascending within a pixel, which is the row layout of the operator
        image = ((si * wd + sj) * taps + t)[inside]
        columns = (np.arange(n)[:, None] * (h * wd * taps) + image).reshape(-1)
        indptr = np.zeros(n * h * wd + 1, dtype=np.intp)
        np.cumsum(np.tile(inside.sum(axis=2).reshape(-1), n), out=indptr[1:])
        return sparse.csr_array((np.ones(columns.size), columns, indptr),
                                shape=(n * h * wd, n * h * wd * taps))

    def sum(self, gcols: np.ndarray) -> np.ndarray:
        """Sum an (n*h*w, kernel**2 * cin) im2col gradient back onto the
        input pixels it was read from, as (n, h, w, cin)."""
        n, h, wd = self.shape
        taps = self.kernel * self.kernel
        if gcols.ndim != 2 or gcols.shape[0] != n * h * wd or gcols.shape[1] % taps:
            raise ShapeError(f"im2col gradient {gcols.shape} does not match conv grid "
                             f"{self.shape} with {taps} taps")
        cin = gcols.shape[1] // taps
        if self._matrix is None:
            self._matrix = self._build()
        return (self._matrix @ gcols.reshape(n * h * wd * taps, cin)).reshape(n, h, wd, cin)


def conv2d(x, w, b, grid: ConvGrid) -> Tensor:
    """Same-padded 2-D convolution on (N, H, W, Cin) input over grid, whose
    (N, H, W) it must match, with grid's odd square kernel.

    The kernel matrix w is stored flattened as (kernel*kernel*Cin, Cout) with
    taps ordered row-major over (dy, dx).  The im2col matrix has one row per
    output pixel (n, i, j) and column t*Cin + c, t = dy*kernel + dx, holding
    the zero-padded input at (n, i + dy - pad, j + dx - pad, c), so the
    forward is a single GEMM against w.

    The input gradient is the GEMM back to im2col columns, then col2im as
    one product with grid's prebuilt sparse operator (see ConvGrid), which
    adds each input pixel's terms in row-major tap order starting from
    +0.0.  That equals a scatter into a padded buffer followed by a crop bit
    for bit; a different tap order would not.
    """
    x, w, b = astensor(x), astensor(w), astensor(b)
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects (N, H, W, C) input, got {x.data.shape}")
    n, h, wd, cin = x.data.shape
    if (n, h, wd) != grid.shape:
        raise ShapeError(f"conv grid {grid.shape} does not match input {x.data.shape}")
    kernel = grid.kernel
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
            _accum(x, grid.sum(gflat @ w.data.T))

    return _record(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# parameter containers

def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _LayerStack:
    """Per-layer weight and bias parameters shared by the dense and conv stacks.

    Layer k owns `<name>/<tag>k` (W for dense, K for conv) and `<name>/bk`;
    parameters() lists them layer by layer, weight before bias.  Calling a
    stack checks its input against expected_input, a tuple of named leading
    axes closed by the required width, then applies the subclass's layer op
    (linear or conv2d) per layer with ReLU between layers and out_activation
    ('identity' or 'sigmoid') after the last one.
    """

    def __init__(self, name: str, out_activation: str, expected_input: tuple):
        if out_activation not in ("identity", "sigmoid"):
            raise ShapeError(f"{name}: unknown activation {out_activation!r}")
        self.name = name
        self.out_activation = out_activation
        self.expected_input = expected_input
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []

    def _add_layer(self, rng: np.random.Generator, tag: str, fan_in: int, fan_out: int,
                   shape: tuple[int, int]) -> None:
        k = len(self.weights)
        self.weights.append(Tensor(glorot_uniform(rng, fan_in, fan_out, shape),
                                   requires_grad=True, name=f"{self.name}/{tag}{k}"))
        # biases use the same symmetric draw: exactly-zero biases let a
        # dead ReLU row pin downstream pre-activations exactly onto the
        # next kink, which is a non-differentiable point
        self.biases.append(Tensor(glorot_uniform(rng, fan_in, fan_out, (shape[1],)),
                                  requires_grad=True, name=f"{self.name}/b{k}"))

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append((w.name, w))
            out.append((b.name, b))
        return out

    def _apply(self, x, layer) -> Tensor:
        x = astensor(x)
        expected = self.expected_input
        if x.data.ndim != len(expected) or x.data.shape[-1] != expected[-1]:
            raise ShapeError(
                f"{self.name}: input shape {x.data.shape} does not match "
                f"expected ({', '.join(map(str, expected))})")
        h = x
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = layer(h, w, b)
            if k < last:
                h = relu(h)
            elif self.out_activation == "sigmoid":
                h = sigmoid(h)
        return h


class DenseStack(_LayerStack):
    """Fully connected stack on (n, width) input.

    sizes lists the feature widths, so [6, 32, 1] is a two-layer network.
    """

    def __init__(self, sizes, out_activation: str = "identity", *,
                 rng: np.random.Generator, name: str):
        if len(sizes) < 2:
            raise ShapeError(f"{name}: need at least one layer, got sizes {sizes}")
        super().__init__(name, out_activation, ("n", sizes[0]))
        for fin, fout in zip(sizes[:-1], sizes[1:]):
            self._add_layer(rng, "W", fin, fout, (fin, fout))

    def __call__(self, x) -> Tensor:
        return self._apply(x, linear)


class ConvStack(_LayerStack):
    """Same-padded conv layers on (n, h, w, channels) input.

    channels lists the channel widths per layer boundary; all kernels are
    square with odd size.  A call runs every layer over one ConvGrid of the
    input's (n, h, w) and this kernel, which the caller may share with
    other stacks run on the same grid.
    """

    def __init__(self, channels, kernel: int = 3, out_activation: str = "identity", *,
                 rng: np.random.Generator, name: str):
        if len(channels) < 2:
            raise ShapeError(f"{name}: need at least one conv layer")
        if kernel < 1 or kernel % 2 != 1:
            raise ShapeError(f"{name}: kernel must be odd and positive, got {kernel}")
        super().__init__(name, out_activation, ("n", "h", "w", channels[0]))
        self.kernel = kernel
        taps = kernel * kernel
        for cin, cout in zip(channels[:-1], channels[1:]):
            self._add_layer(rng, "K", taps * cin, taps * cout, (taps * cin, cout))

    def __call__(self, x, grid: ConvGrid) -> Tensor:
        return self._apply(x, lambda h, w, b: conv2d(h, w, b, grid))


# ---------------------------------------------------------------------------
# optimization

class AdamState:
    """First/second moment buffers plus hyperparameters for Adam.

    weight_decay is additive L2: the decay term joins the gradient before
    the moment updates.  The moments are flat vectors over every group,
    concatenated in call order; layout records each group's (name, shape)
    from the first step, which fixes what every later step must pass.
    """

    def __init__(self, lr: float = 3e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step = 0
        self.layout: list[tuple[str, tuple]] | None = None
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


def _checked_grad(name: str, p: Tensor) -> np.ndarray:
    if p.grad is None:
        raise GradientError(f"parameter group {name} received no gradient")
    g = np.asarray(p.grad, dtype=np.float64)
    if g.shape != p.data.shape:
        raise GradientError(f"gradient shape {g.shape} does not match {name} {p.data.shape}")
    if not np.all(np.isfinite(g)):
        raise GradientError(f"non-finite gradient in parameter group {name}")
    return g


def _flatten(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays])


def adam_step(params: list[tuple[str, Tensor]], state: AdamState) -> None:
    """Apply one Adam update in place from each parameter's .grad.

    A gradient that is missing, misshapen or non-finite is a GradientError
    naming its group, and so is a group list whose names or shapes differ
    from the first step's; both are raised before any parameter moves.
    The update runs once over the concatenated groups, with the same
    elementwise expressions per element as a per-group loop, and each
    parameter gets back its slice of the result as a reshaped view.
    """
    grads = [_checked_grad(name, p) for name, p in params]
    layout = [(name, p.data.shape) for name, p in params]
    if state.layout is None:
        size = sum(p.data.size for _, p in params)
        state.layout, state.m, state.v = layout, np.zeros(size), np.zeros(size)
    elif layout != state.layout:
        i, now, was = next((i, now, was) for i, (now, was)
                           in enumerate(itertools.zip_longest(layout, state.layout))
                           if now != was)
        raise GradientError(f"parameter group {i} is {now or 'missing'}, "
                            f"but was {was or 'missing'} at the first step")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    theta = _flatten([p.data for _, p in params])
    g = _flatten(grads) + state.weight_decay * theta
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    theta = theta - state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + state.eps)
    start = 0
    for _, p in params:
        stop = start + p.data.size
        p.data = theta[start:stop].reshape(p.data.shape)
        start = stop


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f, params: list[tuple[str, Tensor]], fd_step: float = 1e-6) -> float:
    """Compare backpropagated gradients against central differences.

    f rebuilds the computation and returns the scalar loss.  Returns the
    maximum relative error |ga - gn| / max(scale, |ga| + |gn|) over every
    element of every parameter, where scale = 1e-5 * max(1, |loss|).  The
    scale floor matches what the difference quotient can certify: each loss
    evaluation carries relative rounding of about 2e-16, so the quotient has
    absolute noise near eps * |loss| / (2 * fd_step) ~ 1e-10 * |loss|, and
    gradients below the floor are compared absolutely at that noise ceiling
    instead of relatively.  A missing or non-finite analytic gradient is a
    GradientError naming its group.
    """
    for _, p in params:
        p.grad = None
    loss = f()
    backward(loss)
    analytic = [_checked_grad(name, p).copy() for name, p in params]
    scale = 1e-5 * max(1.0, abs(loss.data.item()))
    worst = 0.0
    with no_grad():
        for (_, p), ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + fd_step
                up = f().item()
                flat[i] = saved - fd_step
                down = f().item()
                flat[i] = saved
                gn = (up - down) / (2.0 * fd_step)
                rel = abs(gflat[i] - gn) / max(scale, abs(gflat[i]) + abs(gn))
                if rel > worst:
                    worst = rel
    return worst


# ---------------------------------------------------------------------------
# parameter serialization

CHECKPOINT_FORMAT = "mpnflow-params"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: list[tuple[str, Tensor]], extra: dict | None = None) -> None:
    """Write named parameter groups to a self-describing JSON file.

    Values are emitted through repr-exact float serialization, so a
    save/load round trip reproduces every bit.
    """
    groups = {}
    for name, p in params:
        if name in groups:
            raise CheckpointError(f"duplicate parameter group name {name!r}")
        groups[name] = {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "groups": groups,
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, returning (name -> array, extra metadata); a group
    holding a non-finite value is a CheckpointError naming the file and group."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: missing or wrong format header")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {doc.get('version')!r}")
    for key in ("groups", "extra"):
        if not isinstance(doc.get(key), dict):
            raise CheckpointError(f"{path}: {key!r} must be a JSON object, got {doc.get(key)!r}")
    groups = {}
    for name, spec in doc["groups"].items():
        try:
            groups[name] = np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: parameter group {name!r} is malformed ({e!r})") from e
        if not np.isfinite(groups[name]).all():
            raise CheckpointError(f"{path}: parameter group {name!r} holds a non-finite value")
    return groups, doc["extra"]


def assign_parameters(params: list[tuple[str, Tensor]], groups: dict[str, np.ndarray]) -> None:
    """Load arrays into live parameters, insisting on matching names/shapes."""
    names = {name for name, _ in params}
    missing = names - set(groups)
    extra = set(groups) - names
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, p in params:
        arr = groups[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(f"{name}: shape {arr.shape} does not match {p.data.shape}")
        p.data = arr.copy()
