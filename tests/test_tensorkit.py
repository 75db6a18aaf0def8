import math
import threading

import numpy as np
import pytest
from conftest import count_calls
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (ReferenceAdamState, reference_adam_step, reference_bce, reference_conv2d,
                     reference_conv2d_tap_loop, reference_linear, reference_segment_softmax,
                     reference_segment_sum)

from mpnflow import tensorkit as tk
from mpnflow.errors import CheckpointError, GradientError, ShapeError


def brute_conv2d(x, kmat, bias, kernel):
    # independent oracle: direct loop over output pixels and taps
    n, h, w, cin = x.shape
    cout = kmat.shape[1]
    pad = kernel // 2
    out = np.zeros((n, h, w, cout))
    for b in range(n):
        for i in range(h):
            for j in range(w):
                acc = bias.copy()
                t = 0
                for dy in range(kernel):
                    for dx in range(kernel):
                        yy, xx = i + dy - pad, j + dx - pad
                        for c in range(cin):
                            if 0 <= yy < h and 0 <= xx < w:
                                acc = acc + x[b, yy, xx, c] * kmat[t * cin + c]
                        t += 1
                out[b, i, j] = acc
    return out


def grid_for(x, kernel):
    """The ConvGrid of an (n, h, w, c) array or tensor."""
    return tk.ConvGrid(*np.shape(getattr(x, "data", x))[:3], kernel)


def numeric_grad(f, arr, h=1e-6):
    # central differences on a raw array that f reads in place
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = f()
        flat[i] = saved - h
        down = f()
        flat[i] = saved
        gf[i] = (up - down) / (2 * h)
    return g


def test_add_mul_backward_matches_by_hand():
    x = tk.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    loss = tk.tsum(tk.mul(x, x))
    tk.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data)


def test_backward_rejects_non_scalar():
    x = tk.Tensor([1.0, 2.0], requires_grad=True)
    y = tk.mul(x, x)
    with pytest.raises(GradientError):
        tk.backward(y)


def test_linear_shape_error_names_the_shapes():
    x = tk.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError) as e:
        tk.linear(x, np.zeros((4, 5)), np.zeros(5))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)
    with pytest.raises(ShapeError) as e:
        tk.linear(x, np.zeros((3, 5)), np.zeros(4))
    assert "(3, 5)" in str(e.value) and "(4,)" in str(e.value)


def test_dense_forward_identity_layer_is_identity():
    rng = np.random.default_rng(0)
    stack = tk.DenseStack([3, 3], rng=rng, name="t")
    stack.weights[0].data = np.eye(3)
    stack.biases[0].data = np.zeros(3)
    x = np.array([[0.5, -1.0, 2.0]])
    out = stack(tk.Tensor(x))
    assert np.array_equal(out.data, x)


def test_dense_forward_two_layer_matches_hand_computation():
    rng = np.random.default_rng(1)
    stack = tk.DenseStack([2, 3, 1], rng=rng, name="t")
    x = np.array([[0.7, -0.3], [1.5, 2.0]])
    w0, b0 = stack.weights[0].data, stack.biases[0].data
    w1, b1 = stack.weights[1].data, stack.biases[1].data
    hidden = np.maximum(x @ w0 + b0, 0.0)
    want = hidden @ w1 + b1
    got = stack(tk.Tensor(x))
    assert np.allclose(got.data, want, atol=1e-12)


def test_dense_forward_input_width_mismatch():
    rng = np.random.default_rng(2)
    stack = tk.DenseStack([4, 2], rng=rng, name="t")
    with pytest.raises(ShapeError) as e:
        stack(tk.Tensor(np.zeros((5, 3))))
    assert str(e.value) == "t: input shape (5, 3) does not match expected (n, 4)"


@pytest.mark.parametrize("kind,shape", [("dense", (2, 5, 4)), ("conv", (4, 4, 3)),
                                        ("conv", (1, 4, 4, 2))],
                         ids=["dense_rank", "conv_rank", "conv_width"])
def test_stacks_reject_wrong_input_rank_and_width(kind, shape):
    rng = np.random.default_rng(3)
    if kind == "dense":
        stack, want = tk.DenseStack([4, 2], rng=rng, name="probe"), "(n, 4)"
    else:
        stack, want = tk.ConvStack([3, 2], rng=rng, name="probe"), "(n, h, w, 3)"
    grid = () if kind == "dense" else (tk.ConvGrid(1, 4, 4, 3),)
    with pytest.raises(ShapeError) as e:
        stack(tk.Tensor(np.zeros(shape)), *grid)
    assert str(e.value) == f"probe: input shape {shape} does not match expected {want}"


@pytest.mark.parametrize("kernel", [-1, -3, 0, 2])
def test_conv_stack_rejects_a_kernel_that_is_not_odd_and_positive(kernel):
    with pytest.raises(ShapeError, match=f"^probe: kernel must be odd and positive, got {kernel}$"):
        tk.ConvStack([2, 3], kernel=kernel, rng=np.random.default_rng(0), name="probe")


def test_conv2d_all_ones_kernel_counts_neighbors():
    # constant-1 input, all-ones 3x3 kernel, zero padding: each output pixel
    # equals the number of in-bounds taps (corner 4, edge 6, interior 9)
    x = tk.Tensor(np.ones((1, 4, 4, 1)))
    w = tk.Tensor(np.ones((9, 1)))
    b = tk.Tensor(np.zeros(1))
    out = tk.conv2d(x, w, b, grid_for(x, 3)).data[0, :, :, 0]
    want = np.array([
        [4, 6, 6, 4],
        [6, 9, 9, 6],
        [6, 9, 9, 6],
        [4, 6, 6, 4],
    ], dtype=float)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("kernel,h,w", [(1, 5, 4), (3, 5, 4), (5, 5, 4), (5, 3, 3)],
                         ids=["k1_5x4", "k3_5x4", "k5_5x4", "k5_3x3"])
def test_conv2d_matches_brute_force_oracle(kernel, h, w):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, h, w, 3))
    kmat = rng.normal(size=(kernel * kernel * 3, 2))
    bias = rng.normal(size=2)
    want = brute_conv2d(x, kmat, bias, kernel)
    got = tk.conv2d(tk.Tensor(x), tk.Tensor(kmat), tk.Tensor(bias), grid_for(x, kernel))
    assert np.allclose(got.data, want, atol=1e-10)


@pytest.mark.parametrize("kernel", [1, 3, 5], ids=["k1", "k3", "k5"])
def test_conv2d_gradients_match_finite_differences(kernel):
    # a 3x3 image, so with kernel 5 some taps fall entirely outside it
    rng = np.random.default_rng(4)
    taps = kernel * kernel
    x = tk.Tensor(rng.normal(size=(1, 3, 3, 2)), requires_grad=True)
    w = tk.Tensor(rng.normal(size=(taps * 2, 2)) * 0.3, requires_grad=True)
    b = tk.Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    coef = rng.normal(size=(1, 3, 3, 2))

    def loss_value():
        out = tk.conv2d(tk.Tensor(x.data), tk.Tensor(w.data), tk.Tensor(b.data),
                        grid_for(x, kernel))
        return float((out.data * coef).sum())

    loss = tk.tsum(tk.mul(tk.conv2d(x, w, b, grid_for(x, kernel)), tk.Tensor(coef)))
    tk.backward(loss)
    for t in (x, w, b):
        gn = numeric_grad(loss_value, t.data)
        assert np.allclose(t.grad, gn, atol=1e-5)


CONV_ORACLES = (reference_conv2d, reference_conv2d_tap_loop)


def conv_results(conv, x, kmat, bias, kernel, upstream, live_x):
    """Output and the x, kernel and bias gradients of one conv under upstream;
    tk.conv2d gets a fresh grid, the oracles the kernel size."""
    ts = (tk.Tensor(x.copy(), requires_grad=live_x), tk.Tensor(kmat.copy(), requires_grad=True),
          tk.Tensor(bias.copy(), requires_grad=True))
    out = conv(*ts, grid_for(x, kernel) if conv is tk.conv2d else kernel)
    tk.backward(tk.tsum(tk.mul(out, tk.Tensor(upstream))))
    return [out.data] + [t.grad for t in ts]


def assert_conv_matches_oracles(x, kmat, bias, kernel, upstream, live_x):
    out, gx, gw, gb = conv_results(tk.conv2d, x, kmat, bias, kernel, upstream, live_x)
    for oracle in CONV_ORACLES:
        ref_out, ref_gx, ref_gw, ref_gb = conv_results(oracle, x, kmat, bias, kernel,
                                                       upstream, live_x)
        assert out.shape == ref_out.shape and out.tobytes() == ref_out.tobytes()
        if live_x:
            assert gx.shape == x.shape and gx.tobytes() == ref_gx.tobytes()
        else:
            assert gx is None and ref_gx is None
        assert gw.shape == kmat.shape and gw.tobytes() == ref_gw.tobytes()
        assert gb.shape == bias.shape and gb.tobytes() == ref_gb.tobytes()


def conv_arrays(rng, n, h, w, cin, cout, kernel):
    # ReLU-style masking: masked negatives become -0.0 in the input and in
    # the upstream gradient
    x = rng.normal(size=(n, h, w, cin)) * (rng.random((n, h, w, cin)) < 0.7)
    upstream = rng.normal(size=(n, h, w, cout)) * (rng.random((n, h, w, cout)) < 0.5)
    kmat = rng.normal(size=(kernel * kernel * cin, cout))
    bias = rng.normal(size=cout)
    return x, kmat, bias, kernel, upstream


@st.composite
def conv_cases(draw):
    """Batches of 0 to 6 grids, down to 1x1 so that whole taps of the
    larger kernels fall in the padding."""
    n = draw(st.integers(0, 6))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cin, cout = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return conv_arrays(rng, n, h, w, cin, cout, kernel) + (draw(st.booleans()),)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=conv_cases())
def test_conv2d_matches_reference_bit_for_bit(case):
    assert_conv_matches_oracles(*case)


@pytest.mark.parametrize("n,h,w,kernel", [(0, 4, 4, 3), (3, 1, 6, 3), (2, 2, 1, 5),
                                          (2, 3, 2, 7), (1, 1, 1, 5)],
                         ids=["empty_batch", "row", "column", "k7_small", "single_pixel"])
def test_conv2d_matches_oracles_where_whole_taps_fall_in_padding(n, h, w, kernel):
    rng = np.random.default_rng(n * 100 + h * 10 + w)
    x, kmat, bias, kernel, upstream = conv_arrays(rng, n, h, w, 3, 2, kernel)
    upstream[..., 0] = -0.0
    assert_conv_matches_oracles(x, kmat, bias, kernel, upstream, True)


@pytest.mark.parametrize("grid,why", [
    (tk.ConvGrid(3, 5, 4, 3), "conv grid (3, 5, 4) does not match input (2, 5, 4, 3)"),
    (tk.ConvGrid(2, 4, 5, 3), "conv grid (2, 4, 5) does not match input (2, 5, 4, 3)"),
    (tk.ConvGrid(2, 5, 4, 5), "kernel matrix (27, 2) does not match 25x3 taps"),
], ids=["batch", "height_width", "kernel"])
def test_conv2d_rejects_a_grid_that_does_not_match(grid, why):
    x = tk.Tensor(np.zeros((2, 5, 4, 3)))
    with pytest.raises(ShapeError) as e:
        tk.conv2d(x, tk.Tensor(np.zeros((27, 2))), tk.Tensor(np.zeros(2)), grid)
    assert str(e.value) == why


@pytest.mark.parametrize("args", [(1, 4, 4, 2), (1, 4, 4, 0), (-1, 4, 4, 3), (1, 0, 4, 3)],
                         ids=["even_kernel", "zero_kernel", "negative_batch", "empty_rows"])
def test_conv_grid_rejects_bad_sizes(args):
    with pytest.raises(ShapeError):
        tk.ConvGrid(*args)


def test_conv_grid_builds_its_operator_once_and_only_on_a_backward(monkeypatch):
    builds = count_calls(monkeypatch, tk.ConvGrid, "_build")
    rng = np.random.default_rng(5)
    grid = tk.ConvGrid(2, 4, 4, 3)
    stack = tk.ConvStack([3, 4, 1], rng=rng, name="probe")
    x = tk.Tensor(rng.normal(size=(2, 4, 4, 3)), requires_grad=True)
    with tk.no_grad():
        stack(x, grid)
    stack(x, grid)
    assert builds == []
    tk.backward(tk.tsum(stack(x, grid)))
    tk.backward(tk.tsum(stack(x, grid)))
    assert builds == [grid]


def _signed_zeros(rng, x, frac):
    """x with about frac of its entries set to +0.0 or -0.0."""
    zero = rng.random(x.shape) < frac
    x[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return x


@st.composite
def linear_cases(draw):
    """Input, weights and bias with signed zeros, batches of 0 to 5 rows,
    and the upstream gradients of one to three consumers of the layer."""
    n, fin, fout = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, w, b = (_signed_zeros(rng, rng.normal(size=shape), 0.3)
               for shape in ((n, fin), (fin, fout), (fout,)))
    upstreams = [_signed_zeros(rng, rng.normal(size=(n, fout)), 0.3)
                 for _ in range(draw(st.integers(1, 3)))]
    return x, w, b, upstreams


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=linear_cases())
def test_linear_matches_matmul_then_add_bit_for_bit(case):
    x, w, b, upstreams = case
    results = []
    for linear in (tk.linear, reference_linear):
        ts = [tk.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        # every consumer reads x, w and b, so each gradient sums in tape order
        outs = [linear(*ts) for _ in upstreams]
        loss = tk.tsum(tk.mul(outs[0], tk.Tensor(upstreams[0])))
        for out, up in zip(outs[1:], upstreams[1:]):
            loss = tk.add(loss, tk.tsum(tk.mul(out, tk.Tensor(up))))
        tk.backward(loss)
        results.append([outs[0].data, loss.data] + [t.grad for t in ts])
    for got, want in zip(*results):
        assert _same_bits(got, want)


# the clamp's edges and values on both sides of them
BCE_EDGES = np.array([0.0, -0.0, 1.0, 1e-7, 1.0 - 1e-7])


@st.composite
def bce_cases(draw):
    """Probabilities in [-0.5, 1.5] with the clamp's edges mixed in,
    coefficients with signed zeros, one to three steps over one leaf (the
    first unscaled, so the edges reach bce as drawn), and an upstream factor
    that may be a signed zero."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 12)),
                           st.tuples(*[st.integers(1, 4)] * 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(-0.5, 1.5, size=shape)
    edge = rng.random(shape) < 0.4
    p[edge] = rng.choice(BCE_EDGES, size=int(edge.sum()))
    pos, neg = (_signed_zeros(rng, rng.uniform(0.0, 10.0, size=shape), 0.3) for _ in range(2))
    scales = [1.0] + draw(st.lists(st.sampled_from([1.0, 0.5, 2.0]), max_size=2))
    factor = draw(st.sampled_from([1.0, -1.0, 0.0, -0.0, 3.5]))
    return p, pos, neg, scales, factor


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=bce_cases())
def test_bce_matches_the_reference_chain_bit_for_bit(case):
    p, pos, neg, scales, factor = case
    results = []
    for bce in (tk.bce, reference_bce):
        # the steps share one leaf, as the loss's steps share the model
        leaf = tk.Tensor(p.copy(), requires_grad=True)
        terms = [bce(tk.mul(leaf, s), tk.Tensor(pos), tk.Tensor(neg)) for s in scales]
        total = terms[0]
        for term in terms[1:]:
            total = tk.add(total, term)
        loss = tk.mul(tk.mul(total, 1.0 / len(terms)), factor)
        tk.backward(loss)
        results.append([terms[0].data, loss.data, leaf.grad])
    for got, want in zip(*results):
        assert _same_bits(got, want)


def test_segment_softmax_sums_to_one_per_segment():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=12) * 10.0
    seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 4, 4, 4])
    out = tk.segment_softmax(tk.Tensor(logits), tk.Segments(seg, 5))
    for s in (0, 1, 2, 4):
        total = out.data[seg == s].sum()
        assert abs(total - 1.0) <= 1e-12
    assert np.all(out.data > 0)


def test_segment_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = tk.Tensor(rng.normal(size=8), requires_grad=True)
    seg = tk.Segments([0, 0, 1, 1, 1, 2, 2, 2], 3)
    coef = rng.normal(size=8)

    def loss_value():
        return float((tk.segment_softmax(tk.Tensor(logits.data), seg).data * coef).sum())

    loss = tk.tsum(tk.mul(tk.segment_softmax(logits, seg), tk.Tensor(coef)))
    tk.backward(loss)
    gn = numeric_grad(loss_value, logits.data)
    assert np.allclose(logits.grad, gn, atol=1e-6)


def test_rows_and_segment_sum_against_loop_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    idx = np.array([4, 0, 0, 2])
    seg = np.array([1, 1, 0, 2])
    want_rows = np.stack([x[i] for i in idx])
    got_rows = tk.rows(tk.Tensor(x), tk.Segments(idx, 5))
    assert np.array_equal(got_rows.data, want_rows)
    want_seg = np.zeros((3, 3))
    for r, s in zip(want_rows, seg):
        want_seg[s] += r
    got_seg = tk.segment_sum(got_rows, tk.Segments(seg, 3))
    assert np.allclose(got_seg.data, want_seg, atol=1e-12)


def test_segment_sum_empty_bins_are_zero():
    x = tk.Tensor(np.ones((2, 4)))
    out = tk.segment_sum(x, tk.Segments([3, 3], 5))
    assert np.array_equal(out.data[0], np.zeros(4))
    assert np.array_equal(out.data[3], 2 * np.ones(4))


def test_gather_scatter_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x = tk.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    idx = tk.Segments([0, 0, 3, 1, 2], 4)
    seg = tk.Segments([1, 0, 1, 1, 0], 2)
    coef = rng.normal(size=(2, 2))

    def build(src):
        g = tk.rows(src, idx)
        return tk.tsum(tk.mul(tk.segment_sum(g, seg), tk.Tensor(coef)))

    loss = build(x)
    tk.backward(loss)
    gn = numeric_grad(lambda: build(tk.Tensor(x.data)).item(), x.data)
    assert np.allclose(x.grad, gn, atol=1e-6)


@pytest.mark.parametrize("ids", [[0, -1], [0, 3], [7], [-4, 1]])
def test_segments_reject_ids_outside_range(ids):
    # a negative id would wrap to the last bin, and n would be out of bounds
    with pytest.raises(ShapeError, match=r"\[0, 3\)"):
        tk.Segments(ids, 3)


def test_segment_ops_reject_a_row_count_other_than_the_segments_expect():
    seg = tk.Segments([0, 1, 1], 2)
    with pytest.raises(ShapeError):
        tk.segment_sum(tk.Tensor(np.ones((2, 4))), seg)
    with pytest.raises(ShapeError):
        tk.segment_softmax(tk.Tensor(np.ones(4)), seg)
    with pytest.raises(ShapeError):
        seg.sum(np.ones((4, 2)))
    # rows gathers from a tensor with exactly seg.n rows
    with pytest.raises(ShapeError):
        tk.rows(tk.Tensor(np.ones((3, 2))), seg)


SPECIAL_VALUES = np.array([0.0, -0.0, 1e300, -1e300, 7e299, 1e-300, -1e-300, 5e-324])


@st.composite
def segment_cases(draw):
    """Segment ids (some bins empty, possibly no rows) plus random rows,
    gathered inputs and upstream gradients mixing ordinary values, -0.0 and
    magnitudes near 1e+-300, as row widths 1-256 or (8, 8, 4) grids."""
    n = draw(st.integers(0, 7))
    count = draw(st.integers(0, 40)) if n else 0
    ids = np.array(draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=count,
                                 max_size=count)), dtype=np.intp)
    tail = draw(st.one_of(st.just((8, 8, 4)), st.tuples(st.integers(1, 256))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.choice([-300, -5, 0, 5, 300], size=shape)
        special = rng.random(shape) < 0.3
        x[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
        return x

    return ids, n, tail, values


def _run(op, x, upstream):
    # forward, then backward of sum(out * upstream), whose gradient arriving
    # at out is exactly upstream; that sum may overflow, which is harmless
    t = tk.Tensor(x, requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(t)
        tk.backward(tk.tsum(tk.mul(out, tk.Tensor(upstream))))
    return out.data, t.grad


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=segment_cases())
def test_segment_ops_match_the_scatter_add_oracle_bit_for_bit(case):
    ids, n, tail, values = case
    seg = tk.Segments(ids, n)
    count = ids.size

    table, up_rows = values((n,) + tail), values((count,) + tail)
    out, grad = _run(lambda t: tk.rows(t, seg), table, up_rows)
    assert _same_bits(out, table[ids])
    assert _same_bits(grad, reference_segment_sum(up_rows, ids, n))

    x, up_bins = values((count,) + tail), values((n,) + tail)
    out, grad = _run(lambda t: tk.segment_sum(t, seg), x, up_bins)
    assert _same_bits(out, reference_segment_sum(x, ids, n))
    assert _same_bits(grad, up_bins[ids])

    logits, up_logits = values((count,)), values((count,))
    out, grad = _run(lambda t: tk.segment_softmax(t, seg), logits, up_logits)
    want_out, want_grad = reference_segment_softmax(logits, ids, n, up_logits)
    assert _same_bits(out, want_out) and _same_bits(grad, want_grad)


def test_flat_adam_matches_the_per_group_oracle_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = {"enc/W0": (5, 3), "enc/b0": (3,), "conv/K0": (18, 4), "head/b1": (1,)}
    hyper = dict(lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4)
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    sides = []
    for step, state in ((tk.adam_step, tk.AdamState(**hyper)),
                        (reference_adam_step, ReferenceAdamState(**hyper))):
        params = [(name, tk.Tensor(a.copy(), requires_grad=True, name=name))
                  for name, a in init.items()]
        sides.append((step, state, params))
    for _ in range(20):
        # gradient magnitudes from 1e-8 to 1e2, both signs
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 2, size=shape)
                 for name, shape in shapes.items()}
        for step, state, params in sides:
            for name, p in params:
                p.grad = grads[name].copy()
            step(params, state)
    (_, _, got), (_, _, want) = sides
    for (name, p), (_, q) in zip(got, want):
        assert _same_bits(p.data, q.data), name


@pytest.mark.parametrize("changed", [
    [("w", (2,)), ("b", (3,)), ("extra", (1,))],
    [("w", (2,))],
    [("w", (2,)), ("renamed", (3,))],
    [("w", (2,)), ("b", (1, 3))],
    [("b", (3,)), ("w", (2,))],
])
def test_adam_rejects_a_parameter_list_other_than_the_first_steps(changed):
    state = tk.AdamState(lr=0.1)
    first = [(name, tk.Tensor(np.ones(shape), requires_grad=True, name=name))
             for name, shape in [("w", (2,)), ("b", (3,))]]
    for _, p in first:
        p.grad = np.ones(p.data.shape)
    tk.adam_step(first, state)
    params = [(name, tk.Tensor(np.full(shape, 2.0), requires_grad=True, name=name))
              for name, shape in changed]
    for _, p in params:
        p.grad = np.ones(p.data.shape)
    with pytest.raises(GradientError, match="at the first step"):
        tk.adam_step(params, state)
    # nothing moved: the layout is checked before the update
    assert state.step == 1 and all(np.all(p.data == 2.0) for _, p in params)


def test_bce_clamps_and_passes_gradient_inside():
    eps = tk.PROB_EPS
    p = tk.Tensor([0.5, 2.0, -1.0, eps, 1.0 - eps], requires_grad=True)
    loss = tk.bce(p, np.ones(5), np.zeros(5))
    # log of the clamped values, so finite; unclamped, 2.0 and -1.0 give nan
    q = np.array([0.5, 1.0 - eps, eps, eps, 1.0 - eps])
    assert loss.item() == pytest.approx(-np.mean(np.log(q)), rel=1e-15)
    tk.backward(loss)
    # d/dp of -log(p) / 5 at 0.5; nothing outside or on the clamp's bounds
    assert np.array_equal(p.grad, [-0.4, 0.0, 0.0, 0.0, 0.0])


def test_bce_rejects_coefficients_of_another_shape_and_empty_input():
    with pytest.raises(ShapeError, match=r"\(3, 1\) and \(3,\) do not match probabilities \(3,\)"):
        tk.bce(np.full(3, 0.5), np.ones((3, 1)), np.ones(3))
    with pytest.raises(ShapeError, match="empty"):
        tk.bce(np.zeros(0), np.zeros(0), np.zeros(0))


def test_adam_single_step_moves_by_learning_rate():
    p = tk.Tensor(np.array([1.0]), requires_grad=True, name="w")
    state = tk.AdamState(lr=0.1)
    p.grad = np.array([1.0])
    tk.adam_step([("w", p)], state)
    # bias-corrected first step: delta = lr * 1 / (1 + eps)
    assert abs((1.0 - p.data[0]) - 0.1) < 1e-8


def test_adam_matches_hand_recurrence_for_two_steps():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = tk.Tensor(np.array([0.5]), requires_grad=True, name="w")
    state = tk.AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    grads = [np.array([0.3]), np.array([-0.2])]
    # oracle: classic Adam recurrence tracked by hand
    theta, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        gv = g[0]
        m = b1 * m + (1 - b1) * gv
        v = b2 * v + (1 - b2) * gv * gv
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        p.grad = g
        tk.adam_step([("w", p)], state)
        assert abs(p.data[0] - theta) < 1e-12


def test_adam_weight_decay_joins_gradient():
    p = tk.Tensor(np.array([2.0]), requires_grad=True, name="w")
    state = tk.AdamState(lr=0.1, weight_decay=0.5)
    p.grad = np.array([0.0])
    tk.adam_step([("w", p)], state)
    # effective gradient is wd * theta = 1.0, so the step is about -lr
    assert abs((2.0 - p.data[0]) - 0.1) < 1e-6


def test_adam_zero_lr_keeps_parameters():
    p = tk.Tensor(np.array([1.5, -2.0]), requires_grad=True, name="w")
    state = tk.AdamState(lr=0.0, weight_decay=1e-4)
    for _ in range(5):
        p.grad = np.array([0.3, 0.1])
        tk.adam_step([("w", p)], state)
    assert np.array_equal(p.data, [1.5, -2.0])


def test_adam_rejects_non_finite_gradient_naming_group():
    q = tk.Tensor(np.array([2.0]), requires_grad=True, name="w")
    p = tk.Tensor(np.array([1.0]), requires_grad=True, name="enc/W0")
    q.grad = np.array([0.5])
    state = tk.AdamState()
    with pytest.raises(GradientError) as e:
        p.grad = np.array([np.nan])
        tk.adam_step([("w", q), ("enc/W0", p)], state)
    assert "enc/W0" in str(e.value)
    # nothing moved: every gradient is checked before the first update, so
    # no moment buffer was allocated either
    assert q.data[0] == 2.0 and state.step == 0
    assert state.m is None and state.v is None and state.layout is None


def test_adam_rejects_missing_gradient_naming_group():
    p = tk.Tensor(np.array([1.0]), requires_grad=True, name="w")
    q = tk.Tensor(np.array([2.0]), requires_grad=True, name="dead/b0")
    p.grad = np.array([0.5])
    state = tk.AdamState(lr=0.1)
    with pytest.raises(GradientError) as e:
        tk.adam_step([("w", p), ("dead/b0", q)], state)
    assert "dead/b0" in str(e.value)
    # nothing moved: the check runs before any update
    assert p.data[0] == 1.0 and state.step == 0


def test_grad_check_small_mlp_below_tolerance():
    rng = np.random.default_rng(10)
    stack = tk.DenseStack([3, 5, 1], out_activation="sigmoid", rng=rng, name="mlp")
    x = tk.Tensor(rng.normal(size=(4, 3)))
    target = rng.uniform(0.2, 0.8, size=(4, 1))

    def f():
        return tk.bce(stack(x), target, 1.0 - target)

    err = tk.grad_check(f, stack.parameters(), fd_step=1e-6)
    assert err < 1e-4


def test_grad_check_flags_sabotaged_gradient():
    rng = np.random.default_rng(11)
    stack = tk.DenseStack([2, 3, 1], rng=rng, name="mlp")
    x = tk.Tensor(rng.normal(size=(3, 2)))
    calls = {"n": 0}

    def f():
        calls["n"] += 1
        out = tk.tsum(stack(x))
        if calls["n"] == 1:
            # sabotage: scale the forward output only on the analytic pass
            out = tk.mul(out, 2.0)
        return out

    err = tk.grad_check(f, stack.parameters(), fd_step=1e-6)
    assert err > 1e-2


def test_grad_check_rejects_parameter_without_gradient():
    rng = np.random.default_rng(12)
    used = tk.DenseStack([2, 3, 1], rng=rng, name="used")
    unused = tk.DenseStack([2, 1], rng=rng, name="unused")
    x = tk.Tensor(rng.normal(size=(3, 2)))
    with pytest.raises(GradientError) as e:
        tk.grad_check(lambda: tk.tsum(used(x)),
                      used.parameters() + unused.parameters())
    assert "unused/W0" in str(e.value)


def test_grad_check_rejects_non_finite_analytic_gradient():
    w = tk.Tensor(np.array([1.0]), requires_grad=True, name="w")
    # the inf factor reaches w's gradient; grad_check must not average it in
    with pytest.raises(GradientError) as e:
        tk.grad_check(lambda: tk.tsum(tk.mul(w, np.inf)), [("w", w)])
    assert "non-finite gradient in parameter group w" in str(e.value)


def test_no_grad_suppresses_recording():
    x = tk.Tensor([1.0], requires_grad=True)
    with tk.no_grad():
        y = tk.mul(x, x)
    assert y._backward is None
    y2 = tk.mul(x, x)
    assert y2._backward is not None


def test_no_grad_is_per_thread_under_interleaving():
    # force the order: A enters, B enters, A exits, B exits
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with tk.no_grad():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def thread_b():
        a_in.wait(10)
        with tk.no_grad():
            b_in.set()
            a_out.wait(10)
            seen["b_after_a_exit"] = tk.grad_enabled()
        seen["b_after_own_exit"] = tk.grad_enabled()

    threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert seen == {"b_after_a_exit": False, "b_after_own_exit": True}
    assert tk.grad_enabled()


def test_gradient_accumulates_across_backward_calls():
    x = tk.Tensor([1.0, 2.0], requires_grad=True)
    tk.backward(tk.tsum(tk.mul(x, x)))
    tk.backward(tk.tsum(tk.mul(x, x)))
    assert np.allclose(x.grad, 4.0 * x.data)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    stack = tk.DenseStack([4, 3, 2], rng=rng, name="net")
    params = stack.parameters()
    path = tmp_path / "ckpt.json"
    tk.save_checkpoint(path, params, extra={"note": "t"})
    groups, extra = tk.load_checkpoint(path)
    assert extra == {"note": "t"}
    for name, p in params:
        assert groups[name].shape == p.data.shape
        assert np.array_equal(groups[name], p.data)


def test_checkpoint_rejects_garbage_and_mismatch(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"other\"}")
    with pytest.raises(CheckpointError):
        tk.load_checkpoint(bad)
    rng = np.random.default_rng(13)
    a = tk.DenseStack([2, 2], rng=rng, name="a")
    b = tk.DenseStack([2, 2], rng=rng, name="b")
    path = tmp_path / "a.json"
    tk.save_checkpoint(path, a.parameters())
    groups, _ = tk.load_checkpoint(path)
    with pytest.raises(CheckpointError):
        tk.assign_parameters(b.parameters(), groups)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_non_finite_value_naming_the_file_and_group(bad, tmp_path):
    stack = tk.DenseStack([2, 2], rng=np.random.default_rng(13), name="a")
    stack.parameters()[-1][1].data[0] = bad
    path = tmp_path / "a.json"
    tk.save_checkpoint(path, stack.parameters())
    name = stack.parameters()[-1][0]
    with pytest.raises(CheckpointError) as err:
        tk.load_checkpoint(path)
    assert str(err.value) == f"{path}: parameter group '{name}' holds a non-finite value"


def test_glorot_init_respects_bound_and_seed():
    rng = np.random.default_rng(14)
    fan_in, fan_out = 6, 10
    w = tk.glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out))
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    assert np.all(np.abs(w) <= bound)
    w2 = tk.glorot_uniform(np.random.default_rng(14), fan_in, fan_out, (fan_in, fan_out))
    assert np.array_equal(w, w2)


def test_concat_and_reshape_gradients():
    a = tk.Tensor(np.ones((2, 2)), requires_grad=True)
    b = tk.Tensor(np.ones((2, 3)), requires_grad=True)
    joined = tk.concat([a, b], axis=1)
    assert joined.data.shape == (2, 5)
    coef = np.arange(10.0).reshape(2, 5)
    tk.backward(tk.tsum(tk.mul(joined, tk.Tensor(coef))))
    assert np.array_equal(a.grad, coef[:, :2])
    assert np.array_equal(b.grad, coef[:, 2:])
    flat = tk.reshape(tk.Tensor(np.arange(6.0), requires_grad=True), (2, 3))
    assert flat.data.shape == (2, 3)
