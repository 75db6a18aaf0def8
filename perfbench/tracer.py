"""Call-site tracing of mpnflow's public functions for the per-layer metrics.

Every public function of every package module is wrapped in each module
namespace that binds it, because the modules import functions by name:
`build_graph`, for example, is looked up as `mpnflow.train.build_graph` and
as `mpnflow.infer.build_graph`, and both bindings are replaced.  A wrapper
records one span per call; a function's self time is its span's duration
minus the time covered by the spans of the functions it calls.  Observers
attached to a few functions count work (graph sizes, windows, rounding
flips, conv2d shapes) where it happens.  No source file changes, so the
bodies of private helpers and backward closures count toward the public
function that runs them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("synthdata", "graph", "mpn", "tensorkit", "train", "infer", "metrics", "cli")


class Tracer:
    """Span and counter store; wrappers record only while `on` is true."""

    def __init__(self):
        self.on = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.conv_shapes: Counter = Counter()
        # child-time accumulator per open span; index 0 is the root
        self._stack = [0.0]

    def wrap(self, site: str, name: str, fn):
        observer = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                tracer.self_s[name] += t1 - t0 - stack.pop()
                tracer.total_s[name] += t1 - t0
                tracer.calls[name] += 1
                if ok and observer is not None:
                    observer(tracer, site, args, kwargs, result)
                # observer time belongs to no span: it is tracing overhead
                stack[-1] += time.perf_counter() - t0
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks outputs."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def install(tracer: Tracer) -> list:
    """Wrap every public function at every binding; returns the undo list."""
    modules = {short: importlib.import_module(f"mpnflow.{short}") for short in LAYERS}
    public = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                public[obj] = f"{short}.{attr}"
    undo = []
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in public:
                setattr(mod, attr, tracer.wrap(short, public[obj], obj))
                undo.append((mod, attr, obj))
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, obj in undo:
        setattr(mod, attr, obj)


# ---------------------------------------------------------------------------
# observers: (tracer, call site module, args, kwargs, result)

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_build_graph(tr, site, args, kwargs, g):
    tr.counts["graph.nodes"] += g.num_nodes
    tr.counts["graph.edges"] += g.num_edges
    if site == "infer":
        tr.counts["infer.frames_visited"] += len(np.unique(g.frames))


def _on_split_windows(tr, site, args, kwargs, windows):
    if site == "infer":
        tr.counts["infer.windows"] += len(windows)
        tr.counts["infer.frames"] += len({d.frame for d in _arg(args, kwargs, 0, "detections")})


def _on_graph_from_edge_list(tr, site, args, kwargs, g):
    if site == "infer":
        tr.counts["infer.union_edges"] += g.num_edges


def _on_run_inference(tr, site, args, kwargs, sol):
    tau = kwargs.get("tau", 0.5)
    tr.counts["infer.violations_pre_round"] += len(sol.constraint_report.violations)
    tr.counts["infer.edges_flipped"] += sum(
        int(p >= tau) != sol.labels[pair] for pair, p in sol.edge_probs.items())


def _on_conv2d(tr, site, args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    w = _arg(args, kwargs, 1, "w")
    tr.conv_shapes[(np.shape(getattr(x, "data", x)), np.shape(getattr(w, "data", w)))] += 1


OBSERVERS = {
    "graph.build_graph": _on_build_graph,
    "graph.split_windows": _on_split_windows,
    "graph.graph_from_edge_list": _on_graph_from_edge_list,
    "infer.run_inference": _on_run_inference,
    "tensorkit.conv2d": _on_conv2d,
}


# ---------------------------------------------------------------------------
# conv2d kernel accounting, computed from the recorded shapes

def conv2d_work(shapes: Counter) -> tuple[float, float]:
    """(GFLOP, MB) of all recorded conv2d forward calls.

    FLOPs count the multiply-adds of the im2col GEMM, 2·N·H·W·(k²·Cin)·Cout.
    Bytes are the compulsory float64 traffic: read input, kernel and bias,
    write output.
    """
    flop = 0.0
    nbytes = 0.0
    for ((n, h, w, cin), (taps_cin, cout)), calls in shapes.items():
        rows = n * h * w
        flop += calls * 2.0 * rows * taps_cin * cout
        nbytes += calls * 8.0 * (rows * cin + taps_cin * cout + cout + rows * cout)
    return flop / 1e9, nbytes / 1e6


def conv2d_gemm_floor_s(shapes: Counter, reps: int = 5, seed: int = 0) -> float:
    """Seconds the recorded conv2d forward calls would take as bare GEMMs.

    For each distinct shape the (N·H·W, k²·Cin) @ (k²·Cin, Cout) product plus
    bias is timed `reps` times on random data; the median is charged once
    per recorded call.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for ((n, h, w, cin), (taps_cin, cout)), calls in shapes.items():
        a = rng.standard_normal((n * h * w, taps_cin))
        k = rng.standard_normal((taps_cin, cout))
        b = rng.standard_normal(cout)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            a @ k + b
            times.append(time.perf_counter() - t0)
        total += calls * float(np.median(times))
    return total
