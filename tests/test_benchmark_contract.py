"""The benchmark's traced run, one unit per workload.

Only a traced run reads what the tracer's observers read: `split_windows`'
detections, the dicts of a `Solution` and the graph of
`graph_from_edge_list`.  A change that breaks one of those reads passes
every other test, so each workload is set up and run once here under the
tracer, as `perfbench/run.py` runs it.  The benchmark's files are loaded by
path and left as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer_mod = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_unit_runs_without_failures(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    try:
        tracer.on = True
        workload.setup()
        workload.run_unit(tracer.paused)
    finally:
        tracer.on = False
        tracer_mod.uninstall(undo)
    assert workload.tally.attempted > 0
    assert (workload.tally.failed, workload.tally.problems) == (0, [])
    if name == "infer_track":
        assert tracer.counts["infer.windows"] > 0
        assert tracer.counts["infer.union_edges"] > 0
