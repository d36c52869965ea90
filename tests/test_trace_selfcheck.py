"""The benchmark's traced runs check themselves: every layer a workload
predicts must make calls, every traced binding must be wrapped, and every
answer must pass the workload's own check.  This runs the shortest prefix of
each workload's seed-1 plan that reaches every predicted layer under the
tracer, in a fresh process, so that a change which drops a layer from a
workload's path (or returns a generator where the tracer counts a list) shows
here rather than only in a --trace 1 run."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib.util, json, sys

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"{sys.argv[1]}/bench/{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module

workloads, tracing = load("workloads"), load("tracing")
workload = workloads.WORKLOADS[sys.argv[2]]
tracer = tracing.Tracer()
tracer.install()

def calls(layer):
    snap = tracer.snapshot()
    return snap[layer] if layer in snap else snap[f"{layer}.calls"]

state = workload.setup()
failures, asked = [], 0
for item in workload.plan(1, 15):
    asked += 1
    try:
        message = workload.check(item, workload.query(state, item))
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
    if message:
        failures.append(message)
    if all(calls(layer) for layer in workload.layers):
        break
print(json.dumps({
    "asked": asked,
    "idle": [layer for layer in workload.layers if not calls(layer)],
    "unbound": tracer.unbound(),
    "failures": failures,
}))
"""


@pytest.mark.parametrize("workload", ["eval-precise", "metric-table", "topology"])
def test_traced_plan_prefix_reaches_every_layer(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["idle"] == [], report
    assert report["unbound"] == [], report
    assert report["failures"] == [], report
