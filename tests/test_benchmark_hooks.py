"""The benchmark's tracer and loop use names of the package; each must still exist.

``perfbench/tracing.py`` patches entry points by ``setattr`` on their
owners and reads a few fields of what they return; ``perfbench/closedloop.py``
reads fields of every ``StepOutput``. A renamed or deleted entry point or
field would only fail under ``pytest perfbench``, so this imports those
modules by path, checks every patch target here, traces a short closed
loop and runs a short benchmark episode through to its metrics.
"""

import importlib.util
import sys
from pathlib import Path

from fgnav.factors import Mode
from test_pipeline import run_closed_loop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    patches = load("tracing").Tracer()._patches()
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches if attr not in vars(owner)]
    assert missing == []


def test_tracer_counts_a_closed_loop_and_its_layers_nest():
    # the tracer tells a pre-solve from an exact solve by the identity of
    # ``pipe.config.optimizer``, and reads ``accepted_errors``, ``ncols``
    # and ``stats["num_factors"]``; step 0 plans cold, so both solves run
    tracer = load("tracing").Tracer()
    with tracer.installed():
        run_closed_loop(Mode.DECOUPLED, seed=3, steps=2)
    out = tracer.per_layer(2, untraced_p50=1.0, traced_p50=1.0)
    assert tracer.calls["graph.presolve"] == 1
    assert tracer.calls["graph.exact"] == 4       # two stages per step
    assert out["graph.presolve_iters"] > 0 and out["graph.exact_iters"] > 0
    assert 0 < out["graph.accept_ratio"] <= 1
    assert out["pipeline.factors"] > 0 and out["pipeline.columns"] > 0


def test_a_benchmark_episode_runs_to_its_metrics():
    # two steps of the cooperative workload: the loop checks and reads
    # every StepOutput, and the metrics read the records it keeps
    closedloop, scenarios = load("closedloop"), load("scenarios")
    scene = scenarios.crossing_cooperative(11)
    rec = closedloop.run_loop(scene, *scenarios.set_up(scene), steps=2)
    assert rec.steps == 2 and not any(rec.diverged)
    values, _ = closedloop.end_to_end([(scene, rec)], setup_s=0.0)
    assert set(values) == set(closedloop.END_TO_END)
    assert values["realtime_factor"] > 0
