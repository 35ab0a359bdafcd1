"""The benchmark's tracer wraps names of the package; each must still exist.

``perfbench/tracing.py`` patches entry points by ``setattr`` on their
owners and reads a few fields of what they return. A renamed or deleted
entry point or field would only fail under ``pytest perfbench``, so this
imports the tracer by path, checks every patch target here and traces a
short closed loop.
"""

import importlib.util
from pathlib import Path

from fgnav.factors import Mode
from test_pipeline import run_closed_loop

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    patches = load_tracing().Tracer()._patches()
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches if attr not in vars(owner)]
    assert missing == []


def test_tracer_counts_a_closed_loop_and_its_layers_nest():
    # the tracer tells a pre-solve from an exact solve by the identity of
    # ``pipe.config.optimizer``, and reads ``accepted_errors``, ``ncols``
    # and ``stats["num_factors"]``; step 0 plans cold, so both solves run
    tracer = load_tracing().Tracer()
    with tracer.installed():
        run_closed_loop(Mode.DECOUPLED, seed=3, steps=2)
    out = tracer.per_layer(2, untraced_p50=1.0, traced_p50=1.0)
    assert tracer.calls["graph.presolve"] == 1
    assert tracer.calls["graph.exact"] == 4       # two stages per step
    assert out["graph.presolve_iters"] > 0 and out["graph.exact_iters"] > 0
    assert 0 < out["graph.accept_ratio"] <= 1
    assert out["pipeline.factors"] > 0 and out["pipeline.columns"] > 0
