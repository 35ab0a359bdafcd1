"""The benchmark's tracer wraps names of the package; each must still exist.

``perfbench/tracing.py`` patches entry points by ``setattr`` on their
owners. A renamed or deleted entry point would only fail under
``pytest perfbench``, so this imports the tracer by path and checks every
patch target here.
"""

import importlib.util
from pathlib import Path

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
