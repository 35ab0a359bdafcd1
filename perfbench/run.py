"""Closed-loop control-step benchmark for fgnav.

Usage, from the repository root:

    python3 perfbench/run.py --workload headon_directed --seed 1 \
        --seconds 50 --trace 0

One process, one closed loop, no threads of its own; BLAS runs one thread
unless OPENBLAS_NUM_THREADS says otherwise. ``--trace 0`` runs as many
whole fixed-length episodes of the workload as fit in ``--seconds`` of
wall time and reports the end-to-end metrics; ``--trace 1`` does so for
half of that, then replays the same episodes with every layer wrapped and
reports the per-layer split. Every step's output is checked; a failed
check prints ``"correct": false`` and exits 1. The last stdout line is one
JSON object: ``correct``, ``attempted`` (steps), ``failed`` (diverged
steps, whose command is zeroed) and ``metrics``. The line before it is the
full report: every metric, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# The BLAS thread count changes floating-point rounding and with it every
# later step of the closed loop; one thread unless the caller says otherwise
# keeps a run the same on any machine. Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# share of the step time spent setting up again, for the setup_s samples
SETUP_SHARE = 0.1
# command digests of earlier runs of the same sources, workload and seed
DIGEST_DIR = ROOT / ".perfbench_digests"


def _import_program():
    """Import fgnav from this checkout's src/, never from anywhere else."""
    if not (SRC / "fgnav" / "__init__.py").is_file():
        raise SystemExit(f"error: no fgnav sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import fgnav
    if Path(fgnav.__file__).resolve().parent != SRC / "fgnav":
        raise SystemExit(f"error: imported fgnav from {fgnav.__file__}, not {SRC}")


def blas_threads() -> dict:
    """Thread count of each BLAS numpy and scipy load, when it can be asked."""
    import numpy
    import scipy
    out = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{name}.libs"
        out[name] = None
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    out[name] = int(fn())
                    break
    return out


def environment(args, steps: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps": steps,
    }


def _source_hash() -> str:
    """Hash of the program and of the benchmark that drives it."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "fgnav").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(workload: str, seed: int, digests: list) -> None:
    """Fail if an earlier run of the same sources and seed stepped differently.

    Runs stop at different steps, so the common prefix is compared; the
    longer sequence is kept for the next run.
    """
    from closedloop import CheckFailed
    DIGEST_DIR.mkdir(exist_ok=True)
    # the BLAS thread count changes rounding, so it is part of the key
    threads = "-".join(str(n) for n in blas_threads().values())
    path = DIGEST_DIR / f"{workload}-{seed}-{_source_hash()}-blas{threads}.json"
    known = json.loads(path.read_text()) if path.exists() else []
    for k, (a, b) in enumerate(zip(known, digests)):
        if a != b:
            raise CheckFailed(f"step {k}: command differs from an earlier run "
                              f"of the same sources and seed")
    if len(digests) > len(known):
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests))
        os.replace(tmp, path)


class SetUps:
    """Times the set-ups of a run, spread over the whole run.

    One set-up comes before each episode; after a step, the world is set up
    again (and thrown away) while set-ups have taken less than SETUP_SHARE
    of the step time so far. ``setup_s`` is the median of all of them, so it
    is measured on the same machine state as the steps around it.
    """

    def __init__(self):
        self.times: list = []
        self.step_s = 0.0
        self.scene = None

    def set_up(self, scene):
        import scenarios
        t0 = time.perf_counter()
        world = scenarios.set_up(scene)
        self.times.append(time.perf_counter() - t0)
        self.scene = scene
        return world

    def after_step(self, step_s: float) -> None:
        self.step_s += step_s
        while sum(self.times) < SETUP_SHARE * self.step_s:
            self.set_up(self.scene)

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def run_episodes(workload: str, seed: int, seconds: float, setups: SetUps) -> list:
    """Run whole episodes 0, 1, ... of `workload`; return [(scene, record)].

    At least one episode runs. Another starts only while the mean episode
    so far would still end within `seconds` of the first one's start, so a
    faster program runs more episodes of the same steps.
    """
    import closedloop
    import scenarios
    episodes = []
    start = time.perf_counter()
    while True:
        scene = scenarios.WORKLOADS[workload](seed, len(episodes))
        sim, pipe = setups.set_up(scene)
        rec = closedloop.run_loop(scene, sim, pipe, after_step=setups.after_step)
        episodes.append((scene, rec))
        elapsed = time.perf_counter() - start
        if elapsed * (len(episodes) + 1) / len(episodes) > seconds:
            return episodes


def run(args) -> tuple[dict, dict, int, int]:
    """(BENCHMARK.json metrics, full report, steps attempted, steps failed)."""
    import closedloop
    import scenarios
    import tracing

    # the first set-up and step in a process pay for first use of their code
    warm = scenarios.WORKLOADS[args.workload](args.seed)
    closedloop.run_loop(warm, *scenarios.set_up(warm), steps=1)
    setups = SetUps()
    budget = args.seconds / 2 if args.trace else args.seconds
    episodes = run_episodes(args.workload, args.seed, budget, setups)
    digests = [d for _, rec in episodes for d in rec.command_digests]
    check_digests(args.workload, args.seed, digests)
    e2e, tail = closedloop.end_to_end(episodes, setups.median)
    step_s = [t for _, rec in episodes for t in rec.step_s]
    report = {"end_to_end": {k: {"value": v, "unit": closedloop.END_TO_END[k][0]}
                             for k, v in e2e.items()},
              "step_tail": tail,
              "episodes": len(episodes),
              "setups": len(setups.times),
              "per_step": [[i, *step] for i, (_, rec) in enumerate(episodes)
                           for step in zip(rec.step_s, rec.reasons, rec.diverged,
                                           rec.iterations)]}
    steps = len(step_s)
    failed = sum(sum(rec.diverged) for _, rec in episodes)
    if not args.trace:
        metrics = {k: report["end_to_end"][k] for k in _bench_metrics("end_to_end")}
        return metrics, report, steps, failed

    tracer = tracing.Tracer()
    traced = []
    with tracer.installed():
        for scene, _ in episodes:
            sim, pipe = scenarios.set_up(scene)
            traced.append(closedloop.run_loop(scene, sim, pipe))
    if [d for rec in traced for d in rec.command_digests] != digests:
        raise closedloop.CheckFailed("the traced replay stepped differently")
    layers = tracer.per_layer(steps, statistics.median(step_s),
                              statistics.median([t for rec in traced for t in rec.step_s]))
    report["per_layer"] = {k: {"value": v, "unit": tracing.PER_LAYER[k]}
                           for k, v in layers.items()}
    unknown = tracer.factor_types_seen() - set(tracing.FACTOR_TYPES)
    if unknown:
        report["untracked_factor_types"] = sorted(unknown)
    metrics = {k: report["per_layer"][k] for k in _bench_metrics("per_layer")}
    return metrics, report, steps, failed


def _bench_metrics(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    import closedloop
    import scenarios
    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(scenarios.WORKLOADS)}")
    try:
        metrics, report, attempted, failed = run(args)
    except closedloop.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    report["environment"] = environment(args, attempted)
    print(json.dumps(report))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
