"""Repo benchmark: four workloads, timed end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-plan --seed 1 --seconds 15 --trace 0

``--trace 0`` runs untraced rounds and reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``).  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  Rounds
repeat until ``--seconds`` have passed; every round does the same
operations.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time cold start; the median is
#: reported.
SETUP_PROBES = 3
#: Where each run keeps its private cell caches and traces.
WORK_PARENT = ROOT / ".perfbench-work"
#: :func:`calibrate`'s time on the reference host (a 2-core 2.0 GHz Xeon
#: VM).  ``wall_s`` and ``setup_s`` are rescaled to this host speed.
REFERENCE_CAL_S = 0.2
#: Timed work between two calibrations during a round.
CALIBRATE_EVERY_S = 1.0


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of work like the program's:
    interpreter dict and tuple churn, many small numpy calls, and large
    memory-bound numpy passes.

    The mix is the benchmark's own code, so no change to the program can
    move it.  Timed after every second or so of measured work, it tracks
    the host's speed, which drifts by a third from one minute to the next
    on a shared machine.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    table: dict[int, float] = {}
    for i in range(30_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + i * 0.5
    items = [(v, i, str(i)) for i, v in enumerate(rng.random(25_000).tolist())]
    items.sort()
    table = {s: v for v, _, s in items}
    small = rng.random(64)
    for _ in range(800):
        small = np.minimum(small * 1.0001, 1.0)
        small.sum()
    big = rng.random(500_000)
    for _ in range(12):
        copy = big.copy()
        copy *= 1.5
        np.add.reduce(copy)
    np.argsort(big, kind="stable")
    return time.perf_counter() - start


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    """Rescale a timing by the calibrations taken just before and after it."""
    return seconds * REFERENCE_CAL_S / ((cal_before + cal_after) / 2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def setup_probes(workload: str, seed: int) -> tuple[list[dict], list[float]]:
    """Time cold start in fresh interpreters: import ``repro.cli``, then
    build the workload's inputs.  Returns the probes' reports and the
    calibrations taken around them."""
    out = []
    cals = [calibrate()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "perf" / "probe.py"),
             "--workload", workload, "--seed", str(seed)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = elapsed
        out.append(probe)
        cals.append(calibrate())
    return out, cals


def run_round(workload, probe, workdir: Path, cal: float):
    """Run every group once.

    ``cal`` is the latest calibration.  A new one is taken, outside the
    clock, whenever a second of timed work has built up, and each stretch
    of work is rescaled by the calibrations on either side of it.
    Returns ``(seconds, seconds at reference speed, ops, failed,
    unexpected failures, latest calibration)``.
    """
    seconds = scaled = stretch = 0.0
    ops = failed = 0
    unexpected: list[str] = []
    for i, group in enumerate(workload.groups):
        start = time.perf_counter()
        try:
            answer = group.run(probe, workdir)
            error = None
        except Exception as exc:  # a raising operation is a failed one
            answer, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        seconds += elapsed
        stretch += elapsed
        if error is None:
            try:
                fails = group.check(answer)
            except Exception as exc:  # an answer the check cannot read
                fails = [(None, f"check raised {type(exc).__name__}: {exc}")]
        else:
            fails = [(None, error)]
        ops += len(group.ops)
        if any(op is None for op, _ in fails):
            bad = len(group.ops)
        else:
            bad = len({op for op, _ in fails} & set(group.ops))
        failed += bad
        if fails and not group.known_fault:
            unexpected += [f"{group.label}: {op}: {msg}" for op, msg in fails]
        if stretch >= CALIBRATE_EVERY_S or i == len(workload.groups) - 1:
            before, cal = cal, calibrate()
            scaled += at_reference_speed(stretch, before, cal)
            stretch = 0.0
    return seconds, scaled, ops, failed, unexpected, cal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro.cli  # noqa: F401  -- compiles bytecode before the probes
    from perf import layers
    from perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    probes, setup_cals = setup_probes(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)

    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    rounds: list[tuple[float, float, dict | None]] = []
    attempted = failed = 0
    unexpected: list[str] = []
    try:
        deadline = time.perf_counter() + args.seconds
        cal = calibrate()
        while True:
            probe = None
            if args.trace and len(rounds) % 2:
                probe = layers.LayerProbe().install()
            try:
                seconds, scaled, ops, bad, errors, cal = run_round(
                    workload, probe, workdir, cal
                )
            finally:
                if probe is not None:
                    probe.uninstall()
            attempted += ops
            failed += bad
            unexpected += errors
            rounds.append((seconds, scaled, probe and probe.metrics()))
            if time.perf_counter() >= deadline and (not args.trace or len(rounds) > 1):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run is using it
    untraced = [r for r in rounds if r[2] is None]
    traced = [r for r in rounds if r[2] is not None]

    correct = not unexpected
    for msg in unexpected[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        units = dict(layers.PER_LAYER)
        layer_rounds = [m for _, _, m in traced]
        values = {}
        for name in layer_rounds[0]:
            if units[name] == "count":
                values[name] = layer_rounds[0][name]
                if any(m[name] != values[name] for m in layer_rounds):
                    print(f"{name} differs between traced rounds", file=sys.stderr)
                    correct = False
            else:
                values[name] = statistics.median(m[name] for m in layer_rounds)
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["cli.modules_loaded"] = probes[0]["modules"]
        values["workloads.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
        values["bench.trace_overhead_s"] = (
            statistics.median(r[0] for r in traced)
            - statistics.median(r[0] for r in untraced)
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = [at_reference_speed(p["setup_s"], setup_cals[i], setup_cals[i + 1])
                 for i, p in enumerate(probes)]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r[1] for r in untraced),
                       "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        raw_round = statistics.median(r[0] for r in untraced)
        print(f"host seconds: setup {statistics.median(p['setup_s'] for p in probes):.4f}, "
              f"round {raw_round:.4f}; host speed "
              f"{raw_round / metrics['wall_s']['value']:.3f} x reference",
              file=sys.stderr)
    print(f"{args.workload}: {len(untraced)} untraced + {len(traced)} traced rounds, "
          f"{attempted} operations attempted, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
