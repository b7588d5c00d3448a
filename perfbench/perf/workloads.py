"""The four benchmark workloads, built from a seed and run through the
program's public entry points.

A workload is a list of :class:`Group`\\ s.  A group is one timed call
into the program (a sweep point, a tournament cell, the warm pass, one
twin, one service run) plus the check of its answer, which runs after
the clock stops.  Its ``ops`` are the operations it accounts for: a
sweep point, a tournament cell, the warm pass, a twin, or an offered
coflow.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perf import checks

#: The paper's sweep points (Figs. 5, 6, 7) at SF 600.  Fig. 5 stops at
#: 500 nodes: 1000 nodes needs 1.6 GB and 2 s per point.
FIG5_NODES = (100, 200, 300, 400, 500)
FIG6_ZIPF = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG7_SKEW = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
FIG67_NODES = 100

#: CoflowSim's 1 Gbps port rate, which the tournament runs at.
TOURNAMENT_RATE = 128e6
#: The twins' fixed instance and their rescaling factor (exact in binary).
TWIN_MIX = dict(n_ports=12, n_coflows=8, arrival_rate=2.0, seed=7)
TWIN_SCALE = 2.0**-27
#: ``dclas`` is exempt: its byte thresholds do not scale with the volumes.
TWIN_EXEMPT = ("dclas",)
#: Independent arrival streams per service round.
SERVICE_STREAMS = 4


@dataclass
class Group:
    """One timed call into the program and the check of its answer."""

    label: str
    ops: list
    run: Callable[[Any, Path], Any]
    check: Callable[[Any], list]
    #: Failures here are the known unit-invariance fault, not a
    #: benchmark error (see README, "Operations and the known failing
    #: twins").
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    groups: list = field(default_factory=list)


def _seed(seed: int, salt: int) -> int:
    """An input seed derived from the benchmark seed, one per use."""
    return int(np.random.SeedSequence([abs(int(seed)), salt]).generate_state(1)[0] % 2**31)


# -- paper-plan ----------------------------------------------------------


def paper_plan(seed: int) -> Workload:
    """Hash/Mini/CCF over the paper's Fig. 5/6/7 points, one group each.

    The seed picks the hot join key, which moves the skewed partition
    (and so its Hash destination) without changing the amount of work.
    """
    from repro.core.framework import CCF
    from repro.workloads.analytic import AnalyticJoinWorkload

    hot_key = 1 + _seed(seed, 1) % 1_000_000
    points = (
        [(f"fig5/nodes={n}", dict(n_nodes=n)) for n in FIG5_NODES]
        + [(f"fig6/zipf={z}", dict(n_nodes=FIG67_NODES, zipf_s=z)) for z in FIG6_ZIPF]
        + [(f"fig7/skew={k}", dict(n_nodes=FIG67_NODES, skew=k)) for k in FIG7_SKEW]
    )
    wl = Workload("paper-plan")
    for label, params in points:
        workload = AnalyticJoinWorkload(
            scale_factor=600.0, skewed_key=hot_key, **params
        )

        def run(probe, workdir, workload=workload):
            cmp = CCF().compare(workload)
            return {
                s: dict(h=p.model.h, v0=p.model.v0, dest=p.dest,
                        rate=p.model.rate, traffic=p.traffic, cct=p.cct)
                for s, p in cmp.plans.items()
            }

        wl.groups.append(Group(
            label, [label], run,
            lambda plans, label=label: checks.check_sweep_point(label, plans),
        ))
    return wl


# -- tournament ----------------------------------------------------------


def tournament(seed: int) -> Workload:
    """``ccf tournament``'s cold/warm path plus the unit-invariance twins.

    The grid is the one ``ccf tournament`` runs by default (seed 0, 24
    ports x 40 coflows, unit weights); the benchmark seed shuffles the
    cell order.  Seeded grids differ 2x in work between seeds, which no
    bound can absorb, so the instances stay fixed.

    The cold pass runs one ``run_sweep`` per cell into the round's
    private cache, so the host-speed calibration can run between cells;
    the warm pass is one ``run_sweep`` over the whole grid, all hits.
    """
    from repro.experiments.engine import CellCache, run_sweep
    from repro.experiments.tournament import tournament_sweep
    from repro.network.fabric import Fabric
    from repro.network.flow import Coflow, Flow
    from repro.network.schedulers import SCHEDULER_NAMES, make_scheduler
    from repro.network.simulator import CoflowSimulator
    from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

    spec = tournament_sweep(
        n_ports=24, n_coflows=40, seed=0, weight_distributions=("unit",)
    )
    order = np.random.default_rng(_seed(seed, 2)).permutation(len(spec.cells))
    spec.cells = [spec.cells[i] for i in order]
    # The round's private cache and cold rows, handed from the cell
    # groups to the warm-pass group that ends the round.
    state: dict = {"cache": None, "cold": []}

    def run_cell(probe, workdir, cell):
        if state["cache"] is None:
            state["cache"] = CellCache(tempfile.mkdtemp(prefix="cells-", dir=workdir))
            state["cold"] = []
        one = dataclasses.replace(spec, cells=[cell])
        if probe is not None:
            one.fn = probe.wrap("engine.cells", spec.fn)
        start = time.perf_counter()
        row = run_sweep(one, cache=state["cache"]).table.rows[0]
        if probe is not None:
            probe.add("engine.sweep", time.perf_counter() - start)
        state["cold"].append(row)
        return row

    def run_warm(probe, workdir):
        cache, cold = state["cache"], state["cold"]
        state["cache"] = None
        try:
            start = time.perf_counter()
            warm = run_sweep(spec, cache=cache)
            elapsed = time.perf_counter() - start
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)
        if probe is not None:
            probe.add("engine.warm", elapsed)
            probe.count("engine.cache_hits", warm.hits)
        return cold, warm.table.rows, warm.hits

    wl = Workload("tournament")
    for cell in spec.cells:
        op = "/".join(str(cell.params[k]) for k in ("scheduler", "family", "weights"))
        wl.groups.append(Group(
            op, [op], lambda probe, workdir, cell=cell: run_cell(probe, workdir, cell),
            lambda row: checks.check_tournament_rows([row]),
        ))
    wl.groups.append(Group(
        "warm", ["warm"], run_warm,
        lambda answer: [("warm", msg) for _, msg in checks.check_warm_pass(*answer)],
    ))

    base = generate_coflow_mix(CoflowMixConfig(**TWIN_MIX))
    scaled = [
        Coflow(
            flows=[Flow(f.src, f.dst, f.volume * TWIN_SCALE) for f in c.flows],
            arrival_time=c.arrival_time, coflow_id=c.coflow_id, name=c.name,
            deadline=c.deadline, weight=c.weight,
        )
        for c in base
    ]
    n_ports = TWIN_MIX["n_ports"]
    for name in SCHEDULER_NAMES:
        if name in TWIN_EXEMPT:
            continue

        def run_twin(probe, workdir, name=name):
            a = CoflowSimulator(
                Fabric(n_ports=n_ports, rate=TOURNAMENT_RATE), make_scheduler(name)
            ).run(base)
            b = CoflowSimulator(
                Fabric(n_ports=n_ports, rate=TOURNAMENT_RATE * TWIN_SCALE),
                make_scheduler(name),
            ).run(scaled)
            return a.ccts, b.ccts

        op = f"twin/{name}"
        wl.groups.append(Group(
            op, [op], run_twin,
            lambda ans, op=op: checks.check_twin(op, *ans),
            known_fault=True,
        ))
    return wl


# -- service workloads ---------------------------------------------------


def _service_group(label: str, config, *, overload: bool, traced: bool) -> Group:
    """One ``run_service`` call; its operations are the offered coflows."""
    from repro.service import ArrivalStream, run_service

    offered = {
        c.coflow_id: [(f.src, f.dst, f.volume) for f in c.flows]
        for c in ArrivalStream(config.arrival)
    }
    n_ports, rate = config.arrival.n_ports, config.port_rate

    def run(probe, workdir):
        tracer = path = None
        if traced:
            from repro.obs import StreamingTracer, repro_header

            path = Path(workdir) / f"{label}.jsonl"
            tracer = StreamingTracer(
                path,
                header=repro_header(
                    seed=config.arrival.seed, scheduler=config.scheduler,
                    mode="serve", policy=config.policy, load=config.load,
                ),
            )
            if probe is not None:
                probe.watch_sink(tracer)
        try:
            report, result, _ = run_service(config, instrumentation=tracer)
        finally:
            if tracer is not None:
                tracer.close()
        answer = dict(
            counts=dict(
                offered=report.arrivals, admitted=report.admitted,
                shed=report.shed, deferrals=report.deferrals,
                completed=report.completed, aborted=report.aborted,
            ),
            sim=dict(ccts=dict(result.ccts), makespan=result.makespan,
                     bytes_lost=result.bytes_lost),
        )
        if traced:
            # The ``ccf stats`` path: read the trace back and summarize it.
            from repro.obs import read_jsonl, result_from_trace, summarize_trace

            t0 = time.perf_counter()
            header, events = read_jsonl(path)
            summarize_trace(events, header)
            if probe is not None:
                probe.add("obs.readback", time.perf_counter() - t0)
                probe.count("obs.events", tracer.events_written)
            replay = result_from_trace(events)
            answer["replay"] = dict(
                ccts=dict(replay.ccts), makespan=replay.makespan,
                bytes_lost=replay.bytes_lost,
            )
            path.unlink()
        if probe is not None:
            c = answer["counts"]
            probe.count("service.decisions", c["admitted"] + c["shed"] + c["deferrals"])
            probe.count("service.deferrals", c["deferrals"])
        return answer

    def check(answer):
        fails = checks.check_service(
            answer["counts"], answer["sim"]["ccts"], offered, n_ports, rate,
            overload=overload,
        )
        if traced:
            fails += checks.check_trace_replay(answer["sim"], answer["replay"])
        return fails

    return Group(label, sorted(offered), run, check)


def service_overload(seed: int) -> Workload:
    """``run_service`` under overload with the fleet recipe: ``fair``,
    ``bounded-queue`` and a fast-cadence deferral backoff, so deferral
    re-polls dominate the epochs.

    A low watermark puts each stream into overload early, so four short
    independent streams per round average out the heavy-tailed mix.
    """
    from repro.core.resilience import Backoff
    from repro.service import ArrivalConfig, ServiceConfig

    wl = Workload("service-overload")
    for k in range(SERVICE_STREAMS):
        config = ServiceConfig(
            arrival=ArrivalConfig(
                n_ports=24, users=30, max_arrivals=150, size_mix="facebook",
                seed=_seed(seed, 20 + k),
            ),
            load=2.0,
            scheduler="fair",
            policy="bounded-queue",
            policy_params=dict(
                watermark_s=10.0, queue_limit=256,
                backoff=Backoff(max_attempts=60, base_delay=0.1,
                                multiplier=1.2, max_delay=1.0, jitter=0.1),
            ),
        )
        wl.groups.append(
            _service_group(f"overload-{k}", config, overload=True, traced=False)
        )
    return wl


def service_traced(seed: int) -> Workload:
    """The ``ccf serve --trace`` -> ``ccf stats`` path: default ``sebf``
    and ``accept-all`` at a healthy load under a chaos soak, streaming a
    JSONL trace to a private file and reading it back.

    Four independent streams per round of the light-tailed ``zipf`` mix:
    one stream of the ``facebook`` mix varies too much in work from seed
    to seed for any bound to hold.
    """
    from repro.service import ArrivalConfig, ServiceConfig

    wl = Workload("service-traced")
    for k in range(SERVICE_STREAMS):
        config = ServiceConfig(
            arrival=ArrivalConfig(
                n_ports=16, max_arrivals=125, size_mix="zipf",
                seed=_seed(seed, 10 + k),
            ),
            load=0.5,
            chaos_mtbf=20.0,
            chaos_mttr=1.0,
            recovery="retry",
        )
        wl.groups.append(
            _service_group(f"traced-{k}", config, overload=False, traced=True)
        )
    return wl


WORKLOADS = {
    "paper-plan": paper_plan,
    "tournament": tournament,
    "service-overload": service_overload,
    "service-traced": service_traced,
}
