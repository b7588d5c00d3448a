"""Each benchmark check passes on the program's real output and trips on
a deliberately wrong one, which the runner counts as a failed operation.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run as runner
from perf import checks, layers
from perf.workloads import Group, Workload

ROOT = Path(__file__).resolve().parents[2]


# -- paper-plan ------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_point():
    from repro.core.framework import CCF
    from repro.workloads.analytic import AnalyticJoinWorkload

    cmp = CCF().compare(AnalyticJoinWorkload(n_nodes=12, scale_factor=0.5))
    return {
        s: dict(h=p.model.h, v0=p.model.v0, dest=p.dest, rate=p.model.rate,
                traffic=p.traffic, cct=p.cct)
        for s, p in cmp.plans.items()
    }


def _copy(plans):
    return {s: dict(p, dest=p["dest"].copy()) for s, p in plans.items()}


def test_sweep_point_passes(sweep_point):
    assert checks.check_sweep_point("p", sweep_point) == []


def test_swapped_dest_fails(sweep_point):
    plans = _copy(sweep_point)
    # Hash plans the raw model, where the hot partition's column is the
    # heaviest; send it to another partition's node and vice versa.
    dest = plans["hash"]["dest"]
    h = plans["hash"]["h"]
    i = int(h.sum(axis=0).argmax())
    j = next(k for k in range(dest.size) if dest[k] != dest[i])
    dest[i], dest[j] = dest[j], dest[i]
    fails = checks.check_sweep_point("p", plans)
    assert fails and all(op == "p" for op, _ in fails)


def test_dest_out_of_range_fails(sweep_point):
    plans = _copy(sweep_point)
    plans["hash"]["dest"][0] = plans["hash"]["h"].shape[0]
    assert checks.check_sweep_point("p", plans)


def test_wrong_cct_and_broken_order_fail(sweep_point):
    plans = _copy(sweep_point)
    plans["ccf"]["cct"] = plans["hash"]["cct"] * 2
    messages = [m for _, m in checks.check_sweep_point("p", plans)]
    assert any("recomputed" in m for m in messages)
    assert any("CCT order" in m for m in messages)


# -- tournament ------------------------------------------------------------

ROW = ["sebf", "facebook", "unit", 1.0, 12.0, 10.0, 1.2]


def test_tournament_row_passes():
    assert checks.check_tournament_rows([ROW]) == []


@pytest.mark.parametrize("row", [
    ["sebf", "facebook", "unit", 1.0, 9.0, 10.0, 0.9],   # gap below 1
    ["sebf", "facebook", "unit", 1.0, 12.0, 10.0, 1.3],  # gap != ratio
    ["wcct5", "facebook", "unit", 1.0, 60.0, 10.0, 6.0],  # above 5x
    ["sebf", "facebook", "unit", 1.0, 12.0, 0.0, math.inf],  # no bound
])
def test_bad_tournament_row_fails(row):
    fails = checks.check_tournament_rows([row])
    assert fails and fails[0][0] == f"{row[0]}/{row[1]}/{row[2]}"


def test_warm_pass_must_hit_and_match():
    assert checks.check_warm_pass([ROW], [list(ROW)], hits=1) == []
    assert checks.check_warm_pass([ROW], [ROW], hits=0)[0][0] is None
    other = ROW[:6] + [1.25]
    assert checks.check_warm_pass([ROW], [other], hits=1)


def test_twin_needs_bit_identical_ccts():
    assert checks.check_twin("t", {0: 1.5, 1: 2.0}, {0: 1.5, 1: 2.0}) == []
    nudged = {0: 1.5, 1: float(np.nextafter(2.0, 3.0))}
    assert checks.check_twin("t", {0: 1.5, 1: 2.0}, nudged)


# -- service ---------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_service(tmp_path_factory):
    from repro.obs import StreamingTracer, read_jsonl, result_from_trace
    from repro.service import (
        ArrivalConfig, ArrivalStream, ServiceConfig, run_service,
    )

    config = ServiceConfig(
        arrival=ArrivalConfig(n_ports=8, max_arrivals=30, seed=3),
        load=0.8, chaos_mtbf=5.0, recovery="retry",
    )
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    tracer = StreamingTracer(path)
    try:
        report, result, _ = run_service(config, instrumentation=tracer)
    finally:
        tracer.close()
    replay = result_from_trace(read_jsonl(path)[1])
    offered = {c.coflow_id: [(f.src, f.dst, f.volume) for f in c.flows]
               for c in ArrivalStream(config.arrival)}
    counts = dict(offered=report.arrivals, admitted=report.admitted,
                  shed=report.shed, deferrals=report.deferrals,
                  completed=report.completed, aborted=report.aborted)
    return dict(
        counts=counts, ccts=dict(result.ccts), offered=offered,
        rate=config.port_rate,
        sim=dict(ccts=dict(result.ccts), makespan=result.makespan,
                 bytes_lost=result.bytes_lost),
        replay=dict(ccts=dict(replay.ccts), makespan=replay.makespan,
                    bytes_lost=replay.bytes_lost),
    )


def _service_fails(run, **overrides):
    args = dict(counts=run["counts"], ccts=run["ccts"])
    args.update(overrides)
    return checks.check_service(args["counts"], args["ccts"], run["offered"],
                                8, run["rate"], overload=False)


def test_service_run_passes(traced_service):
    assert _service_fails(traced_service) == []
    assert checks.check_trace_replay(
        traced_service["sim"], traced_service["replay"]) == []


def test_cct_below_bottleneck_fails(traced_service):
    ccts = dict(traced_service["ccts"])
    cid = next(iter(ccts))
    gamma = checks.isolated_bottleneck(
        traced_service["offered"][cid], 8, traced_service["rate"])
    ccts[cid] = gamma * 0.5
    assert _service_fails(traced_service, ccts=ccts) == [
        (cid, f"CCT {gamma * 0.5!r} below its isolated bottleneck {gamma!r}")
    ]


def test_broken_counter_identity_fails_every_op(traced_service):
    counts = dict(traced_service["counts"], shed=traced_service["counts"]["shed"] + 1)
    fails = _service_fails(traced_service, counts=counts)
    assert any(op is None for op, _ in fails)


def test_overload_must_shed_and_defer(traced_service):
    fails = checks.check_service(
        traced_service["counts"], traced_service["ccts"],
        traced_service["offered"], 8, traced_service["rate"], overload=True)
    assert fails and fails[0][0] is None


def test_trace_missing_a_completion_fails(traced_service):
    replay = dict(traced_service["replay"])
    replay["ccts"] = dict(replay["ccts"])
    cid = replay["ccts"].popitem()[0]
    fails = checks.check_trace_replay(traced_service["sim"], replay)
    assert fails == [(cid, "completion missing from the trace")]
    replay = dict(traced_service["replay"], makespan=0.0)
    assert checks.check_trace_replay(traced_service["sim"], replay)[0][0] is None


# -- operation accounting --------------------------------------------------


def _group(label, ops, fails=(), raises=False, known=False):
    def run(probe, workdir):
        if raises:
            raise ValueError("boom")
        return None

    return Group(label, list(ops), run, lambda answer: list(fails), known)


def test_round_accounting(tmp_path):
    wl = Workload("w", [
        _group("ok", ["a", "b"]),
        _group("one-bad", ["c", "d"], fails=[("c", "wrong")]),
        _group("whole", ["e", "f", "g"], fails=[(None, "counter")]),
        _group("raises", ["h"], raises=True),
        _group("twin", ["i"], fails=[("i", "moved")], known=True),
        Group("unreadable", ["j"], lambda probe, workdir: None,
              lambda answer: answer["missing"]),
    ])
    seconds, scaled, ops, failed, unexpected, cal = runner.run_round(
        wl, None, tmp_path, runner.REFERENCE_CAL_S)
    assert (ops, failed) == (10, 1 + 3 + 1 + 1 + 1)
    assert len(unexpected) == 4 and not any("twin" in u for u in unexpected)


# -- traced pass -----------------------------------------------------------


def test_probe_uninstall_restores_the_program():
    from repro.core.framework import CCF
    from repro.network.schedulers import SEBFScheduler
    from repro.network.simulator import CoflowSimulator
    from repro.experiments import tournament

    before = (CCF.__dict__["assign"], CoflowSimulator.__dict__["run"],
              "allocate" in SEBFScheduler.__dict__,
              tournament.weighted_cct_lower_bound)
    probe = layers.LayerProbe().install()
    assert CCF.__dict__["assign"] is not before[0]
    probe.uninstall()
    after = (CCF.__dict__["assign"], CoflowSimulator.__dict__["run"],
             "allocate" in SEBFScheduler.__dict__,
             tournament.weighted_cct_lower_bound)
    assert after == before


def test_probe_self_time_excludes_children():
    probe = layers.LayerProbe()
    inner = probe.wrap("inner", lambda: sum(range(20000)))
    outer = probe.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert probe.calls == {"inner": 3, "outer": 1}
    assert probe.self_time["outer"] == pytest.approx(
        probe.total["outer"] - probe.total["inner"])


def test_every_registered_discipline_is_timed():
    from repro.network.schedulers import SCHEDULER_NAMES

    assert sorted(layers.SCHEDULERS) == sorted(SCHEDULER_NAMES)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    from perf.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
