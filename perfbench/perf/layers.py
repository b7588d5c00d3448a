"""Per-layer timings for the traced pass, taken from outside the program.

:class:`LayerProbe` wraps the public entry points of each ``repro``
layer while it is installed and keeps every span in memory: total time,
self time (total minus the time of wrapped calls made inside it) and
call count per layer key.  Nothing under ``src/`` knows it exists, and
:meth:`LayerProbe.uninstall` puts every attribute back, so the untraced
pass that gives the end-to-end metrics runs the bare program.
"""

from __future__ import annotations

import functools
import sys
import time

#: The registered disciplines, each timed on its own.
SCHEDULERS = (
    "deadline", "dclas", "fair", "fifo", "lpcct", "ncf", "scf", "sebf",
    "sequential", "wcct5", "wss",
)
#: Every per-layer metric the traced pass reports, with its unit.
PER_LAYER = (
    [
        ("cli.import_s", "s"),
        ("cli.modules_loaded", "count"),
        ("workloads.inputs_s", "s"),
        ("workloads.shuffle_model_s", "s"),
        ("core.assign_s", "s"),
        ("core.heuristic_s", "s"),
        ("core.eval_s", "s"),
        ("core.plans", "count"),
        ("schedulers.allocate_s", "s"),
        ("schedulers.allocate_calls", "count"),
        ("schedulers.hint_s", "s"),
    ]
    + [(f"schedulers.{name}.allocate_s", "s") for name in SCHEDULERS]
    + [
        ("simulator.run_s", "s"),
        ("simulator.self_s", "s"),
        ("simulator.epochs", "count"),
        ("simulator.reuse_frac", "ratio"),
        ("bounds.lp_s", "s"),
        ("bounds.lp_calls", "count"),
        ("recovery.step_s", "s"),
        ("recovery.port_failures", "count"),
        ("service.source_s", "s"),
        ("service.polls", "count"),
        ("service.decisions", "count"),
        ("service.deferrals", "count"),
        ("service.arrivals_s", "s"),
        ("obs.emit_s", "s"),
        ("obs.events", "count"),
        ("obs.readback_s", "s"),
        ("engine.cells_s", "s"),
        ("engine.overhead_s", "s"),
        ("engine.warm_s", "s"),
        ("engine.cache_hits", "count"),
        ("bench.trace_overhead_s", "s"),
    ]
)

_MISSING = object()

#: Hook methods of ``repro.obs.Instrumentation`` a sink receives.
SINK_HOOKS = (
    "run_start", "run_end", "coflow_submit", "coflow_admit",
    "coflow_first_byte", "coflow_complete", "coflow_abort", "epoch",
    "failure", "planner_phase", "stage_attempt", "platform_event",
    "admission", "close",
)


class LayerProbe:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [key, child_seconds]
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def wrap(self, key: str, fn, on_result=None):
        """``fn`` timed under ``key``; re-entrant calls (``super()``
        chains) count once, in the outermost span."""
        probe = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if key in probe._active:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            probe._stack.append(frame)
            probe._active.add(key)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                probe._stack.pop()
                probe._active.discard(key)
                if probe._stack:
                    probe._stack[-1][1] += elapsed
                probe.total[key] = probe.total.get(key, 0.0) + elapsed
                probe.self_time[key] = (
                    probe.self_time.get(key, 0.0) + elapsed - frame[1]
                )
                probe.calls[key] = probe.calls.get(key, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def add(self, key: str, seconds: float) -> None:
        """Record time measured by the workload itself."""
        self.total[key] = self.total.get(key, 0.0) + seconds

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- patching ------------------------------------------------------
    def patch(self, owner, name: str, key: str, on_result=None) -> None:
        """Replace ``owner.name`` by its timed wrapper until uninstall."""
        self._patches.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, self.wrap(key, getattr(owner, name), on_result))

    def patch_function(self, fn, key: str) -> None:
        """Time a module-level function at every ``repro`` module that
        imported it by name."""
        wrapped = self.wrap(key, fn)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def watch_sink(self, sink) -> None:
        """Time every hook of one attached instrumentation sink."""
        for hook in SINK_HOOKS:
            setattr(sink, hook, self.wrap("obs.emit", getattr(sink, hook)))

    def install(self) -> "LayerProbe":
        from repro.core import framework, model
        from repro.core.heuristic import ccf_heuristic
        from repro.network import bounds, recovery, simulator
        from repro.network.schedulers import SCHEDULER_NAMES, make_scheduler
        from repro.service import admission, arrivals
        from repro.workloads import analytic

        self.patch(framework.CCF, "assign", "core.assign")
        self.patch_function(ccf_heuristic, "core.heuristic")
        self.patch(model.ShuffleModel, "evaluate", "core.eval")
        self.patch(analytic.AnalyticJoinWorkload, "shuffle_model",
                   "workloads.shuffle_model")
        for name in SCHEDULER_NAMES:
            cls = type(make_scheduler(name))
            self.patch(cls, "allocate", f"schedulers.{name}.allocate")
            self.patch(cls, "next_event_hint", "schedulers.hint")
            self.patch(cls, "rates_valid_until", "schedulers.hint")

        def on_run(result) -> None:
            self.count("simulator.epochs", result.n_epochs)
            self.count("recovery.port_failures", result.n_port_failures)

        self.patch(simulator.CoflowSimulator, "run", "simulator.run", on_run)
        self.patch_function(bounds.weighted_cct_lower_bound, "bounds.lp")
        self.patch(recovery.RecoveryManager, "step", "recovery.step")
        self.patch(admission.AdmissionController, "take", "service.take")
        self.patch(admission.AdmissionController, "next_time", "service.next_time")
        self.patch(arrivals.ArrivalStream, "pop", "service.arrivals")
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- report --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Layer metrics of this pass (``cli.*``, ``workloads.inputs_s``
        and ``bench.*`` come from the runner)."""
        t, n, c = self.total.get, self.calls.get, self.counts.get
        alloc_s = sum(t(f"schedulers.{s}.allocate", 0.0) for s in SCHEDULERS)
        alloc_n = sum(n(f"schedulers.{s}.allocate", 0) for s in SCHEDULERS)
        epochs = c("simulator.epochs", 0)
        out = {
            "workloads.shuffle_model_s": t("workloads.shuffle_model", 0.0),
            "core.assign_s": t("core.assign", 0.0),
            "core.heuristic_s": t("core.heuristic", 0.0),
            "core.eval_s": t("core.eval", 0.0),
            "core.plans": n("core.assign", 0),
            "schedulers.allocate_s": alloc_s,
            "schedulers.allocate_calls": alloc_n,
            "schedulers.hint_s": t("schedulers.hint", 0.0),
            "simulator.run_s": t("simulator.run", 0.0),
            "simulator.self_s": self.self_time.get("simulator.run", 0.0),
            "simulator.epochs": epochs,
            "simulator.reuse_frac": 1.0 - alloc_n / epochs if epochs else 0.0,
            "bounds.lp_s": t("bounds.lp", 0.0),
            "bounds.lp_calls": n("bounds.lp", 0),
            "recovery.step_s": t("recovery.step", 0.0),
            "recovery.port_failures": c("recovery.port_failures", 0),
            "service.source_s": t("service.take", 0.0) + t("service.next_time", 0.0),
            "service.polls": n("service.take", 0),
            "service.decisions": c("service.decisions", 0),
            "service.deferrals": c("service.deferrals", 0),
            "service.arrivals_s": t("service.arrivals", 0.0),
            "obs.emit_s": t("obs.emit", 0.0),
            "obs.events": c("obs.events", 0),
            "obs.readback_s": t("obs.readback", 0.0),
            "engine.cells_s": t("engine.cells", 0.0),
            "engine.overhead_s": t("engine.sweep", 0.0) - t("engine.cells", 0.0),
            "engine.warm_s": t("engine.warm", 0.0),
            "engine.cache_hits": c("engine.cache_hits", 0),
        }
        for s in SCHEDULERS:
            out[f"schedulers.{s}.allocate_s"] = t(f"schedulers.{s}.allocate", 0.0)
        return out
