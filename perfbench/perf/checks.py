"""Output checks computed apart from the program.

Every function here takes the program's answers as plain values and
re-derives what it can with its own arithmetic (numpy, never the
program's helpers).  Each returns a list of ``(op, message)`` failures:
``op`` names the operation that failed, or is ``None`` when the failure
belongs to the whole group (a broken counter identity fails every
operation the counter covers).  An empty list means every check passed.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for re-derived floating-point quantities.
REL_TOL = 1e-9

#: Proven worst-case ratios of the guaranteed schedulers
#: (Shafiee-Ghaderi for wcct5, Qiu/Stein/Zhong for lpcct).
PROVEN_RATIOS = {"wcct5": 5.0, "lpcct": 67.0 / 3.0}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """``a`` and ``b`` agree to ``rel`` of the larger magnitude."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def plan_loads(h: np.ndarray, v0: np.ndarray, dest: np.ndarray):
    """Traffic and bottleneck bytes ``T`` of one assignment (DESIGN §1).

    ``V = v0 + sum_k h[:, k] e_dest[k]^T``; traffic is the off-diagonal
    volume and ``T = max(max_i send_i, max_j recv_j)`` over off-diagonal
    port loads.  Built with ``np.add.at`` column scatters, a different
    route from the program's sort + ``reduceat`` grouping.
    """
    vol = np.array(v0, dtype=float, copy=True)
    np.add.at(vol.T, dest, np.asarray(h, dtype=float).T)
    diag = np.diagonal(vol)
    send = vol.sum(axis=1) - diag
    recv = vol.sum(axis=0) - diag
    traffic = float(vol.sum() - diag.sum())
    return traffic, float(max(send.max(initial=0.0), recv.max(initial=0.0)))


def check_sweep_point(point: str, plans: dict) -> list:
    """Check one Hash/Mini/CCF sweep point.

    ``plans`` maps strategy -> dict with ``h``, ``v0``, ``dest``, ``rate``
    (the model the plan was made for) and the reported ``traffic`` and
    ``cct``.  Checks the recomputed traffic and CCT, ``dest`` in
    ``[0, n)``, ``T/R >= traffic/(n R)``, and the paper's Fig. 5-7
    orderings: Mini <= CCF <= Hash on traffic, CCF < Hash < Mini on CCT.
    """
    fails = []
    for name, p in plans.items():
        h, dest = np.asarray(p["h"]), np.asarray(p["dest"])
        n = h.shape[0]
        if dest.shape != (h.shape[1],) or not np.issubdtype(dest.dtype, np.integer):
            fails.append((point, f"{name}: dest has shape {dest.shape} dtype {dest.dtype}"))
            continue
        if dest.size and (dest.min() < 0 or dest.max() >= n):
            fails.append((point, f"{name}: dest outside [0, {n})"))
            continue
        traffic, t_bytes = plan_loads(h, p["v0"], dest)
        if not close(traffic, p["traffic"]):
            fails.append((point, f"{name}: traffic {p['traffic']!r} != recomputed {traffic!r}"))
        if not close(t_bytes / p["rate"], p["cct"]):
            fails.append((point, f"{name}: cct {p['cct']!r} != recomputed {t_bytes / p['rate']!r}"))
        if t_bytes < traffic / n * (1 - REL_TOL):
            fails.append((point, f"{name}: T={t_bytes!r} below traffic/n={traffic / n!r}"))
    tr = {s: plans[s]["traffic"] for s in plans}
    ct = {s: plans[s]["cct"] for s in plans}
    slack = 1 + REL_TOL
    if not (tr["mini"] <= tr["ccf"] * slack and tr["ccf"] <= tr["hash"] * slack):
        fails.append((point, f"traffic order Mini <= CCF <= Hash broken: {tr}"))
    if not (ct["ccf"] < ct["hash"] < ct["mini"]):
        fails.append((point, f"CCT order CCF < Hash < Mini broken: {ct}"))
    return fails


def check_tournament_rows(rows: list) -> list:
    """Check tournament grid rows ``[sched, family, weights, w_avg_cct,
    w_completion, lp_bound, gap]``: ``gap >= 1``, ``gap = w_completion /
    lp_bound``, and the proven ceilings of wcct5 and lpcct."""
    fails = []
    for row in rows:
        sched, family, weights = row[0], row[1], row[2]
        achieved, bound, gap = float(row[4]), float(row[5]), float(row[6])
        op = f"{sched}/{family}/{weights}"
        if not (bound > 0 and math.isfinite(bound)):
            fails.append((op, f"LP bound {bound!r} not positive and finite"))
            continue
        if not close(gap, achieved / bound):
            fails.append((op, f"gap {gap!r} != w_completion/lp_bound {achieved / bound!r}"))
        if gap < 1 - REL_TOL:
            fails.append((op, f"gap {gap!r} below 1"))
        ceiling = PROVEN_RATIOS.get(sched)
        if ceiling is not None and gap > ceiling * (1 + REL_TOL):
            fails.append((op, f"gap {gap!r} above the proven ratio {ceiling!r}"))
    return fails


def check_warm_pass(cold_rows: list, warm_rows: list, hits: int) -> list:
    """The warm sweep is all cache hits and reproduces the cold table."""
    fails = []
    if hits != len(cold_rows):
        fails.append((None, f"warm pass hit {hits} of {len(cold_rows)} cells"))
    for cold, warm in zip(cold_rows, warm_rows):
        if list(cold) != list(warm):
            fails.append((f"{cold[0]}/{cold[1]}/{cold[2]}", f"warm row {warm} != cold row {cold}"))
    if len(cold_rows) != len(warm_rows):
        fails.append((None, f"warm table has {len(warm_rows)} rows, cold {len(cold_rows)}"))
    return fails


def check_twin(name: str, ccts: dict, scaled_ccts: dict) -> list:
    """A unit-invariance twin passes only when every CCT is bit-identical."""
    if ccts.keys() != scaled_ccts.keys():
        return [(name, "the two runs completed different coflows")]
    moved = [cid for cid in ccts if ccts[cid] != scaled_ccts[cid]]
    if not moved:
        return []
    worst = max(
        abs(ccts[c] - scaled_ccts[c]) / abs(ccts[c]) if ccts[c] else math.inf
        for c in moved
    )
    return [(name, f"{len(moved)} of {len(ccts)} CCTs moved under x2^-27 rescaling (worst {worst:.2%})")]


def isolated_bottleneck(flows: list, n_ports: int, rate: float) -> float:
    """Max per-port bytes of one coflow over the port rate.

    ``flows`` is a list of ``(src, dst, bytes)``.  No schedule can finish
    the coflow sooner, even on an idle fabric.
    """
    if not flows:
        return 0.0
    src, dst, vol = (np.asarray(x) for x in zip(*flows))
    send = np.bincount(src.astype(np.int64), weights=vol.astype(float), minlength=n_ports)
    recv = np.bincount(dst.astype(np.int64), weights=vol.astype(float), minlength=n_ports)
    return float(max(send.max(), recv.max())) / rate


def check_service(counts: dict, ccts: dict, offered: dict, n_ports: int,
                  rate: float, *, overload: bool) -> list:
    """Check one service run.

    ``counts`` holds ``offered``, ``admitted``, ``shed``, ``deferrals``,
    ``completed`` and ``aborted``; ``ccts`` maps coflow id -> CCT;
    ``offered`` maps coflow id -> its flows ``[(src, dst, bytes)]`` as
    drawn from the arrival stream.  ``overload`` asks that the run really
    shed and deferred.
    """
    fails = []
    c = counts
    if c["offered"] != len(offered):
        fails.append((None, f"offered {c['offered']} but the stream holds {len(offered)}"))
    if c["offered"] != c["admitted"] + c["shed"]:
        fails.append((None, f"offered {c['offered']} != admitted {c['admitted']} + shed {c['shed']}"))
    if c["completed"] + c["aborted"] != c["admitted"]:
        fails.append((None, f"completed {c['completed']} + aborted {c['aborted']} != admitted {c['admitted']}"))
    if len(ccts) != c["completed"]:
        fails.append((None, f"{len(ccts)} CCTs for {c['completed']} completions"))
    if overload and not (c["shed"] > 0 and c["deferrals"] > 0):
        fails.append((None, f"overload neither shed and deferred (shed {c['shed']}, deferrals {c['deferrals']})"))
    for cid, cct in ccts.items():
        if cid not in offered:
            fails.append((cid, "completed a coflow that was never offered"))
            continue
        gamma = isolated_bottleneck(offered[cid], n_ports, rate)
        if not cct >= gamma * (1 - REL_TOL):
            fails.append((cid, f"CCT {cct!r} below its isolated bottleneck {gamma!r}"))
    return fails


def check_trace_replay(sim: dict, replay: dict) -> list:
    """The trace read back reproduces the run exactly.

    Both dicts hold ``ccts`` (id -> CCT), ``makespan`` and ``bytes_lost``:
    ``sim`` from the simulator's result, ``replay`` rebuilt from the JSONL
    trace.
    """
    fails = []
    for cid, cct in sim["ccts"].items():
        if cid not in replay["ccts"]:
            fails.append((cid, "completion missing from the trace"))
        elif replay["ccts"][cid] != cct:
            fails.append((cid, f"trace CCT {replay['ccts'][cid]!r} != run CCT {cct!r}"))
    for cid in replay["ccts"].keys() - sim["ccts"].keys():
        fails.append((cid, "trace completes a coflow the run did not"))
    for key in ("makespan", "bytes_lost"):
        if replay[key] != sim[key]:
            fails.append((None, f"trace {key} {replay[key]!r} != run {key} {sim[key]!r}"))
    return fails
