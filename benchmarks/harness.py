"""Measuring child: set-up, timed passes, output checks and metric reduction."""
from __future__ import annotations

import functools
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import mpmath
import numpy as np

from tracing import Instrumentation, Tracer, layer_metrics, reference_layers, wrapper_cost
from workloads import WORKLOADS

# A probe is fixed work of the kind that dominates a workload.  It never
# calls the package, so no change to the package moves it.  On a shared host
# the speed of one vCPU swings by up to 2x within seconds, as other tenants
# load the machine, and does so alike for a probe and for the code it
# resembles.  A run's times divided by its mean probe time and multiplied by
# the probe's PROBE_REF_S are the times on a host where the probe takes
# PROBE_REF_S, which is about the fastest the probe ran on a shared 2-vCPU
# Sapphire Rapids host.
@functools.cache
def _interpreter_inputs():
    rng = np.random.default_rng(0)
    return ([float(v) for v in rng.random(6000) * 3.0 - 1.0],
            [mpmath.mpc(float(a), float(b)) for a, b in rng.random((120, 2))],
            rng.random(40000) + 1j * rng.random(40000))


def _interpreter_probe() -> None:
    """Float formatting, mpmath and small numpy arrays: the writers and the
    extended path, which run Python bytecode."""
    floats, mpcs, small = _interpreter_inputs()
    ",".join(repr(v) for v in floats)
    with mpmath.workdps(40):
        acc = mpmath.mpc(0)
        for v in mpcs:
            acc += mpmath.exp(v * v) / (v + 1)
    for _ in range(8):
        w = np.exp(0.3 * small) * small
        (w / (1.0 + w)).sum()


@functools.cache
def _array_inputs():
    rng = np.random.default_rng(0)
    return (rng.random(1_000_000) + 1j * rng.random(1_000_000),
            rng.random((3000, 6, 6)) + 1j * rng.random((3000, 6, 6)))


def _array_probe() -> None:
    """Elementwise arithmetic on arrays far larger than the caches, and
    elimination on a stack of 6x6 matrices: the double engine, the catalog
    closed forms and the stencils."""
    large, stack = _array_inputs()
    for _ in range(2):
        w = large * large
        w += large
        np.abs(w).sum()
    for _ in range(2):
        a = stack.copy()
        for k in range(5):
            a[:, k + 1:, :] -= a[:, k + 1:, k:k + 1] / a[:, k:k + 1, k:k + 1] * a[:, k:k + 1, :]


PROBES = {"interpreter": _interpreter_probe, "array": _array_probe}
PROBE_REF_S = {"interpreter": 0.020, "array": 0.026}


def probe(kind: str) -> float:
    """Seconds the probe of this kind takes now."""
    t0 = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - t0


def _scale(kind: str, probe_times: list) -> float:
    """Factor from measured to reference seconds; 1 for a workload without a probe."""
    return PROBE_REF_S[kind] / statistics.fmean(probe_times) if kind else 1.0


def _versions() -> dict:
    return {"numpy": np.__version__, "mpmath": mpmath.__version__}


def _run_pass(wl, tracer: Tracer, outcomes: list, last_out: dict) -> tuple[dict, list]:
    """One pass over the workload's operations, with the probe run before each.

    Returns the wall time of each operation by name, and the probe times.
    Fingerprints are taken between operations, outside their timing."""
    op_times, probes = {}, []
    for op in wl.order():
        if wl.probe:
            probes.append(probe(wl.probe))
        tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            if tracer.active:
                out, _ = tracer.call(op.top_span, op.run, (), None,
                                     {"op": op.name, "nodes": op.nodes})
            else:
                out = op.run()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            op_times[op.name] = time.perf_counter() - t0
            outcomes.append((op.name, "error", traceback.format_exc(limit=3)))
            continue
        op_times[op.name] = time.perf_counter() - t0
        outcomes.append((op.name, "ok", wl.fingerprint(op, out)))
        last_out[op.name] = out
    return op_times, probes


def run_child(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool,
              work_dir: Path, t_start: float, out_dir: Path) -> dict:
    wl = WORKLOADS[workload](seed, work_dir)
    for op in wl.warm_ops:
        try:
            op.run()
        except Exception:  # noqa: BLE001 - the timed passes record the failure
            traceback.print_exc(limit=3)
    setup_raw_s = time.perf_counter() - t_start
    # the first probe only warms the probe's own code
    setup_probes = [probe(wl.probe) for _ in range(3)][1:] if wl.probe else []
    setup = {"setup_s": setup_raw_s * _scale(wl.probe, setup_probes),
             "setup_raw_s": setup_raw_s}
    if setup_only:
        return setup

    tracer = Tracer()
    instr = Instrumentation(tracer)
    outcomes: list = []
    last_out: dict = {}
    walls = {False: [], True: []}
    op_walls: dict = {}
    probes: list = []

    def run_pass(traced: bool) -> None:
        if traced:
            instr.install()
            tracer.active = True
        try:
            op_times, pass_probes = _run_pass(wl, tracer, outcomes, last_out)
        finally:
            tracer.active = False
            instr.uninstall()
        walls[traced].append(sum(op_times.values()))
        if not traced:
            probes.extend(pass_probes)
            for name, t in op_times.items():
                op_walls.setdefault(name, []).append(t)

    # an untraced run makes passes until the next one would end after
    # --seconds (at least one); a traced run brackets one traced pass between
    # two untraced ones
    t_begin = time.perf_counter()
    if trace:
        for traced in (False, True, False):
            run_pass(traced)
    else:
        while True:
            run_pass(False)
            elapsed = time.perf_counter() - t_begin
            if elapsed * (1 + 1 / len(walls[False])) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside the timed region: the last output of each op is checked
    # in full, and every pass must reproduce its fingerprint exactly
    failures = []
    reference = {}
    for op in wl.ops:
        if op.name not in last_out:
            continue
        try:
            msg = wl.check(op, last_out[op.name])
        except Exception:  # noqa: BLE001 - a check that raises is a failed check
            msg = traceback.format_exc(limit=3)
        reference[op.name] = (None if msg else wl.fingerprint(op, last_out[op.name]), msg)
    failed = 0
    for name, status, detail in outcomes:
        if status == "error":
            failed += 1
            failures.append(f"{name}: {detail}")
            continue
        want, msg = reference[name]
        if want is None:
            failed += 1
            failures.append(f"{name}: {msg}")
        elif detail != want:
            failed += 1
            failures.append(f"{name}: output differs between passes")

    untraced = walls[False]
    nodes = sum(op.nodes for op in wl.ops)
    result = {
        "attempted": len(outcomes), "failed": failed, "failures": failures,
        "passes": {"untraced": len(untraced), "traced": len(walls[True])},
        "pass_walls_s": {"untraced": untraced, "traced": walls[True]},
        "versions": _versions(), **setup,
    }
    # every untraced pass runs every operation once, so the mean pass time is
    # the sum of the operations' mean times
    scale = _scale(wl.probe, probes)
    wall_raw_s = statistics.fmean(untraced)
    slowest_raw_s = max(statistics.fmean(v) for v in op_walls.values())
    result["end_to_end"] = {
        "ref_wall_s": wall_raw_s * scale,
        "ref_nodes_per_s": nodes / (wall_raw_s * scale),
        "ref_slowest_op_s": slowest_raw_s * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    result["raw"] = {"wall_s": wall_raw_s, "nodes_per_s": nodes / wall_raw_s,
                     "slowest_op_s": slowest_raw_s,
                     "probe_mean_s": statistics.fmean(probes) if probes else 0.0}
    if trace:
        result["layers"], result["trace_notes"] = _layers(tracer, walls, workload, seed,
                                                          out_dir)
    return result


# layer_metrics values that describe the harness rather than the package;
# they go to the summary, not to the per-layer metrics
HARNESS_NOTES = ("trace.spans", "bench.self_s")


def _layers(tracer: Tracer, walls: dict, workload: str, seed: int, out_dir: Path):
    layers = layer_metrics(tracer.spans, tracer.fallback_nodes, len(walls[True]))
    notes = {name: layers.pop(name) for name in HARNESS_NOTES}
    wall = walls[True][0]
    untraced = sum(walls[False]) / len(walls[False])
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = untraced
    # the tracing's cost is its span count times the measured cost of one
    # wrapper; the wall-time difference is printed too, but pass-to-pass noise
    # on a shared host swamps it and flips its sign from run to run
    layers["trace.overhead_s"] = notes["trace.spans"] * wrapper_cost()
    notes["trace.wall_minus_untraced_s"] = wall - untraced
    notes["trace.unattributed_s"] = wall - top
    refs = reference_layers(tracer.spans)
    dump = {"workload": workload, "seed": seed, "reference_layers": refs,
            "layers": layers, "notes": notes,
            "fields": ["name", "start", "end", "parent", "op", "attrs"],
            "spans": tracer.spans}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{workload}.json").write_text(json.dumps(dump, default=str) + "\n",
                                                    encoding="utf-8")
    return {name: (value, _unit(name)) for name, value in layers.items()}, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_node"):
        return "1/node"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
