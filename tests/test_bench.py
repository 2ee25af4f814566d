"""The benchmark entry point runs end to end, traced."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kundu_dnls import acceptance
from kundu_dnls.numerics.grid import Grid2D

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"


@pytest.mark.parametrize("workload", ["coalescence", "residual", "figures", "export"])
def test_traced_benchmark_run_is_correct_and_complete(workload):
    # the tracer wraps the catalog constructors, the engine's entry points
    # and each datum's components after construction; an edit to any of
    # them that breaks that wrapping fails here: coalescence runs the
    # finite-radius double field (n = 1, 2) and the exact limit (n = 3),
    # residual the catalog, figures the double engine and export the CLI's
    # closed forms and its writers
    res = subprocess.run([sys.executable, str(BENCH), "--workload", workload,
                          "--seed", "1", "--seconds", "0.5", "--trace", "1"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0


def _bench_module(name):
    """A module of the benchmark, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_binding():
    # the tracer binds the package's names as attributes, three of them
    # kept only for it: `darboux.dd_batched_det`, `DDComplexArray.from_mp`
    # and each datum's `mp_components`, which its eigenfunction wrapper
    # reads.  Install must find each, and uninstall put every original back
    from kundu_dnls import catalog, cli, darboux, verify
    from kundu_dnls.numerics import grid as grid_mod
    from kundu_dnls.numerics.doubledouble import DDComplexArray
    tracing = _bench_module("tracing")
    owners = (darboux, catalog, cli, verify, grid_mod, DDComplexArray)
    before = [dict(vars(owner)) for owner in owners]
    inst = tracing.Instrumentation(tracing.Tracer())
    inst.install()
    try:
        assert vars(darboux)["dd_batched_det"] is not before[0]["dd_batched_det"]
        assert vars(DDComplexArray)["from_mp"] is not before[-1]["from_mp"]
        assert darboux.zero_seed_eigenfunction(1 + 2j).mp_components is None
    finally:
        inst.uninstall()
    for owner, saved in zip(owners, before):
        restored = vars(owner)
        assert restored.keys() == saved.keys(), owner
        assert all(restored[name] is value for name, value in saved.items()), owner


def test_benchmark_residual_windows_are_criterion_2s():
    # the gate and the benchmark's residual workload each state criterion 2's
    # windows; the benchmark's module is loaded by path and only read
    workloads = _bench_module("workloads")
    gate = acceptance._FIGURE_WINDOWS
    assert list(workloads.RESIDUAL_WINDOWS) == list(gate)
    x, t = np.array([-2.3, 0.0, 0.7, 3.1]), np.array([1.9, 0.0, -0.4, -2.6])
    for name, ((x0, x1, nx, t0, t1, nt), make) in workloads.RESIDUAL_WINDOWS.items():
        grid, gate_make = gate[name]
        assert Grid2D(x0, x1, t0, t1, nx, nt) == grid, name
        assert make().eval(x, t).tobytes() == gate_make().eval(x, t).tobytes(), name
