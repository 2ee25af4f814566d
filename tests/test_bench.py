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
    # extended path, residual the catalog, figures the double engine and
    # export the CLI's closed forms and its writers
    res = subprocess.run([sys.executable, str(BENCH), "--workload", workload,
                          "--seed", "1", "--seconds", "0.5", "--trace", "1"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0


def test_benchmark_residual_windows_are_criterion_2s():
    # the gate and the benchmark's residual workload each state criterion 2's
    # windows; the benchmark's module is loaded by path and only read
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gate = acceptance._FIGURE_WINDOWS
    assert list(workloads.RESIDUAL_WINDOWS) == list(gate)
    x, t = np.array([-2.3, 0.0, 0.7, 3.1]), np.array([1.9, 0.0, -0.4, -2.6])
    for name, ((x0, x1, nx, t0, t1, nt), make) in workloads.RESIDUAL_WINDOWS.items():
        grid, gate_make = gate[name]
        assert Grid2D(x0, x1, t0, t1, nx, nt) == grid, name
        assert make().eval(x, t).tobytes() == gate_make().eval(x, t).tobytes(), name
