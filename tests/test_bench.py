"""The benchmark entry point runs end to end, traced."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
