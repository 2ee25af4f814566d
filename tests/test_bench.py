"""The benchmark entry point runs end to end, traced, on the extended path."""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"


def test_traced_coalescence_benchmark_run_is_correct_and_complete():
    # the tracer wraps the engine's entry points and each datum's components
    # after construction; an engine edit that breaks that wrapping fails here
    res = subprocess.run([sys.executable, str(BENCH), "--workload", "coalescence",
                          "--seed", "1", "--seconds", "0.5", "--trace", "1"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0
