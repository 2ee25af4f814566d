"""Benchmark of the kundu_dnls package: one workload per run, in a fresh child process.

    python3 benchmarks/bench.py --workload figures --seed 1 --seconds 28 --trace 0

The parent process imports neither numpy nor the package.  It starts
SETUP_SAMPLES - 1 set-up-only children and then one measuring child, each
with the BLAS/OpenMP thread variables set to 1, so that set-up time and peak
memory belong to the workload alone.  The measuring child imports the package
from ``src/`` of the checkout, builds the inputs from the seed, warms up, and
runs passes over the workload's operations until the next pass would end
after ``--seconds`` (at least one pass), with a fixed probe workload before
each operation.  Times are scaled by the reference probe time over the run's
mean probe time.  Outputs are checked after the timed passes.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  A human-readable summary, with the machine record and the
fail ratio, goes to standard error.  See benchmarks/README.md.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("figures", "export", "coalescence", "residual")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "ref_wall_s": "s", "ref_nodes_per_s": "1/s", "ref_slowest_op_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("KDNLS_PRECISION", None)
    return env


def _spawn(args: argparse.Namespace, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1])


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_start": load, "platform": platform.platform()}


def _cpu_jiffies():
    """(steal, total) CPU time summed over all CPUs from /proc/stat, or None.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; a run with a large share measures a slower machine."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def parent_main(args: argparse.Namespace) -> int:
    if not (SRC / "kundu_dnls" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    machine = machine_record()
    jiffies_start = _cpu_jiffies()
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_spawn(args, True, deadline) for _ in range(extra)]
        res = _spawn(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    machine.update(res["versions"])
    jiffies_end = _cpu_jiffies()
    if jiffies_start and jiffies_end and jiffies_end[1] > jiffies_start[1]:
        machine["steal_share"] = ((jiffies_end[0] - jiffies_start[0])
                                  / (jiffies_end[1] - jiffies_start[1]))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        e2e = dict(res["end_to_end"])
        e2e["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted, failed = res["attempted"], res["failed"]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "passes": res["passes"],
        "pass_walls_s": res["pass_walls_s"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_raw_s": [s["setup_raw_s"] for s in setups],
        "raw": res["raw"],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": res["failures"][:10],
        "trace_notes": res.get("trace_notes", {}),
    }
    print(json.dumps(summary), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {args.workload:12s} {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, value in summary["trace_notes"].items():
        print(f"  {args.workload:12s} {name:40s} {value:.6g} (harness)", file=sys.stderr)
    # the ref_ metrics before they are scaled to the reference probe time
    raw = dict(res["raw"], setup_s=statistics.median(summary["setup_raw_s"]))
    for name, unit in (("wall_s", "s"), ("nodes_per_s", "1/s"), ("slowest_op_s", "s"),
                       ("setup_s", "s"), ("probe_mean_s", "s")):
        print(f"  {args.workload:12s} {name:40s} {raw[name]:.6g} {unit} (unscaled)",
              file=sys.stderr)
    print(f"  {args.workload:12s} {'fail_ratio':40s} {summary['fail_ratio']:.6g} ratio",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import kundu_dnls

    if Path(kundu_dnls.__file__).resolve().parent != (SRC / "kundu_dnls").resolve():
        print(f"error: imported {kundu_dnls.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    from harness import run_child

    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_child(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.setup_only, work_dir, _T0, OUT_DIR)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
