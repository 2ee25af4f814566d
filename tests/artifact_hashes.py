"""Print one sha256 per artifact of a fixed set of `kdnls generate` jobs.

The jobs are every mapped figure (`cli.FIGURE_MAP`) as pgm, csv and json,
and Darboux-engine jobs on the zero background and on the plane wave
(a, c) = (-2, 1): `engine-nfold` at orders 1, 2 and 3, and
`engine-degenerate` at n = 2 and at n = 3 with eps = 1e-4, which runs in
extended precision, each as csv and as json with the complex parts, all
with a non-default coupling and gauge.  Every artifact is hashed together
with its `.meta.json` sidecar, one line each: `<sha256>  <file name>`.

Only `cli.main` is called, so the same script hashes any checkout's
package, and a diff of two runs shows which artifacts changed:

    PYTHONPATH=<checkout>/src python tests/artifact_hashes.py > hashes.txt

`--job NAME` (repeatable) runs only the named jobs, `--list` prints the
names.  All jobs take about 5 s on a 2-vCPU machine.  A job that exits
non-zero prints `exit <code>` in place of its hashes, and the script then
exits 1.

`--against FILE` checks the run against a saved output of this script:
after the hashes it prints `differs  <file name>` for each artifact whose
hash is not the saved one, and exits 1 if there is any.  So one command
checks a claim that a change keeps every artifact's bytes:

    PYTHONPATH=src python tests/artifact_hashes.py --against hashes.txt
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from kundu_dnls import cli

ENGINE_GRID = "-3:3:41,-3:3:41"
ENGINE_PARAMS = {"alpha": 0.7, "theta_p": 0.3, "theta_q": -0.4}
LAMBDAS = [(1.0, 2.0), (0.5, 0.5), (0.4, 0.9)]


def _params(**params) -> list[str]:
    return [arg for key, val in params.items() for arg in ("--param", f"{key}={val}")]


def jobs() -> dict[str, list[str]]:
    """Artifact file name -> its `kdnls generate` arguments, without --output."""
    out = {}
    for fig in cli.FIGURE_MAP:
        for fmt in ("pgm", "csv", "json"):
            out[f"{fig}.{fmt}"] = ["--figure", fig, "--format", fmt]
    for seed in ("zero", "planewave"):
        engine = {}
        for n in (1, 2, 3):
            lams = {f"lam{k}_{part}": v for k, lam in enumerate(LAMBDAS[:n], 1)
                    for part, v in zip(("re", "im"), lam)}
            engine[f"nfold-{seed}-n{n}"] = ["--solution", "engine-nfold", *_params(**lams)]
        # the zero background has no critical eigenvalue: a positon's instead
        base = _params(lc_re=0.8, lc_im=0.8) if seed == "zero" else []
        engine[f"degenerate-{seed}-n2"] = ["--solution", "engine-degenerate", *base,
                                           *_params(n=2)]
        engine[f"degenerate-{seed}-n3-extended"] = ["--solution", "engine-degenerate", *base,
                                                    *_params(n=3, eps=1e-4)]
        for name, args in engine.items():
            args += [*_params(seed=seed, **ENGINE_PARAMS), "--grid", ENGINE_GRID]
            out[f"{name}.csv"] = [*args, "--format", "csv"]
            out[f"{name}.json"] = [*args, "--format", "json", "--include-complex"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", action="append", default=None, metavar="NAME",
                    help="run only this job (repeatable)")
    ap.add_argument("--list", action="store_true", help="print the job names and exit")
    ap.add_argument("--against", metavar="FILE",
                    help="exit 1 naming each artifact whose hash differs from FILE's")
    ns = ap.parse_args(argv)
    table = jobs()
    if ns.list:
        print("\n".join(table))
        return 0
    unknown = sorted(set(ns.job or ()) - set(table))
    if unknown:
        ap.error(f"unknown job(s) {unknown}; see --list")
    saved = None
    if ns.against:
        saved = {}
        for line in Path(ns.against).read_text(encoding="utf-8").splitlines():
            digest, name = line.split("  ", 1)
            saved[name] = digest
    failed, differs = False, []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ns.job or table:
            output = Path(tmp) / name
            rc = cli.main(["generate", *table[name], "--output", str(output), "--quiet"])
            if rc:
                print(f"exit {rc}  {name}")
                failed = True
                continue
            for path in (output, Path(f"{output}.meta.json")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.name}")
                if saved is not None and saved.get(path.name) != digest:
                    differs.append(path.name)
    for name in differs:
        print(f"differs  {name}")
    return 1 if failed or differs else 0


if __name__ == "__main__":
    sys.exit(main())
