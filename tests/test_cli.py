"""CLI contract tests: formats, determinism, exit codes, config handling."""
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kundu_dnls import acceptance, catalog, cli
from kundu_dnls.cli import FIGURE_MAP, json_text, main, parse_grid
from kundu_dnls.darboux import EXACT_LIMIT_RADIUS, DegenerationSpec, degenerate_limit
from kundu_dnls.errors import InvalidConfigError
from kundu_dnls.lax import critical_eigenvalue, make_plane_wave_seed, zero_seed
from kundu_dnls.numerics import grid as grid_mod
from kundu_dnls.numerics import printing
from kundu_dnls.numerics.grid import Grid2D, sample
from kundu_dnls.verify import ConventionVariant, pde_residual

import artifact_hashes


def run(args):
    return main(args)


def test_parse_grid():
    g = parse_grid("-4:4:401,-2:2:101")
    assert (g.x_min, g.x_max, g.nx) == (-4.0, 4.0, 401)
    assert (g.t_min, g.t_max, g.nt) == (-2.0, 2.0, 101)
    with pytest.raises(InvalidConfigError):
        parse_grid("junk")


def test_generate_csv_contract(tmp_path):
    out = tmp_path / "r1.csv"
    rc = run(["generate", "--solution", "rogue1", "--grid", "-4:4:41,-4:4:41",
              "--format", "csv", "--output", str(out), "--quiet"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,t,intensity,re,im"
    assert len(lines) == 1 + 41 * 41
    # x varies fastest: first two data rows share t, advance x
    r1, r2 = lines[1].split(","), lines[2].split(",")
    assert r1[1] == r2[1] and r1[0] != r2[0]
    # centre row carries the peak intensity 9
    centre = [ln for ln in lines[1:] if ln.startswith("0,0,")]
    assert len(centre) == 1 and float(centre[0].split(",")[2]) == pytest.approx(9.0)
    assert (tmp_path / "r1.csv.meta.json").exists()


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = run(["generate", "--solution", "breather", "--grid", "-3:3:31,-2:2:21",
                  "--format", "csv", "--output", str(out), "--quiet"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_json_and_meta(tmp_path):
    out = tmp_path / "r1.json"
    rc = run(["generate", "--solution", "rogue1", "--grid", "-2:2:21,-2:2:21",
              "--format", "json", "--output", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"params", "grid", "data"}
    assert doc["grid"]["nx"] == 21
    assert np.asarray(doc["data"]).shape == (21, 21)
    meta = json.loads((tmp_path / "r1.json.meta.json").read_text())
    # the engine decides the precision: the sidecar records only the one used
    assert "precision" not in meta and meta["precision_used"] == "double"
    assert "independent" in meta["convention_variant"]
    assert meta["masked_nodes"] == 0


def test_generate_pgm_header(tmp_path):
    out = tmp_path / "r1.pgm"
    rc = run(["generate", "--solution", "rogue1", "--grid", "-2:2:33,-2:2:17",
              "--format", "pgm", "--output", str(out), "--quiet"])
    assert rc == 0
    blob = out.read_bytes()
    assert blob.startswith(b"P5\n33 17\n255\n")
    assert len(blob) == len(b"P5\n33 17\n255\n") + 33 * 17


def test_pgm_job_computes_the_intensity_once(tmp_path, monkeypatch):
    # the image draws the same |Q|^2 array that the sidecar's counts count
    calls = []

    def counted(v):
        calls.append(v.shape)
        return grid_mod.intensity(v)

    monkeypatch.setattr(cli, "intensity", counted)
    out = tmp_path / "r1.pgm"
    assert run(["generate", "--solution", "rogue1", "--grid", "-2:2:33,-2:2:17",
                "--format", "pgm", "--output", str(out), "--quiet"]) == 0
    assert calls == [(33, 17)]
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["masked_nodes"] == meta["overflow_nodes"] == 0


def test_unknown_parameter_rejected(tmp_path):
    rc = run(["generate", "--solution", "rogue1", "--grid", "-1:1:11,-1:1:11",
              "--param", "bogus=3", "--output", str(tmp_path / "x.csv"), "--quiet"])
    assert rc == 2


def test_missing_solution_rejected(tmp_path):
    rc = run(["generate", "--grid", "-1:1:11,-1:1:11",
              "--output", str(tmp_path / "x.csv"), "--quiet"])
    assert rc == 2


_GEN = ["generate", "--grid", "-1:1:11,-1:1:11"]


@pytest.mark.parametrize("argv", [
    [*_GEN, "--solution", "engine-nfold", "--param", "alpha=-1"],
    [*_GEN, "--solution", "engine-nfold", "--param", "lam1_im=0"],
    [*_GEN, "--solution", "positon", "--param", "alpha=-1"],
    [*_GEN, "--solution", "engine-degenerate", "--param", "n=abc"],
    [*_GEN, "--solution", "rogue2", "--param", "eps=abc"],
    [*_GEN, "--solution", "soliton1", "--param", "m1=nan"],
    [*_GEN, "--solution", "engine-nfold", "--param", "lam2_re=0.5"],
    ["analyze", "--solution", "rogue1", "--grid=-1:1:5,-1:1:5"],
    ["generate", "--solution", "rogue1", "--grid=-inf:inf:5,-1:1:5"],
    ["generate", "--solution", "rogue1", "--grid=-1:1e400:5,-1:1:5"],
    # an unsplit rogue2 is the catalog's closed form, into which no eps enters
    [*_GEN, "--solution", "rogue2", "--param", "eps=1e-5"],
    ["generate", "--solution", "rogue1", "--grid=-1:1:1,-1:1:5"],
    # the zero background (c = 0) has no wavenumber, no split phase and no
    # critical eigenvalue
    [*_GEN, "--solution", "engine-nfold", "--param", "a=5"],
    [*_GEN, "--solution", "engine-degenerate", "--param", "a=0", "--param", "c=0",
     "--param", "lc_re=0.8", "--param", "lc_im=0.8", "--param", "n=2", "--param", "S1=500"],
    [*_GEN, "--solution", "engine-degenerate", "--param", "a=0", "--param", "c=0"],
    [*_GEN, "--solution", "engine-degenerate", "--param", "lc_im=0.8"],
    # (a, c) = (-1.3, 0.8) has a real critical root, which has no conjugate partner
    [*_GEN, "--solution", "engine-degenerate", "--param", "a=-1.3", "--param", "c=0.8"],
], ids=["negative-coupling-engine", "pair-on-axis", "negative-coupling-catalog",
        "unparsable-order", "unparsable-radius", "non-finite-value", "half-given-eigenvalue",
        "analyze-grid-too-coarse", "infinite-grid-extent", "overflowing-grid-extent",
        "eps-on-unsplit-rogue2", "single-sample-axis", "wavenumber-on-zero-background",
        "split-phase-on-zero-background", "zero-background-without-eigenvalue",
        "half-given-critical-eigenvalue", "real-critical-eigenvalue"])
def test_bad_parameter_values_exit_2(tmp_path, argv):
    out = tmp_path / "x.csv"
    rc = run([*argv, "--output", str(out), "--quiet"])
    assert rc == 2 and not out.exists()


@pytest.mark.parametrize("raw, message", [
    ({"c": "0"}, "the zero background (c = 0) has no critical eigenvalue: give one "
                 "(lc_re and lc_im)"),
    ({"a": "-1.3", "c": "0.8", "alpha": "1", "theta_p": "1"},
     "is real for a=-1.3, c=0.8, alpha=1.0, theta_p=1.0"),
    ({"lc_re": "0.8"}, "lc needs both lc_re and lc_im"),
], ids=["zero-background", "real-root", "half-given"])
def test_engine_degenerate_without_a_critical_eigenvalue_names_why(raw, message):
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        cli.resolve_params("engine-degenerate", {"a": "0", **raw})


def test_zero_amplitude_plane_wave_is_the_zero_background(tmp_path):
    # c = 0, engine-nfold's default, is the zero background; the wavenumber a
    # does not enter there, so a nonzero one exits 2 naming it
    argv = ["generate", "--solution", "engine-nfold", "--param", "lam2_re=0.5",
            "--param", "lam2_im=0.5", "--grid=-3:3:21,-2:2:17", "--quiet"]
    zero, plane, bad = tmp_path / "zero.csv", tmp_path / "plane.csv", tmp_path / "bad.csv"
    assert run([*argv, "--output", str(zero)]) == 0
    assert run([*argv, "--param", "a=0", "--param", "c=0", "--output", str(plane)]) == 0
    assert plane.read_bytes() == zero.read_bytes()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run([*argv, "--param", "a=-2", "--output", str(bad)])
    assert rc == 2 and not bad.exists()
    assert "a must be 0 on the zero background (c = 0)" in err.getvalue()


def test_large_split_phase_keeps_the_field_finite(tmp_path):
    # S1 = 1e6 splits the branch weights to about e^(+-360): unscaled, their
    # products in the determinants overflowed and every node was masked
    out = tmp_path / "r3.json"
    rc = run(["generate", "--solution", "rogue3", "--param", "S1=1e6",
              "--grid=-40:40:41,-40:40:41", "--format", "json", "--output", str(out), "--quiet"])
    assert rc == 0
    assert json.loads((tmp_path / "r3.json.meta.json").read_text())["masked_nodes"] == 0
    data = np.array(json.loads(out.read_text())["data"], dtype=float)
    assert np.max(np.abs(data - 1.0)) <= 1e-12    # the humps sit far outside the window


def test_split_phase_beyond_double_exp_keeps_the_field_finite(tmp_path):
    # S1 = 1e7 puts the split weights' exponents past exp's range: formed
    # whole, they overflowed, and the job exited 2
    out = tmp_path / "r3.csv"
    assert run(["generate", "--solution", "rogue3", "--param", "S1=1e7",
                "--grid=-40:40:41,-40:40:41", "--output", str(out), "--quiet"]) == 0
    assert json.loads((tmp_path / "r3.csv.meta.json").read_text())["masked_nodes"] == 0


def test_artifact_hashes_against_names_each_changed_artifact(tmp_path, capsys):
    jobs = ["--job", "nfold-zero-n1.csv", "--job", "nfold-zero-n1.json"]
    assert artifact_hashes.main(jobs) == 0
    lines = capsys.readouterr().out.splitlines()
    saved = tmp_path / "hashes.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert artifact_hashes.main([*jobs, "--against", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    lines[2] = "0" * 64 + "  nfold-zero-n1.json"     # was the json artifact's hash
    saved.write_text("\n".join(lines) + "\n")
    assert artifact_hashes.main([*jobs, "--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines()[4:] == ["differs  nfold-zero-n1.json"]


def test_artifact_hashes_print_each_residual_report(tmp_path, capsys):
    # one line per criterion-2 window and refinement count, the repr of the
    # report's norms and order, checked by --against like a hash
    assert sorted(artifact_hashes.residual_jobs()) == sorted(
        f"residual-{name}-r{r}" for name in acceptance._FIGURE_WINDOWS for r in (1, 2, 3))
    job = ["--job", "residual-one_soliton-r2"]
    assert artifact_hashes.main(job) == 0
    lines = capsys.readouterr().out.splitlines()
    grid, make = acceptance._FIGURE_WINDOWS["one_soliton"]
    rep = pde_residual(make().eval, zero_seed(), ConventionVariant(1, "independent"), grid,
                       refinements=2)
    assert lines == [f"{(rep.norms, rep.estimated_order)!r}  residual-one_soliton-r2"]
    saved = tmp_path / "hashes.txt"
    saved.write_text(lines[0] + "\n")
    assert artifact_hashes.main([*job, "--against", str(saved)]) == 0
    capsys.readouterr()
    saved.write_text(lines[0].replace(repr(rep.estimated_order), "2.0") + "\n")
    assert artifact_hashes.main([*job, "--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [*lines, "differs  residual-one_soliton-r2"]


def test_artifact_hashes_hash_what_generate_writes(tmp_path, capsys):
    table = artifact_hashes.jobs()
    assert {f"{fig}.{fmt}" for fig in FIGURE_MAP for fmt in ("pgm", "csv", "json")} <= set(table)
    # each engine job names its seed by its numbers, and the plane wave's
    # rogue waves run at the seed's own critical eigenvalue
    for name, args in table.items():
        if name.startswith(("nfold-", "degenerate-")):
            wave = ["a=0", "c=0"] if "-zero-" in name else ["a=-2", "c=1"]
            assert all(p in args for p in wave) and not any(p.startswith("seed=") for p in args)
            assert ("lc_re=0.8" in args) == name.startswith("degenerate-zero")
    assert artifact_hashes.main(["--job", "nfold-zero-n1.csv"]) == 0
    lines = [ln.split("  ") for ln in capsys.readouterr().out.splitlines()]
    out = tmp_path / "nfold-zero-n1.csv"
    assert run(["generate", *table[out.name], "--output", str(out), "--quiet"]) == 0
    assert lines == [[hashlib.sha256(p.read_bytes()).hexdigest(), p.name]
                     for p in (out, tmp_path / "nfold-zero-n1.csv.meta.json")]


@pytest.mark.parametrize("job", [
    {"solution": "rogue2", "params": {"eps": [1]}},
    {"solution": "engine-degenerate", "params": {"n": 2.5}},
    {"solution": "rogue1", "params": "abc"},
    {"solution": "rogue1", "params": 5},
    {"solution": "soliton1", "params": [["m1", 1]]},
    {"solution": "rogue1", "grid": 5},
    {"solution": ["rogue1"]},
    {"figure": ["fig1"]},
    {"solution": "soliton1", "figure": ""},
    {"solution": "soliton1", "params": {"m1": True}},
    {"solution": "engine-degenerate", "params": {"n": 10 ** 400}},   # no float holds it
    {"solution": "soliton1", "param": {"m1": 5}},                   # misspelt field
], ids=["list-valued", "fractional-order", "params-string", "params-number", "params-list",
        "grid-number", "solution-list", "figure-list", "figure-empty",
        "boolean-value", "integer-overflows-float", "unknown-field"])
def test_config_parameter_of_wrong_type_exits_2(tmp_path, job):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    out = tmp_path / "x.csv"
    rc = run(["generate", "--config", str(cfg), "--grid", "-1:1:11,-1:1:11",
              "--output", str(out), "--quiet"])
    assert rc == 2 and not out.exists()


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("command", ["generate", "analyze"])
def test_precision_option_is_gone(tmp_path, command, precision):
    # the engine's radius rule alone decides the precision: the old option
    # is a usage error, and nothing is written
    out = tmp_path / "x.csv"
    rc = run([command, "--precision", precision, "--solution", "rogue3",
              "--grid", "-1:1:3,-1:1:3", "--output", str(out), "--quiet"])
    assert rc == 2 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("precision", ["auto", "double", "extended"])
def test_build_field_takes_no_precision_but_auto(precision):
    # its third parameter stays for callers that pass "auto"
    params = cli.resolve_params("rogue3", {})
    if precision == "auto":
        assert cli.build_field("rogue3", params, precision).precision == "double"
    else:
        with pytest.raises(ValueError, match="chosen by the engine"):
            cli.build_field("rogue3", params, precision)


@pytest.mark.parametrize("command", ["generate", "analyze"])
def test_config_precision_field_is_unknown(tmp_path, capsys, command):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"solution": "rogue3", "precision": "double"}))
    out = tmp_path / "x.csv"
    rc = run([command, "--config", str(cfg), "--grid", "-1:1:3,-1:1:3",
              "--output", str(out), "--quiet"])
    assert rc == 2 and not out.exists()
    assert "unknown config field(s) ['precision']" in capsys.readouterr().err


@pytest.mark.parametrize("solution", ["rogue2", "rogue3"])
def test_rogue_presets_sit_at_the_critical_eigenvalue(solution, monkeypatch):
    # the split rogue2 and rogue3 take engine-degenerate's defaults, the plane
    # wave (-2, 1) at its critical eigenvalue, which is 1 + i exactly
    p = cli.SOLUTIONS["engine-degenerate"]
    assert (p["a"], p["c"], p["alpha"], p["theta_p"], p["theta_q"]) == (-2, 1, 1, 1, 1)
    specs = []
    monkeypatch.setattr(cli, "degenerate_limit", lambda spec, seed, **kw: specs.append(spec))
    cli.build_field(solution, cli.resolve_params(solution, {"S1": "5"}))
    assert specs[0].lambda_c == 1 + 1j and specs[0].n == (2 if solution == "rogue2" else 3)


def test_engine_degenerate_off_the_default_frame_solves_the_equation():
    # alpha = 0.7 and theta = 0.3x + t, at the seed's own critical eigenvalue
    params = cli.resolve_params("engine-degenerate", {"alpha": "0.7", "theta_p": "0.3",
                                                      "n": "2"})
    seed = make_plane_wave_seed(-2.0, 1.0, 0.7, 0.3)
    rep = pde_residual(cli.build_field("engine-degenerate", params), seed,
                       ConventionVariant(), Grid2D(-1, 1, -0.3, 0.3, 121, 73), 2)
    assert 1.7 <= rep.estimated_order <= 2.3, rep.norms


def test_engine_degenerate_records_the_eigenvalue_it_ran(tmp_path):
    # without lc_re and lc_im the seed's critical eigenvalue runs, and the
    # json and its sidecar record it
    out = tmp_path / "x.json"
    assert run(["generate", "--solution", "engine-degenerate", "--param", "alpha=0.7",
                "--param", "theta_p=0.3", "--grid=-2:2:5,-2:2:5", "--format", "json",
                "--output", str(out), "--quiet"]) == 0
    lc = critical_eigenvalue(make_plane_wave_seed(-2.0, 1.0, 0.7, 0.3))
    assert lc != 1 + 1j
    for doc in (json.loads(out.read_text()), json.loads((tmp_path / "x.json.meta.json").read_text())):
        assert complex(doc["params"]["lc_re"], doc["params"]["lc_im"]) == lc
        assert (doc["params"]["a"], doc["params"]["c"], doc["params"]["alpha"]) == (-2, 1, 0.7)


@pytest.mark.parametrize("solution, raw, n", [
    ("rogue2", {"S1": "30", "eps": "3e-3"}, 2),
    ("rogue3", {"S0": "0.5", "S2": "100"}, 3),
    ("rogue3", {"eps": "1e-4"}, 3),
])
def test_split_rogue_waves_are_the_degenerate_limit_at_the_critical_eigenvalue(solution, raw, n):
    params = cli.resolve_params(solution, raw)
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    spec = DegenerationSpec(lambda_c=critical_eigenvalue(seed), epsilon=params["eps"], n=n,
                            S0=params["S0"], S1=params["S1"], S2=params["S2"])
    g = Grid2D(-3.1, 2.9, -2.3, 3.3, 23, 19)
    got, want = cli.build_field(solution, params), degenerate_limit(spec, seed)
    assert got.precision == want.precision
    assert sample(got, g).values.tobytes() == sample(want, g).values.tobytes()


def test_closed_form_keys_are_the_constructor_parameters():
    # build_field passes a closed form's parameters by name
    for solution, name in cli._CLOSED_FORMS.items():
        wanted = list(inspect.signature(getattr(catalog, name)).parameters)
        # rogue2's keys are those of its split form; its closed form takes none
        assert wanted == ([] if solution == "rogue2" else list(cli.SOLUTIONS[solution]))


@pytest.mark.parametrize("solution", sorted(cli._CLOSED_FORMS))
def test_closed_form_constructor_is_looked_up_when_built(monkeypatch, solution):
    # instrumentation replaces the constructors on the catalog module
    name = cli._CLOSED_FORMS[solution]
    seen = []

    def stand_in(**kwargs):
        seen.append(kwargs)
        return catalog.CatalogEntry(lambda x, t: 0 * x + 0 * t + 1j)
    monkeypatch.setattr(catalog, name, stand_in)
    field = cli.build_field(solution, cli.resolve_params(solution, {}))
    assert field(0.0, 0.0) == 1j and len(seen) == 1


def _at_radius(n):
    """engine-degenerate of order n at its exact-limit radius, which runs
    double, and at the next double below it, which is the exact limit."""
    radius = EXACT_LIMIT_RADIUS[n]
    for eps, used in ((radius, "double"), (math.nextafter(radius, 0), "exact")):
        yield pytest.param(["--solution", "engine-degenerate", "--param", f"n={n}",
                            "--param", f"eps={eps!r}"], used, id=f"n{n}-{used}")


@pytest.mark.parametrize("argv, used", [
    # a split rogue2 runs the engine, and eps 1e-5 is below order 2's
    # exact-limit radius: the exact limit
    (["--solution", "rogue2", "--param", "S1=1", "--param", "eps=1e-5"], "exact"),
    # an unsplit rogue2 is the closed form
    (["--solution", "rogue2"], "double"),
    (["--solution", "rogue3"], "double"),
    (["--solution", "soliton1"], "double"),
    *(row for n in (1, 2, 3) for row in _at_radius(n)),
])
def test_sidecar_records_the_precision_used(tmp_path, argv, used):
    out = tmp_path / "x.csv"
    assert run(["generate", *argv, "--grid", "-1:1:3,-1:1:3", "--output", str(out),
                "--quiet"]) == 0
    assert json.loads((tmp_path / "x.csv.meta.json").read_text())["precision_used"] == used


def test_no_automatic_path_enters_double_double(monkeypatch):
    # every field the CLI, the gate and the figures build, the engine at and
    # just below each order's radius, and split rogue waves at a tiny eps,
    # each sampled on a coarse version of its grid: the double-double names
    # kept for the benchmark tracer are on no path
    from kundu_dnls import darboux
    from kundu_dnls.numerics.doubledouble import DDComplexArray

    def refuse(*args, **kwargs):
        raise AssertionError("double-double entered")
    monkeypatch.setattr(darboux, "dd_batched_det", refuse)
    monkeypatch.setattr(DDComplexArray, "from_mp", classmethod(refuse))
    jobs = [*FIGURE_MAP.values(), *acceptance.PATTERN_CONFIGS.values()]
    for n, radius in EXACT_LIMIT_RADIUS.items():
        for eps in (radius, math.nextafter(radius, 0)):
            jobs.append(("engine-degenerate", {"n": n, "eps": eps}, "-2:2:5,-2:2:5"))
    for solution in ("rogue2", "rogue3"):
        jobs.append((solution, {"S1": 30.0, "eps": 1e-5}, "-2:2:5,-2:2:5"))
    for solution, params, grid_spec in jobs:
        g = parse_grid(grid_spec)
        coarse = Grid2D(g.x_min, g.x_max, g.t_min, g.t_max, 9, 7)
        fld = sample(cli.build_field(solution, cli.resolve_params(solution, dict(params))),
                     coarse)
        assert not fld.invalid.any(), (solution, params)
    assert acceptance.check_degeneration_convergence().passed


@pytest.mark.parametrize("params", [
    {"solution": "rogue3", "S1": 1e6}, {"solution": "rogue3", "S2": 1e12},
    {"solution": "engine-degenerate", "n": 3, "lc_re": math.nextafter(1.0, 2.0), "lc_im": 1.0},
    {"solution": "engine-degenerate", "n": 1, "a": -1e300, "lc_re": 1.0, "lc_im": 1.0},
], ids=["S1=1e6", "S2=1e12", "lc-one-ulp-off", "a=-1e300"])
def test_exact_limit_at_extreme_parameters_is_finite_or_counted(tmp_path, params):
    # below the radius: finite nodes (with the masked ones counted), or every
    # node masked and exit 2; never a warning (exit 1) or an all-NaN exit 0
    params = dict(params)
    argv = ["generate", "--solution", params.pop("solution"), "--param", "eps=1e-7",
            *(a for k, v in params.items() for a in ("--param", f"{k}={v!r}")),
            "--grid", "-1:1:9,-1:1:7", "--output", str(tmp_path / "x.csv"), "--quiet"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(argv)
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        assert "all 63 nodes of" in err.getvalue()
        return
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    nan_rows = (tmp_path / "x.csv").read_text().count('"nan"') // 2
    assert meta["precision_used"] == "exact" and meta["masked_nodes"] == nan_rows < 63


@pytest.mark.parametrize("solution", sorted(cli.SOLUTIONS))
def test_every_solution_and_format_is_deterministic(tmp_path, solution):
    for fmt in ("csv", "json", "pgm"):
        blobs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir / f"x.{fmt}"
            assert run(["generate", "--solution", solution, "--grid", "-2:2:7,-2:2:5",
                        "--format", fmt, "--output", str(out), "--quiet"]) == 0
            meta = tmp_path / run_dir / f"x.{fmt}.meta.json"
            counts = json.loads(meta.read_text())
            assert isinstance(counts["masked_nodes"], int)
            assert isinstance(counts["overflow_nodes"], int)
            blobs.append((out.read_bytes(), meta.read_bytes()))
        assert blobs[0] == blobs[1]


_WINDOW = st.tuples(st.floats(-40, 40), st.floats(1e-3, 80))
# a parameter value as text: finite, non-finite or not a number at all
_PARAM_VALUE = st.one_of(
    st.floats(-10, 10).map(repr), st.integers(-1, 4).map(str),
    st.sampled_from(["0", "1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "1e400",
                     "abc", "", "zero", "planewave"]))


def _generate_twice(argv, suffix):
    """Run `kdnls generate` twice into fresh directories; return the exit code
    and the artifact and sidecar bytes, after checking the two runs agree."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for run_dir in ("a", "b"):
            out = Path(tmp) / run_dir / f"x.{suffix}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = run(["generate", *argv, "--output", str(out), "--quiet"])
            # 1 is the documented "internal error (a bug)"
            assert rc in (0, 2, 3, 4), (rc, err.getvalue())
            meta = Path(str(out) + ".meta.json")
            runs.append((rc, out.read_bytes() if rc == 0 else None,
                         meta.read_bytes() if rc == 0 else None))
        assert runs[0] == runs[1]
    return runs[0]


@settings(max_examples=150, deadline=None)
@given(solution=st.sampled_from(sorted(cli.SOLUTIONS)),
       fmt=st.sampled_from(["csv", "json", "pgm"]),
       nx=st.integers(1, 9), nt=st.integers(1, 7), xw=_WINDOW, tw=_WINDOW, data=st.data())
def test_generate_fuzz_fails_loudly_and_reproducibly(solution, fmt, nx, nt, xw, tw, data):
    grid = f"{xw[0]!r}:{xw[0] + xw[1]!r}:{nx},{tw[0]!r}:{tw[0] + tw[1]!r}:{nt}"
    argv = ["--solution", solution, "--grid", grid, "--format", fmt]
    keys = sorted(cli.SOLUTIONS[solution])
    for key in data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)
                         if keys else st.just([])):
        argv += ["--param", f"{key}={data.draw(_PARAM_VALUE)}"]
    rc, artifact, meta = _generate_twice(argv, fmt)
    if rc != 0:
        return
    counts = json.loads(meta)
    flagged = counts["masked_nodes"] + counts["overflow_nodes"]
    if fmt == "pgm":
        # non-finite nodes are drawn black or white: the pixels are always finite
        assert artifact.startswith(f"P5\n{nx} {nt}\n255\n".encode())
    else:
        # the intensity of a flagged node is written as "nan" or "inf"
        assert (b'nan"' in artifact or b'inf"' in artifact) == (flagged > 0)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=5)


def _config_field(valid):
    """A config field's value: one of its valid values, or any JSON value."""
    return st.sampled_from(valid) | _JSON


@settings(max_examples=100, deadline=None)
@given(solution=_config_field(sorted(cli.SOLUTIONS)), figure=_config_field(["fig5", "fig3"]),
       grid=_config_field(["-1:1:5,-1:1:4", "-1:1:1,-1:1:4"]),
       params=_config_field([{}, {"m1": 0.5}, {"S1": 1.0, "eps": 1e-2}, {"n": 2}]),
       absent=st.sets(st.sampled_from(["solution", "figure", "grid", "params"])),
       unknown=st.dictionaries(st.sampled_from(["param", "Solution", "grids", ""]), _JSON,
                               max_size=1))
def test_config_fuzz_fails_loudly_and_reproducibly(solution, figure, grid, params, absent,
                                                   unknown):
    doc = {key: value for key, value in dict(solution=solution, figure=figure, grid=grid,
                                             params=params).items()
           if key not in absent}
    if isinstance(doc.get("figure"), str) and doc["figure"] in FIGURE_MAP:
        doc["grid"] = "-1:1:5,-1:1:4"     # a figure's own grid is figure-sized
    doc.update(unknown)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.json"
        cfg.write_text(json.dumps(doc))
        rc, _, _ = _generate_twice(["--config", str(cfg)], "csv")
    # a field the schema does not name is a typo, never silently ignored
    assert rc == 2 or not unknown


def test_every_option_in_the_readme_cli_section_is_accepted():
    # an option documented under README's "## CLI" is one some subcommand
    # (or kdnls itself) accepts, so a removed option cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    ap = cli.make_parser()
    parsers = [ap, *(p for action in ap._actions if action.choices and action.dest == "command"
                     for p in action.choices.values())]
    accepted = {opt for p in parsers for action in p._actions for opt in action.option_strings}
    assert {"--solution", "--grid", "--config", "--suite"} <= documented
    assert documented <= accepted, sorted(documented - accepted)


def test_python_dash_m_runs_the_command_line():
    # the package directory's parent, so the test also runs uninstalled
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    res = subprocess.run([sys.executable, "-m", "kundu_dnls", "--version"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0 and res.stdout.strip() == cli.__version__


def test_io_failure_exit_code(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    rc = run(["generate", "--solution", "rogue1", "--grid", "-1:1:11,-1:1:11",
              "--output", str(target / "x.csv"), "--quiet"])
    assert rc == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "solution": "soliton1",
        "grid": "-3:3:41,-1:1:21",
        "params": {"m1": 1.0, "n1": 2.0},
    }))
    out = tmp_path / "s1.json"
    rc = run(["generate", "--config", str(cfg), "--param", "n1=1.0",
              "--format", "json", "--output", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["n1"] == 1.0 and doc["params"]["m1"] == 1.0


def test_analyze_reports_three_split_humps(tmp_path):
    out = tmp_path / "peaks.json"
    rc = run(["analyze", "--solution", "rogue2", "--param", "S1=500",
              "--param", "eps=0.002", "--grid", "-30:30:301,-30:30:301",
              "--cluster-radius", "4.0", "--output", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["structure_count"] == 3
    assert doc["classification"] == "triangular"
    assert (doc["masked_nodes"], doc["overflow_nodes"]) == (0, 0)


@pytest.mark.parametrize("radius", ["nan", "-1", "inf", "-inf"])
def test_analyze_rejects_a_bad_cluster_radius(tmp_path, radius):
    # a NaN or negative radius clusters nothing: every peak would be its own
    # structure and the classification silently wrong
    out = tmp_path / "peaks.json"
    assert run(["analyze", "--solution", "rogue1", "--grid", "-2:2:17,-2:2:17",
                f"--cluster-radius={radius}", "--output", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert run(["analyze", "--solution", "rogue1", "--grid", "-2:2:17,-2:2:17",
                "--cluster-radius=0", "--output", str(out), "--quiet"]) == 0


def test_analyze_counts_overflowing_intensity(tmp_path, monkeypatch):
    def field(x, t):
        # |v| ~ 1.4e200 squares past the largest double on the 20 columns x > 0
        return np.where(x > 0, 1e200 + 1e200j, np.exp(1j * x) * np.cosh(t))
    monkeypatch.setattr(cli, "build_field", lambda *args: field)
    out = tmp_path / "peaks.json"
    rc = run(["analyze", "--solution", "rogue1", "--grid", "-5:5:41,-5:5:41",
              "--output", str(out), "--quiet"])   # an overflow warning fails the test
    assert rc == 0
    doc = json.loads(out.read_text())
    assert (doc["masked_nodes"], doc["overflow_nodes"]) == (0, 820)


def test_analyze_background_skips_masked_nodes(tmp_path, monkeypatch):
    rogue1 = cli.catalog.rogue1().eval

    def corner_nan(x, t):
        return np.where((x == -4.0) & (t == -4.0), np.nan, rogue1(x, t))

    def frame_nan(x, t):   # NaN on every frame node, the centre left intact
        return np.where((np.abs(x) > 3.0) | (np.abs(t) > 3.0), np.nan, rogue1(x, t))

    grid = "-4:4:201,-4:4:201"
    out = tmp_path / "peaks.json"
    monkeypatch.setattr(cli, "build_field", lambda *args: corner_nan)
    assert run(["analyze", "--solution", "rogue1", "--grid", grid, "--output", str(out),
                "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["masked_nodes"] == 1 and doc["peak_count"] == 1
    assert doc["classification"] == "fundamental" and doc["background"] == pytest.approx(1.0, abs=0.1)
    monkeypatch.setattr(cli, "build_field", lambda *args: frame_nan)
    assert run(["analyze", "--solution", "rogue1", "--grid", grid, "--quiet"]) == 2


def test_figure_map_complete_and_invocable(tmp_path):
    assert set(FIGURE_MAP) == {f"fig{i}" for i in range(1, 11)}
    # spot-check one light figure end to end
    out = tmp_path / "fig5.json"
    assert run(["generate", "--figure", "fig5", "--format", "json",
                "--output", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert np.max(doc["data"]) == pytest.approx(9.0, abs=0.05)


def test_verify_quick_suite_passes(capsys):
    rc = run(["verify", "--suite", "quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 4 and "[FAIL]" not in out


def test_json_text_fixed_formatting():
    s = json_text({"a": 1.0 / 3.0, "b": [1e-300, 2]})
    assert "e-300" in s and "E" not in s
    assert s == json_text({"b": [1e-300, 2], "a": 1.0 / 3.0})


def test_sidecar_counts_masked_nodes(tmp_path, monkeypatch):
    def field(x, t):
        out = np.exp(1j * x) * np.cosh(t)
        out = np.where(x == 1.0, np.nan, out)                    # the last x column: 5 nodes
        return np.where((x == -1.0) & (t == -1.0), np.inf, out)  # one more corner node
    monkeypatch.setattr(cli, "build_field", lambda *args: field)
    out = tmp_path / "masked.csv"
    rc = run(["generate", "--solution", "rogue1", "--grid", "-1:1:5,-1:1:5",
              "--output", str(out), "--quiet"])
    assert rc == 0
    meta = json.loads((tmp_path / "masked.csv.meta.json").read_text())
    assert meta["masked_nodes"] == 6
    assert out.read_text().count('"nan"') == 5 * 2   # intensity and re of each NaN node
    assert meta["overflow_nodes"] == 0


@pytest.mark.parametrize("precision, eps", [("double", 1e-2), ("exact", 1e-7)])
def test_eigenfunction_constants_beyond_double_mask_every_node(tmp_path, precision, eps):
    # a = -1e300 puts eigenfunction constants beyond double's range: every
    # node is masked on either path, and no RuntimeWarning (an error under
    # pyproject's filterwarnings, so exit 1) escapes the split or the Taylor
    # series.  A grid of masked nodes shows nothing: the job exits 2 naming
    # the count.  The order-1 radius rule picks the path from eps
    assert (eps < EXACT_LIMIT_RADIUS[1]) == (precision == "exact")
    out = tmp_path / "x.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(["generate", "--solution", "engine-degenerate", "--param", "a=-1e300",
                  "--param", "lc_re=1", "--param", "lc_im=1", "--param", "theta_q=0",
                  "--param", f"eps={eps!r}", "--grid", "0:30:6,38:56:7",
                  "--output", str(out), "--quiet"])
    assert rc == 2 and not out.exists() and not (tmp_path / "x.csv.meta.json").exists()
    assert "all 42 nodes of engine-degenerate are masked" in err.getvalue()


def test_sidecar_counts_overflow_at_the_square_safe_bound(tmp_path, monkeypatch):
    # a text job squares only the nodes with a part of magnitude 2^511 or
    # more; finite values just below and above that bound, and about the
    # square root of the largest double, count as the whole grid's |Q|^2 does
    B, s = 2.0 ** 511, math.sqrt(sys.float_info.max)
    below, above = np.nextafter(B, 0), np.nextafter(s, np.inf)
    table = np.array([complex(below, below), complex(-below, 0), complex(0, below),
                      complex(B, 0), complex(B, -B), complex(0, -B), complex(s, 0),
                      complex(-s, 0), complex(above, 0), complex(0, -above),
                      complex(2 * B, 0), complex(-1.5 * B, 1.5 * B), complex(0.75 * s, 0.75 * s),
                      np.nan, complex(np.inf, 0)] + [1 + 1j] * 10)

    def field(x, t):
        return table[(np.rint(2 * (x + 1)) * 5 + np.rint(2 * (t + 1))).astype(int)]
    monkeypatch.setattr(cli, "build_field", lambda *args: field)
    grid = "-1:1:5,-1:1:5"
    fld = sample(field, parse_grid(grid))
    want = int(np.count_nonzero(~fld.invalid & np.isinf(cli.intensity(fld.values))))
    assert want == 5 and cli._node_counts(fld) == cli._node_counts(fld, cli.intensity(fld.values))
    for fmt in ("csv", "json", "pgm"):
        out = tmp_path / f"edge.{fmt}"
        assert run(["generate", "--solution", "rogue1", "--grid", grid, "--format", fmt,
                    "--output", str(out), "--quiet"]) == 0
        meta = json.loads((tmp_path / f"edge.{fmt}.meta.json").read_text())
        assert (meta["masked_nodes"], meta["overflow_nodes"]) == (2, want)


def test_sidecar_counts_overflowing_intensity(tmp_path, monkeypatch):
    def field(x, t):
        # finite everywhere but at one node; |v| ~ 1.4e200 squares past the
        # largest double on the two columns x > 0
        out = np.where(x > 0, 1e200 + 1e200j, np.exp(1j * x) * np.cosh(t))
        return np.where((x == -1.0) & (t == 0.0), np.nan, out)
    monkeypatch.setattr(cli, "build_field", lambda *args: field)
    grid = "-1:1:5,-1:1:5"
    for fmt in ("csv", "json", "pgm"):
        out = tmp_path / f"big.{fmt}"
        rc = run(["generate", "--solution", "rogue1", "--grid", grid, "--format", fmt,
                  "--output", str(out), "--quiet"])   # an overflow warning fails the test
        assert rc == 0
        meta = json.loads((tmp_path / f"big.{fmt}.meta.json").read_text())
        assert (meta["masked_nodes"], meta["overflow_nodes"]) == (1, 10)
    csv = (tmp_path / "big.csv").read_text()
    assert csv.count('"inf"') == 10 and csv.count(format(1e200, ".17g")) == 20
    values = cli.sample(field, parse_grid(grid)).values
    with np.errstate(over="ignore"):
        ref_write_csv(tmp_path / "ref.csv", parse_grid(grid), values)
    assert (tmp_path / "big.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- reference: the scalar writers the block writers replace, kept as they were ---

def _ref_fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not np.isfinite(v):
            return '"%s"' % repr(float(v))
        return format(float(v), ".17g")
    raise TypeError(f"unexpected scalar {type(v)}")


def _ref_json_text(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{_ref_json_text(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_ref_json_text(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _ref_fmt(obj)


def ref_write_csv(path, grid, values):
    xs, ts = grid.xs, grid.ts
    lines = ["x,t,intensity,re,im"]
    for j, t in enumerate(ts):
        for i, x in enumerate(xs):
            v = values[i, j]
            lines.append(",".join(_ref_fmt(float(w)) for w in
                                  (x, t, abs(v) ** 2, v.real, v.imag)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def ref_write_json(path, grid, values, params, include_complex):
    doc = {
        "params": params,
        "grid": dict(x_min=grid.x_min, x_max=grid.x_max, t_min=grid.t_min,
                     t_max=grid.t_max, nx=grid.nx, nt=grid.nt),
        "data": [[float(abs(values[i, j]) ** 2) for j in range(grid.nt)]
                 for i in range(grid.nx)],
    }
    if include_complex:
        doc["re"] = [[float(values[i, j].real) for j in range(grid.nt)]
                     for i in range(grid.nx)]
        doc["im"] = [[float(values[i, j].imag) for j in range(grid.nt)]
                     for i in range(grid.nx)]
    path.write_text(_ref_json_text(doc) + "\n", encoding="utf-8", newline="\n")


_N = cli._WRITER_NODES
_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308,
            complex(1e308, 1e308), complex(1.5, np.nan), complex(np.inf, -2.0),
            complex(-0.0, np.inf), complex(3e-320, -0.0), complex(1e200, 1e200)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
# blocks of whole rows with fewer than _N nodes, a row alone when longer;
# csv rows are t-rows of nx nodes, json rows x-rows of nt nodes
@pytest.mark.parametrize("nx, nt", [
    (2, 2),              # one block each
    (70, 130),           # csv 58 + 58 + 14 t-rows, json 31 + 31 + 8 x-rows
    (_N + 3, 2),         # csv a t-row a block, json 2047 + 2047 + 2 x-rows
    (3, _N // 2 + 7),    # csv 1365 + 690 t-rows, json an x-row a block
])
def test_block_writers_match_scalar_reference(tmp_path, nx, nt):
    rng = np.random.default_rng(nx * 1000 + nt)
    bits = rng.integers(0, 2**64, size=(2, nx, nt), dtype=np.uint64).view(np.float64)
    with np.errstate(invalid="ignore"):    # 1j * inf; the product quiets signaling NaNs
        flat = bits[0].ravel() + 1j * bits[1].ravel()      # every exponent, NaN payloads
    flat[::3] = rng.normal(size=flat[::3].size) * (1 + 1j)  # and values of order one
    k = min(len(_SPECIAL), flat[1::7].size)
    flat[1::7][:k] = _SPECIAL[:k]
    values = flat.reshape(nx, nt)
    grid = Grid2D(-1 / 3, 7.1, -2.2, 3.3e-5, nx, nt)
    params = {"S1": 500.0, "eps": 1 / 3, "lc_re": 1.0, "n": 2, "lam2_re": None}
    cases = [("csv", cli.write_csv, ref_write_csv, (grid, values))]
    for include_complex in (False, True):
        args = (grid, values, params, include_complex)
        cases.append((f"json{include_complex}", cli.write_json, ref_write_json, args))
    for name, new, ref, args in cases:
        new(tmp_path / f"new.{name}", *args)
        ref(tmp_path / f"ref.{name}", *args)
        assert (tmp_path / f"new.{name}").read_bytes() == (tmp_path / f"ref.{name}").read_bytes()


def test_block_writers_hold_bounded_memory(tmp_path):
    grid = Grid2D(-4.0, 4.0, -4.0, 4.0, 401, 401)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(401, 401)) + 1j * rng.normal(size=(401, 401))
    for write in (lambda: cli.write_csv(tmp_path / "a.csv", grid, values),
                  lambda: cli.write_json(tmp_path / "a.json", grid, values, {}, True)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def _formatter_lines(a: np.ndarray) -> list[str]:
    """The array formatter's text of each element of `a`."""
    chars, keep = printing.formatted(a)
    chars[:, 45] = ord("\n")         # a writer's separator column
    keep[:, 45] = True
    return np.compress(keep.ravel(), chars.ravel()).tobytes().decode().split("\n")[:-1]


def _format_lines(a: np.ndarray) -> list[str]:
    return [format(x, ".17g") if math.isfinite(x) else _ref_fmt(x) for x in a.tolist()]


def _ulps(x: float, k: int) -> np.ndarray:
    """The 2k + 1 doubles from k below x (> 0) to k above it."""
    return (np.float64(x).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


def test_array_formatter_matches_format_byte_for_byte():
    rng = np.random.default_rng(25)
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    # fl(10^k) below 10^k by less than half a unit in the 17th digit rounds
    # up to 10^k: D reaches 10^17 and the exponent moves
    bumps = [k for k, x in zip(range(-323, 309), powers)
             if 1 - Fraction(1, 2 * 10 ** 17) <= Fraction(x) / Fraction(10) ** k < 1]
    assert len(bumps) >= 10
    parts = [
        rng.integers(0, 2**52, size=20_000, dtype=np.uint64).view(np.float64),  # subnormals
        np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, np.inf, np.nan]),
        np.concatenate([_ulps(x, 4) for x in powers]),
        np.array([float(f"{d}e{k}") for d in range(2, 10) for k in range(-323, 308)]),
        np.abs(rng.normal(size=300_000)) * 10.0 ** rng.integers(-8, 9, size=300_000),
    ]
    # %g's switches between the fixed and exponent forms
    for x in (1e-5, 1e-4, 1e16, 1e17):
        parts += [_ulps(x, 2000), x * rng.uniform(0.999, 1.001, size=10_000)]
    mags = np.concatenate(parts)
    want = _format_lines(mags)
    # format() writes "-" and then the text of |x|: one call serves both signs
    want += ["-" + text if math.isfinite(x) else _ref_fmt(-x)
             for text, x in zip(want, mags.tolist())]
    # random bit patterns: every exponent, both signs, NaN payloads
    bits = rng.integers(0, 2**64, size=300_000, dtype=np.uint64).view(np.float64)
    want += _format_lines(bits)
    a = np.concatenate([mags, -mags, bits])
    assert a.size >= 10**6
    for i in range(0, a.size, 2**14):
        got = _formatter_lines(a[i:i + 2**14])
        if got != want[i:i + 2**14]:
            k = next(k for k, (g, w) in enumerate(zip(got, want[i:])) if g != w)
            pytest.fail(f"{a[i + k]!r}: got {got[k]!r}, format() gives {want[i + k]!r}")


def test_array_formatter_settles_ties_with_format(monkeypatch):
    # 43 * 2^-22 is 1.02519989013671875e-05 exactly: 18 digits ending in 5,
    # which %.17g rounds half to even
    calls = []
    float_text = printing.float_text

    def fmt(v):
        calls.append(v)
        return float_text(v)
    monkeypatch.setattr(printing, "float_text", fmt)
    a = np.array([43 * 2.0 ** -22, -(45 * 2.0 ** -22), 2.0 ** -25, 0.1])
    assert _formatter_lines(a) == [format(x, ".17g") for x in a]
    assert calls == list(a[:3])


_MULTI_BLOCK = "-2:2:150,-2:2:241"     # three blocks of rows
# the solutions and figures the Darboux engine evaluates; its fields are
# thread-safe, while a closed-form field is sampled on the calling thread
_ENGINE = {"rogue3", "engine-nfold", "engine-degenerate", "fig7", "fig8", "fig9", "fig10"}


def _artifacts(monkeypatch, root, workers):
    """Every solution on a multi-block grid as csv and json, and every mapped
    figure as pgm, sampled on up to `workers` threads: {name: (bytes, sidecar)}."""
    monkeypatch.setattr(grid_mod, "_workers", lambda: workers)
    jobs = [(["--solution", solution, "--grid", _MULTI_BLOCK, "--format", fmt, *extra],
             f"{solution}.{fmt}")
            for solution in sorted(cli.SOLUTIONS)
            for fmt, extra in (("csv", []), ("json", ["--include-complex"]))]
    jobs += [(["--figure", figure, "--format", "pgm"], f"{figure}.pgm") for figure in FIGURE_MAP]
    out = {}
    for argv, name in jobs:
        path = root / name
        assert run(["generate", *argv, "--output", str(path), "--quiet"]) == 0
        out[name] = (path.read_bytes(), json.loads(Path(str(path) + ".meta.json").read_text()))
    return out


def test_artifacts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    one = _artifacts(monkeypatch, tmp_path / "one", 1)
    two = _artifacts(monkeypatch, tmp_path / "two", 2)
    assert one.keys() == two.keys()
    for name, (data, meta) in one.items():
        data2, meta2 = two[name]
        assert data == data2, name
        want = 2 if name.split(".")[0] in _ENGINE else 1
        assert (meta.pop("workers"), meta2.pop("workers")) == (1, want), name
        assert meta == meta2, name


@pytest.mark.parametrize("workers", [1, 2])
def test_overflowing_parameter_on_a_multi_block_grid_exits_2(tmp_path, monkeypatch, workers):
    # complex exponentiation overflows scalar arithmetic in every block; the
    # exit code does not depend on the thread count sample may use
    monkeypatch.setattr(grid_mod, "_workers", lambda: workers)
    out = tmp_path / "x.csv"
    assert run(["generate", "--solution", "soliton1", "--param", "m1=1e300",
                "--grid", _MULTI_BLOCK, "--output", str(out), "--quiet"]) == 2
    assert not out.exists()
