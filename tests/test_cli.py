"""CLI contract tests: formats, determinism, exit codes, config handling."""
import json

import numpy as np
import pytest

from kundu_dnls.cli import FIGURE_MAP, json_text, main, parse_grid
from kundu_dnls.errors import InvalidConfigError


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
    assert meta["precision"] == "auto"
    assert "independent" in meta["convention_variant"]


def test_generate_pgm_header(tmp_path):
    out = tmp_path / "r1.pgm"
    rc = run(["generate", "--solution", "rogue1", "--grid", "-2:2:33,-2:2:17",
              "--format", "pgm", "--output", str(out), "--quiet"])
    assert rc == 0
    blob = out.read_bytes()
    assert blob.startswith(b"P5\n33 17\n255\n")
    assert len(blob) == len(b"P5\n33 17\n255\n") + 33 * 17


def test_unknown_parameter_rejected(tmp_path):
    rc = run(["generate", "--solution", "rogue1", "--grid", "-1:1:11,-1:1:11",
              "--param", "bogus=3", "--output", str(tmp_path / "x.csv"), "--quiet"])
    assert rc == 2


def test_missing_solution_rejected(tmp_path):
    rc = run(["generate", "--grid", "-1:1:11,-1:1:11",
              "--output", str(tmp_path / "x.csv"), "--quiet"])
    assert rc == 2


@pytest.mark.parametrize("params", [
    ["--solution", "engine-nfold", "--param", "seed=zero", "--param", "alpha=-1"],
    ["--solution", "engine-nfold", "--param", "lam1_im=0"],
    ["--solution", "positon", "--param", "alpha=-1"],
    ["--solution", "engine-degenerate", "--param", "n=abc"],
    ["--solution", "rogue2", "--param", "eps=abc"],
    ["--solution", "soliton1", "--param", "m1=nan"],
    ["--solution", "engine-nfold", "--param", "lam2_re=0.5"],
], ids=["negative-coupling-engine", "pair-on-axis", "negative-coupling-catalog",
        "unparsable-order", "unparsable-radius", "non-finite-value", "half-given-eigenvalue"])
def test_bad_parameter_values_exit_2(tmp_path, params):
    out = tmp_path / "x.csv"
    rc = run(["generate", *params, "--grid", "-1:1:11,-1:1:11",
              "--output", str(out), "--quiet"])
    assert rc == 2 and not out.exists()


@pytest.mark.parametrize("job", [
    {"solution": "rogue2", "params": {"eps": [1]}},
    {"solution": "engine-degenerate", "params": {"n": 2.5}},
], ids=["list-valued", "fractional-order"])
def test_config_parameter_of_wrong_type_exits_2(tmp_path, job):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    out = tmp_path / "x.csv"
    rc = run(["generate", "--config", str(cfg), "--grid", "-1:1:11,-1:1:11",
              "--output", str(out), "--quiet"])
    assert rc == 2 and not out.exists()


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


def test_env_var_precision(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("KDNLS_PRECISION", "double")
    rc = run(["generate", "--solution", "rogue3", "--grid", "-1:1:5,-1:1:5",
              "--format", "json", "--output", str(out), "--quiet"])
    assert rc == 0
    meta = json.loads((tmp_path / "r.json.meta.json").read_text())
    assert meta["precision"] == "double"


def test_analyze_reports_three_split_humps(tmp_path):
    out = tmp_path / "peaks.json"
    rc = run(["analyze", "--solution", "rogue2", "--param", "S1=500",
              "--param", "eps=0.002", "--grid", "-30:30:301,-30:30:301",
              "--cluster-radius", "4.0", "--output", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["structure_count"] == 3
    assert doc["classification"] == "triangular"


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
