"""Command-line surface: generate solution grids, verify, analyze patterns.

Exit codes: 0 success, 1 internal error (a bug), 2 invalid configuration,
3 I/O failure, 4 verification failure.  Artifacts are byte-deterministic:
floats are written with 17 significant digits, lowercase exponent, LF line
endings.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, catalog
from .darboux import DegenerationSpec, build_reduced_set, degenerate_limit, n_fold
from .errors import (AllNodesExcludedError, InvalidConfigError, IOFailureError,
                     ResolutionTooCoarseError)
from .lax import Seed, critical_eigenvalue
from .numerics.grid import ComplexField2D, Grid2D, _row_blocks, intensity, sample
from .numerics.printing import WIDTH, float_text, format_floats, formatted
from .verify import peak_analysis

SOLUTIONS = {
    "soliton1": dict(m1=1.0, n1=2.0, alpha=1.0, theta_p=1.0, theta_q=1.0),
    "soliton2": dict(m1=0.7, n1=0.3, m2=0.5, n2=0.5, alpha=1.0, theta_p=1.0, theta_q=1.0),
    "positon": dict(re1=0.8, im1=0.8, alpha=1.0, theta_p=1.0, theta_q=1.0),
    "breather": dict(),
    "rogue1": dict(),
    "rogue2": dict(S0=0.0, S1=0.0, S2=0.0, eps=2e-3),
    "rogue3": dict(S0=0.0, S1=0.0, S2=0.0, eps=2e-3),
    "engine-nfold": dict(a=0.0, c=0.0, alpha=1.0, theta_p=1.0, theta_q=1.0,
                         lam1_re=1.0, lam1_im=2.0, lam2_re=None, lam2_im=None,
                         lam3_re=None, lam3_im=None),
    # without lc_re and lc_im, the seed's critical eigenvalue (resolve_params)
    "engine-degenerate": dict(a=-2.0, c=1.0, alpha=1.0, theta_p=1.0, theta_q=1.0,
                              lc_re=None, lc_im=None, n=1, eps=1e-2, S0=0.0, S1=0.0, S2=0.0),
}

# the catalog constructor of each closed form, which takes the solution's
# SOLUTIONS keys as its parameters; rogue2 is the closed form without a
# split phase (see _closed_form), and its constructor takes none
_CLOSED_FORMS = {"soliton1": "one_soliton", "soliton2": "two_soliton", "positon": "positon",
                 "breather": "breather", "rogue1": "rogue1", "rogue2": "rogue2"}

# one documented invocation per mapped figure (see README for the table)
FIGURE_MAP = {
    "fig1": ("soliton1", {}, "-3:3:201,-1:1:201"),
    "fig2": ("soliton2", {}, "-10:10:201,-10:10:201"),
    "fig3": ("positon", {}, "-10:10:201,-10:10:201"),
    "fig4": ("breather", {}, "-5:5:201,-3:3:201"),
    "fig5": ("rogue1", {}, "-4:4:201,-4:4:201"),
    "fig6": ("rogue2", {}, "-4:4:201,-4:4:201"),
    "fig7": ("rogue2", {"S1": 500.0}, "-30:30:401,-30:30:401"),
    "fig8": ("rogue3", {}, "-6:6:201,-6:6:201"),
    "fig9": ("rogue3", {"S1": 500.0, "eps": 4e-3}, "-40:40:401,-40:40:401"),
    "fig10": ("rogue3", {"S2": 1000.0, "eps": 4e-3}, "-25:25:401,-25:25:401"),
}


def parse_grid(spec: str) -> Grid2D:
    """Parse 'xmin:xmax:nx,tmin:tmax:nt'."""
    try:
        xpart, tpart = spec.split(",")
        x0, x1, nx = xpart.split(":")
        t0, t1, nt = tpart.split(":")
        return Grid2D(float(x0), float(x1), float(t0), float(t1), int(nx), int(nt))
    except (ValueError, TypeError) as exc:
        raise InvalidConfigError(f"bad grid spec {spec!r}: {exc}") from None


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InvalidConfigError(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key] = val
    return out


def resolve_params(solution: str, raw: dict) -> dict:
    if solution not in SOLUTIONS:
        raise InvalidConfigError(f"unknown solution {solution!r}; "
                                 f"choose from {sorted(SOLUTIONS)}")
    schema = SOLUTIONS[solution]
    unknown = set(raw) - set(schema)
    if unknown:
        raise InvalidConfigError(f"unknown parameter(s) {sorted(unknown)} for {solution}; "
                                 f"valid keys: {sorted(schema)}")
    params = dict(schema)
    for key, val in raw.items():
        params[key] = _number(key, val, integer=key == "n")
    # build_field sees only the defaulted params, so a given eps is caught here
    if "eps" in raw and _closed_form(solution, params):
        raise InvalidConfigError("rogue2 without a split phase (S0 = S1 = S2 = 0) is the "
                                 "closed form, into which eps does not enter")
    # an eigenvalue is given whole or not at all (lamK, lc)
    for name in [key[:-3] for key in params if key.endswith("_re")]:
        if (params[name + "_re"] is None) != (params[name + "_im"] is None):
            raise InvalidConfigError(f"{name} needs both {name}_re and {name}_im")
    # the eigenvalue that runs is the one recorded: without lc, the seed's critical one
    if solution == "engine-degenerate" and params["lc_re"] is None:
        try:
            lc = critical_eigenvalue(_make_seed(params))
        except (ValueError, ArithmeticError) as exc:
            raise InvalidConfigError(f"invalid parameters for {solution}: {exc}") from None
        params["lc_re"], params["lc_im"] = lc.real, lc.imag
    return params


def _number(key: str, val, integer: bool):
    """A finite float (or a whole number, for `integer`); anything else is
    invalid configuration, not a crash, a truncation or an all-NaN grid."""
    kind = "an integer" if integer else "a finite number"
    try:
        out = float(val)
    except (TypeError, ValueError, OverflowError):
        raise InvalidConfigError(f"parameter {key} must be {kind}, got {val!r}") from None
    if isinstance(val, bool) or not math.isfinite(out) or (integer and not out.is_integer()):
        raise InvalidConfigError(f"parameter {key} must be {kind}, got {val!r}")
    return int(out) if integer else out


def _closed_form(solution: str, params: dict) -> bool:
    """Whether the solution is a catalog closed form: rogue2 is one without
    a split phase (S0 = S1 = S2 = 0), and the degenerate limit otherwise."""
    if solution == "rogue2":
        return params["S0"] == params["S1"] == params["S2"] == 0.0
    return solution in _CLOSED_FORMS


def _make_seed(params: dict) -> Seed:
    return Seed(**{key: params[key] for key in ("a", "c", "alpha", "theta_p", "theta_q")})


def build_field(solution: str, params: dict, precision: str = "auto"):
    """Vectorized (x, t) -> complex closure for the requested solution.

    A closed form is evaluated in double.  An engine solution is its
    `DTOutput`, whose precision `degenerate_limit`'s radius rule chooses and
    records.  `precision` is kept for callers that pass "auto"; any other
    value is refused."""
    if precision != "auto":
        raise ValueError(f"precision is chosen by the engine, got {precision!r}")
    if _closed_form(solution, params):
        # looked up when called, so that a constructor replaced on the
        # catalog module (as instrumentation does) is the one called
        make = getattr(catalog, _CLOSED_FORMS[solution])
        return make(**({} if solution == "rogue2" else params)).eval
    if solution in ("rogue2", "rogue3"):
        # the split rogue waves are engine-degenerate's default plane wave
        # (a, c) = (-2, 1) at its critical eigenvalue 1 + i, of order 2 or 3
        n = 2 if solution == "rogue2" else 3
        solution = "engine-degenerate"
        params = resolve_params(solution, {**params, "n": n})
    if solution not in ("engine-nfold", "engine-degenerate"):
        raise InvalidConfigError(f"unknown solution {solution!r}")
    seed = _make_seed(params)
    if solution == "engine-nfold":
        lams = [complex(params[f"lam{k}_re"], params[f"lam{k}_im"]) for k in (1, 2, 3)
                if params[f"lam{k}_re"] is not None]
        return n_fold(build_reduced_set(lams, seed), seed)
    spec = DegenerationSpec(lambda_c=complex(params["lc_re"], params["lc_im"]),
                            epsilon=params["eps"], n=int(params["n"]),
                            S0=params["S0"], S1=params["S1"], S2=params["S2"])
    return degenerate_limit(spec, seed)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return float_text(v)
    raise TypeError(f"unexpected scalar {type(v)}")


def json_text(obj) -> str:
    """JSON with fixed float formatting (17 significant digits, lowercase e)."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{json_text(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_text(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


# Nodes formatted and written per block of whole rows (t-rows for csv,
# x-rows for json; one row when a row alone is longer): the writers hold one
# block's bytes and formatting temporaries at a time, about 3 MiB for csv.
_WRITER_NODES = 2 ** 12


def _comma_slots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(chars, keep) of each element's text and a comma, left-aligned in as
    few columns as the longest needs."""
    texts = [bytes(c[k]) + b"," for c, k in zip(*formatted(a))]
    width = max(map(len, texts))
    chars = np.frombuffer(b"".join(t.ljust(width) for t in texts), np.uint8)
    lengths = np.array([len(t) for t in texts])
    return chars.reshape(-1, width), np.arange(width) < lengths[:, None]


def write_csv(path: Path, grid: Grid2D, values: np.ndarray):
    # x varies fastest within a t row, and x and t are formatted once
    xs, ts = _comma_slots(grid.xs), _comma_slots(grid.ts)
    wx, wt = xs[0].shape[1], ts[0].shape[1]
    # a line per node: x and t, then intensity, re and im from an 8-byte boundary
    lead = -(-(wx + wt) // 8) * 8
    blocks = _row_blocks(grid.nt, grid.nx, _WRITER_NODES)
    line = np.empty((blocks[0][1], grid.nx, lead + 3 * WIDTH), np.uint8)
    mask = np.zeros(line.shape, bool)
    with open(path, "wb") as f:
        f.write(b"x,t,intensity,re,im\n")
        for j, k in blocks:
            v = values[:, j:k].T
            rows = k - j
            line, mask = line[:rows], mask[:rows]
            for out, x, t in zip((line, mask), xs, ts):
                out[:, :, :wx] = x
                out[:, :, wx:wx + wt] = t[j:j + rows, None]
            nums, keep = (a[:, :, lead:].reshape(rows, grid.nx, 3, WIDTH) for a in (line, mask))
            format_floats(np.stack([intensity(v), v.real, v.imag], axis=-1), nums, keep)
            # each number's separator, in the column format_floats leaves free
            nums[..., 45] = np.frombuffer(b",,\n", np.uint8)
            keep[..., 45] = True
            # np.compress indexes every byte it keeps: a t row at a time bounds that
            for r in range(rows):
                f.write(np.compress(mask[r].ravel(), line[r].ravel()))


def _write_matrix(f, values: np.ndarray, part):
    """json_text of `part(values)` as a list of x-rows, block by block."""
    f.write(b"[")
    for i, j in _row_blocks(*values.shape, _WRITER_NODES):
        block = part(values[i:j])
        chars = np.empty(block.shape + (WIDTH,), np.uint8)
        keep = np.empty(chars.shape, bool)
        format_floats(block, chars, keep)
        # "[" x "," ... x "]" per row, and "," after every row but the block's
        # last, in the columns 0, 45 and 46 that format_floats leaves free
        chars[:, 0, 0] = ord("[")
        chars[..., 45] = ord(",")
        chars[:, -1, 45:47] = np.frombuffer(b"],", np.uint8)
        keep[:, 0, 0] = keep[..., 45] = keep[:-1, -1, 46] = True
        if i:
            f.write(b",")
        f.write(np.compress(keep.ravel(), chars.ravel()))
    f.write(b"]")


def write_json(path: Path, grid: Grid2D, values: np.ndarray, params: dict,
               include_complex: bool):
    doc = {
        "params": params,
        "grid": dict(x_min=grid.x_min, x_max=grid.x_max, t_min=grid.t_min,
                     t_max=grid.t_max, nx=grid.nx, nt=grid.nt),
    }
    matrices = {"data": intensity}
    if include_complex:
        matrices.update(re=np.real, im=np.imag)
    with open(path, "wb") as f:
        f.write(b"{")
        for n, key in enumerate(sorted([*doc, *matrices])):   # json_text's key order
            f.write((("," if n else "") + json.dumps(key) + ":").encode())
            if key in doc:
                f.write(json_text(doc[key]).encode())
            else:
                _write_matrix(f, values, matrices[key])
        f.write(b"}\n")


def write_pgm(path: Path, I: np.ndarray):
    # I is the intensity; an overflow is counted as overflow_nodes and drawn white
    finite = I[np.isfinite(I)]
    top = finite.max() if finite.size and finite.max() > 0 else 1.0
    img = np.nan_to_num(I / top, nan=0.0, posinf=1.0, neginf=0.0)
    pix = np.round(255 * img.T[::-1]).astype(np.uint8)  # rows: t descending
    header = f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + pix.tobytes())


# a value whose parts are both below this in magnitude has |v| below
# sqrt(2) 2^511, whose square is below the largest double
_SQUARE_SAFE = 2.0 ** 511


def _node_counts(fld: ComplexField2D, I: np.ndarray | None = None) -> dict:
    """Nodes whose field value is not finite, and nodes whose value is finite
    but whose intensity overflows.  I is the grid's intensity, if the caller
    has it; else the intensity is taken only at the finite nodes with a part
    of magnitude _SQUARE_SAFE or more, the only ones where it can overflow,
    in blocks of rows as the writers take them, so no temporary is
    grid-sized."""
    if I is not None:
        overflow = int(np.count_nonzero(~fld.invalid & np.isinf(I)))
    else:
        overflow = 0
        for i, j in _row_blocks(*fld.values.shape, _WRITER_NODES):
            v = fld.values[i:j]
            big = (np.abs(v.real) >= _SQUARE_SAFE) | (np.abs(v.imag) >= _SQUARE_SAFE)
            big &= ~fld.invalid[i:j]
            overflow += int(np.count_nonzero(np.isinf(intensity(v[big]))))
    return {"masked_nodes": int(np.count_nonzero(fld.invalid)), "overflow_nodes": overflow}


def _write_meta(output: Path, fmt: str, solution: str, params: dict, grid_spec: str,
                precision_used: str, workers: int, counts: dict):
    meta = {
        "tool_version": __version__,
        "convention_variant": "nonlinear_sign=+1, v_conjugation=independent",
        "precision_used": precision_used,
        "solution": solution,
        "params": params,
        "grid": grid_spec,
        "format": fmt,
        "workers": workers,
        **counts,
    }
    Path(str(output) + ".meta.json").write_text(json_text(meta) + "\n",
                                                encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_config(ns: argparse.Namespace) -> dict:
    merged = {}
    if ns.config:
        try:
            merged = json.loads(Path(ns.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise IOFailureError(f"cannot read config {ns.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"config {ns.config} is not valid JSON: {exc}") from None
        if not isinstance(merged, dict):
            raise InvalidConfigError("config file must hold a JSON object")
        # the JSON type of each field the CLI reads; any other field is a typo
        kinds = dict(solution=str, figure=str, grid=str, params=dict)
        unknown = sorted(set(merged) - set(kinds))
        if unknown:
            raise InvalidConfigError(f"unknown config field(s) {unknown}; "
                                     f"choose from {sorted(kinds)}")
        for key, kind in kinds.items():
            if key in merged and not isinstance(merged[key], kind):
                want = "an object" if kind is dict else "a string"
                raise InvalidConfigError(f"config field {key!r} must be {want}, "
                                         f"got {json.dumps(merged[key])}")
    return merged


def _effective(ns: argparse.Namespace):
    cfg = _load_config(ns)
    solution = ns.solution or cfg.get("solution")
    grid_spec = ns.grid or cfg.get("grid")
    raw_params = dict(cfg.get("params", {}))
    raw_params.update(_parse_params(ns.param))
    figure = getattr(ns, "figure", None) or cfg.get("figure")
    if figure is not None:
        if figure not in FIGURE_MAP:
            raise InvalidConfigError(f"unknown figure {figure!r}; choose from "
                                     f"{sorted(FIGURE_MAP)}")
        fig_solution, fig_params, fig_grid = FIGURE_MAP[figure]
        solution = solution or fig_solution
        grid_spec = grid_spec or fig_grid
        raw_params = {**fig_params, **raw_params}
    if not solution:
        raise InvalidConfigError("no solution selected (use --solution or --figure)")
    if not grid_spec:
        raise InvalidConfigError("no grid given (use --grid min:max:n,min:max:n)")
    params = resolve_params(solution, raw_params)
    return solution, params, parse_grid(grid_spec), grid_spec


def _checked_sample(solution: str, params: dict, grid: Grid2D):
    """`build_field` and its samples on the grid, with a bad parameter
    reported as invalid configuration.  Building only constructs objects, so
    whatever it raises, an overflow included, is a bad parameter; sampling
    overflows scalar arithmetic only on a parameter too large for double.
    A grid on which every node is masked shows nothing, and is refused too."""
    try:
        with np.errstate(over="raise"):
            field = build_field(solution, params)
    except (ValueError, ArithmeticError) as exc:
        raise InvalidConfigError(f"invalid parameters for {solution}: {exc}") from None
    try:
        fld = sample(field, grid)
    except OverflowError as exc:
        raise InvalidConfigError(f"parameters of {solution} overflow double: {exc}") from None
    if fld.invalid.all():
        raise InvalidConfigError(f"all {fld.invalid.size} nodes of {solution} are masked "
                                 "(poles, the condition bound or values beyond double)")
    return field, fld


def cmd_generate(ns: argparse.Namespace) -> int:
    solution, params, grid, grid_spec = _effective(ns)
    field, fld = _checked_sample(solution, params, grid)
    output = Path(ns.output)
    try:
        output.parent.mkdir(parents=True, exist_ok=True)
        I = None
        if ns.format == "csv":
            write_csv(output, grid, fld.values)
        elif ns.format == "json":
            write_json(output, grid, fld.values, params, ns.include_complex)
        else:
            # one |Q|^2 for the image and the sidecar's counts
            I = intensity(fld.values)
            write_pgm(output, I)
        # a closed-form field is a plain closure, evaluated in double
        _write_meta(output, ns.format, solution, params, grid_spec,
                    getattr(field, "precision", "double"), fld.workers, _node_counts(fld, I))
    except OSError as exc:
        raise IOFailureError(f"cannot write {output}: {exc}") from None
    if not ns.quiet:
        print(f"wrote {output} ({ns.format}, {grid.nx}x{grid.nt})")
    return 0


def cmd_analyze(ns: argparse.Namespace) -> int:
    if not (math.isfinite(ns.cluster_radius) and ns.cluster_radius >= 0):
        raise InvalidConfigError(f"--cluster-radius must be a finite number >= 0, "
                                 f"got {ns.cluster_radius!r}")
    solution, params, grid, grid_spec = _effective(ns)
    _, fld = _checked_sample(solution, params, grid)
    I = intensity(fld.values)
    try:
        ps = peak_analysis(ComplexField2D(grid, I, fld.invalid),
                           cluster_radius=ns.cluster_radius)
    except (ResolutionTooCoarseError, AllNodesExcludedError) as exc:
        raise InvalidConfigError(str(exc)) from None
    doc = {
        "solution": solution,
        "params": params,
        "grid": grid_spec,
        "background": ps.background,
        "classification": ps.classification,
        "peak_count": len(ps.peaks),
        "structure_count": len(ps.structures),
        "peaks": [list(p) for p in ps.peaks],
        "structures": [list(p) for p in ps.structures],
        **_node_counts(fld, I),
    }
    text = json_text(doc) + "\n"
    if ns.output:
        try:
            Path(ns.output).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise IOFailureError(f"cannot write {ns.output}: {exc}") from None
        if not ns.quiet:
            print(f"wrote {ns.output}")
    else:
        print(text, end="")
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    from .acceptance import run_suite

    echo = (lambda *_: None) if ns.quiet else print
    results = run_suite(ns.suite, echo=echo)
    if ns.output:
        doc = [dict(name=r.name, passed=r.passed, detail=r.detail,
                    elapsed=round(r.elapsed, 3)) for r in results]
        try:
            Path(ns.output).write_text(json_text(doc) + "\n", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise IOFailureError(f"cannot write {ns.output}: {exc}") from None
    return 0 if all(r.passed for r in results) else 4


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kdnls",
                                 description="Kundu-DNLS solution engine and verifier")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, need_output: bool):
        p.add_argument("--solution", choices=sorted(SOLUTIONS), default=None)
        p.add_argument("--figure", choices=sorted(FIGURE_MAP), default=None,
                       help="use the documented parameters of a mapped figure")
        p.add_argument("--grid", default=None, help="xmin:xmax:nx,tmin:tmax:nt")
        p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--config", default=None, help="JSON config file; flags override")
        p.add_argument("--quiet", action="store_true")
        if need_output:
            p.add_argument("--output", required=True)

    g = sub.add_parser("generate", help="sample a solution onto a grid and export it")
    add_common(g, need_output=True)
    g.add_argument("--format", choices=["csv", "json", "pgm"], default="csv")
    g.add_argument("--include-complex", action="store_true",
                   help="also store Re/Im parts in JSON output")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="peak-detect and classify an intensity field")
    add_common(a, need_output=False)
    a.add_argument("--output", default=None)
    a.add_argument("--cluster-radius", type=float, default=3.0)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run the acceptance battery")
    v.add_argument("--suite", choices=["full", "quick"], default="full")
    v.add_argument("--output", default=None, help="write a JSON report here")
    v.add_argument("--quiet", action="store_true")
    v.set_defaults(func=cmd_verify)
    return ap


def _join_grid_values(argv: list[str]) -> list[str]:
    """Fold `--grid -4:4:401,...` into `--grid=...` so argparse accepts the
    leading minus of a negative window bound."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--grid" and i + 1 < len(argv) and ":" in argv[i + 1]:
            out.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = make_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_grid_values(list(argv))
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, matching ours
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IOFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
