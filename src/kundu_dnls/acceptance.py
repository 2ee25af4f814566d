"""The release gate: every check here must pass for a clean build.

Each criterion function returns a CheckResult; `run_suite` executes the
requested subset and reports one line per criterion.  The same battery
backs `kdnls verify` and the pytest acceptance module.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import catalog, cli
from .darboux import DegenerationSpec, build_reduced_set, degenerate_limit, n_fold
from .lax import make_plane_wave_seed, plane_wave_eigenfunction, zero_seed
from .numerics.grid import ComplexField2D, Grid2D, intensity, sample
from .verify import (ConventionVariant, _ring_outer, compare_fields, convergence_study,
                     exact_seed_residual, pde_residual, peak_analysis,
                     pin_down_convention)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    data: dict = field(default_factory=dict)


def _timed(fn):
    def wrapper() -> CheckResult:
        t0 = time.perf_counter()
        res = fn()
        res.elapsed = time.perf_counter() - t0
        return res
    wrapper.__name__ = fn.__name__
    return wrapper


@_timed
def check_convention_pin_down() -> CheckResult:
    """Criterion 1: exactly one variant survives the exact-seed battery."""
    t0 = time.perf_counter()
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    residuals = {s: exact_seed_residual(seed, s) for s in (1, -1)}
    try:
        variant = pin_down_convention()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return CheckResult("convention_pin_down", False, f"pin-down failed: {exc}")
    elapsed = time.perf_counter() - t0
    ok = (residuals[variant.nonlinear_sign] <= 1e-10
          and residuals[-variant.nonlinear_sign] > 1e-3
          and elapsed < 1.0)
    detail = (f"variant={variant}, residual(+1)={residuals[1]:.2e}, "
              f"residual(-1)={residuals[-1]:.2e}, {elapsed:.2f}s")
    return CheckResult("convention_pin_down", ok, detail, data={"variant": variant})


# base grids chosen so the finest pair sits in the asymptotic h^2 regime of
# each entry's steepest feature
_FIGURE_WINDOWS = {
    "one_soliton": (Grid2D(-3, 3, -2, 2, 161, 161), lambda: catalog.one_soliton(1, 2)),
    "two_soliton": (Grid2D(-10, 10, -10, 10, 161, 161),
                    lambda: catalog.two_soliton(0.7, 0.3, 0.5, 0.5)),
    "positon": (Grid2D(-10, 10, -10, 10, 321, 321), lambda: catalog.positon(0.8, 0.8)),
    "breather": (Grid2D(-5, 5, -3, 3, 161, 161), catalog.breather),
    "rogue1": (Grid2D(-4, 4, -4, 4, 401, 401), catalog.rogue1),
    "rogue2": (Grid2D(-4, 4, -4, 4, 641, 641), catalog.rogue2),
}


@_timed
def check_catalog_residuals() -> CheckResult:
    """Criterion 2: every catalog entry converges at order ~2 under h-halving."""
    variant = ConventionVariant(1, "independent")
    seed = zero_seed()
    t0 = time.perf_counter()
    orders = {}
    for name, (grid, make) in _FIGURE_WINDOWS.items():
        rep = pde_residual(make().eval, seed, variant, grid, refinements=2)
        orders[name] = rep.estimated_order
    elapsed = time.perf_counter() - t0
    ok = all(1.7 <= o <= 2.3 for o in orders.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2f}" for k, v in orders.items()) + f"; {elapsed:.1f}s"
    return CheckResult("catalog_residuals", ok, detail, data=orders)


@_timed
def check_engine_oracle_equivalence() -> CheckResult:
    """Criterion 3: determinant engine reproduces the catalog solitons."""
    seed = zero_seed()
    g1 = Grid2D(-3, 3, -2, 2, 101, 101)
    out1 = n_fold(build_reduced_set([1 + 2j], seed), seed)
    err1, _ = compare_fields(sample(out1.Q, g1),
                             sample(catalog.one_soliton(1, 2).eval, g1))
    g2 = Grid2D(-10, 10, -10, 10, 201, 201)
    out2 = n_fold(build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], seed), seed)
    Ie = intensity(sample(out2.Q, g2).values)
    Ic = intensity(sample(catalog.two_soliton(0.7, 0.3, 0.5, 0.5).eval, g2).values)
    mask = Ic > 0.01
    err2 = float(np.max(np.abs(Ie - Ic)[mask] / Ic[mask]))
    ok = err1 <= 1e-9 and err2 <= 1e-6
    return CheckResult("engine_oracle_equivalence", ok,
                       f"one_soliton max {err1:.2e} (<=1e-9), "
                       f"two_soliton rel {err2:.2e} (<=1e-6)")


@_timed
def check_rogue_anchors() -> CheckResult:
    """Criterion 4: first-order peak and far field; second-order centre value."""
    r1 = catalog.rogue1().eval
    centre = intensity(r1(0.0, 0.0))
    far = [intensity(r1(x, 0.0)) for x in (50.0, -50.0)]
    r2 = catalog.rogue2().eval
    centre2 = abs(complex(r2(0.0, 0.0)))
    ok = (abs(centre - 9.0) <= 1e-9
          and all(0.99 <= f <= 1.01 for f in far)
          and abs(centre2 - 5.0) <= 1e-9)
    return CheckResult("rogue_anchors", ok,
                       f"|Q1(0,0)|^2={centre:.12f}, far={far[0]:.4f}/{far[1]:.4f}, "
                       f"|Q2(0,0)|={centre2:.12f} (locked to 5)")


@_timed
def check_degeneration_convergence() -> CheckResult:
    """Criterion 5: coalescence ladders against the closed-form limits."""
    seed0 = zero_seed()
    gp = Grid2D(-10, 10, -10, 10, 41, 41)
    ref = sample(catalog.positon(0.8, 0.8).eval, gp)
    used = {}   # the precision each radius chose automatically

    def family(eps):
        spec = DegenerationSpec(lambda_c=0.8 + 0.8j, epsilon=eps, n=2)
        out = degenerate_limit(spec, seed0)
        used[eps] = out.precision
        return sample(out.Q, gp)

    rows, monotone = convergence_study(family, ref, [1e-1, 1e-2, 1e-3])
    reduction = rows[0][1] / rows[-1][1] if rows[-1][1] > 0 else float("inf")

    seedp = make_plane_wave_seed(-2.0, 1.0, 1.0)
    spec = DegenerationSpec(lambda_c=1 + 1j, epsilon=1e-3, n=1)
    out = degenerate_limit(spec, seedp)
    lat = np.linspace(-2, 2, 5)
    X, T = np.meshgrid(lat, lat, indexing="ij")
    err_r1 = float(np.max(np.abs(intensity(out.Q(X, T))
                                 - intensity(catalog.rogue1().eval(X, T)))))
    ok = monotone and reduction >= 20.0 and err_r1 <= 1e-3
    detail = ("positon ladder " + " -> ".join(f"{e:.0e}:{err:.2e} {used[e]}" for e, err in rows)
              + f" (x{reduction:.0f} down), rogue1 probe {err_r1:.2e} {out.precision} (<=1e-3)")
    return CheckResult("degeneration_convergence", ok, detail)


# (solution, params, grid) invocations: the split patterns are the mapped
# figures themselves, so the criterion and the figures cannot drift apart
PATTERN_CONFIGS = {
    "triangle2": cli.FIGURE_MAP["fig7"],
    "ring3": cli.FIGURE_MAP["fig10"],
    "triangle3": cli.FIGURE_MAP["fig9"],
    "fused2": ("engine-degenerate", {"n": 2, "eps": 2e-3}, "-8:8:161,-8:8:161"),
}


def pattern_field(config_name: str) -> ComplexField2D:
    """Intensity of one pattern field, built as `kdnls generate` builds it."""
    solution, params, grid_spec = PATTERN_CONFIGS[config_name]
    grid = cli.parse_grid(grid_spec)
    field_fn = cli.build_field(solution, cli.resolve_params(solution, dict(params)))
    fld = sample(field_fn, grid)
    return ComplexField2D(grid, intensity(fld.values), fld.invalid)


@_timed
def check_pattern_taxonomy() -> CheckResult:
    """Criterion 6: split/fused hump patterns, the split ones by their figures' rows."""
    tri, ring, fused = (peak_analysis(pattern_field(name), cluster_radius=CLUSTER_RADIUS)
                        for name in ("triangle2", "ring3", "fused2"))
    ok = (not _humps_differ(tri, FIGURE_CHECKS["fig7"]["humps"])
          and not _humps_differ(ring, FIGURE_CHECKS["fig10"]["humps"])
          and len(fused.structures) == 1 and fused.classification == "fundamental")
    detail = (f"triangle2: {len(tri.structures)} structures ({tri.classification}); "
              f"ring3: {len(_ring_outer(ring.structures))} outer ({ring.classification}); "
              f"fused2: {len(fused.structures)} structure ({fused.classification})")
    return CheckResult("pattern_taxonomy", ok, detail,
                       data={"triangle2": tri, "ring3": ring, "fused2": fused})


@_timed
def check_property_suites() -> CheckResult:
    """Criterion 7: algebraic property spot-checks (full suites live in tests)."""
    from .numerics.determinant import det
    rng = np.random.default_rng(7)
    fails = []

    def cofactor(m):
        m = np.asarray(m)
        if m.shape == (1, 1):
            return m[0, 0]
        return sum((-1) ** j * m[0, j] * cofactor(np.delete(m[1:], j, axis=1))
                   for j in range(m.shape[1]))

    for n in (2, 3, 4):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if abs(det(A) - cofactor(A)) / abs(cofactor(A)) > 1e-12:
            fails.append(f"determinant oracle n={n}")

    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    lam = 0.6 + 0.9j
    pts = rng.uniform(-2, 2, size=(20, 2))
    d10 = plane_wave_eigenfunction(lam, seed, weights=(1, 0))
    d01 = plane_wave_eigenfunction(lam, seed, weights=(0, 1))
    D1, D2 = 0.3 - 1.1j, -0.7 + 0.2j
    dw = plane_wave_eigenfunction(lam, seed, weights=(D1, D2))
    for x, t in pts:
        want = D1 * d10.phi(x, t) + D2 * d01.phi(x, t)
        if abs(dw.phi(x, t) - want) > 1e-12 * max(1.0, abs(want)):
            fails.append("eigenfunction linearity")
            break

    seed0 = zero_seed()
    base = build_reduced_set([1 + 2j], seed0)
    scale = 0.8 - 0.45j
    scaled = build_reduced_set([1 + 2j], seed0)
    for datum in scaled.data:
        p, v = datum.phi, datum.varphi
        datum.phi = (lambda f: lambda x, t: scale * f(x, t))(p)
        datum.varphi = (lambda f: lambda x, t: scale * f(x, t))(v)
    qa = n_fold(base, seed0).Q
    qb = n_fold(scaled, seed0).Q
    for x, t in pts:
        va, vb = complex(qa(x, t)), complex(qb(x, t))
        if abs(va - vb) > 1e-10 * max(1.0, abs(va)):
            fails.append("gauge covariance")
            break

    # R from the general path: the reduced path derives its swapped
    # determinants by conjugation, which would make the identity hold by
    # construction
    sym = build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], seed0)
    general = sym.unreduced()
    pts100 = rng.uniform(-5, 5, size=(100, 2))
    X, T = pts100[:, 0], pts100[:, 1]
    q, r = n_fold(sym, seed0).Q(X, T), n_fold(general, seed0).R(X, T)
    if np.max(np.abs(r + np.conj(q))) > 1e-8:
        fails.append("reduction symmetry")

    qb_ = catalog.breather().eval
    period = 2 * np.pi / 0.9682458364
    xs = np.linspace(-5, 5, 41)
    ts = np.linspace(-3, 3, 25)
    Xb, Tb = np.meshgrid(xs, ts, indexing="ij")
    dev = np.max(np.abs(intensity(qb_(Xb + period, Tb)) - intensity(qb_(Xb, Tb))))
    if dev > 1e-6:
        fails.append(f"breather periodicity ({dev:.2e})")

    ok = not fails
    return CheckResult("property_suites", ok,
                       "all spot-checks passed" if ok else "; ".join(fails))


@_timed
def check_figure_reproduction() -> CheckResult:
    """Criterion 8: every mapped figure regenerates and passes its smoke check."""
    import tempfile
    from pathlib import Path

    fails = []
    with tempfile.TemporaryDirectory() as tmp:
        for fig in sorted(cli.FIGURE_MAP):
            out = str(Path(tmp) / f"{fig}.json")
            rc = cli.main(["generate", "--figure", fig, "--format", "json",
                           "--output", out, "--quiet"])
            if rc != 0:
                fails.append(f"{fig}: exit {rc}")
                continue
            msg = _figure_smoke(fig, out)
            if msg:
                fails.append(f"{fig}: {msg}")
    ok = not fails
    return CheckResult("figure_reproduction", ok,
                       "all figures reproduced" if ok else "; ".join(fails))


# the peak_analysis cluster radius at which structures are counted
CLUSTER_RADIUS = 4.0

# what each mapped figure's |Q|^2 must show, one row per figure:
#   crest: (height, tolerance) of the grid maximum;
#   ridge_floor: a bound below the maximum over x at every t;
#   maxima: (t column, least, most) count of 1-D maxima above 0.5 on that column;
#   humps: (count, classification) from peak_analysis at CLUSTER_RADIUS,
#     either None for any; a ring counts its outer structures
FIGURE_CHECKS = {
    "fig1": dict(crest=(4.0, 0.05), ridge_floor=3.5),
    "fig2": dict(maxima=(0, 2, 2)),
    "fig3": dict(maxima=(-1, 2, np.inf)),
    "fig4": dict(crest=(4.0, 0.05)),
    "fig5": dict(crest=(9.0, 0.05), humps=(1, "fundamental")),
    "fig6": dict(crest=(25.0, 0.2), humps=(1, None)),
    "fig7": dict(humps=(3, "triangular")),
    "fig8": dict(crest=(49.0, 0.5)),
    "fig9": dict(humps=(6, "triangular")),
    "fig10": dict(humps=(5, "ring")),
}


def _figure_smoke(fig: str, path: str) -> str:
    """The first check of the figure's row its json artifact fails, or ""."""
    import json

    with open(path) as fh:
        doc = json.load(fh)
    I = np.asarray(doc["data"])
    check = FIGURE_CHECKS[fig]
    if "crest" in check and not abs(I.max() - check["crest"][0]) < check["crest"][1]:
        return f"expected crest {check['crest'][0]}, got {I.max():.3f}"
    if "ridge_floor" in check and not I.max(axis=0).min() > check["ridge_floor"]:
        return f"expected a ridge above {check['ridge_floor']} at every t"
    if "maxima" in check:
        column, least, most = check["maxima"]
        v = I[:, column]
        n = int(np.sum((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > 0.5)))
        if not least <= n <= most:
            return f"{n} maxima on t column {column}, expected {least} to {most}"
    if "humps" in check:
        fld = ComplexField2D(Grid2D(**doc["grid"]), I.astype(complex))
        return _humps_differ(peak_analysis(fld, cluster_radius=CLUSTER_RADIUS), check["humps"])
    return ""


def _humps_differ(ps, humps: tuple) -> str:
    """How the peaks differ from the expected (count, classification), or ""."""
    count, kind = humps
    n = len(_ring_outer(ps.structures)) if kind == "ring" else len(ps.structures)
    if count is not None and n != count:
        return f"{n} structures, expected {count}"
    if kind is not None and ps.classification != kind:
        return f"classified {ps.classification}, expected {kind}"
    return ""


FULL_SUITE = [
    check_convention_pin_down,
    check_catalog_residuals,
    check_engine_oracle_equivalence,
    check_rogue_anchors,
    check_degeneration_convergence,
    check_pattern_taxonomy,
    check_property_suites,
    check_figure_reproduction,
]

QUICK_SUITE = [
    check_convention_pin_down,
    check_engine_oracle_equivalence,
    check_rogue_anchors,
    check_property_suites,
]


def run_suite(which: str = "full", echo=print) -> list[CheckResult]:
    checks = FULL_SUITE if which == "full" else QUICK_SUITE
    results = []
    for fn in checks:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        echo(f"[{status}] {res.name} ({res.elapsed:.1f}s): {res.detail}")
    return results
