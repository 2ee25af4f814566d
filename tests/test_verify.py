"""Verifier tests: residual operator, comparisons, convergence, peak analysis."""
import tracemalloc

import numpy as np
import pytest

import kundu_dnls as kd
from kundu_dnls import verify
from kundu_dnls.errors import AllNodesExcludedError, ResolutionTooCoarseError
from kundu_dnls.verify import (ALL_VARIANTS, ConventionVariant, compare_fields,
                               convergence_study, exact_seed_residual, pde_residual,
                               peak_analysis, pin_down_convention)


# ---------------------------------------------------------------------------
# convention pin-down and the residual operator
# ---------------------------------------------------------------------------

def test_exact_seed_residual_pins_nonlinear_sign():
    seed = kd.make_plane_wave_seed(-2.0, 1.0, 1.0)
    assert exact_seed_residual(seed, +1) <= 1e-14
    assert exact_seed_residual(seed, -1) == pytest.approx(2.0, rel=1e-12)


def test_directly_built_seed_solves_the_equation():
    # b is derived from (a, c, alpha), never passed
    seed = kd.Seed(a=-2.0, c=1.0)
    assert seed.b == kd.make_plane_wave_seed(-2.0, 1.0, 1.0).b == -1.0
    assert exact_seed_residual(seed, +1) <= 1e-14
    with pytest.raises(TypeError):
        kd.Seed(a=-2.0, c=1.0, b=0.0)


def test_sampled_seed_residual_converges_to_the_exact_one():
    # the stencil residual and the exact substitution share one field operator
    seed = kd.make_plane_wave_seed(-2.0, 1.0, 1.0)
    exact = exact_seed_residual(seed, -1)
    assert exact == pytest.approx(2.0, rel=1e-12)
    rep = pde_residual(seed.value, seed, ConventionVariant(-1), kd.Grid2D(-1, 1, -1, 1, 41, 41),
                       refinements=3)
    errs = [abs(n[1] - exact) for n in rep.norms]
    assert errs[0] > errs[1] > errs[2] and errs[2] <= 1e-4
    assert 1.9 <= np.log2(errs[1] / errs[2]) <= 2.1


def test_pin_down_is_decisive():
    variant = pin_down_convention()
    assert variant == ConventionVariant(1, "independent")
    assert len(ALL_VARIANTS) == 4


def test_zero_field_residual_vanishes_for_every_variant():
    seed = kd.zero_seed()
    g = kd.Grid2D(-1, 1, -1, 1, 17, 17)
    for variant in ALL_VARIANTS:
        rep = pde_residual(lambda x, t: 0.0 * (x + t), seed, variant, g, refinements=2)
        assert all(n[1] == 0 for n in rep.norms)


def test_residual_excludes_pole_neighbourhoods():
    seed = kd.zero_seed()
    g = kd.Grid2D(-1, 1, -1, 1, 33, 33)

    def field(x, t):
        # a single poisoned node at the origin
        out = np.exp(1j * x) + 0j * t
        return np.where((np.abs(x) < 1e-9) & (np.abs(t) < 1e-9), np.nan, out)

    rep = pde_residual(field, seed, ConventionVariant(), g, refinements=2)
    assert np.isfinite(rep.norms[0][1])
    with pytest.raises(AllNodesExcludedError):
        pde_residual(lambda x, t: np.full(np.broadcast(x, t).shape, np.nan + 0j),
                     seed, ConventionVariant(), g, refinements=1)


def test_streamed_residual_has_the_norms_of_the_whole_grid(monkeypatch):
    # blocks of 162 rows at nt = 101: rows 0:162, 162:324, 324:401; NaN nodes
    # on the last and first rows of adjacent blocks exclude residual nodes
    # across the block edge, which only the one-row halo can see
    seed = kd.zero_seed()
    g = kd.Grid2D(-4, 4, -4, 4, 401, 101)
    xs, ts = g.xs, g.ts
    poisoned = [(161, 30), (162, 70), (323, 5), (324, 50), (1, 1), (399, 99)]
    rogue = kd.catalog.rogue1().eval

    def field(x, t):
        out = rogue(x, t)
        for i, j in poisoned:
            out = np.where((x == xs[i]) & (t == ts[j]), np.nan, out)
        return out

    calls = []
    on_grid = verify._pde_residual_on_grid

    def spy(values, invalid, grid, *args):
        calls.append(values.shape[0])
        return on_grid(values, invalid, grid, *args)
    monkeypatch.setattr(verify, "_pde_residual_on_grid", spy)
    rep = pde_residual(field, seed, ConventionVariant(), g, refinements=1)
    assert calls == [163, 164, 78]     # the interior rows of each block and a halo row each side
    monkeypatch.undo()

    fld = kd.sample(field, g)
    assert np.count_nonzero(fld.invalid) == len(poisoned)
    res, excluded = verify._pde_residual_on_grid(fld.values, fld.invalid, g, seed, 1)
    assert np.count_nonzero(excluded) == 9 * 4 + 4 + 4   # four inner nodes, two corner ones
    r = np.abs(res[~excluded & np.isfinite(res)])
    assert rep.norms == [(g.hx, float(r.max()), float(r.mean()))]

    with pytest.raises(AllNodesExcludedError):
        pde_residual(lambda x, t: np.nan + 0 * x + 0 * t, seed, ConventionVariant(), g,
                     refinements=1)


def _shifted(grid, dx, dt):
    return kd.Grid2D(grid.x_min + dx, grid.x_max + dx, grid.t_min + dt, grid.t_max + dt,
                     grid.nx, grid.nt)


def _fields_on_windows():
    seed = kd.make_plane_wave_seed(-2.0, 1.0, 1.0)
    spec = kd.DegenerationSpec(lambda_c=1 + 1j, epsilon=2e-3, n=2, S1=30.0)
    return [
        (kd.catalog.rogue1().eval, kd.Grid2D(-4, 4, -4, 4, 41, 37)),
        (kd.catalog.positon(0.8, 0.8).eval, kd.Grid2D(-10, 10, -10, 10, 33, 45)),
        (kd.catalog.breather().eval, kd.Grid2D(-5, 5, -3, 3, 29, 31)),
        (kd.n_fold(kd.build_reduced_set([1 + 2j], kd.zero_seed()), kd.zero_seed()).Q,
         kd.Grid2D(-3, 3, -2, 2, 25, 27)),
        (kd.degenerate_limit(spec, seed).Q, kd.Grid2D(-4, 4, -4, 4, 21, 23)),
    ]


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.3183, -0.1234), (-1.7, 2.45)])
def test_refined_grid_at_a_stride_has_the_bits_of_the_coarse_grid(shift):
    # pde_residual samples only its finest grid and reads the coarser levels
    # from it at a stride, which holds because these bytes agree
    for f, grid in _fields_on_windows():
        g = _shifted(grid, *shift)
        assert np.array_equal(g.refined(2).xs[::2], g.xs)
        assert np.array_equal(g.refined(4).ts[::4], g.ts)
        coarse = kd.sample(f, g).values
        assert coarse.tobytes() == kd.sample(f, g.refined(2)).values[::2, ::2].tobytes()
        assert coarse.tobytes() == kd.sample(f, g.refined(4)).values[::4, ::4].tobytes()


def _residual_norms_per_level(f, seed, variant, grid, refinements):
    """pde_residual's norms with every level sampled on its own grid."""
    norms = []
    for level in range(refinements):
        g = grid.refined(2 ** level) if level else grid
        fld = kd.sample(f, g)
        res, excluded = verify._pde_residual_on_grid(fld.values, fld.invalid, g, seed,
                                                     variant.nonlinear_sign)
        r = np.abs(res[~excluded & np.isfinite(res)])
        norms.append((g.hx, float(r.max()), float(r.mean())))
    return norms


@pytest.mark.parametrize("refinements", [1, 2, 3])
def test_residual_of_one_sampled_grid_is_that_of_each_level_sampled(refinements):
    variant = ConventionVariant()
    for f, grid in _fields_on_windows():
        g = _shifted(grid, 0.2071, -0.0917)
        rep = pde_residual(f, kd.zero_seed(), variant, g, refinements=refinements)
        assert rep.norms == _residual_norms_per_level(f, kd.zero_seed(), variant, g,
                                                      refinements)


def test_residual_holds_bounded_memory():
    g = kd.Grid2D(-4, 4, -4, 4, 641, 641)
    tracemalloc.start()
    try:
        rep = pde_residual(kd.catalog.rogue2().eval, kd.zero_seed(), ConventionVariant(), g,
                           refinements=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.7 <= rep.estimated_order <= 2.3
    assert peak <= 96 * 2 ** 20


def test_residual_reports_decreasing_h():
    seed = kd.zero_seed()
    rep = pde_residual(kd.catalog.one_soliton(1, 2).eval, seed, ConventionVariant(),
                       kd.Grid2D(-2, 2, -1, 1, 81, 81), refinements=3)
    hs = [n[0] for n in rep.norms]
    assert hs[0] > hs[1] > hs[2]
    assert 1.7 <= rep.estimated_order <= 2.3


# ---------------------------------------------------------------------------
# field comparison
# ---------------------------------------------------------------------------

def _two_fields():
    g = kd.Grid2D(-1, 1, -1, 1, 21, 21)
    a = kd.sample(lambda x, t: np.exp(1j * (x + t)) * (1 + 0.3 * x), g)
    return a, g


def test_compare_fields_identical():
    a, g = _two_fields()
    assert compare_fields(a, a) == (0.0, 0.0)
    # intensities are blind to a global phase
    b = kd.ComplexField2D(g, np.exp(1j * np.pi / 3) * a.values)
    assert compare_fields(b, a)[0] <= 1e-12


def test_compare_fields_grid_mismatch():
    a, _ = _two_fields()
    other = kd.sample(lambda x, t: x + 0j * t, kd.Grid2D(-1, 1, -1, 1, 31, 31))
    with pytest.raises(ValueError, match="fields live on different grids"):
        compare_fields(a, other)


def test_convergence_study_trivial_and_validation():
    a, g = _two_fields()
    rows, monotone = convergence_study(lambda eps: a, a, [1e-1, 1e-2])
    assert all(err == 0 for _, err in rows) and not monotone
    with pytest.raises(ValueError):
        convergence_study(lambda eps: a, a, [1e-2, 1e-1])


# ---------------------------------------------------------------------------
# peak analysis
# ---------------------------------------------------------------------------

def _bump(X, T, x0, t0, h):
    return h / (1 + 4 * ((X - x0) ** 2 + (T - t0) ** 2))


def _intensity_field(fn, lo=-10, hi=10, n=201):
    g = kd.Grid2D(lo, hi, lo, hi, n, n)
    X, T = g.mesh()
    return kd.ComplexField2D(g, fn(X, T).astype(complex)), g


def test_peak_analysis_single_bump_fundamental():
    fld, g = _intensity_field(lambda X, T: 1 + _bump(X, T, 0, 0, 8.0))
    ps = peak_analysis(fld)
    assert ps.classification == "fundamental"
    assert len(ps.peaks) == 1
    x, t, h = ps.peaks[0]
    assert (x, t) == (0.0, 0.0) and h == pytest.approx(9.0, abs=0.05)


def test_peak_analysis_rogue1_field():
    ent = kd.catalog.rogue1()
    g = kd.Grid2D(-4, 4, -4, 4, 401, 401)
    fld = kd.sample(ent.eval, g)
    ps = peak_analysis(kd.ComplexField2D(g, np.abs(fld.values) ** 2))
    assert ps.classification == "fundamental"
    assert len(ps.peaks) == 1
    x, t, h = ps.peaks[0]
    assert abs(x) <= g.hx and abs(t) <= g.ht
    assert h == pytest.approx(9.0, abs=0.05)


def test_peak_analysis_triangle_and_ring_synthetic():
    def triangle(X, T):
        out = 1.0 + 0 * X
        for x0, t0 in [(-6, -4), (6, -4), (0, 6)]:
            out = out + _bump(X, T, x0, t0, 8.0)
        return out

    fld, _ = _intensity_field(triangle)
    assert peak_analysis(fld).classification == "triangular"

    def ring(X, T):
        out = 1.0 + 0 * X
        for k in range(5):
            ang = 2 * np.pi * k / 5
            out = out + _bump(X, T, 6 * np.cos(ang), 6 * np.sin(ang), 8.0)
        return out + _bump(X, T, 0, 0, 8.0)  # central hump is tolerated

    fld, _ = _intensity_field(ring)
    assert peak_analysis(fld).classification == "ring"


def test_peak_analysis_translation_equivariance():
    def base(X, T):
        return 1 + _bump(X, T, 1.0, -2.0, 8.0) + _bump(X, T, -5.0, 4.0, 6.0)

    fld, g = _intensity_field(base)
    ps = peak_analysis(fld)
    dx, dt = 5 * g.hx, 3 * g.ht
    shifted, _ = _intensity_field(lambda X, T: base(X - dx, T - dt))
    ps2 = peak_analysis(shifted)
    moved = sorted((round(x + dx, 9), round(t + dt, 9)) for x, t, _ in ps.peaks)
    got = sorted((round(x, 9), round(t, 9)) for x, t, _ in ps2.peaks)
    assert moved == got


def test_peak_analysis_resolution_guard():
    g = kd.Grid2D(-10, 10, -10, 10, 21, 21)
    fld = kd.ComplexField2D(g, np.ones((21, 21), dtype=complex))
    with pytest.raises(ResolutionTooCoarseError):
        peak_analysis(fld)


def test_peak_analysis_background_skips_masked_frame_nodes():
    ent = kd.catalog.rogue1()
    g = kd.Grid2D(-4, 4, -4, 4, 201, 201)
    I = kd.numerics.intensity(kd.sample(ent.eval, g).values)
    clean = peak_analysis(kd.ComplexField2D(g, I))
    I[0, 0] = np.nan
    ps = peak_analysis(kd.ComplexField2D(g, I))
    assert ps.classification == clean.classification == "fundamental"
    assert ps.peaks == clean.peaks and np.isfinite(ps.background)
    I[:, :] = np.nan
    I[50:150, 50:150] = 1.0   # valid nodes, none of them in the frame
    with pytest.raises(AllNodesExcludedError):
        peak_analysis(kd.ComplexField2D(g, I))


def test_peak_analysis_clusters_composite_centre():
    # two overlapping humps within the cluster radius count as one structure
    fld, _ = _intensity_field(
        lambda X, T: 1 + _bump(X, T, -0.8, 0, 8.0) + _bump(X, T, 0.8, 0, 8.0))
    ps = peak_analysis(fld)
    assert len(ps.peaks) == 2
    assert len(ps.structures) == 1
    assert ps.classification == "fundamental"


def _structures(points):
    return [(float(x), float(t), 9.0) for x, t in points]


_PENTAGON = [(6 * np.cos(2 * np.pi * k / 5), 6 * np.sin(2 * np.pi * k / 5)) for k in range(5)]


@pytest.mark.parametrize("centre", [False, True])
def test_ring_rule_keeps_a_pentagon_and_drops_one_centre(centre):
    # the one ring rule, which both peak_analysis and criterion 6 apply
    structures = _structures(_PENTAGON + [(0.0, 0.0)] * centre)
    assert len(verify._ring_outer(structures)) == 5
    assert verify._classify(structures) == "ring"


def test_ring_rule_needs_five_outer_structures():
    square = [(6.0, 0.0), (0.0, 6.0), (-6.0, 0.0), (0.0, -6.0), (0.0, 0.0)]
    assert len(verify._ring_outer(_structures(square))) == 4
    assert not verify._is_ring(_structures(square))
    assert len(verify._ring_outer([])) == 0
