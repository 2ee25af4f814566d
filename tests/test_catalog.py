"""Catalog-entry tests: anchors, symmetries, and the documented typo fixes."""
import numpy as np
import pytest

import kundu_dnls as kd
from kundu_dnls import catalog
from kundu_dnls.errors import DegenerateEigenvalueError
from kundu_dnls.verify import ConventionVariant, pde_residual

VARIANT = ConventionVariant(1, "independent")
SEED0 = kd.zero_seed()


# ---------------------------------------------------------------------------
# one-soliton
# ---------------------------------------------------------------------------

def test_one_soliton_single_ridge_and_travelling_height():
    ent = catalog.one_soliton(1, 2)
    # ridge height is constant in t: refine each column's max with a parabola
    ts = np.linspace(-5, 5, 21)
    xs = np.linspace(-16, 16, 6401)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    I = np.abs(ent.eval(X, T)) ** 2
    tops = []
    for j in range(len(ts)):
        i = int(np.argmax(I[:, j]))
        y0, y1, y2 = I[i - 1, j], I[i, j], I[i + 1, j]
        tops.append(y1 + 0.125 * (y0 - y2) ** 2 / (y0 - 2 * y1 + y2))
    assert max(tops) - min(tops) <= 1e-8
    # ridge positions follow a straight line (single travelling crest)
    ridge_x = xs[np.argmax(I, axis=0)]
    slope = np.polyfit(ts, ridge_x, 1)[0]
    fit = np.polyval(np.polyfit(ts, ridge_x, 1), ts)
    assert np.max(np.abs(ridge_x - fit)) < 0.02
    assert slope == pytest.approx(-3.0, abs=0.01)


def test_one_soliton_residual_order_two():
    rep = pde_residual(catalog.one_soliton(1, 2).eval, SEED0, VARIANT,
                       kd.Grid2D(-3, 3, -2, 2, 161, 161), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_one_soliton_as_published_fails_residual():
    # the literal arrangement is not localized and does not solve the equation
    rep = pde_residual(catalog.one_soliton(1, 2, form="as_published").eval, SEED0,
                       VARIANT, kd.Grid2D(-2, 2, -1, 1, 81, 81), refinements=2)
    assert rep.estimated_order < 1.0 or rep.norms[-1][1] > 1.0


def test_one_soliton_rejects_degenerate_pair():
    with pytest.raises(DegenerateEigenvalueError):
        catalog.one_soliton(1.0, 0.0)


# ---------------------------------------------------------------------------
# two-soliton
# ---------------------------------------------------------------------------

def test_two_soliton_relabeling_symmetry():
    a = catalog.two_soliton(0.7, 0.3, 0.5, 0.5)
    b = catalog.two_soliton(0.5, 0.5, 0.7, 0.3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-6, 6, (100, 2))
    Ia = np.abs(a.eval(pts[:, 0], pts[:, 1])) ** 2
    Ib = np.abs(b.eval(pts[:, 0], pts[:, 1])) ** 2
    assert np.max(np.abs(Ia - Ib)) <= 1e-10 * np.max(1 + Ia)


def test_two_soliton_residual_order_two():
    rep = pde_residual(catalog.two_soliton(0.7, 0.3, 0.5, 0.5).eval, SEED0, VARIANT,
                       kd.Grid2D(-10, 10, -10, 10, 161, 161), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_two_soliton_published_form_unavailable():
    with pytest.raises(ValueError):
        catalog.two_soliton(0.7, 0.3, 0.5, 0.5, form="as_published")


def test_two_soliton_rejects_equal_pairs():
    with pytest.raises(DegenerateEigenvalueError):
        catalog.two_soliton(0.7, 0.3, 0.7, 0.3)


# ---------------------------------------------------------------------------
# positon
# ---------------------------------------------------------------------------

def test_positon_finite_at_origin():
    ent = catalog.positon(0.8, 0.8)
    v = complex(ent.eval(0.0, 0.0))
    assert np.isfinite(v)
    assert abs(v) ** 2 == pytest.approx(10.24, rel=1e-6)


def test_positon_residual_order_two():
    rep = pde_residual(catalog.positon(0.8, 0.8).eval, SEED0, VARIANT,
                       kd.Grid2D(-10, 10, -10, 10, 321, 321), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_positon_as_published_fails_residual():
    rep = pde_residual(catalog.positon(0.8, 0.8, form="as_published").eval, SEED0,
                       VARIANT, kd.Grid2D(-3, 3, -2, 2, 81, 81), refinements=2)
    assert rep.estimated_order < 1.0 or rep.norms[-1][1] > 1.0


def test_positon_is_coalescence_limit_of_engine():
    ref = kd.sample(catalog.positon(0.8, 0.8).eval, kd.Grid2D(-10, 10, -10, 10, 41, 41))
    spec = kd.DegenerationSpec(lambda_c=0.8 + 0.8j, epsilon=1e-2, n=2)
    fld = kd.sample(kd.degenerate_limit(spec, SEED0, precision="double").Q, ref.grid)
    err, _ = kd.compare_fields(fld, ref)
    assert err <= 2e-2


def _batch_first_positon(lam, x, t):
    """Reference: the exact positon with its three 4x4 stacks built
    batch-first, each in full, with the shifted column written into a fresh
    swapped stack."""
    E = (2 * lam ** 2 * x - lam ** 4 * t) / 8
    dE = lam * (x - lam ** 2 * t) / 2
    phi, vph = np.exp(-1j * E), np.exp(1j * E)
    dphi, dvph = -1j * dE * phi, 1j * dE * vph

    def omega(swap, shifted):
        f, v, df, dv = (vph, phi, dvph, dphi) if swap else (phi, vph, dphi, dvph)
        fo, vo, dfo, dvo = (phi, vph, dphi, dvph) if swap else (vph, phi, dvph, dphi)
        M = np.zeros(np.broadcast(x, t).shape + (4, 4), dtype=complex)
        for col in range(4):
            p = 3 - col
            comp, dcomp = (v, dv) if p % 2 == 1 else (f, df)
            comp_o, dcomp_o = (vo, dvo) if p % 2 == 1 else (fo, dfo)
            M[..., 0, col] = lam ** p * comp
            M[..., 1, col] = np.conj(lam ** p * comp_o)
            M[..., 2, col] = p * lam ** (p - 1) * comp + lam ** p * dcomp
            M[..., 3, col] = np.conj(p * lam ** (p - 1) * comp_o + lam ** p * dcomp_o)
        if shifted:
            M[..., 0, 0] = lam ** 4 * f
            M[..., 1, 0] = np.conj(lam ** 4 * fo)
            M[..., 2, 0] = 4 * lam ** 3 * f + lam ** 4 * df
            M[..., 3, 0] = np.conj(4 * lam ** 3 * fo + lam ** 4 * dfo)
        return kd.numerics.batched_det(M)[0]

    num = np.exp(-1j * (x + t)) * omega(True, False) * omega(True, True)
    return catalog._guard(num, omega(False, False) ** 2)


def test_positon_matrix_first_build_keeps_the_bits():
    X, T = kd.Grid2D(-10, 10, -7, 9, 37, 29).mesh()
    got = catalog.positon(0.8, 0.8).eval(X, T)
    assert got.tobytes() == _batch_first_positon(0.8 + 0.8j, X, T).tobytes()


# ---------------------------------------------------------------------------
# breather
# ---------------------------------------------------------------------------

def test_breather_x_periodicity():
    ent = catalog.breather()
    period = 2 * np.pi / 0.9682458364
    xs = np.linspace(-5, 5, 81)
    ts = np.linspace(-3, 3, 49)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    I0 = np.abs(ent.eval(X, T)) ** 2
    I1 = np.abs(ent.eval(X + period, T)) ** 2
    assert np.max(np.abs(I1 - I0)) <= 1e-6


def test_breather_far_time_bounded():
    ent = catalog.breather()
    for t in (30.0, -30.0):
        v = abs(complex(ent.eval(0.0, t))) ** 2
        assert np.isfinite(v) and v <= 10.0


def test_breather_residual_order_two():
    rep = pde_residual(catalog.breather().eval, SEED0, VARIANT,
                       kd.Grid2D(-5, 5, -3, 3, 161, 161), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_breather_as_published_fails_residual():
    rep = pde_residual(catalog.breather(form="as_published").eval, SEED0, VARIANT,
                       kd.Grid2D(-2, 2, -2, 2, 81, 81), refinements=2)
    assert rep.estimated_order < 1.0 or rep.norms[-1][1] > 0.5


def test_breather_exact_vs_published_differ_by_two_terms_only():
    # regression-lock the two corrections: one exponent sign in the first
    # factor, one imaginary unit in the second factor
    exact = catalog.breather().eval
    published = catalog.breather(form="as_published").eval
    x, t = 0.7, -0.9
    assert complex(exact(x, t)) != pytest.approx(complex(published(x, t)))
    # at x = 0 the flipped exponential is invisible, the missing i is not
    d0 = abs(complex(exact(0.0, t)) - complex(published(0.0, t)))
    assert d0 > 1e-3


# ---------------------------------------------------------------------------
# rogue waves
# ---------------------------------------------------------------------------

def test_rogue1_center_and_far_field():
    ent = catalog.rogue1()
    assert abs(complex(ent.eval(0.0, 0.0))) ** 2 == pytest.approx(9.0, abs=1e-12)
    for x in (50.0, -50.0):
        assert abs(abs(complex(ent.eval(x, 0.0))) ** 2 - 1.0) <= 1e-2


def test_rogue1_background_band():
    ent = catalog.rogue1()
    xs = np.linspace(-50, 50, 201)
    band = np.linspace(30, 50, 41)
    for sgn in (1, -1):
        X, T = np.meshgrid(xs, sgn * band, indexing="ij")
        I = np.abs(ent.eval(X, T)) ** 2
        assert I.min() >= 0.97 and I.max() <= 1.03
        X, T = np.meshgrid(sgn * band, xs, indexing="ij")
        I = np.abs(ent.eval(X, T)) ** 2
        assert I.min() >= 0.97 and I.max() <= 1.03


def test_rogue1_residual_order_two():
    rep = pde_residual(catalog.rogue1().eval, SEED0, VARIANT,
                       kd.Grid2D(-4, 4, -4, 4, 401, 401), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_rogue1_as_published_fails_residual():
    rep = pde_residual(catalog.rogue1(form="as_published").eval, SEED0, VARIANT,
                       kd.Grid2D(-2, 2, -2, 2, 81, 81), refinements=2)
    assert rep.norms[-1][1] > 0.5


def test_rogue1_published_typo_is_one_term():
    # the forms differ exactly by 8i(t^3 - t^2) in the denominator polynomial
    exact = catalog.rogue1().eval
    published = catalog.rogue1(form="as_published").eval
    assert complex(exact(0.3, 1.0)) == pytest.approx(complex(published(0.3, 1.0)))
    assert complex(exact(0.3, 0.5)) != pytest.approx(complex(published(0.3, 0.5)))


def test_rogue2_center_value_locked():
    ent = catalog.rogue2()
    assert abs(complex(ent.eval(0.0, 0.0))) == pytest.approx(5.0, abs=1e-12)


def test_rogue2_residual_order_two():
    rep = pde_residual(catalog.rogue2().eval, SEED0, VARIANT,
                       kd.Grid2D(-4, 4, -4, 4, 641, 641), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_rogue2_as_published_fails_residual():
    rep = pde_residual(catalog.rogue2(form="as_published").eval, SEED0, VARIANT,
                       kd.Grid2D(-2, 2, -2, 2, 81, 81), refinements=2)
    assert rep.norms[-1][1] > 0.5


def test_entries_are_deterministic():
    for make in (lambda: catalog.one_soliton(1, 2), catalog.breather, catalog.rogue1,
                 catalog.rogue2, lambda: catalog.positon(0.8, 0.8),
                 lambda: catalog.two_soliton(0.7, 0.3, 0.5, 0.5)):
        ent = make()
        a = ent.eval(np.array([0.3, -1.2]), np.array([0.4, 0.9]))
        b = ent.eval(np.array([0.3, -1.2]), np.array([0.4, 0.9]))
        assert np.array_equal(a, b)
