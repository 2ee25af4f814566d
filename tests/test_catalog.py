"""Catalog-entry tests: anchors, symmetries, and the documented typo fixes."""
import ast
import inspect

import mpmath as mp
import numpy as np
import pytest

import kundu_dnls as kd
from kundu_dnls import catalog
from kundu_dnls.verify import ConventionVariant, _field_operator, pde_residual

import published_forms

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
    rep = pde_residual(published_forms.one_soliton(1, 2), SEED0,
                       VARIANT, kd.Grid2D(-2, 2, -1, 1, 81, 81), refinements=2)
    assert rep.estimated_order < 1.0 or rep.norms[-1][1] > 1.0


def test_one_soliton_rejects_degenerate_pair():
    with pytest.raises(ValueError, match="n1 = 0 collapses the eigenvalue pair"):
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
    # its published table is not evaluable, so neither the catalog nor the
    # published forms offer it
    with pytest.raises(TypeError):
        catalog.two_soliton(0.7, 0.3, 0.5, 0.5, form="as_published")
    assert not hasattr(published_forms, "two_soliton")


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
def test_zero_background_entries_reject_a_coupling_that_is_not_positive(alpha):
    # NaN fails the positivity test, as for the engine's seeds, instead of
    # giving an all-NaN field
    for make in (lambda: catalog.one_soliton(1.0, 2.0, alpha),
                 lambda: catalog.two_soliton(0.7, 0.3, 0.5, 0.5, alpha),
                 lambda: catalog.positon(0.8, 0.8, alpha)):
        with pytest.raises(ValueError, match="alpha must be positive"):
            make()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make, params, name", [
    pytest.param(make, params, name, id=f"{make.__name__}-{name}")
    for make, params in [(catalog.one_soliton, dict(m1=1.0, n1=2.0)),
                         (catalog.two_soliton, dict(m1=0.7, n1=0.3, m2=0.5, n2=0.5)),
                         (catalog.positon, dict(re1=0.8, im1=0.8))]
    for name in [*params, "alpha", "theta_p", "theta_q"]])
def test_zero_background_entries_reject_a_parameter_that_is_not_finite(make, params, name,
                                                                      value):
    # a NaN passes the == tests on the eigenvalue parameters, and would give
    # an entry that is NaN at every node
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        make(**{**params, name: value})


def test_two_soliton_rejects_equal_pairs():
    with pytest.raises(ValueError, match="eigenvalue pairs must be distinct and off-axis"):
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
    rep = pde_residual(published_forms.positon(0.8, 0.8), SEED0,
                       VARIANT, kd.Grid2D(-3, 3, -2, 2, 81, 81), refinements=2)
    assert rep.estimated_order < 1.0 or rep.norms[-1][1] > 1.0


def test_positon_is_coalescence_limit_of_engine():
    ref = kd.sample(catalog.positon(0.8, 0.8).eval, kd.Grid2D(-10, 10, -10, 10, 41, 41))
    spec = kd.DegenerationSpec(lambda_c=0.8 + 0.8j, epsilon=1e-2, n=2)
    fld = kd.sample(kd.degenerate_limit(spec, SEED0).Q, ref.grid)
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


def test_positon_agrees_with_elimination():
    # the catalog's own expansion against the engine's pivoted elimination
    X, T = kd.Grid2D(-10, 10, -7, 9, 37, 29).mesh()
    got = catalog.positon(0.8, 0.8).eval(X, T)
    want = _batch_first_positon(0.8 + 0.8j, X, T)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _mp_positon(lam, x, t):
    """The exact positon at one node in mpmath: the three 4x4 matrices of
    `_batch_first_positon` (the shifted one has power 4 in column 0), each
    determinant by mpmath's own elimination."""
    lam, x, t = mp.mpc(lam), mp.mpf(x), mp.mpf(t)
    E = (2 * lam ** 2 * x - lam ** 4 * t) / 8
    dE = lam * (x - lam ** 2 * t) / 2
    phi, vph = mp.exp(-1j * E), mp.exp(1j * E)
    dphi, dvph = -1j * dE * phi, 1j * dE * vph

    def omega(swap, shifted):
        f, v, df, dv = (vph, phi, dvph, dphi) if swap else (phi, vph, dphi, dvph)
        fo, vo, dfo, dvo = (phi, vph, dphi, dvph) if swap else (vph, phi, dvph, dphi)
        M = mp.matrix(4, 4)
        for col in range(4):
            p = 4 if shifted and col == 0 else 3 - col
            comp, dcomp = (v, dv) if p % 2 == 1 else (f, df)
            comp_o, dcomp_o = (vo, dvo) if p % 2 == 1 else (fo, dfo)
            M[0, col] = lam ** p * comp
            M[1, col] = mp.conj(lam ** p * comp_o)
            M[2, col] = p * lam ** (p - 1) * comp + lam ** p * dcomp
            M[3, col] = mp.conj(p * lam ** (p - 1) * comp_o + lam ** p * dcomp_o)
        return mp.det(M)

    num = mp.exp(-1j * (x + t)) * omega(True, False) * omega(True, True)
    return complex(num / omega(False, False) ** 2)


def test_positon_matches_mpmath_as_closely_as_elimination():
    # 30 fixed nodes of the criterion-2 window; the worst pointwise relative
    # errors are 1.3e-14 for the 4 x 5 expansion and 4.3e-15 for elimination
    x, t = np.random.default_rng(3).uniform(-10, 10, (2, 30))
    with mp.workdps(40):
        ref = np.array([_mp_positon(0.8 + 0.8j, a, b) for a, b in zip(x, t)])
    for got in (catalog.positon(0.8, 0.8).eval(x, t), _batch_first_positon(0.8 + 0.8j, x, t)):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_catalog_determinant_matches_mpmath():
    # the contract of the engine's elimination on a 4 x 5 stack: det[j] is
    # the determinant of columns 0-2 completed by column 3 + j
    rng = np.random.default_rng(17)
    mats = rng.normal(size=(3, 5, 4, 5)) + 1j * rng.normal(size=(3, 5, 4, 5))
    mats[0, 0] *= 1e3                       # a scaled matrix
    mats[0, 1, 3] = mats[0, 1, 2]           # both determinants singular
    mats[0, 2, :, 4] = mats[0, 2, :, 1]     # the second one singular
    before = mats.copy()
    got = catalog.batched_det(mats)
    assert got.shape == (2, 3, 5)
    assert np.array_equal(mats, before)     # the input is only read
    # a matrix-first stack seen through a (..., 4, 5) view, and one matrix
    first = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))
    assert np.array_equal(catalog.batched_det(np.moveaxis(first, (0, 1), (-2, -1))), got)
    single = catalog.batched_det(mats[1, 2])
    assert single.shape == (2,) and np.array_equal(single, got[:, 1, 2])
    elim, _ = kd.numerics.batched_det(mats.copy())
    assert elim.shape == got.shape
    with mp.workdps(40):
        for j in range(2):
            for m, d, e in zip(mats[..., [0, 1, 2, 3 + j]].reshape(-1, 4, 4),
                               got[j].ravel(), elim[j].ravel()):
                ref = complex(mp.det(mp.matrix(m.tolist())))
                # the Hadamard bound: no term of the expansion exceeds it
                scale = np.prod(np.linalg.norm(m, axis=1))
                assert abs(d - ref) <= 1e-15 * scale
                assert abs(d - e) <= 1e-15 * scale


def test_catalog_shares_no_code_with_the_engine():
    from kundu_dnls.numerics import determinant
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(catalog))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{a.name}" if node.module else a.name
                            for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    for banned in ("darboux", "lax", "numerics", "numerics.determinant"):
        assert not any(m == banned or m.startswith(banned + ".") for m in imported), imported
    assert catalog.batched_det is not determinant.batched_det


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
    rep = pde_residual(published_forms.breather(), SEED0, VARIANT,
                       kd.Grid2D(-2, 2, -2, 2, 81, 81), refinements=2)
    assert rep.estimated_order < 1.0 or rep.norms[-1][1] > 0.5


def test_breather_printed_b3_is_minus_conj_b1():
    # what lets `breather` take its denominator from b1 on real x, t: the
    # two are equal at every node (at the origin a zero part differs in
    # sign), and the field keeps the bits of the printed denominator
    X, T = kd.Grid2D(-5, 5, -3, 3, 201, 161).mesh()
    b1, b2 = catalog._breather_factors(X, T)
    b3 = published_forms.breather_b3(X, T)
    assert np.array_equal(-np.conj(b1), b3)
    printed = catalog._guard(-b1 * b2, 2 * b3 ** 2)
    assert catalog.breather().eval(X, T).tobytes() == printed.tobytes()


def test_breather_exact_vs_published_differ_by_two_terms_only():
    # regression-lock the two corrections: one exponent sign in the first
    # factor, one imaginary unit in the second factor
    exact = catalog.breather().eval
    published = published_forms.breather()
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
    rep = pde_residual(published_forms.rogue1(), SEED0, VARIANT,
                       kd.Grid2D(-2, 2, -2, 2, 81, 81), refinements=2)
    assert rep.norms[-1][1] > 0.5


def test_rogue1_published_typo_is_one_term():
    # the forms differ exactly by 8i(t^3 - t^2) in the denominator polynomial
    exact = catalog.rogue1().eval
    published = published_forms.rogue1()
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
    rep = pde_residual(published_forms.rogue2(), SEED0, VARIANT,
                       kd.Grid2D(-2, 2, -2, 2, 81, 81), refinements=2)
    assert rep.norms[-1][1] > 0.5


# rogue2's printed denominator factor f3, one row (coefficient, x power,
# t power) per printed term; the catalog derives it from f1 instead
_ROGUE2_F3 = [(-48j, 3, 0), (-48j, 3, 2), (288j, 1, 2), (-54j, 1, 0), (-24j, 1, 4),
              (72, 1, 1), (-48, 3, 1), (216, 2, 2), (-24, 2, 4), (-24j, 5, 0), (-90, 2, 0),
              (-666, 0, 2), (24j, 0, 5), (12, 4, 0), (-180, 0, 4), (-8, 0, 6), (-8, 6, 0),
              (-48, 1, 3), (24j, 4, 1), (198j, 0, 1), (336j, 0, 3), (-9, 0, 0),
              (48j, 2, 3), (-24, 4, 2)]


def test_rogue2_printed_f3_is_minus_conj_f1_row_by_row():
    # what lets `rogue2` take its denominator from f1 on real x, t
    def table(rows):
        out = {}
        for c, i, j in rows:
            assert (i, j) not in out
            out[i, j] = complex(c)
        return out
    assert table(_ROGUE2_F3) == {k: -np.conj(c) for k, c in table(catalog._ROGUE2_F1).items()}


def _exact_rogue_residual(num_rows, den_rows, x, t):
    """Field-equation residual of Q = -(N/D) exp(-i(2x + t)) by exact
    substitution: every derivative comes from differentiating the rows."""
    def poly(rows, dx=0, dt=0):
        for _ in range(dx):
            rows = [(c * i, i - 1, j) for c, i, j in rows if i]
        for _ in range(dt):
            rows = [(c * j, i, j - 1) for c, i, j in rows if j]
        return catalog._polynomial(rows)(x, t)

    N, D = poly(num_rows), poly(den_rows)
    f = N / D
    fx = (poly(num_rows, dx=1) - f * poly(den_rows, dx=1)) / D
    ft = (poly(num_rows, dt=1) - f * poly(den_rows, dt=1)) / D
    fxx = (poly(num_rows, dx=2) - 2 * fx * poly(den_rows, dx=1)
           - f * poly(den_rows, dx=2)) / D
    e = -np.exp(-1j * (2 * x + t))
    Q, Qx, Qxx, Qt = f * e, (fx - 2j * f) * e, (fxx - 4j * fx - 4 * f) * e, (ft - 1j * f) * e
    cubic = Q * Q * np.conj(Q)
    Cx = 2 * Q * Qx * np.conj(Q) + Q * Q * np.conj(Qx)
    return np.abs(_field_operator(Q, Qt, Qx, Qxx, cubic, Cx, SEED0, VARIANT.nonlinear_sign))


@pytest.mark.parametrize("form, solves", [("exact", True), ("as_published", False)])
def test_rogue_row_tables_solve_the_equation_exactly(form, solves):
    # every row enters the residual, so a wrong coefficient or power shows
    # at its own size, far above rounding; the published typo is one row
    published = form == "as_published"
    den1 = published_forms.ROGUE1_DEN if published else catalog._ROGUE1_DEN
    f2 = published_forms.ROGUE2_F2 if published else catalog._ROGUE2_F2
    x, t = np.random.default_rng(7).uniform(-3, 3, (2, 25))
    r1 = _exact_rogue_residual(catalog._ROGUE1_NUM, den1, x, t)
    # rogue2: Q = -f1 f2 exp(-i(2x + t)) / f3^2, so N = f1 f2 and D = f3^2
    num = [(a * b, i + k, j + m) for a, i, j in catalog._ROGUE2_F1 for b, k, m in f2]
    den = [(a * b, i + k, j + m) for a, i, j in _ROGUE2_F3 for b, k, m in _ROGUE2_F3]
    r2 = _exact_rogue_residual(num, den, x, t)
    for r in (r1, r2):
        assert (r.max() <= 1e-12) if solves else (np.median(r) > 1e-2)


def test_entries_are_deterministic():
    for make in (lambda: catalog.one_soliton(1, 2), catalog.breather, catalog.rogue1,
                 catalog.rogue2, lambda: catalog.positon(0.8, 0.8),
                 lambda: catalog.two_soliton(0.7, 0.3, 0.5, 0.5)):
        ent = make()
        a = ent.eval(np.array([0.3, -1.2]), np.array([0.4, 0.9]))
        b = ent.eval(np.array([0.3, -1.2]), np.array([0.4, 0.9]))
        assert np.array_equal(a, b)
