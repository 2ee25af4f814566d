"""Grid, stencil, determinant, and extended-precision unit tests."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kundu_dnls import catalog
from kundu_dnls.cli import build_field
from kundu_dnls.darboux import (DegenerationSpec, build_reduced_set, degenerate_limit,
                                one_fold)
from kundu_dnls.errors import GridMismatchError, GridTooSmallError, NonFiniteError
from kundu_dnls.lax import make_plane_wave_seed, zero_seed, zero_seed_eigenfunction
from kundu_dnls.numerics import (ComplexField2D, DDComplexArray, Grid2D,
                                 batched_det, central_diff, dd_batched_det, det,
                                 sample)


# ---------------------------------------------------------------------------
# determinant oracle: brute-force cofactor expansion for n <= 4
# ---------------------------------------------------------------------------

def cofactor_det(m):
    m = np.asarray(m, dtype=complex)
    if m.shape == (1, 1):
        return m[0, 0]
    return sum((-1) ** j * m[0, j] * cofactor_det(np.delete(m[1:], j, axis=1))
               for j in range(m.shape[1]))


def test_det_identity_case():
    assert det(np.array([[1.0]])) == 1.0


def test_det_permutation_matrix():
    assert det(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0


def test_det_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        det(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_det_4x4_spectral_matrix_vs_cofactor_oracle():
    # main determinant layout built from zero-background eigenfunctions at the
    # four conjugate eigenvalues, evaluated at the origin
    lams = [1 + 2j, 1 - 2j, 0.7 + 0.3j, 0.7 - 0.3j]
    rows = []
    for k, lam in enumerate(lams):
        d = zero_seed_eigenfunction(lam)
        if k % 2 == 1:
            phi, vph = np.conj(d.varphi(0, 0)), np.conj(d.phi(0, 0))
        else:
            phi, vph = d.phi(0, 0), d.varphi(0, 0)
        rows.append([lam ** 3 * vph, lam ** 2 * phi, lam * vph, phi])
    m = np.array(rows)
    want = cofactor_det(m)
    assert abs(det(m) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_cofactor_oracle_random(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = cofactor_det(m)
        assert abs(det(m) - want) <= 1e-12 * max(1e-30, abs(want))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.sampled_from([2, 3]))
def test_det_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    lhs = det(a @ b)
    rhs = det(a) * det(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_batched_det_pivot_ratio_flags_singular():
    m = np.zeros((1, 2, 2), dtype=complex)
    m[0] = [[1, 1], [1, 1]]
    d, r = batched_det(m)
    assert abs(d[0]) < 1e-14
    assert r[0] > 1e12 or np.isinf(r[0])


def row_major_batched_det(mats):
    """Reference: the elimination with the batch on the first axis, kept to
    pin down that the batch-last layout changes no bit of the result."""
    a = np.array(mats, dtype=complex)
    m = a.shape[-1]
    lead = a.shape[:-2]
    a = a.reshape((-1, m, m))
    n = a.shape[0]
    sign = np.ones(n, dtype=complex)
    piv_max = np.zeros(n)
    piv_min = np.full(n, np.inf)
    det_val = np.ones(n, dtype=complex)
    for k in range(m):
        rel = np.argmax(np.abs(a[:, k:, k]), axis=1) + k
        swap = np.flatnonzero(rel != k)
        if swap.size:
            r = rel[swap]
            tmp = a[swap, k, :].copy()
            a[swap, k, :] = a[swap, r, :]
            a[swap, r, :] = tmp
            sign[swap] = -sign[swap]
        piv = a[:, k, k]
        ap = np.abs(piv)
        piv_max = np.maximum(piv_max, ap)
        piv_min = np.minimum(piv_min, ap)
        det_val *= piv
        if k < m - 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(ap[:, None] > 0, a[:, k + 1:, k] / piv[:, None], 0.0)
            a[:, k + 1:, k:] -= factor[:, :, None] * a[:, None, k, k:]
    det_val *= sign
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(piv_min > 0, piv_max / piv_min, np.inf)
    return det_val.reshape(lead), ratio.reshape(lead)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_batched_det_bit_identical_to_row_major_reference(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((12, 25, m, m)) + 1j * rng.standard_normal((12, 25, m, m))
    a[0, :, 1, 0] = a[0, :, 0, 0]                   # exact pivot-magnitude ties
    a[1, :, 1, 0] = 1j * a[1, :, 0, 0]
    a[2, :, :, 0] = 0                               # zero pivot in the first column
    a[3, :, 1] = a[3, :, 0]                         # singular: tiny pivot later on
    a[4] = np.round(a[4])                           # many ties among small integers
    keep = a.copy()
    d, r = batched_det(a)
    d_ref, r_ref = row_major_batched_det(a)
    assert d.shape == r.shape == (12, 25)
    assert d.tobytes() == d_ref.tobytes() and r.tobytes() == r_ref.tobytes()
    assert np.isinf(r[2]).all() and (r[3] > 1e12).all()
    assert np.array_equal(a, keep)                  # the input is never modified


# ---------------------------------------------------------------------------
# grids, sampling, stencils
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(GridTooSmallError):
        Grid2D(0, 1, 0, 1, 1, 10)
    with pytest.raises(ValueError):
        Grid2D(1, 0, 0, 1, 10, 10)
    g = Grid2D(-1, 1, 0, 1, 5, 3)
    assert g.hx == pytest.approx(0.5) and g.ht == pytest.approx(0.5)


def test_sample_zero_and_pointwise():
    g = Grid2D(-1, 1, -1, 1, 7, 7)
    z = sample(lambda x, t: 0.0 * x * t, g)
    assert np.all(z.values == 0)
    f = sample(lambda x, t: np.exp(1j * (2 * x + t)), g)
    i0, j0 = 3, 3  # node at the origin
    assert f.values[i0, j0] == pytest.approx(1.0)


def test_sample_flags_non_finite_instead_of_raising():
    g = Grid2D(-1, 1, -1, 1, 5, 5)
    f = sample(lambda x, t: np.where(np.abs(x) < 1e-12, np.nan, 1.0 + 0j), g)
    assert f.invalid[2].all() and not f.invalid[0].any()


def test_sample_propagates_errors_and_rejects_wrong_shapes():
    g = Grid2D(-1, 1, -1, 1, 5, 5)

    def broken(x, t):
        raise ZeroDivisionError("no scalar fallback")
    with pytest.raises(ZeroDivisionError):
        sample(broken, g)
    with pytest.raises(GridMismatchError):
        sample(lambda x, t: x[:, :2] + t[:, :2], g)


def test_sample_passes_broadcast_axes_and_expands_one_axis_results():
    g = Grid2D(-1, 1, 0, 2, 5, 7)

    def probe(x, t):
        assert x.shape == (5, 1) and t.shape == (1, 7)
        return x + 1j * t
    X, T = g.mesh()
    assert np.array_equal(sample(probe, g).values, X + 1j * T)
    for f, want in ((lambda x, t: x + 0j, X + 0j), (lambda x, t: 1j * t, 1j * T)):
        fld = sample(f, g)
        assert fld.values.shape == (5, 7) and np.array_equal(fld.values, want)
        fld.values[0, 0] = 99.0               # a real copy, not a broadcast view
        assert fld.values[1, 1] != 99.0 and fld.values[0, 1] != 99.0


@pytest.mark.parametrize("f", [
    lambda x, t: 1.5 + 0j,                    # scalar: write c + 0 * x + 0 * t
    lambda x, t: np.zeros(5, dtype=complex),  # (nt,) would read as x-constant
    lambda x, t: x[:, 0] + 0j,                # (nx,)
    lambda x, t: (x + t)[None],               # 3-D
], ids=["scalar", "1-d-nt", "1-d-nx", "3-d"])
def test_sample_rejects_results_that_do_not_broadcast_to_the_grid(f):
    with pytest.raises(GridMismatchError):
        sample(f, Grid2D(-1, 1, -1, 1, 5, 5))


def _catalog_fields():
    for make, args, forms, window in [
            (catalog.one_soliton, (1.0, 2.0), ("exact", "as_published"), (-3, 3, -1, 1)),
            (catalog.two_soliton, (0.7, 0.3, 0.5, 0.5), ("exact",), (-10, 10, -10, 10)),
            (catalog.positon, (0.8, 0.8), ("exact", "as_published"), (-10, 10, -10, 10)),
            (catalog.breather, (), ("exact", "as_published"), (-5, 5, -3, 3)),
            (catalog.rogue1, (), ("exact", "as_published"), (-4, 4, -4, 4)),
            (catalog.rogue2, (), ("exact", "as_published"), (-4, 4, -4, 4))]:
        for form in forms:
            yield pytest.param(make(*args, form=form).eval, Grid2D(*window, 41, 37),
                               id=f"{make.__name__}-{form}")


def _engine_fields():
    seed0, seed = zero_seed(), make_plane_wave_seed(-2.0, 1.0, 1.0)
    yield pytest.param(one_fold(build_reduced_set([1 + 2j], seed0), seed0).Q,
                       Grid2D(-3, 3, -1, 1, 21, 17), id="one_fold")
    fig9 = build_field("rogue3", dict(S0=0.0, S1=500.0, S2=0.0, eps=4e-3), "double")
    yield pytest.param(fig9, Grid2D(-40, 40, -40, 40, 23, 19), id="n_fold-fig9")
    extended = degenerate_limit(DegenerationSpec(1 + 1j, 5e-4, 2), seed, precision="extended")
    yield pytest.param(extended.Q, Grid2D(-2, 2, -1.5, 1.5, 5, 5),
                       id="degenerate_limit-extended")


@pytest.mark.parametrize("f, g", [*_catalog_fields(), *_engine_fields()])
def test_sample_gives_the_bits_of_the_materialized_mesh(f, g):
    with np.errstate(all="ignore"):
        want = np.asarray(f(*g.mesh()), dtype=complex)
    assert sample(f, g).values.tobytes() == want.tobytes()


def test_central_diff_exponential_and_order():
    g = Grid2D(-1, 1, 0, 1, 401, 5)
    f = sample(lambda x, t: np.exp(1j * x) + 0 * t, g)
    d = central_diff(f, "x", 1)
    want = 1j * f.values
    err = np.abs(d.values - want)[1:-1, :].max()
    assert err <= 1e-4

    # halving hx reduces the max interior error by a factor in [3.5, 4.5]
    def interior_err(n):
        gg = Grid2D(-1, 1, 0, 1, n, 5)
        ff = sample(lambda x, t: np.exp(1.3 * x) + 0 * t, gg)
        dd = central_diff(ff, "x", 1)
        return np.abs(dd.values - 1.3 * ff.values)[1:-1, :].max()

    factor = interior_err(201) / interior_err(401)
    assert 3.5 <= factor <= 4.5


def test_central_diff_constant_and_quadratic():
    g = Grid2D(-2, 2, 0, 1, 41, 5)
    const = sample(lambda x, t: (1.5 - 0.5j) * np.ones_like(x), g)
    assert np.abs(central_diff(const, "x", 1).values).max() <= 1e-13
    quad = sample(lambda x, t: x ** 2 + 0j * t, g)
    d2 = central_diff(quad, "x", 2)
    assert np.abs(d2.values[1:-1, :] - 2.0).max() <= 1e-8


def test_central_diff_requires_five_samples():
    g = Grid2D(-1, 1, 0, 1, 4, 6)
    f = sample(lambda x, t: x + 0j * t, g)
    with pytest.raises(GridTooSmallError):
        central_diff(f, "x", 1)
    assert central_diff(f, "t", 1) is not None


def test_central_diff_marks_degraded_boundaries():
    g = Grid2D(-1, 1, 0, 1, 11, 7)
    f = sample(lambda x, t: x ** 3 + 0j * t, g)
    d = central_diff(f, "x", 1)
    assert d.degraded[0].all() and d.degraded[-1].all()
    assert not d.degraded[1:-1].any()


def test_field_shape_validation():
    g = Grid2D(-1, 1, 0, 1, 5, 5)
    with pytest.raises(Exception):
        ComplexField2D(g, np.zeros((4, 5), dtype=complex))


# ---------------------------------------------------------------------------
# double-double arithmetic
# ---------------------------------------------------------------------------

def test_dd_roundtrip_and_arithmetic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    da, db = DDComplexArray.from_complex(a), DDComplexArray.from_complex(b)
    assert np.allclose((da * db).to_complex(), a * b, rtol=1e-15)
    assert np.allclose((da + db).to_complex(), a + b, rtol=1e-15)
    assert np.allclose((da / db).to_complex(), a / b, rtol=1e-14)


def test_dd_mul_captures_sub_double_error():
    # (1 + 2^-40) * (1 - 2^-40) = 1 - 2^-80: the correction lives in the low word
    eps = 2.0 ** -40
    a = DDComplexArray.from_complex(np.array([1.0 + 0j])) + \
        DDComplexArray.from_complex(np.array([eps + 0j]))
    b = DDComplexArray.from_complex(np.array([1.0 + 0j])) + \
        DDComplexArray.from_complex(np.array([-eps + 0j]))
    prod = a * b
    assert prod.re_hi[0] == 1.0
    assert prod.re_lo[0] == pytest.approx(-eps * eps, rel=1e-12)


def test_dd_det_matches_mpmath_on_clustered_matrix():
    eps = 1e-6
    base = np.array([[1.0, 1.0, 1.0],
                     [1.0, 1.0 + eps, 1.0 + 2 * eps],
                     [1.0, 1.0 + 2 * eps, 1.0 + 4.1 * eps]], dtype=complex) * (1 + 0.3j)
    dd = DDComplexArray.from_complex(base[None])
    d, _ = dd_batched_det(dd)
    with mp.workdps(40):
        ref = mp.det(mp.matrix([[mp.mpc(base[i, j]) for j in range(3)] for i in range(3)]))
        rel = abs(mp.mpc(complex(d.to_complex()[0])) - ref) / abs(ref)
    assert rel < 1e-15  # double-double floor; plain doubles sit near 1e-4 here


def test_dd_from_mp_preserves_extra_digits():
    with mp.workdps(40):
        val = mp.mpf(1) / mp.mpf(3) + mp.mpc(0, 1) * mp.mpf(1) / mp.mpf(7)
        dd = DDComplexArray.from_mp(np.array([[val]], dtype=object))
        err = abs(mp.mpf(dd.re_hi[0, 0]) + mp.mpf(dd.re_lo[0, 0]) - mp.mpf(1) / 3)
    assert err < mp.mpf(10) ** -30


def batch_first_dd_batched_det(mat):
    """Reference: the double-double elimination with the batch on the first
    axis, kept to pin down that the batch-last layout changes no bit."""
    shp = mat.shape
    m = shp[-1]
    lead = shp[:-2]
    n = int(np.prod(lead)) if lead else 1
    a = DDComplexArray(mat.re_hi.reshape(n, m, m).copy(), mat.re_lo.reshape(n, m, m).copy(),
                       mat.im_hi.reshape(n, m, m).copy(), mat.im_lo.reshape(n, m, m).copy())
    det = DDComplexArray.from_complex(np.ones(n, dtype=complex))
    sign = np.ones(n)
    piv_max = np.zeros(n)
    piv_min = np.full(n, np.inf)
    idx = np.arange(n)
    parts = ("re_hi", "re_lo", "im_hi", "im_lo")
    for k in range(m):
        mags = a[idx[:, None], np.arange(k, m)[None, :], k].abs_hi()
        rel = np.argmax(mags, axis=1) + k
        swap = np.flatnonzero(rel != k)
        if swap.size:
            r = rel[swap]
            for part in parts:
                arr = getattr(a, part)
                tmp = arr[swap, k, :].copy()
                arr[swap, k, :] = arr[swap, r, :]
                arr[swap, r, :] = tmp
            sign[swap] = -sign[swap]
        piv = a[:, k, k]
        ap = piv.abs_hi()
        piv_max = np.maximum(piv_max, ap)
        piv_min = np.minimum(piv_min, ap)
        det = det * piv
        if k < m - 1:
            safe = ap > 0
            piv_safe = DDComplexArray(np.where(safe, piv.re_hi, 1.0), np.where(safe, piv.re_lo, 0.0),
                                      np.where(safe, piv.im_hi, 0.0), np.where(safe, piv.im_lo, 0.0))
            below = a[:, k + 1:, k]
            factor = below / DDComplexArray(*(
                np.broadcast_to(getattr(piv_safe, p)[:, None], below.shape).copy() for p in parts))
            factor = DDComplexArray(*(np.where(safe[:, None], getattr(factor, p), 0.0)
                                      for p in parts))
            fexp = DDComplexArray(*(np.broadcast_to(getattr(factor, p)[:, :, None],
                                                    (n, m - k - 1, m - k)).copy() for p in parts))
            prow = a[:, k, k:]
            pexp = DDComplexArray(*(np.broadcast_to(getattr(prow, p)[:, None, :],
                                                    (n, m - k - 1, m - k)).copy() for p in parts))
            a[:, k + 1:, k:] = a[:, k + 1:, k:] - fexp * pexp
    det = det * DDComplexArray(sign, np.zeros(n), np.zeros(n), np.zeros(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(piv_min > 0, piv_max / piv_min, np.inf)
    return (DDComplexArray(*(getattr(det, p).reshape(lead) for p in parts)),
            ratio.reshape(lead))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_dd_batched_det_bit_identical_to_batch_first_reference(m):
    rng = np.random.default_rng(m)
    hi = rng.standard_normal((12, 5, m, m)) + 1j * rng.standard_normal((12, 5, m, m))
    hi[0, :, 1, 0] = hi[0, :, 0, 0]                 # exact pivot-magnitude ties
    hi[1, :, 1, 0] = 1j * hi[1, :, 0, 0]
    hi[2, :, :, 0] = 0                              # zero pivot in the first column
    hi[3, :, 1] = hi[3, :, 0]                       # singular: tiny pivot later on
    hi[4] = np.round(hi[4])                         # many ties among small integers
    hi[5, :, m - 1] = 0                             # a zero row
    lo = 1e-17 * (rng.standard_normal(hi.shape) + 1j * rng.standard_normal(hi.shape))
    lo[hi == 0] = 0
    hi[6, :, :, 0] = 0                              # a column of low words only
    mat = DDComplexArray(hi.real.copy(), lo.real.copy(), hi.imag.copy(), lo.imag.copy())
    keep = mat.copy()
    d, r = dd_batched_det(mat)
    d_ref, r_ref = batch_first_dd_batched_det(mat)
    assert d.shape == r.shape == (12, 5)
    for part in ("re_hi", "re_lo", "im_hi", "im_lo"):
        assert getattr(d, part).tobytes() == getattr(d_ref, part).tobytes()
        assert np.array_equal(getattr(mat, part), getattr(keep, part))
    assert r.tobytes() == r_ref.tobytes()
    assert np.isinf(r[2]).all() and np.isinf(r[5]).all() and np.isinf(r[6]).all()
    assert (r[3] > 1e12).all()
