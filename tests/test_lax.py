"""Seed, eigenfunction, and Lax-residual tests."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kundu_dnls as kd
from kundu_dnls import lax
from kundu_dnls.darboux import SpectralSet, n_fold
from kundu_dnls.lax import (ExpSum, SpectralDatum, branch_quantity, check_lax_residual,
                            critical_eigenvalue, make_plane_wave_seed, nearest_branch_point,
                            plane_wave_eigenfunction, zero_seed, zero_seed_eigenfunction)
from kundu_dnls.verify import ConventionVariant, pde_residual

import mp_reference
from oracles import unfolded_four_term_components


# ---------------------------------------------------------------------------
# seeds and the frequency constraint
# ---------------------------------------------------------------------------

def test_constraint_derived_frequency_values():
    assert make_plane_wave_seed(-2.0, 1.0, 1.0).b == -1.0
    assert make_plane_wave_seed(0.0, 0.0, 1.0).b == -2.0


def test_constraint_holds_bit_for_bit():
    # the DNLS frame: wavenumber k = a + p, amplitude C = sqrt(alpha) c, and
    # b + q the DNLS plane wave's frequency -k^2 - C^2 k
    seed = make_plane_wave_seed(0.37, 1.21, 0.64, -0.3, 0.45)
    k, C = 0.37 + -0.3, 0.8 * 1.21
    assert (seed.k, seed.C) == (k, C)
    assert seed.b == -k * k - C * C * k - 0.45
    # the default frame is k = -1, C = 1 exactly
    assert (kd.Seed(a=-2.0, c=1.0).k, kd.Seed(a=-2.0, c=1.0).C) == (-1.0, 1.0)


def test_plane_wave_seed_value_at_origin():
    assert make_plane_wave_seed(-2.0, 1.0, 1.0).value(0.0, 0.0) == pytest.approx(1.0)


def test_zero_coupling_rejected():
    # zero fails the one positivity test of the coupling
    with pytest.raises(ValueError, match=r"coupling alpha must be positive, got 0\.0"):
        make_plane_wave_seed(-2.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"coupling alpha must be positive, got 0\.0"):
        zero_seed(0.0)


def test_negative_coupling_rejected():
    # the engine scales by sqrt(alpha); a negative coupling would give NaN fields
    with pytest.raises(ValueError):
        make_plane_wave_seed(-2.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        zero_seed(-1.0)


def test_directly_built_seeds_check_themselves():
    # the checks live in the seed type, so no constructor path skips them
    with pytest.raises(ValueError, match=r"coupling alpha must be positive, got 0\.0"):
        kd.Seed(alpha=0.0)
    with pytest.raises(ValueError, match=r"coupling alpha must be positive, got 0\.0"):
        kd.Seed(a=-2.0, c=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        kd.Seed(alpha=-1.0)
    with pytest.raises(ValueError):
        kd.Seed(a=-2.0, c=1.0, alpha=-1.0)
    with pytest.raises(ValueError):
        kd.Seed(a=-2.0, c=-1.0)
    for bad in (dict(alpha=np.nan), dict(c=np.nan)):   # NaN fails every comparison
        with pytest.raises(ValueError):
            kd.Seed(**{"a": -2.0, "c": 1.0, **bad})
    with pytest.raises(ValueError):
        kd.Seed(alpha=np.nan)
    assert kd.Seed(a=0.0, c=0.0).b == -2.0


def test_zero_background_refuses_a_wavenumber():
    # a enters only through the amplitude c: on c = 0 it would be dropped
    for a in (1.0, -2.0, 1e-300):
        with pytest.raises(ValueError, match=rf"^a must be 0 on the zero background .* got {a}"):
            kd.Seed(a=a, c=0.0)
    assert kd.Seed(a=0.0, c=0.0) == kd.Seed() == zero_seed()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make, name", [
    *[(make_plane_wave_seed, name) for name in ("a", "c", "alpha", "theta_p", "theta_q")],
    *[(zero_seed, name) for name in ("alpha", "theta_p", "theta_q")],
    *[(kd.DegenerationSpec, name) for name in ("S0", "S1", "S2")]])
def test_non_finite_numbers_are_rejected_where_they_enter(make, name, value):
    # each would give a field that is NaN at every node; NaN and -inf fail
    # the coupling's and the amplitude's own tests first, which name them too
    params = {make_plane_wave_seed: {"a": -2.0, "c": 1.0},
              kd.DegenerationSpec: {"lambda_c": 1 + 1j, "epsilon": 1e-2, "n": 2}}.get(make, {})
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        make(**{**params, name: value})


# ---------------------------------------------------------------------------
# zero-seed eigenfunctions
# ---------------------------------------------------------------------------

def test_zero_seed_eigenfunction_origin_and_product():
    d = zero_seed_eigenfunction(1 + 2j)
    assert d.phi(0.0, 0.0) == pytest.approx(1.0)
    assert d.varphi(0.0, 0.0) == pytest.approx(1.0)
    # product of the two exponentials is identically one, any lambda
    rng = np.random.default_rng(0)
    for lam in (1 + 2j, 0.7 - 0.4j, 2.0 + 0.0001j):
        dd = zero_seed_eigenfunction(lam)
        pts = rng.uniform(-3, 3, (50, 2))
        prod = dd.phi(pts[:, 0], pts[:, 1]) * dd.varphi(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(prod - 1.0)) <= 1e-14


def test_zero_seed_eigenfunction_value_at_x1():
    # lambda = 1+2i at (1, 0): phi = exp(-(i/4)(1+2i)^2) = exp(1 + 0.75i)
    d = zero_seed_eigenfunction(1 + 2j)
    assert complex(d.phi(1.0, 0.0)) == pytest.approx(np.exp(1 + 0.75j))


def test_zero_seed_rejects_zero_eigenvalue():
    with pytest.raises(ValueError, match="lambda must be nonzero"):
        zero_seed_eigenfunction(0.0)


def test_zero_seed_components_take_the_block_shape():
    # the components of a block broadcast x against t, as `sample` passes
    # them, and match the closed form; a point is a 0-d block
    lam = 0.9 + 1.1j
    d = zero_seed_eigenfunction(lam)
    x, t = np.array([[0.37], [1.2]]), np.array([[-0.81, 0.5, 2.0]])
    p, v = d.phi(x, t), d.varphi(x, t)
    assert p.shape == v.shape == (2, 3)
    closed = np.exp(-0.125j * (2 * lam ** 2 * x - lam ** 4 * t))
    assert np.allclose(p, closed, rtol=1e-14, atol=0)
    assert np.allclose(v, 1 / closed, rtol=1e-14, atol=0)
    point = d.phi(0.37, -0.81)
    assert np.ndim(point) == 0 and complex(point) == pytest.approx(complex(closed[0, 0]), rel=1e-14)


# ---------------------------------------------------------------------------
# branch quantity and plane-wave eigenfunctions
# ---------------------------------------------------------------------------

def test_branch_quantity_reduces_on_reference_background():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    for lam in (0.5 + 1j, 1.3 - 0.2j, 0.1 + 0.1j):
        assert complex(branch_quantity(lam, seed)) == pytest.approx(
            complex(np.sqrt(np.asarray(lam ** 4 + 4, dtype=complex))))


def test_branch_point_at_critical_eigenvalue():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    assert abs(branch_quantity(1 + 1j, seed)) <= 1e-12
    assert critical_eigenvalue(seed) == 1 + 1j   # 1 + sqrt(-1), exactly


@pytest.mark.parametrize("a, c, newton_root", [
    (-3.0, 0.5, 0.4999999999999999 + 1.9364916731037085j),
    (-2.5, 1.2, 1.2 + 1.2489995996796797j),
], ids=["a-3-c0.5", "a-2.5-c1.2"])
def test_critical_eigenvalue_matches_newton_root(a, c, newton_root):
    # the roots of a Newton iteration on the radicand started at 1 + 1j
    seed = make_plane_wave_seed(a, c, 1.0)
    root = critical_eigenvalue(seed)
    assert abs(root - newton_root) <= 1e-12
    assert root.real > 0 and root.imag > 0
    assert abs(branch_quantity(root, seed)) <= 1e-7


@pytest.mark.parametrize("a, c, alpha, p", [
    (-3.0, 0.5, 1.0, 1.0), (-2.5, 1.2, 1.0, 1.0),
    *((a, c, alpha, p) for a in (-2.0, -3.5) for c in (0.5, 1.0) for alpha in (0.7, 1.3)
      for p in (0.3, 1.0)),
])
def test_critical_eigenvalue_is_the_branch_point_it_is_compared_against(a, c, alpha, p):
    # one root, C + sqrt(C^2 + 2k): the exact limit expands at the nearest
    # branch point, so at the seed's own lambda_c the two agree bit for bit,
    # and the root's real part is C, its imaginary part from an imaginary r
    seed = make_plane_wave_seed(a, c, alpha, theta_p=p)
    lc = critical_eigenvalue(seed)
    assert nearest_branch_point(lc, seed) == (lc, True)
    assert lc.real == seed.C


def test_critical_eigenvalue_rejects_a_real_root():
    with pytest.raises(ValueError, match="critical eigenvalue .* is real"):
        critical_eigenvalue(make_plane_wave_seed(-1.3, 0.8, 1.0))


@settings(max_examples=100, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_branch_quantity_squares_back(re, im):
    lam = complex(re, im)
    if lam == 0:
        return
    seed = make_plane_wave_seed(-1.3, 0.8, 1.0)
    s = complex(branch_quantity(lam, seed))
    a, c = seed.a, seed.c
    rad = (4 * a * a - 4 * a * lam ** 2 + 8 * a + lam ** 4 - 4 * lam ** 2 + 4
           - 4 * lam ** 2 * c * c)
    assert abs(s * s - rad) <= 1e-12 * max(1.0, abs(rad))


def test_plane_wave_eigenfunction_linearity_in_weights():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    lam = 0.6 + 0.9j
    d10 = plane_wave_eigenfunction(lam, seed, weights=(1, 0))
    d01 = plane_wave_eigenfunction(lam, seed, weights=(0, 1))
    D1, D2 = 0.4 - 0.7j, 1.3 + 0.2j
    dw = plane_wave_eigenfunction(lam, seed, weights=(D1, D2))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, (40, 2))
    for comp in ("phi", "varphi"):
        got = getattr(dw, comp)(pts[:, 0], pts[:, 1])
        want = (D1 * getattr(d10, comp)(pts[:, 0], pts[:, 1])
                + D2 * getattr(d01, comp)(pts[:, 0], pts[:, 1]))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want) + 1)


def test_plane_wave_refuses_zero_weights():
    # both weights zero make the eigenfunction vanish, and every node of the
    # transformed field NaN; a single zero weight picks one branch
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    for w in ((0, 0), (0.0, -0j)):
        with pytest.raises(ValueError, match=r"^branch weights .* are both zero"):
            plane_wave_eigenfunction(0.6 + 0.9j, seed, weights=w)
    for w in ((1, 0), (0, 1)):
        assert plane_wave_eigenfunction(0.6 + 0.9j, seed, weights=w).phi(0.3, -0.4) != 0


@pytest.mark.parametrize("weights, name", [((np.nan, 1), "D1"), ((np.inf, 1), "D1"),
                                           ((1, complex(np.nan, 1)), "D2")])
def test_plane_wave_refuses_non_finite_weights(weights, name):
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=rf"^branch weight {name} must be finite"):
        plane_wave_eigenfunction(0.6 + 0.9j, seed, weights=weights)


def test_plane_wave_refuses_a_vanishing_eigenfunction():
    # at the critical eigenvalue 1 + i of (a, c) = (-2, 1) both prefactors
    # u-+ are exactly 0, so every constant is 0 whatever the weights
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    for w in ((1.0, 1.0), (1, 2), (0.3j, -4.0)):
        with pytest.raises(ValueError, match=r"^both prefactors u-\+ vanish at lambda \(1\+1j\)"):
            plane_wave_eigenfunction(1 + 1j, seed, weights=w)


def test_plane_wave_components_finite_at_origin():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    for lam in (0.5 + 1j, 1.4 - 0.3j):
        d = plane_wave_eigenfunction(lam, seed)
        assert np.isfinite(d.phi(0.0, 0.0)) and np.isfinite(d.varphi(0.0, 0.0))


@pytest.mark.parametrize("frame", [(-2.0, 1.0, 1.0, 1.0, 1.0), (0.5, 0.7, 0.7, 0.3, -0.4)],
                         ids=["default", "off-default"])
def test_plane_wave_matches_displayed_four_term_form(frame):
    seed = make_plane_wave_seed(*frame)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, (25, 2))
    for lam, w in [(0.5 + 1j, (1, 1)), (1.2 - 0.7j, (0.3 - 1j, 0.8 + 0.1j))]:
        d = plane_wave_eigenfunction(lam, seed, weights=w)
        p_raw, v_raw = unfolded_four_term_components(lam, seed, w,
                                                      pts[:, 0], pts[:, 1])
        assert np.max(np.abs(d.phi(pts[:, 0], pts[:, 1]) - p_raw)) <= 1e-12 * np.max(np.abs(p_raw))
        assert np.max(np.abs(d.varphi(pts[:, 0], pts[:, 1]) - v_raw)) <= 1e-12 * np.max(np.abs(v_raw))


def test_plane_wave_rejects_zero_amplitude():
    # c = 0 is the zero background, whose wavenumber a must be 0
    seed = make_plane_wave_seed(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="plane-wave eigenfunctions require c != 0"):
        plane_wave_eigenfunction(0.5 + 1j, seed)


def test_plane_wave_branch_flip_swaps_weights():
    # the datum is invariant under s -> -s combined with (D1, D2) -> (D2, D1),
    # so the principal-branch choice is never observable
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    lam = 0.8 + 0.6j
    a_ = plane_wave_eigenfunction(lam, seed, weights=(0.7, 0.2 - 0.5j))
    x, t = 0.9, -1.3
    s = complex(branch_quantity(lam, seed))
    u0 = 1 + (2 + 2 * seed.a - lam ** 2) / (2 * lam * seed.c)
    u1 = 1 / (2 * lam * seed.c)
    k = (1 / 8) * (-2 * x + t * (lam ** 2 + 2 * seed.a + 2 + 2 * seed.c ** 2))
    ph0 = ((seed.a + 1) / 2) * (x - t * (seed.a + 1 + seed.c ** 2))
    # rebuild with the flipped branch and swapped weights by hand
    s2, D1, D2 = -s, 0.2 - 0.5j, 0.7
    phi_flip = (D1 * (u0 - u1 * s2) * np.exp(1j * (s2 * k - ph0))
                + D2 * (u0 + u1 * s2) * np.exp(-1j * (s2 * k + ph0)))
    assert complex(a_.phi(x, t)) == pytest.approx(complex(phi_flip), rel=1e-12)


_PW = make_plane_wave_seed(-2.0, 1.0, 1.0)
_LAM_NEAR = (1 + 1j) * (1 + 2e-3)               # coalescing, as the rogue limits use
_S_NEAR = complex(branch_quantity(_LAM_NEAR, _PW))


def zero_seed_time_plus(lam):
    """The zero-seed datum with the other time sign, phi = exp(-(i/8)(2 lam^2 x
    + lam^4 t)) and varphi its reciprocal, built from its exponential sums."""
    with mp.workdps(lax.MP_DPS):
        lm = mp.mpc(lam)
        kx, kt = mp.mpc(0, -0.25) * lm ** 2, mp.mpc(0, -0.125) * lm ** 4
        return SpectralDatum(complex(lam), ExpSum([(1, kx, kt)]), ExpSum([(1, -kx, -kt)]))


@pytest.mark.parametrize("make", [
    lambda: zero_seed_eigenfunction(0.9 + 1.1j),
    lambda: zero_seed_time_plus(0.7 - 0.4j),
    lambda: plane_wave_eigenfunction(0.6 + 0.9j, _PW),
    lambda: plane_wave_eigenfunction(0.6 + 0.9j, _PW, weights=(0.4 - 0.7j, 1.3 + 0.2j)),
    lambda: plane_wave_eigenfunction(
        _LAM_NEAR, _PW, weights=(np.exp(-1j * _S_NEAR), np.exp(1j * _S_NEAR))),
], ids=["zero", "zero-time-plus", "wave-ref", "wave-ref-weighted", "wave-coalescing"])
def test_exponential_sums_agree_in_double_and_mpmath(make):
    d = make()
    pts = np.random.default_rng(4).uniform(-3, 3, (20, 2))
    with mp.workdps(40):
        for comp in (d.phi, d.varphi):
            for (x, t), v in zip(pts, comp(pts[:, 0], pts[:, 1])):
                ref = mp_reference.exp_sum(comp, x, t)
                assert abs(v - complex(ref)) <= 1e-14 * abs(complex(ref))


@pytest.mark.parametrize("make, solves", [(zero_seed_eigenfunction, True),
                                           (zero_seed_time_plus, False)],
                         ids=["time-minus", "time-plus"])
def test_only_the_minus_time_sign_transforms_to_a_solution(make, solves):
    # both signs solve the x-part of the spectral problem on the zero seed;
    # only the order-1 field of the minus sign solves the field equation, its
    # residual falling as h^2 while the other's stays near 29
    seed = zero_seed()
    out = n_fold(SpectralSet([make(1 + 2j)], reduction=True), seed)
    rep = pde_residual(out.Q, seed, ConventionVariant(1, "independent"),
                       kd.Grid2D(-3, 3, -2, 2, 121, 121), refinements=2)
    if solves:
        assert 1.7 <= rep.estimated_order <= 2.3
    else:
        assert abs(rep.estimated_order) < 0.1 and rep.norms[-1][1] > 10


def test_exponential_sum_with_cancelling_huge_exponents_stays_finite():
    # Re(kx x) and Re(kt t) each lie far beyond exp's range (about 709) but
    # cancel near x = t: the real exponent must be exponentiated whole
    with mp.workdps(40):
        s = ExpSum([(mp.mpc(0.5, 0.25), mp.mpc(2, 3.1), mp.mpc(-2, 0.7)),
                    (mp.mpc(-1, 2), mp.mpc(-1.5, -0.4), mp.mpc(1.5, 2.2))])
    x = np.linspace(400.0, 410.0, 11)
    values = s(x[:, None], x[None, :])              # sample's broadcast axes
    assert np.all(np.isfinite(values))
    with mp.workdps(40):
        for i, xi in enumerate(x):
            for j, tj in enumerate(x):
                ref = mp_reference.exp_sum(s, xi, tj)
                assert abs(values[i, j] - complex(ref)) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("re_x, im_x", [(3.3, 20.0), (-1.2, 30.0), (0.7, -1e3), (0.0, 1e3)])
def test_exponential_sum_in_double_matches_mpmath(re_x, im_x):
    # exponents with |Re| up to 660 and |Im| up to 1e4 over x, t in [-10, 10]:
    # double's relative error follows the exponent's size, measured at most
    # 1.3e-16 times its largest |kx x| + |kt t|
    with mp.workdps(40):
        s = ExpSum([(mp.mpc(0.3, -1.1), mp.mpc(re_x, im_x) / 3, mp.mpc(-re_x, 0.5) * 20),
                    (mp.mpf(2) / 3, mp.mpc(-0.25, im_x), mp.mpc(0, -im_x) / 7)])
    x = np.linspace(-10.0, 10.0, 7)[:, None]
    t = np.array([[-10.0, -3.3, 0.0, 9.9]])
    values = s(x, t)
    assert values.shape == (7, 4)
    with mp.workdps(40):
        for i in range(7):
            for j in range(4):
                xi, tj = x[i, 0], t[0, j]
                size = max(abs(complex(kx)) * abs(xi) + abs(complex(kt)) * abs(tj)
                           for _, kx, kt in s.terms)
                ref = mp_reference.exp_sum(s, xi, tj)
                assert abs(values[i, j] - complex(ref)) <= 1e-15 * max(size, 1) * abs(ref)


def test_exponential_sum_in_double_overflows_without_warning():
    # pyproject turns RuntimeWarnings into errors: beyond exp's range a term
    # is not finite, and below it exactly 0
    with mp.workdps(40):
        s = ExpSum([(1, mp.mpc(1, 0.3), mp.mpc(0, 1))])
    values = s(np.array([-800.0, 0.0, 800.0]), 0.0)
    assert values[0] == 0 and np.isfinite(values[1]) and not np.isfinite(values[2])


# ---------------------------------------------------------------------------
# Lax matrices and residuals
# ---------------------------------------------------------------------------

def lax_matrices(seed, lam, x, t, v_conjugation="independent"):
    """(U, V) at one point as 2 x 2 arrays, from the residual checks' entries."""
    U, V = lax._lax_entries(seed, lam, x, t, v_conjugation)
    return np.array(U).reshape(2, 2), np.array(V).reshape(2, 2)


def test_lax_matrices_zero_seed_diagonal():
    seed = kd.zero_seed()
    lam = 1 + 2j
    U, V = lax_matrices(seed, lam, 0.3, -0.4)
    assert U[0, 1] == 0 and U[1, 0] == 0
    assert U[0, 0] == pytest.approx(-0.25j * lam ** 2)
    assert V[0, 0] == pytest.approx(0.125j * lam ** 4)
    assert V[0, 1] == 0 and V[1, 0] == 0


def test_lax_matrices_plane_wave_offdiagonal_modulus():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    lam = 1 + 1j
    U, _ = lax_matrices(seed, lam, 0.0, 0.0)
    assert abs(U[0, 1]) == pytest.approx(abs(lam) / 2, rel=1e-12)
    assert abs(U[1, 0]) == pytest.approx(abs(lam) / 2, rel=1e-12)


def test_zero_seed_x_equation_exact():
    # the exponential satisfies the x-half analytically; the finite-difference
    # residual is pure stencil truncation and converges at second order
    seed = kd.zero_seed()
    d = zero_seed_eigenfunction(1 + 2j)
    rep = check_lax_residual(d, seed, kd.Grid2D(-2, 2, -1, 1, 201, 101))
    assert 1.8 <= rep.order_x <= 2.2
    assert rep.norms_x[-1][1] < 1e-2


def test_zero_seed_t_equation_order_two():
    seed = kd.zero_seed()
    d = zero_seed_eigenfunction(1 + 2j)
    rep = check_lax_residual(d, seed, kd.Grid2D(-2, 2, -1, 1, 201, 101))
    assert 1.8 <= rep.order_t <= 2.2


def test_plane_wave_x_equation_order_two():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    d = plane_wave_eigenfunction(0.5 + 1j, seed)
    rep = check_lax_residual(d, seed, kd.Grid2D(-1, 1, -1, 1, 101, 101))
    assert 1.8 <= rep.order_x <= 2.2


# seeds whose DNLS frequency -k(k + C^2) is not 0: (-2, 1) at alpha = 1 and
# theta = x + t, which pins the convention, has k + C^2 = 0
_OFF_FRAME = [(-2.0, 1.2, 1.0, 1.0, 1.0), (-2.0, 1.0, 0.7, 0.3, -0.4),
              (0.5, 0.7, 0.7, 0.3, -0.4)]


@pytest.mark.parametrize("frame", _OFF_FRAME)
def test_lax_pair_closes_off_the_pinning_seed(frame):
    # both halves converge at second order, and the literal-conjugate
    # reading of V12 still leaves an O(1) time defect
    seed = make_plane_wave_seed(*frame)
    assert seed.k + seed.C ** 2 != 0
    d = plane_wave_eigenfunction(0.7 + 0.4j, seed)
    g = kd.Grid2D(-1, 1, -1, 1, 81, 81)
    rep = check_lax_residual(d, seed, g)
    assert 1.8 <= rep.order_x <= 2.2 and 1.8 <= rep.order_t <= 2.2
    assert rep.norms_t[-1][1] < 1e-3
    assert check_lax_residual(d, seed, g, v_conjugation="gstar").norms_t[-1][1] > 0.1


def test_lax_pair_closes_on_a_gauged_zero_seed():
    seed = zero_seed(alpha=0.7, theta_p=0.3, theta_q=-0.4)
    rep = check_lax_residual(zero_seed_eigenfunction(0.7 + 0.4j), seed,
                             kd.Grid2D(-1, 1, -1, 1, 81, 81))
    assert 1.8 <= rep.order_x <= 2.2 and 1.8 <= rep.order_t <= 2.2


def test_time_flow_reading_discrimination():
    # the independent mirror reading closes the t-equation; the literal
    # conjugate reading leaves an O(1) defect (the documented outcome of the
    # convention open question)
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    d = plane_wave_eigenfunction(0.5 + 1j, seed)
    g = kd.Grid2D(-1, 1, -1, 1, 81, 81)
    good = check_lax_residual(d, seed, g, v_conjugation="independent")
    bad = check_lax_residual(d, seed, g, v_conjugation="gstar")
    assert good.norms_t[-1][1] < 1e-4 and 1.8 <= good.order_t <= 2.2
    assert bad.norms_t[-1][1] > 0.1


def test_pin_down_datum_closes_the_t_equation_at_second_order():
    # exact seed derivatives leave only the stencil error of the eigenfunction
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    d = plane_wave_eigenfunction(0.5 + 1j, seed)
    g = kd.Grid2D(-1, 1, -1, 1, 81, 81)
    rep = check_lax_residual(d, seed, g, v_conjugation="independent")
    assert 1.999 <= rep.order_t <= 2.001


def test_time_flow_readings_share_one_generator():
    # the lower generator differs between the readings by its cubic sign only,
    # and the gstar upper entry is i conj of that lower generator
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    lam, x, t = 0.5 + 1j, 0.3, -0.4
    _, Vg = lax_matrices(seed, lam, x, t, v_conjugation="gstar")
    _, Vi = lax_matrices(seed, lam, x, t, v_conjugation="independent")
    Q, th = seed.value(x, t), seed.theta(x, t)
    cubic = 0.5j * lam * Q * Q * np.conj(Q) * np.exp(1j * th)   # i (lam/4) 2 alpha |Q|^2 Q e
    assert Vg[1, 0] - Vi[1, 0] == pytest.approx(2 * cubic, rel=1e-13)
    assert Vg[0, 1] == pytest.approx(-np.conj(Vg[1, 0]), rel=1e-15)


def _mesh_lax_norms(datum, seed, grid, v_conjugation):
    """Reference: the (norms_x, norms_t) of check_lax_residual evaluated on
    the materialized interior mesh instead of broadcast axes."""
    X, T = grid.mesh()
    Xi, Ti = X[1:-1, 1:-1], T[1:-1, 1:-1]
    U, V = kd.lax._lax_entries(seed, datum.lam, Xi, Ti, v_conjugation)
    norms_x, norms_t = [], []
    for h in (min(grid.hx, grid.ht), min(grid.hx, grid.ht) / 2):
        p0, v0 = datum.phi(Xi, Ti), datum.varphi(Xi, Ti)
        for M, norms, dx, dt in ((U, norms_x, h, 0), (V, norms_t, 0, h)):
            pp, vp = datum.phi(Xi + dx, Ti + dt), datum.varphi(Xi + dx, Ti + dt)
            pm, vm = datum.phi(Xi - dx, Ti - dt), datum.varphi(Xi - dx, Ti - dt)
            r = np.maximum(np.abs((pp - pm) / (2 * h) - (M[0] * p0 + M[1] * v0)),
                           np.abs((vp - vm) / (2 * h) - (M[2] * p0 + M[3] * v0)))
            norms.append((h, float(np.max(r)), float(np.mean(r))))
    return norms_x, norms_t


@pytest.mark.parametrize("v_conjugation", ["independent", "gstar"])
@pytest.mark.parametrize("case", ["zero", "plane-wave"])
def test_lax_residual_on_broadcast_axes_matches_mesh(case, v_conjugation):
    if case == "zero":
        seed, d = zero_seed(), zero_seed_eigenfunction(1 + 2j)
    else:
        seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
        d = plane_wave_eigenfunction(0.5 + 1j, seed, weights=(1.0, 0.5 - 0.25j))
    g = kd.Grid2D(-1.3, 0.9, -0.7, 1.1, 37, 29)
    rep = check_lax_residual(d, seed, g, v_conjugation=v_conjugation)
    norms_x, norms_t = _mesh_lax_norms(d, seed, g, v_conjugation)
    assert rep.norms_x == norms_x and rep.norms_t == norms_t
    assert rep.order_x == np.log2(norms_x[0][1] / norms_x[1][1])
    assert rep.order_t == np.log2(norms_t[0][1] / norms_t[1][1])


def test_degenerate_pair_detection():
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="branch quantity vanishes"):
        kd.build_reduced_set([1 + 1j], seed)  # branch point: basis collapses
    with pytest.raises(ValueError, match="on an axis collapses its conjugate pair"):
        kd.build_reduced_set([2.0 + 0j], kd.zero_seed())  # real axis
