"""Seed solutions, gauge data, spectral eigenfunctions, and Lax residual checks.

The gauge is theta = p x + q t, and Q = exp(-i theta) u / sqrt(alpha)
turns the field equation into Kaup-Newell DNLS for u (Kundu, J. Math.
Phys. 25, 3433 (1984)).  A seed c*exp(i(ax+bt)) is there the DNLS plane
wave of wavenumber k = a + p, amplitude C = sqrt(alpha) c and frequency
-k^2 - C^2 k = b + q; c = 0 is the zero background.  Only `Seed` states
this frame: every plane-wave formula below reads (k, C).

Eigenfunction time-direction note: the x-part of the spectral problem pins
phi_x = -i(lam^2/4) phi on the zero seed for both possible time signs, but
only phi = exp(-(i/8)(2 lam^2 x - lam^4 t)) is compatible with the
transformed fields satisfying the equation: with the other sign the
order-1 field's residual does not fall under grid refinement
(`tests/test_lax.py` pins both).  That sign is used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from .numerics.grid import Grid2D


# digits at which the eigenfunction constants are computed before they are
# rounded to double
MP_DPS = 40


def _check_finite(**numbers):
    """Each named number, real or complex, must be finite: one NaN or inf
    would make every node of the field NaN."""
    for name, v in numbers.items():
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Seed:
    """Background c*exp(i(ax+bt)); b is derived, never free.  c = 0 is the
    zero background, into which a does not enter, so a must be 0 there."""

    a: float = 0.0
    c: float = 0.0
    alpha: float = 1.0
    theta_p: float = 1.0
    theta_q: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:      # the engine scales by sqrt(alpha)
            raise ValueError(f"coupling alpha must be positive, got {self.alpha}")
        if not self.c >= 0:
            raise ValueError(f"amplitude c must be >= 0, got {self.c}")
        _check_finite(a=self.a, c=self.c, alpha=self.alpha, theta_p=self.theta_p,
                      theta_q=self.theta_q)
        if self.c == 0 and self.a != 0:
            raise ValueError(f"a must be 0 on the zero background (c = 0), which it "
                             f"does not enter, got {self.a}")

    @property
    def k(self) -> float:
        """The DNLS-frame wavenumber."""
        return self.a + self.theta_p

    @property
    def C(self) -> float:
        """The DNLS-frame amplitude, a Python float: C*C*k overflows to inf."""
        return math.sqrt(self.alpha) * self.c

    @property
    def b(self) -> float:
        """The frequency: DNLS's -k^2 - C^2 k, less the gauge's q."""
        k, C = self.k, self.C
        return -k * k - C * C * k - self.theta_q

    def value(self, x, t):
        """c exp(iax) exp(ibt): on broadcast x and t axes, one complex exp per
        x value and one per t value, not one per node."""
        return (self.c * np.exp(1j * (self.a * np.asarray(x)))
                * np.exp(1j * (self.b * np.asarray(t))))

    def value_x(self, x, t):
        """Exact x-derivative of `value`: i a times the seed."""
        return 1j * self.a * self.value(x, t)

    def theta(self, x, t):
        return self.theta_p * x + self.theta_q * t


def make_plane_wave_seed(a: float, c: float, alpha: float = 1.0,
                         theta_p: float = 1.0, theta_q: float = 1.0) -> Seed:
    return Seed(a=a, c=c, alpha=alpha, theta_p=theta_p, theta_q=theta_q)


def zero_seed(alpha: float = 1.0, theta_p: float = 1.0, theta_q: float = 1.0) -> Seed:
    return Seed(alpha=alpha, theta_p=theta_p, theta_q=theta_q)


@dataclass
class SpectralDatum:
    """One eigenvalue with its two-component eigenfunction samples.

    `phi` and `varphi` are vectorized callables (x, t) -> complex (the
    constructors below give `ExpSum`s).
    """

    lam: complex
    phi: Callable
    varphi: Callable
    # kept, not a field: benchmarks/tracing.py's eigen_wrapper reads it
    mp_components = None

    def conjugate_partner(self) -> "SpectralDatum":
        """The reduction partner (lam*, varphi*, phi*)."""
        phi, vph = self.phi, self.varphi
        return SpectralDatum(
            lam=np.conj(self.lam),
            phi=lambda x, t: np.conj(vph(x, t)),
            varphi=lambda x, t: np.conj(phi(x, t)),
        )


# ---------------------------------------------------------------------------
# eigenfunction components as exponential sums
# ---------------------------------------------------------------------------

class ExpSum:
    """One eigenfunction component, sum_k c_k exp(kx_k x + kt_k t).

    The constants are mpmath values, computed once at `MP_DPS` digits.
    Calling the sum evaluates it in double, vectorized over any array shape.

    Each term is exp(Re kx x + Re kt t) times the phase
    c exp(i Im kx x) exp(i Im kt t): on the broadcast axes of `sample` the
    two phase factors cost one complex exp per row and per column instead
    of one per node.  The real exponent stays one sum over the block, so it
    over- and underflows where the whole exponent does, and a term whose x
    and t parts are each huge but cancel stays finite.  Beyond exp's range
    a term is inf or NaN, without a warning, and the n-fold map masks it.
    """

    def __init__(self, terms):
        self.terms = [tuple(term) for term in terms]
        self._double = []
        for term in self.terms:
            c, kx, kt = (complex(v) for v in term)
            self._double.append((c, kx.real, kt.real, 1j * kx.imag, 1j * kt.imag))

    def __call__(self, x, t):
        x, t = np.asarray(x), np.asarray(t)
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(np.exp(rx * x + rt * t) * (c * np.exp(ix * x) * np.exp(it * t))
                       for c, rx, rt, ix, it in self._double)


def zero_seed_eigenfunction(lam: complex) -> SpectralDatum:
    """Exponential eigenfunction of the zero background.

    phi = exp(-(i/8)(2 lam^2 x - lam^4 t)) and varphi its reciprocal, the
    time sign under which transformed fields solve the equation (see the
    module docstring).
    """
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    lam = complex(lam)
    with mp.workdps(MP_DPS):
        lm = mp.mpc(lam)
        kx = mp.mpc(0, -0.25) * lm ** 2
        kt = mp.mpc(0, 0.125) * lm ** 4
        return SpectralDatum(lam, ExpSum([(1, kx, kt)]), ExpSum([(1, -kx, -kt)]))


# ---------------------------------------------------------------------------
# plane-wave eigenfunctions
# ---------------------------------------------------------------------------

def _radicand(lam2, a, c):
    """The square of the branch quantity, one operation order for numpy,
    complex and mpmath values alike."""
    return 4 * a * a - 4 * a * lam2 + 8 * a + lam2 * lam2 - 4 * lam2 + 4 - 4 * lam2 * c * c


def branch_quantity(lam: complex, seed: Seed):
    """s(lam) = sqrt((lam^2 - 2k)^2 - 4 C^2 lam^2), principal branch, the radicand
    at a = k - 1 and c = C.  Its zero marks the breather-to-rogue critical eigenvalue."""
    a, c = seed.k - 1, seed.C
    lam2 = np.asarray(lam) ** 2
    rad = _radicand(lam2, a, c)
    return np.sqrt(rad.astype(complex) if hasattr(rad, "astype") else complex(rad))


def _branch_parts(seed: Seed):
    """(C, r = sqrt(C^2 + 2k)): s(lam)^2 vanishes at +-C +- r; r is inf past C^2's range."""
    C = np.float64(seed.C)
    with np.errstate(all="ignore"):
        return C, np.sqrt(np.complex128(C * C + 2 * np.float64(seed.k)))


def nearest_branch_point(lam: complex, seed: Seed):
    """(lam*, vanishing): the zero of s(lam)^2 = (lam^2 - 2C lam - 2k)(lam^2 +
    2C lam - 2k) nearest lam, and whether u-+ vanish there: at the roots
    C +- r of the first factor, r = sqrt(C^2 + 2k), `critical_eigenvalue`
    among them, where the roots -C +- r of the second have u-+ = 2.  None
    without a simple zero: the zero background, or r = 0."""
    C, r = _branch_parts(seed)
    if not seed.c or r == 0 or not np.isfinite(r):
        return None
    star, vanishing = min(((u * C + v * r, u > 0) for u in (1, -1) for v in (1, -1)),
                          key=lambda zero: abs(complex(lam) - zero[0]))
    return complex(star), vanishing


def critical_eigenvalue(seed: Seed) -> complex:
    """The first-quadrant zero of s(lam), where the breather turns into the
    rogue wave: C + r, r = sqrt(C^2 + 2k), the root `nearest_branch_point`
    finds, bit for bit.  Where it is not real, r is imaginary, so its real
    part is C exactly.  The zero background has none, and a real root has
    no conjugate partner: both raise ValueError."""
    if seed.c == 0:
        raise ValueError("the zero background (c = 0) has no critical eigenvalue: "
                         "give one (lc_re and lc_im)")
    C, r = _branch_parts(seed)
    lam = complex(C + r)
    if lam.imag == 0:
        raise ValueError(f"critical eigenvalue {lam} is real for a={seed.a}, c={seed.c}, "
                         f"alpha={seed.alpha}, theta_p={seed.theta_p}")
    return lam


def plane_wave_eigenfunction(lam: complex, seed: Seed,
                             weights: tuple[complex, complex] = (1.0, 1.0)) -> SpectralDatum:
    """Weighted superposition eigenfunction on the plane-wave background.

    The two-branch basis splits along the branch quantity s; `weights`
    stirs the two branches (the hump-splitting mechanism).  With weights
    (1, 1) the datum reduces to the unweighted eigenfunction.  A datum whose
    constants are all zero would make the field NaN everywhere, and raises,
    as does a weight that is not finite.
    """
    if seed.c == 0:
        raise ValueError("plane-wave eigenfunctions require c != 0")
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    lam = complex(lam)
    D1, D2 = complex(weights[0]), complex(weights[1])
    _check_finite(**{"branch weight D1": D1, "branch weight D2": D2})
    with mp.workdps(MP_DPS):
        # the radicand's a = k - 1, from the exact a and p, and c = C
        lm, a, c = mp.mpc(lam), mp.mpf(seed.a) + mp.mpf(seed.theta_p) - 1, mp.mpf(seed.C)
        lm2 = lm * lm
        s = mp.sqrt(_radicand(lm2, a, c))
        u_m = 1 + (2 - lm2 + 2 * a - s) / (2 * lm * c)
        u_p = 1 + (2 - lm2 + 2 * a + s) / (2 * lm * c)
        # phases: shat = (s/8)(-2x + (lam^2 + 2a + 2 + 2c^2) t) and
        # ph0 = (a+1)/2 x - (a+1)(a+1+c^2)/2 t; phi carries exp(i(+-shat - ph0)),
        # varphi carries exp(i(+-shat + ph0))
        sx, st = -s / 4, s * (lm2 + 2 * a + 2 + 2 * c * c) / 8
        px, pt = (a + 1) / 2, -(a + 1) * (a + 1 + c * c) / 2
        I = mp.mpc(0, 1)
        e_p, e_m = (I * (sx - px), I * (st - pt)), (I * (-sx - px), I * (-st - pt))
        g_p, g_m = (I * (sx + px), I * (st + pt)), (I * (px - sx), I * (pt - st))
        W1, W2 = mp.mpc(D1), mp.mpc(D2)
        consts = (W1 * u_m, W2 * u_p, W1 * u_p, W2 * u_m)
        if not any(consts):
            why = (f"branch weights {tuple(weights)} are both zero" if D1 == D2 == 0
                   else f"both prefactors u-+ vanish at lambda {lam}")
            raise ValueError(f"{why}: the eigenfunction vanishes and the field is NaN "
                             "everywhere")
        return SpectralDatum(lam, ExpSum([(consts[0], *e_p), (consts[1], *e_m)]),
                             ExpSum([(consts[2], *g_p), (consts[3], *g_m)]))


# ---------------------------------------------------------------------------
# Lax matrices and residual checks
# ---------------------------------------------------------------------------

def _lax_entries(seed: Seed, lam: complex, x, t,
                 v_conjugation: str) -> tuple[tuple, tuple]:
    """Entries (U11, U12, U21, U22) and (V11, V12, V21, V22) at the seed,
    vectorized over x, t; V takes the seed's exact x-derivative `value_x`.

    U is fixed by the spectral problem.  The off-diagonal entries of the
    time-flow matrix V come from one generator g(F, F_x, e, theta_x, cubic
    sign), with V21 = i g(Q, Q_x, e^{i theta}, theta_x, .).  V12 has two
    documented readings: "gstar" takes i conj of that lower generator;
    "independent" takes the mirror generator of the coupled system,
    i g(R, -R_x, e^{-i theta}, theta_x, -1), and the lower generator
    carries the same cubic sign, -1 (the reading that the residual checks
    single out).  In the DNLS frame, with zeta = lam/2, u = sqrt(alpha) Q
    e^{i theta} and r = -conj(u), that reading is V21 = -2i zeta^3 u -
    zeta u_x - i zeta |u|^2 u and V12 = -2i zeta^3 r + zeta r_x - i zeta
    |r|^2 r, which zero curvature asks for on every seed.
    """
    alpha = seed.alpha
    ra = np.sqrt(alpha)
    Q, Qx = seed.value(x, t), seed.value_x(x, t)
    R, Rx = -np.conj(Q), -np.conj(Qx)
    th = seed.theta(x, t)
    thx = seed.theta_p
    eip, eim = np.exp(1j * th), np.exp(-1j * th)
    lam2 = lam * lam

    def g(F, Fx, e, F_thx, cubic_sign):
        return (lam / 4) * ra * (-lam2 * F * e + 2j * (Fx * e + 1j * F * e * F_thx)
                                 + cubic_sign * 2 * alpha * F * F * np.conj(F) * e)

    U = (-0.25j * lam2, 0.5j * lam * ra * R * eim, 0.5j * lam * ra * Q * eip, 0.25j * lam2)
    diag = 1j * (lam ** 4 / 8.0 - 0.25 * alpha * lam2 * Q * R)
    if v_conjugation == "gstar":
        G = g(Q, Qx, eip, thx, 1)
        V12, V21 = 1j * np.conj(G), 1j * G
    elif v_conjugation == "independent":
        V12, V21 = 1j * g(R, -Rx, eim, thx, -1), 1j * g(Q, Qx, eip, thx, -1)
    else:
        raise ValueError(f"unknown v_conjugation {v_conjugation!r}")
    return U, (diag, V12, V21, -diag)


@dataclass
class LaxResidualReport:
    """Interior norms of Phi_x - U Phi and Phi_t - V Phi at two step sizes."""

    norms_x: list  # [(h, max, mean), ...] coarse first
    norms_t: list
    order_x: float
    order_t: float


def check_lax_residual(datum: SpectralDatum, seed: Seed, grid: Grid2D,
                       v_conjugation: str = "independent") -> LaxResidualReport:
    """Finite-difference residual of both Lax equations over the grid interior."""
    if grid.nx < 3 or grid.nt < 3:
        raise ValueError("need an interior for the residual norms")
    # interior nodes on broadcast axes: x-only and t-only terms stay 1-D
    Xi, Ti = grid.xs[1:-1, None], grid.ts[None, 1:-1]
    U, V = _lax_entries(seed, datum.lam, Xi, Ti, v_conjugation)

    def psi(x, t):
        return datum.phi(x, t), datum.varphi(x, t)

    def apply(M, p, v):
        return M[0] * p + M[1] * v, M[2] * p + M[3] * v

    norms_x, norms_t = [], []
    for h in (min(grid.hx, grid.ht), min(grid.hx, grid.ht) / 2):
        p0, v0 = psi(Xi, Ti)
        pxp, vxp = psi(Xi + h, Ti)
        pxm, vxm = psi(Xi - h, Ti)
        ptp, vtp = psi(Xi, Ti + h)
        ptm, vtm = psi(Xi, Ti - h)
        up, uv = apply(U, p0, v0)
        rx = np.maximum(np.abs((pxp - pxm) / (2 * h) - up),
                        np.abs((vxp - vxm) / (2 * h) - uv))
        wp, wv = apply(V, p0, v0)
        rt = np.maximum(np.abs((ptp - ptm) / (2 * h) - wp),
                        np.abs((vtp - vtm) / (2 * h) - wv))
        norms_x.append((h, float(np.max(rx)), float(np.mean(rx))))
        norms_t.append((h, float(np.max(rt)), float(np.mean(rt))))

    return LaxResidualReport(norms_x, norms_t, _convergence_order(norms_x),
                             _convergence_order(norms_t))


def _convergence_order(norms: list) -> float:
    """log2 of the last two max norms' ratio in [(h, max, mean), ...], h halving."""
    if len(norms) < 2 or norms[-1][1] == 0:
        return float("inf")
    return float(np.log2(norms[-2][1] / norms[-1][1]))
