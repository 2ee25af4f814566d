"""Seed solutions, gauge data, spectral eigenfunctions, and Lax residual checks.

A seed is the plane wave c*exp(i(ax+bt)), whose frequency b is always
derived from the closure constraint b = -alpha c^2 a - 2 - a^2 - 2a - alpha c^2,
so the seed satisfies the field equation identically; c = 0 is the zero
background.  The gauge function is restricted to the affine family
theta = p x + q t.

Eigenfunction time-direction note: the x-part of the spectral problem pins
phi_x = -i(lam^2/4) phi on the zero seed for both possible time signs, but
only phi = exp(-(i/8)(2 lam^2 x - lam^4 t)) is compatible with the
transformed fields satisfying the equation: with the other sign the
order-1 field's residual does not fall under grid refinement
(`tests/test_lax.py` pins both).  That sign is used throughout.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .numerics.doubledouble import DDComplexArray, dd_exp_terms
from .numerics.grid import Grid2D


# digits of the eigenfunction constants, which the extended path splits
# into double-double (hi, lo) pairs, and of the eigenvalue powers of its rows
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
    def b(self) -> float:
        """The frequency fixed by the closure constraint."""
        a, c, alpha = self.a, self.c, self.alpha
        return -alpha * c * c * a - 2.0 - a * a - 2.0 * a - alpha * c * c

    def value(self, x, t):
        return self.c * np.exp(1j * (self.a * np.asarray(x) + self.b * np.asarray(t)))

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
    constructors below give `ExpSum`s).  `mp_components`, when present,
    serves the extended-precision determinant path: (x, t) -> (phi, varphi)
    as two `DDComplexArray`s over the broadcast shape of x and t, a whole
    block in one call, from constants computed in mpmath at `MP_DPS`.
    """

    lam: complex
    phi: Callable
    varphi: Callable
    mp_components: Optional[Callable] = None

    def conjugate_partner(self) -> "SpectralDatum":
        """The reduction partner (lam*, varphi*, phi*)."""
        phi, vph = self.phi, self.varphi
        mp_comp = None
        if self.mp_components is not None:
            base = self.mp_components

            def mp_comp(x, t):
                p, v = base(x, t)
                return v.conjugate(), p.conjugate()

        return SpectralDatum(
            lam=np.conj(self.lam),
            phi=lambda x, t: np.conj(vph(x, t)),
            varphi=lambda x, t: np.conj(phi(x, t)),
            mp_components=mp_comp,
        )


# ---------------------------------------------------------------------------
# eigenfunction components as exponential sums
# ---------------------------------------------------------------------------

class ExpSum:
    """One eigenfunction component, sum_k c_k exp(kx_k x + kt_k t).

    The constants are mpmath values, computed once at `MP_DPS` digits.
    Calling the sum evaluates it in double, vectorized over any array shape;
    `dd_each` evaluates sums in double-double from the constants' hi/lo
    split, made once, on first use.

    In double, each term is exp(Re kx x + Re kt t) times the phase
    c exp(i Im kx x) exp(i Im kt t): on the broadcast axes of `sample` the
    two phase factors cost one complex exp per row and per column instead
    of one per node.  The real exponent stays one sum over the block, so it
    over- and underflows where the whole exponent does, and a term whose x
    and t parts are each huge but cancel stays finite.  The double-double
    evaluation (`dd_exp_terms`) splits each term the same way.
    """

    def __init__(self, terms):
        self.terms = [tuple(term) for term in terms]
        self._double = []
        for term in self.terms:
            c, kx, kt = (complex(v) for v in term)
            self._double.append((c, kx.real, kt.real, 1j * kx.imag, 1j * kt.imag))

    def __call__(self, x, t):
        x, t = np.asarray(x), np.asarray(t)
        return sum(np.exp(rx * x + rt * t) * (c * np.exp(ix * x) * np.exp(it * t))
                   for c, rx, rt, ix, it in self._double)

    @cached_property
    def _dd(self) -> DDComplexArray:
        """The (K, 3) constants (c, kx, kt) as double-double, split on first use."""
        return DDComplexArray.from_mp(np.array(self.terms, dtype=object))

    @staticmethod
    def dd_each(sums, x, t) -> list:
        """Each of several sums in double-double over the broadcast shape of
        x and t, with every term of every sum in one `dd_exp_terms` call."""
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        consts = DDComplexArray(*map(np.concatenate, zip(*(s._dd.parts for s in sums))))
        lead = (None,) * max(x.ndim, t.ndim)
        terms = dd_exp_terms(*(consts[(slice(None), j, *lead)] for j in range(3)), x, t)
        out, i = [], 0
        for s in sums:
            k = len(s.terms)
            out.append(sum((terms[j] for j in range(i + 1, i + k)), terms[i]))
            i += k
        return out


def _datum(lam: complex, phi: ExpSum, varphi: ExpSum) -> SpectralDatum:
    return SpectralDatum(lam=lam, phi=phi, varphi=varphi,
                         mp_components=lambda x, t: tuple(ExpSum.dd_each((phi, varphi), x, t)))


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
        return _datum(lam, ExpSum([(1, kx, kt)]), ExpSum([(1, -kx, -kt)]))


# ---------------------------------------------------------------------------
# plane-wave eigenfunctions
# ---------------------------------------------------------------------------

def _radicand(lam2, a, c):
    """The square of the branch quantity, one operation order for numpy,
    complex and mpmath values alike."""
    return 4 * a * a - 4 * a * lam2 + 8 * a + lam2 * lam2 - 4 * lam2 + 4 - 4 * lam2 * c * c


def branch_quantity(lam: complex, seed: Seed):
    """s(lam) = sqrt(4a^2 - 4a lam^2 + 8a + lam^4 - 4 lam^2 + 4 - 4 lam^2 c^2),
    principal branch.  Its zero marks the breather-to-rogue critical eigenvalue."""
    a, c = seed.a, seed.c
    lam2 = np.asarray(lam) ** 2
    rad = _radicand(lam2, a, c)
    return np.sqrt(rad.astype(complex) if hasattr(rad, "astype") else complex(rad))


def critical_eigenvalue(seed: Seed) -> complex:
    """The first-quadrant zero of s(lam), where the breather turns into the
    rogue wave.  The radicand vanishes at lam^2 = 2(a+1+c^2) +- 2c
    sqrt(c^2+2(a+1)); this is the principal root of the + branch.  A real
    root has no conjugate partner and raises ValueError."""
    a, c = seed.a, seed.c
    lam = cmath.sqrt(2 * (a + 1 + c * c) + 2 * c * cmath.sqrt(c * c + 2 * (a + 1)))
    if lam.imag == 0:
        raise ValueError(f"critical eigenvalue {lam} is real for a={a}, c={c}")
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
        lm, a, c = mp.mpc(lam), mp.mpf(seed.a), mp.mpf(seed.c)
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
        return _datum(lam, ExpSum([(consts[0], *e_p), (consts[1], *e_m)]),
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
    i g(R, R_x, e^{-i theta}, -theta_x, +1), while the lower generator
    carries the opposite cubic sign, -1 (the reading that the residual
    checks single out).
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
        V12, V21 = 1j * g(R, Rx, eim, -thx, 1), 1j * g(Q, Qx, eip, thx, -1)
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
