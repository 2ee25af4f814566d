"""Seed solutions, gauge data, spectral eigenfunctions, and Lax residual checks.

Seeds are either the zero background or a plane wave c*exp(i(ax+bt)) whose
frequency b is always derived from the closure constraint
b = -alpha c^2 a - 2 - a^2 - 2a - alpha c^2, so the seed satisfies the field
equation identically.  The gauge function is restricted to the affine family
theta = p x + q t.

Eigenfunction time-direction note: the x-part of the spectral problem pins
phi_x = -i(lam^2/4) phi on the zero seed for both possible time signs, but
only phi = exp(-(i/8)(2 lam^2 x - lam^4 t)) is compatible with the
transformed fields satisfying the equation (the verifier's residual tests
are the arbiter; see tests).  That sign is used throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .errors import (GridTooSmallError, ZeroAmplitudeError, ZeroCouplingError,
                     ZeroEigenvalueError)
from .numerics.grid import Grid2D

Array = np.ndarray

H_LAX_REL = 1e-4  # step for the internal x-derivative inside the time-flow matrix
MP_DPS = 40       # digits of the eigenfunction constants and the extended path


@dataclass(frozen=True)
class PhasePolynomial:
    """S(e) = S0 + S1 e + S2 e^2, the hump-splitting phase for degenerate limits."""

    S0: float = 0.0
    S1: float = 0.0
    S2: float = 0.0

    def __call__(self, eps: complex) -> complex:
        return self.S0 + self.S1 * eps + self.S2 * eps * eps


@dataclass(frozen=True)
class ZeroSeed:
    """Vanishing background."""

    alpha: float = 1.0
    theta_p: float = 1.0
    theta_q: float = 1.0

    def value(self, x, t):
        return np.zeros_like(np.asarray(x, dtype=complex) + np.asarray(t, dtype=complex))

    def theta(self, x, t):
        return self.theta_p * x + self.theta_q * t


@dataclass(frozen=True)
class PlaneWaveSeed:
    """Background c*exp(i(ax+bt)); b is derived, never free."""

    a: float
    c: float
    b: float
    alpha: float = 1.0
    theta_p: float = 1.0
    theta_q: float = 1.0

    def value(self, x, t):
        return self.c * np.exp(1j * (self.a * np.asarray(x) + self.b * np.asarray(t)))

    def theta(self, x, t):
        return self.theta_p * x + self.theta_q * t


Seed = ZeroSeed | PlaneWaveSeed


def frequency_from_constraint(a: float, c: float, alpha: float) -> float:
    return -alpha * c * c * a - 2.0 - a * a - 2.0 * a - alpha * c * c


def _check_coupling(alpha: float):
    """The engine scales by sqrt(alpha), so the coupling must be positive."""
    if alpha == 0.0:
        raise ZeroCouplingError("coupling alpha must be nonzero")
    if alpha < 0:
        raise ValueError(f"coupling alpha must be positive, got {alpha}")


def make_plane_wave_seed(a: float, c: float, alpha: float = 1.0,
                         theta_p: float = 1.0, theta_q: float = 1.0) -> PlaneWaveSeed:
    _check_coupling(alpha)
    if c < 0:
        raise ValueError("amplitude c must be >= 0")
    return PlaneWaveSeed(a=a, c=c, b=frequency_from_constraint(a, c, alpha),
                         alpha=alpha, theta_p=theta_p, theta_q=theta_q)


def zero_seed(alpha: float = 1.0, theta_p: float = 1.0, theta_q: float = 1.0) -> ZeroSeed:
    _check_coupling(alpha)
    return ZeroSeed(alpha=alpha, theta_p=theta_p, theta_q=theta_q)


@dataclass
class SpectralDatum:
    """One eigenvalue with its two-component eigenfunction samples.

    `phi` and `varphi` are vectorized callables (x, t) -> complex (the
    constructors below give `ExpSum`s).  `mp_components`, when present,
    evaluates both components in mpmath for the extended-precision
    determinant path.
    """

    lam: complex
    phi: Callable
    varphi: Callable
    provenance: str
    mp_components: Optional[Callable] = None

    def conjugate_partner(self) -> "SpectralDatum":
        """The reduction partner (lam*, varphi*, phi*)."""
        phi, vph = self.phi, self.varphi
        mp_comp = None
        if self.mp_components is not None:
            base = self.mp_components

            def mp_comp(x, t):
                p, v = base(x, t)
                return mp.conj(v), mp.conj(p)

        return SpectralDatum(
            lam=np.conj(self.lam),
            phi=lambda x, t: np.conj(vph(x, t)),
            varphi=lambda x, t: np.conj(phi(x, t)),
            provenance=self.provenance + "*",
            mp_components=mp_comp,
        )


# ---------------------------------------------------------------------------
# eigenfunction components as exponential sums
# ---------------------------------------------------------------------------

class ExpSum:
    """One eigenfunction component, sum_k c_k exp(kx_k x + kt_k t).

    The constants are mpmath values, computed once at `MP_DPS` digits.
    Calling the sum evaluates it in double, vectorized over any array
    shape; `mp(x, t)` evaluates it in mpmath at one point, at the working
    precision of the caller.
    """

    def __init__(self, terms):
        self.terms = [tuple(term) for term in terms]
        self._double = [tuple(complex(v) for v in term) for term in self.terms]

    def __call__(self, x, t):
        x, t = np.asarray(x), np.asarray(t)
        return sum(c * np.exp(kx * x + kt * t) for c, kx, kt in self._double)

    def mp(self, x, t):
        x, t = mp.mpf(x), mp.mpf(t)
        return sum(c * mp.exp(kx * x + kt * t) for c, kx, kt in self.terms)


def _datum(lam: complex, phi: ExpSum, varphi: ExpSum, provenance: str) -> SpectralDatum:
    return SpectralDatum(lam=lam, phi=phi, varphi=varphi, provenance=provenance,
                         mp_components=lambda x, t: (phi.mp(x, t), varphi.mp(x, t)))


def zero_seed_eigenfunction(lam: complex, time_sign: int = -1) -> SpectralDatum:
    """Exponential eigenfunction of the zero background.

    phi = exp(-(i/8)(2 lam^2 x + time_sign * lam^4 t)) and varphi its
    reciprocal.  time_sign=-1 is the convention under which transformed
    fields solve the equation; +1 is kept for the documented variant tests.
    """
    if lam == 0:
        raise ZeroEigenvalueError("lambda must be nonzero")
    lam = complex(lam)
    with mp.workdps(MP_DPS):
        lm = mp.mpc(lam)
        kx = mp.mpc(0, -0.25) * lm ** 2
        kt = mp.mpc(0, -0.125) * time_sign * lm ** 4
        return _datum(lam, ExpSum([(1, kx, kt)]), ExpSum([(1, -kx, -kt)]), "zero-seed")


# ---------------------------------------------------------------------------
# plane-wave eigenfunctions
# ---------------------------------------------------------------------------

def _radicand(lam2, a, c):
    """The square of the branch quantity, one operation order for numpy,
    complex and mpmath values alike."""
    return 4 * a * a - 4 * a * lam2 + 8 * a + lam2 * lam2 - 4 * lam2 + 4 - 4 * lam2 * c * c


def branch_quantity(lam: complex, seed: PlaneWaveSeed):
    """s(lam) = sqrt(4a^2 - 4a lam^2 + 8a + lam^4 - 4 lam^2 + 4 - 4 lam^2 c^2),
    principal branch.  Its zero marks the breather-to-rogue critical eigenvalue."""
    a, c = seed.a, seed.c
    lam2 = np.asarray(lam) ** 2
    rad = _radicand(lam2, a, c)
    return np.sqrt(rad.astype(complex) if hasattr(rad, "astype") else complex(rad))


def critical_eigenvalue(seed: PlaneWaveSeed, guess: complex = 1 + 1j,
                        tol: float = 1e-13, max_iter: int = 60) -> complex:
    """Root of the branch-quantity radicand (Newton in lam), i.e. s(lam)=0."""
    a, c = seed.a, seed.c

    def f(z):
        return _radicand(z * z, a, c)

    def fp(z):
        return -8 * a * z + 4 * z ** 3 - 8 * z - 8 * z * c * c

    z = complex(guess)
    for _ in range(max_iter):
        step = f(z) / fp(z)
        z -= step
        if abs(step) < tol:
            return z
    raise ArithmeticError("Newton iteration for the critical eigenvalue did not converge")


def plane_wave_eigenfunction(lam: complex, seed: PlaneWaveSeed,
                             weights: tuple[complex, complex] = (1.0, 1.0),
                             pairing: str = "reference") -> SpectralDatum:
    """Weighted superposition eigenfunction on the plane-wave background.

    The two-branch basis splits along the branch quantity s; `weights`
    stirs the two branches (the hump-splitting mechanism).  With weights
    (1, 1) both pairings coincide and the datum reduces to the unweighted
    eigenfunction.
    """
    if seed.c == 0:
        raise ZeroAmplitudeError("plane-wave eigenfunctions require c != 0")
    if lam == 0:
        raise ZeroEigenvalueError("lambda must be nonzero")
    if pairing not in ("reference", "alternate"):
        raise ValueError(f"unknown pairing {pairing!r}")
    lam = complex(lam)
    D1, D2 = complex(weights[0]), complex(weights[1])
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
        if pairing == "reference":
            phi_c, vph_c = (W1 * u_m, W2 * u_p), (W1 * u_p, W2 * u_m)
        else:
            first, second = W1 * (u_m - 1) + W2, W1 + W2 * (u_p - 1)
            phi_c, vph_c = (first, second), (second, first)
        return _datum(lam, ExpSum([(phi_c[0], *e_p), (phi_c[1], *e_m)]),
                      ExpSum([(vph_c[0], *g_p), (vph_c[1], *g_m)]),
                      f"plane-wave(D1={D1:g}, D2={D2:g})")


def unfolded_four_term_components(lam: complex, seed: PlaneWaveSeed,
                                   weights: tuple[complex, complex],
                                   x, t) -> tuple[Array, Array]:
    """Unfolded four-term superposition (basis functions plus starred partners
    at lam*), used as an independent cross-check of the folded form above."""
    a, c = seed.a, seed.c
    D1, D2 = complex(weights[0]), complex(weights[1])

    def f_pair(lm):
        s = complex(branch_quantity(lm, seed))
        lm2 = lm * lm
        P = (1 / 8) * (-4 * a * x - 4 * x - 2 * x * s + t * lm2 * s + 8 * t * a + 4 * t * a * a
                       + 2 * t * a * s + 4 * t + 2 * t * s + 4 * t * c * c + 4 * t * c * c * a
                       + 2 * t * c * c * s)
        N = (1 / 8) * (4 * a * x + 4 * x - 2 * x * s + t * lm2 * s - 8 * t * a - 4 * t * a * a
                       + 2 * t * a * s - 4 * t + 2 * t * s - 4 * t * c * c - 4 * t * c * c * a
                       + 2 * t * c * c * s)
        pref_m = (2 - lm2 + 2 * a - s) / (2 * lm * c)
        pref_p = (2 - lm2 + 2 * a + s) / (2 * lm * c)
        f1 = (pref_m * np.exp(1j * P), np.exp(1j * N))
        f2 = (pref_p * np.exp(-1j * N), np.exp(-1j * P))
        return f1, f2

    f1, f2 = f_pair(lam)
    f1c, f2c = f_pair(np.conj(lam))
    f1c = (np.conj(f1c[0]), np.conj(f1c[1]))
    f2c = (np.conj(f2c[0]), np.conj(f2c[1]))
    phi = D1 * f1[0] + D2 * f2[0] + D2 * f1c[1] + D1 * f2c[1]
    vph = D1 * f1[1] + D2 * f2[1] + D2 * f1c[0] + D1 * f2c[0]
    return phi, vph


# ---------------------------------------------------------------------------
# Lax matrices and residual checks
# ---------------------------------------------------------------------------

def _lax_entries(seed: Seed, lam: complex, x, t, Q, Qx,
                 v_conjugation: str) -> tuple[tuple, tuple]:
    """Entries (U11, U12, U21, U22) and (V11, V12, V21, V22) at the field Q
    with x-derivative Qx, vectorized over x, t.

    U is fixed by the spectral problem.  The time-flow matrix V admits two
    documented readings of its upper off-diagonal entry: "gstar" takes the
    literal complex conjugate of the lower entry's generator, "independent"
    uses the mirror generator of the coupled system (the reading that the
    residual checks single out).  The cubic term of the generator carries a
    minus sign in the "independent" reading.
    """
    alpha = seed.alpha
    ra = np.sqrt(alpha)
    th = seed.theta(x, t)
    thx = seed.theta_p
    R, Rx = -np.conj(Q), -np.conj(Qx)
    eip, eim = np.exp(1j * th), np.exp(-1j * th)
    lam2 = lam * lam
    U = (-0.25j * lam2, 0.5j * lam * ra * R * eim, 0.5j * lam * ra * Q * eip, 0.25j * lam2)
    diag = 1j * (lam ** 4 / 8.0 - 0.25 * alpha * lam2 * Q * R)
    if v_conjugation == "gstar":
        G = (lam / 4) * ra * (-lam2 * Q * eip + 2j * (Qx * eip + 1j * Q * eip * thx)
                              + 2 * alpha * Q * Q * np.conj(Q) * eip)
        V12, V21 = 1j * np.conj(G), 1j * G
    elif v_conjugation == "independent":
        G = (lam / 4) * ra * (-lam2 * Q * eip + 2j * (Qx * eip + 1j * Q * eip * thx)
                              - 2 * alpha * Q * Q * np.conj(Q) * eip)
        Gm = (lam / 4) * ra * (-lam2 * R * eim + 2j * Rx * eim + 2 * R * eim * thx
                               - 2 * alpha * R * R * Q * eim)
        V12, V21 = 1j * Gm, 1j * G
    else:
        raise ValueError(f"unknown v_conjugation {v_conjugation!r}")
    return U, (diag, V12, V21, -diag)


def lax_matrices(seed: Seed, Q_field: Optional[Callable], lam: complex,
                 x: float, t: float, v_conjugation: str = "independent") -> tuple[Array, Array]:
    """(U, V) at one point; see `_lax_entries` for the two readings of V."""
    if Q_field is None:
        Q_field = seed.value
    Q = complex(Q_field(x, t))
    h = H_LAX_REL * max(1.0, abs(x))
    Qx = complex(Q_field(x + h, t) - Q_field(x - h, t)) / (2 * h)
    U, V = _lax_entries(seed, lam, x, t, Q, Qx, v_conjugation)
    return np.array(U).reshape(2, 2), np.array(V).reshape(2, 2)


@dataclass
class LaxResidualReport:
    """Interior norms of Phi_x - U Phi and Phi_t - V Phi at two step sizes."""

    v_conjugation: str
    norms_x: list  # [(h, max, mean), ...] coarse first
    norms_t: list
    order_x: float
    order_t: float


def check_lax_residual(datum: SpectralDatum, seed: Seed, grid: Grid2D,
                       v_conjugation: str = "independent") -> LaxResidualReport:
    """Finite-difference residual of both Lax equations over the grid interior."""
    if grid.nx < 3 or grid.nt < 3:
        raise GridTooSmallError("need an interior for the residual norms")
    # interior nodes on broadcast axes: x-only and t-only terms stay 1-D
    Xi, Ti = grid.xs[1:-1, None], grid.ts[None, 1:-1]
    hl = H_LAX_REL
    Qx = (seed.value(Xi + hl, Ti) - seed.value(Xi - hl, Ti)) / (2 * hl)
    U, V = _lax_entries(seed, datum.lam, Xi, Ti, seed.value(Xi, Ti), Qx, v_conjugation)

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

    def order(norms):
        a, b = norms[0][1], norms[1][1]
        if b == 0:
            return float("inf")
        return float(np.log2(a / b))

    return LaxResidualReport(v_conjugation, norms_x, norms_t, order(norms_x), order(norms_t))
