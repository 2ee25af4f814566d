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

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .errors import (GridTooSmallError, ZeroAmplitudeError, ZeroCouplingError,
                     ZeroEigenvalueError)
from .numerics.grid import Grid2D

Array = np.ndarray

H_LAX_REL = 1e-4  # step for the internal x-derivative inside the time-flow matrix


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

    def value_x(self, x, t):
        return self.value(x, t)

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

    def value_x(self, x, t):
        return 1j * self.a * self.value(x, t)

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

    `phi` and `varphi` are vectorized callables (x, t) -> complex.
    `mp_components`, when present, evaluates both components in mpmath for
    the extended-precision determinant path.
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
# zero-seed eigenfunctions
# ---------------------------------------------------------------------------

def zero_seed_eigenfunction(lam: complex, time_sign: int = -1) -> SpectralDatum:
    """Exponential eigenfunction of the zero background.

    phi = exp(-(i/8)(2 lam^2 x + time_sign * lam^4 t)) and varphi its
    reciprocal.  time_sign=-1 is the convention under which transformed
    fields solve the equation; +1 is kept for the documented variant tests.
    """
    if lam == 0:
        raise ZeroEigenvalueError("lambda must be nonzero")
    lam = complex(lam)
    c2 = -0.25j * lam * lam
    c4 = -0.125j * time_sign * lam ** 4

    def phase(x, t):
        return c2 * np.asarray(x) + c4 * np.asarray(t)

    def mp_components(x, t):
        lm = mp.mpc(lam)
        e = mp.mpc(0, -0.125) * (2 * lm ** 2 * mp.mpf(x) + time_sign * lm ** 4 * mp.mpf(t))
        return mp.exp(e), mp.exp(-e)

    return SpectralDatum(
        lam=lam,
        phi=lambda x, t: np.exp(phase(x, t)),
        varphi=lambda x, t: np.exp(-phase(x, t)),
        provenance="zero-seed",
        mp_components=mp_components,
    )


# ---------------------------------------------------------------------------
# plane-wave eigenfunctions
# ---------------------------------------------------------------------------

def branch_quantity(lam: complex, seed: PlaneWaveSeed):
    """s(lam) = sqrt(4a^2 - 4a lam^2 + 8a + lam^4 - 4 lam^2 + 4 - 4 lam^2 c^2),
    principal branch.  Its zero marks the breather-to-rogue critical eigenvalue."""
    a, c = seed.a, seed.c
    lam2 = np.asarray(lam) ** 2
    rad = 4 * a * a - 4 * a * lam2 + 8 * a + lam2 * lam2 - 4 * lam2 + 4 - 4 * lam2 * c * c
    return np.sqrt(rad.astype(complex) if hasattr(rad, "astype") else complex(rad))


def critical_eigenvalue(seed: PlaneWaveSeed, guess: complex = 1 + 1j,
                        tol: float = 1e-13, max_iter: int = 60) -> complex:
    """Root of the branch-quantity radicand (Newton in lam), i.e. s(lam)=0."""
    a, c = seed.a, seed.c

    def f(z):
        z2 = z * z
        return 4 * a * a - 4 * a * z2 + 8 * a + z2 * z2 - 4 * z2 + 4 - 4 * z2 * c * c

    def fp(z):
        return -8 * a * z + 4 * z ** 3 - 8 * z - 8 * z * c * c

    z = complex(guess)
    for _ in range(max_iter):
        step = f(z) / fp(z)
        z -= step
        if abs(step) < tol:
            return z
    raise ArithmeticError("Newton iteration for the critical eigenvalue did not converge")


def _pw_pieces(lam: complex, seed: PlaneWaveSeed):
    """Shared scalars of the plane-wave eigenfunction at one eigenvalue."""
    a, c = seed.a, seed.c
    if c == 0:
        raise ZeroAmplitudeError("plane-wave eigenfunctions require c != 0")
    if lam == 0:
        raise ZeroEigenvalueError("lambda must be nonzero")
    s = complex(branch_quantity(lam, seed))
    pref_m = (2 - lam * lam + 2 * a - s) / (2 * lam * c)
    pref_p = (2 - lam * lam + 2 * a + s) / (2 * lam * c)
    return s, 1 + pref_m, 1 + pref_p


def plane_wave_eigenfunction(lam: complex, seed: PlaneWaveSeed,
                             weights: tuple[complex, complex] = (1.0, 1.0),
                             pairing: str = "reference") -> SpectralDatum:
    """Weighted superposition eigenfunction on the plane-wave background.

    The two-branch basis splits along the branch quantity s; `weights`
    stirs the two branches (the hump-splitting mechanism).  With weights
    (1, 1) both pairings coincide and the datum reduces to the unweighted
    eigenfunction.
    """
    lam = complex(lam)
    D1, D2 = complex(weights[0]), complex(weights[1])
    a, c = seed.a, seed.c
    s, u_m, u_p = _pw_pieces(lam, seed)
    lam2 = lam * lam
    # phase pieces: shat = (s/8)(-2x + (lam^2+2a+2+2c^2) t); ph0 affine in (x, t)
    k_t = (lam2 + 2 * a + 2 + 2 * c * c)
    ph0_x = (a + 1) / 2.0
    ph0_t = -(a + 1) * (a + 1 + c * c) / 2.0

    if pairing not in ("reference", "alternate"):
        raise ValueError(f"unknown pairing {pairing!r}")

    def components(x, t):
        x = np.asarray(x)
        t = np.asarray(t)
        shat = (s / 8.0) * (-2.0 * x + k_t * t)
        ph0 = ph0_x * x + ph0_t * t
        e_p = np.exp(1j * (shat - ph0))
        e_m = np.exp(-1j * (shat + ph0))
        g_p = np.exp(1j * (ph0 + shat))
        g_m = np.exp(1j * (ph0 - shat))
        if pairing == "reference":
            phi = D1 * u_m * e_p + D2 * u_p * e_m
            vph = D1 * u_p * g_p + D2 * u_m * g_m
        else:
            phi = (D1 * (u_m - 1) + D2) * e_p + (D1 + D2 * (u_p - 1)) * e_m
            vph = (D1 + D2 * (u_p - 1)) * g_p + (D1 * (u_m - 1) + D2) * g_m
        return phi, vph

    def mp_components(x, t):
        lm = mp.mpc(lam)
        lm2 = lm * lm
        a_m, c_m = mp.mpf(a), mp.mpf(c)
        rad = 4 * a_m ** 2 - 4 * a_m * lm2 + 8 * a_m + lm2 ** 2 - 4 * lm2 + 4 - 4 * lm2 * c_m ** 2
        s_m = mp.sqrt(rad)
        um = 1 + (2 - lm2 + 2 * a_m - s_m) / (2 * lm * c_m)
        up = 1 + (2 - lm2 + 2 * a_m + s_m) / (2 * lm * c_m)
        xm, tm = mp.mpf(x), mp.mpf(t)
        shat = (s_m / 8) * (-2 * xm + (lm2 + 2 * a_m + 2 + 2 * c_m ** 2) * tm)
        ph0 = mp.mpf(ph0_x) * xm + mp.mpf(ph0_t) * tm
        I = mp.mpc(0, 1)
        D1m, D2m = mp.mpc(D1), mp.mpc(D2)
        e_p = mp.exp(I * (shat - ph0))
        e_m = mp.exp(-I * (shat + ph0))
        g_p = mp.exp(I * (ph0 + shat))
        g_m = mp.exp(I * (ph0 - shat))
        if pairing == "reference":
            return (D1m * um * e_p + D2m * up * e_m,
                    D1m * up * g_p + D2m * um * g_m)
        return ((D1m * (um - 1) + D2m) * e_p + (D1m + D2m * (up - 1)) * e_m,
                (D1m + D2m * (up - 1)) * g_p + (D1m * (um - 1) + D2m) * g_m)

    return SpectralDatum(
        lam=lam,
        phi=lambda x, t: components(x, t)[0],
        varphi=lambda x, t: components(x, t)[1],
        provenance=f"plane-wave(D1={D1:g}, D2={D2:g})",
        mp_components=mp_components,
    )


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

def lax_matrices(seed: Seed, Q_field: Optional[Callable], lam: complex,
                 x: float, t: float, v_conjugation: str = "independent") -> tuple[Array, Array]:
    """(U, V) at one point.

    U is fixed by the spectral problem.  The time-flow matrix V admits two
    documented readings of its upper off-diagonal entry: "gstar" takes the
    literal complex conjugate of the lower entry's generator, "independent"
    uses the mirror generator of the coupled system (the reading that the
    residual checks single out).  The cubic term of the generator carries a
    minus sign in the "independent" reading.
    """
    if Q_field is None:
        Q_field = seed.value
    alpha = seed.alpha
    ra = np.sqrt(alpha)
    th = seed.theta(x, t)
    thx = seed.theta_p
    Q = complex(Q_field(x, t))
    R = -np.conj(Q)
    h = H_LAX_REL * max(1.0, abs(x))
    Qx = complex(Q_field(x + h, t) - Q_field(x - h, t)) / (2 * h)
    Rx = -np.conj(Qx)
    eip = np.exp(1j * th)
    eim = np.exp(-1j * th)
    lam2 = lam * lam
    U = np.array([
        [-0.25j * lam2, 0.5j * lam * ra * R * eim],
        [0.5j * lam * ra * Q * eip, 0.25j * lam2],
    ])
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
    V = np.array([[diag, V12], [V21, -diag]])
    return U, V


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
    X, T = grid.mesh()
    Xi, Ti = X[1:-1, 1:-1], T[1:-1, 1:-1]
    alpha = seed.alpha
    ra = np.sqrt(alpha)
    lam = datum.lam
    lam2 = lam * lam

    def psi(x, t):
        return datum.phi(x, t), datum.varphi(x, t)

    def seed_QR(x, t):
        Q = seed.value(x, t)
        return Q, -np.conj(Q)

    def U_apply(x, t, p, v):
        Q, R = seed_QR(x, t)
        th = seed.theta(x, t)
        return (-0.25j * lam2 * p + 0.5j * lam * ra * R * np.exp(-1j * th) * v,
                0.5j * lam * ra * Q * np.exp(1j * th) * p + 0.25j * lam2 * v)

    def V_apply(x, t, p, v):
        Q, R = seed_QR(x, t)
        th = seed.theta(x, t)
        thx = seed.theta_p
        hl = H_LAX_REL
        Qx = (seed.value(x + hl, t) - seed.value(x - hl, t)) / (2 * hl)
        Rx = -np.conj(Qx)
        eip, eim = np.exp(1j * th), np.exp(-1j * th)
        diag = 1j * (lam ** 4 / 8.0 - 0.25 * alpha * lam2 * Q * R)
        if v_conjugation == "gstar":
            G = (lam / 4) * ra * (-lam2 * Q * eip + 2j * (Qx * eip + 1j * Q * eip * thx)
                                  + 2 * alpha * Q * Q * np.conj(Q) * eip)
            V12, V21 = 1j * np.conj(G), 1j * G
        else:
            G = (lam / 4) * ra * (-lam2 * Q * eip + 2j * (Qx * eip + 1j * Q * eip * thx)
                                  - 2 * alpha * Q * Q * np.conj(Q) * eip)
            Gm = (lam / 4) * ra * (-lam2 * R * eim + 2j * Rx * eim + 2 * R * eim * thx
                                   - 2 * alpha * R * R * Q * eim)
            V12, V21 = 1j * Gm, 1j * G
        return (diag * p + V12 * v, V21 * p - diag * v)

    norms_x, norms_t = [], []
    for h in (min(grid.hx, grid.ht), min(grid.hx, grid.ht) / 2):
        p0, v0 = psi(Xi, Ti)
        pxp, vxp = psi(Xi + h, Ti)
        pxm, vxm = psi(Xi - h, Ti)
        ptp, vtp = psi(Xi, Ti + h)
        ptm, vtm = psi(Xi, Ti - h)
        up, uv = U_apply(Xi, Ti, p0, v0)
        rx = np.maximum(np.abs((pxp - pxm) / (2 * h) - up),
                        np.abs((vxp - vxm) / (2 * h) - uv))
        wp, wv = V_apply(Xi, Ti, p0, v0)
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
