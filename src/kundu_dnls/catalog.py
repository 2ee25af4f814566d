"""Closed-form reference solutions (the oracle layer).

Each entry exists in two forms.  ``form="exact"`` is the validated closed
form: it satisfies the field equation to the residual tests' tolerance and
agrees with the transformation engine pointwise.  ``form="as_published"``
keeps the literal coefficient tables these solutions circulate with; several
of those tables carry typos (wrong exponent, wrong sign, a missing imaginary
unit), so the literal forms are retained only for comparison and triage and
are not used as oracles.  The differences are documented test by test.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateEigenvalueError
from .numerics.determinant import batched_det

Array = np.ndarray

POLE_THRESHOLD = 1e-12


@dataclass
class CatalogEntry:
    """A named closed-form solution with its defining parameters."""

    name: str
    params: dict = field(default_factory=dict)
    eval: Callable = None  # vectorized (x, t) -> complex


def _guard(num: Array, den: Array) -> Array:
    """num/den with pole flagging by magnitude threshold."""
    with np.errstate(all="ignore"):
        out = num / den
        scale = np.maximum(np.abs(num), 1.0)
        bad = np.abs(den) < POLE_THRESHOLD * scale
        return np.where(bad | ~np.isfinite(out), np.nan + 0j, out)


# ---------------------------------------------------------------------------
# solitons (zero background)
# ---------------------------------------------------------------------------

def one_soliton(m1: float, n1: float, alpha: float = 1.0,
                theta_p: float = 1.0, theta_q: float = 1.0,
                form: str = "exact") -> CatalogEntry:
    """Single bright soliton from the eigenvalue pair m1 +- i n1.

    Both forms share the exponents F1, F2; the exact form arranges them as a
    determinant ratio, which is localized and solves the equation.  The
    as_published arrangement divides by a single exponential factor and
    grows without bound along one ridge direction (kept for comparison).
    """
    if n1 == 0:
        raise DegenerateEigenvalueError("n1 = 0 collapses the eigenvalue pair")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    l1 = m1 + 1j * n1
    l2 = np.conj(l1)
    ra = np.sqrt(alpha)

    def F(lam, x, t):
        th = theta_p * x + theta_q * t
        return -(1 / 4) * (-2 * lam ** 2 * x + lam ** 4 * t + 4 * th)

    if form == "exact":
        def ev(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            e1 = np.exp(1j * F(l1, x, t))
            e2 = np.exp(1j * F(l2, x, t))
            num = (l1 * l1 - l2 * l2) * e1 * e2 * (l1 * e2 - l2 * e1)
            return _guard(num, ra * (l1 * e1 - l2 * e2) ** 2)
    elif form == "as_published":
        def ev(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            e1 = np.exp(1j * F(l1, x, t))
            e2 = np.exp(1j * F(l2, x, t))
            f = (1 / 8) * (l1 - l2) * (l1 + l2) * (t * l1 ** 2 - 2 * x + t * l2 ** 2)
            return _guard((e1 * l1 - e2 * l2) * (l1 + l2),
                          np.exp(-2j * f) * ra * (l1 - l2))
    else:
        raise ValueError(f"unknown form {form!r}")

    return CatalogEntry("one_soliton",
                        dict(m1=m1, n1=n1, alpha=alpha, theta_p=theta_p,
                             theta_q=theta_q, form=form), ev)


def two_soliton(m1: float, n1: float, m2: float, n2: float, alpha: float = 1.0,
                theta_p: float = 1.0, theta_q: float = 1.0,
                form: str = "exact") -> CatalogEntry:
    """Two-soliton field from the pairs m1 +- i n1 and m2 +- i n2.

    Only the exact form is evaluable: the circulated coefficient table for
    this solution leaves its cosine-term coefficient undefined and scrambles
    several conjugations, so it cannot be transcribed as a working formula.
    The exact coefficients below come from a direct two-column Laplace
    expansion of the order-two determinants and match the engine to machine
    precision (see tests).
    """
    if n1 == 0 or n2 == 0 or (m1, n1) == (m2, n2):
        raise DegenerateEigenvalueError("eigenvalue pairs must be distinct and off-axis")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if form != "exact":
        raise ValueError("two_soliton is available in exact form only; the "
                         "as_published coefficient table is not evaluable")
    l1, l3 = m1 + 1j * n1, m2 + 1j * n2
    l2, l4 = np.conj(l1), np.conj(l3)
    # pairwise sums/differences of eigenvalue components
    a_ = -(m1 + m2) + 1j * (n1 + n2)
    b_ = (m2 - m1) + 1j * (n1 - n2)
    c_ = (m2 - m1) + 1j * (n1 + n2)
    d_ = -(m1 + m2) + 1j * (n1 - n2)
    ab2 = abs(a_) ** 2 * abs(b_) ** 2
    cd2 = abs(c_) ** 2 * abs(d_) ** 2
    cross = 16 * m1 * n1 * m2 * n2
    ac, bc = np.conj(a_), np.conj(b_)
    cc, dc = np.conj(c_), np.conj(d_)
    num5 = -4j * m1 * n1 * l4 * ac * bc * c_ * d_
    num6 = 4j * m1 * n1 * l3 * a_ * b_ * cc * dc
    num7 = -4j * m2 * n2 * l2 * ac * bc * cc * dc
    num8 = 4j * m2 * n2 * l1 * a_ * b_ * c_ * d_
    ra = np.sqrt(alpha)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        osc = 0.25 * (t * m1 ** 4 - t * m2 ** 4 - t * n2 ** 4 + t * n1 ** 4
                      + 6 * t * m2 ** 2 * n2 ** 2 - 6 * t * m1 ** 2 * n1 ** 2
                      - 2 * x * m1 ** 2 + 2 * x * m2 ** 2 + 2 * x * n1 ** 2 - 2 * x * n2 ** 2)
        grow_sum = (t * m1 ** 3 * n1 - t * m1 * n1 ** 3 + t * m2 ** 3 * n2 - t * m2 * n2 ** 3
                    - x * m1 * n1 - x * m2 * n2)
        grow_diff = (t * m1 ** 3 * n1 - t * m1 * n1 ** 3 - t * m2 ** 3 * n2 + t * m2 * n2 ** 3
                     - x * m1 * n1 + x * m2 * n2)
        mixed1 = (-1j / 4) * (t * m1 ** 4 + t * n1 ** 4 + 4j * t * m2 ** 3 * n2
                              - 4j * t * m2 * n2 ** 3 - 6 * t * m1 ** 2 * n1 ** 2
                              - 2 * x * m1 ** 2 + 2 * x * n1 ** 2 - 4j * x * m2 * n2)
        mixed2 = (-1j / 4) * (t * m2 ** 4 + t * n2 ** 4 + 4j * t * m1 ** 3 * n1
                              - 4j * t * m1 * n1 ** 3 - 6 * t * m2 ** 2 * n2 ** 2
                              - 2 * x * m2 ** 2 + 2 * x * n2 ** 2 - 4j * x * m1 * n1)
        den = (cross * (abs(l1) ** 2 * np.exp(-1j * osc) + abs(l3) ** 2 * np.exp(1j * osc))
               + l1 * l3 * ab2 * np.exp(grow_sum) + l2 * l4 * ab2 * np.exp(-grow_sum)
               - l1 * l4 * cd2 * np.exp(grow_diff) - l2 * l3 * cd2 * np.exp(-grow_diff))
        mirror = (cross * (abs(l1) ** 2 * np.exp(1j * osc) + abs(l3) ** 2 * np.exp(-1j * osc))
                  + l1 * l3 * ab2 * np.exp(-grow_sum) + l2 * l4 * ab2 * np.exp(grow_sum)
                  - l1 * l4 * cd2 * np.exp(-grow_diff) - l2 * l3 * cd2 * np.exp(grow_diff))
        num = (num5 * np.exp(mixed1) + num6 * np.exp(-np.conj(mixed1))
               + num7 * np.exp(mixed2) + num8 * np.exp(-np.conj(mixed2)))
        th = theta_p * x + theta_q * t
        return _guard(np.exp(-1j * th) * mirror * num, ra * den ** 2)

    return CatalogEntry("two_soliton",
                        dict(m1=m1, n1=n1, m2=m2, n2=n2, alpha=alpha,
                             theta_p=theta_p, theta_q=theta_q, form=form), ev)


# ---------------------------------------------------------------------------
# positon (coalesced two-soliton, zero background)
# ---------------------------------------------------------------------------

def positon(re1: float, im1: float, alpha: float = 1.0,
            theta_p: float = 1.0, theta_q: float = 1.0,
            form: str = "exact") -> CatalogEntry:
    """Degenerate two-soliton at the double eigenvalue re1 + i im1.

    The exact form evaluates the coalescence limit in closed form: the
    second eigenvalue pair's rows are replaced by exact lambda-derivative
    rows, which is the limit the perturbed two-soliton converges to.  The
    as_published polynomial/cosh display fails the residual checks and is
    retained for comparison only.
    """
    if re1 * im1 == 0:
        raise DegenerateEigenvalueError("re1 and im1 must both be nonzero")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lam = re1 + 1j * im1
    ra = np.sqrt(alpha)

    if form == "exact":
        def ev(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            E = (2 * lam ** 2 * x - lam ** 4 * t) / 8
            dE = lam * (x - lam ** 2 * t) / 2
            phi, vph = np.exp(-1j * E), np.exp(1j * E)
            dphi, dvph = -1j * dE * phi, 1j * dE * vph
            shape = np.broadcast(x, t).shape

            def omega(swap: bool) -> Array:
                f, v = (phi, vph) if not swap else (vph, phi)
                df, dv = (dphi, dvph) if not swap else (dvph, dphi)
                fo, vo = (vph, phi) if not swap else (phi, vph)
                dfo, dvo = (dvph, dphi) if not swap else (dphi, dvph)
                M = np.empty((4, 4) + shape, dtype=complex)
                for col in range(4):
                    p = 3 - col
                    comp, dcomp = (v, dv) if p % 2 == 1 else (f, df)
                    comp_o, dcomp_o = (vo, dvo) if p % 2 == 1 else (fo, dfo)
                    M[0, col] = lam ** p * comp
                    M[1, col] = np.conj(lam ** p * comp_o)
                    M[2, col] = p * lam ** (p - 1) * comp + lam ** p * dcomp
                    M[3, col] = np.conj(p * lam ** (p - 1) * comp_o + lam ** p * dcomp_o)
                # stored matrix-first: the (..., 4, 4) view is already in the
                # batch-last order batched_det copies into
                return np.moveaxis(M, (0, 1), (-2, -1))

            main, _ = batched_det(omega(False))
            M = omega(True)
            swapped, _ = batched_det(M)
            # batched_det copies its input, so the swapped stack is intact;
            # the shifted matrix differs from it in column 0 only
            M[..., 0, 0] = lam ** 4 * vph
            M[..., 1, 0] = np.conj(lam ** 4 * phi)
            M[..., 2, 0] = 4 * lam ** 3 * vph + lam ** 4 * dvph
            M[..., 3, 0] = np.conj(4 * lam ** 3 * phi + lam ** 4 * dphi)
            swapped_shift, _ = batched_det(M)
            th = theta_p * x + theta_q * t
            return _guard(np.exp(-1j * th) * swapped * swapped_shift, ra * main ** 2)
    elif form == "as_published":
        def ev(x, t):
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            a1, b1 = re1, im1
            g1 = -x - t * a1 ** 2 - t * b1 ** 2
            ch, sh = np.cosh(a1 * b1 * g1), np.sinh(a1 * b1 * g1)
            G1 = (1j * a1 ** 3 * ch + 2 * a1 ** 3 * b1 * t * ch - a1 ** 3 * b1 ** 2 * x * ch
                  - a1 * b1 ** 4 * x * ch - a1 * b1 ** 6 * t * ch + 3 * a1 ** 5 * b1 ** 2 * t * ch
                  - 1j * a1 ** 6 * b1 * t * sh + 2j * a1 ** 4 * b1 ** 3 * t * sh
                  + 1j * a1 ** 4 * b1 * x * sh + 1j * a1 ** 2 * b1 ** 3 * x * sh
                  + 3j * a1 ** 2 * b1 ** 2 * t * sh - b1 ** 3 * sh)
            g2 = (x + t + 0.25 * t * b1 ** 4 - 1.5 * t * a1 ** 2 * b1 ** 2
                  + 0.5 * x * b1 ** 2 + 0.25 * t * a1 ** 4 - 0.5 * x * a1 ** 2)
            G2 = np.cos(g2) + 1j * np.sin(g2)
            ch2, sh2 = np.cosh(2 * a1 * b1 * g1), np.sinh(2 * a1 * b1 * g1)
            G3 = (2j * a1 ** 3 * b1 * sh2 + 4j * a1 ** 2 * b1 ** 6 * t - 4j * a1 ** 4 * b1 ** 2 * x
                  - 24j * a1 ** 4 * b1 ** 4 * t + 2j * a1 * b1 ** 3 * sh2 + 4j * a1 ** 6 * b1 ** 2 * t
                  + 4j * a1 ** 2 * b1 ** 2 * t + 4j * a1 ** 2 * b1 ** 4 * x)
            G4 = (a1 ** 4 + b1 ** 4 - 4 * a1 ** 8 * b1 ** 2 * x * t - 4 * a1 ** 4 * b1 ** 6 * x * t
                  - 4 * a1 ** 6 * b1 ** 4 * x * t + 4 * a1 ** 2 * b1 ** 8 * x * t
                  + 4 * a1 ** 4 * b1 ** 4 * x ** 2 + 8 * a1 ** 4 * b1 ** 8 * t ** 2
                  + 2 * a1 ** 6 * b1 ** 2 * x ** 2 + 2 * a1 ** 10 * b1 ** 2 * t ** 2
                  + 8 * a1 ** 8 * b1 ** 4 * t ** 2 + 12 * a1 ** 6 * b1 ** 6 * t ** 2
                  + 2 * a1 ** 2 * b1 ** 6 * x ** 2 + 2 * a1 ** 2 * b1 ** 10 * t ** 2
                  - b1 ** 4 * ch2 + a1 ** 4 * ch2)
            return _guard(-8 * a1 * b1 * G1 * G2 * (G3 + G4), (G3 - G4) ** 2)
    else:
        raise ValueError(f"unknown form {form!r}")

    return CatalogEntry("positon",
                        dict(re1=re1, im1=im1, alpha=alpha, theta_p=theta_p,
                             theta_q=theta_q, form=form), ev)


# ---------------------------------------------------------------------------
# plane-wave background entries (fixed instances a=-2, c=1, alpha=1)
# ---------------------------------------------------------------------------

_TAU = 0.2420614592          # sqrt(15)/16, the breather's temporal rate
_XFREQ = 0.9682458364        # sqrt(15)/4, the breather's spatial frequency


def breather(form: str = "exact") -> CatalogEntry:
    """Breather on the plane-wave background (fixed instance a=-2, c=1).

    The generating eigenvalue of this instance is 0.5 + 0.5i: the temporal
    rate sqrt(15)/16 and spatial frequency sqrt(15)/4 encoded in the
    coefficients pin it uniquely (see tests; the parameter label this
    instance circulates with says 0.5 + i, which is inconsistent with the
    coefficients).  The exact form fixes one exponent sign and one missing
    imaginary unit relative to the as_published table.
    """
    def b_terms(x, t, published: bool):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        ex_m = np.exp(-_XFREQ * 1j * x)
        ex_p = np.exp(_XFREQ * 1j * x)
        et_p = np.exp(_TAU * t)
        et_m = np.exp(-_TAU * t)
        if published:
            b1 = (63508327j * ex_m + 436491673 * et_p - 563508327j * et_p
                  - 436491673 * et_m - 563508327j * et_m + 5e8 * 1j * ex_m)
        else:
            b1 = (63508327j * ex_m + 5e8 * 1j * ex_p + 436491673 * et_p
                  - 563508327j * et_p - 436491673 * et_m - 563508327j * et_m)
        carrier = np.exp(-2j * x - 1j * t)
        b2_last = 563508327 if published else 563508327j
        b2 = (1309475019 * et_m * carrier
              + 10e8 * 1j * np.exp(-0.4e-8 * 1j * (257938541 * x + 2.5e8 * t))
              - 1309475019 * et_p * carrier + 563508327j * et_p * carrier
              + b2_last * et_m * carrier
              + 127016654j * np.exp(-0.4e-8 * 1j * (742061459 * x + 2.5e8 * t)))
        b3 = (5e8 * 1j * ex_m + 63508327j * ex_p - 436491673 * et_p
              - 563508327j * et_p + 436491673 * et_m - 563508327j * et_m)
        return b1, b2, b3

    if form not in ("exact", "as_published"):
        raise ValueError(f"unknown form {form!r}")
    published = form == "as_published"

    def ev(x, t):
        b1, b2, b3 = b_terms(x, t, published)
        return _guard(-b1 * b2, 2 * b3 ** 2)

    return CatalogEntry("breather",
                        dict(a=-2.0, c=1.0, alpha=1.0, lambda_re=0.5, lambda_im=0.5,
                             form=form), ev)


def rogue1(form: str = "exact") -> CatalogEntry:
    """First-order rogue wave (fixed instance a=-2, c=1, critical eigenvalue 1+i).

    Exact form fixes one exponent in the denominator polynomial (a t^2 term
    that must be t^3); the numerator is typo-free.
    """
    if form not in ("exact", "as_published"):
        raise ValueError(f"unknown form {form!r}")
    t2_pow = 2 if form == "as_published" else 3

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        num = (3 + 8 * x ** 2 + 8j * t * x ** 2 + 8j * x * t ** 2 + 8 * x * t
               - 8 * t ** 2 * x ** 2 - 4 * t ** 4 - 4 * x ** 4 + 8j * x ** 3 - 4j * x
               + 12j * t + 8j * t ** 3 - 8 * t ** 2)
        den = (-1 + 8j * t ** t2_pow + 4j * t + 8j * t * x ** 2 - 8j * t ** 2 * x
               - 8 * t * x - 8 * t ** 2 * x ** 2 - 8j * x ** 3 - 4 * t ** 4 - 4 * x ** 4
               - 4j * x)
        return _guard(-num * np.exp(-1j * (2 * x + t)), den)

    return CatalogEntry("rogue1", dict(a=-2.0, c=1.0, alpha=1.0, form=form), ev)


def rogue2(form: str = "exact") -> CatalogEntry:
    """Second-order rogue wave (fixed instance a=-2, c=1).

    Exact form fixes one exponent in the second numerator factor (an x^4
    that must be x^2); the other two polynomials are typo-free.
    """
    if form not in ("exact", "as_published"):
        raise ValueError(f"unknown form {form!r}")
    x4_pow = 4 if form == "as_published" else 2

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        f1 = (-72 * x * t + 48 * x ** 3 * t - 216 * x ** 2 * t ** 2 + 24 * x ** 2 * t ** 4
              + 24 * x ** 4 * t ** 2 + 90 * x ** 2 + 666 * t ** 2 - 12 * x ** 4 + 180 * t ** 4
              + 8 * t ** 6 + 8 * x ** 6 + 48 * x * t ** 3 + 9 - 48j * x ** 3
              - 48j * x ** 3 * t ** 2 + 288j * x * t ** 2 - 54j * x - 24j * x * t ** 4
              + 24j * t ** 5 + 24j * x ** 4 * t + 198j * t + 336j * t ** 3
              + 48j * x ** 2 * t ** 3 - 24j * x ** 5)
        f2 = (198 * x ** 2 - 45 - 504 * x * t + 144 * x ** 3 * t + 504 * x ** 2 * t ** 2
              + 144 * x * t ** 3 + 486 * t ** 2 + 60 * t ** 4 + 60 * x ** 4
              - 24 * x ** 2 * t ** 4 - 8 * t ** 6 - 24 * x ** 4 * t ** 2 - 8 * x ** 6
              - 48j * x ** 3 + 24j * x ** 5 + 48j * x ** 3 * t ** 2 + 24j * x * t ** 4
              - 288j * x ** x4_pow * t - 576j * x * t ** 2 + 144j * x ** 2 * t ** 3
              - 90j * x - 414j * t + 72j * x ** 4 * t + 528j * t ** 3 + 72j * t ** 5)
        f3 = (-48j * x ** 3 - 48j * x ** 3 * t ** 2 + 288j * x * t ** 2 - 54j * x
              - 24j * x * t ** 4 + 72 * x * t - 48 * x ** 3 * t + 216 * x ** 2 * t ** 2
              - 24 * x ** 2 * t ** 4 - 24j * x ** 5 - 90 * x ** 2 - 666 * t ** 2
              + 24j * t ** 5 + 12 * x ** 4 - 180 * t ** 4 - 8 * t ** 6 - 8 * x ** 6
              - 48 * x * t ** 3 + 24j * x ** 4 * t + 198j * t + 336j * t ** 3 - 9
              + 48j * x ** 2 * t ** 3 - 24 * x ** 4 * t ** 2)
        return _guard(-f1 * f2 * np.exp(-1j * (2 * x + t)), f3 ** 2)

    return CatalogEntry("rogue2", dict(a=-2.0, c=1.0, alpha=1.0, form=form), ev)
