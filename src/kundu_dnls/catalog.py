"""Closed-form reference solutions (the oracle layer).

Each entry is the validated closed form: it satisfies the field equation to
the residual tests' tolerance and agrees with the transformation engine
pointwise.  The coefficient tables these solutions circulate with carry
typos (wrong exponent, wrong sign, a missing imaginary unit), which are
fixed here; the tests keep the literal published forms and check that they
fail.

The catalog is the oracle the transformation engine is checked against, so
it shares none of the engine's code: it imports nothing from `darboux`,
`lax` or `numerics.determinant`.  The rogue-wave polynomials are tables of
(coefficient, x power, t power) rows, one row per printed term, evaluated
per power of t on the x axis and then by Horner in t (see `_polynomial`).
The positon's two determinants come from one stack, through the catalog's
own 4 x 5 expansion, `batched_det`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

POLE_THRESHOLD = 1e-12


@dataclass
class CatalogEntry:
    """A closed-form solution; `eval` is its vectorized (x, t) -> complex."""

    eval: Callable


def _check_finite(**numbers):
    """Each named parameter must be finite: one NaN or inf would make every
    node of the entry NaN."""
    for name, v in numbers.items():
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _guard(num: Array, den: Array) -> Array:
    """num/den with pole flagging by magnitude threshold."""
    with np.errstate(all="ignore"):
        out = num / den
        scale = np.maximum(np.abs(num), 1.0)
        bad = np.abs(den) < POLE_THRESHOLD * scale
        return np.where(bad | ~np.isfinite(out), np.nan + 0j, out)


def batched_det(mats: Array) -> Array:
    """Determinant pairs of a stack of complex 4 x 5 matrices, shape (..., 4, 5):
    det[j], of shape (2,) + mats.shape[:-2], is the determinant of columns
    0-2 completed by column 3 + j, as from `numerics.determinant.batched_det`.

    The catalog's own determinant, not the engine's elimination: the Laplace
    expansion along the last column, whose four 3 x 3 cofactors of columns
    0-2 both determinants share, with no pivoting.  The input is only read,
    so a matrix-first array seen through a (..., 4, 5) view costs no copy.
    It shares the engine routine's name so that instrumentation wrapping
    `batched_det` by module attribute, as `benchmarks/tracing.py` does,
    times it with the other determinants.
    """
    lead = [mats[..., r, 0] for r in range(4)]
    # the 2 x 2 minors of columns 1, 2, by row pair
    m = {(a, b): mats[..., a, 1] * mats[..., b, 2] - mats[..., a, 2] * mats[..., b, 1]
         for a in range(4) for b in range(a + 1, 4)}
    # k[r]: the 3 x 3 minor without row r, expanded along column 0
    k = [lead[a] * m[b, c] - lead[b] * m[a, c] + lead[c] * m[a, b]
         for a, b, c in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))]
    return np.array([k[1] * mats[..., 1, j] - k[0] * mats[..., 0, j]
                     + k[3] * mats[..., 3, j] - k[2] * mats[..., 2, j] for j in (3, 4)])


# ---------------------------------------------------------------------------
# solitons (zero background)
# ---------------------------------------------------------------------------

def one_soliton(m1: float, n1: float, alpha: float = 1.0,
                theta_p: float = 1.0, theta_q: float = 1.0) -> CatalogEntry:
    """Single bright soliton from the eigenvalue pair m1 +- i n1.

    The exponents F1, F2 are arranged as a determinant ratio, which is
    localized and solves the equation (the published arrangement divides
    by a single exponential factor and grows without bound along one ridge
    direction).
    """
    if n1 == 0:
        raise ValueError("n1 = 0 collapses the eigenvalue pair")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    _check_finite(m1=m1, n1=n1, alpha=alpha, theta_p=theta_p, theta_q=theta_q)
    l1 = m1 + 1j * n1
    l2 = np.conj(l1)
    ra = np.sqrt(alpha)

    def F(lam, x, t):
        th = theta_p * x + theta_q * t
        return -(1 / 4) * (-2 * lam ** 2 * x + lam ** 4 * t + 4 * th)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        e1 = np.exp(1j * F(l1, x, t))
        e2 = np.exp(1j * F(l2, x, t))
        num = (l1 * l1 - l2 * l2) * e1 * e2 * (l1 * e2 - l2 * e1)
        return _guard(num, ra * (l1 * e1 - l2 * e2) ** 2)

    return CatalogEntry(ev)


def two_soliton(m1: float, n1: float, m2: float, n2: float, alpha: float = 1.0,
                theta_p: float = 1.0, theta_q: float = 1.0) -> CatalogEntry:
    """Two-soliton field from the pairs m1 +- i n1 and m2 +- i n2.

    The circulated coefficient table for this solution leaves its
    cosine-term coefficient undefined and scrambles several conjugations,
    so it cannot be transcribed as a working formula.  The coefficients
    below come from a direct two-column Laplace expansion of the order-two
    determinants and match the engine to machine precision (see tests).
    """
    if n1 == 0 or n2 == 0 or (m1, n1) == (m2, n2):
        raise ValueError("eigenvalue pairs must be distinct and off-axis")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    _check_finite(m1=m1, n1=n1, m2=m2, n2=n2, alpha=alpha, theta_p=theta_p,
                  theta_q=theta_q)
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
        e_osc = np.exp(1j * osc)
        den = (cross * (abs(l1) ** 2 * np.conj(e_osc) + abs(l3) ** 2 * e_osc)
               + l1 * l3 * ab2 * np.exp(grow_sum) + l2 * l4 * ab2 * np.exp(-grow_sum)
               - l1 * l4 * cd2 * np.exp(grow_diff) - l2 * l3 * cd2 * np.exp(-grow_diff))
        num = (num5 * np.exp(mixed1) + num6 * np.exp(-np.conj(mixed1))
               + num7 * np.exp(mixed2) + num8 * np.exp(-np.conj(mixed2)))
        th = theta_p * x + theta_q * t
        # the mirrored determinant is conj(den) for real x, t
        return _guard(np.exp(-1j * th) * np.conj(den) * num, ra * den ** 2)

    return CatalogEntry(ev)


# ---------------------------------------------------------------------------
# positon (coalesced two-soliton, zero background)
# ---------------------------------------------------------------------------

def positon(re1: float, im1: float, alpha: float = 1.0,
            theta_p: float = 1.0, theta_q: float = 1.0) -> CatalogEntry:
    """Degenerate two-soliton at the double eigenvalue re1 + i im1.

    The coalescence limit in closed form: the second eigenvalue pair's rows
    are replaced by exact lambda-derivative rows, which is the limit the
    perturbed two-soliton converges to.  It takes three 4 x 4 determinants:
    the matrix, the one with conjugate-swapped components, and that one
    with its leading column shifted one power up.  The first is the
    conjugate of the second, and the other two share three columns, so one
    4 x 5 stack through the catalog's own `batched_det` gives all three.
    (The published polynomial/cosh display fails the residual checks.)
    """
    if re1 * im1 == 0:
        raise ValueError("re1 and im1 must both be nonzero")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    _check_finite(re1=re1, im1=im1, alpha=alpha, theta_p=theta_p, theta_q=theta_q)
    lam = re1 + 1j * im1
    ra = np.sqrt(alpha)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        E = (2 * lam ** 2 * x - lam ** 4 * t) / 8
        dE = lam * (x - lam ** 2 * t) / 2
        phi, vph = np.exp(-1j * E), np.exp(1j * E)
        dphi, dvph = -1j * dE * phi, 1j * dE * vph
        # the swapped matrix's columns of powers 2, 1, 0, 3 and 4 (its leading
        # column shifted), stored matrix-first: each entry of the (..., 4, 5)
        # view is one contiguous array
        M = np.empty((4, 5) + np.broadcast(x, t).shape, dtype=complex)
        for col, p in enumerate((2, 1, 0, 3, 4)):
            comp, dcomp, comp_o, dcomp_o = ((phi, dphi, vph, dvph) if p % 2 == 1
                                            else (vph, dvph, phi, dphi))
            M[0, col] = lam ** p * comp
            M[1, col] = np.conj(lam ** p * comp_o)
            M[2, col] = p * lam ** (p - 1) * comp + lam ** p * dcomp
            M[3, col] = np.conj(p * lam ** (p - 1) * comp_o + lam ** p * dcomp_o)
        # both carry the sign of moving the leading column last, which cancels;
        # the main matrix is the swapped one conjugated, with rows (0, 1) and
        # (2, 3) exchanged, so its determinant is conj(swapped)
        swapped, swapped_shift = batched_det(np.moveaxis(M, (0, 1), (-2, -1)))
        th = theta_p * x + theta_q * t
        return _guard(np.exp(-1j * th) * swapped * swapped_shift, ra * np.conj(swapped) ** 2)

    return CatalogEntry(ev)


# ---------------------------------------------------------------------------
# plane-wave background entries (fixed instances a=-2, c=1, alpha=1)
# ---------------------------------------------------------------------------

_TAU = 0.2420614592          # sqrt(15)/16, the breather's temporal rate
_XFREQ = 0.9682458364        # sqrt(15)/4, the breather's spatial frequency


def _breather_factors(x, t):
    """The breather's numerator factors b1, b2."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    ex_m = np.exp(-_XFREQ * 1j * x)
    et_p = np.exp(_TAU * t)
    et_m = np.exp(-_TAU * t)
    b1 = (63508327j * ex_m + 5e8 * 1j * np.conj(ex_m) + 436491673 * et_p
          - 563508327j * et_p - 436491673 * et_m - 563508327j * et_m)
    carrier = np.exp(-2j * x - 1j * t)
    b2 = (1309475019 * et_m * carrier
          + 10e8 * 1j * np.exp(-0.4e-8 * 1j * (257938541 * x + 2.5e8 * t))
          - 1309475019 * et_p * carrier + 563508327j * et_p * carrier
          + 563508327j * et_m * carrier
          + 127016654j * np.exp(-0.4e-8 * 1j * (742061459 * x + 2.5e8 * t)))
    return b1, b2


def breather() -> CatalogEntry:
    """Breather on the plane-wave background (fixed instance a=-2, c=1).

    The generating eigenvalue of this instance is 0.5 + 0.5i: the temporal
    rate sqrt(15)/16 and spatial frequency sqrt(15)/4 encoded in the
    coefficients pin it uniquely (see tests; the parameter label this
    instance circulates with says 0.5 + i, which is inconsistent with the
    coefficients).  It fixes one exponent sign in b1 and one missing
    imaginary unit in b2 of the published table.
    """
    def ev(x, t):
        # the factors' temporaries are freed before the quotient is formed
        b1, b2 = _breather_factors(x, t)
        # the printed b3 is -conj(b1) for real x, t
        return _guard(-b1 * b2, 2 * np.conj(b1) ** 2)

    return CatalogEntry(ev)


def _horner(coefs, z):
    """coefs[0] + z * (coefs[1] + z * (...)), out of place, so z and the
    coefficients may be 0-d, arrays or scalars of any broadcast shapes."""
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * z + c
    return acc


def _polynomial(rows) -> Callable:
    """Vectorized (x, t) -> sum of c x^i t^j over the rows (c, i, j).

    The rows are collected once into a table indexed by (x power, t power).
    The x-polynomials of all t powers are evaluated together, by Horner in x
    on x as given (the block's (rows, 1) axis under `sample`), and the block
    is then assembled by Horner in t: one product and one sum over the block
    per power of t.  Every step is elementwise, so a node's bits do not
    depend on the shapes of x and t.
    """
    deg_x = max(i for _, i, _ in rows)
    deg_t = max(j for _, _, j in rows)
    table = np.zeros((deg_x + 1, deg_t + 1), dtype=complex)
    for c, i, j in rows:
        table[i, j] += c

    def ev(x, t):
        by_t = _horner(table, np.asarray(x)[..., None])     # x.shape + (deg_t + 1,)
        return _horner(np.moveaxis(by_t, -1, 0), t)
    return ev


def _rogue_carrier(x: Array, t: Array) -> Array:
    """-exp(-i (2x + t)), the plane-wave carrier of both rogue waves with the
    sign of their numerators, as a product of an x factor and a t factor:
    on broadcast axes each exponential costs one value per row or column."""
    return -np.exp(-2j * x) * np.exp(-1j * t)


# The rogue-wave polynomials, one row (coefficient, x power, t power) per
# printed term, in the printed order.  Each published typo is one row, fixed
# here: a t^2 that must be t^3 in `_ROGUE1_DEN`, an x^4 that must be x^2 in
# `_ROGUE2_F2`.

_ROGUE1_NUM = [(3, 0, 0), (8, 2, 0), (8j, 2, 1), (8j, 1, 2), (8, 1, 1), (-8, 2, 2),
               (-4, 0, 4), (-4, 4, 0), (8j, 3, 0), (-4j, 1, 0), (12j, 0, 1), (8j, 0, 3),
               (-8, 0, 2)]

_ROGUE1_DEN = [(-1, 0, 0), (8j, 0, 3), (4j, 0, 1), (8j, 2, 1), (-8j, 1, 2), (-8, 1, 1),
               (-8, 2, 2), (-8j, 3, 0), (-4, 0, 4), (-4, 4, 0), (-4j, 1, 0)]

_ROGUE2_F1 = [(-72, 1, 1), (48, 3, 1), (-216, 2, 2), (24, 2, 4), (24, 4, 2), (90, 2, 0),
              (666, 0, 2), (-12, 4, 0), (180, 0, 4), (8, 0, 6), (8, 6, 0), (48, 1, 3),
              (9, 0, 0), (-48j, 3, 0), (-48j, 3, 2), (288j, 1, 2), (-54j, 1, 0),
              (-24j, 1, 4), (24j, 0, 5), (24j, 4, 1), (198j, 0, 1), (336j, 0, 3),
              (48j, 2, 3), (-24j, 5, 0)]

_ROGUE2_F2 = [(198, 2, 0), (-45, 0, 0), (-504, 1, 1), (144, 3, 1), (504, 2, 2), (144, 1, 3),
              (486, 0, 2), (60, 0, 4), (60, 4, 0), (-24, 2, 4), (-8, 0, 6), (-24, 4, 2),
              (-8, 6, 0), (-48j, 3, 0), (24j, 5, 0), (48j, 3, 2), (24j, 1, 4),
              (-288j, 2, 1), (-576j, 1, 2), (144j, 2, 3), (-90j, 1, 0), (-414j, 0, 1),
              (72j, 4, 1), (528j, 0, 3), (72j, 0, 5)]


def rogue1() -> CatalogEntry:
    """First-order rogue wave (fixed instance a=-2, c=1, critical eigenvalue 1+i).

    The numerator and denominator polynomials are row tables (see
    `_polynomial`).  The denominator has one published exponent fixed (a t^2
    term that must be t^3); the numerator is typo-free.
    """
    num = _polynomial(_ROGUE1_NUM)
    den = _polynomial(_ROGUE1_DEN)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return _guard(num(x, t) * _rogue_carrier(x, t), den(x, t))

    return CatalogEntry(ev)


def rogue2() -> CatalogEntry:
    """Second-order rogue wave (fixed instance a=-2, c=1).

    The printed numerator factors f1, f2 are row tables (see `_polynomial`).
    The printed denominator factor f3 is -conj(f1) row by row, so for real
    x, t it is -conj(f1(x, t)) and is not evaluated.  f2 has one published
    exponent fixed (an x^4 that must be x^2); f1 and f3 are typo-free.
    """
    f1 = _polynomial(_ROGUE2_F1)
    f2 = _polynomial(_ROGUE2_F2)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        p1 = f1(x, t)
        # f3^2 = (-conj(f1))^2 = conj(f1)^2
        return _guard(p1 * f2(x, t) * _rogue_carrier(x, t), np.conj(p1) ** 2)

    return CatalogEntry(ev)
