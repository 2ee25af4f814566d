"""Vectorized double-double (~31 significant digits) complex arithmetic.

Built from the classic error-free transformations (two_sum, Dekker split /
two_prod).  Near-coalescent spectral data cancel roughly n*|log10 eps|
digits inside the transformation determinants, which overruns plain doubles
for the smallest perturbation radii; the engine switches to this
representation there.  Matrix entries are seeded from mpmath values so the
inputs carry more than double accuracy to begin with.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinant import eliminate, stack_dims

Array = np.ndarray

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: Array, b: Array) -> tuple[Array, Array]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a: Array, b: Array) -> tuple[Array, Array]:
    s = a + b
    return s, b - (s - a)


def _split(a: Array) -> tuple[Array, Array]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: Array, b: Array) -> tuple[Array, Array]:
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _dd_add(ahi, alo, bhi, blo):
    s, e = _two_sum(ahi, bhi)
    t, f = _two_sum(alo, blo)
    e = e + t
    s, e = _quick_two_sum(s, e)
    e = e + f
    return _quick_two_sum(s, e)


def _dd_mul(ahi, alo, bhi, blo):
    p, e = _two_prod(ahi, bhi)
    e = e + (ahi * blo + alo * bhi)
    return _quick_two_sum(p, e)


def _dd_div(ahi, alo, bhi, blo):
    q1 = ahi / bhi
    # r = a - q1*b, evaluated in double-double
    p, e = _dd_mul(np.asarray(q1), np.zeros_like(q1), bhi, blo)
    rhi, rlo = _dd_add(ahi, alo, -p, -e)
    q2 = (rhi + rlo) / bhi
    return _quick_two_sum(q1, q2)


@dataclass
class DDComplexArray:
    """Complex array with double-double real and imaginary parts."""

    re_hi: Array
    re_lo: Array
    im_hi: Array
    im_lo: Array

    @property
    def shape(self):
        return np.shape(self.re_hi)

    @classmethod
    def from_complex(cls, z: Array) -> "DDComplexArray":
        z = np.asarray(z, dtype=complex)
        zero = np.zeros(z.shape)
        return cls(z.real.copy(), zero.copy(), z.imag.copy(), zero.copy())

    @classmethod
    def from_mp(cls, values) -> "DDComplexArray":
        """Build from an array-like of mpmath mpc values (shape preserved)."""
        arr = np.asarray(values, dtype=object)
        hi = arr.astype(complex)
        # the remainder is taken in mpmath at the working precision
        lo = (arr - hi).astype(complex)
        return cls(hi.real, lo.real, hi.imag, lo.imag)

    def to_complex(self) -> Array:
        return (self.re_hi + self.re_lo) + 1j * (self.im_hi + self.im_lo)

    def copy(self) -> "DDComplexArray":
        return DDComplexArray(self.re_hi.copy(), self.re_lo.copy(),
                              self.im_hi.copy(), self.im_lo.copy())

    def __getitem__(self, idx) -> "DDComplexArray":
        return DDComplexArray(self.re_hi[idx], self.re_lo[idx],
                              self.im_hi[idx], self.im_lo[idx])

    def __setitem__(self, idx, other: "DDComplexArray"):
        self.re_hi[idx] = other.re_hi
        self.re_lo[idx] = other.re_lo
        self.im_hi[idx] = other.im_hi
        self.im_lo[idx] = other.im_lo

    def __add__(self, other: "DDComplexArray") -> "DDComplexArray":
        rh, rl = _dd_add(self.re_hi, self.re_lo, other.re_hi, other.re_lo)
        ih, il = _dd_add(self.im_hi, self.im_lo, other.im_hi, other.im_lo)
        return DDComplexArray(rh, rl, ih, il)

    def __sub__(self, other: "DDComplexArray") -> "DDComplexArray":
        return self + (-other)

    def __neg__(self) -> "DDComplexArray":
        return DDComplexArray(-self.re_hi, -self.re_lo, -self.im_hi, -self.im_lo)

    def __mul__(self, other: "DDComplexArray") -> "DDComplexArray":
        ac0, ac1 = _dd_mul(self.re_hi, self.re_lo, other.re_hi, other.re_lo)
        bd0, bd1 = _dd_mul(self.im_hi, self.im_lo, other.im_hi, other.im_lo)
        ad0, ad1 = _dd_mul(self.re_hi, self.re_lo, other.im_hi, other.im_lo)
        bc0, bc1 = _dd_mul(self.im_hi, self.im_lo, other.re_hi, other.re_lo)
        rh, rl = _dd_add(ac0, ac1, -bd0, -bd1)
        ih, il = _dd_add(ad0, ad1, bc0, bc1)
        return DDComplexArray(rh, rl, ih, il)

    def __truediv__(self, other: "DDComplexArray") -> "DDComplexArray":
        # a/b = a * conj(b) / |b|^2, all in double-double
        conj = DDComplexArray(other.re_hi, other.re_lo, -other.im_hi, -other.im_lo)
        num = self * conj
        r20, r21 = _dd_mul(other.re_hi, other.re_lo, other.re_hi, other.re_lo)
        i20, i21 = _dd_mul(other.im_hi, other.im_lo, other.im_hi, other.im_lo)
        den_hi, den_lo = _dd_add(r20, r21, i20, i21)
        rh, rl = _dd_div(num.re_hi, num.re_lo, den_hi, den_lo)
        ih, il = _dd_div(num.im_hi, num.im_lo, den_hi, den_lo)
        return DDComplexArray(rh, rl, ih, il)

    def abs_hi(self) -> Array:
        """Leading-order magnitude, used for pivot selection."""
        return np.hypot(self.re_hi, self.im_hi)

    __abs__ = abs_hi

    @staticmethod
    def where(mask: Array, x, y) -> "DDComplexArray":
        """Entrywise select; plain numbers are taken as double-double."""
        x, y = (v if isinstance(v, DDComplexArray) else DDComplexArray.from_complex(v)
                for v in (x, y))
        return DDComplexArray(np.where(mask, x.re_hi, y.re_hi), np.where(mask, x.re_lo, y.re_lo),
                              np.where(mask, x.im_hi, y.im_hi), np.where(mask, x.im_lo, y.im_lo))


def dd_batched_det(mat: DDComplexArray) -> tuple[DDComplexArray, Array]:
    """Pivoted elimination determinants over a (..., m, m+e) double-double stack.

    The stack is copied once into (m, m+e, N) and eliminated by
    `determinant.eliminate`, the routine behind `batched_det`, with the
    same contract: (det, pivot_ratio), det of shape lead for a square stack
    and (e + 1,) + lead for e > 0.
    """
    m, w, lead, det_lead = stack_dims(mat.shape)
    a = DDComplexArray(*(np.array(part.reshape((-1, m, w)).transpose(1, 2, 0), order="C")
                         for part in (mat.re_hi, mat.re_lo, mat.im_hi, mat.im_lo)))
    det, ratio = eliminate(a, DDComplexArray.from_complex(np.ones(())),
                           DDComplexArray.where)
    return (DDComplexArray(*(part.reshape(det_lead) for part in (det.re_hi, det.re_lo,
                                                                 det.im_hi, det.im_lo))),
            ratio.reshape(lead))
