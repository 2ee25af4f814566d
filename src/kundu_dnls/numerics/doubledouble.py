"""Vectorized double-double (~31 significant digits) complex arithmetic.

Built from the classic error-free transformations (two_sum, Dekker split /
two_prod).  `numerics.printing` forms its scaled products with
`_dd_mul_double`.  The engine evaluates in double only: `DDComplexArray` and
`dd_batched_det` are no longer on any of its paths and stay, checked
against mpmath, because the benchmark tracer binds them by name.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinant import stack_dims

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


def _dd_mul_double(ahi, alo, b):
    """Double-double times double: the leading product exactly, by _two_prod."""
    p, e = _two_prod(ahi, b)
    return _quick_two_sum(p, e + alo * b)


def _dd_div(ahi, alo, bhi, blo):
    q1 = ahi / bhi
    # r = a - q1*b, evaluated in double-double
    p, e = _dd_mul(np.asarray(q1), np.zeros_like(q1), bhi, blo)
    rhi, rlo = _dd_add(ahi, alo, -p, -e)
    q2 = (rhi + rlo) / bhi
    return _quick_two_sum(q1, q2)


# kept: benchmarks/tracing.py imports it and patches its `from_mp`
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

    @property
    def parts(self) -> tuple:
        return self.re_hi, self.re_lo, self.im_hi, self.im_lo

    def map(self, fn) -> "DDComplexArray":
        """The same array operation (an index, a reshape, a view) on every part."""
        return DDComplexArray(*(fn(part) for part in self.parts))

    @classmethod
    def empty(cls, shape) -> "DDComplexArray":
        return cls(*(np.empty(shape) for _ in range(4)))

    @classmethod
    def from_complex(cls, z: Array) -> "DDComplexArray":
        z = np.asarray(z, dtype=complex)
        zero = np.zeros(z.shape)
        return cls(z.real.copy(), zero.copy(), z.imag.copy(), zero.copy())

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def from_mp(cls, values) -> "DDComplexArray":
        """Build from an array-like of mpmath mpc values (shape preserved); a
        value beyond double's range gives non-finite parts, not a warning."""
        arr = np.asarray(values, dtype=object)
        hi = arr.astype(complex)
        # the remainder is taken in mpmath at the working precision
        lo = (arr - hi).astype(complex)
        return cls(hi.real, lo.real, hi.imag, lo.imag)

    def to_complex(self) -> Array:
        return (self.re_hi + self.re_lo) + 1j * (self.im_hi + self.im_lo)

    def __getitem__(self, idx) -> "DDComplexArray":
        return self.map(lambda part: part[idx])

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

    def conjugate(self) -> "DDComplexArray":
        """The exact complex conjugate (the name ndarray gives it)."""
        return DDComplexArray(self.re_hi, self.re_lo, -self.im_hi, -self.im_lo)

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
        num = self * other.conjugate()
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


@np.errstate(divide="ignore", invalid="ignore")
def _eliminate(a: DDComplexArray) -> tuple:
    """`determinant.eliminate` on a double-double (m, m+e, N) stack, in place,
    with the same contract; the row swaps here are gathers and scatters."""
    m, n = a.shape[0], a.shape[-1]
    one, where = DDComplexArray.from_complex(np.ones(())), DDComplexArray.where
    sign = np.ones(n)
    piv_max = np.zeros(n)
    piv_min = np.full(n, np.inf)
    det = one
    for k in range(m - 1):
        rel = np.argmax(abs(a[k:, k]), axis=0) + k
        swap = np.flatnonzero(rel != k)
        if swap.size:
            # columns left of k are never read again, so only k: moves
            r = rel[swap]
            tmp = a[k, k:, swap]
            a[k, k:, swap] = a[r, k:, swap]
            a[r, k:, swap] = tmp
            sign[swap] = -sign[swap]
        piv = a[k, k]
        ap = abs(piv)
        piv_max = np.maximum(piv_max, ap)
        piv_min = np.minimum(piv_min, ap)
        det = det * piv
        nonzero = ap > 0
        # column k below the pivot is never read again: it is left as it is
        for i in range(k + 1, m):
            a[i, k + 1:] -= where(nonzero, a[i, k] / piv, 0.0) * a[k, k + 1:]
    last = a[m - 1, m - 1:]
    ap = abs(last[0])
    piv_max = np.maximum(piv_max, ap)
    piv_min = np.minimum(piv_min, ap)
    # multiplying by a unit, not negating det, keeps the signs of zeros
    det = det * last * where(sign > 0, one, -one)
    return det, np.where(piv_min > 0, piv_max / piv_min, np.inf)


# kept: benchmarks/tracing.py patches `darboux.dd_batched_det`
def dd_batched_det(mat: DDComplexArray) -> tuple[DDComplexArray, Array]:
    """Pivoted elimination determinants over a (..., m, m+e) double-double stack.

    The stack is eliminated as `determinant.eliminate` eliminates a complex
    one, with the same contract: (det, pivot_ratio), det of shape
    lead for a square stack and (e + 1,) + lead for e > 0.  A stack whose
    parts are already in elimination's (m, m+e, N) layout is eliminated in
    place: a stack stored matrix-first, whose parts are (..., m, m+e) views
    of (m, m+e, ...) C-ordered arrays, and any C-ordered stack of a single
    matrix.  Any other stack is copied once into that layout and left as it
    was.
    """
    m, w, lead, det_lead = stack_dims(mat.shape)
    # batch on the last axis: a view of a stack already in that layout, the
    # one copy of any other
    a = mat.map(lambda part: np.ascontiguousarray(
        np.moveaxis(part, (-2, -1), (0, 1)).reshape((m, w, -1))))
    det, ratio = _eliminate(a)
    return det.map(lambda part: part.reshape(det_lead)), ratio.reshape(lead)
