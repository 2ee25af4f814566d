"""Vectorized double-double (~31 significant digits) complex arithmetic.

Built from the classic error-free transformations (two_sum, Dekker split /
two_prod).  Near-coalescent spectral data cancel roughly n*|log10 eps|
digits inside the transformation determinants, which overruns plain doubles
for the smallest perturbation radii; the engine switches to this
representation there.  Constants computed in mpmath are split into hi/lo
parts once (`from_mp`); the eigenfunctions are then evaluated here, with the
double-double `exp` and `cos`/`sin` of Hida, Li & Bailey ("Algorithms for
quad-double precision floating point arithmetic", ARITH-15, 2001; the QD
library): argument reduction by ln 2 and pi/2, then a Taylor series.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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


def _dd_mul_double(ahi, alo, b):
    """Double-double times double: the leading product exactly, by _two_prod."""
    p, e = _two_prod(ahi, b)
    return _quick_two_sum(p, e + alo * b)


def _dd_const(num: int, den: int) -> tuple[float, float]:
    """num / den as a double-double; Python's integer division rounds correctly."""
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


# ln 2 and pi/2 in three doubles (about 160 bits), so that k times either is
# exact to well below a double-double ulp for any reduction count k in range
_LN2 = (0.6931471805599453, 2.3190468138462996e-17, 5.707708438416212e-34)
_PI_2 = (1.5707963267948966, 6.123233995736766e-17, -1.4973849048591698e-33)
_EXP_HALVINGS = 9          # exp's reduced argument is scaled by 2**-9 ...
_EXP_COEFFS = [_dd_const(1, factorial(j)) for j in range(1, 10)]  # ... to s**9/9!
# |r| <= pi/4: sin r / r in r**2 up to r**26/27!
_SIN_COEFFS = [_dd_const((-1) ** j, factorial(2 * j + 1)) for j in range(14)]


def _reduce(hi, lo, const):
    """(k, r): hi + lo = k const + r with k the integer nearest (hi + lo)/const."""
    k = np.round(hi / const[0])
    r = _dd_add(hi, lo, *(-v for v in _two_prod(k, const[0])))
    r = _dd_add(*r, *(-v for v in _two_prod(k, const[1])))
    return k, _dd_add(*r, -k * const[2], 0.0)


def _horner(shi, slo, coeffs):
    """sum_j coeffs[j] s**j for double-double coefficients, highest last."""
    ph, pl = coeffs[-1]
    for ch, cl in coeffs[-2::-1]:
        ph, pl = _dd_add(*_dd_mul(ph, pl, shi, slo), ch, cl)
    return ph, pl


@np.errstate(over="ignore", invalid="ignore")
def dd_exp(hi: Array, lo: Array) -> tuple[Array, Array]:
    """exp of a double-double array, as (hi, lo).

    a = k ln 2 + r with |r| <= ln2 / 2; expm1(r / 2**9) by Taylor series,
    doubled back by expm1(2s) = 2 expm1(s) + expm1(s)**2 nine times, and
    exp(a) = 2**k (1 + expm1(r)), scaled by `ldexp`.  An argument beyond
    double's range gives inf or 0 without a warning; NaN stays NaN.
    """
    k, (rh, rl) = _reduce(hi, lo, _LN2)
    scale = 2.0 ** -_EXP_HALVINGS
    sh, sl = rh * scale, rl * scale
    eh, el = _dd_mul(*_horner(sh, sl, _EXP_COEFFS), sh, sl)
    for _ in range(_EXP_HALVINGS):
        eh, el = _dd_add(2.0 * eh, 2.0 * el, *_dd_mul(eh, el, eh, el))
    mh, ml = _dd_add(1.0, 0.0, eh, el)
    # past +-4000 every double mantissa over- or underflows alike
    n = np.clip(np.where(np.isnan(k), 0.0, k), -4000, 4000).astype(np.int64)
    return np.ldexp(mh, n), np.ldexp(ml, n)


@np.errstate(over="ignore", invalid="ignore")
def dd_cos_sin(hi: Array, lo: Array) -> tuple[tuple[Array, Array], tuple[Array, Array]]:
    """(cos, sin) of a double-double array, each as (hi, lo).

    a = k pi/2 + r with |r| <= pi/4; sin r by its Taylor series in r**2 and
    cos r = sqrt(1 - sin(r)**2) >= 1/sqrt(2) (one Newton step from the
    double root), then rotated by the quadrant k mod 4.
    """
    k, (rh, rl) = _reduce(hi, lo, _PI_2)
    s = _dd_mul(*_horner(*_dd_mul(rh, rl, rh, rl), _SIN_COEFFS), rh, rl)
    c2h, c2l = _dd_add(1.0, 0.0, *(-v for v in _dd_mul(*s, *s)))
    root = np.sqrt(c2h)
    eh, el = _dd_add(c2h, c2l, *(-v for v in _two_prod(root, root)))
    c = _dd_add(root, 0.0, eh / (2.0 * root), el / (2.0 * root))
    q = np.mod(k, 4.0)
    swap, cos_neg, sin_neg = (q == 1) | (q == 3), (q == 1) | (q == 2), q >= 2
    cos = [np.where(swap, b, a) for a, b in zip(c, s)]
    sin = [np.where(swap, a, b) for a, b in zip(c, s)]
    return (tuple(np.where(cos_neg, -v, v) for v in cos),
            tuple(np.where(sin_neg, -v, v) for v in sin))


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


@np.errstate(over="ignore", invalid="ignore")
def dd_exp_terms(c: DDComplexArray, kx: DDComplexArray, kt: DDComplexArray,
                 x: Array, t: Array) -> DDComplexArray:
    """c exp(kx x + kt t) over the broadcast shape of all five operands, for
    double-double complex c, kx, kt and double x, t.

    The real exponent Re kx x + Re kt t is formed whole, each product exactly
    (`_two_prod`), and exponentiated whole: it over- and underflows where the
    whole exponent does, and x and t parts that are each huge but cancel stay
    finite.  An overflow gives non-finite values, never a warning.  The
    phase c exp(i Im kx x) exp(i Im kt t) takes each factor on its own
    operands' shape: on the broadcast axes of `sample`, cos and sin cost one
    evaluation per row and per column, not per node.
    """
    mag = dd_exp(*_dd_add(*_dd_mul_double(kx.re_hi, kx.re_lo, x),
                          *_dd_mul_double(kt.re_hi, kt.re_lo, t)))
    ix, it = (_dd_mul_double(k.im_hi, k.im_lo, v) for k, v in ((kx, x), (kt, t)))
    # one cos/sin call for both phase factors, their arguments laid end to end
    cos, sin = dd_cos_sin(*(np.concatenate([a.ravel(), b.ravel()]) for a, b in zip(ix, it)))
    cis, n = DDComplexArray(*cos, *sin), ix[0].size
    phase = (c * cis.map(lambda part: part[:n].reshape(ix[0].shape))
             * cis.map(lambda part: part[n:].reshape(it[0].shape)))
    return DDComplexArray(*_dd_mul(*mag, phase.re_hi, phase.re_lo),
                          *_dd_mul(*mag, phase.im_hi, phase.im_lo))


def dd_batched_det(mat: DDComplexArray) -> tuple[DDComplexArray, Array]:
    """Pivoted elimination determinants over a (..., m, m+e) double-double stack.

    The stack is eliminated by `determinant.eliminate`, the routine behind
    `batched_det`, with the same contract: (det, pivot_ratio), det of shape
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
    det, ratio = eliminate(a, DDComplexArray.from_complex(np.ones(())),
                           DDComplexArray.where)
    return det.map(lambda part: part.reshape(det_lead)), ratio.reshape(lead)
