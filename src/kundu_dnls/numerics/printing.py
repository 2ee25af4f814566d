"""Python's format(x, ".17g") of every element of a float array, in numpy.

Printing at a fixed precision needs one multiplication by a tabulated power
of ten, carried out precisely enough to settle the rounding (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019).  Here the
product is a double-double (`_dd_mul_double`), within 2^-46 of the exact
one; an element whose rounding that cannot settle is formatted by
`float_text`, so the bytes are exact by construction.

`format_floats` lays every number out in the same WIDTH byte columns, and a
mask keeps the bytes of its text.  Column 1 holds the sign, 2-6 the "0.000"
before the digits of a fixed form below 1, 7 + 2i digit i of the 17 and
6 + 2i a point before digit i >= 1, and 40-44 an exponent "e+ddd".  Columns
0, 45 and 46 are left free for a writer's brackets and separators.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .doubledouble import _dd_mul_double

WIDTH = 48
# |x| 10^(16 - E) is formed to within 2^-46 (about 1.4e-14): the table's
# double-double carries about 2^-106 relative error, the product three
# roundings of that size, and the value is below 2^58.  So it rounds as the
# exact product does wherever its fraction lies TIE_MARGIN or more from 1/2.
TIE_MARGIN = 1e-9
_E_MIN, _E_MAX = -324, 308      # decimal exponents of finite nonzero doubles
_P_MIN = 16 - _E_MAX - 1        # 10^p for p = 16 - E, one to spare each side
_FIRSTS, _EXPONENTS = 10000, 10010     # offsets in the word table


def float_text(v) -> str:
    """format(v, ".17g") of a finite v, and "nan", "inf" or "-inf" in double
    quotes otherwise."""
    v = float(v)
    return format(v, ".17g") if math.isfinite(v) else '"%s"' % repr(v)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, k) with 10^p = (hi + lo) 2^k and hi + lo in [1, 2) for p from
    _P_MIN, each (hi, lo) the double-double rounding of the exact rational."""
    rows = []
    for p in range(_P_MIN, 16 - _E_MIN + 2):
        five = 5 ** abs(p)
        # N = T 2^g for T = 10^p / 2^k in [1, 2): exactly 5^p for p >= 0 (10^p is
        # 5^p 2^p), and T 2^192 less a fraction for p < 0, whose rounding to
        # double-double it does not change (a test checks every entry)
        if p >= 0:
            N, g = five, five.bit_length() - 1
            k = p + g
        else:
            N, g = (1 << (five.bit_length() + 192)) // five, 192
            k = p - five.bit_length()
        hi = float(N)                   # float() rounds an int correctly
        rows.append((math.ldexp(hi, -g), math.ldexp(float(N - int(hi)), -g), k))
    hi, lo, k = zip(*rows)
    return np.array(hi), np.array(lo), np.array(k, dtype=np.int32)


@functools.cache
def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(words, last, keep, layout) for `format_floats`.

    words: the uint64 byte groups gathered six per number: ".d.d.d.d" for
    each group of four digits (rows 0000 .. 9999), columns 0-7 for each
    first digit (rows _FIRSTS + 0 .. 9) and columns 40-47 for each exponent
    (rows _EXPONENTS + E - _E_MIN).  last: 1 + the position of a group's last
    nonzero digit, 0 for 0000.  keep: the columns kept in layout s with last
    nonzero digit L, row 17 s + L; s = E is the fixed form at E >= 0, s =
    16 - E the fixed form below 1, and s = 21 and 22 the exponent form with
    two and three exponent digits.  layout: 17 s for each exponent (rows
    E - _E_MIN)."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.full((10000, 8), ord("."), np.uint8)
    for i in range(4):
        quads[:, 2 * i + 1] = np.tile(np.repeat(digits, 10 ** (3 - i)), 10 ** i)
    E = np.arange(_E_MIN, _E_MAX + 1)
    exps = np.zeros((E.size, 8), np.uint8)
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(E < 0, ord("-"), ord("+"))
    for i in range(3):
        exps[:, 2 + i] = np.abs(E) // 10 ** (2 - i) % 10 + ord("0")
    firsts = np.frombuffer(b"".join(b" -0.000%d" % d for d in range(10)), np.uint8)
    words = np.concatenate([quads, firsts.reshape(10, 8), exps]).view(np.uint64).ravel()
    g = np.arange(10000)
    last = np.where(g > 0, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0), 0)
    keep = np.zeros((23, 17, WIDTH), bool)
    L = np.arange(17)
    for s in range(23):
        row = keep[s]                       # one row per last nonzero digit L
        if 17 <= s <= 20:
            row[:, 2:3 + s - 16] = True     # "0." and -E - 1 zeros
            kept = L
        else:
            point = s if s <= 16 else 0     # the digit the point follows
            kept = np.maximum(L, point)     # the integer digits stay
            row[:, 8 + 2 * point] = kept > point
        row[:, 7:41:2] = L <= kept[:, None]
        if s >= 21:
            row[:, [40, 41, 43, 44]] = True
            row[:, 42] = s == 22
    s = np.where((E >= -4) & (E <= 16), np.where(E >= 0, E, 16 - E), 21 + (np.abs(E) >= 100))
    return words, last.astype(np.uint8), keep.reshape(-1, WIDTH), 17 * s


def _scaled(ax: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, f): the integer part and the fraction of ax 10^(16 - E), for
    finite ax > 0.  With ax = m 2^e from frexp, m times the table's 10^p is
    one double-double product in [1/2, 2), which ldexp scales exactly."""
    hi_t, lo_t, k_t = _pow10_table()
    i = 16 - E - _P_MIN
    m, e = np.frexp(ax)
    hi, lo = _dd_mul_double(hi_t[i], lo_t[i], m)
    e += k_t[i]
    # hi is at least 2^53 where E is right: an integer, so lo holds the fraction
    hi, lo = np.ldexp(hi, e), np.ldexp(lo, e)
    fl = np.floor(lo)
    return hi.astype(np.int64) + fl.astype(np.int64), lo - fl


def format_floats(a: np.ndarray, chars: np.ndarray, keep: np.ndarray):
    """Lay out `float_text` of every element of the float array `a` in chars
    and keep, uint8 and bool arrays of shape a.shape + (WIDTH,) that may be
    views: chars[i][keep[i]] are the bytes of `float_text(a[i])`.

    x = +-D 10^(E - 16) with D the 17-digit integer nearest |x| 10^(16 - E),
    and E the decimal exponent after rounding, which picks %g's fixed form
    (-4 <= E < 17) or its exponent form; trailing zeros are dropped.
    Non-finite elements and those whose fraction lies within TIE_MARGIN of
    1/2 are formatted by `float_text` itself."""
    shape = np.shape(a)
    a = np.ravel(np.asarray(a, dtype=float))
    n = a.size
    finite = np.isfinite(a)
    ax = np.abs(a, where=finite, out=np.ones(n))
    zero = ax == 0
    ax[zero] = 1.0
    E = np.floor(np.log10(ax)).astype(np.intp)
    D, f = _scaled(ax, E)
    # log10 may miss E by one next to a power of ten: take the neighbour
    # there.  Where |x| 10^(16 - E) lies within rounding of 10^16, either E
    # gives the same 17 digits, so one step is enough.
    off = (D >= 10 ** 17).astype(np.intp) - (D < 10 ** 16)
    bad = np.flatnonzero(off)
    if bad.size:
        E[bad] += off[bad]
        D[bad], f[bad] = _scaled(ax[bad], E[bad])
    special = np.flatnonzero(~finite | (np.abs(f - 0.5) < TIE_MARGIN))
    D += f > 0.5
    top = D == 10 ** 17          # rounded up to the next power of ten
    D[top] = 10 ** 16
    E += top
    D[zero] = 0
    E[zero] = 0
    del ax, f, off, top         # a block's temporaries are its memory peak

    words, last, keep_rows, layout = _layout_tables()
    # the word rows: the first digit, four groups of four, the exponent
    idx = np.empty((n, 6), np.intp)
    np.floor_divide(D, 10 ** 16, out=idx[:, 0])
    D -= idx[:, 0] * 10 ** 16
    for k in (1, 2, 3):
        np.floor_divide(D, 10 ** (16 - 4 * k), out=idx[:, k])
        D -= idx[:, k] * 10 ** (16 - 4 * k)
    idx[:, 4] = D
    L = np.zeros(n, np.intp)     # the last nonzero digit, 0 for zero
    for k in range(1, 5):
        pos = last[idx[:, k]]
        L = np.maximum(L, np.where(pos > 0, 4 * k - 4 + pos, 0))
    idx[:, 0] += _FIRSTS
    E -= _E_MIN                 # the exponent's row in the tables
    idx[:, 5] = E + _EXPONENTS
    words.take(idx.reshape(shape + (6,)), out=chars.view(np.uint64))
    del idx
    keep_rows.take((layout[E] + L).reshape(shape), axis=0, out=keep)
    keep[..., 1] = np.signbit(a).reshape(shape)

    for k in special:
        i = np.unravel_index(k, shape)
        text = float_text(a[k]).encode("ascii")
        chars[i][1:1 + len(text)] = np.frombuffer(text, np.uint8)
        keep[i] = False
        keep[i][1:1 + len(text)] = True


def formatted(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(chars, keep) of `format_floats` for a 1-d array, in new arrays."""
    chars = np.empty((a.size, WIDTH), np.uint8)
    keep = np.empty((a.size, WIDTH), bool)
    format_floats(a, chars, keep)
    return chars, keep
