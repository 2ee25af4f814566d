"""The catalog's solutions as published, typos included.

Each function returns a vectorized field closure (x, t) -> complex that
transcribes the coefficient table a solution circulates with, literally.
These are not solutions: the tests check that each fails where the
catalog's fixed form succeeds, and that the two differ by the documented
typo only.  The two-soliton has no entry, because its published table
leaves a coefficient undefined and cannot be evaluated.
"""
import numpy as np

from kundu_dnls.catalog import (_ROGUE1_DEN, _ROGUE1_NUM, _ROGUE2_F1, _ROGUE2_F2, _TAU,
                                _XFREQ, _guard, _polynomial, _rogue_carrier)


def _with_printed_row(rows, fixed, printed):
    """The catalog's row table with its one fixed row as printed."""
    assert rows.count(fixed) == 1
    return [printed if row == fixed else row for row in rows]


# the printed t^2 that must be t^3, and the printed x^4 that must be x^2
ROGUE1_DEN = _with_printed_row(_ROGUE1_DEN, (8j, 0, 3), (8j, 0, 2))
ROGUE2_F2 = _with_printed_row(_ROGUE2_F2, (-288j, 2, 1), (-288j, 4, 1))


def one_soliton(m1, n1, alpha=1.0, theta_p=1.0, theta_q=1.0):
    """The published arrangement: the exponents over a single exponential
    factor, which grows without bound along one ridge direction."""
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
        f = (1 / 8) * (l1 - l2) * (l1 + l2) * (t * l1 ** 2 - 2 * x + t * l2 ** 2)
        return _guard((e1 * l1 - e2 * l2) * (l1 + l2),
                      np.exp(-2j * f) * ra * (l1 - l2))
    return ev


def positon(re1, im1):
    """The published polynomial/cosh display."""
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
    return ev


def breather():
    """The published breather table: the catalog's, with the sign of one
    exponent in b1 flipped and the imaginary unit of one b2 term missing."""
    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        ex_m = np.exp(-_XFREQ * 1j * x)
        ex_p = np.exp(_XFREQ * 1j * x)
        et_p = np.exp(_TAU * t)
        et_m = np.exp(-_TAU * t)
        b1 = (63508327j * ex_m + 436491673 * et_p - 563508327j * et_p
              - 436491673 * et_m - 563508327j * et_m + 5e8 * 1j * ex_m)
        carrier = np.exp(-2j * x - 1j * t)
        b2 = (1309475019 * et_m * carrier
              + 10e8 * 1j * np.exp(-0.4e-8 * 1j * (257938541 * x + 2.5e8 * t))
              - 1309475019 * et_p * carrier + 563508327j * et_p * carrier
              + 563508327 * et_m * carrier
              + 127016654j * np.exp(-0.4e-8 * 1j * (742061459 * x + 2.5e8 * t)))
        b3 = (5e8 * 1j * ex_m + 63508327j * ex_p - 436491673 * et_p
              - 563508327j * et_p + 436491673 * et_m - 563508327j * et_m)
        return _guard(-b1 * b2, 2 * b3 ** 2)
    return ev


def rogue1():
    """The first-order rogue wave with the printed denominator row."""
    num, den = _polynomial(_ROGUE1_NUM), _polynomial(ROGUE1_DEN)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return _guard(num(x, t) * _rogue_carrier(x, t), den(x, t))
    return ev


def rogue2():
    """The second-order rogue wave with the printed f2 row."""
    f1, f2 = _polynomial(_ROGUE2_F1), _polynomial(ROGUE2_F2)

    def ev(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        p1 = f1(x, t)
        return _guard(p1 * f2(x, t) * _rogue_carrier(x, t), np.conj(p1) ** 2)
    return ev
