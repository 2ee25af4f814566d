"""Per-node mpmath references for the double-double (extended) path.

Everything here is evaluated one point at a time at 40 digits, with no
double-double arithmetic, so the vectorized extended path is checked
against an independent computation: the exponential sums term by term, and
each of the four transformation determinants by `mp.det`.
"""
import mpmath as mp
import numpy as np


DPS = 40


def exp_sum(s, x, t):
    """sum_k c_k exp(kx_k x + kt_k t) of an `ExpSum` at one point, in mpmath
    at the caller's working precision."""
    x, t = mp.mpf(x), mp.mpf(t)
    return sum(c * mp.exp(kx * x + kt * t) for c, kx, kt in s.terms)


def dd_value(dd, idx=()):
    """The exact value of one entry of a `DDComplexArray` as an mpc."""
    re_hi, re_lo, im_hi, im_lo = (mp.mpf(float(part[idx])) for part in dd.parts)
    return mp.mpc(re_hi + re_lo, im_hi + im_lo)


def _rows(spectral_set, x, t):
    """(lam, phi, varphi) of each row at one point: a reduced set's partner
    is (lam*, varphi*, phi*)."""
    rows = []
    for d in spectral_set.data:
        lam, p, v = mp.mpc(d.lam), exp_sum(d.phi, x, t), exp_sum(d.varphi, x, t)
        rows.append((lam, p, v))
        if spectral_set.reduction:
            rows.append((mp.conj(lam), mp.conj(v), mp.conj(p)))
    return rows


def _dets(rows, swap):
    """The unshifted and shifted determinants of the paper's n-fold map:
    row j holds lam_j^(2n-1) .. lam_j^0 against varphi (odd powers) and phi
    (even powers), roles exchanged by swap; the shifted matrix has
    lam_j^(2n) times the even-power component in its leading column."""
    m = len(rows)
    table = []
    for lam, p, v in rows:
        f, g = (v, p) if swap else (p, v)
        table.append([lam ** k * (g if k % 2 == 1 else f) for k in range(m, -1, -1)])
    unshifted = mp.det(mp.matrix([row[1:] for row in table]))
    shifted = mp.det(mp.matrix([[row[0]] + row[2:] for row in table]))
    return unshifted, shifted


def n_fold_q(spectral_set, seed, x, t):
    """Q of the determinant-form n-fold transformation at one point, in mpmath."""
    with mp.workdps(DPS):
        rows = _rows(spectral_set, x, t)
        main, main_shift = _dets(rows, False)
        swapped, swapped_shift = _dets(rows, True)
        x, t = mp.mpf(x), mp.mpf(t)
        q0 = seed.c * mp.exp(1j * (seed.a * x + seed.b * t))
        eim = mp.exp(-1j * (seed.theta_p * x + seed.theta_q * t))
        q = ((swapped / main) ** 2 * q0
             + eim / mp.sqrt(seed.alpha) * swapped * swapped_shift / main ** 2)
        return complex(q)


def degenerate_q(sets, seed, xs, ts):
    """Q of `degenerate_limit` on the nodes (xs[i], ts[j]) from its spectral
    sets (two for n = 1, whose Q is the average), node by node."""
    out = np.empty((len(xs), len(ts)), dtype=complex)
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            out[i, j] = sum(n_fold_q(s, seed, x, t) for s in sets) / len(sets)
    return out
