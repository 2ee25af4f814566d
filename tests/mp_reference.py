"""Per-node mpmath references for the engine's finite-radius fields.

Everything here is evaluated one point at a time at 40 digits, so the
vectorized double path is checked against an independent computation, free
of its rounding error: the exponential sums term by term, and each of the
four transformation determinants by `mp.det`.  The spectral sets are the
engine's own, with eigenvalues and branch weights in double.
"""
import mpmath as mp
import numpy as np

from kundu_dnls import darboux


DPS = 40


def exp_sum(s, x, t):
    """sum_k c_k exp(kx_k x + kt_k t) of an `ExpSum` at one point, in mpmath
    at the caller's working precision."""
    x, t = mp.mpf(x), mp.mpf(t)
    return sum(c * mp.exp(kx * x + kt * t) for c, kx, kt in s.terms)


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


def finite_radius_q(spec, seed, x, t):
    """Q of `darboux.finite_radius` at each node of the broadcast x and t,
    node by node, from its spectral sets (two for n = 1, whose Q is the
    average)."""
    offsets = darboux._default_offsets(spec.n)
    sets = [darboux._degenerate_set(spec, seed, offsets)]
    if spec.n == 1:
        sets.append(darboux._degenerate_set(spec, seed, [-o for o in offsets]))
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    out = np.empty(x.shape, dtype=complex)
    for idx in np.ndindex(x.shape):
        out[idx] = sum(n_fold_q(s, seed, x[idx], t[idx]) for s in sets) / len(sets)
    return out
