"""Reference implementations the engine is checked against.

Each computes a quantity by a formula independent of the package's own:
the one-fold transformation from its matrix elements, and the plane-wave
eigenfunction as an unfolded four-term superposition.
"""
import numpy as np

from kundu_dnls.darboux import DTOutput, _seed_terms
from kundu_dnls.lax import branch_quantity
from kundu_dnls.numerics import batched_det


def one_fold(spectral_set, seed):
    """Single-step transformation from one eigenvalue pair via its matrix
    elements; its `evaluate` returns the pivot ratio of the 2 x 2 main
    determinant, as `n_fold`'s does."""
    if spectral_set.order != 1:
        raise ValueError("one_fold needs a spectral set of order 1")
    d1, d2 = spectral_set.unreduced().data
    l1, l2 = d1.lam, d2.lam

    def evaluate(x, t):
        p1, v1 = d1.phi(x, t), d1.varphi(x, t)
        p2, v2 = d2.phi(x, t), d2.varphi(x, t)
        den_a = p1 * v2 * l1 - v1 * p2 * l2        # denominator of a2
        num_a = v1 * p2 * l1 - p1 * v2 * l2
        factor = l1 * l1 - l2 * l2
        Q, eim, ra = _seed_terms(seed, x, t)
        with np.errstate(all="ignore"):
            a2 = num_a / den_a
            d2_el = 1.0 / a2
            if factor == 0:
                # coalesced eigenvalues act trivially: the off-diagonal
                # elements carry an exactly vanishing factor
                b1 = np.zeros_like(a2)
                c1 = np.zeros_like(a2)
            else:
                b1 = p1 * p2 * factor / (-den_a)
                c1 = v1 * v2 * factor / (-num_a)
            q = (d2_el / a2) * Q - c1 * eim / (a2 * ra)
            r = (a2 / d2_el) * -np.conj(Q) + b1 * np.conj(eim) / (d2_el * ra)
        # stored matrix-first, so `batched_det` eliminates it in place
        M = np.empty((2, 2) + np.broadcast(p1, p2).shape, dtype=complex)
        M[0, 0] = l1 * v1
        M[0, 1] = p1
        M[1, 0] = l2 * v2
        M[1, 1] = p2
        _, ratios = batched_det(np.moveaxis(M, (0, 1), (-2, -1)))
        return (np.where(np.isfinite(q), q, np.nan + 0j),
                np.where(np.isfinite(r), r, np.nan + 0j), ratios)

    return DTOutput(evaluate)


def unfolded_four_term_components(lam, seed, weights, x, t):
    """(phi, varphi) of the plane-wave eigenfunction as the unfolded four-term
    superposition: the basis functions plus their starred partners at
    lam*, a cross-check of the folded `lax.plane_wave_eigenfunction`."""
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
