"""Determinants by row elimination with partial pivoting.

The batched form takes arrays of shape (..., m, m) so whole grids of small
transformation determinants evaluate in a handful of vectorized passes.
Internally the stack is copied once into an (m, m, N) layout: every
elimination step then works on contiguous length-N rows instead of strided
gathers across the batch.  Alongside the determinant it reports the
pivot-magnitude ratio max|p_k| / min|p_k|, the conditioning estimate used to
detect near-singular evaluation points in the degenerate regimes.
"""
from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError

Array = np.ndarray


@np.errstate(divide="ignore", invalid="ignore")
def eliminate(a, one, where) -> tuple:
    """Pivoted elimination of an (m, m, N) stack in place: (det, pivot_ratio).

    Serves complex and double-double arrays alike: `abs` gives the pivot
    magnitudes, `where(mask, x, y)` selects per entry, and `one` is the unit
    of the entry type (shape (), broadcast over N).  A zero pivot yields det 0
    and pivot_ratio inf; the factors it would divide are masked to 0.
    """
    m, n = a.shape[0], a.shape[-1]
    sign = np.ones(n)
    piv_max = np.zeros(n)
    piv_min = np.full(n, np.inf)
    det = one
    for k in range(m):
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
        for i in range(k + 1, m):
            a[i, k:] -= where(nonzero, a[i, k] / piv, 0.0) * a[k, k:]
    # multiplying by a unit, not negating det, keeps the signs of zeros
    det = det * where(sign > 0, one, -one)
    return det, np.where(piv_min > 0, piv_max / piv_min, np.inf)


def batched_det(mats: Array) -> tuple[Array, Array]:
    """Determinants and pivot ratios of a stack of square complex matrices.

    Returns (det, pivot_ratio), each of shape mats.shape[:-2].  A zero pivot
    yields det 0 and pivot_ratio inf.
    """
    mats = np.asarray(mats)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {mats.shape}")
    m = mats.shape[-1]
    lead = mats.shape[:-2]
    # the one copy: batch on the last axis, so a[i, j] is a contiguous row
    a = np.array(mats.reshape((-1, m, m)).transpose(1, 2, 0), dtype=complex, order="C")
    det_val, ratio = eliminate(a, np.ones((), dtype=complex), np.where)
    return det_val.reshape(lead), ratio.reshape(lead)


def det(matrix: Array) -> complex:
    """Determinant of one square complex matrix; raises on non-finite entries."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    d, _ = batched_det(a[None])
    return complex(d[0])
