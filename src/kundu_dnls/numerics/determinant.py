"""Determinants by row elimination with partial pivoting.

The batched forms take arrays of shape (..., m, m) so whole grids of small
transformation determinants evaluate in a handful of vectorized passes.
Elimination runs on an (m, m, N) layout: every step then works on
contiguous length-N rows instead of strided gathers across the batch.
`batched_det` eliminates a stack whose memory is already in that layout in
place and copies any other stack once.  Alongside the determinant it
reports the pivot-magnitude ratio max|p_k| / min|p_k|, the conditioning
estimate used to detect near-singular evaluation points in the degenerate
regimes.

A stack of m x (m+e) matrices gives the e + 1 determinants that share their
first m - 1 columns in one elimination: pivots are taken in those columns
only, and every row update carries the trailing columns along.
"""
from __future__ import annotations

import numpy as np


Array = np.ndarray


# `one` and `where` kept for `dd_batched_det`, which benchmarks/tracing.py patches on darboux
@np.errstate(divide="ignore", invalid="ignore")
def eliminate(a, one, where) -> tuple:
    """Pivoted elimination of an (m, m+e, N) stack in place: (det, pivot_ratio).

    Pivots are searched in the first m - 1 columns; the rows below a pivot
    update the columns right of it, trailing ones included.  det has shape
    (e + 1, N): entry j is the determinant of the m x m matrix made of the
    first m - 1 columns and column m - 1 + j, that is the sign of the row
    swaps times the m - 1 pivots times that column's entry in the last row.
    A square stack (e = 0) thus gives its own determinant.  pivot_ratio is
    max|p| / min|p| over the m - 1 pivots and the last-row entry of column
    m - 1, the pivots of the first of those matrices.

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


def stack_dims(shape) -> tuple:
    """(m, w, lead, det shape) of a (..., m, w) stack; raises unless m <= w.

    The det shape is lead for a square stack and (w - m + 1,) + lead
    otherwise: `eliminate`'s (e + 1, N) det as the batched forms return it.
    """
    if len(shape) < 2 or not 0 < shape[-2] <= shape[-1]:
        raise ValueError(f"expected m x (m+e) matrices, got shape {shape}")
    m, w, lead = shape[-2], shape[-1], tuple(shape[:-2])
    return m, w, lead, lead if w == m else (w - m + 1,) + lead


def batched_det(mats: Array) -> tuple[Array, Array]:
    """Determinants and pivot ratios of a stack of complex m x (m+e) matrices.

    A square stack (e = 0) gives (det, pivot_ratio), each of shape
    mats.shape[:-2].  For e > 0, det has shape (e + 1,) + mats.shape[:-2]:
    det[j] is the determinant of the first m - 1 columns completed by column
    m - 1 + j, with its true sign (see `eliminate`), all from one elimination.
    A zero pivot yields det 0 and pivot_ratio inf.

    A complex stack whose memory is already in elimination's (m, m+e, N)
    layout is eliminated in place, and left holding elimination residue:
    a stack stored matrix-first, whose (..., m, m+e) view comes from an
    (m, m+e, ...) C-ordered array, and any C-ordered stack of a single
    matrix, (m, m+e) or (1, ..., 1, m, m+e), whose batch-first and
    matrix-first layouts are the same memory.  Any other stack is copied
    once into that layout and left as it was.
    """
    mats = np.asarray(mats, dtype=complex)
    m, w, lead, det_lead = stack_dims(mats.shape)
    # batch on the last axis, so a[i, j] is a contiguous row: a view of a
    # stack already in that layout, the one copy of any other
    a = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)).reshape((m, w, -1)))
    det_val, ratio = eliminate(a, np.ones((), dtype=complex), np.where)
    return det_val.reshape(det_lead), ratio.reshape(lead)


def det(matrix: Array) -> complex:
    """Determinant of one square complex matrix; raises on non-finite entries.
    The matrix is left as it was: its copy is eliminated."""
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    d, _ = batched_det(a[None])
    return complex(d[0])
