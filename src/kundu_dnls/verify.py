"""Independent correctness machinery: residuals, field comparison, pattern analysis.

The field equation itself is the root oracle here: every solution produced
by the engine or the catalog is pushed through the finite-difference
residual operator, whose convergence order under grid refinement is the
acceptance currency.  Sign/conjugation ambiguities are resolved empirically
by `pin_down_convention`, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AllNodesExcludedError, ResolutionTooCoarseError, VerificationFailedError
from .lax import (Seed, _convergence_order, check_lax_residual, make_plane_wave_seed,
                  plane_wave_eigenfunction)
# `sample` is not called here, but stays a name of this module: the
# benchmark's tracer (benchmarks/tracing.py) wraps verify.sample
from .numerics.grid import (ComplexField2D, Grid2D, _row_blocks, intensity, sample,  # noqa: F401
                            sample_rows)

Array = np.ndarray


@dataclass(frozen=True)
class ConventionVariant:
    """One reading of the sign/conjugation ambiguities.

    nonlinear_sign multiplies both cubic terms of the field equation;
    v_conjugation selects the upper off-diagonal reading of the time-flow
    matrix ("gstar" = literal conjugate, "independent" = mirror generator).
    """

    nonlinear_sign: int = 1
    v_conjugation: str = "independent"

    def __post_init__(self):
        if self.nonlinear_sign not in (1, -1):
            raise ValueError("nonlinear_sign must be +1 or -1")
        if self.v_conjugation not in ("gstar", "independent"):
            raise ValueError("v_conjugation must be 'gstar' or 'independent'")


ALL_VARIANTS = tuple(ConventionVariant(s, v)
                     for s in (1, -1) for v in ("gstar", "independent"))


@dataclass
class ResidualReport:
    """PDE residual norms per refinement level (coarse first)."""

    variant: ConventionVariant
    norms: list  # [(h, max_residual, mean_residual), ...]
    estimated_order: float


# pde_residual samples its finest grid in slabs of this many sampling blocks
# of it: enough to share a thread-safe field's slab among threads, few
# enough that a slab's values stay about 2 MiB
_SLAB_BLOCKS = 8


def _neighbours(a: Array) -> list[Array]:
    """The 8-neighbourhood of every interior node of a 2-D array: eight
    views shaped like a[1:-1, 1:-1]."""
    return [a[2:, 1:-1], a[:-2, 1:-1], a[1:-1, 2:], a[1:-1, :-2],
            a[2:, 2:], a[2:, :-2], a[:-2, 2:], a[:-2, :-2]]


def _field_operator(Q, Qt, Qx, Qxx, cubic, Cx, seed: Seed, sign: int):
    """The field equation at Q, given its derivatives, the cubic Q^2 Q* and
    its x-derivative Cx; `sign` multiplies both cubic terms."""
    p, q, alpha = seed.theta_p, seed.theta_q, seed.alpha
    return (1j * Qt + Qxx + sign * 1j * alpha * Cx - (q + p * p) * Q
            + p * (2j * Qx - sign * alpha * cubic))


def _pde_residual_on_grid(values: Array, invalid: Array, grid: Grid2D,
                          seed: Seed, sign: int) -> tuple[Array, Array]:
    """Residual array over the interior, and its exclusion mask."""
    hx, ht = grid.hx, grid.ht
    Q = values
    Qt = (Q[1:-1, 2:] - Q[1:-1, :-2]) / (2 * ht)
    Qx = (Q[2:, 1:-1] - Q[:-2, 1:-1]) / (2 * hx)
    Qxx = (Q[2:, 1:-1] - 2 * Q[1:-1, 1:-1] + Q[:-2, 1:-1]) / (hx * hx)
    cubic = Q * Q * np.conj(Q)
    Cx = (cubic[2:, 1:-1] - cubic[:-2, 1:-1]) / (2 * hx)
    res = _field_operator(Q[1:-1, 1:-1], Qt, Qx, Qxx, cubic[1:-1, 1:-1], Cx, seed, sign)
    # exclude flagged nodes together with their 8-neighbourhoods
    excluded = invalid[1:-1, 1:-1].copy()
    if invalid.any():
        for nb in _neighbours(invalid):
            excluded |= nb
    return res, excluded


def pde_residual(field_source: Callable, seed: Seed, variant: ConventionVariant,
                 grid: Grid2D, refinements: int = 2) -> ResidualReport:
    """Norms of the field-equation residual at `refinements` nested grids.

    Only the finest grid is sampled, and each coarser level reads every s-th
    node of it: the finest grid's axes at stride s are the coarser grid's
    axes bit for bit, and a node's sample does not depend on the grid
    around it (see `sample_rows`).  The finest grid is sampled in row order,
    in slabs of _SLAB_BLOCKS sampling blocks, into a buffer that keeps only
    the rows a pending stencil block still needs.  Each level's stencil
    blocks are its grid's sampling blocks clipped to the interior rows, each
    with a one-row halo, and each runs as soon as its rows are sampled; the
    kept nodes, packed in row order into one buffer per level, are those of
    the whole interior.  So a fine node is sampled once, only the packed
    buffers (8 bytes per interior node) grow with the grid, and the norms
    are those of sampling each level whole.  An exception of the field is
    raised as `sample_rows` raises it, and no later slab is sampled."""
    if refinements < 1:
        raise ValueError("need at least one refinement level")
    fine = grid.refined(2 ** (refinements - 1))
    grids = [grid.refined(2 ** level) if level else grid for level in range(refinements)]
    strides = [2 ** (refinements - 1 - level) for level in range(refinements)]
    kept = [np.empty((g.nx - 2) * (g.nt - 2)) for g in grids]
    counts = [0] * refinements
    # every level's stencil blocks, its sampling blocks clipped to the
    # interior rows, as (end, start, level): the fine rows start:end that the
    # block's rows and their halo are read from, in the order in which their
    # last row is sampled
    tasks = sorted((min(j, g.nx - 1) * s + 1, (max(i, 1) - 1) * s, level)
                   for level, (g, s) in enumerate(zip(grids, strides))
                   for i, j in _row_blocks(g.nx, g.nt))
    sampling = _row_blocks(fine.nx, fine.nt)
    slabs = [(sampling[q][0], sampling[min(q + _SLAB_BLOCKS, len(sampling)) - 1][1])
             for q in range(0, len(sampling), _SLAB_BLOCKS)]
    # a pending block reads fewer rows below the next slab than its span
    values = np.empty((max(end - start for end, start, _ in tasks) - 1
                       + max(b - a for a, b in slabs), fine.nt), dtype=complex)
    base, k = 0, 0        # the fine row in the buffer's first row; the next task
    for a, b in slabs:
        if b - base > len(values):
            # carry forward the rows from the first one a pending block reads
            lo = min([start for _, start, _ in tasks[k:]] + [a])
            values[:a - lo] = values[lo - base:a - base]
            base = lo
        sample_rows(field_source, fine, a, b, values[a - base:b - base])
        while k < len(tasks) and tasks[k][0] <= b:
            end, start, level = tasks[k]
            s, n = strides[level], counts[level]
            v = values[start - base:end - base:s, ::s]
            res, excluded = _pde_residual_on_grid(v, ~np.isfinite(v), grids[level], seed,
                                                  variant.nonlinear_sign)
            keep = np.isfinite(res)
            keep &= ~excluded
            if keep.all():
                np.abs(res, out=kept[level][n:n + res.size].reshape(res.shape))
                counts[level] += res.size
            else:
                block = res[keep]
                np.abs(block, out=kept[level][n:n + block.size])
                counts[level] += block.size
            k += 1
    if not all(counts):
        raise AllNodesExcludedError("no interior node survived pole exclusion")
    norms = [(g.hx, float(r[:n].max()), float(r[:n].mean()))
             for g, r, n in zip(grids, kept, counts)]
    return ResidualReport(variant, norms, _convergence_order(norms))


def exact_seed_residual(seed: Seed, sign: int) -> float:
    """Field-equation residual of the plane-wave seed by analytic substitution,
    the largest at three fixed points.

    The seed is closed-form, so all derivatives are substituted exactly:
    the result is grid-step independent and vanishes to rounding for the
    consistent nonlinear sign.
    """
    a, c = seed.a, seed.c
    x, t = np.array([0.3, -1.1, 2.0]), np.array([0.7, 0.2, -1.5])
    Q = seed.value(x, t)
    res = _field_operator(Q, 1j * seed.b * Q, seed.value_x(x, t), -a * a * Q, c * c * Q,
                          1j * a * c * c * Q, seed, sign)
    return float(np.max(np.abs(res)))


def pin_down_convention() -> ConventionVariant:
    """Select the unique variant consistent with the exact plane-wave seed
    (a, c) = (-2, 1).

    The seed with derived frequency must annihilate the field-equation
    residual at machine level (pins the nonlinear sign; the check uses exact
    substitution, so it is independent of any grid step), and its explicit
    eigenfunction must satisfy the time half of the linear system at second
    order (pins the off-diagonal reading).
    """
    seed = make_plane_wave_seed(-2.0, 1.0, 1.0)
    sign_ok = {sign: exact_seed_residual(seed, sign) <= 1e-10 for sign in (1, -1)}
    lax_grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 81, 81)
    datum = plane_wave_eigenfunction(0.5 + 1.0j, seed)
    conj_ok = {}
    for v in ("gstar", "independent"):
        rep = check_lax_residual(datum, seed, lax_grid, v_conjugation=v)
        fine_max = rep.norms_t[-1][1]
        conj_ok[v] = fine_max < 1e-2 and rep.order_t > 1.5
    winners = [v for v in ALL_VARIANTS if sign_ok[v.nonlinear_sign] and conj_ok[v.v_conjugation]]
    if len(winners) != 1:
        raise VerificationFailedError(
            f"expected exactly one surviving variant, got {len(winners)}")
    return winners[0]


# ---------------------------------------------------------------------------
# field comparison and limit studies
# ---------------------------------------------------------------------------

def compare_fields(a: ComplexField2D, b: ComplexField2D) -> tuple[float, float]:
    """(max_err, mean_err) of the intensity difference between two fields on
    the same grid, over their common valid nodes."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    valid = ~(a.invalid | b.invalid)
    if not valid.any():
        raise AllNodesExcludedError("no common valid nodes")
    av, bv = a.values[valid], b.values[valid]
    err = np.abs(intensity(av) - intensity(bv))
    return float(err.max()), float(err.mean())


def convergence_study(family: Callable, reference: ComplexField2D,
                      eps_ladder: Sequence[float]) -> tuple[list, bool]:
    """Max intensity error of family(eps) against the reference, per eps.

    Returns ([(eps, max_err), ...], strictly_monotone_decreasing).
    """
    ladder = list(eps_ladder)
    if len(ladder) < 2 or any(e2 >= e1 for e1, e2 in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing with >= 2 entries")
    rows = []
    for eps in ladder:
        fld = family(eps)
        err, _ = compare_fields(fld, reference)
        rows.append((eps, err))
    monotone = all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    return rows, monotone


# ---------------------------------------------------------------------------
# intensity-peak pattern analysis
# ---------------------------------------------------------------------------

@dataclass
class PeakSet:
    """Strict local maxima of an intensity field plus their clustering.

    `peaks` holds every strict 8-neighbourhood maximum above the detection
    threshold; `structures` merges maxima closer than the cluster radius
    (a composite central hump counts once).  Classification applies to the
    structures.
    """

    peaks: list                 # [(x, t, height), ...]
    structures: list            # cluster representatives [(x, t, height), ...]
    background: float
    classification: str         # fundamental | triangular | ring | unclassified


# the background is the median over the valid nodes of a frame this fraction
# of each axis wide; a peak must reach this multiple of it
BACKGROUND_FRAME = 0.1
PEAK_TO_BACKGROUND = 4.0
# a ring's radii and angular gaps may spread by at most these fractions of
# their means; structures are collinear when the smaller singular value of
# their centred positions is at most COLLINEAR_TOL of the larger
RING_RADIUS_SPREAD = 0.15
RING_ANGLE_SPREAD = 0.20
COLLINEAR_TOL = 0.05


def peak_analysis(intensity: ComplexField2D, cluster_radius: float = 3.0) -> PeakSet:
    """Detect and classify intensity humps.

    The grid must resolve the narrowest fundamental hump with >= 5 nodes
    (spacing <= 0.25 in these units; use >= 200 nodes per axis on a
    [-10, 10] window).  A frame without a valid node raises
    AllNodesExcludedError.
    """
    grid = intensity.grid
    if max(grid.hx, grid.ht) > 0.25:
        raise ResolutionTooCoarseError(
            f"grid spacing {max(grid.hx, grid.ht):.3f} too coarse for hump detection")
    I = np.real(intensity.values)
    nx, nt = I.shape
    fx = max(1, int(round(BACKGROUND_FRAME * nx)))
    ft = max(1, int(round(BACKGROUND_FRAME * nt)))
    frame = ~intensity.invalid
    frame[fx:-fx, ft:-ft] = False
    if not frame.any():
        raise AllNodesExcludedError("no valid node in the background frame")
    background = float(np.median(I[frame]))
    thresh = background * PEAK_TO_BACKGROUND

    C = I[1:-1, 1:-1]
    is_peak = (C >= thresh)
    for nb in _neighbours(I):
        is_peak &= C > nb
    xs, ts = grid.xs, grid.ts
    ii, jj = np.nonzero(is_peak)
    peaks = [(float(xs[i + 1]), float(ts[j + 1]), float(C[i, j])) for i, j in zip(ii, jj)]

    groups: list[list] = []
    for px, pt, ph in sorted(peaks, key=lambda p: -p[2]):
        for g in groups:
            if min(np.hypot(px - qx, pt - qt) for qx, qt, _ in g) < cluster_radius:
                g.append((px, pt, ph))
                break
        else:
            groups.append([(px, pt, ph)])
    structures = [max(g, key=lambda p: p[2]) for g in groups]

    classification = _classify(structures)
    return PeakSet(peaks=peaks, structures=structures, background=background,
                   classification=classification)


def _classify(structures: list) -> str:
    n = len(structures)
    if n == 0:
        return "unclassified"
    if n == 1:
        return "fundamental"
    if n >= 5 and _is_ring(structures):
        return "ring"
    if n in (3, 6) and not _collinear(structures):
        return "triangular"
    return "unclassified"


def _ring_outer(structures: list) -> Array:
    """The one ring rule: positions of a ring's outer structures relative to
    the centroid of all structures, nearest first.  These are all structures
    but at most one central one, the nearest if its distance from the
    centroid is at most 0.4 times the median."""
    if not structures:
        return np.empty((0, 2))
    pts = np.array([(x, t) for x, t, _ in structures])
    rel = pts - pts.mean(axis=0)
    radii = np.hypot(rel[:, 0], rel[:, 1])
    order = np.argsort(radii)
    return rel[order if radii[order[0]] > 0.4 * np.median(radii) else order[1:]]


def _is_ring(structures: list) -> bool:
    rel = _ring_outer(structures)
    if len(rel) < 5:
        return False
    r = np.hypot(rel[:, 0], rel[:, 1])
    if (r.max() - r.min()) / r.mean() > RING_RADIUS_SPREAD:
        return False
    ang = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    return (gaps.max() - gaps.min()) / gaps.mean() <= RING_ANGLE_SPREAD


def _collinear(structures: list) -> bool:
    pts = np.array([(x, t) for x, t, _ in structures])
    pts = pts - pts.mean(axis=0)
    sv = np.linalg.svd(pts, compute_uv=False)
    return sv[1] <= COLLINEAR_TOL * sv[0]
