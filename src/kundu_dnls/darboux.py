"""The determinant-form n-fold Darboux transformation.

The n-fold map is a combination of four 2n x 2n determinants built from the
spectral data; only determinant ratios reach the output, so any common
rescaling of a row cancels (gauge covariance).  They come in two pairs, each
an unshifted matrix and its shifted twin, which differ in the leading column
only, so each pair is eliminated once, as one 2n x (2n+1) stack.  On
conjugate-reduced sets one pair follows from the other by conjugation, so
only one stack is eliminated and R is -conj(Q).  Degenerate (coalescing) spectral
configurations are handled numerically with a small perturbation radius and,
when that radius is tiny, extended-precision determinants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .lax import (MP_DPS, PlaneWaveSeed, Seed, _check_finite, branch_quantity,
                  plane_wave_eigenfunction, zero_seed_eigenfunction)
# called by these module names in the engine, which instrumentation wraps
from .numerics.determinant import batched_det
from .numerics.doubledouble import DDComplexArray, dd_batched_det
from .numerics.grid import thread_safe


EXTENDED_EPS_THRESHOLD = 1e-3   # degeneration radius at or below which dd kicks in
DEFAULT_CONDITION_BOUND = 1e12


@dataclass
class SpectralSet:
    """The spectral data of an order-n transformation: 2n data, or n
    representatives of a reduced set, each standing for itself and its
    conjugate partner (lam*, varphi*, phi*), which makes the transformed
    pair satisfy R = -Q*.  The 2n eigenvalues of a reduced set must be
    finite, nonzero and pairwise distinct; those of a general set, finite
    and nonzero.
    """

    data: list
    reduction: bool = False

    def __post_init__(self):
        if not self.data or (not self.reduction and len(self.data) % 2 != 0):
            raise ValueError("a spectral set holds 2n data, or n representatives if reduced")
        lams = [d.lam for d in self.data]
        for lam in lams:
            _check_finite(eigenvalue=complex(lam))
        if self.reduction:
            lams += [np.conj(lam) for lam in lams]
        if any(lam == 0 for lam in lams):
            raise ValueError("eigenvalues must be nonzero")
        if self.reduction and len(set(lams)) < len(lams):
            raise ValueError("a reduced set needs its representatives and their conjugates "
                             f"pairwise distinct: {[complex(d.lam) for d in self.data]}")

    @property
    def order(self) -> int:
        return len(self.data) if self.reduction else len(self.data) // 2

    def unreduced(self) -> "SpectralSet":
        """The general set of the same transformation: a reduced set's
        representatives, each followed by its conjugate partner."""
        if not self.reduction:
            return self
        return SpectralSet([e for d in self.data for e in (d, d.conjugate_partner())])


def build_reduced_set(lambdas: Sequence[complex], seed: Seed,
                      weights_per_lambda: Optional[Sequence] = None) -> SpectralSet:
    """The reduced set of one representative per eigenvalue pair; the weights
    combine a plane wave's two basis solutions, so the zero seed takes (1, 1)."""
    if weights_per_lambda is None:
        weights_per_lambda = [(1.0, 1.0)] * len(lambdas)
    if len(weights_per_lambda) != len(lambdas):
        raise ValueError("weights list must match lambdas")
    data = []
    for lam, w in zip(lambdas, weights_per_lambda):
        lam = complex(lam)
        # before the branch quantity, whose arithmetic warns on an infinite lam
        _check_finite(eigenvalue=lam)
        if lam.real == 0.0 or lam.imag == 0.0:
            raise ValueError(f"lambda {lam} on an axis collapses its conjugate pair")
        if isinstance(seed, PlaneWaveSeed):
            if abs(branch_quantity(lam, seed)) < 1e-12 and complex(w[0]) == complex(w[1]):
                raise ValueError(
                    f"branch quantity vanishes at lambda {lam}; the two basis "
                    "solutions coincide and the eigenfunction degenerates")
            datum = plane_wave_eigenfunction(lam, seed, weights=tuple(w))
        elif tuple(map(complex, w)) != (1, 1):
            raise ValueError(f"the zero seed ignores branch weights {tuple(w)} at lambda "
                             f"{lam}: they enter only on a plane wave")
        else:
            datum = zero_seed_eigenfunction(lam)
        data.append(datum)
    return SpectralSet(data=data, reduction=True)


@dataclass
class DTOutput:
    """A transformed solution: vectorized field closures plus conditioning data.

    `evaluate(x, t)` is the one pass behind both fields: it returns
    (Q, R, pivot ratio of the main determinant), and R is -conj(Q) wherever
    the spectral set was reduced.  Q(x, t) and R(x, t) are NaN at flagged
    points: transformation poles (non-finite values) and pivot ratios above
    `DEFAULT_CONDITION_BOUND`.  Calling the output calls its `Q` attribute,
    so it serves wherever a field closure does, and rewrapping `Q` (as
    instrumentation does) rewraps the call too.  `precision` is the
    precision the determinants are evaluated in: "double" or "extended".
    `evaluate` only reads the spectral data, so the closures are marked
    `thread_safe`, and so is the output as long as its Q is.
    """

    evaluate: Callable
    precision: str = "double"
    Q: Callable = field(init=False)
    R: Callable = field(init=False)

    def __post_init__(self):
        evaluate = self.evaluate
        self.Q = thread_safe(lambda x, t: evaluate(x, t)[0])
        self.R = thread_safe(lambda x, t: evaluate(x, t)[1])

    def __call__(self, x, t):
        return self.Q(x, t)

    @property
    def thread_safe(self) -> bool:
        return getattr(self.Q, "thread_safe", False)


def _seed_terms(seed: Seed, x, t):
    """The seed, exp(-i theta) (its conjugate is exp(i theta) bit for bit), sqrt(alpha)."""
    return seed.value(x, t), np.exp(-1j * seed.theta(x, t)), np.sqrt(seed.alpha)


# ---------------------------------------------------------------------------
# n-fold determinants
# ---------------------------------------------------------------------------

def _row_powers(spectral_set: SpectralSet, precision: str):
    """The 2n x (2n+1) table lam_j^p, p = 0 .. 2n, for the eigenvalue of each
    of the 2n rows, a reduced set's partners at lam*: a complex array in
    double; extended, a `DDComplexArray` split from the powers taken in
    mpmath at `MP_DPS`."""
    lams = [lam for d in spectral_set.data for lam in
            ((d.lam, np.conj(d.lam)) if spectral_set.reduction else (d.lam,))]
    m = len(lams)
    if precision == "double":
        return np.array([[lam ** p for p in range(m + 1)] for lam in lams])
    with mp.workdps(MP_DPS):
        return DDComplexArray.from_mp([[mp.mpc(lam) ** p for p in range(m + 1)]
                                       for lam in lams])


def _omega_matrix(powers, phis, vphs, swap: bool):
    """Stack of the paired 2n x (2n+1) determinant matrices over the point shape.

    Row j of the unshifted matrix alternates descending powers of lam_j,
    from 2n - 1 down to 0, against the two components: odd powers weight
    varphi, even powers weight phi (swap exchanges roles).  The shifted
    matrix differs in its leading column only, lam^{2n} times the even-power
    component.  The pair is laid out as one stack for `_omega_dets`: the
    unshifted columns 1 .. 2n-1, then the unshifted column 0, then the
    shifted column 0.  `powers` comes from `_row_powers`: complex powers and
    components give a complex stack, double-double ones a `DDComplexArray`
    stack.  The entries are stored matrix-first, so the returned
    (..., m, m+1) view is already in the batch-last layout of elimination,
    and `batched_det` or `dd_batched_det` eliminates it in place.
    """
    m = len(phis)
    order = [*range(m - 2, -1, -1), m - 1, m]
    shape = np.broadcast_shapes(np.shape(phis[0]), np.shape(vphs[0]))
    full = (m, m + 1) + shape
    extended = isinstance(powers, DDComplexArray)
    M = DDComplexArray.empty(full) if extended else np.empty(full, dtype=complex)
    # lam_j^p in column order, broadcast over the point shape
    row_powers = powers[(slice(None), order) + (None,) * len(shape)]
    for j in range(m):
        f, v = (vphs[j], phis[j]) if swap else (phis[j], vphs[j])
        for col, power in enumerate(order):
            M[j, col] = v if power % 2 == 1 else f
        # the powers first: numpy's complex product is not commutative bit for
        # bit; a complex row is scaled in place, with no block-sized temporary
        if extended:
            M[j] = row_powers[j] * M[j]
        else:
            np.multiply(row_powers[j], M[j], out=M[j])

    def batch_last(a):
        return np.moveaxis(a, (0, 1), (-2, -1))
    return M.map(batch_last) if extended else batch_last(M)


def _omega_dets(spectral_set: SpectralSet, powers, x, t):
    """(main, swapped, main_shift, swapped_shift, pivot ratio of main) at (x, t).

    The type of `powers`, from `_row_powers`, is the precision: complex
    powers take each datum's `phi` and `varphi` in double and eliminate with
    `batched_det`; a `DDComplexArray` takes its `mp_components` and
    eliminates with `dd_batched_det`.  On a reduced set each representative
    is followed by its conjugate partner, whose components are the
    representative's, conjugated exactly and exchanged.

    The unshifted and shifted matrices share all columns but the leading
    one, so one elimination over the shared columns gives both determinants
    (see `_omega_matrix` for the column order).  On a reduced set the
    swapped matrix is the conjugate of the main one with each
    representative's row exchanged with its partner's, so swapped =
    (-1)^n conj(main), and likewise for the shifted pair: one elimination
    instead of two.  The sign is left out, because the transformation only
    uses swapped^2 and swapped * swapped_shift.
    """
    extended = isinstance(powers, DDComplexArray)
    # an overflowing extended component gives non-finite determinants, which
    # are masked; in double numpy's settings stand (None leaves them as they are)
    quiet = "ignore" if extended else None
    with np.errstate(over=quiet, invalid=quiet):
        phis, vphs = [], []
        for d in spectral_set.data:
            if extended:
                p, v = d.mp_components(x, t)
            else:
                p = np.asarray(d.phi(x, t), dtype=complex)
                v = np.asarray(d.varphi(x, t), dtype=complex)
            phis.append(p)
            vphs.append(v)
            if spectral_set.reduction:
                phis.append(v.conjugate())
                vphs.append(p.conjugate())
        del p, v        # the lists hold the only references, which dets clears

        def dets(swap):
            M = _omega_matrix(powers, phis, vphs, swap)
            if swap or spectral_set.reduction:
                # the last stack built holds copies: free the components
                # before elimination
                phis.clear()
                vphs.clear()
            if extended:
                pair, ratios = dd_batched_det(M)
                pair = pair.to_complex()
            else:
                pair, ratios = batched_det(M)
            # column 0 was moved past the 2n - 1 others: a factor (-1)^(2n-1)
            return -pair[0], -pair[1], ratios

        main, main_shift, ratios = dets(False)
        if spectral_set.reduction:
            return main, np.conj(main), main_shift, np.conj(main_shift), ratios
        swapped, swapped_shift, _ = dets(True)
        return main, swapped, main_shift, swapped_shift, ratios


def n_fold(spectral_set: SpectralSet, seed: Seed, precision: str = "double") -> DTOutput:
    """Determinant-form transformation of order n = `spectral_set.order` (1..3);
    on a reduced set, R is -conj(Q) under Q's mask."""
    n = spectral_set.order
    if n not in (1, 2, 3):
        raise ValueError(f"supported orders are 1..3, got {n}")
    if precision not in ("double", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    if precision == "extended" and any(d.mp_components is None for d in spectral_set.data):
        raise ValueError("extended precision needs mp_components on every datum")
    powers = _row_powers(spectral_set, precision)

    def evaluate(x, t):
        main, swapped, main_shift, swapped_shift, ratios = _omega_dets(spectral_set, powers, x, t)
        Q, eim, ra = _seed_terms(seed, x, t)
        keep = ratios <= DEFAULT_CONDITION_BOUND
        with np.errstate(all="ignore"):
            main2, sw2 = main ** 2, swapped ** 2
            q = (sw2 / main2) * Q + eim / ra * swapped * swapped_shift / main2
            if spectral_set.reduction:
                r = -np.conj(q)
            else:
                r = (main2 / sw2) * -np.conj(Q) - np.conj(eim) / ra * main * main_shift / sw2
        return (np.where(np.isfinite(q) & keep, q, np.nan + 0j),
                np.where(np.isfinite(r) & keep, r, np.nan + 0j), ratios)

    return DTOutput(evaluate, precision)


# ---------------------------------------------------------------------------
# numeric degeneration
# ---------------------------------------------------------------------------

def _default_offsets(n: int) -> list[complex]:
    if n == 1:
        return [1.0 + 0j]
    if n == 2:
        return [1.0 + 0j, -1.0 + 0j]
    return [complex(np.exp(2j * np.pi * k / n)) for k in range(n)]


@dataclass
class DegenerationSpec:
    """Coalescence recipe: base eigenvalue, radius, order, and the split phase
    S(e) = S0 + S1 e + S2 e^2 that moves the humps apart, on a plane wave only."""

    lambda_c: complex
    epsilon: float
    n: int
    S0: float = 0.0
    S1: float = 0.0
    S2: float = 0.0

    def __post_init__(self):
        _check_finite(lambda_c=complex(self.lambda_c), S0=self.S0, S1=self.S1, S2=self.S2)
        if not (0 < self.epsilon <= 0.1):
            raise ValueError("epsilon must lie in (0, 0.1]")
        if self.n not in (1, 2, 3):
            raise ValueError("order must be 1, 2 or 3")


def _degenerate_set(spec: DegenerationSpec, seed: Seed, offsets) -> SpectralSet:
    plane = isinstance(seed, PlaneWaveSeed)
    if not plane and (spec.S0, spec.S1, spec.S2) != (0, 0, 0):
        raise ValueError(f"the zero seed ignores the split phase S0, S1, S2 = {spec.S0}, "
                         f"{spec.S1}, {spec.S2}: it enters only on a plane wave")
    lams, weights = [], []
    for off in offsets:
        eps_j = spec.epsilon * off
        lam_j = spec.lambda_c * (1 + eps_j)
        lams.append(lam_j)
        if plane:
            s_j = complex(branch_quantity(lam_j, seed))
            S_j = spec.S0 + spec.S1 * eps_j + spec.S2 * eps_j * eps_j
            weights.append((np.exp(-1j * s_j * S_j), np.exp(1j * s_j * S_j)))
    return build_reduced_set(lams, seed, weights_per_lambda=weights if plane else None)


def degenerate_limit(spec: DegenerationSpec, seed: Seed,
                     precision: Optional[str] = None) -> DTOutput:
    """Coalescing-eigenvalue approximation of the order-n degenerate solution.

    Perturbed eigenvalues sit at lambda_c (1 + eps * offset_j), with the
    n-th roots of unity as offsets.  For n = 1 the single offset makes the
    leading error linear in eps, so the output averages the +offset and
    -offset evaluations, restoring quadratic convergence; for n >= 2 the
    root-of-unity symmetry already cancels the linear term.  Without a
    precision, radii at or below `EXTENDED_EPS_THRESHOLD` run extended; the
    output's `precision` records the one used.
    """
    if precision is None:
        precision = "extended" if spec.epsilon <= EXTENDED_EPS_THRESHOLD else "double"
    offsets = _default_offsets(spec.n)
    main = n_fold(_degenerate_set(spec, seed, offsets), seed, precision=precision)
    if spec.n > 1:
        return main
    mirror = n_fold(_degenerate_set(spec, seed, [-o for o in offsets]), seed,
                    precision=precision)

    def evaluate(x, t):
        qa, ra, ca = main.evaluate(x, t)
        qb, rb, cb = mirror.evaluate(x, t)
        return 0.5 * (qa + qb), 0.5 * (ra + rb), np.maximum(ca, cb)

    return DTOutput(evaluate, precision)
