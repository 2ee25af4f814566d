"""One-fold and determinant-form n-fold Darboux transformations.

The n-fold map is a combination of four 2n x 2n determinants built from the
spectral data; only determinant ratios reach the output, so any common
rescaling of a row cancels (gauge covariance).  They come in two pairs, each
an unshifted matrix and its shifted twin, which differ in the leading column
only, so each pair is eliminated once, as one 2n x (2n+1) stack.  On
conjugate-reduced sets one pair follows from the other by conjugation, so
only one stack is eliminated.  Degenerate (coalescing) spectral
configurations are handled numerically with a small perturbation radius and,
when that radius is tiny, extended-precision determinants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import (ConditionBlowupError, DegeneratePairError,
                     DenominatorVanishesError, SingularOmegaError)
from .lax import (MP_DPS, PhasePolynomial, PlaneWaveSeed, Seed, branch_quantity,
                  plane_wave_eigenfunction, zero_seed_eigenfunction)
from .numerics.determinant import batched_det
from .numerics.doubledouble import DDComplexArray, dd_batched_det

Array = np.ndarray

EXTENDED_EPS_THRESHOLD = 1e-3   # degeneration radius at or below which dd kicks in
DEFAULT_CONDITION_BOUND = 1e12


@dataclass
class SpectralSet:
    """Ordered spectral data of even length 2n, optionally conjugate-reduced.

    A reduced set lists each representative followed by its conjugate
    partner (lam*, varphi*, phi*).  Construction checks the eigenvalues and,
    at one point, the components; the engine then evaluates representatives
    only, so components replaced after construction are not checked.
    """

    data: list
    reduction: bool = False

    def __post_init__(self):
        if len(self.data) % 2 != 0 or not self.data:
            raise ValueError("a spectral set holds an even, positive number of data")
        lams = [d.lam for d in self.data]
        if any(li == 0 for li in lams):
            raise ValueError("eigenvalues must be nonzero")
        if self.reduction:
            for i, li in enumerate(lams):
                for lj in lams[:i]:
                    if li == lj:
                        raise ValueError(
                            "reduced sets need pairwise distinct eigenvalues")
            for rep, partner in zip(lams[0::2], lams[1::2]):
                if partner != np.conj(rep):
                    raise ValueError(
                        f"reduced sets pair each eigenvalue with its conjugate; "
                        f"{rep} is followed by {partner}")
            x, t = 0.3, 0.2     # away from the origin, where zero-seed components are 1
            for k, (rep, partner) in enumerate(zip(self.data[0::2], self.data[1::2])):
                p, v = rep.phi(x, t), rep.varphi(x, t)
                tol = 1e-12 * max(abs(p), abs(v))
                if (abs(partner.phi(x, t) - np.conj(v)) > tol
                        or abs(partner.varphi(x, t) - np.conj(p)) > tol):
                    raise ValueError(
                        f"datum {2 * k + 1} is not the conjugate partner (lam*, varphi*, "
                        f"phi*) of datum {2 * k}")

    @property
    def order(self) -> int:
        return len(self.data) // 2

    @property
    def evaluated(self) -> list:
        """The data whose components the engine evaluates."""
        return self.data[0::2] if self.reduction else self.data


def build_reduced_set(lambdas: Sequence[complex], seed: Seed,
                      weights_per_lambda: Optional[Sequence] = None) -> SpectralSet:
    """Complete each upper-half representative with its conjugate partner.

    The partner carries (lam*, varphi*, phi*), which is what makes the
    transformed pair satisfy R = -Q*.
    """
    if weights_per_lambda is None:
        weights_per_lambda = [(1.0, 1.0)] * len(lambdas)
    if len(weights_per_lambda) != len(lambdas):
        raise ValueError("weights list must match lambdas")
    data = []
    for lam, w in zip(lambdas, weights_per_lambda):
        lam = complex(lam)
        if lam.real == 0.0 or lam.imag == 0.0:
            raise DegeneratePairError(
                f"lambda {lam} on an axis collapses its conjugate pair")
        if isinstance(seed, PlaneWaveSeed):
            if abs(branch_quantity(lam, seed)) < 1e-12 and complex(w[0]) == complex(w[1]):
                raise DegeneratePairError(
                    f"branch quantity vanishes at lambda {lam}; the two basis "
                    "solutions coincide and the eigenfunction degenerates")
            datum = plane_wave_eigenfunction(lam, seed, weights=tuple(w))
        else:
            datum = zero_seed_eigenfunction(lam)
        data += [datum, datum.conjugate_partner()]
    return SpectralSet(data=data, reduction=True)


@dataclass
class DTOutput:
    """A transformed solution: vectorized field closures plus conditioning data.

    `evaluate(x, t)` is the one pass behind every accessor: it returns
    (Q, R, pivot_ratio).  Q(x, t) returns NaN at flagged points
    (transformation poles, pivot ratios above `DEFAULT_CONDITION_BOUND`);
    `at` is the scalar accessor that raises instead.  Calling the output is
    calling Q, so it serves wherever a field closure does.  `precision` is
    the precision the determinants are evaluated in: "double" or "extended".
    """

    evaluate: Callable
    precision: str = "double"
    Q: Callable = field(init=False)
    R: Callable = field(init=False)
    condition_estimate: Callable = field(init=False)

    def __post_init__(self):
        evaluate = self.evaluate
        self.Q = lambda x, t: evaluate(x, t)[0]
        self.R = lambda x, t: evaluate(x, t)[1]
        self.condition_estimate = lambda x, t: evaluate(x, t)[2]

    def __call__(self, x, t):
        return self.Q(x, t)

    def at(self, x: float, t: float) -> complex:
        q, _, cond = self.evaluate(x, t)
        cond = float(cond)
        if not np.isfinite(cond):
            raise SingularOmegaError(f"main determinant vanishes near ({x}, {t})")
        if cond > DEFAULT_CONDITION_BOUND:
            raise ConditionBlowupError(
                f"pivot ratio {cond:.3e} exceeds bound {DEFAULT_CONDITION_BOUND:.3e} "
                f"at ({x}, {t})")
        q = complex(np.asarray(q).reshape(()))
        if not np.isfinite(q):
            raise DenominatorVanishesError(f"transformation denominator vanishes at ({x}, {t})")
        return q


def _seed_terms(seed: Seed, x, t):
    Q = seed.value(x, t)
    th = seed.theta(x, t)
    return Q, np.exp(-1j * th), np.exp(1j * th), np.sqrt(seed.alpha)


def one_fold(spectral_set: SpectralSet, seed: Seed) -> DTOutput:
    """Single-step transformation from one eigenvalue pair via its matrix elements."""
    if len(spectral_set.data) != 2:
        raise ValueError("one_fold needs a spectral set of exactly 2 data")
    d1, d2 = spectral_set.data
    l1, l2 = d1.lam, d2.lam

    def evaluate(x, t):
        p1, v1 = d1.phi(x, t), d1.varphi(x, t)
        p2, v2 = d2.phi(x, t), d2.varphi(x, t)
        den_a = p1 * v2 * l1 - v1 * p2 * l2        # denominator of a2
        num_a = v1 * p2 * l1 - p1 * v2 * l2
        factor = l1 * l1 - l2 * l2
        Q, eim, eip, ra = _seed_terms(seed, x, t)
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
            r = (a2 / d2_el) * -np.conj(Q) + b1 * eip / (d2_el * ra)
        M = np.zeros(np.broadcast(p1, p2).shape + (2, 2), dtype=complex)
        M[..., 0, 0] = l1 * v1
        M[..., 0, 1] = p1
        M[..., 1, 0] = l2 * v2
        M[..., 1, 1] = p2
        _, ratios = batched_det(M)
        return (np.where(np.isfinite(q), q, np.nan + 0j),
                np.where(np.isfinite(r), r, np.nan + 0j), ratios)

    return DTOutput(evaluate)


# ---------------------------------------------------------------------------
# n-fold determinants
# ---------------------------------------------------------------------------

def _component_table(spectral_set: SpectralSet, components: Callable):
    """Eigenvalues and both components of every datum, (lams, phis, varphis).

    `components(datum)` returns the datum's (phi, varphi) over the point
    shape.  A reduced set evaluates its representatives only: each partner's
    components are the representative's, conjugated and exchanged.
    """
    lams, phis, vphs = [], [], []
    data = spectral_set.data
    for k, d in enumerate(spectral_set.evaluated):
        p, v = components(d)
        lams.append(d.lam)
        phis.append(p)
        vphs.append(v)
        if spectral_set.reduction:
            lams.append(data[2 * k + 1].lam)
            phis.append(np.conj(v))
            vphs.append(np.conj(p))
    return lams, phis, vphs


def _omega_matrix(lams, phis, vphs, swap: bool) -> Array:
    """Stack of the paired 2n x (2n+1) determinant matrices over the point shape.

    Row j of the unshifted matrix alternates descending powers of lam_j,
    from 2n - 1 down to 0, against the two components: odd powers weight
    varphi, even powers weight phi (swap exchanges roles).  The shifted
    matrix differs in its leading column only, lam^{2n} times the even-power
    component.  The pair is laid out as one stack for `_omega_dets`: the
    unshifted columns 1 .. 2n-1, then the unshifted column 0, then the
    shifted column 0.  Complex components give a complex stack; object
    arrays of mpmath values, with mpmath eigenvalues, give an mpmath stack.
    The entries are stored matrix-first, so the returned (..., m, m+1) view
    is already in the batch-last order `batched_det` uses.
    """
    m = len(lams)
    powers = [*range(m - 2, -1, -1), m - 1, m]
    shape = np.broadcast(phis[0], vphs[0]).shape
    M = np.empty((m, m + 1) + shape, dtype=np.result_type(phis[0], vphs[0]))
    for j in range(m):
        f, v = (vphs[j], phis[j]) if swap else (phis[j], vphs[j])
        for col, power in enumerate(powers):
            # scalar first: numpy's complex product is not commutative bit for
            # bit; np.multiply stops `mpc * array` converting the whole array
            M[j, col] = np.multiply(lams[j] ** power, v if power % 2 == 1 else f)
    return np.moveaxis(M, (0, 1), (-2, -1))


def _omega_dets(spectral_set: SpectralSet, lams, phis, vphs, stack_det: Callable):
    """(main, swapped, main_shift, swapped_shift, pivot ratio of main).

    `stack_det(stack)` eliminates an (..., m, m+1) stack without modifying
    it and returns ((unshifted, shifted), pivot ratios): the unshifted and
    shifted matrices share all columns but the leading one, so one
    elimination over the shared columns gives both determinants (see
    `_omega_matrix` for the column order).  On a reduced set the swapped
    matrix is the conjugate of the main one with each representative's row
    exchanged with its partner's, so swapped = (-1)^n conj(main), and
    likewise for the shifted pair: one elimination instead of two.  The sign
    is left out, because the transformation only uses swapped^2 and
    swapped * swapped_shift.
    """
    def dets(swap):
        (unshifted, shifted), ratios = stack_det(_omega_matrix(lams, phis, vphs, swap))
        # column 0 was moved past the 2n - 1 others: a factor (-1)^(2n-1)
        return -unshifted, -shifted, ratios

    main, main_shift, ratios = dets(False)
    if spectral_set.reduction:
        return main, np.conj(main), main_shift, np.conj(main_shift), ratios
    swapped, swapped_shift, _ = dets(True)
    return main, swapped, main_shift, swapped_shift, ratios


def _omega_dets_double(spectral_set: SpectralSet, x, t):
    def components(d):
        return (np.asarray(d.phi(x, t), dtype=complex),
                np.asarray(d.varphi(x, t), dtype=complex))

    lams, phis, vphs = _component_table(spectral_set, components)
    return _omega_dets(spectral_set, lams, phis, vphs, batched_det)


def _omega_dets_extended(spectral_set: SpectralSet, x, t):
    shape = np.broadcast(x, t).shape
    xs = np.broadcast_to(np.asarray(x, dtype=float), shape).ravel().tolist()
    ts = np.broadcast_to(np.asarray(t, dtype=float), shape).ravel().tolist()

    def components(d):
        pv = np.empty((len(xs), 2), dtype=object)
        pv[:] = [d.mp_components(xi, ti) for xi, ti in zip(xs, ts)]
        return pv[:, 0].reshape(shape), pv[:, 1].reshape(shape)

    def stack_det(M):
        d, r = dd_batched_det(DDComplexArray.from_mp(M))
        return d.to_complex(), r

    with mp.workdps(MP_DPS):
        lams, phis, vphs = _component_table(spectral_set, components)
        lams = [mp.mpc(lam) for lam in lams]
        return _omega_dets(spectral_set, lams, phis, vphs, stack_det)


def n_fold(spectral_set: SpectralSet, seed: Seed, precision: str = "double") -> DTOutput:
    """Determinant-form transformation of order n = len(set)/2 (n in 1..3)."""
    n = spectral_set.order
    if n not in (1, 2, 3):
        raise ValueError(f"supported orders are 1..3, got {n}")
    if precision not in ("double", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    if precision == "extended" and any(d.mp_components is None
                                       for d in spectral_set.evaluated):
        raise ValueError("extended precision needs mp_components on every evaluated datum")
    dets = _omega_dets_extended if precision == "extended" else _omega_dets_double

    def evaluate(x, t):
        main, swapped, main_shift, swapped_shift, ratios = dets(spectral_set, x, t)
        Q, eim, eip, ra = _seed_terms(seed, x, t)
        keep = ratios <= DEFAULT_CONDITION_BOUND
        with np.errstate(all="ignore"):
            main2, sw2 = main ** 2, swapped ** 2
            q = (sw2 / main2) * Q + eim / ra * swapped * swapped_shift / main2
            r = (main2 / sw2) * -np.conj(Q) - eip / ra * main * main_shift / sw2
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
    """Coalescence recipe: base eigenvalue, radius, order, and split phases."""

    lambda_c: complex
    epsilon: float
    n: int
    phases: PhasePolynomial = field(default_factory=PhasePolynomial)

    def __post_init__(self):
        if not (0 < self.epsilon <= 0.1):
            raise ValueError("epsilon must lie in (0, 0.1]")
        if self.n not in (1, 2, 3):
            raise ValueError("order must be 1, 2 or 3")


def _degenerate_set(spec: DegenerationSpec, seed: Seed, offsets) -> SpectralSet:
    lams, weights = [], []
    for off in offsets:
        eps_j = spec.epsilon * off
        lam_j = spec.lambda_c * (1 + eps_j)
        lams.append(lam_j)
        if isinstance(seed, PlaneWaveSeed):
            s_j = complex(branch_quantity(lam_j, seed))
            S_j = spec.phases(eps_j)
            weights.append((np.exp(-1j * s_j * S_j), np.exp(1j * s_j * S_j)))
        else:
            weights.append((1.0, 1.0))
    return build_reduced_set(lams, seed, weights_per_lambda=weights)


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
