"""The determinant-form n-fold Darboux transformation.

The n-fold map is a combination of four 2n x 2n determinants built from the
spectral data; only determinant ratios reach the output, so any common
rescaling of a row cancels (gauge covariance).  They come in two pairs, each
an unshifted matrix and its shifted twin, which differ in the leading column
only, so each pair is eliminated once, as one 2n x (2n+1) stack.  On
conjugate-reduced sets one pair follows from the other by conjugation, so
only one stack is eliminated and R is -conj(Q).  That stack holds the n
representatives' rows, then n partner rows, which one step
(`_reduced_dets`) conjugates in place and eliminates, for both `n_fold`
and `exact_limit`.  Degenerate (coalescing) configurations are evaluated
at a small perturbation radius or, below the radius where double's
rounding would show and at order 1 always, as the exact limit of
Taylor-coefficient rows (Guo, Ling & Liu, PRE 85, 026607 (2012); He et
al., PRE 87, 052914 (2013)).
Everything is evaluated in double.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .lax import (ExpSum, Seed, _check_finite, branch_quantity, nearest_branch_point,
                  plane_wave_eigenfunction, zero_seed_eigenfunction)
# called by these module names in the engine, which instrumentation wraps
from .numerics.determinant import batched_det
# kept unused: benchmarks/tracing.py patches `darboux.dd_batched_det`
from .numerics.doubledouble import dd_batched_det  # noqa: F401
from .numerics.grid import thread_safe


# degenerate_limit serves the exact limit below the order's radius: there
# double's rounding error (against 40-digit mpmath) would exceed 0.1 of the
# truncation error (against the exact limit), the share at which the table
# tests/precision_table.py prints crosses.  Order 1 is the limit at every
# radius: a single eigenvalue's finite-radius field is off it by O(eps)
EXACT_LIMIT_RADIUS = {1: math.inf, 2: 5.3e-5, 3: 2.0e-3}
DEFAULT_CONDITION_BOUND = 1e12
# exact_limit expands at a branch point lam* when |lambda_c/lam* - 1| < NEAR_BRANCH_POINT,
# where terms at lambda_c cancel as its (1/2 - n)-th power; B's powers stop at RECENTRING_TAIL
NEAR_BRANCH_POINT = 2e-2
RECENTRING_TAIL = 1e-24


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


def _scaled_weights(w) -> tuple:
    """A weight pair whose larger magnitude is 2 or more, over the power of two
    that brings it into [1, 2): the factor cancels from Q and scales exactly,
    and weights like e^360 would overflow the Omega determinants' products."""
    k = math.frexp(max(abs(0.5 * complex(v)) for v in w))[1]   # halves cannot overflow
    if k < 1:
        return tuple(w)
    return tuple(complex(math.ldexp(v.real, -k), math.ldexp(v.imag, -k)) for v in map(complex, w))


def build_reduced_set(lambdas: Sequence[complex], seed: Seed,
                      weights_per_lambda: Optional[Sequence] = None) -> SpectralSet:
    """The reduced set of one representative per eigenvalue pair; the weights
    combine a plane wave's two basis solutions, so the zero background
    (c = 0) takes (1, 1)."""
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
        if seed.c:
            if abs(branch_quantity(lam, seed)) < 1e-12 and complex(w[0]) == complex(w[1]):
                raise ValueError(
                    f"branch quantity vanishes at lambda {lam}; the two basis "
                    "solutions coincide and the eigenfunction degenerates")
            datum = plane_wave_eigenfunction(lam, seed, weights=_scaled_weights(w))
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
    instrumentation does) rewraps the call too.  `precision` is what ran:
    "double" finite-radius determinants, or "exact" (`exact_limit`).
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
    """The seed, exp(-i theta) as exp(-ipx) exp(-iqt) (so its conjugate is
    exp(ipx) exp(iqt) bit for bit), sqrt(alpha); like the seed, one complex
    exp per x value and one per t value on broadcast axes."""
    eim = (np.exp(-1j * (seed.theta_p * np.asarray(x)))
           * np.exp(-1j * (seed.theta_q * np.asarray(t))))
    return seed.value(x, t), eim, np.sqrt(seed.alpha)


# ---------------------------------------------------------------------------
# n-fold determinants
# ---------------------------------------------------------------------------

def _row_powers(spectral_set: SpectralSet):
    """The 2n x (2n+1) table lam_j^p, p = 0 .. 2n, for the eigenvalue of each
    of the 2n rows; a reduced set's n partner rows, after its n
    representatives', repeat their representatives' powers."""
    lams = [d.lam for d in spectral_set.data] * (2 if spectral_set.reduction else 1)
    return np.array([[lam ** p for p in range(len(lams) + 1)] for lam in lams])


def _omega_matrix(powers, evens, odds):
    """Stack of the paired 2n x (2n+1) determinant matrices over the point shape.

    Row j of the unshifted matrix alternates descending powers of lam_j,
    from 2n - 1 down to 0, against two components: even powers weight
    evens[j], odd powers odds[j] (phi and varphi on a datum's own row).
    The shifted matrix differs in its leading column only, lam^{2n} times
    the even-power component.  The pair is laid out as one stack for
    `_omega_dets`: the unshifted columns 1 .. 2n-1, then the unshifted
    column 0, then the shifted column 0 (`_column_powers`).  The entries
    are stored matrix-first, so the returned (..., m, m+1) view is already
    in the batch-last layout of elimination, and `batched_det` eliminates
    it in place.
    """
    m = len(evens)
    order = _column_powers(m)
    shape = np.broadcast_shapes(np.shape(evens[0]), np.shape(odds[0]))
    M = np.empty((m, m + 1) + shape, dtype=complex)
    # lam_j^p in column order, broadcast over the point shape
    row_powers = powers[(slice(None), order) + (None,) * len(shape)]
    for j in range(m):
        M[j, 0::2], M[j, 1::2] = evens[j], odds[j]
        # the powers first: numpy's complex product is not commutative bit for
        # bit; the row is scaled in place, with no block-sized temporary
        np.multiply(row_powers[j], M[j], out=M[j])
    return _batch_last(M)


def _column_powers(m: int) -> list:
    """The power of lam in each of the m + 1 columns of an `_omega_matrix`
    stack: m - 2 down to 0, then m - 1 and m.  Even powers sit in the even
    columns 0, 2, .., m, which a datum's own row fills with phi; odd powers
    in the odd columns, with varphi."""
    return [*range(m - 2, -1, -1), m - 1, m]


def _batch_last(M):
    """The (..., m, m+1) view of a matrix-first (m, m+1, ...) stack."""
    return np.moveaxis(M, (0, 1), (-2, -1))


def _omega_dets(spectral_set: SpectralSet, powers, x, t):
    """(main, swapped, main_shift, swapped_shift, pivot ratio of main) at (x, t).

    Each datum's `phi` and `varphi` are taken once per block.  The unshifted
    and shifted matrices share all columns but the leading one, so one
    elimination over the shared columns gives both (`_omega_matrix`).  The
    swapped stack is the main one's with the component lists exchanged; a
    reduced set needs none, and its partner rows start as their
    representatives' with phi and varphi exchanged (`_reduced_dets`).
    """
    phis = [np.asarray(d.phi(x, t), dtype=complex) for d in spectral_set.data]
    vphs = [np.asarray(d.varphi(x, t), dtype=complex) for d in spectral_set.data]
    if spectral_set.reduction:
        M = _omega_matrix(powers, phis + vphs, vphs + phis)
        del phis, vphs      # the stack holds copies: free the components first
        return _reduced_dets(M)
    main, main_shift, ratios = _eliminate(_omega_matrix(powers, phis, vphs))
    M = _omega_matrix(powers, vphs, phis)
    del phis, vphs
    swapped, swapped_shift, _ = _eliminate(M)
    return main, swapped, main_shift, swapped_shift, ratios


def _eliminate(M):
    """(det, shifted det, pivot ratios) of an `_omega_matrix` stack; column 0
    was moved past the 2n - 1 others, a factor (-1)^(2n-1)."""
    pair, ratios = batched_det(M)
    return -pair[0], -pair[1], ratios


def _reduced_dets(M):
    """The five of `_omega_dets` from a reduced set's batch-last stack: n
    representatives' rows, then n partner rows, each its representative's
    with phi and varphi exchanged, which the conjugation here, in place,
    turns into the row of the partner (lam*, varphi*, phi*), bit for bit.
    The swapped matrix is the conjugate of the main one with representatives
    and partners exchanged, so swapped = (-1)^n conj(main), and likewise for
    the shifted pair: one elimination instead of two.  The sign is left out,
    as is (-1)^(n(n-1)/2) against a general set, which interleaves each
    representative with its partner: `_combine` uses only squares and
    products of paired determinants.
    """
    partners = M[..., M.shape[-2] // 2:, :]
    np.conjugate(partners, out=partners)
    main, main_shift, ratios = _eliminate(M)
    return main, np.conj(main), main_shift, np.conj(main_shift), ratios


def _combine(seed: Seed, reduction: bool, dets, x, t):
    """(Q, R, pivot ratio) at (x, t) from `_omega_dets`' five: the n-fold map
    of the seed, NaN where the value is not finite or the ratio exceeds
    `DEFAULT_CONDITION_BOUND`."""
    main, swapped, main_shift, swapped_shift, ratios = dets
    Q, eim, ra = _seed_terms(seed, x, t)
    keep = ratios <= DEFAULT_CONDITION_BOUND
    with np.errstate(all="ignore"):
        main2, sw2 = main ** 2, swapped ** 2
        q = (sw2 / main2) * Q + eim / ra * swapped * swapped_shift / main2
        if reduction:
            r = -np.conj(q)
        else:
            r = (main2 / sw2) * -np.conj(Q) - np.conj(eim) / ra * main * main_shift / sw2
    return (np.where(np.isfinite(q) & keep, q, np.nan + 0j),
            np.where(np.isfinite(r) & keep, r, np.nan + 0j), ratios)


def n_fold(spectral_set: SpectralSet, seed: Seed) -> DTOutput:
    """Determinant-form transformation of order n = `spectral_set.order` (1..3);
    on a reduced set, R is -conj(Q) under Q's mask."""
    n = spectral_set.order
    if n not in (1, 2, 3):
        raise ValueError(f"supported orders are 1..3, got {n}")
    powers = _row_powers(spectral_set)

    def evaluate(x, t):
        # beyond double's range components and determinants are inf or NaN,
        # which `_combine` masks, without a warning
        with np.errstate(all="ignore"):
            dets = _omega_dets(spectral_set, powers, x, t)
        return _combine(seed, spectral_set.reduction, dets, x, t)

    return DTOutput(evaluate)


# ---------------------------------------------------------------------------
# numeric degeneration
# ---------------------------------------------------------------------------

def _default_offsets(n: int) -> list[complex]:
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


def _check_split_phase(spec: DegenerationSpec, seed: Seed):
    # on the zero background the phase is 0, so the weights are (1, 1) exactly
    if not seed.c and (spec.S0, spec.S1, spec.S2) != (0, 0, 0):
        raise ValueError(f"the zero seed ignores the split phase S0, S1, S2 = {spec.S0}, "
                         f"{spec.S1}, {spec.S2}: it enters only on a plane wave")


def _degenerate_set(spec: DegenerationSpec, seed: Seed, offsets) -> SpectralSet:
    _check_split_phase(spec, seed)
    lams, weights = [], []
    for off in offsets:
        eps_j = spec.epsilon * off
        lams.append(spec.lambda_c * (1 + eps_j))
        s_j = complex(branch_quantity(lams[-1], seed))
        S_j = spec.S0 + spec.S1 * eps_j + spec.S2 * eps_j * eps_j
        if S_j == 0:
            w = (1.0, 1.0)      # exp(-+i s S) at S = 0, even for s beyond double's range
        else:
            with np.errstate(over="ignore"):
                w = (np.exp(-1j * s_j * S_j), np.exp(1j * s_j * S_j))
            if not np.isfinite(w).all():
                # only the pair's ratio enters Q: take the larger exponent's real
                # part out of both, which leaves the larger weight of modulus 1
                z = -1j * s_j * S_j
                w = (np.exp(z - abs(z.real)), np.exp(-z - abs(z.real)))
        weights.append(w)
    return build_reduced_set(lams, seed, weights)


# ---------------------------------------------------------------------------
# the exact limit: Taylor rows
# ---------------------------------------------------------------------------

def _mul(a, b):
    """The product of two power series truncated to a's length."""
    return np.convolve(a, b)[:len(a)]


def _exp_series(f) -> list:
    """exp(f - f[0]) of a power series, coefficients along f's first index
    over any trailing shape, by g_m = sum_j (j/m) f_j g_(m-j)."""
    jf = [j * fj for j, fj in enumerate(f)]
    g = [np.ones_like(f[0])]
    for m in range(1, len(f)):
        g.append(sum(jf[j] * g[m - j] for j in range(1, m + 1)) / m)
    return g


def _sqrt_series(a):
    """The principal square root of a power series with a nonzero constant."""
    b = np.zeros_like(a)
    b[:1] = np.sqrt(a[:1])
    for m in range(1, len(a)):
        b[m] = (a[m] - np.dot(b[1:m], b[m - 1:0:-1])) / (2 * b[0])
    return b


def _recentring(n: int, k0: int, zeta0: complex):
    """(orders, B): Taylor orders k0 .. K at a branch point, and B spanning
    the orders 0 .. n - 1 at zeta0, sum_k C(k, j) zeta0^(k - j) G_k (G_0 = 0
    if k0 = 1), as [I | M zeta0^(k - k0 - i)], M = P_lead^-1 P_tail, P_jk =
    C(k, j): no cancellation.  A few-ulp zeta0 is lam*'s rounding: B = I."""
    if abs(zeta0) <= 4 * np.finfo(float).eps:
        return np.arange(k0, k0 + n), np.eye(n)
    orders = np.arange(k0, k0 + n + math.ceil(math.log(RECENTRING_TAIL) / math.log(abs(zeta0))))
    P = np.array([[math.comb(k, j) for k in orders] for j in range(n)], dtype=float)
    M = np.rint(np.linalg.solve(P[:, :n], P[:, n:]))     # det P_lead = 1
    lag = orders[n:] - k0 - np.arange(n)[:, None]
    return orders, np.hstack([np.eye(n), M * complex(zeta0) ** lag])


def _taylor_terms(spec: DegenerationSpec, seed: Seed):
    """(d, orders, B, lam, terms) of `exact_limit`'s rows in w, zeta = lam/center
    - 1 = w^d: a term c(w) exp(kx(w) x + kt(w) t) of phi (0) or varphi (1) is
    (0 or 1, c, kx, kt).  Off a branch point the center is lambda_c, d = 1.
    Within NEAR_BRANCH_POINT of one, lam* (`lax.nearest_branch_point`), it is
    lam*, where s is odd in w (d = 2): a component's branch terms are T(w)
    and T(-w), so T's even coefficients, doubled, stand for both, with no
    cancellation; orders start at k0 = 1 where u-+(lam*) = 0, else at 0, and
    B carries them to lambda_c.  S(z), z = lam/lambda_c - 1, enters the
    weights exp(-+i s S), scaled like `_degenerate_set`'s."""
    lc, n = complex(spec.lambda_c), spec.n
    branch = nearest_branch_point(lc, seed)
    zeta0 = lc / branch[0] - 1 if branch else math.inf
    critical = abs(zeta0) < NEAR_BRANCH_POINT
    center, d, k0, zeta0 = (branch[0], 2, int(branch[1]), zeta0) if critical else (lc, 1, 0, 0)
    orders, B = _recentring(n, k0, zeta0)
    size = d * orders[-1] + 2          # one more: s at d = 2 is w sqrt(rad / w^2)
    one, zeta = (np.eye(1, size, k, dtype=complex)[0] for k in (0, d))
    lam = center * (one + zeta)
    L = _mul(lam, lam)
    if not seed.c:
        kx, kt = -0.25j * L, 0.125j * _mul(L, L)
        terms = [(0, one, kx, kt), (1, one, -kx, -kt)]
        return d, orders, B, lam[:-1], [(f, *(v[:-1] for v in tm)) for f, *tm in terms]
    a, c = np.float64(seed.k - 1), np.float64(seed.C)    # overflows quietly, to inf
    rad = _mul(L, L) - 4 * (a + 1 + c * c) * L + 4 * (a + 1) ** 2 * one
    if critical:
        s = np.zeros(size, dtype=complex)
        s[1:-1] = _sqrt_series(rad[2:])    # rad's constant is zero to within rounding
    else:
        s = _sqrt_series(rad)
    inv_lam = np.zeros(size, dtype=complex)
    inv_lam[::d] = (-1.0) ** np.arange(len(inv_lam[::d])) / center
    sx, st = -s / 4, _mul(s, L + (2 * a + 2 + 2 * c * c) * one) / 8
    px, pt = (a + 1) / 2 * one, -(a + 1) * (a + 1 + c * c) / 2 * one
    u_m, u_p = (one + _mul((2 + 2 * a) * one - L + sign * s, inv_lam) / (2 * c)
                for sign in (-1, 1))
    z = (zeta - zeta0 * one) / (1 + zeta0)
    sS = _mul(s, spec.S0 * one + spec.S1 * z + spec.S2 * _mul(z, z))
    e0 = -1j * sS[0]
    W1, W2 = (np.exp(sign * e0 - abs(e0.real)) * np.array(_exp_series(sign * -1j * sS))
              for sign in (1, -1))
    terms = [(0, _mul(W1, u_m), 1j * (sx - px), 1j * (st - pt)),
             (1, _mul(W1, u_p), 1j * (sx + px), 1j * (st + pt))]
    if not critical:
        terms += [(0, _mul(W2, u_p), 1j * (-sx - px), 1j * (-st - pt)),
                  (1, _mul(W2, u_m), 1j * (px - sx), 1j * (pt - st))]
    return d, orders, B, lam[:-1], [(f, *(v[:-1] for v in tm)) for f, *tm in terms]


def exact_limit(spec: DegenerationSpec, seed: Seed) -> DTOutput:
    """The eps -> 0 limit of `degenerate_limit`, evaluated in double; the
    spec's epsilon does not enter.

    Each representative's n rows span the Taylor coefficients of orders 0
    .. n - 1 (1 .. n where the order-0 row vanishes) of its row, lam^p times
    phi or varphi, in z = lam/lambda_c - 1; its partner's are their
    conjugates, phi and varphi exchanged (`_taylor_terms`).  A term's
    `ExpSum` exp(kx_0 x + kt_0 t) multiplies the series of exp((kx - kx_0) x +
    (kt - kt_0) t), contracted with that of lam^p c.  The finite-eps common
    factor (Vandermonde in eps omega_j, its conjugate, a power of eps)
    cancels, as row scalings do.  The stack is laid out as `n_fold`'s on a
    reduced set, the partner rows unconjugated, and the conjugation,
    elimination, combine and mask are `n_fold`'s (`_reduced_dets`).
    """
    _check_split_phase(spec, seed)
    lc = complex(spec.lambda_c)
    if lc.real == 0.0 or lc.imag == 0.0:
        raise ValueError(f"lambda_c {lc} on an axis collapses its conjugate pair")
    n, m = spec.n, 2 * spec.n
    order = _column_powers(m)
    with np.errstate(all="ignore"):
        d, orders, B, lam, terms = _taylor_terms(spec, seed)
        rows = []
        for f, c, kx, kt in terms:
            # K[p, i, j]: B times the coefficients of w^(d k - j) in lam^p c, orders k
            powers = [c]
            for _ in range(m):
                powers.append(_mul(powers[-1], lam))
            lag = d * orders[:, None] - np.arange(len(c))
            K = np.einsum("ik,pkj->pij", B,
                          np.where(lag >= 0, np.array(powers)[:, np.maximum(lag, 0)], 0))
            rows.append((f, K[order], kx, kt, ExpSum([(1, kx[0], kt[0])])))
        # each order's largest coefficient 1: a row scaling, which cancels, but
        # a split phase's powers (S2 = 1e12 gives 1e12 at order 3) would
        # otherwise set the pivot ratio
        scale = np.max([np.abs(row[1]).max(axis=(0, 2)) for row in rows], axis=0)
        rows = [(f, K / scale[:, None], *rest) for f, K, *rest in rows]

    def evaluate(x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x.shape, t.shape)
        with np.errstate(all="ignore"):
            # the rows go straight into the matrix-first stack: a phi term
            # (f = 0) fills the even columns of the representatives' rows and
            # the odd ones of their partners', a varphi term the others
            M = np.zeros((m, m + 1) + shape, dtype=complex)
            P = np.empty((m + 1, n) + shape, dtype=complex)    # one buffer for all terms
            for f, K, kx, kt, base in rows:
                g = np.array(_exp_series([np.zeros(shape), *(kx[j] * x + kt[j] * t
                                                             for j in range(1, len(kx)))]),
                             dtype=complex)
                g *= base(x, t)
                # K contracted with g, as tensordot forms it, into the buffer
                np.dot(K.reshape(-1, len(g)), g.reshape(len(g), -1),
                       out=P.reshape(K.shape[0] * n, -1))
                own, other = slice(f, None, 2), slice(1 - f, None, 2)
                M[:n, own] += P[own].swapaxes(0, 1)
                M[n:, other] += P[other].swapaxes(0, 1)
            dets = _reduced_dets(_batch_last(M))
        return _combine(seed, True, dets, x, t)

    return DTOutput(evaluate, "exact")


def finite_radius(spec: DegenerationSpec, seed: Seed) -> DTOutput:
    """The order-n degenerate solution approximated at the radius eps.

    Perturbed eigenvalues sit at lambda_c (1 + eps * offset_j), with the
    n-th roots of unity as offsets; the field is off the limit by
    O(eps^n).  Below the order's `EXACT_LIMIT_RADIUS` double's rounding
    error grows past the truncation error it approximates.
    """
    return n_fold(_degenerate_set(spec, seed, _default_offsets(spec.n)), seed)


def degenerate_limit(spec: DegenerationSpec, seed: Seed) -> DTOutput:
    """The order-n degenerate solution: below the order's
    `EXACT_LIMIT_RADIUS` the limit itself (`exact_limit`), otherwise the
    field at the radius eps (`finite_radius`); order 1's radius is
    infinite, so its eps does not enter.  `precision` records which ran,
    "exact" or "double"."""
    if spec.epsilon < EXACT_LIMIT_RADIUS[spec.n]:
        return exact_limit(spec, seed)
    return finite_radius(spec, seed)
