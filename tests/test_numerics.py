"""Grid, stencil, determinant, and double-double unit tests."""
import importlib
import inspect
import os
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kundu_dnls import catalog
from kundu_dnls.cli import build_field
from kundu_dnls.darboux import DegenerationSpec, build_reduced_set, degenerate_limit
from kundu_dnls.lax import make_plane_wave_seed, zero_seed, zero_seed_eigenfunction
from kundu_dnls.numerics import ComplexField2D, Grid2D, batched_det, det, sample, thread_safe
from kundu_dnls.numerics import grid as grid_mod
from kundu_dnls.numerics import printing
from kundu_dnls.numerics.doubledouble import DDComplexArray, dd_batched_det

import published_forms
from oracles import one_fold


# ---------------------------------------------------------------------------
# determinant oracle: brute-force cofactor expansion for n <= 4
# ---------------------------------------------------------------------------

def cofactor_det(m):
    m = np.asarray(m, dtype=complex)
    if m.shape == (1, 1):
        return m[0, 0]
    return sum((-1) ** j * m[0, j] * cofactor_det(np.delete(m[1:], j, axis=1))
               for j in range(m.shape[1]))


_PUBLIC = {
    "kundu_dnls": [
        "catalog", "darboux", "errors", "lax", "verify",
        "Grid2D", "ComplexField2D", "sample", "det",
        "Seed", "SpectralDatum",
        "make_plane_wave_seed", "zero_seed", "zero_seed_eigenfunction",
        "plane_wave_eigenfunction", "branch_quantity", "critical_eigenvalue",
        "check_lax_residual",
        "SpectralSet", "DTOutput", "DegenerationSpec",
        "build_reduced_set", "n_fold", "degenerate_limit",
        "ConventionVariant", "ALL_VARIANTS", "ResidualReport", "PeakSet",
        "pde_residual", "pin_down_convention", "compare_fields",
        "convergence_study", "peak_analysis",
        "__version__"],
    "kundu_dnls.numerics": [
        "Grid2D", "ComplexField2D", "sample", "thread_safe", "intensity",
        "det", "batched_det"],
}


@pytest.mark.parametrize("module", ["kundu_dnls", "kundu_dnls.numerics"])
def test_public_names_resolve(module):
    # a deleted name left in __all__ would otherwise surface only at
    # `from ... import *` time; and __all__ is pinned, so a reference
    # implementation or other test-only name added back to the package
    # fails here (such code belongs in tests/, as oracles.py)
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert mod.__all__ == _PUBLIC[module]
    # the catalog has one form of each solution; the published forms are
    # tests/published_forms.py
    for make in (catalog.one_soliton, catalog.two_soliton, catalog.positon,
                 catalog.breather, catalog.rogue1, catalog.rogue2):
        assert "form" not in inspect.signature(make).parameters
    # a bad argument raises ValueError; the error classes are only those a
    # caller tells apart from it (exit codes, and analyze's two outcomes)
    errors = importlib.import_module("kundu_dnls.errors")
    assert sorted(name for name, obj in vars(errors).items() if isinstance(obj, type)) == [
        "AllNodesExcludedError", "IOFailureError", "InvalidConfigError", "KdnlsError",
        "ResolutionTooCoarseError", "VerificationFailedError"]


def test_det_identity_case():
    assert det(np.array([[1.0]])) == 1.0


def test_det_permutation_matrix():
    assert det(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0


def test_det_rejects_non_finite():
    with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
        det(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_det_4x4_spectral_matrix_vs_cofactor_oracle():
    # main determinant layout built from zero-background eigenfunctions at the
    # four conjugate eigenvalues, evaluated at the origin
    lams = [1 + 2j, 1 - 2j, 0.7 + 0.3j, 0.7 - 0.3j]
    rows = []
    for k, lam in enumerate(lams):
        d = zero_seed_eigenfunction(lam)
        if k % 2 == 1:
            phi, vph = np.conj(d.varphi(0, 0)), np.conj(d.phi(0, 0))
        else:
            phi, vph = d.phi(0, 0), d.varphi(0, 0)
        rows.append([lam ** 3 * vph, lam ** 2 * phi, lam * vph, phi])
    m = np.array(rows)
    want = cofactor_det(m)
    assert abs(det(m) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_cofactor_oracle_random(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = cofactor_det(m)
        assert abs(det(m) - want) <= 1e-12 * max(1e-30, abs(want))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.sampled_from([2, 3]))
def test_det_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    lhs = det(a @ b)
    rhs = det(a) * det(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_batched_det_pivot_ratio_flags_singular():
    m = np.zeros((1, 2, 2), dtype=complex)
    m[0] = [[1, 1], [1, 1]]
    d, r = batched_det(m)
    assert abs(d[0]) < 1e-14
    assert r[0] > 1e12 or np.isinf(r[0])


def row_major_batched_det(mats):
    """Reference: the elimination with the batch on the first axis, kept to
    pin down that the batch-last layout changes no bit of the result."""
    a = np.array(mats, dtype=complex)
    m = a.shape[-1]
    lead = a.shape[:-2]
    a = a.reshape((-1, m, m))
    n = a.shape[0]
    sign = np.ones(n, dtype=complex)
    piv_max = np.zeros(n)
    piv_min = np.full(n, np.inf)
    det_val = np.ones(n, dtype=complex)
    for k in range(m):
        rel = np.argmax(np.abs(a[:, k:, k]), axis=1) + k
        swap = np.flatnonzero(rel != k)
        if swap.size:
            r = rel[swap]
            tmp = a[swap, k, :].copy()
            a[swap, k, :] = a[swap, r, :]
            a[swap, r, :] = tmp
            sign[swap] = -sign[swap]
        piv = a[:, k, k]
        ap = np.abs(piv)
        piv_max = np.maximum(piv_max, ap)
        piv_min = np.minimum(piv_min, ap)
        det_val *= piv
        if k < m - 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(ap[:, None] > 0, a[:, k + 1:, k] / piv[:, None], 0.0)
            a[:, k + 1:, k:] -= factor[:, :, None] * a[:, None, k, k:]
    det_val *= sign
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(piv_min > 0, piv_max / piv_min, np.inf)
    return det_val.reshape(lead), ratio.reshape(lead)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_batched_det_bit_identical_to_row_major_reference(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((12, 25, m, m)) + 1j * rng.standard_normal((12, 25, m, m))
    a[0, :, 1, 0] = a[0, :, 0, 0]                   # exact pivot-magnitude ties
    a[1, :, 1, 0] = 1j * a[1, :, 0, 0]
    a[2, :, :, 0] = 0                               # zero pivot in the first column
    a[3, :, 1] = a[3, :, 0]                         # singular: tiny pivot later on
    a[4] = np.round(a[4])                           # many ties among small integers
    # non-finite pivot columns: argmax takes the first NaN over any inf, and
    # the first of equal infs, so the row it picks is not row 0
    a[5, :8, 1, 0], a[5, :8, m - 1, 0] = np.inf, np.nan
    a[5, 8:16, 1:, 0] = np.nan
    a[5, 16:, m - 1, 0] = -np.inf
    # a dominant entry at (i, i + 1 mod m) puts every step's pivot in the
    # last row, so every node swaps at every step; on the diagonal, none does
    a[6] += 1e3 * np.roll(np.eye(m), 1, axis=1)
    a[7] += 1e3 * np.eye(m)
    keep = a.copy()
    d, r = batched_det(a)
    with np.errstate(invalid="ignore"):
        d_ref, r_ref = row_major_batched_det(a)
    assert d.shape == r.shape == (12, 25)
    assert d.tobytes() == d_ref.tobytes() and r.tobytes() == r_ref.tobytes()
    assert np.isinf(r[2]).all() and (r[3] > 1e12).all()
    assert not np.isfinite(d[5]).any()
    assert a.tobytes() == keep.tobytes()            # the input is never modified


def _square(a, m, j):
    """The m x m matrices of an m x (m+e) stack: its first m - 1 columns and
    column m - 1 + j."""
    return np.concatenate([a[..., :m - 1], a[..., m - 1 + j:m + j]], axis=-1)


@pytest.mark.parametrize("m, e", [(2, 1), (4, 1), (6, 1), (4, 2)])
def test_batched_det_of_a_wide_stack_gives_each_trailing_determinant(m, e):
    rng = np.random.default_rng(10 * m + e)
    a = rng.standard_normal((9, 40, m, m + e)) + 1j * rng.standard_normal((9, 40, m, m + e))
    keep = a.copy()
    d, r = batched_det(a)
    assert d.shape == (e + 1, 9, 40) and r.shape == (9, 40)
    for j in range(e + 1):
        d_sq, r_sq = batched_det(_square(a, m, j))
        assert np.max(np.abs(d[j] - d_sq) / np.abs(d_sq)) <= 1e-13
        if j == 0:
            # the pivot ratio is that of the matrix with the first trailing column
            assert np.max(np.abs(r - r_sq) / r_sq) <= 1e-13
    assert np.array_equal(a, keep)


@pytest.mark.parametrize("m, e", [(2, 0), (4, 0), (6, 0), (2, 1), (6, 1), (4, 2)])
def test_overwriting_batched_det_gives_batched_det_bits_in_either_layout(m, e):
    # the one complex entry copies a batch-first stack and eliminates a
    # matrix-first one in place, with the same bits
    rng = np.random.default_rng(100 + 10 * m + e)
    a = rng.standard_normal((9, 40, m, m + e)) + 1j * rng.standard_normal((9, 40, m, m + e))
    a[0, :, 1, 0] = a[0, :, 0, 0]                   # exact pivot-magnitude ties
    a[1, :, :, 0] = 0                               # zero pivot in the first column
    keep = a.copy()
    # batch-first: copied once, and the input is left as it was
    d_ref, r_ref = batched_det(a)
    assert np.array_equal(a, keep)
    # matrix-first, as the engine stores its stacks: eliminated in place
    first = np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))
    d, r = batched_det(np.moveaxis(first, (0, 1), (-2, -1)))
    assert d.tobytes() == d_ref.tobytes() and r.tobytes() == r_ref.tobytes()
    assert not np.array_equal(first, np.moveaxis(keep, (-2, -1), (0, 1)))


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_a_c_ordered_stack_of_one_matrix_is_eliminated_in_place(precision):
    # for one matrix the batch-first and matrix-first layouts are the same
    # memory, so any C-ordered single-matrix stack is eliminated in place; a
    # stack of two batch-first matrices is copied and left as it was
    rng = np.random.default_rng(7)
    one = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))

    def run(a):
        """(real part of the stack after elimination, det, pivot ratio)."""
        if precision == "double":
            d, r = batched_det(a)
            return a.real, d, r
        dd = DDComplexArray.from_complex(a)
        d, r = dd_batched_det(dd)
        return dd.re_hi, d.to_complex(), r

    _, d_ref, r_ref = run(np.asfortranarray(one))       # the reference values
    for shape in [(3, 4), (1, 3, 4), (1, 1, 3, 4)]:
        real, d, r = run(one.reshape(shape).copy())
        assert not np.array_equal(real.reshape(3, 4), one.real)
        assert d.tobytes() == d_ref.reshape(d.shape).tobytes()
        assert r.tobytes() == r_ref.tobytes()
    two = np.stack([one, 2 * one])
    real, d, _ = run(two.copy())
    assert np.array_equal(real, two.real)
    assert d[:, 0].tobytes() == d_ref.tobytes()


def test_det_leaves_its_argument_unchanged():
    # `det` eliminates its own copy, so a matrix can be read again after it
    a = np.array([[0.5, 2.0, 1j], [1.0, -1.0, 3.0], [2.0, 0.25j, 1.0]])
    keep = a.copy()
    d = det(a)
    assert np.array_equal(a, keep)
    assert abs(d - cofactor_det(a)) <= 1e-12 * abs(d)


@pytest.mark.parametrize("m, e", [(4, 1), (6, 1), (4, 2)])
def test_dd_batched_det_of_a_wide_stack_matches_mpmath(m, e):
    rng = np.random.default_rng(m + e)
    a = rng.standard_normal((3, m, m + e)) + 1j * rng.standard_normal((3, m, m + e))
    d, r = dd_batched_det(DDComplexArray.from_complex(a))
    assert d.shape == (e + 1, 3) and r.shape == (3,)
    with mp.workdps(40):
        for j in range(e + 1):
            sq = _square(a, m, j)
            for b in range(3):
                ref = mp.det(mp.matrix([[mp.mpc(sq[b, i, k]) for k in range(m)]
                                        for i in range(m)]))
                got = (mp.mpf(d.re_hi[j, b]) + mp.mpf(d.re_lo[j, b])
                       + 1j * (mp.mpf(d.im_hi[j, b]) + mp.mpf(d.im_lo[j, b])))
                assert abs(got - ref) <= mp.mpf("1e-25") * abs(ref)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_rank_deficient_shared_columns_give_zero_in_every_trailing_column(m):
    # singular first m - 1 columns make every trailing determinant vanish;
    # a RuntimeWarning would fail the run (pyproject filterwarnings)
    rng = np.random.default_rng(m)
    hi = rng.standard_normal((4, m, m + 1)) + 1j * rng.standard_normal((4, m, m + 1))
    hi[1, :, 0] = 0                                 # zero pivot in the first column
    hi[2, :, m - 2] = 0                             # zero pivot in the last shared column
    singular = [1, 2]
    if m > 2:
        hi[3, :, :2] = [1, 2]                       # dependent columns, eliminated exactly
        singular.append(3)
    for d, r in (batched_det(hi), dd_batched_det(DDComplexArray.from_complex(hi))):
        d = d if isinstance(d, np.ndarray) else d.to_complex()
        assert d.shape == (2, 4)
        assert np.all(d[:, singular] == 0) and np.all(np.isinf(r[singular]))
        assert np.all(d[:, 0] != 0) and np.isfinite(r[0])


# ---------------------------------------------------------------------------
# grids, sampling, stencils
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError, match="need at least 2 samples per axis, got 1x10"):
        Grid2D(0, 1, 0, 1, 1, 10)
    with pytest.raises(ValueError):
        Grid2D(1, 0, 0, 1, 10, 10)
    for extents in ((-np.inf, np.inf, 0, 1), (0, 1, -1, float("1e400")), (0, 1, np.nan, 1),
                    (-1e308, 1e308, 0, 1)):   # the last: finite extents, infinite spacing
        with pytest.raises(ValueError):
            Grid2D(*extents, 5, 5)
    g = Grid2D(-1, 1, 0, 1, 5, 3)
    assert g.hx == pytest.approx(0.5) and g.ht == pytest.approx(0.5)


def test_sample_zero_and_pointwise():
    g = Grid2D(-1, 1, -1, 1, 7, 7)
    z = sample(lambda x, t: 0.0 * x * t, g)
    assert np.all(z.values == 0)
    f = sample(lambda x, t: np.exp(1j * (2 * x + t)), g)
    i0, j0 = 3, 3  # node at the origin
    assert f.values[i0, j0] == pytest.approx(1.0)


def test_sample_flags_non_finite_instead_of_raising():
    g = Grid2D(-1, 1, -1, 1, 5, 5)
    f = sample(lambda x, t: np.where(np.abs(x) < 1e-12, np.nan, 1.0 + 0j), g)
    assert f.invalid[2].all() and not f.invalid[0].any()


def test_sample_propagates_errors_and_rejects_wrong_shapes():
    g = Grid2D(-1, 1, -1, 1, 5, 5)

    def broken(x, t):
        raise ZeroDivisionError("no scalar fallback")
    with pytest.raises(ZeroDivisionError):
        sample(broken, g)
    with pytest.raises(ValueError, match="does not broadcast to the block"):
        sample(lambda x, t: x[:, :2] + t[:, :2], g)


def test_sample_passes_broadcast_axes_and_expands_one_axis_results():
    g = Grid2D(-1, 1, 0, 2, 5, 7)

    def probe(x, t):
        assert x.shape == (5, 1) and t.shape == (1, 7)
        return x + 1j * t
    X, T = g.mesh()
    assert np.array_equal(sample(probe, g).values, X + 1j * T)
    for f, want in ((lambda x, t: x + 0j, X + 0j), (lambda x, t: 1j * t, 1j * T)):
        fld = sample(f, g)
        assert fld.values.shape == (5, 7) and np.array_equal(fld.values, want)
        fld.values[0, 0] = 99.0               # a real copy, not a broadcast view
        assert fld.values[1, 1] != 99.0 and fld.values[0, 1] != 99.0


@pytest.mark.parametrize("f", [
    lambda x, t: 1.5 + 0j,                    # scalar: write c + 0 * x + 0 * t
    lambda x, t: np.zeros(5, dtype=complex),  # (nt,) would read as x-constant
    lambda x, t: x[:, 0] + 0j,                # (nx,)
    lambda x, t: (x + t)[None],               # 3-D
], ids=["scalar", "1-d-nt", "1-d-nx", "3-d"])
def test_sample_rejects_results_that_do_not_broadcast_to_the_grid(f):
    with pytest.raises(ValueError, match="does not broadcast to the block"):
        sample(f, Grid2D(-1, 1, -1, 1, 5, 5))


def _blocks(nx, nt, nodes=2 ** 14):
    """Row ranges of the sampling contract, stated independently: the
    largest number of whole x-rows with fewer than `nodes` nodes."""
    rows = max(1, (nodes - 1) // nt)
    return [(i, min(i + rows, nx)) for i in range(0, nx, rows)]


def _assert_block_layout(g, calls):
    """The calls (i, j), sorted by row, are the grid's blocks in order, each
    taken whole (by the calling thread) or as its sub-blocks of fewer than
    2**12 nodes (by a helper thread of a thread-safe field)."""
    calls = sorted(calls)
    covered = 0
    for i, j in _blocks(g.nx, g.nt):
        got = [c for c in calls if i <= c[0] < j]
        assert got in ([(i, j)], [(i + a, i + b) for a, b in _blocks(j - i, g.nt, 2 ** 12)])
        covered += len(got)
    assert covered == len(calls)


@pytest.mark.parametrize("nx, nt", [(40, 1000), (3, 20000), (150, 241), (10, 4096)])
def test_sample_evaluates_blocks_of_whole_rows(monkeypatch, nx, nt):
    g = Grid2D(-1, 1, 0, 2, nx, nt)
    xs = g.xs
    X, T = g.mesh()
    assert len(_blocks(nx, nt)) >= 3
    for workers in (1, 2):
        monkeypatch.setattr(grid_mod, "_workers", lambda w=workers: w)
        calls = []

        def probe(x, t):
            i = int(np.flatnonzero(xs == x[0, 0])[0])
            calls.append((i, i + x.shape[0]))
            assert x.shape[1] == 1 and t.shape == (1, nt)
            assert np.array_equal(x[:, 0], xs[i:i + x.shape[0]]) and np.array_equal(t[0], g.ts)
            return x + 1j * t
        fld = sample(thread_safe(probe), g)
        assert np.array_equal(fld.values, X + 1j * T) and fld.workers == workers
        _assert_block_layout(g, calls)
        if workers == 1:          # one thread takes the blocks whole, in row order
            assert calls == _blocks(nx, nt)
        for i, j in calls:   # whole rows, fewer than 2**14 nodes unless one row alone is longer
            assert (j - i) * nt < 2 ** 14 or j - i == 1


def test_sample_expands_one_axis_results_in_every_block(monkeypatch):
    g = Grid2D(-1, 1, 0, 2, 40, 1000)
    X, T = g.mesh()
    xs = g.xs
    assert len(_blocks(40, 1000)) >= 3
    for workers in (1, 2):
        monkeypatch.setattr(grid_mod, "_workers", lambda w=workers: w)
        for f, want in ((lambda x, t: x + 0j, X + 0j), (lambda x, t: 1j * t, 1j * T),
                        (lambda x, t: np.full((1, 1), 2.5 + 0j), np.full(X.shape, 2.5 + 0j))):
            calls = []

            def counted(x, t, f=f):
                i = int(np.flatnonzero(xs == x[0, 0])[0])
                calls.append((i, i + x.shape[0]))
                return f(x, t)
            fld = sample(thread_safe(counted), g)
            _assert_block_layout(g, calls)
            if workers == 1:
                assert len(calls) == len(_blocks(40, 1000))
            assert fld.values.shape == (40, 1000) and np.array_equal(fld.values, want)
    for f in (lambda x, t: x[:, 0] + 0j,                     # 1-D, per block
              lambda x, t: np.zeros((40, 1), dtype=complex)):  # x-only of the whole grid
        with pytest.raises(ValueError, match="does not broadcast to the block"):
            sample(f, g)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sample_raises_the_first_failing_block_in_row_order(monkeypatch, workers):
    # blocks 1 and 3 of four fail, block 3 sooner; block 1's exception is
    # raised, and only after every thread has finished
    monkeypatch.setattr(grid_mod, "_workers", lambda: workers)
    g = Grid2D(-1, 1, 0, 2, 8, 8000)          # four blocks of two rows
    xs = g.xs

    def f(x, t):
        block = int(np.flatnonzero(xs == x[0, 0])[0]) // 2
        if block == 1:
            time.sleep(0.05)
            raise ValueError("block 1")
        if block == 3:
            raise KeyError("block 3")
        return x + 0 * t + 0j
    before = threading.active_count()
    with pytest.raises(ValueError, match="block 1"):
        sample(thread_safe(f), g)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_no_block_is_taken_once_one_has_failed(monkeypatch, workers):
    # block 0 fails at once, while block 1 is still running on a second
    # thread: blocks 2 and 3 are never evaluated
    monkeypatch.setattr(grid_mod, "_workers", lambda: workers)
    g = Grid2D(-1, 1, 0, 2, 8, 8000)          # four blocks of two rows
    xs, evaluated = g.xs, set()

    def f(x, t):
        block = int(np.flatnonzero(xs == x[0, 0])[0]) // 2
        evaluated.add(block)
        if block == 0:
            raise ValueError("block 0")
        time.sleep(0.05)
        return x + 0 * t + 0j
    with pytest.raises(ValueError, match="block 0"):
        sample(thread_safe(f), g)
    assert evaluated <= {0, 1}


def test_an_interrupt_stops_sampling_and_propagates(monkeypatch):
    # a KeyboardInterrupt in the calling thread's block is not held until
    # the grid is done: the calling thread takes no other block, and the
    # helper finishes the block it has and stops
    monkeypatch.setattr(grid_mod, "_workers", lambda: 2)
    g = Grid2D(-1, 1, 0, 2, 40, 1000)          # three blocks of up to 16 rows
    xs, caller, caller_calls, helper_blocks = g.xs, threading.current_thread(), [], set()

    def f(x, t):
        if threading.current_thread() is caller:
            caller_calls.append(x.shape[0])
            raise KeyboardInterrupt
        helper_blocks.add(int(np.flatnonzero(xs == x[0, 0])[0]) // 16)
        time.sleep(0.02)
        return x + 0 * t + 0j
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        sample(thread_safe(f), g)
    assert threading.active_count() == before
    assert len(caller_calls) == 1 and len(helper_blocks) <= 1


def test_a_field_not_marked_thread_safe_is_sampled_on_the_calling_thread(monkeypatch):
    # sample cannot tell that an arbitrary callable is safe to call from
    # several threads: it evaluates one block after another, in row order
    monkeypatch.setattr(grid_mod, "_workers", lambda: 2)
    g = Grid2D(-1, 1, 0, 2, 40, 1000)
    xs, caller, calls = g.xs, threading.current_thread(), []

    def f(x, t):
        assert threading.current_thread() is caller
        i = int(np.flatnonzero(xs == x[0, 0])[0])
        calls.append((i, i + x.shape[0]))
        return x + 1j * t
    fld = sample(f, g)
    assert calls == _blocks(40, 1000) and fld.workers == 1


def test_sampling_uses_at_most_two_threads():
    # speed and memory were measured with two threads only
    g = Grid2D(-1, 1, 0, 2, 400, 1000)        # forty blocks
    fld = sample(thread_safe(lambda x, t: x + 1j * t), g)
    assert fld.workers == min(2, len(os.sched_getaffinity(0)))


def test_a_field_overflowing_in_helper_rows_is_masked_without_warnings(monkeypatch):
    # numpy's error state is a context variable: a helper thread runs in a
    # copy of the caller's context, so its overflows are as quiet as the
    # caller's
    monkeypatch.setattr(grid_mod, "_workers", lambda: 2)
    g = Grid2D(-1, 1, 0, 2, 40, 1000)
    xs, caller, helper_rows = g.xs, threading.current_thread(), []
    caller_in = threading.Event()

    def f(x, t):
        if threading.current_thread() is caller:
            caller_in.set()
            deadline = time.monotonic() + 5
            while not helper_rows and time.monotonic() < deadline:
                time.sleep(0.001)      # let the helper take a block
            return x + 0 * t + 0j
        caller_in.wait(timeout=5)      # let the caller take a block
        i = int(np.flatnonzero(xs == x[0, 0])[0])
        helper_rows.extend(range(i, i + x.shape[0]))
        return np.exp(800.0 + 0 * x + 0 * t) + 0j
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fld = sample(thread_safe(f), g)
    assert caught == [] and fld.workers == 2
    assert helper_rows and len(helper_rows) < g.nx
    in_helper = np.isin(np.arange(g.nx), helper_rows)
    assert fld.invalid[in_helper].all() and not fld.invalid[~in_helper].any()


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_rows_gives_the_rows_of_the_whole_grid(monkeypatch, workers):
    # sample is sample_rows over all rows; a row range from a block edge is
    # evaluated in the grid's own blocks, any other in blocks from its start
    monkeypatch.setattr(grid_mod, "_workers", lambda: workers)
    g = Grid2D(-1, 1, 0, 2, 150, 241)              # blocks of 67 rows
    rogue = catalog.rogue1().eval
    f = thread_safe(lambda x, t: rogue(x, t))
    whole = sample(f, g).values
    xs = g.xs
    for start, stop in [(0, 150), (67, 150), (67, 134), (5, 140), (149, 150)]:
        calls, out = [], np.empty((stop - start, g.nt), dtype=complex)

        def probe(x, t):
            i = int(np.flatnonzero(xs == x[0, 0])[0])
            calls.append((i, i + x.shape[0]))
            return f(x, t)
        used = grid_mod.sample_rows(thread_safe(probe), g, start, stop, out)
        assert out.tobytes() == whole[start:stop].tobytes()
        blocks = [(start + i, start + j) for i, j in _blocks(stop - start, g.nt)]
        assert used == min(workers, len(blocks))
        covered = sorted(calls)
        if workers == 1:
            assert covered == blocks
        assert [r for i, j in covered for r in range(i, j)] == list(range(start, stop))


def test_a_single_block_grid_starts_no_thread(monkeypatch):
    monkeypatch.setattr(grid_mod, "_workers", lambda: 4)
    starts, real_start = [], threading.Thread.start

    def counted_start(self):
        starts.append(self)
        real_start(self)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    f = thread_safe(lambda x, t: x + 1j * t)
    fld = sample(f, Grid2D(-1, 1, 0, 1, 11, 11))
    assert starts == [] and fld.workers == 1
    fld = sample(f, Grid2D(-1, 1, 0, 2, 40, 1000))   # three blocks
    assert len(starts) == 2 and fld.workers == 3
    fld = sample(lambda x, t: x + 1j * t, Grid2D(-1, 1, 0, 2, 40, 1000))
    assert len(starts) == 2 and fld.workers == 1


def test_sample_shares_blocks_among_more_threads_than_cpus(monkeypatch):
    # 200 one-row blocks on 8 threads with a short switch interval: a block
    # taken twice or lost would show in the rows or the values
    monkeypatch.setattr(grid_mod, "_workers", lambda: 8)
    monkeypatch.setattr(grid_mod, "_BLOCK_NODES", 64)
    g = Grid2D(-1, 1, 0, 2, 200, 50)
    xs, rows = g.xs, []

    def f(x, t):
        rows.append(int(np.flatnonzero(xs == x[0, 0])[0]))
        return x + 1j * t
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fld = sample(thread_safe(f), g)
    finally:
        sys.setswitchinterval(interval)
    X, T = g.mesh()
    assert sorted(rows) == list(range(200)) and fld.workers == 8
    assert np.array_equal(fld.values, X + 1j * T)


_MULTI = ((150, 241), 3)      # the multi-block grid shape and its block count


def _catalog_fields():
    for name, args, window in [
            ("one_soliton", (1.0, 2.0), (-3, 3, -1, 1)),
            ("two_soliton", (0.7, 0.3, 0.5, 0.5), (-10, 10, -10, 10)),
            ("positon", (0.8, 0.8), (-10, 10, -10, 10)),
            ("breather", (), (-5, 5, -3, 3)),
            ("rogue1", (), (-4, 4, -4, 4)),
            ("rogue2", (), (-4, 4, -4, 4))]:
        yield pytest.param(getattr(catalog, name)(*args).eval, window, (41, 37), _MULTI,
                           id=f"{name}-exact")
        if hasattr(published_forms, name):
            yield pytest.param(getattr(published_forms, name)(*args), window, (41, 37),
                               _MULTI, id=f"{name}-as_published")


def _engine_fields():
    seed0, seed = zero_seed(), make_plane_wave_seed(-2.0, 1.0, 1.0)
    yield pytest.param(one_fold(build_reduced_set([1 + 2j], seed0), seed0).Q, (-3, 3, -1, 1),
                       (21, 17), _MULTI, id="one_fold")
    yield pytest.param(_fig9(), (-40, 40, -40, 40), (23, 19), _MULTI, id="n_fold-fig9")
    exact = degenerate_limit(DegenerationSpec(1 + 1j, 1e-4, 3), seed)
    yield pytest.param(exact.Q, (-2, 2, -1.5, 1.5), (21, 17), _MULTI,
                       id="degenerate_limit-exact")


def _fig9():
    return build_field("rogue3", dict(S0=0.0, S1=500.0, S2=0.0, eps=4e-3))


@pytest.mark.parametrize("f, window, shape, multi_block",
                         [*_catalog_fields(), *_engine_fields()])
def test_sample_gives_the_bits_of_the_materialized_mesh(f, window, shape, multi_block):
    # a single-block grid carries the bits of f on the whole mesh ...
    g = Grid2D(*window, *shape)
    assert len(_blocks(g.nx, g.nt)) == 1
    with np.errstate(all="ignore"):
        want = np.asarray(f(*g.mesh()), dtype=complex)
    assert sample(f, g).values.tobytes() == want.tobytes()
    # ... and a larger grid those of f on the mesh of each block
    shape, blocks = multi_block
    g = Grid2D(*window, *shape)
    X, T = g.mesh()
    assert len(_blocks(g.nx, g.nt)) == blocks
    with np.errstate(all="ignore"):
        want = np.concatenate([np.asarray(f(X[i:j], T[i:j]), dtype=complex)
                               for i, j in _blocks(g.nx, g.nt)])
    assert sample(f, g).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("f", [
    catalog.positon(0.8, 0.8).eval,
    catalog.two_soliton(0.7, 0.3, 0.5, 0.5).eval,
    _fig9(),
], ids=["positon", "two_soliton", "n_fold-fig9"])
def test_a_sample_does_not_depend_on_the_grid_around_it(f):
    # the nodes of -4:4:9 are every 128th node of -4:4:1025, exactly
    fine = np.ascontiguousarray(sample(f, Grid2D(-4, 4, -4, 4, 1025, 1025)).values[::128, ::128])
    coarse = sample(f, Grid2D(-4, 4, -4, 4, 9, 9)).values
    differ = (fine.view(np.uint64) != coarse.view(np.uint64)).reshape(9, 9, 2).any(axis=-1)
    assert np.count_nonzero(differ) == 0


def test_sampling_the_positon_holds_bounded_memory():
    f = catalog.positon(0.8, 0.8).eval
    g = Grid2D(-10, 10, -10, 10, 641, 641)
    tracemalloc.start()
    try:
        sample(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


def test_sampling_the_exact_limit_holds_bounded_memory():
    # every temporary of the exact limit's rows is per block: peak about
    # 30 MiB on a 401^2 grid, where its 6 x 7 stacks over the whole grid
    # alone would take 108 MB
    f = degenerate_limit(DegenerationSpec(1 + 1j, 1e-4, 3),
                         make_plane_wave_seed(-2.0, 1.0, 1.0)).Q
    g = Grid2D(-2, 2, -2, 2, 401, 401)
    tracemalloc.start()
    try:
        fld = sample(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not fld.invalid.any()
    assert peak <= 40 * 2 ** 20


def test_field_shape_validation():
    g = Grid2D(-1, 1, 0, 1, 5, 5)
    with pytest.raises(Exception):
        ComplexField2D(g, np.zeros((4, 5), dtype=complex))


# ---------------------------------------------------------------------------
# double-double arithmetic
# ---------------------------------------------------------------------------

def test_dd_roundtrip_and_arithmetic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    da, db = DDComplexArray.from_complex(a), DDComplexArray.from_complex(b)
    assert np.allclose((da * db).to_complex(), a * b, rtol=1e-15)
    assert np.allclose((da + db).to_complex(), a + b, rtol=1e-15)
    assert np.allclose((da / db).to_complex(), a / b, rtol=1e-14)


def test_dd_mul_captures_sub_double_error():
    # (1 + 2^-40) * (1 - 2^-40) = 1 - 2^-80: the correction lives in the low word
    eps = 2.0 ** -40
    a = DDComplexArray.from_complex(np.array([1.0 + 0j])) + \
        DDComplexArray.from_complex(np.array([eps + 0j]))
    b = DDComplexArray.from_complex(np.array([1.0 + 0j])) + \
        DDComplexArray.from_complex(np.array([-eps + 0j]))
    prod = a * b
    assert prod.re_hi[0] == 1.0
    assert prod.re_lo[0] == pytest.approx(-eps * eps, rel=1e-12)


def test_dd_det_matches_mpmath_on_clustered_matrix():
    eps = 1e-6
    base = np.array([[1.0, 1.0, 1.0],
                     [1.0, 1.0 + eps, 1.0 + 2 * eps],
                     [1.0, 1.0 + 2 * eps, 1.0 + 4.1 * eps]], dtype=complex) * (1 + 0.3j)
    dd = DDComplexArray.from_complex(base[None])
    d, _ = dd_batched_det(dd)
    with mp.workdps(40):
        ref = mp.det(mp.matrix([[mp.mpc(base[i, j]) for j in range(3)] for i in range(3)]))
        rel = abs(mp.mpc(complex(d.to_complex()[0])) - ref) / abs(ref)
    assert rel < 1e-15  # double-double floor; plain doubles sit near 1e-4 here


def test_dd_from_mp_preserves_extra_digits():
    with mp.workdps(40):
        val = mp.mpf(1) / mp.mpf(3) + mp.mpc(0, 1) * mp.mpf(1) / mp.mpf(7)
        dd = DDComplexArray.from_mp(np.array([[val]], dtype=object))
        err = abs(mp.mpf(dd.re_hi[0, 0]) + mp.mpf(dd.re_lo[0, 0]) - mp.mpf(1) / 3)
    assert err < mp.mpf(10) ** -30


def batch_first_dd_batched_det(mat):
    """Reference: the double-double elimination with the batch on the first
    axis, kept to pin down that the batch-last layout changes no bit."""
    shp = mat.shape
    m = shp[-1]
    lead = shp[:-2]
    n = int(np.prod(lead)) if lead else 1
    a = DDComplexArray(mat.re_hi.reshape(n, m, m).copy(), mat.re_lo.reshape(n, m, m).copy(),
                       mat.im_hi.reshape(n, m, m).copy(), mat.im_lo.reshape(n, m, m).copy())
    det = DDComplexArray.from_complex(np.ones(n, dtype=complex))
    sign = np.ones(n)
    piv_max = np.zeros(n)
    piv_min = np.full(n, np.inf)
    idx = np.arange(n)
    parts = ("re_hi", "re_lo", "im_hi", "im_lo")
    for k in range(m):
        mags = a[idx[:, None], np.arange(k, m)[None, :], k].abs_hi()
        rel = np.argmax(mags, axis=1) + k
        swap = np.flatnonzero(rel != k)
        if swap.size:
            r = rel[swap]
            for part in parts:
                arr = getattr(a, part)
                tmp = arr[swap, k, :].copy()
                arr[swap, k, :] = arr[swap, r, :]
                arr[swap, r, :] = tmp
            sign[swap] = -sign[swap]
        piv = a[:, k, k]
        ap = piv.abs_hi()
        piv_max = np.maximum(piv_max, ap)
        piv_min = np.minimum(piv_min, ap)
        det = det * piv
        if k < m - 1:
            safe = ap > 0
            piv_safe = DDComplexArray(np.where(safe, piv.re_hi, 1.0), np.where(safe, piv.re_lo, 0.0),
                                      np.where(safe, piv.im_hi, 0.0), np.where(safe, piv.im_lo, 0.0))
            below = a[:, k + 1:, k]
            factor = below / DDComplexArray(*(
                np.broadcast_to(getattr(piv_safe, p)[:, None], below.shape).copy() for p in parts))
            factor = DDComplexArray(*(np.where(safe[:, None], getattr(factor, p), 0.0)
                                      for p in parts))
            fexp = DDComplexArray(*(np.broadcast_to(getattr(factor, p)[:, :, None],
                                                    (n, m - k - 1, m - k)).copy() for p in parts))
            prow = a[:, k, k:]
            pexp = DDComplexArray(*(np.broadcast_to(getattr(prow, p)[:, None, :],
                                                    (n, m - k - 1, m - k)).copy() for p in parts))
            a[:, k + 1:, k:] = a[:, k + 1:, k:] - fexp * pexp
    det = det * DDComplexArray(sign, np.zeros(n), np.zeros(n), np.zeros(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(piv_min > 0, piv_max / piv_min, np.inf)
    return (DDComplexArray(*(getattr(det, p).reshape(lead) for p in parts)),
            ratio.reshape(lead))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_dd_batched_det_bit_identical_to_batch_first_reference(m):
    rng = np.random.default_rng(m)
    hi = rng.standard_normal((12, 5, m, m)) + 1j * rng.standard_normal((12, 5, m, m))
    hi[0, :, 1, 0] = hi[0, :, 0, 0]                 # exact pivot-magnitude ties
    hi[1, :, 1, 0] = 1j * hi[1, :, 0, 0]
    hi[2, :, :, 0] = 0                              # zero pivot in the first column
    hi[3, :, 1] = hi[3, :, 0]                       # singular: tiny pivot later on
    hi[4] = np.round(hi[4])                         # many ties among small integers
    hi[5, :, m - 1] = 0                             # a zero row
    lo = 1e-17 * (rng.standard_normal(hi.shape) + 1j * rng.standard_normal(hi.shape))
    lo[hi == 0] = 0
    hi[6, :, :, 0] = 0                              # a column of low words only
    mat = DDComplexArray(hi.real.copy(), lo.real.copy(), hi.imag.copy(), lo.imag.copy())
    parts = ("re_hi", "re_lo", "im_hi", "im_lo")
    keep = {part: getattr(mat, part).copy() for part in parts}
    d, r = dd_batched_det(mat)
    d_ref, r_ref = batch_first_dd_batched_det(mat)
    assert d.shape == r.shape == (12, 5)
    for part in parts:
        assert getattr(d, part).tobytes() == getattr(d_ref, part).tobytes()
        assert np.array_equal(getattr(mat, part), keep[part])
    assert r.tobytes() == r_ref.tobytes()
    assert np.isinf(r[2]).all() and np.isinf(r[5]).all() and np.isinf(r[6]).all()
    assert (r[3] > 1e12).all()
    # matrix-first, as the engine stores its stacks: eliminated in place
    first = mat.map(lambda part: np.ascontiguousarray(np.moveaxis(part, (-2, -1), (0, 1))))
    d, r = dd_batched_det(first.map(lambda part: np.moveaxis(part, (0, 1), (-2, -1))))
    for part in parts:
        assert getattr(d, part).tobytes() == getattr(d_ref, part).tobytes()
    assert r.tobytes() == r_ref.tobytes()
    assert not np.array_equal(first.re_hi, np.moveaxis(keep["re_hi"], (-2, -1), (0, 1)))


def test_pow10_table_is_the_double_double_rounding_of_each_power():
    # the array formatter's error bound assumes it: (hi, lo) of 10^p / 2^k
    # rounded once each, whatever integer arithmetic built them
    hi, lo, k = printing._pow10_table()
    assert hi.size == 16 - printing._E_MIN + 2 - printing._P_MIN
    for i, p in enumerate(range(printing._P_MIN, printing._P_MIN + hi.size)):
        exact = Fraction(10) ** p / Fraction(2) ** int(k[i])
        assert 1 <= exact < 2
        assert (hi[i], lo[i]) == (float(exact), float(exact - Fraction(hi[i]))), p
