"""Transformation-engine tests: one-fold, n-fold, reduction, degeneration."""
import inspect
from dataclasses import dataclass

import numpy as np
import pytest

import kundu_dnls as kd
from kundu_dnls import catalog
from kundu_dnls.darboux import (EXACT_LIMIT_RADIUS, DegenerationSpec, SpectralSet,
                                _scaled_weights, build_reduced_set, degenerate_limit,
                                exact_limit, finite_radius, n_fold)
from kundu_dnls.lax import SpectralDatum, make_plane_wave_seed, zero_seed

import mp_reference
import precision_table
from oracles import one_fold


SEED0 = zero_seed()
SEEDP = make_plane_wave_seed(-2.0, 1.0, 1.0)


def grid_pts(n=60, lo=-3.0, hi=3.0, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (n, 2))


# ---------------------------------------------------------------------------
# one-fold
# ---------------------------------------------------------------------------

def test_one_fold_matches_catalog_soliton():
    out = one_fold(build_reduced_set([1 + 2j], SEED0), SEED0)
    cat = catalog.one_soliton(1, 2)
    g = kd.Grid2D(-3, 3, -2, 2, 101, 101)
    err, _ = kd.compare_fields(kd.sample(out.Q, g), kd.sample(cat.eval, g))
    assert err <= 1e-9


def test_one_fold_element_identity_a2_d2():
    # d2 is defined as 1/a2, so a2*d2 = 1 identically; with a conjugate pair
    # |a2| stays on the unit circle
    sset = build_reduced_set([1 + 2j], SEED0)
    d1, d2 = sset.unreduced().data
    for x, t in grid_pts(20):
        p1, v1 = d1.phi(x, t), d1.varphi(x, t)
        p2, v2 = d2.phi(x, t), d2.varphi(x, t)
        a2 = (v1 * p2 * d1.lam - p1 * v2 * d2.lam) / (p1 * v2 * d1.lam - v1 * p2 * d2.lam)
        assert abs(a2 * (1 / a2) - 1) < 1e-14
        assert abs(abs(a2) - 1) < 1e-10


def test_one_fold_coalesced_pair_gives_trivial_action():
    # with lambda1 = lambda2 the exactly vanishing lambda^2-difference factor
    # kills b1 and c1, leaving the diagonal action (d2/a2) Q = 0 on the zero
    # seed (independent component data keep the diagonal elements defined)
    lam = 1 + 2j
    base = kd.zero_seed_eigenfunction(lam)
    d1 = SpectralDatum(lam, base.phi, base.varphi)
    d2 = SpectralDatum(lam,
                       lambda x, t: 2.0 * base.phi(x, t),
                       lambda x, t: 5.0 * base.varphi(x, t))
    out = one_fold(SpectralSet([d1, d2], reduction=False), SEED0)
    assert abs(out.Q(0.37, -0.7)) == 0.0


def test_reduced_set_rejects_equal_eigenvalues():
    d1 = kd.zero_seed_eigenfunction(1 + 2j)
    with pytest.raises(ValueError):
        SpectralSet([d1, kd.zero_seed_eigenfunction(1 + 2j)], reduction=True)


def _synthetic_pole_set():
    """Fabricated non-reduced order-1 data whose main determinant vanishes
    identically, so the origin is a transformation pole."""
    return SpectralSet([
        SpectralDatum(2.0 + 0j, lambda x, t: np.ones_like(x + t + 0j),
                      lambda x, t: np.ones_like(x + t + 0j)),
        SpectralDatum(1.0 + 0j, lambda x, t: np.ones_like(x + t + 0j),
                      lambda x, t: 2.0 * np.ones_like(x + t + 0j))])


def test_one_fold_pole_gives_nan_at_denominator_zero():
    q, _, ratio = one_fold(_synthetic_pole_set(), SEED0).evaluate(0.0, 0.0)
    assert np.isnan(q) and ratio == np.inf


# ---------------------------------------------------------------------------
# n-fold
# ---------------------------------------------------------------------------

def test_n_fold_order_one_agrees_with_one_fold():
    sset = build_reduced_set([1 + 2j], SEED0)
    a = one_fold(sset, SEED0)
    b = n_fold(sset, SEED0)
    for x, t in grid_pts(40):
        qa, qb = complex(a.Q(x, t)), complex(b.Q(x, t))
        assert abs(qa - qb) <= 1e-10 * max(1.0, abs(qa))


def test_n_fold_two_pairs_matches_catalog():
    out = n_fold(build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], SEED0), SEED0)
    cat = catalog.two_soliton(0.7, 0.3, 0.5, 0.5)
    g = kd.Grid2D(-10, 10, -10, 10, 201, 201)
    Ie = np.abs(kd.sample(out.Q, g).values) ** 2
    Ic = np.abs(kd.sample(cat.eval, g).values) ** 2
    mask = Ic > 0.01
    # criterion 3 asks for 1e-6; the two agree to 3.7e-14, and the bound
    # holds the catalog's conjugate-pair shortcuts to that agreement
    assert np.max(np.abs(Ie - Ic)[mask] / Ic[mask]) <= 1e-12


def test_n_fold_breather_matches_catalog():
    # the fixed breather instance encodes the eigenvalue 0.5 + 0.5i
    out = n_fold(build_reduced_set([0.5 + 0.5j], SEEDP), SEEDP)
    cat = catalog.breather()
    g = kd.Grid2D(-5, 5, -5, 5, 101, 101)
    Ie = np.abs(kd.sample(out.Q, g).values) ** 2
    Ic = np.abs(kd.sample(cat.eval, g).values) ** 2
    assert np.max(np.abs(Ie - Ic) / np.maximum(np.abs(Ic), 1e-9)) <= 1e-5


def test_gauge_covariance_under_common_rescaling():
    base = build_reduced_set([1 + 2j, 0.6 + 0.8j], SEED0)
    scaled = build_reduced_set([1 + 2j, 0.6 + 0.8j], SEED0)
    scale = -1.7 + 0.9j
    for datum in scaled.data:
        p, v = datum.phi, datum.varphi
        datum.phi = (lambda f: lambda x, t: scale * f(x, t))(p)
        datum.varphi = (lambda f: lambda x, t: scale * f(x, t))(v)
    qa, qb = n_fold(base, SEED0).Q, n_fold(scaled, SEED0).Q
    for x, t in grid_pts(30):
        va, vb = complex(qa(x, t)), complex(qb(x, t))
        assert abs(va - vb) <= 1e-10 * max(1.0, abs(va))


def general(sset):
    """The same transformation as a general set: every partner is listed,
    and all four determinants are eliminated from every datum's own
    closures."""
    return sset.unreduced()


def test_reduction_symmetry_companion_field():
    # the reduced path derives its swapped determinants by conjugation, so R
    # comes from the general path, whose determinants are eliminated apart
    pts = grid_pts(100, -5, 5, seed=23)
    X, T = pts[:, 0], pts[:, 1]
    sset = build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], SEED0)
    q, r = n_fold(sset, SEED0).Q(X, T), n_fold(general(sset), SEED0).R(X, T)
    assert np.max(np.abs(r + np.conj(q))) <= 1e-8

    ssetp = build_reduced_set([0.5 + 0.5j], SEEDP)
    qp, rp = n_fold(ssetp, SEEDP).Q(X, T), n_fold(general(ssetp), SEEDP).R(X, T)
    assert np.max(np.abs(rp + np.conj(qp))) <= 1e-8


def test_reduced_r_is_exactly_minus_conj_q():
    # a reduced set's R is -conj(Q) bit for bit, through the n = 1 average
    # of `finite_radius`, and in the exact limit
    X, T = grid_pts(8, -2, 2, seed=3).T
    sset = build_reduced_set([0.5 + 0.5j, 0.4 + 0.9j], SEEDP)
    spec = DegenerationSpec(lambda_c=1 + 1j, epsilon=1e-3, n=1)
    for out in (n_fold(sset, SEEDP), finite_radius(spec, SEEDP),
                exact_limit(DegenerationSpec(1 + 1j, 1e-3, 3), SEEDP)):
        q, r, _ = out.evaluate(X, T)
        assert np.all(np.isfinite(q))
        assert r.tobytes() == (-np.conj(q)).tobytes()


def _coalescing(lam_c, eps, n):
    return [lam_c * (1 + eps * np.exp(2j * np.pi * k / n)) for k in range(n)]


@pytest.mark.parametrize("seed, lams", [
    (SEED0, [1 + 2j]),
    (SEED0, [0.7 + 0.3j, 0.5 + 0.5j]),
    (SEED0, [0.7 + 0.3j, 0.5 + 0.5j, 0.4 + 0.9j]),
    (SEED0, _coalescing(0.8 + 0.8j, 2e-3, 2)),
    (SEED0, _coalescing(0.8 + 0.8j, 2e-3, 3)),
    (SEEDP, [0.5 + 0.5j]),
    (SEEDP, [0.5 + 0.5j, 0.4 + 0.9j]),
    (SEEDP, [0.5 + 0.5j, 0.4 + 0.9j, 0.8 + 0.6j]),
    (SEEDP, _coalescing(1 + 1j, 2e-3, 2)),
    (SEEDP, _coalescing(1 + 1j, 2e-3, 3)),
])
def test_reduced_path_matches_general_path(seed, lams):
    sset = build_reduced_set(lams, seed)
    X, T = grid_pts(200, -4, 4, seed=5).T
    q, r, cond = n_fold(sset, seed).evaluate(X, T)
    qg, rg, condg = n_fold(general(sset), seed).evaluate(X, T)
    assert np.all(np.isfinite(qg))
    assert general(sset).order == sset.order == len(lams)
    assert np.max(np.abs(q - qg)) <= 1e-12 * np.max(np.abs(qg))
    assert np.max(np.abs(r - rg)) <= 1e-12 * np.max(np.abs(rg))
    assert np.array_equal(cond, condg)


def test_reduced_path_evaluates_representatives_once(monkeypatch):
    import kundu_dnls.darboux as dx
    from kundu_dnls.numerics import grid as grid_mod
    sset = build_reduced_set([0.5 + 0.5j, 0.4 + 0.9j, 0.8 + 0.6j], SEEDP)
    calls = {"components": 0, "stacks": 0}

    def counted(f):
        def g(x, t):
            calls["components"] += 1
            return f(x, t)
        return g
    assert len(sset.data) == 3          # a reduced set holds its representatives only
    for d in sset.data:
        d.phi, d.varphi = counted(d.phi), counted(d.varphi)
    real_det = dx.batched_det

    def counted_det(mats):
        calls["stacks"] += 1
        return real_det(mats)
    monkeypatch.setattr(dx, "batched_det", counted_det)
    X, T = grid_pts(50).T
    n_fold(sset, SEEDP).Q(X, T)
    # one phi and one varphi per representative, one stack per determinant
    # pair and only the main pair on a reduced set
    assert calls == {"components": 6, "stacks": 1}
    calls.update(components=0, stacks=0)
    n_fold(general(sset), SEEDP).Q(X, T)
    # the partners wrap their representative's counted closures
    assert calls == {"components": 12, "stacks": 2}
    # once per representative per block, counted on one thread
    calls.update(components=0, stacks=0)
    monkeypatch.setattr(grid_mod, "_BLOCK_NODES", 6)
    monkeypatch.setattr(grid_mod, "_workers", lambda: 1)
    kd.sample(n_fold(sset, SEEDP).Q, kd.Grid2D(-1, 1, -1, 1, 3, 5))     # three blocks of one row
    assert calls == {"components": 6 * 3, "stacks": 3}


def test_engine_eliminates_each_stack_in_place(monkeypatch):
    # every stack is built afresh and read once, so it is eliminated as it
    # is stored, with no copy: the elimination residue shows in the stack
    import kundu_dnls.darboux as dx
    real_det, overwritten = dx.batched_det, []

    def spy(mats):
        before = mats.copy()
        out = real_det(mats)
        overwritten.append(not np.array_equal(mats, before))
        return out
    monkeypatch.setattr(dx, "batched_det", spy)
    sset = build_reduced_set([0.5 + 0.5j, 0.4 + 0.9j], SEEDP)
    X, T = grid_pts(30).T
    for s in (sset, general(sset)):
        n_fold(s, SEEDP).Q(X, T)
    n_fold(build_reduced_set([0.5 + 0.5j], SEEDP), SEEDP).Q(X, T)
    assert overwritten == [True] * 4


def _wrapped_eigenfunction(make):
    """`make` with the datum's components replaced by plain callables, as an
    instrumenting caller does after construction."""
    def wrapped(*args, **kwargs):
        datum = make(*args, **kwargs)
        phi, varphi = datum.phi, datum.varphi
        datum.phi = lambda x, t: phi(x, t)
        datum.varphi = lambda x, t: varphi(x, t)
        return datum
    return wrapped


def test_wrapped_components_give_the_same_field(monkeypatch):
    import kundu_dnls.darboux as dx
    X, T = grid_pts(40).T
    lams = [0.5 + 0.5j, 0.4 + 0.9j]
    plain = build_reduced_set(lams, SEEDP)
    spec = DegenerationSpec(lambda_c=1 + 1j, epsilon=1e-3, n=1)
    plain_radius = finite_radius(spec, SEEDP).Q(X, T)
    monkeypatch.setattr(dx, "plane_wave_eigenfunction",
                        _wrapped_eigenfunction(dx.plane_wave_eigenfunction))
    wrapped = build_reduced_set(lams, SEEDP)
    # the unreduced set lists each eigenvalue followed by its conjugate
    assert [d.lam for d in general(wrapped).data] == [
        e for lam in lams for e in (lam, np.conj(lam))]
    for a, b in ((plain, wrapped), (general(plain), general(wrapped))):
        assert np.array_equal(n_fold(a, SEEDP).Q(X, T), n_fold(b, SEEDP).Q(X, T))
    assert np.array_equal(finite_radius(spec, SEEDP).Q(X, T), plain_radius)


def _benchmark_tracing():
    """The benchmark's tracer module, loaded by path."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_records_double_and_exact_fields():
    # the benchmark's tracer replaces components after construction; run one
    # double n-fold field and one exact limit under it.  The exact limit's
    # rows are Taylor coefficients, not components, and its one stack is
    # eliminated by `batched_det`
    import kundu_dnls.darboux as dx
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    X, T = np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 2), indexing="ij")
    inst.install()
    tracer.active = True
    try:
        q = dx.n_fold(dx.build_reduced_set([0.5 + 0.5j], SEEDP), SEEDP).Q(X, T)
        exact = dx.degenerate_limit(dx.DegenerationSpec(1 + 1j, 1e-5, 3), SEEDP)
        qe = exact.Q(X, T)
    finally:
        tracer.active = False
        inst.uninstall()
    assert exact.precision == "exact"
    assert np.all(np.isfinite(q)) and np.all(np.isfinite(qe))
    spans = tracer.spans
    names = {span[tracing.NAME] for span in spans}
    assert "lax.mp_components" not in names
    roots = [i for i, span in enumerate(spans) if span[tracing.NAME] == "darboux.q"]
    assert len(roots) == 2
    for root, components in zip(roots, (2, 0)):
        under = [span[tracing.NAME] for span in spans if span[tracing.PARENT] == root]
        assert under.count("numerics.determinant.batched_det") == 1
        assert under.count("lax.components") == components
    metrics = tracing.layer_metrics(spans, tracer.fallback_nodes, 1)
    assert metrics["darboux.extended_nodes"] == 0
    assert metrics["numerics.determinant.matrices"] == 2 * X.size


def test_benchmark_tracer_sees_each_elimination_of_a_general_set():
    # the tracer wraps the elimination entries by module name and each datum's
    # components; a reduced block eliminates one stack and a general block two,
    # and tracing changes no bit of the field
    import kundu_dnls.darboux as dx
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    X, T = np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 2), indexing="ij")

    def fields():
        reduced = dx.build_reduced_set([0.5 + 0.5j, 0.4 + 0.9j], SEEDP)
        return [dx.n_fold(s, SEEDP).Q(X, T) for s in (reduced, general(reduced))]
    plain = fields()
    inst.install()
    tracer.active = True
    try:
        traced = fields()
    finally:
        tracer.active = False
        inst.uninstall()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain, traced))
    spans = tracer.spans
    roots = [i for i, span in enumerate(spans) if span[tracing.NAME] == "darboux.q"]

    def under(root, name):
        return sum(1 for span in spans
                   if span[tracing.NAME] == name and span[tracing.PARENT] == root)
    assert [under(r, "numerics.determinant.batched_det") for r in roots] == [1, 2]
    # per datum, phi and varphi; a partner's components call its
    # representative's
    assert [under(r, "lax.components") for r in roots] == [4, 8]


def test_benchmark_tracer_times_the_catalog_determinant():
    # the tracer wraps `batched_det` on the catalog by name, which binds the
    # catalog's own 4 x 5 expansion; a traced positon still records it
    from kundu_dnls.numerics import grid as grid_mod
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    g = kd.Grid2D(-3, 3, -3, 3, 40, 30)
    plain = kd.sample(catalog.positon(0.8, 0.8).eval, g).values
    inst.install()
    tracer.active = True
    try:
        traced = grid_mod.sample(catalog.positon(0.8, 0.8).eval, g).values
    finally:
        tracer.active = False
        inst.uninstall()
    assert np.array_equal(traced, plain)
    shapes = [span[tracing.ATTRS]["shape"] for span in tracer.spans
              if span[tracing.NAME] == "numerics.determinant.batched_det"]
    # one block: one stack gives swapped and swapped-shifted; main is
    # conj(swapped)
    assert shapes == [(40, 30, 4, 5)]
    metrics = tracing.layer_metrics(tracer.spans, tracer.fallback_nodes, 1)
    assert metrics["numerics.determinant.matrices"] == g.nx * g.nt


def test_benchmark_tracer_counts_exactly_over_sampling_blocks(monkeypatch):
    # a sampled field is evaluated one block of rows at a time; the per-node
    # counters must still add up over the blocks.  The tracer's wrappers keep
    # one span stack and are not marked thread-safe, so sample evaluates a
    # traced field on the calling thread alone, whatever the thread count
    import kundu_dnls.darboux as dx
    from kundu_dnls.numerics import grid as grid_mod
    tracing = _benchmark_tracing()
    g = kd.Grid2D(-3, 3, -3, 3, 70, 601)          # blocks of 27 rows: 27, 27, 16
    for workers in (1, 2):
        monkeypatch.setattr(grid_mod, "_workers", lambda w=workers: w)
        tracer = tracing.Tracer()
        inst = tracing.Instrumentation(tracer)
        inst.install()
        tracer.active = True
        try:
            out = dx.n_fold(dx.build_reduced_set([0.5 + 0.5j, 0.4 + 0.9j], SEEDP), SEEDP)
            fld = grid_mod.sample(out.Q, g)
        finally:
            tracer.active = False
            inst.uninstall()
        assert not fld.invalid.any() and fld.workers == 1
        q_spans = [s for s in tracer.spans if s[tracing.NAME] == "darboux.q"]
        assert [s[tracing.ATTRS]["nodes"] for s in q_spans] == [27 * 601, 27 * 601, 16 * 601]
        metrics = tracing.layer_metrics(tracer.spans, tracer.fallback_nodes, 1)
        assert metrics["darboux.dets_per_node"] == 1
        assert metrics["numerics.determinant.matrices"] == 70 * 601
        assert metrics["numerics.grid.scalar_fallback_nodes"] == 0


def test_reduced_set_rejects_unpaired_eigenvalues():
    # the representatives and their conjugates must be 2n distinct
    # eigenvalues: an equal, a conjugate or a real representative fails
    d1 = kd.zero_seed_eigenfunction(1 + 2j)
    d2 = kd.zero_seed_eigenfunction(1 + 2.5j)
    for data in ([d1, kd.zero_seed_eigenfunction(1 + 2j)],
                 [d1, d2, d1.conjugate_partner()],
                 [d2, kd.zero_seed_eigenfunction(0.8 + 0j)]):
        with pytest.raises(ValueError):
            SpectralSet(data, reduction=True)
    SpectralSet([d1, d1.conjugate_partner()], reduction=False)
    assert SpectralSet([d1, d2], reduction=True).order == 2
    assert SpectralSet([d1, d2], reduction=False).order == 1
    with pytest.raises(ValueError):
        SpectralSet([d1, d2, d1.conjugate_partner()], reduction=False)   # odd length


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("seed", [SEED0, SEEDP], ids=["zero", "planewave"])
def test_non_finite_eigenvalues_are_rejected(seed, value):
    # each would give a field that is NaN at every node
    for lam in (complex(value, 0.5), complex(0.5, value)):
        with pytest.raises(ValueError, match=r"^eigenvalue must be finite"):
            build_reduced_set([lam], seed)
    d1 = kd.zero_seed_eigenfunction(1 + 2j)
    with pytest.raises(ValueError, match=r"^eigenvalue must be finite"):
        SpectralSet([SpectralDatum(complex(value, 2.0), d1.phi, d1.varphi)], reduction=True)
    with pytest.raises(ValueError, match=r"^lambda_c must be finite"):
        DegenerationSpec(lambda_c=complex(value, 1.0), epsilon=1e-2, n=2)


@pytest.mark.parametrize("name", ["S0", "S1", "S2"])
def test_zero_seed_refuses_a_split_phase(name):
    # the phase weights a plane wave's two basis solutions; the zero seed
    # has one, and would return the unsplit field
    spec = DegenerationSpec(lambda_c=0.8 + 0.8j, epsilon=1e-2, n=2, **{name: 5.0})
    with pytest.raises(ValueError, match=r"^the zero seed ignores the split phase S0, S1, S2"):
        degenerate_limit(spec, SEED0)
    degenerate_limit(spec, SEEDP)


@pytest.mark.parametrize("weights", [(5.0, -3j), (1.0, 2.0), (2.0, 2.0)])
def test_zero_seed_refuses_branch_weights(weights):
    with pytest.raises(ValueError, match=r"^the zero seed ignores branch weights"):
        build_reduced_set([1 + 2j, 0.5 + 0.5j], SEED0, weights_per_lambda=[(1, 1), weights])
    build_reduced_set([1 + 2j, 0.5 + 0.5j], SEED0, weights_per_lambda=[(1, 1), (1.0, 1 + 0j)])


def test_plane_wave_refuses_zero_branch_weights():
    with pytest.raises(ValueError, match=r"^branch weights \(0, 0\) are both zero"):
        build_reduced_set([0.5 + 0.5j], SEEDP, weights_per_lambda=[(0, 0)])
    # one zero weight picks one branch, as criterion 7 does
    for w in ((1, 0), (0, 1)):
        out = n_fold(build_reduced_set([0.5 + 0.5j], SEEDP, weights_per_lambda=[w]), SEEDP)
        assert np.isfinite(out.Q(0.3, -0.4))


@pytest.mark.parametrize("weights, name", [((np.nan, 1), "D1"), ((np.inf, 1), "D1"),
                                           ((1, complex(2, -np.inf)), "D2")])
def test_plane_wave_refuses_non_finite_branch_weights(weights, name):
    # a NaN weight gave a field without one finite node and no error; an
    # infinite one, numpy's invalid-value warning
    with pytest.raises(ValueError, match=rf"^branch weight {name} must be finite"):
        build_reduced_set([1 + 2j, 0.5 + 0.5j], SEEDP, weights_per_lambda=[(1, 1), weights])


def test_plane_wave_refuses_a_vanishing_eigenfunction():
    # at the critical eigenvalue both prefactors vanish, so unequal weights
    # give an all-zero eigenfunction too; equal ones stay the near-branch check's
    with pytest.raises(ValueError, match=r"^both prefactors u-\+ vanish at lambda \(1\+1j\)"):
        build_reduced_set([1 + 1j], SEEDP, weights_per_lambda=[(1, 2)])
    with pytest.raises(ValueError, match=r"^branch quantity vanishes at lambda \(1\+1j\)"):
        build_reduced_set([1 + 1j], SEEDP)


def test_branch_weights_scale_by_a_power_of_two():
    assert _scaled_weights((1.5, -0.25j)) == (1.5, -0.25j)
    assert _scaled_weights((0, 0)) == (0, 0)
    assert _scaled_weights((4.0, 8j)) == (0.5, 1j)
    # |w| overflows, its half does not
    w = _scaled_weights((1.5e308 + 1.5e308j, 2.0))
    assert 1 <= max(map(abs, w)) < 2 and w[1] == 2.0 ** -1023


@pytest.mark.parametrize("lams, weight", [([0.5 + 0.5j, 0.7 + 0.9j, 0.3 + 1.2j], 1e40),
                                          ([0.5 + 0.5j], 1e80)], ids=["n3-1e40", "n1-1e80"])
def test_large_branch_weights_keep_the_field(lams, weight):
    # a factor common to both weights cancels from Q; unscaled, the products
    # in the determinants overflowed and every node was NaN, with no warning
    X, T = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9), indexing="ij")
    sset = build_reduced_set(lams, SEEDP, weights_per_lambda=[(weight, weight)] * len(lams))
    q = n_fold(sset, SEEDP).Q(X, T)
    ref = n_fold(build_reduced_set(lams, SEEDP), SEEDP).Q(X, T)
    assert np.isfinite(ref).all()
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_zero_amplitude_plane_wave_is_the_zero_seed():
    # one seed type: the plane wave at a = c = 0 is the zero background,
    # whose transformed fields it gives bit for bit
    plane, zero = make_plane_wave_seed(0.0, 0.0), zero_seed()
    X, T = np.meshgrid(np.linspace(-3, 3, 13), np.linspace(-2, 2, 9), indexing="ij")
    lams = [1 + 2j, 0.7 + 0.3j, 0.5 + 0.5j]
    fields = [(n_fold(build_reduced_set(lams[:n], plane), plane).Q(X, T),
               n_fold(build_reduced_set(lams[:n], zero), zero).Q(X, T)) for n in (1, 2, 3)]
    spec = DegenerationSpec(0.8 + 0.8j, 1e-3, 2)
    fields.append((degenerate_limit(spec, plane).Q(X, T), degenerate_limit(spec, zero).Q(X, T)))
    for q_plane, q_zero in fields:
        assert np.isfinite(q_zero).all() and q_plane.tobytes() == q_zero.tobytes()


def test_every_constructed_reduced_set_passes():
    # both seeds, complex weights and the split-phase degenerate sets of the
    # mapped figures
    build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j, 0.4 + 0.9j], SEED0)
    build_reduced_set([0.5 + 0.5j, 0.4 + 0.9j], SEEDP,
                      weights_per_lambda=[(1.0, 2.0 - 1j), (0.3j, 1.5)])
    for n, eps, (S0, S1, S2) in ((2, 2e-3, (0, 500, 0)), (3, 4e-3, (0, 500, 0)),
                                 (3, 4e-3, (0, 0, 1000)), (1, 1e-4, (0, 0, 0))):
        spec = DegenerationSpec(1 + 1j, eps, n, S0=S0, S1=S1, S2=S2)
        degenerate_limit(spec, SEEDP)


@dataclass(frozen=True)
class _NanSeed:
    """A zero background whose value is not finite at the origin."""

    alpha: float = 1.0

    def value(self, x, t):
        return np.where((np.asarray(x) == 0) & (np.asarray(t) == 0), np.nan, 0.0) + 0j

    def theta(self, x, t):
        return x + t


def test_evaluate_masks_flagged_points(monkeypatch):
    # what the CLI reads: NaN where the main determinant vanishes (pivot
    # ratio inf), where the ratio exceeds the bound and where the seed is
    # not finite; every other node is Q's own value
    q, _, ratio = n_fold(_synthetic_pole_set(), SEED0).evaluate(0.0, 0.0)
    assert ratio == np.inf and np.isnan(q)

    sset = build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], SEED0)
    with monkeypatch.context() as m:
        m.setattr(kd.darboux, "DEFAULT_CONDITION_BOUND", 1.0)   # read when called
        q, _, ratio = n_fold(sset, SEED0).evaluate(0.3, 0.2)
        assert ratio > 1.0 and np.isnan(q)
        assert np.isnan(n_fold(sset, SEED0).Q(0.3, 0.2))
    q, _, ratio = n_fold(sset, _NanSeed()).evaluate(0.0, 0.0)
    assert ratio <= kd.darboux.DEFAULT_CONDITION_BOUND and np.isnan(q)

    out = n_fold(sset, SEED0)
    X, T = grid_pts(20).T
    q, _, ratio = out.evaluate(X, T)
    assert np.all(np.isfinite(q)) and np.all(ratio <= kd.darboux.DEFAULT_CONDITION_BOUND)
    assert q.tobytes() == out.Q(X, T).tobytes()


def test_n_fold_rejects_unsupported_order():
    lams = [1 + 2j, 0.6 + 0.8j, 0.4 + 0.9j, 1.5 + 0.5j]
    sset = build_reduced_set(lams, SEED0)
    with pytest.raises(ValueError):
        n_fold(sset, SEED0)


@pytest.mark.parametrize("entry, params", [
    pytest.param(n_fold, ["spectral_set", "seed"], id="n_fold"),
    pytest.param(finite_radius, ["spec", "seed"], id="finite_radius"),
    pytest.param(exact_limit, ["spec", "seed"], id="exact_limit"),
    pytest.param(degenerate_limit, ["spec", "seed"], id="degenerate_limit")])
def test_engine_entry_takes_no_precision(entry, params):
    # the engine evaluates in double only: no entry selects a precision
    assert list(inspect.signature(entry).parameters) == params


@pytest.mark.parametrize("layout", ["reduced", "general"])
def test_n_fold_agrees_with_a_per_node_mpmath_reference(layout):
    # a two-fold field on the zero seed against 40-digit mpmath determinants,
    # node by node (measured 1.3e-14); a general listing of the reduced set
    # has the same matrices, so the reduced set's reference serves both
    sset = build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], SEED0)
    X, T = grid_pts(6, -2, 2).T
    q = n_fold(sset if layout == "reduced" else general(sset), SEED0).Q(X, T)
    for x, t, got in zip(X, T, q):
        assert got == pytest.approx(mp_reference.n_fold_q(sset, SEED0, x, t), rel=1e-13)


@pytest.mark.parametrize("layout", ["reduced", "general"])
def test_n_fold_masks_overflowing_components(layout):
    # phi overflows double's range at x = 1e4 (its exponent is about 1050
    # there): the node is NaN, and no RuntimeWarning escapes (pyproject
    # turns them into errors)
    sset = build_reduced_set([0.7 + 0.3j, 0.5 + 0.5j], SEED0)
    out = n_fold(sset if layout == "reduced" else general(sset), SEED0)
    q = out.Q(np.array([0.3, 1e4]), np.zeros(2))
    assert np.isfinite(q[0]) and np.isnan(q[1])


# double's rounding error at each order's radius, relative to max |Q| on the
# 3 x 3 window below: measured 1.0e-13, 2.1e-11 and 1.2e-10, times 10
_ROUNDING_AT_RADIUS = {1: 1e-12, 2: 2e-10, 3: 1.2e-9}


@pytest.mark.parametrize("phase", [{}, {"S1": 50.0, "S2": 2e3}], ids=["unsplit", "split"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_finite_radius_matches_a_per_node_mpmath_reference(n, phase):
    # the vectorized double field against 40-digit mpmath determinants, node
    # by node, from the order's radius up, where `degenerate_limit` runs it:
    # the rounding error falls as eps^-(n-1) away from the radius
    xs, ts = np.linspace(-2, 2, 3)[:, None], np.linspace(-1.5, 1.5, 3)[None, :]
    radius = EXACT_LIMIT_RADIUS[n]
    for eps in (radius, 10 * radius, min(100 * radius, 0.1)):
        spec = DegenerationSpec(1 + 1j, eps, n, **phase)
        want = mp_reference.finite_radius_q(spec, SEEDP, xs, ts)
        got = finite_radius(spec, SEEDP).Q(xs, ts)
        bound = _ROUNDING_AT_RADIUS[n] * (radius / eps) ** (n - 1)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), eps


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degenerate_limit_gives_the_bits_of_the_path_its_radius_picks(n):
    # below the order's radius the exact limit's field, at and above it the
    # finite radius's, bit for bit
    X, T = grid_pts(8, -2, 2, seed=5).T
    radius = EXACT_LIMIT_RADIUS[n]
    for eps, build in ((0.5 * radius, exact_limit), (radius, finite_radius),
                       (2 * radius, finite_radius)):
        spec = DegenerationSpec(1 + 1j, eps, n)
        want = build(spec, SEEDP).Q(X, T)
        assert np.all(np.isfinite(want))
        assert np.array_equal(degenerate_limit(spec, SEEDP).Q(X, T), want), eps


def test_condition_estimate_grows_toward_degeneracy():
    seed = SEED0
    lam = 0.8 + 0.8j
    conds = []
    for eps in (1e-1, 1e-3):
        sset = build_reduced_set([lam * (1 + eps), lam * (1 - eps)], seed)
        conds.append(float(n_fold(sset, seed).evaluate(0.3, 0.2)[2]))
    assert conds[1] > 50 * conds[0]


# ---------------------------------------------------------------------------
# degeneration
# ---------------------------------------------------------------------------

def test_engine_output_solves_field_equation():
    # the master correctness property: transformed fields are solutions,
    # checked directly on the engine closure (not through the catalog)
    from kundu_dnls.verify import ConventionVariant, pde_residual
    out = n_fold(build_reduced_set([0.5 + 0.5j], SEEDP), SEEDP)
    rep = pde_residual(out.Q, SEEDP, ConventionVariant(1, "independent"),
                       kd.Grid2D(-3, 3, -2, 2, 121, 121), refinements=2)
    assert 1.7 <= rep.estimated_order <= 2.3

    out0 = n_fold(build_reduced_set([1 + 2j], SEED0), SEED0)
    rep0 = pde_residual(out0.Q, SEED0, ConventionVariant(1, "independent"),
                        kd.Grid2D(-2, 2, -1, 1, 121, 121), refinements=2)
    assert 1.7 <= rep0.estimated_order <= 2.3


def test_degeneration_spec_validation():
    with pytest.raises(ValueError):
        DegenerationSpec(1 + 1j, 0.5, 1)       # radius out of range
    with pytest.raises(ValueError):
        DegenerationSpec(1 + 1j, 1e-2, 4)      # unsupported order


def test_positon_family_converges_and_is_monotone():
    ref = kd.sample(catalog.positon(0.8, 0.8).eval, kd.Grid2D(-10, 10, -10, 10, 41, 41))

    def family(eps):
        spec = DegenerationSpec(lambda_c=0.8 + 0.8j, epsilon=eps, n=2)
        return kd.sample(degenerate_limit(spec, SEED0).Q, ref.grid)

    rows, monotone = kd.convergence_study(family, ref, [1e-1, 1e-2])
    assert monotone and rows[-1][1] <= 0.05 * rows[0][1]


def test_degenerate_two_solitons_differ_then_converge():
    # the coalescing family approaches the degenerate solution monotonically
    # while staying distinct from it at every finite radius
    ref = kd.sample(catalog.positon(0.8, 0.8).eval, kd.Grid2D(-8, 8, -8, 8, 33, 33))
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        spec = DegenerationSpec(lambda_c=0.8 + 0.8j, epsilon=eps, n=2)
        fld = kd.sample(degenerate_limit(spec, SEED0).Q, ref.grid)
        err, _ = kd.compare_fields(fld, ref)
        errs.append(err)
        assert err > 0
    assert errs[0] > errs[1] > errs[2]


def test_rogue_limit_matches_catalog_probe_lattice():
    spec = DegenerationSpec(lambda_c=1 + 1j, epsilon=1e-3, n=1)
    out = degenerate_limit(spec, SEEDP)  # auto-selects double at this radius
    lat = np.linspace(-2, 2, 5)
    X, T = np.meshgrid(lat, lat, indexing="ij")
    Ic = np.abs(catalog.rogue1().eval(X, T)) ** 2
    assert np.max(np.abs(np.abs(out.Q(X, T)) ** 2 - Ic)) <= 1e-3


def test_rogue2_limit_matches_catalog():
    spec = DegenerationSpec(lambda_c=1 + 1j, epsilon=1e-2, n=2)
    out = degenerate_limit(spec, SEEDP)
    pts = [(0.0, 0.0), (0.6, 0.2), (-1.5, 0.7), (2.0, 1.0)]
    for x, t in pts:
        Ie = abs(complex(out.Q(np.array(x), np.array(t)))) ** 2
        Ic = abs(complex(catalog.rogue2().eval(x, t))) ** 2
        assert Ie == pytest.approx(Ic, abs=5e-3)


def test_split_weights_produce_three_humps():
    from kundu_dnls.acceptance import pattern_field
    fld = pattern_field("triangle2")
    ps = kd.peak_analysis(fld)
    assert len(ps.structures) == 3
    assert all(h > 4.0 for _, _, h in ps.structures)


def test_degenerate_limit_engages_the_exact_limit_automatically(monkeypatch):
    # per order, the exact limit just below its radius, with no n-fold field,
    # and the finite radius in double at and just above it; `finite_radius`
    # runs the radius below it too
    import kundu_dnls.darboux as dx
    orig, captured = dx.n_fold, []

    def spy(sset, seed):
        captured.append(sset.order)
        return orig(sset, seed)

    monkeypatch.setattr(dx, "n_fold", spy)
    for n, radius in dx.EXACT_LIMIT_RADIUS.items():
        for eps, build, used in ((0.99 * radius, degenerate_limit, "exact"),
                                 (radius, degenerate_limit, "double"),
                                 (1.01 * radius, degenerate_limit, "double"),
                                 (0.99 * radius, finite_radius, "double")):
            captured.clear()
            out = build(DegenerationSpec(lambda_c=1 + 1j, epsilon=eps, n=n), SEEDP)
            assert np.isfinite(out.Q(0.0, 0.0)) and out.precision == used, (n, eps, build)
            assert captured == ([] if used == "exact" else [n] * (1 if n > 1 else 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_precision_table_keeps_its_coarse_shape(n):
    # the table the radii are read from, on the 11 x 11 coalescence window:
    # 3x above an order's radius double's rounding error (against 40-digit
    # mpmath) is within the rule's share of the truncation error, and 10x
    # below it is not
    window = precision_table.WINDOWS["coalescence"]
    radius = EXACT_LIMIT_RADIUS[n]
    above, below = (precision_table.measure(window, n, eps) for eps in (3 * radius, radius / 10))
    assert precision_table.resolved(above) and precision_table.double_serves(above), above
    assert precision_table.resolved(below) and not precision_table.double_serves(below), below


# ---------------------------------------------------------------------------
# the exact limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, lambda_c, n, closed, half", [
    (SEEDP, 1 + 1j, 1, catalog.rogue1, 4.0),
    (SEEDP, 1 + 1j, 2, catalog.rogue2, 4.0),
    (SEED0, 0.8 + 0.8j, 2, lambda: catalog.positon(0.8, 0.8), 10.0),
], ids=["rogue1", "rogue2", "positon"])
def test_exact_limit_matches_the_closed_forms(seed, lambda_c, n, closed, half):
    g = kd.Grid2D(-half, half, -half, half, 41, 41)
    got = kd.sample(exact_limit(DegenerationSpec(lambda_c, 1e-3, n), seed).Q, g)
    want = kd.sample(closed().eval, g)
    assert not got.invalid.any()
    I, Ic = np.abs(got.values) ** 2, np.abs(want.values) ** 2
    assert np.max(np.abs(I - Ic)) <= 1e-10 * np.max(Ic)


def test_exact_limit_of_order_three_has_crest_49():
    # and its epsilon does not enter
    for eps in (1e-3, 1e-7):
        q = exact_limit(DegenerationSpec(1 + 1j, eps, 3), SEEDP).Q(0.0, 0.0)
        assert abs(abs(complex(q)) ** 2 - 49.0) <= 1e-10


@pytest.mark.parametrize("n, S1, errors", [
    (2, 0.0, (1.37e-4, 1.37e-6)), (3, 0.0, (1.16e-6, 1.16e-9)), (2, 2.0, (2.99e-3, 2.99e-5))])
def test_the_finite_radius_converges_to_the_exact_limit_at_its_order(n, S1, errors):
    # |Q_eps - Q_0| at one node, eps = 1e-2 then 1e-3, with Q_eps the
    # finite-radius field in 40-digit mpmath: order 2, or 3 at n = 3
    limit = complex(exact_limit(DegenerationSpec(1 + 1j, 1e-3, n, S1=S1), SEEDP).Q(0.3, -0.2))
    for eps, want in zip((1e-2, 1e-3), errors):
        spec = DegenerationSpec(1 + 1j, eps, n, S1=S1)
        got = complex(mp_reference.finite_radius_q(spec, SEEDP, 0.3, -0.2))
        assert abs(got - limit) == pytest.approx(want, rel=5e-3), eps


@pytest.mark.parametrize("seed, lambda_c", [
    (SEEDP, 0.6 + 1.3j), (SEEDP, 0.5 + 0.5j), (SEED0, 0.8 + 0.8j),
    (SEEDP, 1 + 1j), (SEEDP, 1 - 1j), (SEEDP, -1 - 1j), (SEEDP, -1 + 1j)],
    ids=["planewave-a", "planewave-b", "zero", "critical", "critical-conj", "mirror",
         "mirror-conj"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_limit_is_the_coalescence_limit_on_and_off_the_branch_points(seed, lambda_c, n):
    # off the zeros of s(lam)^2 the Taylor orders start at 0 and both branch
    # terms enter; at the four zeros on (-2, 1) they start at 1 where u-+
    # vanish (the critical eigenvalue and its conjugate) and at 0 where they
    # are 2 (the mirrors).  Either way the finite-radius field, in 40-digit
    # mpmath, converges to the limit at its order
    X, T = grid_pts(6, -2, 2, seed=7).T
    limit = exact_limit(DegenerationSpec(lambda_c, 1e-3, n), seed).Q(X, T)
    err = [np.max(np.abs(mp_reference.finite_radius_q(DegenerationSpec(lambda_c, eps, n), seed,
                                                      X, T) - limit))
           for eps in (1e-2, 1e-3)]
    assert 0 < err[1] <= err[0] / 50, err


def test_the_orders_start_at_one_where_u_vanishes_at_the_nearest_branch_point():
    # the k0 rule: s(lam)^2 = (lam^2 - 2C lam - 2k)(lam^2 + 2C lam - 2k) has four
    # zeros; u-+ vanish at the critical eigenvalue and its conjugate (k0 = 1),
    # and are 2 at their negatives (k0 = 0).  Its one-ulp neighbours expand at
    # the same branch point and give the same field; the zero seed has none
    from kundu_dnls.lax import nearest_branch_point
    X, T = grid_pts(5, -1, 1, seed=2).T
    for frame in _FAMILY[:3] + [(-2.0, 1.0, 1.0, 1.0, 1.0)]:
        seed = make_plane_wave_seed(*frame)
        lc = kd.critical_eigenvalue(seed)
        for lam, vanishing in ((lc, True), (lc.conjugate(), True),
                               (-lc, False), (-lc.conjugate(), False)):
            star, got = nearest_branch_point(lam * (1 + 1e-3), seed)
            assert got == vanishing and abs(star - lam) <= 1e-14 * abs(lam)
        assert nearest_branch_point(lc, zero_seed()) is None
        near = [complex(np.nextafter(lc.real, 9), lc.imag),
                complex(lc.real, np.nextafter(lc.imag, -9))]
        want = exact_limit(DegenerationSpec(lc, 1e-3, 3), seed).Q(X, T)
        for lam in near:
            got = exact_limit(DegenerationSpec(lam, 1e-3, 3), seed).Q(X, T)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_limit_near_a_branch_point_is_continuous(n):
    # lambda_c (1 + delta): the limit moves off the critical field linearly in
    # delta, however small delta is, with no cancellation between the branches
    X, T = grid_pts(8, -2, 2, seed=5).T
    lc = kd.critical_eigenvalue(SEEDP)
    crit = exact_limit(DegenerationSpec(lc, 1e-3, n), SEEDP).Q(X, T)
    diff = {delta: np.max(np.abs(exact_limit(DegenerationSpec(lc * (1 + delta), 1e-3, n),
                                             SEEDP).Q(X, T) - crit))
            for delta in (1e-6, 1e-9, 1e-12)}
    assert diff[1e-6] <= 100 * 1e-6 * np.max(np.abs(crit))
    for big, small in ((1e-6, 1e-9), (1e-9, 1e-12)):
        assert 900 <= diff[big] / diff[small] <= 1100, diff


@pytest.mark.parametrize("delta", [5e-3, 1.9e-2, 2.1e-2, 5e-2])
def test_exact_limit_on_either_side_of_the_recentring_switch(delta):
    # within NEAR_BRANCH_POINT the rows are carried from the branch point,
    # beyond it expanded at lambda_c, whose branch terms cancel most just
    # beyond it: measured 6.4e-14 within and 1.6e-11 at 2.1e-2 of the
    # finite-radius field at eps = 1e-5 (in 40-digit mpmath), which the
    # order 3 has converged
    from kundu_dnls.darboux import NEAR_BRANCH_POINT
    assert 5e-3 < NEAR_BRANCH_POINT < 5e-2
    X, T = grid_pts(6, -6, 6, seed=3).T
    lam = kd.critical_eigenvalue(SEEDP) * (1 + delta * np.exp(0.7j))
    limit = exact_limit(DegenerationSpec(lam, 1e-3, 3), SEEDP).Q(X, T)
    near = mp_reference.finite_radius_q(DegenerationSpec(lam, 1e-5, 3), SEEDP, X, T)
    assert np.max(np.abs(limit - near)) <= 1e-10 * np.max(np.abs(near))


def test_exact_limit_refuses_what_the_finite_radius_refuses():
    with pytest.raises(ValueError, match="split phase"):
        exact_limit(DegenerationSpec(0.8 + 0.8j, 1e-3, 2, S1=1.0), SEED0)
    for lc in (1.0 + 0j, 1j):
        with pytest.raises(ValueError, match="axis"):
            exact_limit(DegenerationSpec(lc, 1e-3, 3), SEEDP)


def test_engine_respects_general_gauge_and_coupling():
    # the gauge parameters and coupling feed through the whole chain: the
    # transformed field must satisfy the correspondingly gauged equation
    from kundu_dnls.verify import ConventionVariant, pde_residual
    var = ConventionVariant(1, "independent")

    seed_g = zero_seed(alpha=1.0, theta_p=2.0, theta_q=0.5)
    out = n_fold(build_reduced_set([1 + 2j], seed_g), seed_g)
    rep = pde_residual(out.Q, seed_g, var, kd.Grid2D(-2, 2, -1, 1, 121, 121), 2)
    assert 1.7 <= rep.estimated_order <= 2.3

    seed_a = zero_seed(alpha=2.5)
    out_a = n_fold(build_reduced_set([1 + 2j], seed_a), seed_a)
    cat = catalog.one_soliton(1, 2, alpha=2.5)
    g = kd.Grid2D(-2, 2, -1, 1, 61, 61)
    err, _ = kd.compare_fields(kd.sample(out_a.Q, g), kd.sample(cat.eval, g))
    assert err <= 1e-9


def test_engine_on_general_plane_wave_background():
    # off-reference background (a, c): the constraint-locked seed and its
    # eigenfunctions still produce a solution
    from kundu_dnls.verify import ConventionVariant, pde_residual
    seed = make_plane_wave_seed(-1.5, 0.7, 1.0)
    out = n_fold(build_reduced_set([0.4 + 0.8j], seed), seed)
    rep = pde_residual(out.Q, seed, ConventionVariant(1, "independent"),
                       kd.Grid2D(-2, 2, -1, 1, 161, 161), 2)
    assert 1.7 <= rep.estimated_order <= 2.3


# ---------------------------------------------------------------------------
# the plane-wave family in any frame
# ---------------------------------------------------------------------------

# (a, c, alpha, p, q) spanning each parameter; the last has a real critical
# root, so only the n-fold map runs there
_FAMILY = [(-2.0, 1.0, 0.7, 0.3, -0.4), (-0.5, 0.6, 1.0, -0.7, 0.0),
           (-1.2, 0.5, 1.5, -0.4, 0.3), (0.5, 0.7, 0.7, 0.3, -0.4)]
# t-resolved about the rogue crests (|Q|^2 up to 49 c^2 at n = 3): h = 1/60
# in x and 1/120 in t, halved once
_FAMILY_WINDOW = kd.Grid2D(-1, 1, -0.3, 0.3, 121, 73)


@pytest.mark.parametrize("frame", _FAMILY)
@pytest.mark.parametrize("lams", [[0.6 + 1.3j], [0.6 + 1.3j, 0.9 + 0.5j]], ids=["n1", "n2"])
def test_n_fold_on_the_plane_wave_family_solves_the_equation(frame, lams):
    from kundu_dnls.verify import ConventionVariant, pde_residual
    seed = make_plane_wave_seed(*frame)
    out = n_fold(build_reduced_set(lams, seed), seed)
    rep = pde_residual(out.Q, seed, ConventionVariant(), _FAMILY_WINDOW, 2)
    assert 1.7 <= rep.estimated_order <= 2.3, rep.norms


@pytest.mark.parametrize("frame", _FAMILY[:3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rogue_waves_at_the_seed_critical_eigenvalue_solve_the_equation(frame, n):
    # n = 1 averages two exact solutions, whose residual has a floor of
    # order eps^2: a radius of 1e-4 keeps it below the stencil error
    from kundu_dnls.verify import ConventionVariant, pde_residual
    seed = make_plane_wave_seed(*frame)
    spec = DegenerationSpec(kd.critical_eigenvalue(seed), 1e-4 if n == 1 else 1e-2, n)
    out = degenerate_limit(spec, seed)
    rep = pde_residual(out.Q, seed, ConventionVariant(), _FAMILY_WINDOW, 2)
    assert 1.7 <= rep.estimated_order <= 2.3, rep.norms
    # the crest of the order-n rogue wave, (2n + 1)^2 c^2, sits at the origin
    crest = abs(complex(out.Q(0.0, 0.0))) ** 2
    assert crest == pytest.approx((2 * n + 1) ** 2 * frame[1] ** 2, rel=1e-3)


@pytest.mark.parametrize("frame", _FAMILY[:3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_limit_solves_the_equation(frame, n):
    # no eps, so no residual floor, at n = 1 too
    from kundu_dnls.verify import ConventionVariant, pde_residual
    seed = make_plane_wave_seed(*frame)
    out = exact_limit(DegenerationSpec(kd.critical_eigenvalue(seed), 1e-3, n), seed)
    rep = pde_residual(out.Q, seed, ConventionVariant(), _FAMILY_WINDOW, 2)
    assert 1.7 <= rep.estimated_order <= 2.3, rep.norms


def test_gauge_moves_only_the_phase():
    # (a, p, q) = (-1.7, 0.7, 0.4) keeps the default frame's k = -1 and
    # b + q = 0, so Q differs from the default's by exp(-i (theta' - theta))
    base, moved = make_plane_wave_seed(-2.0, 1.0), make_plane_wave_seed(-1.7, 1.0, 1.0, 0.7, 0.4)
    x, t = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-1, 1, 7), indexing="ij")
    phase = np.exp(-1j * (moved.theta(x, t) - base.theta(x, t)))
    builds = [lambda s: n_fold(build_reduced_set([0.6 + 1.3j], s), s),
              lambda s: n_fold(build_reduced_set([0.6 + 1.3j, 0.9 + 0.5j], s), s),
              lambda s: degenerate_limit(DegenerationSpec(1 + 1j, 1e-2, 2, S1=3.0), s)]
    for build in builds:
        want, got = build(base).Q(x, t), build(moved).Q(x, t)
        assert np.max(np.abs(got - phase * want)) <= 1e-14 * np.max(np.abs(want))
