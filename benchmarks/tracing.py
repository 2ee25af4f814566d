"""Spans around the package's public entry points, recorded from outside the package.

`Instrumentation.install` replaces module attributes (and the objects that
factories return) with wrappers that record a span per call; `uninstall`
puts the originals back, so untraced passes run the package unchanged.
Spans stay in memory as lists; `layer_metrics` turns them into per-layer
busy times, self times and exact counts.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import numpy as np

from kundu_dnls import catalog, cli, darboux, verify
from kundu_dnls.numerics import grid as grid_mod
from kundu_dnls.numerics.doubledouble import DDComplexArray

# span record fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder: name, start, end, parent span, op id, attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.fallback_nodes = 0   # scalar calls made by sample's per-node fallback
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs=None, attrs=None):
        """Run fn(*args, **kwargs) inside a span; returns (result, span record)."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op_id, attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {})), rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()


def _nodes(x, t) -> int:
    return int(np.broadcast(np.asarray(x), np.asarray(t)).size)


class Instrumentation:
    """Installs and removes the span wrappers on the package's module attributes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    # -- generic wrappers ------------------------------------------------

    def _plain(self, name, fn, attrs_of=None, after=None):
        tr = self.tracer

        def wrapped(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            res, rec = tr.call(name, fn, args, kwargs, attrs_of(*args) if attrs_of else None)
            if after is not None:
                after(rec, args, res)
            return res
        return wrapped

    def _field(self, name, fn, extra=None):
        """Wrapper for a vectorized (x, t) closure; records its node count."""
        tr = self.tracer

        def wrapped(x, t):
            if not tr.active:
                return fn(x, t)
            attrs = {"nodes": _nodes(x, t)}
            if extra:
                attrs.update(extra)
            res, rec = tr.call(name, fn, (x, t), None, attrs)
            if name == "darboux.q":
                rec[ATTRS]["masked"] = int(np.count_nonzero(~np.isfinite(res)))
            return res
        wrapped._bench_traced = True
        return wrapped

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- entry points ----------------------------------------------------

    def install(self):
        tr = self.tracer
        stack_shape = lambda mats: {"shape": tuple(np.shape(mats))}  # noqa: E731
        for owner in (darboux, catalog):
            self._patch(owner, "batched_det", self._plain(
                "numerics.determinant.batched_det", owner.batched_det, stack_shape))
        self._patch(darboux, "dd_batched_det", self._plain(
            "numerics.doubledouble.dd_batched_det", darboux.dd_batched_det,
            lambda mat: {"shape": tuple(mat.shape)}))
        from_mp = DDComplexArray.__dict__["from_mp"].__func__
        self._patch(DDComplexArray, "from_mp", classmethod(self._plain(
            "numerics.doubledouble.from_mp", from_mp,
            lambda cls, values: {"values": int(np.size(values))})))

        def sample_wrapper(fn):
            def wrapped(f, grid):
                if not tr.active:
                    return fn(f, grid)

                def f_counted(x, t):
                    if np.ndim(x) == 0 and np.ndim(t) == 0:
                        tr.fallback_nodes += 1
                    return f(x, t)
                res, _ = tr.call("numerics.grid.sample", fn, (f_counted, grid), None,
                                 {"nodes": grid.nx * grid.nt})
                return res
            return wrapped
        for owner in (grid_mod, cli, verify):
            self._patch(owner, "sample", sample_wrapper(owner.sample))

        def eigen_wrapper(fn):
            def wrapped(*args, **kwargs):
                datum = fn(*args, **kwargs)
                datum.phi = self._field("lax.components", datum.phi)
                datum.varphi = self._field("lax.components", datum.varphi)
                if datum.mp_components is not None:
                    datum.mp_components = self._plain("lax.mp_components",
                                                      datum.mp_components)
                return datum
            return wrapped
        for attr in ("plane_wave_eigenfunction", "zero_seed_eigenfunction"):
            self._patch(darboux, attr, eigen_wrapper(getattr(darboux, attr)))

        def nfold_wrapper(fn):
            def wrapped(spectral_set, seed, *args, **kwargs):
                out = fn(spectral_set, seed, *args, **kwargs)
                precision = kwargs.get("precision", args[0] if args else "double")
                out.Q = self._field("darboux.q", out.Q,
                                    {"order": spectral_set.order, "precision": precision})
                return out
            return wrapped

        def degenerate_wrapper(fn):
            def wrapped(spec, seed, *args, **kwargs):
                out = fn(spec, seed, *args, **kwargs)
                if not getattr(out.Q, "_bench_traced", False):
                    out.Q = self._field("darboux.q", out.Q,
                                        {"order": spec.n, "precision": "averaged"})
                return out
            return wrapped
        for owner in (darboux, cli):
            self._patch(owner, "n_fold", nfold_wrapper(owner.n_fold))
            self._patch(owner, "degenerate_limit", degenerate_wrapper(owner.degenerate_limit))

        def catalog_wrapper(fn):
            def wrapped(*args, **kwargs):
                entry = fn(*args, **kwargs)
                entry.eval = self._field("catalog.eval", entry.eval)
                return entry
            return wrapped
        for attr in ("one_soliton", "two_soliton", "positon", "breather", "rogue1", "rogue2"):
            self._patch(catalog, attr, catalog_wrapper(getattr(catalog, attr)))

        self._patch(verify, "pde_residual", self._plain("verify.pde_residual",
                                                        verify.pde_residual))
        self._patch(verify, "peak_analysis", self._plain("verify.peak_analysis",
                                                         verify.peak_analysis))
        self._patch(cli, "build_field", self._plain("cli.build_field", cli.build_field))

        def bytes_after(rec, args, _res):
            rec[ATTRS]["bytes"] = os.path.getsize(args[0])
        grid_nodes = lambda path, grid, *rest: {"nodes": grid.nx * grid.nt}  # noqa: E731
        self._patch(cli, "write_csv", self._plain("cli.write_csv", cli.write_csv,
                                                  grid_nodes, bytes_after))
        self._patch(cli, "write_json", self._plain("cli.write_json", cli.write_json,
                                                   grid_nodes, bytes_after))
        self._patch(cli, "write_pgm", self._plain("cli.write_pgm", cli.write_pgm,
                                                  None, bytes_after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds that one traced wrapper adds to a call: a wrapped no-op minus a
    bare one.  Leaves out the node counting of the (x, t) field wrappers."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None
    wrapped = Instrumentation(tracer)._plain("bench.noop", noop)
    timings = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - t0)
    return max(0.0, (timings[1] - timings[0]) / calls)


# ---------------------------------------------------------------------------
# span reduction
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


LAYERS = ("bench", "cli", "numerics.grid", "darboux", "lax", "numerics.determinant",
          "numerics.doubledouble", "catalog", "verify")


def _ancestors(spans: list, i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def _darboux_roots(spans: list):
    """The outermost darboux.q spans, which deliver the transformed field, with
    the determinants and component nodes evaluated under them and the subset
    that ran extended-precision determinants."""
    roots = [i for i, s in enumerate(spans) if s[NAME] == "darboux.q"
             and not any(spans[a][NAME] == "darboux.q" for a in _ancestors(spans, i))]
    root_set = set(roots)
    dets = comp_nodes = 0
    extended = set()
    for i, s in enumerate(spans):
        if s[NAME] not in ("numerics.determinant.batched_det",
                           "numerics.doubledouble.dd_batched_det", "lax.components"):
            continue
        root = next((a for a in _ancestors(spans, i) if a in root_set), None)
        if root is None:
            continue
        if s[NAME] == "lax.components":
            comp_nodes += s[ATTRS]["nodes"]
        else:
            dets += _stack_count(s[ATTRS]["shape"])
            if s[NAME] == "numerics.doubledouble.dd_batched_det":
                extended.add(root)
    return roots, extended, dets, comp_nodes


def layer_metrics(spans: list, fallback_nodes: int, passes: int) -> dict:
    """Per-pass layer metrics: sums over the traced passes divided by `passes`,
    except the per-node ratios."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child_time)]

    def total(name, values=dur):
        return sum(v for s, v in zip(spans, values) if s[NAME] == name)

    self_by_layer = defaultdict(float)
    for s, v in zip(spans, self_t):
        self_by_layer[layer_of(s[NAME])] += v
    unknown = set(self_by_layer) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")

    q_roots, extended, dets_in_q, comp_nodes_in_q = _darboux_roots(spans)
    q_nodes = sum(spans[i][ATTRS]["nodes"] for i in q_roots)
    det_spans = [s for s in spans if s[NAME] == "numerics.determinant.batched_det"]
    dd_spans = [s for s in spans if s[NAME] == "numerics.doubledouble.dd_batched_det"]

    m = {
        "numerics.determinant.batched_det_s": total("numerics.determinant.batched_det"),
        "numerics.determinant.matrices": sum(_stack_count(s[ATTRS]["shape"]) for s in det_spans),
        "numerics.determinant.computed_mb": sum(
            _stack_count(s[ATTRS]["shape"]) * s[ATTRS]["shape"][-1] ** 2 * 16
            for s in det_spans) / 1e6,
        "numerics.doubledouble.from_mp_s": total("numerics.doubledouble.from_mp"),
        "numerics.doubledouble.dd_batched_det_s": total("numerics.doubledouble.dd_batched_det"),
        "numerics.doubledouble.matrices": sum(_stack_count(s[ATTRS]["shape"]) for s in dd_spans),
        "numerics.grid.sample_s": total("numerics.grid.sample"),
        "numerics.grid.scalar_fallback_nodes": fallback_nodes,
        "lax.components_s": total("lax.components"),
        "lax.component_evals_per_node": comp_nodes_in_q / q_nodes if q_nodes else 0.0,
        "lax.mp_components_s": total("lax.mp_components"),
        "lax.mp_component_calls": sum(1 for s in spans if s[NAME] == "lax.mp_components"),
        "darboux.q_eval_s": sum(dur[i] for i in q_roots),
        "darboux.dets_per_node": dets_in_q / q_nodes if q_nodes else 0.0,
        "darboux.extended_nodes": sum(spans[i][ATTRS]["nodes"] for i in extended),
        "darboux.masked_nodes": sum(spans[i][ATTRS]["masked"] for i in q_roots),
        "catalog.eval_s": total("catalog.eval"),
        "catalog.nodes": sum(s[ATTRS]["nodes"] for s in spans if s[NAME] == "catalog.eval"),
        "verify.pde_residual_s": total("verify.pde_residual"),
        "verify.pde_residual_self_s": total("verify.pde_residual", self_t),
        "verify.peak_analysis_s": total("verify.peak_analysis"),
        "cli.build_field_s": total("cli.build_field"),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.write_json_s": total("cli.write_json"),
        "cli.write_pgm_s": total("cli.write_pgm"),
        "cli.bytes_written": sum(s[ATTRS].get("bytes", 0) for s in spans
                                 if s[NAME].startswith("cli.write_")),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return {k: v if k.endswith("_per_node") else v / passes for k, v in m.items()}


def reference_layers(spans: list) -> dict:
    """Medians of the reference measurements that occur in these spans."""
    def med(values):
        return statistics.median(values) if values else None

    def dur(s):
        return s[END] - s[START]

    q_roots, extended, _, _ = _darboux_roots(spans)
    n3 = [dur(spans[i]) for i in q_roots
          if spans[i][ATTRS]["order"] == 3 and spans[i][ATTRS]["nodes"] == 401 * 401]
    det6 = [dur(s) for s in spans if s[NAME] == "numerics.determinant.batched_det"
            and s[ATTRS]["shape"] == (401, 401, 6, 6)]
    csv401 = [dur(s) for s in spans if s[NAME] == "cli.write_csv"
              and s[ATTRS]["nodes"] == 401 * 401]
    ext_n = sum(spans[i][ATTRS]["nodes"] for i in extended)
    return {
        "n_fold_order3_401x401_s": med(n3),
        "batched_det_6x6x160801_s": med(det6),
        "write_csv_401x401_s": med(csv401),
        "extended_path_per_100_nodes_s":
            100 * sum(dur(spans[i]) for i in extended) / ext_n if ext_n else None,
    }


def _stack_count(shape) -> int:
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1
