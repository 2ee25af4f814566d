"""Rectangular (x, t) grids and sampled complex fields."""
from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


def intensity(v: Array) -> Array:
    """|v|^2 with the bits of the scalar `abs(v) ** 2`: np.abs on complex
    arrays and h ** 2 each round differently on some inputs.  A finite v
    with |v| above about 1.34e154 gives inf without a warning; callers
    count such nodes as overflow."""
    with np.errstate(over="ignore"):
        return np.float_power(np.hypot(v.real, v.imag), 2.0)


@dataclass(frozen=True)
class Grid2D:
    """Uniform sample grid over [x_min, x_max] x [t_min, t_max]."""

    x_min: float
    x_max: float
    t_min: float
    t_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError(f"need at least 2 samples per axis, got {self.nx}x{self.nt}")
        if not np.all(np.isfinite((self.x_min, self.x_max, self.t_min, self.t_max,
                                   self.hx, self.ht))):
            raise ValueError("grid extents and spacings must be finite")
        if not (self.x_max > self.x_min and self.t_max > self.t_min):
            raise ValueError("grid extents must be strictly increasing")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def ht(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    @property
    def xs(self) -> Array:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ts(self) -> Array:
        return np.linspace(self.t_min, self.t_max, self.nt)

    def mesh(self) -> tuple[Array, Array]:
        """(X, T) arrays of shape (nx, nt), x along axis 0."""
        return np.meshgrid(self.xs, self.ts, indexing="ij")

    def refined(self, factor: int = 2) -> "Grid2D":
        """Same window with the sample spacing divided by `factor`."""
        return Grid2D(self.x_min, self.x_max, self.t_min, self.t_max,
                      (self.nx - 1) * factor + 1, (self.nt - 1) * factor + 1)


@dataclass
class ComplexField2D:
    """Complex samples over a Grid2D, with a mask of non-finite nodes.

    `invalid` marks nodes where the producing operation hit a pole or
    overflow; consumers must exclude them (and usually their neighbours)
    from norms.  `workers` is the number of threads that sampled the values.
    """

    grid: Grid2D
    values: Array
    invalid: Array = field(default=None)  # bool mask, same shape as values
    workers: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.nx, self.grid.nt):
            raise ValueError(
                f"values shape {self.values.shape} != grid {(self.grid.nx, self.grid.nt)}")
        if self.invalid is None:
            self.invalid = ~np.isfinite(self.values)
        else:
            self.invalid = np.asarray(self.invalid, dtype=bool) | ~np.isfinite(self.values)


# fewer nodes than this in a block keeps a complex temporary (16 bytes a node)
# under numpy's 256 KiB threshold for reusing temporaries in place, which can
# swap the operands of a product and so move its last bits
_BLOCK_NODES = 2 ** 14
# a helper thread evaluates its blocks in sub-blocks of fewer nodes than this:
# glibc gives each thread its own malloc arena and keeps freed memory resident
# in it, so a helper's arena stays at the size of its largest temporaries
_HELPER_NODES = 2 ** 12
# sampling's speed and peak RSS were measured with two threads on a 2-vCPU
# host only; each further helper would add an arena of unmeasured size
_MAX_WORKERS = 2


def _row_blocks(nx: int, nt: int, nodes: int | None = None):
    """Row ranges (i, j) that tile 0..nx in order: each block is the largest
    number of whole x-rows with fewer than `nodes` (default _BLOCK_NODES)
    nodes, one row when a row alone is longer."""
    rows = max(1, ((nodes or _BLOCK_NODES) - 1) // nt)
    return [(i, min(i + rows, nx)) for i in range(0, nx, rows)]


def _workers() -> int:
    """Threads for sampling a thread-safe field: the CPUs this process may
    run on, at most _MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        return min(_MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(_MAX_WORKERS, os.cpu_count() or 1)


def thread_safe(f: Callable) -> Callable:
    """Mark the field f as safe to call from several threads at once; returns f.

    `sample` shares a grid's blocks among threads only for a field so
    marked: it cannot tell that any other callable is, and one that counts
    its calls with `+=`, or keeps a stack of its open calls, is not.  A
    callable that wraps a marked field is not marked itself."""
    f.thread_safe = True
    return f


def sample(f: Callable, grid: Grid2D) -> ComplexField2D:
    """Evaluate the vectorized f(x, t) over the grid, one block of whole
    x-rows at a time, on broadcast axes; a thread-safe f on several threads.

    This is `sample_rows` over all rows of the grid, which states how the
    blocks are evaluated, on which threads and with which errors.
    Non-finite samples are masked, not fatal.  Since a node's sample does
    not depend on its block, the result does not depend on the thread
    count, which the field records as `workers`.
    """
    values = np.empty((grid.nx, grid.nt), dtype=complex)
    workers = sample_rows(f, grid, 0, grid.nx, values)
    return ComplexField2D(grid, values, workers=workers)


def sample_rows(f: Callable, grid: Grid2D, start: int, stop: int, out: Array) -> int:
    """Evaluate f over the x-rows start:stop of the grid into `out`, an
    array of shape (stop - start, nt); returns the number of threads used.

    The rows are evaluated in the blocks of `_row_blocks(stop - start, nt)`
    shifted by `start`, which are the grid's own blocks when `start` is the
    first row of one of them.  For the rows i:j of a block, f receives x of
    shape (j - i, 1) and t of shape (1, nt), so a subexpression of x alone
    or of t alone costs j - i or nt values, and every temporary stays a few
    MiB.  Each block carries the bits of f on the mesh of that block, and a
    block-sized temporary is too small for numpy to compute a product in
    place in it (see _BLOCK_NODES), so a node's sample does not depend on
    the size of the grid around it.  A 2-D block result whose axes each
    have length 1 or the block's length (an x-only field, say) is expanded
    to the block.  Any other result raises ValueError, a scalar or
    1-D array included: write a constant field as c + 0 * x + 0 * t.
    Non-finite results are written as they are; exceptions from f propagate.

    An f marked by `thread_safe` is evaluated on `_workers()` threads, at
    most one per block; the calling thread is one of them, and one block
    starts no thread.  Any other f is evaluated on the calling thread
    alone, block after block in row order.  The threads take blocks in row
    order from one counter.  A helper thread evaluates each block it takes
    in sub-blocks of fewer than _HELPER_NODES nodes, and runs in a copy of
    the caller's context, so numpy's error state is the caller's.  Once a
    block fails no thread takes another, and when all are done the
    exception of the first failing block in row order is raised.
    """
    xs, ts = grid.xs, grid.ts[None, :]
    blocks = [(start + i, start + j) for i, j in _row_blocks(stop - start, grid.nt)]
    workers = min(_workers(), len(blocks)) if getattr(f, "thread_safe", False) else 1
    taken = itertools.count()     # next() on it is atomic: the shared block counter
    errors = {}                   # block index -> its exception
    stop_event = threading.Event()

    def fill(i, j):
        block = np.asarray(f(xs[i:j, None], ts), dtype=complex)
        shape = (j - i, grid.nt)
        if block.ndim != 2 or any(n not in (1, full) for n, full in zip(block.shape, shape)):
            raise ValueError(f"f returned shape {block.shape} on rows {i}:{j}, "
                             f"which does not broadcast to the block's {shape}")
        out[i - start:j - start] = block

    def run(helper: bool):
        while not stop_event.is_set():
            k = next(taken)
            if k >= len(blocks):
                return
            i, j = blocks[k]
            parts = _row_blocks(j - i, grid.nt, _HELPER_NODES) if helper else [(0, j - i)]
            try:
                for a, b in parts:
                    fill(i + a, i + b)
            except Exception as exc:
                # every earlier block was taken before this one and runs to
                # its end, so the lowest failing index is the first in row order
                errors[k] = exc
                stop_event.set()

    with np.errstate(all="ignore"):
        helpers = []
        try:
            for _ in range(workers - 1):
                thread = threading.Thread(target=contextvars.copy_context().run, args=(run, True))
                thread.start()
                helpers.append(thread)
            run(False)
        finally:
            stop_event.set()    # an interrupt of the calling thread stops the helpers too
            for thread in helpers:
                thread.join()
    if errors:
        raise errors[min(errors)]
    return workers
