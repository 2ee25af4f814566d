"""Rectangular (x, t) grids and sampled complex fields."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import GridMismatchError, GridTooSmallError

Array = np.ndarray


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
            raise GridTooSmallError(f"need at least 2 samples per axis, got {self.nx}x{self.nt}")
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
    from norms.
    """

    grid: Grid2D
    values: Array
    invalid: Array = field(default=None)  # bool mask, same shape as values

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.nx, self.grid.nt):
            raise GridMismatchError(
                f"values shape {self.values.shape} != grid {(self.grid.nx, self.grid.nt)}")
        if self.invalid is None:
            self.invalid = ~np.isfinite(self.values)
        else:
            self.invalid = np.asarray(self.invalid, dtype=bool) | ~np.isfinite(self.values)

    @property
    def intensity(self) -> Array:
        return np.abs(self.values) ** 2

    def same_grid(self, other: "ComplexField2D") -> bool:
        return self.grid == other.grid


def sample(f: Callable, grid: Grid2D) -> ComplexField2D:
    """Evaluate the vectorized f(X, T) once over the grid mesh.

    Non-finite results are masked, not fatal; exceptions from f propagate,
    and a result whose shape is not the grid's raises GridMismatchError.
    """
    X, T = grid.mesh()
    with np.errstate(all="ignore"):
        values = np.asarray(f(X, T), dtype=complex)
    return ComplexField2D(grid, values)


def _diff_1d(values: Array, h: float, axis: int, order: int) -> Array:
    """Second-order stencils: central interior, one-sided of matching order at edges."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    elif order == 2:
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    else:
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    return np.moveaxis(out, 0, axis)


def central_diff(fld: ComplexField2D, axis: str, order: int = 1) -> ComplexField2D:
    """d/dx or d/dt (or second derivatives) of a sampled field.

    Boundary rows/columns use shifted one-sided stencils of the same formal
    order; they are flagged in the result's `degraded` attribute so residual
    norms can stay interior-only.
    """
    ax = {"x": 0, "t": 1}[axis]
    n = fld.values.shape[ax]
    if n < 5:
        raise GridTooSmallError(f"need >= 5 samples along {axis}, got {n}")
    h = fld.grid.hx if ax == 0 else fld.grid.ht
    out = ComplexField2D(fld.grid, _diff_1d(fld.values, h, ax, order), fld.invalid.copy())
    degraded = np.zeros_like(out.invalid)
    sl = [slice(None), slice(None)]
    sl[ax] = [0, -1]
    degraded[tuple(sl)] = True
    out.degraded = degraded
    return out
