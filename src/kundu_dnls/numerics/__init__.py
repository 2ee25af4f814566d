from .determinant import batched_det, det
from .grid import ComplexField2D, Grid2D, intensity, sample, thread_safe

__all__ = [
    "Grid2D", "ComplexField2D", "sample", "thread_safe", "intensity",
    "det", "batched_det",
]
