from .determinant import batched_det, det
from .doubledouble import DDComplexArray, dd_batched_det
from .grid import ComplexField2D, Grid2D, central_diff, sample

__all__ = [
    "Grid2D", "ComplexField2D", "sample", "central_diff",
    "det", "batched_det",
    "DDComplexArray", "dd_batched_det",
]
