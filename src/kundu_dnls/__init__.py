"""Exact solutions of the Kundu-DNLS equation via Darboux transformations,
with residual-based verification and intensity-pattern analysis."""

from . import catalog, darboux, errors, lax, verify
from .darboux import (DegenerationSpec, DTOutput, SpectralSet, build_reduced_set,
                      degenerate_limit, n_fold)
from .lax import (Seed, SpectralDatum, branch_quantity, check_lax_residual,
                  critical_eigenvalue, make_plane_wave_seed, plane_wave_eigenfunction,
                  zero_seed, zero_seed_eigenfunction)
from .numerics import ComplexField2D, Grid2D, det, sample
from .verify import (ALL_VARIANTS, ConventionVariant, PeakSet, ResidualReport,
                     compare_fields, convergence_study, pde_residual,
                     peak_analysis, pin_down_convention)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
