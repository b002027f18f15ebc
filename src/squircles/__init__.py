"""Squircle curves and squircular implicit surfaces.

Inside-negative scalar fields for the 2D and 3D shape families, deterministic
contour and isosurface extraction, mesh/curve serialization, independent
numerical verification, and a CLI front end.
"""

from .contour2d import (
    Domain2D,
    Grid2D,
    Polyline,
    frantz_polyline,
    marching_squares,
    sample_grid2d,
)
from .fields2d import FAMILIES_2D, ParametricOnlyError, ShapeSpec2D, frantz_point, make_field2d
from .fields3d import FAMILIES_3D, ShapeSpec3D, make_field3d
from .mesh_io import MeshStats, mesh_stats, write_csv, write_obj, write_stl, write_svg
from .oracle import (
    ConvergenceReport,
    InverseDomainError,
    NoSignChangeError,
    RadialProfileReport,
    limit_convergence_check,
    periodicity_check,
    radial_profile,
    radial_profile_report,
    square_case_check,
    square_metric_axis,
    square_metric_tilted,
    zero_set_residual,
)
from .polygonize3d import (
    Domain3D,
    Grid3D,
    TriangleMesh,
    marching_cubes,
    polygonize,
    sample_grid3d,
)
from .recipes import FIGURE_RECIPES, run_recipe

__version__ = "1.0.0"

__all__ = [
    "FAMILIES_2D",
    "FAMILIES_3D",
    "FIGURE_RECIPES",
    "ConvergenceReport",
    "Domain2D",
    "Domain3D",
    "Grid2D",
    "Grid3D",
    "InverseDomainError",
    "MeshStats",
    "NoSignChangeError",
    "ParametricOnlyError",
    "Polyline",
    "RadialProfileReport",
    "ShapeSpec2D",
    "ShapeSpec3D",
    "TriangleMesh",
    "frantz_point",
    "frantz_polyline",
    "limit_convergence_check",
    "make_field2d",
    "make_field3d",
    "marching_cubes",
    "marching_squares",
    "mesh_stats",
    "periodicity_check",
    "polygonize",
    "radial_profile",
    "radial_profile_report",
    "run_recipe",
    "sample_grid2d",
    "sample_grid3d",
    "square_case_check",
    "square_metric_axis",
    "square_metric_tilted",
    "write_csv",
    "write_obj",
    "write_stl",
    "write_svg",
    "zero_set_residual",
]
