"""Quadratic weighted histopolation on tetrahedral meshes.

Local reconstruction of functions from integral data: the classical linear
scheme built on face averages, plus three quadratic enrichment strategies
whose extra degrees of freedom are probabilistic moments against face,
interior or edge densities.  Includes unisolvence diagnostics, automatic
density-parameter tuning and an L1 convergence benchmark.
"""

from .densities import (
    BaryQuadratic,
    Density,
    edge_density,
    edge_ortho_quadratic,
    face_density,
    face_ortho_quadratic,
    gram_schmidt_enrich,
    volume_density,
    volumetric_psi,
)
from .element import (
    ElementOperator,
    StrategyConfig,
    UnisolvenceError,
    UnisolvenceReport,
    assemble_D,
    assemble_H,
    classical_project,
    lambda_basis,
    reconstruct,
    unisolvence_check,
)
from .experiment import (
    ErrorRow,
    QuadSettings,
    TuneResult,
    TuningGrid,
    compute_dofs,
    convergence_study,
    grid_search,
    l1_error,
)
from .mesh import TetMesh, build_mesh
from .quadrature import (
    SimplexRule,
    gauss_jacobi,
    simplex_rule_plain,
    simplex_rule_weighted,
)
from .simplex import (
    EDGE_PAIRS,
    FACE_VERTEX_INDICES,
    REFERENCE_TET,
    GeometryError,
    Tetrahedron,
)
from .targets import TARGETS, TargetFunction, get_targets

__version__ = "0.1.0"
