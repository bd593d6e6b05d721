"""Moments, orthogonal polynomials and Cauchy transforms of the (s,t)-weighted
free Poisson distribution, computed by mutually verifying engines:

  * an operator model on a truncated weighted Fock space (fockpoisson.fock),
  * a three-term recurrence / Jacobi-matrix engine (fockpoisson.moments),
  * non-crossing-partition combinatorics with depth statistics, by
    enumeration and by the first-block recursion (fockpoisson.partitions,
    fockpoisson.words, fockpoisson.moments),

over exact integer-coefficient polynomials in the deformation parameters
(fockpoisson.poly), plus a floating-point analytic layer for continued
fractions and the conditionally free closed form (fockpoisson.analytic).
"""

from .poly import MultiPoly, NonIntegralLambdaExponentError
from .partitions import (
    Family,
    NCPartition,
    PartitionStats,
    SetPartition,
    count_by_blocks,
    enumerate_family,
    enumerate_nc,
    is_noncrossing,
    stats,
)
from .words import (
    CardArrangement,
    NotAdmissibleError,
    OperatorWord,
    arrangement,
    render_ascii,
)
from .fock import (
    FockMatrix,
    build_generators,
    check_relations,
    poisson_matrix,
    vacuum_moment,
    vacuum_moments,
)
from .moments import (
    DegreeOutOfRangeError,
    JacobiParams,
    LimitCase,
    XPoly,
    blockwise_moments,
    cfree_moments,
    jacobi,
    jacobi_moments,
    limit_case,
    moment_blockwise,
    moment_functional,
    moment_jacobi,
    moment_nc,
    moment_table,
    nc_moments,
    ortho_polys,
)
from . import analytic

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "NonIntegralLambdaExponentError",
    "Family",
    "NCPartition",
    "PartitionStats",
    "SetPartition",
    "count_by_blocks",
    "enumerate_family",
    "enumerate_nc",
    "is_noncrossing",
    "stats",
    "CardArrangement",
    "NotAdmissibleError",
    "OperatorWord",
    "arrangement",
    "render_ascii",
    "FockMatrix",
    "build_generators",
    "check_relations",
    "poisson_matrix",
    "vacuum_moment",
    "vacuum_moments",
    "DegreeOutOfRangeError",
    "JacobiParams",
    "LimitCase",
    "XPoly",
    "blockwise_moments",
    "cfree_moments",
    "jacobi",
    "jacobi_moments",
    "limit_case",
    "moment_blockwise",
    "moment_functional",
    "moment_jacobi",
    "moment_nc",
    "moment_table",
    "nc_moments",
    "ortho_polys",
    "analytic",
    "__version__",
]
