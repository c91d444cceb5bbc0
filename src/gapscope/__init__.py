"""Gap structures of circle-rotation and interval-exchange orbits.

Computes and verifies: exact three-gap predictions with the sorting
permutation recursion, zippered-rectangle width/height data of sheared
tori, finite-N and limiting gap-distribution statistics, and the gap
digraph / slot forest underlying the distinct-gap-length bounds.
"""

__version__ = "0.1.0"

from .distribution import (
    DistributionCurve,
    arc_cutoff_kernel,
    avg_gap_rotation_exact,
    farey_arc_sum,
    iet_curve,
    limit_curve,
    limit_gap_distribution,
    rotation_curve,
    verify_distribution_convergence,
)
from .errors import (
    AmbiguousValueError,
    ConsistencyError,
    DegenerateOrbitError,
    DomainError,
    GapscopeError,
    NoInverseError,
    ParseError,
    ValidationError,
)
from .gaps import (
    GapCluster,
    GapReport,
    ThreeGapPrediction,
    dplus2_bound,
    gap_report,
    orbit,
    sigma_recursion,
    three_gap_predict,
    verify_dplus2,
    verify_three_gap,
)
from .graphs import (
    GapForest,
    GapGraph,
    boshernitzan_bound_check,
    case_table_bound,
    classify_ghost_case,
    fgaps_build,
    gap_lengths_from_forest,
    ggaps_build,
    outdegree_identity_check,
    verify_forest_lengths,
)
from .iet import (
    Iet,
    KeaneResult,
    is_arc_exchange,
    is_irreducible,
    parse_permutation,
    perm_inverse,
    random_iet,
)
from .numerics import (
    FareyBracket,
    FareyFraction,
    SurdExpr,
    dilog,
    farey_neighbors,
    farey_successor,
    mod_inverse,
    parse_surd,
)
from .outcomes import VerificationOutcome
from .zipper import (
    ZipperedRectangles,
    check_gap_zipper_correspondence,
    cutoff_f,
    zipper_torus,
)
