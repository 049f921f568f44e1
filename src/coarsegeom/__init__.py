"""Coarse geometry on finite pseudo-metric spaces.

Separated nets, coarse quasi-isometries with exact distortion
arithmetic, quasi-convexity and geodesic graph skeletons, and
expansion / partition-extension operators, all with exhaustively
certified bounds.
"""

from .convexity import (
    ChainMetric,
    ConvexityConstants,
    GeodesicGraph,
    build_geodesic_graph,
    chain_metric,
    convexity_constants,
    ls_constants_from_expansive,
)
from .errors import CoarseGeomError
from .higson import (
    BoundedFunction,
    DecayProfile,
    ExpansionField,
    bump_function,
    decay_profile,
    expansion,
    partition_extend,
)
from .maps import (
    BRUTEFORCE_CAP,
    DistortionReport,
    EquivalencePair,
    LargeScaleMap,
    NetBijection,
    additive_slack,
    certify_equivalence,
    closeness_gap,
    displacement,
    expansiveness_profile,
    extend_net_map,
    large_scale_map,
    make_net_bijection,
    measure_distortion,
    min_distortion_bruteforce,
    properness_profile,
    quasi_inverse,
    restrict_equivalence,
)
from .nets import (
    BorelPartition,
    Net,
    borel_partition,
    greedy_separated_net,
    net_from_members,
    refine_net,
)
from .space import (
    FiniteMetricSpace,
    MetricValidationReport,
    closed_ball,
    cover_radius_of,
    from_distance_matrix,
    from_point_cloud,
    line_space,
    load_distance_matrix_csv,
    load_point_cloud_csv,
    separation_of,
)

__version__ = "0.1.0"
