"""graphskel: recover a linearly embedded graph from a noisy point sample.

The pipeline classifies every sample by its local structure at scale (R, eps),
clusters the two classes into vertex and edge clusters, reads off the boundary
operator, and then fits vertex coordinates by maximum likelihood over a
mixture of point Gaussians and segment-convolved Gaussians.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .abstract_graph import (
    AbstractGraph,
    MatchReport,
    RefinedPartition,
    boundary_matrix,
    build_graph,
    cluster_p0,
    cluster_p1,
    match_to_ground_truth,
    recover_graph,
    refine,
)
from .densities import (
    edge_log_density,
    log_erf_diff,
    vertex_log_density,
)
from .em import (
    EmConfig,
    EmState,
    FitReport,
    StrataModel,
    em_fit,
    initialize,
    m_step,
    update_mixing,
)
from .errors import CloudParseError, GenerationError, NumericalError, StructureError
from .geometry import (
    ComponentLabeling,
    PointCloud,
    component_centroids,
    distance,
    point_segment_distance,
    segment_segment_distance,
    threshold_components,
)
from .local_structure import (
    AssumptionReport,
    LocalLabels,
    Partition,
    ReconstructionConfig,
    check_assumptions,
    classify_all,
    inner_product_threshold,
    partition,
    phi,
    psi,
)
from .synthetic import (
    EmbeddedGraphSpec,
    GraphGenConfig,
    HausdorffReport,
    SampleSpec,
    builtin_fixture,
    hausdorff_check,
    random_compliant_graph,
    sample_graph,
)
