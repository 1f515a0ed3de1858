"""graphskel: recover a linearly embedded graph from a noisy point sample.

The pipeline classifies every sample by its local structure at scale (R, eps),
clusters the two classes into vertex and edge clusters, reads off the boundary
operator, and then fits vertex coordinates by maximum likelihood over a
mixture of point Gaussians and segment-convolved Gaussians.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .abstract_graph import AbstractGraph, MatchReport, boundary_matrix, match_to_ground_truth, recover_graph
from .em import EmConfig, EmState, FitReport, StrataModel, em_fit, initialize
from .errors import CloudParseError, GenerationError, NumericalError, StructureError
from .geometry import PointCloud
from .local_structure import (
    AssumptionReport,
    LocalLabels,
    ReconstructionConfig,
    check_assumptions,
    classify_all,
    classify_sweep,
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
