"""Dynamic-cluster tracking over snapshot clustering sequences.

Given an ordered series of clusterings (one partition of the currently
present members per time point), this package links clusters across time
by reciprocal majority overlap, tolerates transient decompositions up to
a configurable history horizon, classifies the life-cycle events of the
resulting dynamic clusters, scores parametrisations by membership
consistency, and renders alluvial diagrams.
"""

__version__ = "0.1.0"

# The overlap kernel is plain Python; the name is kept for the scripts
# and reports that record it.
BACKEND = "python"

from .alluvial import AlluvialLayout, build_layout, layout_to_svg
from .generator import PlannedEvent, PlantedDc, ScenarioSpec, generate
from .metrics import (
    DcSeries,
    DynamicClustering,
    LifecycleEvent,
    SummaryStats,
    classify_events,
    clustering_from_labels,
    summary_stats,
    total_consistency,
)
from .model import (
    ClusteringSequence,
    ClusterRef,
    Snapshot,
    parse_sequence,
    sequence_from_lists,
    sequence_to_json_bytes,
    sequence_to_json_dict,
    subsequence,
)
from .oracle import brute_force_track
from .relations import MajorityRelations, RelationCache
from .resultdoc import build_document, canonical_labels, load_document
from .tracking import (
    IdentityFlowResult,
    finalize,
    TrackingState,
    find_source_set,
    identity_flow,
    is_bijective_match,
    mapping_path,
    new_state,
    process_snapshot,
    tracing_path,
    track,
)

__all__ = [
    "__version__",
    "BACKEND",
    "AlluvialLayout",
    "build_layout",
    "layout_to_svg",
    "PlantedDc",
    "PlannedEvent",
    "ScenarioSpec",
    "generate",
    "DcSeries",
    "DynamicClustering",
    "LifecycleEvent",
    "SummaryStats",
    "classify_events",
    "clustering_from_labels",
    "summary_stats",
    "total_consistency",
    "ClusteringSequence",
    "ClusterRef",
    "Snapshot",
    "parse_sequence",
    "sequence_from_lists",
    "sequence_to_json_bytes",
    "sequence_to_json_dict",
    "subsequence",
    "brute_force_track",
    "MajorityRelations",
    "RelationCache",
    "build_document",
    "canonical_labels",
    "load_document",
    "IdentityFlowResult",
    "TrackingState",
    "find_source_set",
    "identity_flow",
    "is_bijective_match",
    "mapping_path",
    "new_state",
    "process_snapshot",
    "finalize",
    "tracing_path",
    "track",
]
