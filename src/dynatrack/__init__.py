"""Dynamic-cluster tracking over snapshot clustering sequences.

Given an ordered series of clusterings (one partition of the currently
present members per time point), this package links clusters across time
by reciprocal majority overlap, tolerates transient decompositions up to
a configurable history horizon, classifies the life-cycle events of the
resulting dynamic clusters, scores parametrisations by membership
consistency, and renders alluvial diagrams.

The exported names are imported from their submodules on first access
(PEP 562), so `import dynatrack` loads no submodule and a program pays
only for the modules it uses.
"""

__version__ = "0.1.0"

# The overlap kernel is plain Python; the name is kept for the scripts
# and reports that record it.
BACKEND = "python"

# The result-document schema that `resultdoc` reads and `docwriter` writes.
SCHEMA_VERSION = 1

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "AlluvialLayout": "alluvial",
    "build_layout": "alluvial",
    "layout_to_svg": "alluvial",
    "LifecycleEvent": "events",
    "classify_events": "events",
    "PlantedDc": "generator",
    "PlannedEvent": "generator",
    "ScenarioSpec": "generator",
    "generate": "generator",
    "DynamicClustering": "metrics",
    "SummaryStats": "metrics",
    "clustering_from_labels": "metrics",
    "consistencies": "metrics",
    "event_rows": "metrics",
    "summary_stats": "metrics",
    "total_consistency": "metrics",
    "ClusteringSequence": "model",
    "ClusterRef": "model",
    "Snapshot": "model",
    "parse_sequence": "model",
    "sequence_from_lists": "model",
    "sequence_to_json_bytes": "model",
    "brute_force_track": "oracle",
    "MajorityRelations": "relations",
    "RelationCache": "relations",
    "build_document": "docwriter",
    "canonical_labels": "docwriter",
    "load_document": "resultdoc",
    "TrackingState": "tracking",
    "new_state": "tracking",
    "process_snapshot": "tracking",
    "finalize": "tracking",
    "track": "tracking",
}

__all__ = ["__version__", "BACKEND", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
