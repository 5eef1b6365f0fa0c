"""Dynamic-cluster tracking over snapshot clustering sequences.

Given an ordered series of clusterings (one partition of the currently
present members per time point), this package links clusters across time
by reciprocal majority overlap, tolerates transient decompositions up to
a configurable history horizon, classifies the life-cycle events of the
resulting dynamic clusters, scores parametrisations by membership
consistency, and renders alluvial diagrams.

The exported names are looked up in their submodules when they are used
(PEP 562), so `import dynatrack` loads no submodule and a program pays
only for the modules it uses. `_lazy` gives the package, and each module
that re-exports names which moved out of it, that lookup.
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
    "build_layout": "reference",
    "layout_to_svg": "reference",
    "LifecycleEvent": "reference",
    "classify_events": "reference",
    "PlantedDc": "generator",
    "PlannedEvent": "generator",
    "ScenarioSpec": "generator",
    "generate": "generator",
    "sequence_to_json_bytes": "generator",
    "DynamicClustering": "result",
    "clustering_from_labels": "result",
    "SummaryStats": "metrics",
    "consistencies": "metrics",
    "summary_stats": "metrics",
    "total_consistency": "reference",
    "event_rows": "events",
    "ClusteringSequence": "model",
    "ClusterRef": "model",
    "Snapshot": "model",
    "parse_sequence": "model",
    "sequence_from_lists": "model",
    "brute_force_track": "oracle",
    "MajorityRelations": "relations",
    "RelationCache": "relations",
    "build_document": "reference",
    "canonical_labels": "docwriter",
    "load_document": "reference",
    "TrackingState": "tracking",
    "new_state": "tracking",
    "process_snapshot": "tracking",
    "finalize": "tracking",
    "track": "tracking",
}

__all__ = ["__version__", "BACKEND", *_EXPORTS]


def _lazy(module: str, homes: dict[str, str]):
    """A module `__getattr__` (PEP 562) for the module named `module`: each
    name in `homes` is imported from the submodule named there when it is
    looked up."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{homes[name]}"), name)

    return __getattr__


__getattr__ = _lazy(__name__, _EXPORTS)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
