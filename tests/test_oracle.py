"""Brute-force reference: equivalence with the production tracker."""

import random

import pytest

from dynatrack import brute_force_track, sequence_from_lists, track
from dynatrack.errors import OracleInvariantError, OracleSizeError
from dynatrack.model import ClusterRef
from dynatrack.oracle import _audit_minimality
from helpers import random_sequence, same_partition


def test_single_snapshot_identical():
    seq = sequence_from_lists([[["1"], ["2", "3"]]])
    assert same_partition(
        seq, track(seq, 2).labels, brute_force_track(seq, 2).labels
    )


def test_size_guard_refuses_large_instances():
    seq = sequence_from_lists([[["a"]]] * 9)
    with pytest.raises(OracleSizeError):
        brute_force_track(seq, 1)


def test_size_guard_override(monkeypatch):
    # the limits are read on each call
    monkeypatch.setattr("dynatrack.oracle.MAX_SNAPSHOTS", 9)
    seq = sequence_from_lists([[["a"]]] * 9)
    result = brute_force_track(seq, 1)
    assert result.dcs == (0,)
    assert result.sizes == [{0: 1}] * 9
    monkeypatch.setattr("dynatrack.oracle.MAX_TOTAL_CLUSTERS", 8)
    with pytest.raises(OracleSizeError):
        brute_force_track(seq, 1)


def test_negative_history_rejected():
    seq = sequence_from_lists([[["a"]]])
    with pytest.raises(ValueError):
        brute_force_track(seq, -1)


def test_random_equivalence_campaign():
    for seed in range(200):
        rng = random.Random(seed)
        seq = random_sequence(rng)
        x = rng.randint(0, 4)
        fast = track(seq, x)
        slow = brute_force_track(seq, x)
        assert same_partition(seq, fast.labels, slow.labels), (
            f"divergence at seed={seed}, x={x}"
        )


def test_minimality_audit_runs_clean_on_random_instances():
    # the audit raises if any group decomposes; a clean pass over varied
    # instances is the assertion
    for seed in range(100):
        rng = random.Random(5000 + seed)
        seq = random_sequence(rng)
        brute_force_track(seq, rng.randint(0, 4))


def test_minimality_audit_reads_the_label_columns():
    # DC 0 on (0, 0) and (1, 0), DC 1 on (0, 1): one event joins DC 0's
    # clusters, or none does.
    columns = [[0, 1], [0]]
    founders = [{ClusterRef(0, 0)}, {ClusterRef(0, 1)}]
    _audit_minimality(columns, [*founders, {ClusterRef(0, 0), ClusterRef(1, 0)}])
    with pytest.raises(OracleInvariantError, match="dynamic cluster 0 decomposes"):
        _audit_minimality(columns, [*founders, {ClusterRef(1, 0)}])
