"""Tests for concurrent-initiation handling (§3.5)."""

from __future__ import annotations

import pytest

from repro.checkpointing.concurrent import (
    ConcurrencyPolicy,
    concurrent_initiation_hazard,
)


def test_serialized_initiations_always_consistent():
    for seed in (1, 2, 3):
        report = concurrent_initiation_hazard(
            seed, ConcurrencyPolicy.SERIALIZED, n_processes=8, initiations=6
        )
        assert report.consistent, f"seed {seed} inconsistent under serialization"


def test_unrestricted_initiations_break_consistency_somewhere():
    """The single-initiation assumption is load-bearing: overlapping
    initiations produce orphaned recovery lines for most seeds."""
    reports = [
        concurrent_initiation_hazard(
            seed, ConcurrencyPolicy.UNRESTRICTED, n_processes=8, initiations=8
        )
        for seed in range(1, 6)
    ]
    assert any(not r.consistent for r in reports)


def test_hazard_report_fields():
    report = concurrent_initiation_hazard(
        1, ConcurrencyPolicy.SERIALIZED, n_processes=4, initiations=3
    )
    assert report.seed == 1
    assert report.policy is ConcurrencyPolicy.SERIALIZED
    assert report.orphan_count == 0
    assert report.channel_counts_consistent
