"""Tests for the protocol registry."""

from __future__ import annotations

import pytest

from repro.core.registry import available_protocols, build_protocol
from repro.errors import ConfigurationError


def test_all_paper_protocols_available():
    names = available_protocols()
    for expected in ("mutable", "koo-toueg", "elnozahy", "chandy-lamport"):
        assert expected in names


def test_build_by_name():
    protocol = build_protocol("mutable")
    assert protocol.name == "mutable"
    assert protocol.distributed and not protocol.blocking


def test_build_with_kwargs():
    protocol = build_protocol("mutable", track_weights=True)
    assert protocol.ledger is not None


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        build_protocol("does-not-exist")
