"""Pinned 25-seed batch digests at each preset's default master seed.

A batch digest hashes every seed's (point, schedule, verdict), so a
change that moves one seed's run or verdict moves its batch's digest. A
change meant to move one updates the pin here and says which seeds
moved and why.
"""

from __future__ import annotations

import pytest

from repro.explore.fuzz import ExploreSpec, explore_preset, run_explore_batch

PINS = [
    ("quick", {}, "6650e02e618a3d6aae56c05e5b41dfa8"),
    ("mobility", {}, "dfc0680bdec24e7d3d5781f9b64b4c5d"),
    ("quick", {"mutation": "skip-mutable", "shrink": False},
     "49272a9413abc2f0479505fdccc6b9d6"),
    ("failures", {"shrink": False}, "bdb22573e97e517756eb8ffec637afb6"),
]


@pytest.mark.parametrize(
    "preset, overrides, digest", PINS,
    ids=["quick", "mobility", "quick-skip-mutable", "failures"],
)
def test_batch_digest_is_pinned(preset, overrides, digest):
    spec = ExploreSpec.from_dict({**explore_preset(preset).to_dict(), **overrides})
    assert spec.n_seeds == 25
    assert run_explore_batch(spec).batch_digest() == digest
