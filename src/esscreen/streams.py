"""Deterministic, order-independent random substreams.

Every stochastic component derives its generator from one root seed plus a
tuple of integer counters (run index, algorithm slot, trajectory id, ...).
Two substreams with different keys are statistically independent, and the
stream obtained for a given key does not depend on how many other keys were
used or in which order, so parallel work schedules cannot change results.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

__all__ = ["substream", "spawn_key"]


def spawn_key(*key: int) -> tuple[int, ...]:
    """Normalize a counter tuple (all entries must be non-negative ints)."""
    out = tuple(int(k) for k in key)
    if any(k < 0 for k in out):
        raise InvalidParameterError(f"substream key entries must be >= 0, got {out}")
    return out


def substream(root_seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``root_seed``."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=spawn_key(*key))
    return np.random.default_rng(ss)
