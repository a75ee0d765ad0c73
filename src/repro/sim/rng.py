"""Deterministic, named random-number streams.

Every stochastic element of an experiment (link bit errors, traffic
inter-arrivals, background load, video frame sizes, ...) draws from its own
named stream derived from a single root seed.  Streams are independent, so
adding instrumentation or a new traffic source never perturbs the draws seen
by existing components — a prerequisite for the controlled A/B comparisons
UNITES performs (paper §4.3: replace one mechanism, measure the difference
*precisely*).

Implementation: each stream is a ``numpy.random.Generator`` seeded from a
``SeedSequence`` spawned with a stable hash of the stream name, so stream
identity depends only on ``(root_seed, name)``.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStreams:
    """Factory and cache of independent named random streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same ``(root_seed, name)`` pair always yields an identical
        sequence, across processes and platforms.
        """
        gen = self._streams.get(name)
        if gen is None:
            # zlib.crc32 is stable across runs (unlike hash()) and cheap.
            child = np.random.SeedSequence([self.root_seed, zlib.crc32(name.encode())])
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def discard(self, name: str) -> None:
        """Forget one stream whose owner is gone (a closed session), so
        the table tracks live owners, not every owner there ever was."""
        self._streams.pop(name, None)

    def reset(self) -> None:
        """Forget all streams; subsequent calls restart their sequences."""
        self._streams.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams
