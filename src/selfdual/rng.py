"""Deterministic random-number streams.

Every Monte-Carlo routine in this package takes an explicit
:class:`RngStream`.  A stream is identified by ``(seed, stream_id)``;
reconstructing a stream with the same pair replays exactly the same
sample sequence, while distinct ``stream_id`` values give statistically
independent streams (numpy ``SeedSequence`` spawning).

Streams are stateful and single-owner: do not use one instance from two
threads at once.  A stream may be handed to another thread when its uses
never overlap, as the hedge's drawing thread takes its draws one after
another.  For parallel work derive children with :meth:`RngStream.child`.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    def __init__(self, seed: int, stream_id: int = 0, _key: tuple[int, ...] | None = None):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._key = _key if _key is not None else (self.stream_id,)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, index: int) -> "RngStream":
        """Independent stream keyed by (seed, stream_id, ..., index)."""
        return RngStream(self.seed, self.stream_id, _key=self._key + (int(index),))

    # Thin pass-throughs for the draws used in this package.

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size)

    def choice(self, a, size=None, p=None):
        return self._gen.choice(a, size=size, p=p)

    def multivariate_normal(self, mean, cov, size=None):
        return self._gen.multivariate_normal(mean, cov, size=size, method="eigh")

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self._key})"
