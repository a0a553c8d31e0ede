"""Generator doubles for the sampling tests.

``Recording`` is numpy's generator that records every draw call and may
rig its output, and ``Recordings`` stands in for ``default_rng`` with it.
``Replay`` hands one sample's row of block draws to the one-sample methods
(``random_point``, ``random_tangent``, ...), so a per-row oracle maps the
same draws with the scalar methods.
"""

import math

import numpy as np


class Recording(np.random.Generator):
    """``default_rng(seed)``, recording each draw call as ``(method, output
    shape)`` in ``calls``.  ``rig`` maps a call's number to a function of
    its output and the earlier outputs that returns what the call gives."""

    def __init__(self, seed, rig=None):
        super().__init__(np.random.PCG64(seed))
        self.calls, self.outputs, self._rig = [], [], rig or {}

    def _record(self, name, out):
        k = len(self.calls)
        self.calls.append((name, np.shape(out)))
        if k in self._rig:
            out = self._rig[k](out, self.outputs)
        self.outputs.append(out)
        return out

    def standard_normal(self, *args, **kwargs):
        return self._record("standard_normal", super().standard_normal(*args, **kwargs))

    def uniform(self, *args, **kwargs):
        return self._record("uniform", super().uniform(*args, **kwargs))

    def random(self, *args, **kwargs):
        return self._record("random", super().random(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._record("integers", super().integers(*args, **kwargs))


class Recordings:
    """A stand-in for ``np.random.default_rng`` that makes ``Recording``
    generators, all rigged by ``rig``, and keeps them in ``made``."""

    def __init__(self, rig=None):
        self.made, self._rig = [], rig

    def __call__(self, seed):
        self.made.append(Recording(seed, self._rig))
        return self.made[-1]


class Replay:
    """Serves the values of one flat row, in order, to ``standard_normal``
    and ``uniform`` calls of any shape: a one-sample method fed a block's
    row draws what the block drew for that sample."""

    def __init__(self, row):
        self._row, self._at = np.asarray(row, dtype=float).ravel(), 0

    def _take(self, shape):
        k = math.prod(shape)
        assert self._at + k <= self._row.size, "the row has no draws left"
        out = self._row[self._at:self._at + k].reshape(shape)
        self._at += k
        return out[()] if shape == () else out

    def standard_normal(self, size=None):
        return self._take(np.empty(() if size is None else size, bool).shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._take(np.broadcast(low, high).shape if size is None
                          else np.empty(size, bool).shape)

    @property
    def exhausted(self) -> bool:
        return self._at == self._row.size


def rows_of(stacks):
    """One flat row per sample of a list of (n, ...) block stacks, in the
    order of the stacks: what ``Replay`` serves a sample."""
    return np.concatenate([np.reshape(s, (len(s), -1)) for s in stacks], axis=1)


def replays(model, rng, n, *plan):
    """One ``Replay`` per sample of ``model.draw_samples(rng, n, *plan)``."""
    return [Replay(row) for row in rows_of(model.draw_samples(rng, n, *plan))]
