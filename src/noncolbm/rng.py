"""Deterministic RNG substreams.

Every sampler takes an explicit generator or a (seed, key...) pair; a given
master seed plus key path always yields the same stream, independent of how
many other streams were drawn.  Callers that give each replicate its own key
can generate replicates in any order; the SDE integrators instead draw all
replicates of a call from one stream, in a fixed order.
"""

import numpy as np


def substream(seed, *key):
    """Generator for the substream identified by (seed, key...)."""
    entropy = [int(seed)] + [int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def as_generator(rng):
    """Coerce None / int seed / Generator into a Generator."""
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return substream(rng)
