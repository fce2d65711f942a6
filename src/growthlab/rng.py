"""Counter-based random number generation.

Every Monte Carlo experiment in the package draws from a Philox generator
keyed by an experiment seed.  Philox is counter-based, so a (seed, stream)
pair addresses its stream deterministically: results are bit-reproducible
for a fixed seed regardless of how work is batched.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given experiment seed and stream index."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) ^ (np.uint64(stream) << np.uint64(20))))
