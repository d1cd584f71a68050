"""Counter-based random substreams.

All randomness in the package flows through keyed Philox streams. A stream
is addressed by (master_seed, tag, index): the 128-bit Philox key is
[seed, tag << 48 | index], so distinct (tag, index) pairs give statistically
independent streams that can be generated in any order, or in parallel,
with identical output.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# Stream tags; keep indices below 2**48 per tag.
TAG_COLUMN = 0      # sample-matrix columns
TAG_TRIAL = 1       # per-trial seeds in experiments
TAG_BATCH = 2       # Monte Carlo batches (xi draws)
TAG_TRIAL_B = 3     # per-trial seeds of ensemble_b, a run's second family

_INDEX_BITS = 48
_INDEX_LIMIT = 1 << _INDEX_BITS


def _key(seed: int, tag: int, index: int) -> list[int]:
    if not 0 <= index < _INDEX_LIMIT:
        raise ValueError(f"substream index out of range: {index}")
    if not 0 <= tag < (1 << 16):
        raise ValueError(f"substream tag out of range: {tag}")
    return [seed & (2**64 - 1), (tag << _INDEX_BITS) | index]


def substream(seed: int, tag: int, index: int) -> np.random.Generator:
    """Generator for the (seed, tag, index) substream."""
    key = np.array(_key(seed, tag, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substreams(seed: int, tag: int, indices: Iterable[int]
               ) -> Iterator[np.random.Generator]:
    """The substream(seed, tag, index) generator for each index in turn.

    One Philox is re-keyed in place per index: its state is set to that of
    a freshly keyed Philox (counter 0, empty output buffer, no buffered
    32-bit half), so the draws are bit-identical to substream's without
    constructing a generator per index. The same Generator object is
    yielded every time; it is valid until the next one is requested.
    """
    rng = np.random.Generator(np.random.Philox(key=np.zeros(2, np.uint64)))
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for index in indices:
        state["state"]["key"] = _key(seed, tag, index)
        rng.bit_generator.state = state
        yield rng


def derive_seed(seed: int, tag: int, index: int) -> int:
    """Derive a 64-bit child seed; used to key independent sub-runs."""
    return int(substream(seed, tag, index).integers(0, 2**63 - 1, dtype=np.int64))
