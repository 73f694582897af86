"""Deterministic random streams built on SplitMix64 and xoshiro256++.

Every stochastic draw in a simulation comes from a substream keyed on
``(master_seed, stream_id, purpose)``.  Purposes partition consumers
(agent initialization, lifecycle draws, personalization, sampling), so
adding draws to one consumer never shifts the values seen by another.
The generator pair is pinned by name in run manifests because bit-exact
reproducibility across runs and machines is part of the output contract.

All hot paths operate on ``uint64`` numpy arrays, one generator lane per
agent.  Lanes can be advanced under a boolean mask so that only agents
that actually consume a draw at a given step advance their streams.
"""

from __future__ import annotations

import numpy as np

RNG_ALGORITHMS = ("splitmix64", "xoshiro256++")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

# Purpose tags feed the seeding hash; values are arbitrary but frozen.
PURPOSE_INIT = 0x101
PURPOSE_LIFECYCLE = 0x202
PURPOSE_PERSONALIZATION = 0x303
PURPOSE_SAMPLING = 0x404
PURPOSE_SWEEP = 0x505

_U53_SCALE = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, applied elementwise to uint64 input."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _splitmix_sequence(seeds: np.ndarray, count: int) -> list[np.ndarray]:
    """Return `count` successive SplitMix64 outputs for each seed lane."""
    state = seeds.copy()
    outputs = []
    for _ in range(count):
        state = state + _GOLDEN
        outputs.append(_mix64(state))
    return outputs


def stream_seeds(master_seed: int, stream_ids: np.ndarray, purpose: int) -> np.ndarray:
    """Derive one 64-bit seed per stream id, decorrelated across purposes.

    Arithmetic stays on uint64 arrays throughout: numpy warns on scalar
    uint64 overflow but wraps array operations silently, which is the
    behavior these hashes rely on.
    """
    packed = np.asarray([master_seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    base = _mix64(packed[:1] + _GOLDEN * packed[1:])
    return _mix64(base + _GOLDEN * (stream_ids.astype(np.uint64) + np.uint64(1)))


def derive_seed(master_seed: int, index: int, purpose: int = PURPOSE_SWEEP) -> int:
    """Derive a child master seed, e.g. one per sweep sample."""
    ids = np.asarray([index], dtype=np.uint64)
    return int(stream_seeds(master_seed, ids, purpose)[0])


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class StreamBank:
    """A bank of independent xoshiro256++ generators, one lane per stream.

    State is a (4, n) uint64 array.  Each lane is seeded from four
    SplitMix64 outputs of its per-stream seed, the standard seeding
    recipe for the xoshiro family.
    """

    def __init__(self, master_seed: int, n: int, purpose: int, first_id: int = 0):
        """Lanes are streams first_id .. first_id + n - 1 of (master_seed, purpose)."""
        ids = np.arange(first_id, first_id + n, dtype=np.uint64)
        seeds = stream_seeds(master_seed, ids, purpose)
        s0, s1, s2, s3 = _splitmix_sequence(seeds, 4)
        self._state = np.stack([s0, s1, s2, s3])

    @property
    def n(self) -> int:
        return self._state.shape[1]

    def next_u64(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Return one uint64 per lane, advancing only lanes where mask holds.

        Lanes outside the mask keep their state; their returned values
        are computed but must be ignored by the caller.
        """
        s0, s1, s2, s3 = self._state
        result = _rotl(s0 + s3, 23) + s0
        t = s1 << np.uint64(17)
        n2 = s2 ^ s0
        n3 = s3 ^ s1
        n1 = s1 ^ n2
        n0 = s0 ^ n3
        n2 = n2 ^ t
        n3 = _rotl(n3, 45)
        if mask is None:
            self._state = np.stack([n0, n1, n2, n3])
        else:
            keep = ~mask
            self._state = np.stack(
                [
                    np.where(keep, s0, n0),
                    np.where(keep, s1, n1),
                    np.where(keep, s2, n2),
                    np.where(keep, s3, n3),
                ]
            )
        return result

    def uniform(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Uniform floats in [0, 1) with 53-bit resolution, one per lane."""
        bits = self.next_u64(mask)
        return (bits >> np.uint64(11)).astype(np.float64) * _U53_SCALE


class Stream:
    """A single scalar stream, convenience wrapper over a one-lane bank."""

    def __init__(self, master_seed: int, stream_id: int, purpose: int):
        self._bank = StreamBank(master_seed, 1, purpose, first_id=stream_id)

    def uniform(self) -> float:
        return float(self._bank.uniform()[0])

    def randint(self, upper: int) -> int:
        """Uniform integer in [0, upper) by rejection, upper <= 2**53."""
        span = np.uint64(upper)
        limit = np.uint64(2**64 - (2**64 % upper)) if (2**64 % upper) else np.uint64(0)
        while True:
            bits = self._bank.next_u64()[0]
            if limit == np.uint64(0) or bits < limit:
                return int(bits % span)
