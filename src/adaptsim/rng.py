"""Deterministic random streams built on SplitMix64 and xoshiro256++.

Every stochastic draw in a simulation comes from a substream keyed on
``(master_seed, stream_id, purpose)``.  Purposes partition consumers
(agent initialization, lifecycle draws, personalization, sampling), so
adding draws to one consumer never shifts the values seen by another.
The generator pair is pinned by name in run manifests because bit-exact
reproducibility across runs and machines is part of the output contract.

A bank runs on ``uint64`` numpy arrays, one generator lane per agent.  A
draw takes an array of lane indices, so that only the agents that
actually consume a draw at a given step compute and advance their
streams; every other lane keeps its state.  A bank seeds its lanes in
passes of at most ``_SEED_CHUNK`` lanes, each pass one broadcast over the
four SplitMix64 outputs, so a small bank pays a few numpy calls and a
large one keeps its temporaries in cache.

A single stream (`Stream`), a seed derivation (`derive_seed`) and the
per-purpose base of `stream_seeds` are one value each, so they run on
Python integers masked to 64 bits and pay no numpy per-call cost.  Both
forms compute the same values: a `Stream` draws what a one-lane bank
draws.
"""

from __future__ import annotations

import numpy as np

RNG_ALGORITHMS = ("splitmix64", "xoshiro256++")

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX_1_INT = 0xBF58476D1CE4E5B9
_MIX_2_INT = 0x94D049BB133111EB


def _u64(value: int) -> np.ndarray:
    """A 0-d uint64 array: as an operand it skips the conversion that an
    np.uint64 scalar pays on every call, which on a small array costs
    about as much as the arithmetic."""
    return np.array(value, dtype=np.uint64)


_GOLDEN = _u64(_GOLDEN_INT)
_MIX_1 = _u64(_MIX_1_INT)
_MIX_2 = _u64(_MIX_2_INT)
_SHIFT = tuple(_u64(k) for k in range(64))
# k * golden for k = 1..4: a seed's four SplitMix64 states, as a column
_SPLITMIX_STEPS = (np.arange(1, 5, dtype=np.uint64) * _GOLDEN)[:, None]
# lanes seeded per pass: the (4, chunk) temporaries stay cache-sized
_SEED_CHUNK = 2**13

# Purpose tags feed the seeding hash; values are arbitrary but frozen.
PURPOSE_INIT = 0x101
PURPOSE_LIFECYCLE = 0x202
PURPOSE_PERSONALIZATION = 0x303
PURPOSE_SAMPLING = 0x404
PURPOSE_SWEEP = 0x505

_U53_SCALE = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, applied elementwise to uint64 input."""
    z = (z ^ (z >> _SHIFT[30])) * _MIX_1
    z = (z ^ (z >> _SHIFT[27])) * _MIX_2
    return z ^ (z >> _SHIFT[31])


def _mix64_int(z: int) -> int:
    """`_mix64` of one value in [0, 2**64), on Python integers."""
    z = ((z ^ (z >> 30)) * _MIX_1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2_INT) & _MASK
    return z ^ (z >> 31)


def _purpose_base(master_seed: int, purpose: int) -> int:
    """The hash that every stream seed of (master_seed, purpose) starts from."""
    return _mix64_int((int(master_seed) + _GOLDEN_INT * purpose) & _MASK)


def stream_seeds(master_seed: int, stream_ids: np.ndarray, purpose: int) -> np.ndarray:
    """Derive one 64-bit seed per stream id, decorrelated across purposes.

    The per-lane arithmetic stays on uint64 arrays: numpy warns on scalar
    uint64 overflow but wraps array operations silently, which is the
    behavior these hashes rely on.
    """
    # base + golden * (id + 1), with base + golden folded into one 0-d uint64
    first = _u64((_purpose_base(master_seed, purpose) + _GOLDEN_INT) & _MASK)
    return _mix64(first + _GOLDEN * stream_ids.astype(np.uint64, copy=False))


def _stream_seed(master_seed: int, stream_id: int, purpose: int) -> int:
    """`stream_seeds` of one stream id, on Python integers."""
    base = _purpose_base(master_seed, purpose)
    return _mix64_int((base + _GOLDEN_INT * (int(stream_id) + 1)) & _MASK)


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the master seed of sweep sample ``index``."""
    return _stream_seed(master_seed, index, PURPOSE_SWEEP)


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _SHIFT[k]) | (x >> _SHIFT[64 - k])


class StreamBank:
    """A bank of independent xoshiro256++ generators, one lane per stream.

    State is four uint64 rows of n lanes.  Each lane is seeded from four
    SplitMix64 outputs of its per-stream seed, the standard seeding
    recipe for the xoshiro family.
    """

    def __init__(self, master_seed: int, n: int, purpose: int):
        """Lanes are streams 0 .. n - 1 of (master_seed, purpose)."""
        seeds = stream_seeds(master_seed, np.arange(n, dtype=np.uint64), purpose)
        state = np.empty((4, n), dtype=np.uint64)
        for lo in range(0, n, _SEED_CHUNK):
            state[:, lo : lo + _SEED_CHUNK] = _mix64(seeds[lo : lo + _SEED_CHUNK] + _SPLITMIX_STEPS)
        self._state = list(state)

    @property
    def n(self) -> int:
        return self._state[0].size

    def next_u64(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """Return one uint64 per drawn lane and advance only those lanes.

        ``lanes`` is a sorted array of distinct lane indices, None for all
        lanes; values come back in its order, and every other lane keeps
        its state.
        """
        s0, s1, s2, s3 = self._state if lanes is None else [lane[lanes] for lane in self._state]
        result = _rotl(s0 + s3, 23) + s0
        n2 = s2 ^ s0
        n3 = s3 ^ s1
        new = [s0 ^ n3, s1 ^ n2, n2 ^ (s1 << _SHIFT[17]), _rotl(n3, 45)]
        if lanes is None:
            self._state = new
        else:
            for lane, value in zip(self._state, new):
                lane[lanes] = value
        return result

    def uniform(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """Uniform floats in [0, 1) with 53-bit resolution, one per drawn lane."""
        bits = self.next_u64(lanes)
        return (bits >> _SHIFT[11]).astype(np.float64) * _U53_SCALE


class Stream:
    """A single scalar stream: the lane ``stream_id`` of a bank, on Python integers."""

    def __init__(self, master_seed: int, stream_id: int, purpose: int):
        seed = _stream_seed(master_seed, stream_id, purpose)
        self._state = tuple(_mix64_int((seed + k * _GOLDEN_INT) & _MASK) for k in range(1, 5))

    def _next(self) -> int:
        """xoshiro256++ on four Python integers, as `StreamBank.next_u64`."""
        s0, s1, s2, s3 = self._state
        x = (s0 + s3) & _MASK
        result = ((x << 23 | x >> 41) + s0) & _MASK
        n2 = s2 ^ s0
        n3 = s3 ^ s1
        self._state = (s0 ^ n3, s1 ^ n2, n2 ^ ((s1 << 17) & _MASK), (n3 << 45 | n3 >> 19) & _MASK)
        return result

    def uniform(self) -> float:
        return (self._next() >> 11) * _U53_SCALE

    def randint(self, upper: int) -> int:
        """Uniform integer in [0, upper) by rejection, upper <= 2**53."""
        limit = 2**64 - 2**64 % upper
        while True:
            bits = self._next()
            if bits < limit:
                return bits % upper
