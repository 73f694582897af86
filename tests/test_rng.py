"""Bit-level checks of the deterministic stream machinery.

The oracle here is a second, independent transcription of SplitMix64 and
xoshiro256++ written with plain Python integers.  Any divergence between
the vectorized uint64 implementation and this scalar reference fails the
dual-route comparison.
"""

import random

import numpy as np
import pytest

from adaptsim import rng

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_stream_seed(master_seed: int, stream_id: int, purpose: int) -> int:
    base = ref_mix64((master_seed + GOLDEN * purpose) & MASK)
    return ref_mix64((base + GOLDEN * (stream_id + 1)) & MASK)


def ref_splitmix(seed: int, count: int) -> list[int]:
    state = seed
    out = []
    for _ in range(count):
        state = (state + GOLDEN) & MASK
        out.append(ref_mix64(state))
    return out


def ref_rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK


class RefXoshiro:
    """Scalar xoshiro256++ as published, seeded the same way as StreamBank."""

    def __init__(self, master_seed: int, stream_id: int, purpose: int):
        seed = ref_stream_seed(master_seed, stream_id, purpose)
        self.s = ref_splitmix(seed, 4)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (ref_rotl((s0 + s3) & MASK, 23) + s0) & MASK
        t = (s1 << 17) & MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ref_rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def test_first_output_matches_hand_derivation():
    # With state {1, 2, 3, 4} the first xoshiro256++ output is
    # rotl(1 + 4, 23) + 1 = 5 * 2**23 + 1, derivable on paper.
    gen = RefXoshiro.__new__(RefXoshiro)
    gen.s = [1, 2, 3, 4]
    assert gen.next_u64() == 41943041

    bank = rng.StreamBank.__new__(rng.StreamBank)
    bank._state = np.asarray([[1], [2], [3], [4]], dtype=np.uint64)
    assert int(bank.next_u64()[0]) == 41943041


def test_stream_seeds_match_scalar_reference():
    ids = np.arange(7, dtype=np.uint64)
    for master in (0, 1, 42, 2**63 + 11, MASK):
        for purpose in (rng.PURPOSE_INIT, rng.PURPOSE_LIFECYCLE, rng.PURPOSE_SWEEP):
            got = rng.stream_seeds(master, ids, purpose)
            want = [ref_stream_seed(master, i, purpose) for i in range(7)]
            assert [int(v) for v in got] == want


def test_stream_seeds_distinct_across_ids_and_purposes():
    ids = np.arange(1000, dtype=np.uint64)
    a = rng.stream_seeds(99, ids, rng.PURPOSE_INIT)
    b = rng.stream_seeds(99, ids, rng.PURPOSE_LIFECYCLE)
    assert len(set(a.tolist())) == 1000
    assert not set(a.tolist()) & set(b.tolist())


def test_derive_seed_matches_reference_and_is_int():
    for master, index in [(0, 0), (7, 3), (2**62, 1000)]:
        got = rng.derive_seed(master, index)
        assert isinstance(got, int)
        assert got == ref_stream_seed(master, index, rng.PURPOSE_SWEEP)


def test_bank_lanes_match_scalar_reference_over_long_run():
    n = 5
    bank = rng.StreamBank(master_seed=123, n=n, purpose=rng.PURPOSE_LIFECYCLE)
    assert bank.n == n
    refs = [RefXoshiro(123, i, rng.PURPOSE_LIFECYCLE) for i in range(n)]
    for _ in range(200):
        got = bank.next_u64()
        want = [r.next_u64() for r in refs]
        assert [int(v) for v in got] == want


def test_masked_lanes_hold_their_state():
    n = 6
    bank = rng.StreamBank(master_seed=5, n=n, purpose=rng.PURPOSE_INIT)
    refs = [RefXoshiro(5, i, rng.PURPOSE_INIT) for i in range(n)]
    pattern = [
        np.asarray([0, 2, 4]),
        np.asarray([], dtype=np.int64),
        np.arange(6),
        np.asarray([2, 3]),
        np.asarray([5]),
    ]
    for step in range(40):
        lanes = pattern[step % len(pattern)]
        got = bank.next_u64(lanes)
        assert got.shape == lanes.shape  # one value per drawn lane
        for lane, value in zip(lanes, got):
            # Drawn lanes must emit the reference's next value.
            assert int(value) == refs[lane].next_u64()
    # After interleaved draws, every lane state equals its reference state.
    for i in range(n):
        assert [int(bank._state[j][i]) for j in range(4)] == refs[i].s


def test_uniform_range_and_resolution():
    bank = rng.StreamBank(master_seed=9, n=256, purpose=rng.PURPOSE_SAMPLING)
    draws = np.concatenate([bank.uniform() for _ in range(50)])
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
    # 53-bit mantissa grid: scaling back up must recover exact integers.
    scaled = draws * 2.0**53
    assert np.all(scaled == np.floor(scaled))
    assert abs(draws.mean() - 0.5) < 0.01


def test_uniform_matches_scalar_reference():
    stream = rng.Stream(master_seed=77, stream_id=4, purpose=rng.PURPOSE_INIT)
    ref = RefXoshiro(77, 4, rng.PURPOSE_INIT)
    for _ in range(64):
        assert stream.uniform() == ref.uniform()


def test_stream_randint_bounds_and_determinism():
    stream = rng.Stream(master_seed=3, stream_id=0, purpose=rng.PURPOSE_SAMPLING)
    draws = [stream.randint(10) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) < 10
    assert set(draws) == set(range(10))
    again = rng.Stream(master_seed=3, stream_id=0, purpose=rng.PURPOSE_SAMPLING)
    assert [again.randint(10) for _ in range(500)] == draws


def test_randint_uses_rejection_not_modulo_bias():
    # upper=3 leaves 2**64 % 3 == 1 unusable values; the acceptance
    # threshold must equal 2**64 - 1 so exactly one raw value is rejected.
    stream = rng.Stream(master_seed=11, stream_id=2, purpose=rng.PURPOSE_SAMPLING)
    ref = RefXoshiro(11, 2, rng.PURPOSE_SAMPLING)
    limit = 2**64 - (2**64 % 3)
    for _ in range(200):
        got = stream.randint(3)
        raw = ref.next_u64()
        while raw >= limit:
            raw = ref.next_u64()
        assert got == raw % 3


def test_different_seeds_decorrelate_streams():
    a = rng.StreamBank(master_seed=1, n=1, purpose=rng.PURPOSE_INIT)
    b = rng.StreamBank(master_seed=2, n=1, purpose=rng.PURPOSE_INIT)
    xs = [int(a.next_u64()[0]) for _ in range(32)]
    ys = [int(b.next_u64()[0]) for _ in range(32)]
    assert xs != ys


def test_algorithm_names_are_pinned():
    assert rng.RNG_ALGORITHMS == ("splitmix64", "xoshiro256++")


def test_purpose_constants_are_distinct():
    purposes = {
        rng.PURPOSE_INIT,
        rng.PURPOSE_LIFECYCLE,
        rng.PURPOSE_PERSONALIZATION,
        rng.PURPOSE_SAMPLING,
        rng.PURPOSE_SWEEP,
    }
    assert len(purposes) == 5


def test_no_runtime_warnings_from_uint64_wraparound():
    with np.errstate(over="raise"):
        # Array wraparound is silent by contract; this must not raise.
        ids = np.arange(4, dtype=np.uint64)
        rng.stream_seeds(MASK, ids, rng.PURPOSE_SWEEP)
        bank = rng.StreamBank(master_seed=MASK, n=4, purpose=rng.PURPOSE_INIT)
        bank.uniform()


def ref_randint(ref: RefXoshiro, upper: int) -> int:
    limit = 2**64 - 2**64 % upper
    while True:
        bits = ref.next_u64()
        if bits < limit:
            return bits % upper


PURPOSES = (rng.PURPOSE_INIT, rng.PURPOSE_LIFECYCLE, rng.PURPOSE_PERSONALIZATION,
            rng.PURPOSE_SAMPLING, rng.PURPOSE_SWEEP)


def test_stream_matches_scalar_reference_over_ten_thousand_draws():
    r = random.Random(24)
    for _ in range(20):
        master, stream_id = r.getrandbits(64), r.getrandbits(r.choice((4, 32, 64)))
        purpose = r.choice(PURPOSES)
        stream, ref = rng.Stream(master, stream_id, purpose), RefXoshiro(master, stream_id, purpose)
        for k in range(500):
            if k % 4 == 0:
                assert stream.uniform() == ref.uniform()
            else:
                upper = (3, 2**53, r.randint(1, 2**53))[k % 4 - 1]
                assert stream.randint(upper) == ref_randint(ref, upper)


def test_stream_draws_what_its_bank_lane_draws():
    # Stream(m, k, p) is lane k of a bank of (m, p); large ids are covered
    # by Stream against RefXoshiro and stream_seeds against ref_stream_seed
    r = random.Random(7)
    for _ in range(8):
        master, purpose = r.getrandbits(64), r.choice(PURPOSES)
        bank = rng.StreamBank(master, 64, purpose)
        streams = [rng.Stream(master, k, purpose) for k in range(64)]
        for k in range(40):
            if k % 2:
                assert [stream.uniform() for stream in streams] == bank.uniform().tolist()
            else:
                # 2**64 is a multiple of 2**53: no rejection, the low 53 bits
                want = [int(v) % 2**53 for v in bank.next_u64()]
                assert [stream.randint(2**53) for stream in streams] == want


@pytest.mark.parametrize("n", [1, rng._SEED_CHUNK - 1, rng._SEED_CHUNK, rng._SEED_CHUNK + 1,
                               3 * rng._SEED_CHUNK + 5])
def test_banks_across_seeding_chunks_match_scalar_reference(n):
    bank = rng.StreamBank(master_seed=2**63 + 5, n=n, purpose=rng.PURPOSE_LIFECYCLE)
    assert bank.n == n
    refs = [RefXoshiro(2**63 + 5, i, rng.PURPOSE_LIFECYCLE) for i in range(n)]
    assert [[int(v) for v in row] for row in bank._state] == [list(col) for col in zip(*(r.s for r in refs))]
    assert bank.next_u64().tolist() == [r.next_u64() for r in refs]
    # a masked draw across every chunk boundary
    lanes = np.arange(0, n, 3)
    assert bank.next_u64(lanes).tolist() == [refs[i].next_u64() for i in lanes]
    assert bank.next_u64().tolist() == [r.next_u64() for r in refs]


@pytest.mark.parametrize("master", [0, 12345, MASK])
@pytest.mark.parametrize("index", [0, 255, 2**32 + 1, 2**63 + 7, MASK])
def test_derive_seed_at_extreme_masters_and_indices(master, index):
    got = rng.derive_seed(master, index)
    assert isinstance(got, int)
    assert got == ref_stream_seed(master, index, rng.PURPOSE_SWEEP)
    ids = np.asarray([index], dtype=np.uint64)
    assert got == int(rng.stream_seeds(master, ids, rng.PURPOSE_SWEEP)[0])
