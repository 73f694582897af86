"""The vectorized float formatter against its oracle, Python's repr.

`shortest.cells` must give the bytes of `repr(float(v))` for every float64,
and an empty cell for NaN, whatever SIMD dispatch numpy picks.
"""

import functools
import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptsim import shortest

MANTISSA = (1 << 52) - 1


@functools.cache
def halfway_ties() -> list[float]:
    """Values exactly halfway between their two nearest shortest decimals.

    odd / 2^(m+1) is halfway between two m-decimal numbers; when its
    significand is exactly odd << j and the binade is fine enough, both lie
    inside its rounding interval and no shorter decimal does, so repr has
    to break the tie.
    """
    rng = np.random.default_rng(16)
    ties = []
    for m in range(1, 17):
        for j in range(0, int(m * 2.33) + 1):
            lo, hi = (1 << 52 >> j) + 1, (1 << 53) - 1 >> j
            for odd in rng.integers(lo, hi, 40).tolist():
                v = (odd | 1) / 2.0 ** (m + 1)
                text = repr(v)
                if "e" not in text and Decimal(v).scaleb(len(text.split(".")[1])) % 1 == Decimal("0.5"):
                    ties.append(v)
    return ties


@functools.cache
def corpus() -> np.ndarray:
    """Every binade's first and last two values (subnormals and the zeros
    included), the smallest subnormals, every power of ten from 1e-323 to
    1e308 with both neighbours, the 1e-4 and 1e16 layout switches, halfway
    ties, infinities, NaNs, all with both signs, and 10^6 random bit
    patterns from a fixed seed."""
    edges = (np.arange(2048, dtype=np.uint64)[:, None] << np.uint64(52)) + np.array(
        [0, 1, MANTISSA - 1, MANTISSA], dtype=np.uint64
    )
    subnormals = np.arange(1, 1 << 12, dtype=np.uint64)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    switches = np.array([1e-4, 1e-5, 9.999999999999999e-5, 1e15, 1e16, 9999999999999998.0, 1e17])
    exact = np.concatenate([tens, switches, np.array(halfway_ties())])
    around = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])
    special = np.array([0x7FF8 << 48, 0x7FF0_0000_0000_0001, (0x7FF8 << 48) | 12345], dtype=np.uint64)
    positive = np.concatenate([edges.ravel(), subnormals, around.view(np.uint64), special])
    random = np.random.default_rng(20_250_101).integers(0, 1 << 64, 10**6, dtype=np.uint64, endpoint=False)
    return np.concatenate([positive, positive | np.uint64(1 << 63), random]).view(np.float64)


def repr_cells(values) -> np.ndarray:
    """The oracle: repr of each value, "" for NaN, as 0-padded byte rows."""
    text = np.array(["" if math.isnan(v) else repr(v) for v in values.tolist()], dtype=f"S{shortest.WIDTH}")
    return text.view(np.uint8).reshape(len(values), shortest.WIDTH)


def text_of(cell) -> bytes:
    """A cell's text: its nonzero bytes, as no repr holds a NUL byte, so
    comparing whole 0-padded rows checks each cell's length too."""
    length = np.count_nonzero(cell)
    assert not cell[length:].any(), "a cell's padding is not all at its end"
    return bytes(cell[:length])


def digest(values) -> str:
    return hashlib.sha256(shortest.cells(values).tobytes()).hexdigest()


def test_corpus_covers_ties_and_both_layout_switches():
    ties = halfway_ties()
    assert len(ties) > 1000
    assert all(int(repr(v)[-1]) % 2 == 0 for v in ties)  # repr breaks ties to even
    texts = {repr(v) for v in corpus()[:-(10**6)].tolist()}
    assert {"0.0001", "1e-05", "1000000000000000.0", "1e+16", "5e-324", "-0.0", "-inf"} <= texts


def test_corpus_matches_repr_byte_for_byte():
    values = corpus()
    cells = shortest.cells(values)
    bad = np.flatnonzero((cells != repr_cells(values)).any(axis=1))
    shown = [(repr(v), bytes(cells[i])) for i, v in zip(bad[:5], values[bad[:5]].tolist())]
    assert bad.size == 0, f"{bad.size} cells differ from repr, first: {shown}"


@pytest.mark.parametrize(
    "values",
    [1.5, np.float64(-2.0), [1.5, -2.0], np.empty(0), np.empty((3, 0)),
     [[1.5, -2.0, math.nan], [1e300, 0.0, -math.inf]]],
    ids=["0-d", "0-d numpy", "1-d", "empty", "empty 2-d", "2-d"],
)
def test_cells_have_the_shape_of_the_values_plus_a_last_axis(values):
    cells = shortest.cells(values)
    assert cells.shape == np.shape(values) + (shortest.WIDTH,) and cells.dtype == np.uint8
    want = [b"" if math.isnan(v) else repr(v).encode() for v in np.ravel(values).tolist()]
    assert [text_of(cell) for cell in cells.reshape(-1, shortest.WIDTH)] == want


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats())
@example(5e-324)
@example(-0.0)
@example(1.7976931348623157e308)
def test_any_float_matches_repr(x):
    want = b"" if math.isnan(x) else repr(x).encode()
    assert text_of(shortest.cells(x)) == want


def test_bytes_do_not_depend_on_simd_dispatch():
    # integer arithmetic only, so disabling numpy's AVX-512 and AVX2 loops
    # must leave every byte as it is
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import test_shortest as t; print(t.digest(t.corpus()))"
    here = digest(corpus())
    for disabled in ("X86_V4", "X86_V3 X86_V4"):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here, disabled
