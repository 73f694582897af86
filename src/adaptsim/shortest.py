"""Shortest round-trip decimal text of float64 arrays, byte-equal to repr.

`cells(values)` formats a whole array at once in numpy integer arithmetic.
The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal inside the value's rounding interval,
the one closest to the value when several are that short, and the even one
on a tie.  Those are the digits of Python's `repr`, and so is the layout:
positional for decimal exponents -4..15 with `.0` on integral values,
scientific outside that range with a signed exponent of at least two
digits.  NaN is an empty cell.

Every step is exact integer arithmetic on uint64 (128-bit products are
built from 32-bit halves), so the bytes do not depend on the CPU or on
numpy's SIMD dispatch.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest repr of a float64: "-1.2345678901234567e-308"

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_32 = _U64(32)
_INF = 0x7FF << 52  # the bits of inf; larger magnitudes are NaN
_ONE = 0x3FF << 52  # the bits of 1.0


def _flog10pow2(e):
    """floor(e * log10(2)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1262611."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """floor(10^-k * 2^(125 - flog2pow10(-k))) + 1, in [2^125, 2^126)."""
    shift = 125 - _flog2pow10(-k)
    if k > 0:
        return (1 << shift) // 10**k + 1
    return (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1


def _binades() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's constants per binade: index the biased exponent, plus 2048
    for a power of two whose lower neighbour is closer than its upper one.

    Returns the digits' decimal exponent k, and the rows g1h, g1l, g0h, g0l,
    g1, scale, low and high.  g(k) is split into g1 = g >> 63 and g0, its
    low 63 bits, and those into 32-bit halves.  For a significand c the
    rounding interval's midpoint is 4c * scale, its ends that less low and
    plus high.
    """
    irregular = np.arange(4096) >= 2048
    q = np.maximum(np.arange(4096) % 2048, 1) - 1075
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    g = [_g(j) for j in range(-324, 293)]
    g1 = np.array([x >> 63 for x in g], dtype=_U64).take(k + 324)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=_U64).take(k + 324)
    h = q + _flog2pow10(-k) + 2  # 2..5, so 4c * scale is below 2^60
    scale = np.ones(4096, dtype=_U64) << (h + 2).astype(_U64)
    low = scale >> (irregular + 1).astype(_U64)
    return k, np.stack([g1 >> _32, g1 & _M32, g0 >> _32, g0 & _M32, g1, scale, low, scale >> _U64(1)])


_K, _BINADES = _binades()
_POW10 = np.array([10**i for i in range(18)], dtype=_U64)
# the four ASCII digits of 0..9999 as one little-endian uint32, and how many
# of them are trailing zeros (4 for 0)
_DIGITS4 = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_DIGITS4 = _DIGITS4.astype(np.uint8).view("<u4").ravel()
_ZEROS4 = sum(np.arange(10_000) % p == 0 for p in (10, 100, 1000, 10_000)).astype(np.int8)


def _rop(g, cp):
    """floor(g * cp / 2^127), rounded to odd: the low bit is set when the
    quotient is inexact.  g is g1h, g1l, g0h, g0l and g1; cp < 2^60."""
    g1h, g1l, g0h, g0l, g1 = g
    ch, cl = cp >> _32, cp & _M32
    # the high 64 bits of g0 * cp and g1 * cp, from 32-bit halves; no sum overflows
    x1 = g0h * ch + ((g0h * cl + g0l * ch + ((g0l * cl) >> _32)) >> _32)
    y1 = g1h * ch + ((g1h * cl + g1l * ch + ((g1l * cl) >> _32)) >> _32)
    z = ((g1 * cp) >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _decimal(bits):
    """Shortest digits f and exponent e with f * 10^e rounding to the finite,
    nonzero, positive float64 of each of `bits`."""
    t = bits & _U64((1 << 52) - 1)
    biased = bits >> _U64(52)
    irregular = (t == _U64(0)) & (biased > _U64(1))
    index = biased.astype(np.intp) + irregular * 2048
    *g, scale, low, high = _BINADES.take(index, axis=1)
    c = t | (biased != _U64(0)) * _U64(1 << 52)
    # the two smallest subnormals carry too few bits: format 10x, then scale
    tiny = bits < _U64(3)
    c += tiny * _U64(9) * c
    out = c & _U64(1)  # an odd c excludes the interval's ends
    cp = c * scale
    vb, vbl, vbr = _rop(g, np.stack([cp, cp - low, cp + high]))
    vbl += out
    vbr -= out
    s = vb >> _U64(2)
    # one digit fewer: the multiple of 10 either side of s, if just one is inside
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10)) << _U64(2) <= vbr
    # else s or s + 1, whichever is inside, or the closer of the two (even on a tie)
    uin = vbl <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    closer_s = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == _U64(0)))
    f = s + ~((uin & ~win) | ((uin == win) & closer_s))
    shorter = upin != wpin
    f += shorter * (sp10 + ~upin * _U64(10) - f)
    return f, _K.take(index) - tiny


# Cell layouts.  Each value gets a source row of eight uint32 words: digits
# 2..17, the exponent's four digits, then digit 1 and constant characters.
_SRC = {"0": 21, ".": 22, "-": 23, "e": 24, "+": 25, "i": 26, "n": 27, "f": 28, "": 29}
_WORD5 = int.from_bytes(b"00.-", "little")  # or-ed with digit 1
_WORDS67 = np.frombuffer(b"e+inf\0\0\0", dtype="<u4")
_POSITIONAL = 20  # modes 0..19: positional, the point after digit mode - 3
_SCIENTIFIC = 4  # then 4 scientific: exponent sign, and two or three digits
_MODES = _POSITIONAL + _SCIENTIFIC + 3  # then 0, inf and nan
_DECPT_MIN = -323  # the value is 0.d1d2... * 10^decpt, from 5e-324 to 1.8e308
_GATHER = 2048  # values whose byte index (WIDTH intp each) is built at once


def _layout(n: int, mode: int) -> list[int]:
    """The source columns of a positive value's cell, by significant digits and mode."""
    digit = [20] + list(range(n - 1))
    zero, dot = _SRC["0"], _SRC["."]
    if mode < _POSITIONAL:
        p = mode - 3
        if p <= 0:
            return [zero, dot] + [zero] * -p + digit
        if p < n:
            return digit[:p] + [dot] + digit[p:]
        return digit + [zero] * (p - n) + [dot, zero]
    if mode < _POSITIONAL + _SCIENTIFIC:
        exp_neg, three = divmod(mode - _POSITIONAL, 2)
        body = digit[:1] + ([dot] + digit[1:] if n > 1 else [])
        return body + [_SRC["e"], _SRC["-" if exp_neg else "+"]] + [17, 18, 19][1 - three :]
    return [[zero, dot, zero], [_SRC[c] for c in "inf"], []][mode - _POSITIONAL - _SCIENTIFIC]


def _layouts() -> np.ndarray:
    """Every layout as WIDTH source columns, padded with a 0 byte: the
    positive ones, then the negative ones (NaN empty in both)."""
    bodies = [_layout(n, mode) for n in range(1, 18) for mode in range(_MODES)]
    pos = np.array([body + [_SRC[""]] * (WIDTH - len(body)) for body in bodies])
    neg = np.concatenate([np.full((len(pos), 1), _SRC["-"]), pos[:, :-1]], axis=1)
    neg[[not body for body in bodies]] = _SRC[""]
    return np.concatenate([pos, neg]).astype(np.intp)


def _decpt_modes() -> np.ndarray:
    """The mode of each finite value's decpt, from _DECPT_MIN up."""
    decpt = np.arange(_DECPT_MIN, 310)
    exp = decpt - 1
    scientific = _POSITIONAL + 2 * (exp < 0) + (np.abs(exp) >= 100)
    return np.where((decpt >= -3) & (decpt <= 16), decpt + 3, scientific)


_LAYOUT = _layouts()
_DECPT_MODE = _decpt_modes()


def cells(values) -> np.ndarray:
    """The repr of each float64 of `values` as ASCII bytes, 0-padded to
    WIDTH along a last axis: a uint8 array of shape ``values.shape +
    (WIDTH,)``.  A NaN cell is all zeros."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = v.view(_U64)
    mag = bits & _M63
    # 0, inf and nan are formatted as 1.0, then given their own layouts
    special = (mag - _U64(1)) >= _U64(_INF - 1)
    f, e = _decimal(mag + special * (_U64(_ONE) - mag))
    # the digit count of f, from its bit length
    est = _flog10pow2((f.astype(np.float64).view(np.int64) >> 52) - 1023) + 1
    n_f = est + (f >= _POW10.take(est))
    f17 = f * _POW10.take(17 - n_f)
    hi = f17 // _U64(10**8)
    d1 = hi // _U64(10**8)
    mid = (hi - d1 * _U64(10**8)).view(np.int64)
    lo = (f17 - hi * _U64(10**8)).view(np.int64)
    mid_hi, lo_hi = mid // 10_000, lo // 10_000
    chunks = (mid_hi, mid - mid_hi * 10_000, lo_hi, lo - lo_hi * 10_000)
    zeros = _ZEROS4.take(chunks[0])
    for chunk in chunks[1:]:
        zeros = _ZEROS4.take(chunk) + (chunk == 0) * zeros
    decpt = e + n_f
    src = np.empty((v.size, 8), dtype="<u4")
    for word, chunk in enumerate(chunks):
        src[:, word] = _DIGITS4.take(chunk)
    src[:, 4] = _DIGITS4.take(np.abs(decpt - 1))
    src[:, 5] = d1.astype("<u4") | np.uint32(_WORD5)
    src[:, 6:] = _WORDS67
    mode = _DECPT_MODE.take(decpt - _DECPT_MIN)
    special_mode = _MODES - 3 + (mag >= _U64(_INF)) + (mag > _U64(_INF))
    mode += special * (special_mode - mode)
    key = (bits >> _U64(63)).astype(np.intp) * (17 * _MODES) + (16 - zeros.astype(np.intp)) * _MODES + mode
    # gathered a sub-chunk at a time: the byte index is the largest temporary
    # (simulate_emit, with 8192-row blocks on two threads, peaked at 92.0-92.4
    # MiB with one take a block, 83.3-84.6 MiB in sub-chunks)
    out = np.empty((v.size, WIDTH), dtype=np.uint8)
    src_bytes = src.view(np.uint8).ravel()
    for i in range(0, v.size, _GATHER):
        idx = _LAYOUT.take(key[i : i + _GATHER], axis=0)
        idx += np.arange(32 * i, 32 * (i + len(idx)), 32)[:, None]
        src_bytes.take(idx, out=out[i : i + _GATHER])
    return out.reshape(np.shape(values) + (WIDTH,))
