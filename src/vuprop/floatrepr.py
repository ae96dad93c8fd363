"""`repr` of float64 arrays in numpy: the bytes of `repr(float(v))` per value.

CPython's repr is the shortest decimal string that reads back as the same
double, and among those the closest to it, laid out by the 'r' rules below.
Calling it once per value costs about 1 us of interpreter work; this module
computes the same digits for whole blocks of values with the common path of
Ryu's d2s (Adams, "Ryu: fast float-to-string conversion", PLDI 2018).

Fast path: every finite nonzero value with |x| < 2^54, which is Ryu's e2 < 0
branch. With x = m2 * 2^e2 (two extra bits in e2 for the interval bounds),
  q = max(0, floor(-e2 * log10 5) - 1),   e10 = q + e2,   i = -e2 - q,
and vr, vp, vm are floor(m * 5^i / 2^q) for m = 4*m2, 4*m2 + 2 and
4*m2 - 1 - mmShift: the value and the ends of its rounding interval, scaled
by 10^-e10. 5^i is read as a 125-bit table entry (i < 326) and the 55 x 125-bit
product is formed from 32-bit limbs in uint64 arrays ("mulShift64"). Digits
are then removed while vp // 10 > vm // 10, and the result rounds up when the
last removed digit is >= 5 or vr sits on the excluded lower bound.

That rounding is exact only when none of vr, vp, vm is an integer before the
floor: q >= 2 and mv = 4*m2 not divisible by 2^q (vp and vm have at most one
trailing zero bit, so they then never are). Zeros, common in probability
tables, are written as the fixed bytes `0.0` and `-0.0`. Every other value -
inf, nan, |x| >= 2^54, q <= 1, and mv divisible by 2^q, which are Ryu's
trailing-zero cases and take in every |x| >= 2^49 (q <= 2) - is formatted by
`repr` itself, so the output never rests on an unproven case.

Layout, CPython's format_float_short with 'r' and Py_DTSF_ADD_DOT_0: with the
digits d1..dn and x = 0.d1..dn * 10^decpt, exponent form when decpt <= -4 or
decpt > 16 (`1.5e-05`, `1e+16`: at least two exponent digits), else fixed
form, `.0` appended to integral values; a leading `-` on negative values.
The longest result, `-2.2250738585072014e-308`, has 24 bytes.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 1 << 13  # values per pass; the temporaries take a few hundred bytes per value
_WIDTH = 24  # bytes of the longest float64 repr
_M32 = 0xFFFFFFFF
_POW10 = 10 ** np.arange(18, dtype=np.uint64)


@functools.cache
def _pow5_split() -> tuple[np.ndarray, np.ndarray]:
    """5^i scaled to exactly 125 bits (truncated), i < 326, as (low 64 bits,
    high 61 bits): Ryu's DOUBLE_POW5_SPLIT."""
    split = [(5 ** i << 125) >> (5 ** i).bit_length() for i in range(326)]
    lo = np.array([s & (2 ** 64 - 1) for s in split], np.uint64)
    hi = np.array([s >> 64 for s in split], np.uint64)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _umul128(a, b):
    """(low, high) 64-bit halves of a * b, from 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return (mid << 32) | (p00 & _M32), a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul_shift(m, lo, hi, dist):
    """floor(m * (hi * 2^64 + lo) / 2^(64 + dist)) for m < 2^55, 0 < dist < 64."""
    high0 = _umul128(m, lo)[1]
    low1, high1 = _umul128(m, hi)
    total = high0 + low1
    high1 += total < high0  # the carry out of the middle word
    return (high1 << (64 - dist)) | (total >> dist)


def _shortest(x):
    """(fast, digits, exp10) for a 1-D float64 array: the fast-path mask, and
    the shortest round-trip digits of each value as an integer with the power
    of ten of their last digit; (1, 0) off the fast path."""
    bits = x.view(np.uint64)
    ieee_e = (bits >> 52 & 0x7FF).astype(np.int64)
    fraction = bits & (2 ** 52 - 1)
    normal = ieee_e != 0
    mv = (fraction | normal.astype(np.uint64) << 52) << 2  # 4 * m2
    # -e2, where e2 keeps two extra bits for the interval bounds. A value
    # with e2 >= 0 gets 1, so its q of 0 takes it off the fast path.
    me2 = np.maximum(np.where(normal, 1077 - ieee_e, 1076), 1)
    q = (me2 * 732923 >> 20) - (me2 > 1)  # floor(-e2 * log10 5) - 1, at least 0
    # Off also: mv divisible by 2^q, which takes in +-0.0.
    fast = (q > 1) & (mv & ((1 << np.minimum(q, 63).astype(np.uint64)) - 1) != 0)
    i = me2 - q
    pow5bits = (i * 1217359 >> 19) + 1  # bit length of 5^i
    dist = (q - pow5bits + 61).astype(np.uint64)  # j - 64, j = q - (pow5bits - 125)
    lo, hi = (t[i] for t in _pow5_split())
    mm_shift = ((fraction != 0) | (ieee_e <= 1)).astype(np.uint64)
    vr = _mul_shift(mv, lo, hi, dist)
    vp = _mul_shift(mv + 2, lo, hi, dist)
    vm = _mul_shift(mv - 1 - mm_shift, lo, hi, dist)

    # Remove digits while the interval still holds a shorter number, stepping
    # only the rows that do; the last removed digit decides the rounding.
    removed = np.zeros(vr.size, np.int64)
    round_up = np.zeros(vr.size, bool)
    rows = np.arange(vr.size)
    vp10, vm10 = vp // 10, vm // 10
    while rows.size:
        step = vp10 > vm10
        rows, vp10, vm10 = rows[step], vp10[step], vm10[step]
        r = vr[rows]
        r10 = r // 10
        round_up[rows] = r - r10 * 10 >= 5
        vr[rows], vm[rows] = r10, vm10
        removed[rows] += 1
        vp10, vm10 = vp10 // 10, vm10 // 10
    digits = vr + ((vr == vm) | round_up)
    return fast, np.where(fast, digits, 1), np.where(fast, q - me2 + removed, 0)


# Columns of the source row that `_layout` gathers each value's bytes from:
# its 17 digits (left-aligned, '0'-padded), then "0.-", its exponent part
# ("e-05", "e+16", "e-308"; NUL-padded to 5 bytes) and a NUL.
_ZERO, _DOT, _MINUS, _EXP, _NUL = 17, 18, 19, 20, 25
_DECPT = range(-323, 18)  # decpt of the fast path, 5e-324 to 2^54
_FIXED = range(-3, 17)  # decpt of the fixed form
_CLASSES = len(_FIXED) + 1  # one more for the exponent form


def _columns(negative, nd, cls):
    """Source columns of the 'r' layout of a value with nd digits whose decpt
    is _FIXED[cls], or that takes the exponent form (cls == len(_FIXED))."""
    digits = list(range(nd))
    if cls == len(_FIXED):
        body = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else []) + list(range(_EXP, _NUL))
    elif (decpt := _FIXED[cls]) <= 0:
        body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
    elif decpt >= nd:
        body = digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
    else:
        body = digits[:decpt] + [_DOT] + digits[decpt:]
    row = [_MINUS] * negative + body
    return row + [_NUL] * (_WIDTH - len(row))


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """(templates, tails): _columns of every (sign, digit count, class),
    indexed by (sign * 17 + nd - 1) * _CLASSES + class, and the source
    columns from _ZERO on for every decpt in _DECPT."""
    templates = np.array([_columns(negative, nd, cls) for negative in (0, 1)
                          for nd in range(1, 18) for cls in range(_CLASSES)], np.intp)
    tails = np.array([list(b"0.-" + f"e{decpt - 1:+03d}".encode().ljust(5, b"\0") + b"\0")
                      for decpt in _DECPT], np.uint8)
    templates.flags.writeable = tails.flags.writeable = False
    return templates, tails


def _layout(negative, digits, exp10):
    """The 'r' layout of each value (digits, exp10) as an (n,) S24 array:
    one template row per value, gathered from its own source row."""
    templates, tails = _tables()
    n = digits.size
    nd = np.searchsorted(_POW10, digits, side="right")  # digit count
    decpt = exp10 + nd
    fixed = (decpt >= _FIXED.start) & (decpt < _FIXED.stop)
    cls = np.where(fixed, decpt - _FIXED.start, len(_FIXED))
    src = np.empty((n, _NUL + 1), np.uint8)
    rest = digits * _POW10[17 - nd]
    for j in range(16, -1, -1):
        q = rest // 10
        src[:, j] = rest - q * 10 + 48
        rest = q
    src[:, _ZERO:] = np.take(tails, decpt - _DECPT.start, axis=0)
    at = np.take(templates, (negative * 17 + nd - 1) * _CLASSES + cls, axis=0)
    at += (np.arange(n) * (_NUL + 1))[:, None]
    return np.take(src.reshape(-1), at).view(f"S{_WIDTH}")[:, 0]


def repr_table(values) -> np.ndarray:
    """The S24 array of repr(float(v)) for every value, byte for byte, in the
    shape of `values`; blocks of BLOCK values at a time."""
    values = np.asarray(values, float)
    table = np.empty(values.shape, f"S{_WIDTH}")
    flat_in = values.reshape(-1)
    flat_out = table.reshape(-1)
    for start in range(0, flat_in.size, BLOCK):
        x = np.ascontiguousarray(flat_in[start:start + BLOCK])
        out = flat_out[start:start + BLOCK]
        fast, digits, exp10 = _shortest(x)
        out[:] = _layout(np.signbit(x), digits, exp10)
        zero = x == 0
        out[zero] = np.where(np.signbit(x[zero]), b"-0.0", b"0.0")
        for j in np.flatnonzero(~fast & ~zero):
            out[j] = repr(float(x[j]))
    return table
