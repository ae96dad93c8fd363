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
by 10^-e10. 5^i is read as a 125-bit table entry P (i < 326), so each is
floor(m * P / 2^j). The 55 x 125-bit product mv * P is formed once, as three
64-bit words: the low words of its two 64 x 64-bit parts are native wrapping
uint64 products, and only their high words need 32-bit limbs. The ends are
derived from it, mv * P + 2P and mv * P - (1 + mmShift) * P, with the carries
and borrows taken word by word (Ryu's mulShiftAll64), at two additions each
instead of two more products. Digits are then removed while vp // 10 >
vm // 10, and the result rounds up when the last removed digit is >= 5 or vr
sits on the excluded lower bound.

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
The longest result, `-2.2250738585072014e-308`, has 24 bytes. The 17 digits
(left-aligned) are taken from two uint32 halves below 10^9: each of 9
divisions yields one digit of both, where one uint64 division per digit took 17.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 1 << 13  # values per pass; the temporaries take about 215 bytes per value
_WIDTH = 24  # bytes of the longest float64 repr
_GATHER = BLOCK // 4  # values whose bytes `_layout` gathers at once: 8 bytes an index
_M32 = 0xFFFFFFFF
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_POW5_COUNT = 326  # 5^i for i < 326: the powers the fast path reads


@functools.cache
def _pow5_split() -> tuple[np.ndarray, np.ndarray]:
    """(low 64 bits, high bits) of P_i = 5^i scaled to exactly 125 bits
    (truncated), Ryu's DOUBLE_POW5_SPLIT, at index i < 326, and of 2 * P_i
    at index 326 + i."""
    split = [(5 ** i << 125) >> (5 ** i).bit_length() for i in range(_POW5_COUNT)]
    split += [2 * s for s in split]
    lo = np.array([s & (2 ** 64 - 1) for s in split], np.uint64)
    hi = np.array([s >> 64 for s in split], np.uint64)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _mul_high(a0, a1, b):
    """The high 64 bits of a * b, with a given as its 32-bit limbs (a0, a1)."""
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = a0 * b0 >> 32
    mid += p01 & _M32
    mid += p10 & _M32
    mid >>= 32
    mid += a1 * b1
    mid += p01 >> 32
    mid += p10 >> 32
    return mid


def _scaled(x):
    """(fast, exp10, vr, vp, vm) for a 1-D float64 array: the fast-path mask,
    and Ryu's value and rounding-interval ends, each floor(m * 5^i / 2^q) =
    floor(m * P_i / 2^j), scaled by 10^-exp10 (garbage off the fast path)."""
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
    # j - 64, for j = q - (pow5bits - 125) with pow5bits the bit length of 5^i.
    right = (q - (i * 1217359 >> 19) + 60).astype(np.uint64)
    left = 64 - right
    exp10 = q - me2
    # Table index of vm's multiple of P, 1 + mmShift: mmShift is 0 only at a
    # power of two above the lowest normal, whose interval is closer below.
    sub = i + ((fraction != 0) | (ieee_e <= 1)) * _POW5_COUNT
    del bits, ieee_e, fraction, normal, me2, q

    # W = mv * P as the words (w2, w1, w0): the low words of the two
    # products wrap natively, their high words come from 32-bit limbs.
    lo, hi = _pow5_split()
    p_lo, p_hi = lo[i], hi[i]
    a0, a1 = mv & _M32, mv >> 32
    t = _mul_high(a0, a1, p_lo)
    w1 = mv * p_hi
    w1 += t
    w2 = _mul_high(a0, a1, p_hi)
    w2 += w1 < t
    w0 = mv * p_lo
    del p_lo, p_hi, a0, a1, t, mv
    vr = (w2 << left) | (w1 >> right)
    # vp = W + 2P and vm = W - (1 + mmShift) * P, carried word by word.
    i += _POW5_COUNT
    s_lo, s_hi = lo[i], hi[i]
    s_hi += s_lo > ~w0  # the carry out of w0
    s_hi += w1
    vp = (w2 + (s_hi < w1)) << left
    vp |= s_hi >> right
    s_lo, s_hi = lo[sub], hi[sub]
    s_hi += s_lo > w0  # the borrow out of w0
    np.subtract(w1, s_hi, out=s_hi)
    vm = (w2 - (s_hi > w1)) << left
    vm |= s_hi >> right
    return fast, exp10, vr, vp, vm


def _shortest(x):
    """(fast, digits, exp10) for a 1-D float64 array: the fast-path mask, and
    the shortest round-trip digits of each value as an integer with the power
    of ten of their last digit; (1, 0) off the fast path."""
    fast, exp10, vr, vp, vm = _scaled(x)
    # Remove digits while the interval still holds a shorter number; the
    # last removed digit decides the rounding. Nearly every value removes one
    # or two: those steps run over the whole block, later ones only over the
    # rows still removing.
    removed = np.zeros(vr.size, np.int64)
    round_up = np.zeros(vr.size, bool)
    for _ in range(2):
        vp10, vm10 = vp // 10, vm // 10
        step = vp10 > vm10
        r10 = vr // 10
        np.copyto(round_up, vr - r10 * 10 >= 5, where=step)
        np.copyto(vr, r10, where=step)
        np.copyto(vp, vp10, where=step)
        np.copyto(vm, vm10, where=step)
        removed += step
    vp10, vm10 = vp // 10, vm // 10
    rows = np.flatnonzero(vp10 > vm10)
    vp10, vm10 = vp10[rows], vm10[rows]
    while rows.size:
        r = vr[rows]
        r10 = r // 10
        round_up[rows] = r - r10 * 10 >= 5
        vr[rows], vm[rows] = r10, vm10
        removed[rows] += 1
        vp10, vm10 = vp10 // 10, vm10 // 10
        step = vp10 > vm10
        rows, vp10, vm10 = rows[step], vp10[step], vm10[step]
    digits = vr + ((vr == vm) | round_up)
    return fast, np.where(fast, digits, 1), np.where(fast, exp10 + removed, 0)


# Rows of the source block that `_layout` gathers each value's bytes from,
# one column per value: a spare '0', the value's 17 digits (left-aligned,
# '0'-padded), then "0.-", its exponent part ("e-05", "e+16", "e-308";
# NUL-padded to 5 bytes) and a NUL.
_ZERO, _DOT, _MINUS, _EXP, _NUL = 18, 19, 20, 21, 26
_DECPT = range(-323, 18)  # decpt of the fast path, 5e-324 to 2^54
_FIXED = range(-3, 17)  # decpt of the fixed form
_CLASSES = len(_FIXED) + 1  # one more for the exponent form


def _columns(negative, nd, cls):
    """Source rows of the 'r' layout of a value with nd digits whose decpt
    is _FIXED[cls], or that takes the exponent form (cls == len(_FIXED))."""
    digits = list(range(1, nd + 1))
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
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(templates, tails, classes): _columns of every (sign, digit count,
    class), indexed by (sign * 17 + nd - 1) * _CLASSES + class; the source
    rows from _ZERO on, one column for every decpt in _DECPT; and the class
    of every decpt in _DECPT."""
    templates = np.array([_columns(negative, nd, cls) for negative in (0, 1)
                          for nd in range(1, 18) for cls in range(_CLASSES)], np.intp)
    tails = np.array([list(b"0.-" + f"e{decpt - 1:+03d}".encode().ljust(5, b"\0") + b"\0")
                      for decpt in _DECPT], np.uint8).T.copy()
    classes = np.array([decpt - _FIXED.start if decpt in _FIXED else len(_FIXED)
                        for decpt in _DECPT], np.intp)
    for table in (templates, tails, classes):
        table.flags.writeable = False
    return templates, tails, classes


def _layout(negative, digits, exp10, out):
    """Write the 'r' layout of each value (digits, exp10) into the (n,) S24
    array out: one template row per value, gathered from its own source
    column, _GATHER values at a time."""
    templates, tails, classes = _tables()
    n = digits.size
    nd = np.searchsorted(_POW10, digits, side="right")  # digit count
    decpt = exp10 + nd - _DECPT.start  # from 0
    src = np.empty((_NUL + 1, n), np.uint8)
    # The 17 digits as two halves below 10^9, the first led by the spare
    # '0': each step writes one digit of both.
    rest = digits * _POW10[17 - nd]
    top = rest // 10 ** 9
    halves = np.empty((2, n), np.uint32)
    halves[0] = top
    halves[1] = rest - top * 10 ** 9
    for j in range(8, -1, -1):
        q = halves // 10
        src[j:j + 10:9] = halves - q * 10
        halves = q
    src[:_ZERO] += 48
    np.take(tails, decpt, axis=1, out=src[_ZERO:], mode="clip")
    code = (negative * 17 + nd - 1) * _CLASSES + classes[decpt]
    flat, columns, rows = src.reshape(-1), templates * n, np.arange(n)[:, None]
    dst = out.view(np.uint8).reshape(n, _WIDTH)
    for start in range(0, n, _GATHER):
        at = np.take(columns, code[start:start + _GATHER], axis=0)
        at += rows[start:start + _GATHER]
        np.take(flat, at, out=dst[start:start + _GATHER], mode="clip")


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
        _layout(np.signbit(x), digits, exp10, out)
        zero = x == 0
        out[zero] = np.where(np.signbit(x[zero]), b"-0.0", b"0.0")
        for j in np.flatnonzero(~fast & ~zero):
            out[j] = repr(float(x[j]))
    return table
