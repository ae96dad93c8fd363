import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from test_cli import _EDGE
from vuprop import GridSpec, Dim, MeasurementScenario, builtin, make_grid, output_matrix
from vuprop import floatrepr
from vuprop.floatrepr import BLOCK, _shortest, repr_table


def _reprs(values):
    return np.array([repr(v) for v in np.asarray(values, float).ravel().tolist()], "S24")


def _assert_matches_repr(values):
    values = np.asarray(values, float)
    table = repr_table(values)
    assert table.shape == values.shape and table.dtype == np.dtype("S24")
    expected = _reprs(values)
    bad = np.flatnonzero(table.ravel() != expected)
    assert bad.size == 0, [(values.ravel()[i], table.ravel()[i], expected[i]) for i in bad[:5]]


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_repr_table_matches_repr_on_any_bit_pattern(words):
    _assert_matches_repr(np.array(words, np.uint64).view(np.float64))


def test_repr_table_matches_repr_on_a_million_bit_patterns_and_the_hard_cases():
    rng = np.random.default_rng(20180618)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = 10.0 ** np.arange(-300, 300)
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    # The all-ones mantissa at every exponent: the largest mv of each binade,
    # whose vp is the next power of two's lower end.
    all_ones = (exponents | np.uint64(2 ** 52 - 1)).view(np.float64)
    # Subnormals (biased exponent 0) and the lowest normals (1), which take
    # mmShift = 1 even at a power of two.
    low = (rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64)
           | (np.arange(20_000, dtype=np.uint64) % 2 << np.uint64(52))).view(np.float64)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64),
        powers, -powers,
        # Either side of a power of two: its interval is asymmetric, and
        # mmShift flips from the power to its lower neighbour.
        np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        all_ones, -all_ones, low, -low,
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        _EDGE,
    ])
    _assert_matches_repr(values)


def _scaled_exactly(bits):
    """Ryu's (exp10, vr, vp, vm) of one fast-path float64 bit pattern, in
    Python integers: floor(m * P_i / 2^j) for m = mv, mv + 2, mv - 1 - mmShift."""
    ieee_e, fraction = bits >> 52 & 0x7FF, bits & (2 ** 52 - 1)
    mv = 4 * (fraction | (ieee_e != 0) << 52)
    me2 = max(1077 - ieee_e if ieee_e else 1076, 1)
    q = (me2 * 732923 >> 20) - (me2 > 1)
    i = me2 - q
    p = (5 ** i << 125) >> (5 ** i).bit_length()
    j = q - (5 ** i).bit_length() + 125
    mm_shift = int(fraction != 0 or ieee_e <= 1)
    return q - me2, mv * p >> j, (mv + 2) * p >> j, (mv - 1 - mm_shift) * p >> j


def _least_multiplier(a, m, lo, hi):
    """Least x >= 0 with lo <= a * x % m <= hi (0 <= lo <= hi < m), or None:
    Euclid's recursion on (a, m)."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _least_multiplier(m % a, a, (a - hi % a) % a, (a - lo % a) % a)
    return None if y is None else -(-(lo + m * y) // a)


def _low_word_carries():
    """Fast-path bit patterns, one per exponent where there is one, whose vp
    (then vm) needs the carry (borrow) out of the product's low 64-bit word:
    (4 * m2 + 2) * P_i mod 2^j below 2^64 (at or above 2^j - 2^64 for vm,
    which takes m = 4 * m2 - 2). A value reaches one with odds of 2^-55."""
    found = {"vp": [], "vm": []}
    for ieee_e in range(1, 1077 + 52):
        me2 = max(1077 - ieee_e, 1)
        q = (me2 * 732923 >> 20) - (me2 > 1)
        i = me2 - q
        p = (5 ** i << 125) >> (5 ** i).bit_length()
        m = 1 << (q - (5 ** i).bit_length() + 125)  # 2^j
        for end, (lo, hi), first in (("vp", (0, 2 ** 64 - 1), 2 ** 52 + 1),
                                     ("vm", (m - 2 ** 64, m - 1), 2 ** 52)):
            # k = m2 (vp) or m2 - 1 (vm): ((4k + 2) * p) % m in [lo, hi], k >= first
            c = (4 * p * first + 2 * p) % m
            lo_c, hi_c = (lo - c) % m, (hi - c) % m
            parts = [(lo_c, hi_c)] if lo_c <= hi_c else [(lo_c, m - 1), (0, hi_c)]
            steps = [t for t in (_least_multiplier(4 * p % m, m, *part) for part in parts)
                     if t is not None]
            m2 = first + min(steps, default=2 ** 53) + (end == "vm")
            if q > 2 and m2 < 2 ** 53:
                found[end].append(ieee_e << 52 | m2 - 2 ** 52)
    return found


def test_least_multiplier_against_a_scan():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        m = int(rng.integers(2, 60))
        a, lo = int(rng.integers(0, m)), int(rng.integers(0, m))
        hi = int(rng.integers(lo, m))
        scan = next((x for x in range(m + 1) if lo <= a * x % m <= hi), None)
        assert _least_multiplier(a, m, lo, hi) == scan


def test_interval_ends_from_one_product_match_exact_integers():
    # vp and vm come from mv * P by adding 2P and subtracting (1 + mmShift) * P
    # word by word. Every exponent with the all-ones, zero (a power of two,
    # mmShift 0 above the lowest normal), unit and a random mantissa; random
    # bit patterns; and _low_word_carries, whose ends the lowest word's carry
    # or borrow moves, which no random draw reaches.
    rng = np.random.default_rng(41)
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    mantissas = np.concatenate([np.full(2047, 2 ** 52 - 1), np.zeros(2047), np.ones(2047),
                                rng.integers(0, 2 ** 52, 2047)]).astype(np.uint64)
    carries = _low_word_carries()
    assert len(carries["vp"]) > 50 and len(carries["vm"]) > 50
    bits = np.concatenate([np.tile(exponents, 4) | mantissas,
                           rng.integers(0, 2 ** 63, 20_000, dtype=np.uint64),
                           np.array(carries["vp"] + carries["vm"], np.uint64)])
    fast, exp10, vr, vp, vm = floatrepr._scaled(bits.view(np.float64))
    assert fast[-len(carries["vp"]) - len(carries["vm"]):].all() and fast.sum() > 4000
    for k in np.flatnonzero(fast):
        assert (int(exp10[k]), int(vr[k]), int(vp[k]), int(vm[k])) == _scaled_exactly(int(bits[k]))
    _assert_matches_repr(bits.view(np.float64))


def test_repr_table_keeps_shape_and_crosses_blocks():
    rng = np.random.default_rng(3)
    values = rng.random((3, BLOCK + 7)) * 10.0 ** rng.integers(-8, 20, (3, BLOCK + 7))
    _assert_matches_repr(values)
    _assert_matches_repr(values.T)  # not contiguous
    assert repr_table(np.empty((0, 4))).shape == (0, 4)
    assert repr_table(2.5).tolist() == b"2.5"


def test_repr_table_allocates_its_table_and_a_fixed_bound_per_block():
    # 100,000 values are 13 blocks: the temporaries of one block at a time
    # come on top of the S24 table, about 215 bytes per block value.
    values = np.random.default_rng(9).random(100_000)
    repr_table(values[:10])  # the cached tables
    tracemalloc.start()
    try:
        table = repr_table(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 24 * values.size
    assert peak <= table.nbytes + 256 * BLOCK


def test_zeros_are_written_without_repr(monkeypatch):
    # A block of BLOCK values, nine in ten of them +-0.0 as in a sparse
    # probability matrix: only the nonzero values off the fast path, such as
    # 0.5 and nan, go through repr.
    rng = np.random.default_rng(5)
    values = np.where(rng.random(BLOCK) < 0.9, 0.0, rng.random(BLOCK))
    values[rng.random(BLOCK) < 0.3] *= -1.0
    values[[7, 11]] = 0.5, np.nan
    calls = []
    monkeypatch.setattr(floatrepr, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    _assert_matches_repr(values)
    assert (values == 0).sum() > 0.85 * BLOCK and np.signbit(values[values == 0]).any()
    assert len(calls) == np.count_nonzero(~_shortest(values)[0] & (values != 0)) < 20


def test_layout_rules_at_the_form_boundaries():
    values = [1e-4, 1.5e-4, 9.99e-5, 1e-5, 1e16, 9999999999999998.0, 1e15, 123.0, 0.001,
              -1e-300, 5e-324, 2.2250738585072014e-308, -1.7976931348623157e308, 1e100, 12.5]
    assert repr_table(values).tolist() == [repr(v).encode() for v in values]


def test_fallback_is_taken_exactly_off_the_fast_path():
    # Zeros, non-finite values, |x| >= 2^54, q <= 1 and mantissas divisible
    # by 2^q: q <= 2 from 2^49 on, and 123456789.125 has few mantissa bits.
    off = np.array([123456789.125, 999999999999999.9, 2.0 ** 52 + 1, 0.5, 1e22, 2.0 ** 60,
                    -0.0, 0.0, np.inf, -np.inf, np.nan, 2.0 ** 54])
    assert not _shortest(off)[0].any()
    on = np.array([0.1, 1 / 3, 5e-324, -2.5e-7, 123456789.123, 12345678901.234567])
    assert _shortest(on)[0].all()


def test_no_fallback_on_a_propagated_column():
    # The probabilities of an ipsa-report-like output matrix all take the fast
    # path: no repr call per value.
    grid = make_grid(GridSpec((Dim("x", -4, 4, 400), Dim("a", -1, 1, 80, "alpha"))))
    scenario = MeasurementScenario(np.array([-2.3, 0.7]), 0.4, 0.25)
    values = output_matrix(builtin("ipsa2d"), grid, scenario, 100).values
    assert values.min() > 0
    assert _shortest(np.ascontiguousarray(values.ravel()))[0].all()
    _assert_matches_repr(values)
