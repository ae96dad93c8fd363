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
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64),
        powers, -powers,
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        _EDGE,
    ])
    _assert_matches_repr(values)


def test_repr_table_keeps_shape_and_crosses_blocks():
    rng = np.random.default_rng(3)
    values = rng.random((3, BLOCK + 7)) * 10.0 ** rng.integers(-8, 20, (3, BLOCK + 7))
    _assert_matches_repr(values)
    _assert_matches_repr(values.T)  # not contiguous
    assert repr_table(np.empty((0, 4))).shape == (0, 4)
    assert repr_table(2.5).tolist() == b"2.5"


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
