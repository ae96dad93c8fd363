import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vuprop import Dim, GridSpec, builtin, eval_on_grid, make_grid, parse_expression
from vuprop import grid as grid_module
from vuprop.errors import EvaluationError, ExpressionError
from vuprop.models import (
    ModelFunction, eval_ast, eval_at_locations, eval_deviation, parse_ast, pretty, x_first,
)


def test_builtins():
    assert builtin("bench2d")(0.0, 0.0) == 0.0
    assert builtin("ipsa2d")(0.0, 0.0) == 0.0
    assert builtin("ipsa2d")(1.0, 0.5) == pytest.approx(1 + 5 * math.sin(3) + 0.5)


def test_unknown_builtin_lists_names():
    with pytest.raises(EvaluationError, match="bench2d"):
        builtin("nope")


def test_parser_matches_builtin():
    m = parse_expression("x^2+5*sin(3*x)+a", ["x", "a"])
    assert m(1.0, 0.5) == builtin("ipsa2d")(1.0, 0.5)


def test_identity_variable():
    assert parse_expression("x", ["x"])(7.25) == 7.25


def test_division_by_zero_is_an_error():
    m = parse_expression("1/(x-1)", ["x"])
    with pytest.raises(EvaluationError):
        m(1.0)


def test_precedence_and_associativity():
    m = parse_expression("2-3-4", [])
    assert m.fn() == -5  # left-assoc
    assert parse_expression("2^3^2", []).fn() == 512  # right-assoc
    assert parse_expression("-2^2", []).fn() == -4  # ^ binds tighter than unary -
    assert parse_expression("2*3+4", []).fn() == 10
    assert parse_expression("2+3*4", []).fn() == 14
    assert parse_expression("2^-1", []).fn() == 0.5


def test_functions():
    assert parse_expression("sqrt(abs(-9))", []).fn() == 3.0
    assert parse_expression("cos(0)+exp(0)", []).fn() == 2.0


def test_lexer_error_reports_position():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("1 + $", ["x"])
    assert exc.value.position == 4


def test_parse_error_reports_position():
    with pytest.raises(ExpressionError):
        parse_expression("1 + * 2", [])
    with pytest.raises(ExpressionError, match="unbound variable"):
        parse_expression("x + y", ["x"])
    with pytest.raises(ExpressionError, match="unknown function"):
        parse_expression("tan(x)", ["x"])


_expr_leaves = st.one_of(
    st.floats(0.1, 5.0).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["x", "a"]),
)


def _random_expr(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(_expr_leaves)
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "sin", "cos"]))
    left = _random_expr(draw, depth + 1)
    if kind in "+-*/":
        right = _random_expr(draw, depth + 1)
        return f"({left}{kind}{right})"
    if kind == "neg":
        return f"(-{left})"
    return f"{kind}({left})"


@settings(max_examples=100)
@given(st.data())
def test_pretty_print_round_trip(data):
    text = _random_expr(data.draw)
    ast = parse_ast(text, ["x", "a"])
    reparsed = parse_ast(pretty(ast), ["x", "a"])
    x = np.float64(data.draw(st.floats(-3, 3)))
    a = np.float64(data.draw(st.floats(-3, 3)))
    with np.errstate(all="ignore"):
        v1 = eval_ast(ast, (x, a))
        v2 = eval_ast(reparsed, (x, a))
    assert (v1 == v2) or (np.isnan(v1) and np.isnan(v2))


def test_eval_on_grid_identity():
    g = make_grid(GridSpec((Dim("x", 0, 4, 4),)))
    out = eval_on_grid(parse_expression("x", ["x"]), g)
    assert np.allclose(out, [0.5, 1.5, 2.5, 3.5])


def test_eval_on_grid_constant():
    g = make_grid(GridSpec((Dim("x", 0, 1, 3), Dim("a", 0, 1, 2, "alpha"))))
    out = eval_on_grid(parse_expression("3", ["x", "a"]), g)
    assert out.shape == (6,)
    assert np.all(out == 3.0)


def test_eval_on_grid_matches_pointwise_loop():
    g = make_grid(GridSpec((Dim("x", -1, 1, 3), Dim("a", -1, 1, 3, "alpha"))))
    m = builtin("ipsa2d")
    out = eval_on_grid(m, g)
    for j in range(g.size):
        assert out[j] == pytest.approx(m(*g.nodes[j]), abs=0, rel=1e-15)


# (dims as (name, lower, upper, count, role), model): N = 65 is no multiple of
# a block of whole 5-node rows; a first dimension of count 1; x in the middle.
_BLOCK_GRIDS = {
    "ragged": ((("x", -3.0, 3.0, 13, "x"), ("a", -1.0, 1.0, 5, "alpha")), builtin("ipsa2d")),
    "one_row": ((("x", -3.0, 3.0, 1, "x"), ("a", -1.0, 1.0, 40, "alpha")), builtin("bench2d")),
    "x_middle": ((("a", -1.0, 1.0, 3, "alpha"), ("x", -3.0, 3.0, 7, "x"),
                  ("b", 0.0, 2.0, 5, "alpha")),
                 parse_expression("x^2 + 5*sin(3*x) + a*b - exp(b/3)", ["a", "x", "b"])),
}


@pytest.mark.parametrize("layout", sorted(_BLOCK_GRIDS))
@pytest.mark.parametrize("block", [1, 4, 16, 1 << 16])
def test_eval_on_grid_in_blocks_is_the_one_shot_evaluation(layout, block, monkeypatch):
    dims, model = _BLOCK_GRIDS[layout]
    g = make_grid(GridSpec(tuple(Dim(*d) for d in dims)))
    expected = model.raw(*g.nodes.T)
    monkeypatch.setattr(grid_module, "BLOCK", block)
    assert np.array_equal(eval_on_grid(model, g), expected)


def test_eval_on_grid_in_blocks_at_the_default_block_size():
    # 301 x 300 nodes: two blocks of whole rows, the second one partial.
    g = make_grid(GridSpec((Dim("x", -4, 4, 301), Dim("a", -1, 1, 300, "alpha"))))
    model = builtin("ipsa2d")
    assert np.array_equal(eval_on_grid(model, g), model.raw(*g.nodes.T))


def test_eval_on_grid_names_the_first_bad_node_of_a_later_block(monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK", 4)
    g = make_grid(GridSpec((Dim("x", 0, 20, 20),)))  # nodes 0.5, 1.5, ...
    m = parse_expression("1/((x-13.5)*(x-17.5))", ["x"])
    with pytest.raises(EvaluationError, match="flat index 13, node"):
        eval_on_grid(m, g)


def test_eval_on_grid_arity_mismatch():
    g = make_grid(GridSpec((Dim("x", 0, 1, 3),)))
    with pytest.raises(EvaluationError, match="arity"):
        eval_on_grid(builtin("ipsa2d"), g)


def test_eval_on_grid_nonfinite_reports_node():
    g = make_grid(GridSpec((Dim("x", 0, 2, 2),)))  # nodes 0.5, 1.5
    m = parse_expression("1/(x-1.5)", ["x"])
    with pytest.raises(EvaluationError, match="flat index 1"):
        eval_on_grid(m, g)


def test_eval_on_grid_nonfinite_names_node_of_multi_dim_grid():
    g = make_grid(GridSpec((Dim("x", 0, 2, 2), Dim("a", -1, 1, 4, "alpha"),
                            Dim("b", 0, 3, 3, "alpha"))))
    m = parse_expression("1/((x-1.5)^2 + (a-0.25)^2 + (b-2.5)^2)", ["x", "a", "b"])
    j = int(np.ravel_multi_index((1, 2, 2), g.spec.counts))
    with pytest.raises(EvaluationError) as info:
        eval_on_grid(m, g)
    assert str(info.value).endswith(f"at flat index {j}, node {tuple(g.nodes[j])}")


def test_models_are_deterministic():
    m = builtin("bench2d")
    x = np.linspace(-3, 3, 50)
    a = np.linspace(-1, 1, 50)
    assert np.array_equal(m.raw(x, a), m.raw(x, a))


# The eval_shifted tests below check eval_deviation, the evaluation on the
# grid shifted by ell minus its reference at ell.

def test_eval_shifted_views_and_values():
    # x in the middle: (n_pre, nx, n_post) = (3, 5, 4).
    g = make_grid(GridSpec((Dim("a", -1, 1, 3, "alpha"), Dim("x", -2, 2, 5),
                            Dim("b", 0, 1, 4, "alpha"))))
    model = parse_expression("sin(x)*a + x^2*b", ["a", "x", "b"])
    dev = eval_deviation(model, g, 0.3)
    assert dev.shape == (3, 5, 4)
    a, x, b = (g.nodes[:, d] for d in range(3))
    want = model.raw(a, x + 0.3, b) - model.raw(a, np.full(g.size, 0.3), b)
    assert np.array_equal(dev.ravel(), want)


def test_eval_shifted_hands_over_only_fresh_outputs():
    g = make_grid(GridSpec((Dim("x", -1, 1, 4), Dim("a", -1, 1, 3, "alpha"))))
    one_x = make_grid(GridSpec((Dim("x", -1, 1, 1), Dim("a", -1, 1, 3, "alpha"))))
    # The last returns the alpha input itself at full size.
    for model, grid in [(builtin("ipsa2d"), g), (parse_expression("x", ["x", "a"]), g),
                        (parse_expression("a", ["x", "a"]), one_x)]:
        axes = [a.copy() for a in grid.axes]
        dev = eval_deviation(model, grid, 0.3)
        assert dev.flags.writeable
        assert not any(np.shares_memory(dev, axis) for axis in grid.axes)
        dev[...] = 7.0
        assert all(np.array_equal(a, b) for a, b in zip(axes, grid.axes))
    # A full-size output the model allocated is reused for the difference.
    outputs = []

    def kept(x, a):
        outputs.append(x + a)
        return outputs[-1]

    assert np.shares_memory(eval_deviation(ModelFunction("kept", 2, kept), g, 0.3), outputs[0])


def test_eval_shifted_errors():
    g = make_grid(GridSpec((Dim("x", -1, 1, 4), Dim("a", -1, 1, 3, "alpha"))))
    with pytest.raises(EvaluationError, match=r"non-finite on shifted grid at ell=0\.0"):
        eval_deviation(parse_expression("1/x + a", ["x", "a"]), g, 0.0)  # 1/ell
    with pytest.raises(EvaluationError, match="arity"):
        eval_deviation(parse_expression("x", ["x"]), g, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["shifted", "ref"])
def test_eval_shifted_rejects_non_finite_outputs_in_either_part(bad, where):
    # One bad value, at one shifted node or at the location itself.
    g = make_grid(GridSpec((Dim("x", -1, 1, 4), Dim("a", -1, 1, 3, "alpha"))))
    ell = 0.25
    at = g.axes[0][2] + ell if where == "shifted" else ell

    def fn(x, a):
        return np.where(x == at, bad, x) + a

    with pytest.raises(EvaluationError, match=r"non-finite on shifted grid at ell=0\.25"):
        eval_deviation(ModelFunction("bad", 2, fn), g, ell)
    finite = ModelFunction("ok", 2, lambda x, a: x + a)
    assert np.isfinite(eval_deviation(finite, g, ell)).all()


def test_x_first_moves_the_x_input_to_the_front():
    model = parse_expression("x - 10*a + 100*b", ["a", "x", "b"])
    moved = x_first(model, 1)
    assert moved(2.0, 1.0, 3.0) == model(1.0, 2.0, 3.0) == 292.0
    assert x_first(model, 0) is model


def test_eval_at_locations_broadcasts_to_the_locations():
    ell = np.array([[0.5, 1.0], [2.0, 3.0]])
    const = eval_at_locations(parse_expression("3", ["x", "a"]), ell, [0.0])
    assert const.shape == ell.shape and (const == 3.0).all()
    assert eval_at_locations(builtin("ipsa2d"), ell, 0.25).tolist() == \
        builtin("ipsa2d").raw(ell, np.full_like(ell, 0.25)).tolist()
