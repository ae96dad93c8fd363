"""Scalar model functions: built-ins plus a small infix-expression parser.

Evaluators accept numpy arrays and broadcast, so whole-grid evaluation is a
single vectorized call. Trig is in radians throughout. Non-finite outputs are
hard errors, never silently binned.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, ExpressionError, GridError
from .grid import Grid

_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
}


@dataclass(frozen=True)
class ModelFunction:
    """Pure deterministic map from an n-vector of reals to one real."""

    name: str
    arity: int
    fn: Callable = field(repr=False)

    def __call__(self, *args):
        if len(args) != self.arity:
            raise EvaluationError(f"model {self.name!r} takes {self.arity} inputs, "
                                  f"got {len(args)}")
        scalar = all(np.ndim(a) == 0 for a in args)
        # np.float64 arithmetic turns division-by-zero into inf (caught below)
        # instead of a raw ZeroDivisionError.
        args = tuple(np.float64(a) if np.ndim(a) == 0 else np.asarray(a, float)
                     for a in args)
        with np.errstate(all="ignore"):
            out = self.fn(*args)
        if scalar:
            val = float(out)
            if not np.isfinite(val):
                raise EvaluationError(f"model {self.name!r} produced {val} at input {args}")
            return val
        return np.asarray(out, dtype=float)

    def raw(self, *args) -> np.ndarray:
        """Vectorized evaluation without the finiteness check."""
        with np.errstate(all="ignore"):
            return np.asarray(self.fn(*args), dtype=float)


# --- built-in models ---------------------------------------------------------

def _bench2d(x, a):
    return 1.1 * np.sin(x) + 7 * np.sin(a) ** 2


def _ipsa2d(x, a):
    return x ** 2 + 5 * np.sin(3 * x) + a


_BUILTINS = {
    "bench2d": ModelFunction("builtin:bench2d", 2, _bench2d),
    "ipsa2d": ModelFunction("builtin:ipsa2d", 2, _ipsa2d),
}


def builtin(name: str) -> ModelFunction:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise EvaluationError(
            f"unknown builtin model {name!r}; available: {sorted(_BUILTINS)}"
        ) from None


# --- expression AST ----------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    slot: int  # position in the variable list


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Const | Var | Unary | Binary


def eval_ast(node: Node, args: Sequence) -> np.ndarray:
    if isinstance(node, Const):
        # numpy scalar so that constant subexpressions follow IEEE semantics
        # (1/0 -> inf) instead of raising ZeroDivisionError.
        return np.float64(node.value)
    if isinstance(node, Var):
        return args[node.slot]
    if isinstance(node, Unary):
        v = eval_ast(node.operand, args)
        if node.op == "neg":
            return -v
        return _FUNCTIONS[node.op](v)
    return _BINARY[node.op](eval_ast(node.left, args), eval_ast(node.right, args))


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}


def pretty(node: Node) -> str:
    """Fully parenthesized form; reparses to an equivalent AST."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{pretty(node.operand)})"
        return f"{node.op}({pretty(node.operand)})"
    return f"({pretty(node.left)}{node.op}{pretty(node.right)})"


# --- lexer -------------------------------------------------------------------

_SINGLE = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k > j + 1 and text[k - 1].isdigit():
                    j = k
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"malformed number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"illegal character {c!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


# --- recursive-descent parser ------------------------------------------------
# Precedence: ^ (right-assoc) > unary minus > * / > + - (left-assoc).

class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.slots = {name: i for i, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek()[0] == "-":
            self.take()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            return Const(value)
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", pos)
                self.take()
                inner = self.expr()
                self.expect(")")
                return Unary(value, inner)
            if value not in self.slots:
                raise ExpressionError(
                    f"unbound variable {value!r}; known: {sorted(self.slots)}", pos
                )
            return Var(value, self.slots[value])
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExpressionError(f"unexpected token {value!r}", pos)


def parse_ast(text: str, variables: Sequence[str]) -> Node:
    return _Parser(_tokenize(text), list(variables)).parse()


def parse_expression(text: str, variables: Sequence[str]) -> ModelFunction:
    """Compile an infix expression over the given variable names."""
    ast = parse_ast(text, variables)
    arity = len(variables)

    def fn(*args):
        return eval_ast(ast, args)

    return ModelFunction(f"expr:{pretty(ast)}", arity, fn)


# --- grid evaluation ---------------------------------------------------------

def _check_arity(model: ModelFunction, grid: Grid) -> None:
    if model.arity != grid.ndim:
        raise EvaluationError(
            f"model {model.name!r} has arity {model.arity}, grid has {grid.ndim} dimensions"
        )


def eval_on_grid(model: ModelFunction, grid: Grid) -> np.ndarray:
    """Evaluate the model at every grid node, in flat order, one block of
    node columns at a time (`Grid.node_blocks`) into one N-float array."""
    _check_arity(model, grid)
    out = np.empty(grid.size)
    for start, columns in grid.node_blocks():
        block = out[start:start + columns[0].size]
        block[...] = model.raw(*columns)
        # A nan reaches both extremes and an inf its own end, so the first
        # bad node is looked for only in a block that has one.
        if not (math.isfinite(block.min()) and math.isfinite(block.max())):
            j = start + int(np.flatnonzero(~np.isfinite(block))[0])
            node = tuple(axis[i] for axis, i in
                         zip(grid.axes, np.unravel_index(j, grid.spec.counts)))
            raise EvaluationError(
                f"model {model.name!r} produced non-finite output at flat index {j}, node {node}"
            )
    return out


def _eval_broadcast(model: ModelFunction, grid: Grid, x: np.ndarray) -> np.ndarray:
    """M at the nodes x in the grid's x slot and the grid's own nodes in the
    others, unchecked, in the (n_pre, x.size, n_post) view: dims before x, x,
    dims after x. Inputs are per-axis node vectors broadcasting to that shape,
    so a subexpression of one input costs that axis's node count. The result
    is writable only when it is a full-size array the model allocated for
    this call, which the caller may then overwrite."""
    _check_arity(model, grid)
    xd = grid.spec.x_index()
    shape = grid.spec.counts[:xd] + (x.size,) + grid.spec.counts[xd + 1:]
    y = model.raw(*((x if d == xd else ax).reshape([-1 if e == d else 1 for e in range(grid.ndim)])
                    for d, ax in enumerate(grid.axes)))
    if y.shape != shape or y.base is not None:  # a broadcast or a view of an input
        y = np.broadcast_to(y, shape)
    return y.reshape(math.prod(shape[:xd]), x.size, math.prod(shape[xd + 1:]))


def eval_deviation(model: ModelFunction, grid: Grid, ell: float) -> np.ndarray:
    """M(ell + x, alpha) - M(ell, alpha) on a grid whose x is the deviation
    from ell, in `_eval_broadcast`'s view, with M(ell, alpha) evaluated on the
    N / nx alpha nodes only. The result is a fresh array the caller may
    overwrite: the model's own output buffer when it is writable, else the
    difference's. It is not checked: it is non-finite wherever a term is, or
    the difference overflows, and each of the two callers checks its sweep
    once (`variogram.local_square_deviation`, `ipsa._binned_sweep`)."""
    shifted = _eval_broadcast(model, grid, grid.axes[grid.spec.x_index()] + ell)
    ref = _eval_broadcast(model, grid, np.array([float(ell)]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, checked later
        return np.subtract(shifted, ref, out=shifted if shifted.flags.writeable else None)


def x_first(model: ModelFunction, xd: int) -> ModelFunction:
    """The model with input xd, the grid's x, moved to the front, where
    location-first callers pass it; the model itself when xd is 0."""
    if xd == 0:
        return model

    def fn(x, *rest):
        return model.fn(*rest[:xd], x, *rest[xd:])

    return ModelFunction(f"{model.name}@x-first", model.arity, fn)


def eval_at_locations(model: ModelFunction, ell: np.ndarray, alpha) -> np.ndarray:
    """M(ell, alpha) at every entry of ell, shaped like ell: the location is
    the model's first input, the others are fixed at the entries of alpha."""
    alpha = np.atleast_1d(np.asarray(alpha, float))
    if model.arity != 1 + alpha.size:
        raise GridError(f"model arity {model.arity} needs {model.arity - 1} "
                        f"alpha_ref components, got {alpha.size}")
    args = [ell] + [np.full_like(ell, a) for a in alpha]
    return np.broadcast_to(model.raw(*args), ell.shape)
