import numpy as np
import pytest
from hypothesis import given, strategies as st

from vuprop import Dim, GridSpec, flat_index, make_grid, multi_index
from vuprop import grid as grid_module
from vuprop.errors import GridError


def test_midpoint_nodes_1d():
    g = make_grid(GridSpec((Dim("x", 0, 4, 4),)))
    assert np.allclose(g.nodes.ravel(), [0.5, 1.5, 2.5, 3.5])
    assert g.steps[0] == 1.0
    assert g.cell_volume == 1.0


def test_single_cell():
    g = make_grid(GridSpec((Dim("x", 0, 1, 1),)))
    assert g.nodes.ravel().tolist() == [0.5]
    assert g.cell_volume == 1.0


def test_2d_first_node():
    # Hand-derived: node (0,0) = (lower + step/2) per dimension.
    g = make_grid(GridSpec((Dim("x", -5, 5, 10), Dim("a", -1, 1, 10, "alpha"))))
    assert g.size == 100
    assert np.allclose(g.nodes[0], [-4.5, -0.9])


def test_nodes_are_built_on_first_use_from_axes():
    g = make_grid(GridSpec((Dim("x", 0, 2, 2), Dim("a", 0, 3, 3, "alpha"))))
    assert "nodes" not in vars(g)
    assert g.nodes is g.nodes  # cached
    assert np.array_equal(g.nodes, np.stack(np.meshgrid(*g.axes, indexing="ij"), -1).reshape(-1, 2))


@pytest.mark.parametrize("counts", [(100,), (13, 5), (1, 40), (3, 7, 5), (2, 3, 40)])
@pytest.mark.parametrize("block", [1, 7, 16, 1 << 16])
def test_node_blocks_tile_the_nodes_within_the_block_size(counts, block, monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK", block)
    g = make_grid(GridSpec(tuple(Dim(f"d{i}", -1.0, 2.0 + i, c) for i, c in enumerate(counts))))
    expected = g.nodes
    start = 0
    for first, columns in g.node_blocks():
        assert first == start and len(columns) == g.ndim
        size = columns[0].size
        assert 1 <= size <= block
        assert np.array_equal(np.stack(columns, axis=-1), expected[start:start + size])
        start += size
    assert start == g.size


def test_row_major_order_x_slowest():
    g = make_grid(GridSpec((Dim("x", 0, 2, 2), Dim("a", 0, 3, 3, "alpha"))))
    # First dimension varies slowest: alpha runs contiguously per x node.
    assert np.allclose(g.nodes[:3, 0], g.nodes[0, 0])
    assert not np.allclose(g.nodes[2, 1], g.nodes[3, 1])


def test_flat_index_examples():
    g = make_grid(GridSpec((Dim("x", 0, 1, 10), Dim("y", 0, 1, 10))))
    assert flat_index(g, (0, 0)) == 0
    assert flat_index(g, (1, 0)) == 10
    g3 = make_grid(GridSpec((Dim("a", 0, 1, 2), Dim("b", 0, 1, 3), Dim("c", 0, 1, 4))))
    assert flat_index(g3, (1, 2, 3)) == 1 * 12 + 2 * 4 + 3


def test_flat_index_rejects_out_of_range():
    g = make_grid(GridSpec((Dim("x", 0, 1, 3),)))
    with pytest.raises(GridError):
        flat_index(g, (3,))
    with pytest.raises(GridError):
        flat_index(g, (-1,))
    with pytest.raises(GridError):
        multi_index(g, 3)


@pytest.mark.parametrize("bad", [
    dict(lower=1.0, upper=1.0),
    dict(lower=2.0, upper=1.0),
    dict(lower=float("nan"), upper=1.0),
    dict(lower=0.0, upper=float("inf")),
    dict(count=0),
])
def test_invalid_dims(bad):
    kwargs = dict(name="x", lower=0.0, upper=1.0, count=4)
    kwargs.update(bad)
    with pytest.raises(GridError):
        Dim(**kwargs)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.data())
def test_flat_multi_round_trip(counts, data):
    dims = tuple(Dim(f"d{i}", 0, 1, c) for i, c in enumerate(counts))
    g = make_grid(GridSpec(dims))
    multi = tuple(data.draw(st.integers(0, c - 1)) for c in counts)
    assert multi_index(g, flat_index(g, multi)) == multi


def test_node_count_and_interiority():
    spec = GridSpec((Dim("x", -2, 7, 13), Dim("a", 0.5, 0.75, 5, "alpha")))
    g = make_grid(spec)
    assert g.nodes.shape == (13 * 5, 2)
    for d, dim in enumerate(spec.dims):
        assert np.all(g.nodes[:, d] > dim.lower)
        assert np.all(g.nodes[:, d] < dim.upper)


def test_symmetric_axis_exactly_antisymmetric():
    # Centered node construction makes mirrored nodes exact negatives.
    g = make_grid(GridSpec((Dim("x", -5, 5, 101),)))
    axis = g.axes[0]
    assert np.all(axis == -axis[::-1])


def test_x_index_finds_the_single_x_dimension():
    spec = GridSpec((Dim("a", 0, 1, 2, "alpha"), Dim("x", 0, 1, 2), Dim("b", 0, 1, 2, "alpha")))
    assert spec.x_index() == 1
    for dims in ((Dim("a", 0, 1, 2, "alpha"),), (Dim("x", 0, 1, 2), Dim("y", 0, 1, 2))):
        with pytest.raises(GridError, match="one x dimension"):
            GridSpec(dims).x_index()
