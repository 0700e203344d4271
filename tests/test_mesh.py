import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import square_nodes, square_triangles, triangle_areas
from rstokes.mesh import Mesh, build_interval_mesh, build_square_mesh


def test_mesh_fields_are_dim_and_k():
    assert [f.name for f in dataclasses.fields(Mesh)] == ["dim", "K"]
    assert build_interval_mesh(5) == Mesh(1, 5)
    assert build_square_mesh(5) == Mesh(2, 5)


def test_interval_k2_nodes_and_boundary():
    mesh = build_interval_mesh(2)
    assert mesh.nodes.tolist() == [0.0, 0.5, 1.0]
    assert mesh.nodes[1:-1].tolist() == [0.5]
    assert mesh.h == 0.5


def test_interval_k8_counts():
    mesh = build_interval_mesh(8)
    assert mesh.h == 0.125
    assert len(mesh.nodes[1:-1]) == 7


def test_interval_k2048_interior_count():
    mesh = build_interval_mesh(2048)
    assert len(mesh.nodes[1:-1]) == 2047
    assert mesh.h == 2.0**-11


def test_interval_rejects_small_k():
    with pytest.raises(ValueError):
        build_interval_mesh(1)


@pytest.mark.parametrize("dim", [0, 3])
def test_mesh_rejects_other_dimensions(dim):
    with pytest.raises(ValueError, match="dimension"):
        Mesh(dim, 4)


@pytest.mark.parametrize("K", [1, 0, -3, 4.0])
def test_mesh_rejects_k_below_two_or_fractional(K):
    with pytest.raises(ValueError, match="K >= 2"):
        Mesh(1, K)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=64))
def test_interval_counting_invariants(K):
    mesh = build_interval_mesh(K)
    assert len(mesh.nodes) == K + 1
    assert np.array_equal(mesh.nodes, np.linspace(0.0, 1.0, K + 1))
    assert mesh.h == 1.0 / K


def test_square_k2_counts():
    # the square's nodes are the pairs of its side grid (tests/oracles.py)
    mesh = build_square_mesh(2)
    assert mesh.nodes.tolist() == [0.0, 0.5, 1.0]
    nodes, interior = square_nodes(2)
    assert len(nodes) == 9
    assert interior.tolist() == [4]
    assert nodes[4].tolist() == [0.5, 0.5]


def test_square_nodes_ordered_by_y_then_x():
    side = build_square_mesh(3).nodes
    expect = [(x, y) for y in side for x in side]
    assert np.array_equal(square_nodes(3)[0], np.array(expect))


def test_square_k4_partition_of_unity():
    # the triangles of the diagonal split, which the 2D closed forms integrate
    # over (tests/oracles.py), tile the square
    lattice, tri = square_triangles(4)
    assert np.allclose(lattice / 4, square_nodes(4)[0], rtol=0.0, atol=1e-15)
    areas = triangle_areas(lattice, tri) / 16
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-12


def test_square_k64_for_fine_runs():
    mesh = build_square_mesh(64)
    nodes, interior = square_nodes(64)
    assert len(nodes) == 65**2
    assert len(interior) == 63**2
    assert mesh.h == 1.0 / 64


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_square_counting_invariants(K):
    mesh = build_square_mesh(K)
    nodes, interior = square_nodes(K)
    assert len(nodes) == (K + 1) ** 2
    assert len(interior) == (K - 1) ** 2
    assert np.all(np.diff(interior) > 0)
    x, y = nodes[interior].T
    assert np.all((x > 0) & (x < 1) & (y > 0) & (y < 1))
    boundary = np.setdiff1d(np.arange(len(nodes)), interior)
    x, y = nodes[boundary].T
    assert np.all((x == 0) | (x == 1) | (y == 0) | (y == 1))
    assert mesh.h == 1.0 / K


def test_square_interior_valence_is_six():
    nodes, interior = square_nodes(5)
    _, tri = square_triangles(5)
    counts = np.zeros(len(nodes), dtype=int)
    np.add.at(counts, tri.ravel(), 1)
    assert np.all(counts[interior] == 6)


def test_square_rejects_small_k():
    with pytest.raises(ValueError):
        build_square_mesh(1)


def test_misaligned_mesh_skips_midpoint():
    mesh = build_interval_mesh(2**3 + 1)
    assert not np.any(np.isclose(mesh.nodes, 0.5))
