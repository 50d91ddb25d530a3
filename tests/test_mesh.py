import numpy as np
import pytest

from histotet import Tetrahedron, build_mesh


def test_cell_count_n5():
    assert len(build_mesh(5)) == 384  # 6 * 4^3


def test_single_cube_split():
    mesh = build_mesh(2)
    vols = mesh.cell_volumes()
    assert len(mesh) == 6
    np.testing.assert_allclose(vols, 1.0 / 6.0, atol=1e-15)
    assert vols.sum() == pytest.approx(1.0, abs=1e-12)


def test_volume_sum_n10():
    mesh = build_mesh(10)
    assert len(mesh) == 4374
    assert mesh.cell_volumes().sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_uniform_cell_volumes(n):
    mesh = build_mesh(n)
    expected = 1.0 / (6.0 * (n - 1) ** 3)
    assert np.max(np.abs(mesh.cell_volumes() - expected)) < 1e-13


def test_barycentric_identity_at_cell_vertices(rng):
    mesh = build_mesh(3)
    for i in rng.choice(len(mesh), size=10, replace=False):
        tet = Tetrahedron(mesh.cell_vertex_array[i])
        np.testing.assert_allclose(
            tet.barycentric(tet.vertices), np.eye(4), atol=1e-12
        )


def test_random_points_lie_in_exactly_one_cell(rng):
    mesh = build_mesh(4)
    points = rng.random((25, 3))
    for p in points:
        hits = 0
        for i in range(len(mesh)):
            if np.all(Tetrahedron(mesh.cell_vertex_array[i]).barycentric(p) >= -1e-12):
                hits += 1
        assert hits == 1


def test_vertices_cover_unit_cube():
    mesh = build_mesh(6)
    assert mesh.vertices.min() == 0.0
    assert mesh.vertices.max() == 1.0
    assert mesh.vertices.shape == (216, 3)


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        build_mesh(1)
    with pytest.raises(ValueError):
        build_mesh(2.5)
