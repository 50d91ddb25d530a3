import numpy as np
import pytest

from histotet import (
    REFERENCE_TET,
    GeometryError,
    Tetrahedron,
)
from conftest import make_random_tet
from oracles import barycentric, simplex_moment


def test_moment_of_constant_is_one():
    assert simplex_moment([0, 0, 0, 0], d=3) == pytest.approx(1.0, abs=1e-15)


def test_face_linear_moment():
    assert simplex_moment([1, 0, 0], d=2) == pytest.approx(1.0 / 3.0, rel=1e-14, abs=0.0)


def test_pair_moment_on_tet():
    # 3! * Gamma(2)^2 / Gamma(6) = 6 / 120
    assert simplex_moment([1, 1, 0, 0], d=3) == pytest.approx(1.0 / 20.0, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_exponents_normalize(d):
    assert simplex_moment(np.zeros(d + 1), d=d) == pytest.approx(1.0, abs=1e-15)


def test_moment_permutation_invariance(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        exps = rng.uniform(-0.9, 6.0, size=d + 1)
        shuffled = rng.permutation(exps)
        assert simplex_moment(exps, d) == pytest.approx(
            simplex_moment(shuffled, d), rel=1e-13, abs=0.0
        )


def test_moment_rejects_bad_input():
    with pytest.raises(ValueError):
        simplex_moment([-1.0, 0, 0], d=2)
    with pytest.raises(ValueError):
        simplex_moment([0, 0], d=2)


def test_barycentric_at_vertices(rng):
    tet = make_random_tet(rng)
    lam = barycentric(tet, tet.vertices)
    np.testing.assert_allclose(lam, np.eye(4), atol=1e-12)


def test_barycentric_at_centroid(rng):
    tet = make_random_tet(rng)
    lam = barycentric(tet, tet.vertices.mean(axis=0))
    np.testing.assert_allclose(lam, 0.25, atol=1e-12)


def test_barycentric_reference_point():
    lam = barycentric(REFERENCE_TET, [0.5, 0.25, 0.0])
    np.testing.assert_allclose(lam, [0.25, 0.5, 0.25, 0.0], atol=1e-14)


def test_point_from_barycentric_round_trip(rng):
    tet = make_random_tet(rng)
    lam = rng.dirichlet(np.ones(4), size=100)
    points = tet.point(lam)
    back = barycentric(tet, points)
    assert np.max(np.abs(back - lam)) < 1e-12
    again = tet.point(back)
    assert np.max(np.abs(again - points)) < 1e-12


def test_point_from_barycentric_vertices_and_centroid(rng):
    tet = make_random_tet(rng)
    np.testing.assert_allclose(tet.point([0, 0, 1, 0]), tet.vertices[2], atol=1e-14)
    np.testing.assert_allclose(tet.point([0.25] * 4), tet.vertices.mean(axis=0), atol=1e-14)


def test_degenerate_tet_raises():
    flat = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.4, 0.0]]
    with pytest.raises(GeometryError):
        Tetrahedron(flat)
