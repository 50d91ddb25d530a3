import numpy as np
import pytest

from histotet import QuadSettings, StrategyConfig, Tetrahedron, element, quadrature
from histotet.experiment import _ErrorEngine, _l1_errors


def make_random_tet(rng, min_volume=0.01):
    """Random nondegenerate tetrahedron with vertices inside the unit cube."""
    while True:
        v = rng.random((4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) / 6.0 >= min_volume:
            return Tetrahedron(v)


def engines_of(configs, settings=QuadSettings()):
    """The engine of each configuration, as every command admits it: the
    studies take these."""
    return [_ErrorEngine(cfg, settings) for cfg in configs]


def grid_engines(grid, settings=QuadSettings()):
    """The engines of a TuningGrid's candidates, in grid_search's row-major order."""
    return engines_of([StrategyConfig.of(grid.kind, a, b) for a in grid.first for b in grid.second], settings)


def l1_error(f, mesh, cfg, settings=QuadSettings(), threads=1):
    """L1 reconstruction error of one strategy for one function on one mesh,
    scored in a pass of its own."""
    return _l1_errors([_ErrorEngine(cfg, settings)], f, mesh, threads)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture(autouse=True)
def empty_setup_caches():
    """Start every test with no cached rules or functionals, so that what a
    test counts or patches does not depend on the tests run before it."""
    quadrature.simplex_rule.cache_clear()
    element.build_functionals.cache_clear()
