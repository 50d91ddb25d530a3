"""Structured tetrahedral meshes of the unit cube.

A mesh of grid parameter n partitions [0,1]^3 into an (n-1)^3 Cartesian grid
of cubes and splits each cube into six tetrahedra that share the cube's main
diagonal (Kuhn split).  The split is fixed by the convention below so runs
are reproducible:

    For each axis permutation (p0, p1, p2) of (x, y, z), one tetrahedron has
    vertices  c, c + h*e_{p0}, c + h*e_{p0} + h*e_{p1}, c + h*(1,1,1),
    where c is the low corner of the cube and h its edge length.

Every tetrahedron contains the diagonal from c to c + h*(1,1,1) and has
volume h^3 / 6.
"""

from itertools import permutations

import numpy as np

_KUHN_PERMUTATIONS = tuple(permutations((0, 1, 2)))
_UNIT_STEPS = np.eye(3, dtype=np.int64)


class TetMesh:
    """Vertices and 4-index cells of a structured unit-cube tetrahedral mesh."""

    def __init__(self, n, vertices, cells):
        self.n = int(n)
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self._cell_volumes = None

    def __len__(self):
        return len(self.cells)

    def cell_volumes(self):
        """Volume per cell, shape (n_cells,); computed once."""
        if self._cell_volumes is None:
            v = self.vertices[self.cells]  # (n_cells, 4, 3), dropped after
            edges = v[:, 1:, :] - v[:, :1, :]
            self._cell_volumes = np.abs(np.linalg.det(edges)) / 6.0
        return self._cell_volumes


def mesh_size(n):
    """(cells, scalars) of the mesh of grid parameter n, an integer >= 2: its
    6 (n-1)^3 cells, and 3 coordinates per vertex (n^3) plus 4 vertex indices
    and a volume per cell in its three arrays."""
    if int(n) != n or n < 2:
        raise ValueError(f"grid parameter n must be an integer >= 2, got {n!r}")
    cells = 6 * (int(n) - 1) ** 3
    return cells, 3 * int(n) ** 3 + cells * (4 + 1)


def kuhn_cells(n, count=None):
    """Vertex ids of the first `count` cells (all by default) of the mesh of
    grid parameter n, shape (count, 4): six cells per cube (see the module
    docstring), cubes in (i, j, k) row-major order of their low corners."""
    total, n = mesh_size(n)[0], int(n)
    count = total if count is None else min(count, total)
    corner = np.stack(np.unravel_index(np.arange(-(-count // 6)), (n - 1,) * 3), axis=1)
    cells = np.empty((6 * len(corner), 4), dtype=np.int64)
    for t, perm in enumerate(_KUHN_PERMUTATIONS):
        p1 = corner + _UNIT_STEPS[perm[0]]
        p2 = p1 + _UNIT_STEPS[perm[1]]
        cells[t::6] = np.stack([p @ (n * n, n, 1) for p in (corner, p1, p2, corner + 1)], axis=1)
    return cells[:count]


def build_mesh(n):
    """The Kuhn-split TetMesh of grid parameter n (see mesh_size) on [0,1]^3."""
    cells, n = kuhn_cells(n), int(n)
    axis = np.linspace(0.0, 1.0, n)
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    vertices = np.column_stack(
        [axis[ii.ravel()], axis[jj.ravel()], axis[kk.ravel()]]
    )
    return TetMesh(n, vertices, cells)
