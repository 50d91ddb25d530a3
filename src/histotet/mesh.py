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
        self._cell_vertex_array = None

    def __len__(self):
        return len(self.cells)

    @property
    def cell_vertex_array(self):
        """Vertex coordinates per cell, shape (n_cells, 4, 3); computed lazily."""
        if self._cell_vertex_array is None:
            self._cell_vertex_array = self.vertices[self.cells]
        return self._cell_vertex_array

    def cell_volumes(self):
        v = self.cell_vertex_array
        edges = v[:, 1:, :] - v[:, :1, :]
        return np.abs(np.linalg.det(edges)) / 6.0


def build_mesh(n):
    """Build the Kuhn-split tetrahedral mesh with grid parameter n >= 2.

    Returns a TetMesh with n^3 vertices and 6 (n-1)^3 cells covering [0,1]^3.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"grid parameter n must be an integer >= 2, got {n!r}")
    n = int(n)
    axis = np.linspace(0.0, 1.0, n)
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    vertices = np.column_stack(
        [axis[ii.ravel()], axis[jj.ravel()], axis[kk.ravel()]]
    )

    def vid(i, j, k):
        return (i * n + j) * n + k

    m = n - 1
    ci, cj, ck = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
    corner = np.stack([ci.ravel(), cj.ravel(), ck.ravel()], axis=1)  # (m^3, 3)

    cells = np.empty((6 * len(corner), 4), dtype=np.int64)
    for t, perm in enumerate(_KUHN_PERMUTATIONS):
        p0 = corner
        p1 = p0 + _UNIT_STEPS[perm[0]]
        p2 = p1 + _UNIT_STEPS[perm[1]]
        p3 = corner + 1
        block = np.stack(
            [vid(p[:, 0], p[:, 1], p[:, 2]) for p in (p0, p1, p2, p3)], axis=1
        )
        cells[t::6] = block

    return TetMesh(n, vertices, cells)
