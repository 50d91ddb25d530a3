"""Barycentric geometry on tetrahedra and exact Dirichlet-type simplex moments.

Everything downstream (densities, quadrature, element matrices) reduces to
normalized monomial moments of barycentric coordinates, so the moment formula
lives here together with the basic geometric types.
"""

import numpy as np
from scipy.special import gammaln


class GeometryError(ValueError):
    """Raised for degenerate geometric input (e.g. a flat tetrahedron)."""


#: Face j is the face opposite vertex j; it keeps the remaining vertex indices
#: in ascending order, which fixes the face-coordinate labeling mu_1..mu_3.
FACE_VERTEX_INDICES = tuple(tuple(i for i in range(4) if i != j) for j in range(4))

#: Edge index pairs (i < j) in the order used for the quadratic monomial basis.
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def dirichlet_expectation(weight_exponents, monomial_exponents):
    """E[prod lambda^p] under the normalized Dirichlet density prod lambda^e.

    The simplex dimension is the number of exponents minus one.  Equals
    prod Gamma(e_i + p_i + 1) Gamma(n + sum e) / (Gamma(n + sum(e + p))
    prod Gamma(e_i + 1)) with n = len(e), evaluated in log-gamma form so
    large exponents do not overflow.  Inputs are not checked.
    """
    e = np.asarray(weight_exponents, dtype=float)
    p = np.asarray(monomial_exponents, dtype=float)
    ep = e + p
    log_ratio = (
        np.sum(gammaln(ep + 1.0))
        - gammaln(e.size + ep.sum())
        - np.sum(gammaln(e + 1.0))
        + gammaln(e.size + e.sum())
    )
    return float(np.exp(log_ratio))


class Tetrahedron:
    """A nondegenerate tetrahedron with an affine barycentric chart."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.shape != (4, 3) or not np.all(np.isfinite(v)):
            raise GeometryError("vertices must be a finite 4x3 array")
        self.vertices = v
        edges = v[1:] - v[0]
        self.volume = abs(np.linalg.det(edges)) / 6.0
        if self.volume <= 1e-300:
            raise GeometryError("degenerate tetrahedron (zero volume)")
        # Affine system: rows are [x; y; z; 1], columns indexed by vertex.
        self._chart = np.vstack([v.T, np.ones(4)])
        self._chart_inv = np.linalg.inv(self._chart)

    def barycentric(self, points):
        """Barycentric coordinates of physical points, shape (..., 3) -> (..., 4)."""
        p = np.asarray(points, dtype=float)
        rhs = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
        return rhs @ self._chart_inv.T

    def point(self, lam):
        """Physical point of barycentric coordinates, shape (..., 4) -> (..., 3)."""
        lam = np.asarray(lam, dtype=float)
        return lam @ self.vertices

    def __repr__(self):
        return f"Tetrahedron(volume={self.volume:.6g})"


#: Unit reference tetrahedron with vertices 0, e1, e2, e3.
REFERENCE_TET = Tetrahedron(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

