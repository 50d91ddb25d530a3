"""Closed forms and direct evaluations that the tests compare the library
against.  None of them is on a path the histotet command runs."""

import numpy as np

from histotet.element import _functional_matrix
from histotet.simplex import dirichlet_expectation


def simplex_moment(exponents, d=None):
    """Normalized monomial moment of barycentric coordinates on a d-simplex.

    Computes (1/|S_d|) * integral over S_d of prod_i lambda_i^{e_i}, which
    equals d! * prod_i Gamma(e_i + 1) / Gamma(d + 1 + sum_i e_i): the
    Dirichlet expectation under the uniform density.  `d` defaults to
    len(exponents) - 1; each exponent must be > -1.
    """
    e = np.asarray(exponents, dtype=float)
    if d is None:
        d = e.size - 1
    if d < 1 or e.size != d + 1:
        raise ValueError(f"need d+1 exponents for a {d}-simplex, got {e.size}")
    if np.any(e <= -1.0):
        raise ValueError("all exponents must be > -1")
    return dirichlet_expectation(np.zeros(e.size), e)


def apply_functionals(functionals, poly):
    """Apply functionals to a volume BaryQuadratic via analytic moments."""
    return _functional_matrix(functionals) @ poly.coeffs


def dfv_entries(alpha, beta):
    """(d, v, u, w): closed-form entries of the face-volume moment matrix."""
    a, b = float(alpha), float(beta)
    d = -2.0 * a / (9.0 * (3.0 * a + 1.0) ** 2 * (3.0 * a + 2.0))
    denom = 8.0 * (1.0 + 2.0 * b) ** 2 * (1.0 + 4.0 * b) ** 2 * (3.0 + 4.0 * b)
    v = b * (5.0 * b**2 + 5.0 * b + 1.0) / denom
    w = b**3 / denom
    u = -(b**2) / (
        16.0 * (1.0 + 2.0 * b) * (1.0 + 4.0 * b) ** 2 * (3.0 + 4.0 * b)
    )
    return d, v, u, w


def dvol_entries(gamma):
    """(s, t, z): closed-form entries of the volumetric moment matrix."""
    g = float(gamma)
    denom = 8.0 * (1.0 + 2.0 * g) ** 2 * (1.0 + 4.0 * g) ** 2 * (3.0 + 4.0 * g)
    s = g * (5.0 * g**2 + 5.0 * g + 1.0) / denom
    z = g**3 / denom
    t = -(g**2) / (16.0 * (1.0 + 2.0 * g) * (1.0 + 4.0 * g) ** 2 * (3.0 + 4.0 * g))
    return s, t, z
