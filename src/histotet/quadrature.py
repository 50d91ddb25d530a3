"""Gauss-Jacobi rules on [0,1] and collapsed tensor rules on simplices.

Weighted simplex rules absorb a Dirichlet-type density exactly by collapsing
the simplex onto a tensor cube (Duffy map): under the Dirichlet law each
collapsed coordinate is an independent Beta variable, so a tensor product of
Gauss-Jacobi rules integrates `smooth function x density` with the collapse
Jacobian and the density folded into the 1D weights.  All simplex rules are
normalized to total mass 1 (expectation convention).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, roots_jacobi


def gauss_jacobi(m, a, b):
    """(nodes, weights) of the m-point rule for integrals of g(t) t^a (1-t)^b
    over [0,1].

    Exact for polynomials g up to degree 2m - 1; the weights sum to the Beta
    function B(a+1, b+1) (the mass of the weight itself).
    """
    if m < 1:
        raise ValueError("node count m must be >= 1")
    if a <= -1.0 or b <= -1.0:
        raise ValueError("weight exponents must be > -1")
    # scipy's rule targets (1-x)^alpha (1+x)^beta on [-1,1]; map x = 2t - 1.
    # At a + b = -1 (e.g. the first collapsed axis of a volume dirichlet(0.25)
    # rule) scipy's recurrence computes a 0/0 term that it then discards; the
    # rule is still exact, and the check below catches any real bad value.
    with np.errstate(invalid="ignore"):
        x, w = roots_jacobi(m, b, a)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise ValueError(f"non-finite Gauss-Jacobi rule for (m, a, b) = {(m, a, b)}")
    return 0.5 * (x + 1.0), w / 2.0 ** (a + b + 1.0)


@dataclass(frozen=True)
class SimplexRule:
    """Quadrature rule in barycentric coordinates on the unit d-simplex.

    `nodes` has shape (npoints, d+1); `weights` sum to 1 (the rule computes
    expectations under the normalized target density).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


def simplex_rule_weighted(d, exponents, m):
    """Collapsed tensor rule for the normalized Dirichlet weight prod lambda^e.

    Parameters
    ----------
    d : int
        Simplex dimension (1, 2 or 3).
    exponents : sequence of float
        Dirichlet exponents, one per barycentric coordinate, each > -1.
    m : int
        Gauss points per collapsed direction; the rule is exact for
        barycentric polynomials up to degree 2m - 1 - (d - 1) per direction
        (conservative bound).

    Returns
    -------
    SimplexRule
        Rule with m^d points and weights summing to 1.
    """
    e = np.asarray(exponents, dtype=float)
    if d < 1 or e.size != d + 1:
        raise ValueError(f"need d+1 exponents for a {d}-simplex, got {e.size}")
    if np.any(e <= -1.0):
        raise ValueError("Dirichlet exponents must be > -1")
    if m < 1:
        raise ValueError("node count m must be >= 1")

    conc = e + 1.0  # Dirichlet concentration parameters
    node_axes, weight_axes = [], []
    # At large exponents (a + b + 1 > 1024 on an axis) the scale 2^(a+b+1)
    # in gauss_jacobi overflows and the Beta normalizer underflows, leaving
    # zero or NaN weights; the mass check below reports that instead.
    with np.errstate(all="ignore"):
        for i in range(d):
            a_i = conc[i] - 1.0
            b_i = conc[i + 1 :].sum() - 1.0
            nodes, weights = gauss_jacobi(m, a_i, b_i)
            node_axes.append(nodes)
            # Normalize each factor to a probability rule; the product then has
            # mass exactly 1 regardless of the Dirichlet normalizing constant.
            weight_axes.append(weights / np.exp(betaln(a_i + 1.0, b_i + 1.0)))

    node_grids = np.meshgrid(*node_axes, indexing="ij")
    weight_grids = np.meshgrid(*weight_axes, indexing="ij")

    npts = m**d
    lam = np.empty((npts, d + 1))
    remainder = np.ones(npts)
    for i in range(d):
        u = node_grids[i].reshape(-1)
        lam[:, i] = remainder * u
        remainder = remainder * (1.0 - u)
    lam[:, d] = remainder

    weights = np.ones(npts)
    for g in weight_grids:
        weights *= g.reshape(-1)

    if not (np.isfinite(weights).all() and abs(weights.sum() - 1.0) < 1e-8):
        raise ValueError(
            f"weighted simplex rule for (d, exponents, m) = {(d, tuple(e.tolist()), m)} "
            f"is not finite with mass 1 (mass {weights.sum():g}): the exponents "
            "are too large for its Gauss-Jacobi weights"
        )
    return SimplexRule(nodes=lam, weights=weights)


def simplex_rule_plain(d, target_degree):
    """Rule exact for plain polynomials up to `target_degree` on the d-simplex.

    Realized as the uniform-weight collapsed rule with enough points per
    direction for the conservative exactness bound; weights sum to 1, so
    integrals against Lebesgue measure are `volume * expectation`.
    """
    if target_degree < 1:
        raise ValueError("target_degree must be >= 1")
    m = -(-(int(target_degree) + d) // 2)  # ceil((degree + d) / 2)
    return simplex_rule_weighted(d, np.zeros(d + 1), m)
