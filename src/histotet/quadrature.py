"""Probability Gauss-Jacobi rules on [0,1] and collapsed tensor rules on simplices.

Weighted simplex rules absorb a Dirichlet-type density exactly by collapsing
the simplex onto a tensor cube (Duffy map): under the Dirichlet law each
collapsed coordinate is an independent Beta variable, so a tensor product of
Gauss-Jacobi rules integrates `smooth function x density` with the collapse
Jacobian and the density folded into the 1D weights.  All simplex rules are
normalized to total mass 1 (expectation convention).
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, roots_jacobi


class RuleError(ValueError):
    """Raised when a rule's Gauss-Jacobi weights cannot be computed in
    floating point (its density parameters are too large)."""


def _jacobi_probability(m, a, b):
    """(nodes, weights) of the m-point Gauss rule on [0,1] for the Beta(a+1,
    b+1) probability density, proportional to t^a (1-t)^b: exact for
    polynomials up to degree 2m - 1, with weights summing to 1."""
    # scipy's rule targets (1-x)^alpha (1+x)^beta on [-1,1]; map x = 2t - 1.
    # At a + b = -1 (e.g. the first collapsed axis of a volume dirichlet(0.25)
    # rule) scipy's recurrence computes a 0/0 term that it then discards; the
    # rule is still exact, and the check below catches any real bad value.
    message = f"non-finite Gauss-Jacobi rule for (m, a, b) = {(m, float(a), float(b))}"
    with np.errstate(invalid="ignore"):
        try:
            x, w = roots_jacobi(m, b, a)
        except ValueError as err:  # scipy's eigensolver refuses an overflowed Jacobi matrix
            raise RuleError(message) from err
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise RuleError(message)
    return 0.5 * (x + 1.0), w / 2.0 ** (a + b + 1.0) / np.exp(betaln(a + 1.0, b + 1.0))


@dataclass(frozen=True)
class SimplexRule:
    """Quadrature rule in barycentric coordinates on the unit d-simplex.

    `nodes` has shape (npoints, d+1); `weights` sum to 1 (the rule computes
    expectations under the normalized target density).  Both are read-only
    views, because rules are cached and shared.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

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
    # At large exponents (a + b + 1 > 1024 on an axis) the scale 2^(a+b+1)
    # in _jacobi_probability overflows and the Beta normalizer underflows,
    # leaving zero or NaN weights; the mass check below reports that instead.
    # Each axis is a probability rule, so the product has mass 1 regardless
    # of the Dirichlet normalizing constant.
    with np.errstate(all="ignore"):
        node_axes, weight_axes = zip(
            *(_jacobi_probability(m, conc[i] - 1.0, conc[i + 1 :].sum() - 1.0) for i in range(d))
        )

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
        raise RuleError(
            f"weighted simplex rule for (d, exponents, m) = {(d, tuple(e.tolist()), m)} "
            f"is not finite with mass 1 (mass {weights.sum():g}): the exponents "
            "are too large for its Gauss-Jacobi weights"
        )
    return SimplexRule(nodes=lam, weights=weights)


@functools.cache
def simplex_rule(d, exponents, m):
    """simplex_rule_weighted(d, exponents, m) for a tuple of exponents, built
    once per process: the process's one rule cache.  Every DOF density's
    components and the plain L1 error rule (the uniform law, exponents
    (0.0,) * (d + 1) at plain_points) share it.  A failed build is not
    remembered, so it raises again on the next call."""
    return simplex_rule_weighted(d, exponents, m)


def plain_points(d, target_degree):
    """Points per direction of the uniform rule exact for plain polynomials
    up to `target_degree` on the d-simplex (conservative exactness bound)."""
    return -(-(int(target_degree) + d) // 2)  # ceil((degree + d) / 2)
