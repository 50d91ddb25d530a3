"""Probability densities on faces, volumes and edges, and the quadratic
polynomials orthogonal to affine functions under each of them.

Every supported density is stored as a finite mixture of Dirichlet laws on
the simplex (the Beta law on an edge is the 1-simplex case), which makes
monomial moments exact gamma-function ratios and quadrature rules convex
unions of collapsed Gauss-Jacobi rules:

  * uniform             -> Dirichlet with all exponents 0
  * dirichlet(c)        -> all exponents c - 1
  * symmetric-quadratic -> equal-weight mixture of one-coordinate bumps
                           (density proportional to sum of squared coords)
  * blend(theta, c)     -> theta * uniform + (1 - theta) * dirichlet(c)
  * beta(zeta, nu)      -> edge density t^(zeta-1) (1-t)^(nu-1), normalized
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import SimplexRule, simplex_rule_weighted
from .simplex import EDGE_PAIRS, dirichlet_expectation

#: Concentration-style parameters below this are rejected: the moment
#: matrices degenerate as the parameters approach zero.
PARAM_FLOOR = 1e-3


def _check_param(name, value):
    v = float(value)
    if not np.isfinite(v) or v < PARAM_FLOOR:
        raise ValueError(f"{name} must be >= {PARAM_FLOOR}, got {value!r}")
    return v


@dataclass(frozen=True)
class Density:
    """Mixture-of-Dirichlet density on a face (d=2), volume (d=3) or edge (d=1).

    components is a tuple of (coefficient, exponent-tuple) pairs; the
    coefficients are positive and sum to 1, so the density has mass 1.
    """

    space: str  # 'face' | 'volume' | 'edge'
    variant: str  # 'uniform' | 'symmetric-quadratic' | 'dirichlet' | 'blend' | 'beta'
    components: tuple

    @property
    def dim(self):
        return {"edge": 1, "face": 2, "volume": 3}[self.space]

    def moment(self, monomial_exponents):
        """Expectation of a barycentric monomial under the density."""
        return sum(
            c * dirichlet_expectation(e, monomial_exponents)
            for c, e in self.components
        )

    def rule(self, m):
        """Weighted simplex rule (mass 1) with m Gauss points per direction:
        the union of the component rules, each rule's weights times its coefficient."""
        parts = [
            (coef, simplex_rule_weighted(self.dim, exps, m))
            for coef, exps in self.components
        ]
        nodes = np.concatenate([r.nodes for _, r in parts])
        weights = np.concatenate([coef * r.weights for coef, r in parts])
        return SimplexRule(nodes, weights)


def _symmetric_quadratic_components(ncoords):
    # density prop. to sum_r coord_r^2 == mixture of Dirichlet(1,..,3,..,1)
    one = [0.0] * ncoords
    comps = []
    for r in range(ncoords):
        e = list(one)
        e[r] = 2.0
        comps.append((1.0 / ncoords, tuple(e)))
    return tuple(comps)


def face_density(variant, alpha=None):
    """Face density: 'uniform', 'symmetric-quadratic' or 'dirichlet' (needs alpha)."""
    if variant == "uniform":
        return Density("face", "uniform", ((1.0, (0.0, 0.0, 0.0)),))
    if variant == "symmetric-quadratic":
        return Density("face", variant, _symmetric_quadratic_components(3))
    if variant == "dirichlet":
        a = _check_param("alpha", alpha)
        return Density("face", variant, ((1.0, (a - 1.0,) * 3),))
    raise ValueError(f"unknown face density variant {variant!r}")


def volume_density(variant, gamma=None, theta=None):
    """Volume density: 'uniform', 'symmetric-quadratic', 'dirichlet' or 'blend'."""
    if variant == "uniform":
        return Density("volume", "uniform", ((1.0, (0.0,) * 4),))
    if variant == "symmetric-quadratic":
        return Density("volume", variant, _symmetric_quadratic_components(4))
    if variant == "dirichlet":
        g = _check_param("gamma", gamma)
        return Density("volume", variant, ((1.0, (g - 1.0,) * 4),))
    if variant == "blend":
        g = _check_param("gamma", gamma)
        t = float(theta)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
        comps = []
        if t > 0.0:
            comps.append((t, (0.0,) * 4))
        if t < 1.0:
            comps.append((1.0 - t, (g - 1.0,) * 4))
        return Density("volume", variant, tuple(comps))
    raise ValueError(f"unknown volume density variant {variant!r}")


def edge_density(zeta, nu):
    """Beta(zeta, nu) density on an edge, in coordinates (t, 1-t)."""
    z = _check_param("zeta", zeta)
    v = _check_param("nu", nu)
    return Density("edge", "beta", ((1.0, (z - 1.0, v - 1.0)),))


# ---------------------------------------------------------------------------
# Quadratic polynomials in the fixed coefficient bases.

#: Volume basis: lambda_1..lambda_4 then the six products in pair order.
VOLUME_BASIS_EXPONENTS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
)

#: Face basis: mu_1..mu_3 then the three products (constants are written via
#: sum mu = 1, so no explicit constant slot is needed).
FACE_BASIS_EXPONENTS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
)

#: Edge basis: 1, t, t^2 in coordinates (t, 1-t).
EDGE_BASIS_EXPONENTS = ((0, 0), (1, 0), (2, 0))

_BASIS_BY_SPACE = {
    "volume": VOLUME_BASIS_EXPONENTS,
    "face": FACE_BASIS_EXPONENTS,
    "edge": EDGE_BASIS_EXPONENTS,
}


@dataclass(frozen=True)
class BaryQuadratic:
    """Quadratic polynomial with coefficients in the fixed basis of its space.

    coeffs has length 10 (volume, Lambda order), 6 (face) or 3 (edge).
    """

    space: str
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=float).copy()
        )
        expected = len(_BASIS_BY_SPACE[self.space])
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"{self.space} quadratic needs {expected} coefficients"
            )

    def terms(self):
        """Nonzero (coefficient, monomial-exponent-tuple) pairs."""
        basis = _BASIS_BY_SPACE[self.space]
        return [
            (c, basis[i]) for i, c in enumerate(self.coeffs) if c != 0.0
        ]

    def __call__(self, coords):
        """Evaluate at barycentric coords (..., d+1), or parameters t for edges."""
        x = np.asarray(coords, dtype=float)
        if self.space == "edge":
            return self.coeffs[0] + x * (self.coeffs[1] + x * self.coeffs[2])
        basis = _BASIS_BY_SPACE[self.space]
        vals = np.zeros(x.shape[:-1])
        for c, exps in zip(self.coeffs, basis):
            if c == 0.0:
                continue
            mono = np.ones(x.shape[:-1])
            for k, e in enumerate(exps):
                if e:
                    mono = mono * x[..., k] ** e
            vals += c * mono
        return vals


def _face_sum_of_squares_minus(c):
    # sum mu_r^2 - c  ==  (1 - c) sum mu_r - 2 sum_{r<s} mu_r mu_s
    return BaryQuadratic("face", [1.0 - c] * 3 + [-2.0] * 3)


def _pair_quadratic(i, j, h, k):
    # lambda_i lambda_j + h - k (lambda_i + lambda_j), constant via sum lambda = 1
    coeffs = np.zeros(10)
    coeffs[:4] = h
    coeffs[i] -= k
    coeffs[j] -= k
    coeffs[4 + EDGE_PAIRS.index((i, j))] = 1.0
    return BaryQuadratic("volume", coeffs)

#: Constants of the symmetric-quadratic families (verified by moments in tests).
SYMQUAD_FACE_CONSTANT = 8.0 / 15.0
SYMQUAD_VOLUME_H = 23.0 / 840.0
SYMQUAD_VOLUME_K = 3.0 / 20.0


def dirichlet_face_constant(alpha):
    """Constant c making sum mu^2 - c orthogonal to affines under dirichlet(alpha)."""
    return (alpha + 1.0) / (3.0 * alpha + 1.0)


def dirichlet_volume_hk(gamma):
    """(h, k) making lambda_i lambda_j + h - k (lambda_i + lambda_j) orthogonal
    to affines under the volume dirichlet(gamma) density."""
    h = gamma**2 / (2.0 * (2.0 * gamma + 1.0) * (4.0 * gamma + 1.0))
    k = gamma / (2.0 * (2.0 * gamma + 1.0))
    return h, k


def face_ortho_quadratic(density):
    """Quadratic on a face orthogonal to all affine functions under `density`."""
    if density.space != "face":
        raise ValueError("expected a face density")
    if density.variant in ("uniform", "dirichlet"):
        alpha = density.components[0][1][0] + 1.0
        return _face_sum_of_squares_minus(dirichlet_face_constant(alpha))
    if density.variant == "symmetric-quadratic":
        return _face_sum_of_squares_minus(SYMQUAD_FACE_CONSTANT)
    raise ValueError(f"unsupported face density variant {density.variant!r}")


def _volume_hk_for(density):
    if density.variant in ("uniform", "dirichlet"):
        gamma = density.components[0][1][0] + 1.0
        return dirichlet_volume_hk(gamma)
    if density.variant == "symmetric-quadratic":
        return SYMQUAD_VOLUME_H, SYMQUAD_VOLUME_K
    return None


def volumetric_psi(density):
    """Six interior quadratics, one per coordinate pair, orthogonal to affines.

    Closed-form constants for the uniform, dirichlet and symmetric-quadratic
    densities; general densities (blends) use the Gram-Schmidt construction.
    """
    if density.space != "volume":
        raise ValueError("expected a volume density")
    hk = _volume_hk_for(density)
    if hk is not None:
        h, k = hk
        return [_pair_quadratic(i, j, h, k) for i, j in EDGE_PAIRS]
    return [
        gram_schmidt_enrich(_pair_quadratic(i, j, 0.0, 0.0), density)
        for i, j in EDGE_PAIRS
    ]


def edge_ortho_quadratic(density):
    """Monic quadratic in t orthogonal to {1, t} under a Beta edge density.

    Built by Gram-Schmidt from analytic Beta moments; the coefficients are
    exact rational functions of (zeta, nu) up to round-off.
    """
    if density.space != "edge":
        raise ValueError("expected an edge density")
    return gram_schmidt_enrich(BaryQuadratic("edge", [0.0, 0.0, 1.0]), density)


def gram_schmidt_enrich(seed, density):
    """Remove from `seed` its projection onto the affine span under `density`.

    The result is orthogonal to every affine function with respect to the
    density's inner product and keeps the seed's quadratic part (monic in
    the seed).  Raises if the seed has no quadratic part.
    """
    if seed.space != density.space:
        raise ValueError("seed and density live on different domains")
    # In every basis the first dim + 1 monomials span the affines: 1 and t on
    # an edge, the coordinates (whose sum is 1) on a face or the volume.
    n = density.dim + 1
    if not np.any(seed.coeffs[n:]):
        raise ValueError("seed is affine; nothing to orthogonalize")
    affine = _BASIS_BY_SPACE[seed.space][:n]

    gram = np.empty((n, n))
    rhs = np.empty(n)
    for r, er in enumerate(affine):
        for s, es in enumerate(affine):
            gram[r, s] = density.moment(np.add(er, es))
        rhs[r] = sum(
            c * density.moment(np.add(er, exps)) for c, exps in seed.terms()
        )
    proj = np.linalg.solve(gram, rhs)

    coeffs = seed.coeffs.copy()
    coeffs[:n] -= proj
    return BaryQuadratic(seed.space, coeffs)
