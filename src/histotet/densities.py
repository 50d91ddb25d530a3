"""Probability densities on faces, volumes and edges, and the quadratic
polynomials orthogonal to affine functions under each of them.

A density is a space plus a finite mixture of Dirichlet laws on its simplex
(the Beta law on an edge is the 1-simplex case), so monomial moments are
exact gamma-function ratios and quadrature rules convex unions of collapsed
Gauss-Jacobi rules:

  * face_density(alpha)          -> dirichlet(alpha), uniform at alpha = 1
  * volume_density(gamma, theta) -> theta * uniform + (1 - theta) * dirichlet(gamma)
  * edge_density(zeta, nu)       -> t^(zeta-1) (1-t)^(nu-1), normalized

Every enrichment quadratic comes from one gram_schmidt_enrich call over a list
of seeds.  The paper's closed forms for symmetric Dirichlet laws serve fv only.
One pair rule orders simplex.EDGE_PAIRS and the face and volume bases, whose
exponent tables and monomial values both come from basis_monomials.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .quadrature import SimplexRule, simplex_rule
from .simplex import EDGE_PAIRS, dirichlet_expectation

#: Concentration-style parameters below this are rejected: the moment
#: matrices degenerate as the parameters approach zero.
PARAM_FLOOR = 1e-3


def _check_param(name, value):
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if v < PARAM_FLOOR:
        raise ValueError(f"{name} must be >= {PARAM_FLOOR}, the admissible floor, got {value!r}")
    return v


@dataclass(frozen=True)
class Density:
    """Mixture-of-Dirichlet density on a face (d=2), volume (d=3) or edge (d=1).

    components is a tuple of (coefficient, exponent-tuple) pairs; the
    coefficients are positive and sum to 1, so the density has mass 1.
    """

    space: str  # 'face' | 'volume' | 'edge'
    components: tuple

    @property
    def dim(self):
        return {"edge": 1, "face": 2, "volume": 3}[self.space]

    def moment(self, monomial_exponents):
        """Expectation of a barycentric monomial, or of a stack of them (one
        exponent tuple along the last axis each), under the density."""
        return sum(
            c * dirichlet_expectation(e, monomial_exponents)
            for c, e in self.components
        )

    def expect(self, poly, monomial_exponents):
        """E[poly x monomial] for a monomial or a stack of them, as `moment`;
        poly is a BaryQuadratic of the density's space, or None for 1.

        One `moment` call covers every term of poly; the terms are summed in
        basis order, as one call per term would."""
        if poly is None:
            return self.moment(monomial_exponents)
        p = np.asarray(monomial_exponents)
        terms = poly.terms()
        if not terms:
            return np.zeros(p.shape[:-1])
        coefs, exps = zip(*terms)
        stacked = np.reshape(exps, (len(exps),) + (1,) * (p.ndim - 1) + (-1,))
        return sum(c * m for c, m in zip(coefs, self.moment(stacked + p)))

    def rule(self, m):
        """Weighted simplex rule (mass 1) with m Gauss points per direction:
        the union of the component rules, each rule's weights times its coefficient.
        Densities with a common Dirichlet component (every blend's uniform part,
        the uniform face) share its cached rule."""
        parts = [(coef, simplex_rule(self.dim, exps, m)) for coef, exps in self.components]
        nodes = np.concatenate([r.nodes for _, r in parts])
        weights = np.concatenate([coef * r.weights for coef, r in parts])
        return SimplexRule(nodes, weights)


def face_density(alpha):
    """Symmetric dirichlet(alpha) density on a face; alpha = 1 is uniform."""
    a = _check_param("alpha", alpha)
    return Density("face", ((1.0, (a - 1.0,) * 3),))


def volume_density(gamma, theta=0.0):
    """theta * uniform + (1 - theta) * dirichlet(gamma) on the volume; theta = 0
    is dirichlet(gamma), and gamma = 1 or theta = 1 is uniform."""
    g = _check_param("gamma", gamma)
    t = float(theta)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    comps = []
    if t > 0.0:
        comps.append((t, (0.0,) * 4))
    if t < 1.0:
        comps.append((1.0 - t, (g - 1.0,) * 4))
    return Density("volume", tuple(comps))


def edge_density(zeta, nu):
    """Beta(zeta, nu) density on an edge, in coordinates (t, 1-t)."""
    z = _check_param("zeta", zeta)
    v = _check_param("nu", nu)
    return Density("edge", ((1.0, (z - 1.0, v - 1.0)),))


# ---------------------------------------------------------------------------
# Quadratic polynomials in the fixed coefficient bases.  Face and volume bases
# hold the coordinates, then their pairwise products in itertools.combinations
# order, that of simplex.EDGE_PAIRS; basis_monomials states the rule once.


def basis_monomials(x, n, product=np.multiply):
    """Values at the coordinates x[..., :n] of the face (n = 3) or volume
    (n = 4) basis monomials in basis order, each pair joined by `product`."""
    coords = [x[..., k] for k in range(n)]
    return coords + [product(a, b) for a, b in itertools.combinations(coords, 2)]


def lambda_basis(lam):
    """Values (..., 10) of the ten volume basis monomials at barycentric points (..., 4),
    in Lambda order [l1, l2, l3, l4, l1*l2, l1*l3, l1*l4, l2*l3, l2*l4, l3*l4].
    Each product is written straight into its column, so the only array
    allocated is the result (r and project build it at every DOF node)."""
    lam = np.asarray(lam, dtype=float)
    values = np.empty(lam.shape[:-1] + (10,))
    values[..., :4] = lam
    products = (values[..., k] for k in range(4, 10))
    basis_monomials(lam, 4, lambda a, b: np.multiply(a, b, out=next(products)))
    return values


#: Exponent tuples of the volume basis (Lambda order) and of the face basis, whose
#: constants are written via sum mu = 1: a product adds its factors' unit exponents.
VOLUME_BASIS_EXPONENTS, FACE_BASIS_EXPONENTS = (
    tuple(tuple(map(int, m)) for m in basis_monomials(np.eye(n, dtype=int), n, np.add))
    for n in (4, 3)
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
        # A private read-only copy: quadratics are shared by cached functionals.
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
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
        n = len(_BASIS_BY_SPACE[self.space][0])
        if x.shape[-1:] != (n,):
            raise ValueError(f"a {self.space} quadratic takes points of {n} coordinates, got shape {x.shape}")
        vals = np.zeros(x.shape[:-1])
        for c, mono in zip(self.coeffs, basis_monomials(x, n)):
            if c != 0.0:
                vals += c * mono
        return vals


def face_sum_of_squares_minus(c):
    """sum mu_r^2 - c, written as (1 - c) sum mu_r - 2 sum_{r<s} mu_r mu_s."""
    return BaryQuadratic("face", [1.0 - c] * 3 + [-2.0] * 3)


def pair_quadratic(i, j, h, k):
    """lambda_i lambda_j + h - k (lambda_i + lambda_j), constant via sum lambda = 1."""
    coeffs = np.zeros(10)
    coeffs[:4] = h
    coeffs[i] -= k
    coeffs[j] -= k
    coeffs[4 + EDGE_PAIRS.index((i, j))] = 1.0
    return BaryQuadratic("volume", coeffs)


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
    """sum mu^2 made orthogonal to all affine functions under a face density."""
    return gram_schmidt_enrich([face_sum_of_squares_minus(0.0)], density)[0]


def volumetric_psi(density):
    """Six interior quadratics, lambda_i lambda_j made orthogonal to all
    affine functions under a volume density, one per pair in EDGE_PAIRS."""
    return gram_schmidt_enrich([pair_quadratic(i, j, 0.0, 0.0) for i, j in EDGE_PAIRS], density)


def edge_ortho_quadratic(density):
    """Monic quadratic in t orthogonal to {1, t} under a Beta edge density.

    Built by Gram-Schmidt from analytic Beta moments; the coefficients are
    exact rational functions of (zeta, nu) up to round-off.
    """
    return gram_schmidt_enrich([BaryQuadratic("edge", [0.0, 0.0, 1.0])], density)[0]


def gram_schmidt_enrich(seeds, density):
    """Remove from each seed its projection onto the affine span under `density`.

    Each result, in seed order, is orthogonal to every affine function in the
    density's inner product and keeps its seed's quadratic part.  Every seed
    is checked first: one of another space or with no quadratic part raises
    before any moment is computed.  The seeds share one Gram matrix, and one
    moment call covers every term of every seed, summed as Density.expect does.
    """
    # In every basis the first dim + 1 monomials span the affines: 1 and t on
    # an edge, the coordinates (whose sum is 1) on a face or the volume.
    n = density.dim + 1
    for seed in seeds:
        if seed.space != density.space:
            raise ValueError("seed and density live on different domains")
        if not np.any(seed.coeffs[n:]):
            raise ValueError("seed is affine; nothing to orthogonalize")
    affine = np.array(_BASIS_BY_SPACE[density.space][:n])
    gram = density.moment(affine[:, None] + affine[None, :])
    terms = [seed.terms() for seed in seeds]
    exps = np.reshape([e for ts in terms for _, e in ts], (-1, 1, n))
    moments = iter(density.moment(exps + affine))
    enriched = []
    for seed, ts in zip(seeds, terms):
        coeffs = seed.coeffs.copy()
        coeffs[:n] -= np.linalg.solve(gram, sum(c * next(moments) for c, _ in ts))
        enriched.append(BaryQuadratic(seed.space, coeffs))
    return enriched
