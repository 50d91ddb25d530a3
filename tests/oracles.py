"""Closed forms and direct evaluations that the tests compare the library
against.  None of them is on a path the histotet command runs."""

from fractions import Fraction

import numpy as np

from histotet.densities import FACE_BASIS_EXPONENTS, VOLUME_BASIS_EXPONENTS, Density
from histotet.element import _enriched_block, _functional_matrix, build_functionals
from histotet.simplex import dirichlet_expectation


def barycentric(tet, points):
    """Barycentric coordinates of physical points in a Tetrahedron, shape
    (..., 3) -> (..., 4): the inverse of tet.point, through the inverse of
    the affine chart whose rows are [x; y; z; 1] and columns the vertices."""
    p = np.asarray(points, dtype=float)
    rhs = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    return rhs @ np.linalg.inv(np.vstack([tet.vertices.T, np.ones(4)])).T


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


def symmetric_quadratic_density(space):
    """Density on a face or the volume proportional to the sum of squared
    barycentric coordinates: the equal-weight mixture of the Dirichlet laws
    with one exponent 2 and the others 0."""
    n = {"face": 3, "volume": 4}[space]
    return Density(
        space,
        tuple((1.0 / n, tuple(2.0 if s == r else 0.0 for s in range(n))) for r in range(n)),
    )


def expect_per_term(density, poly, monomial_exponents):
    """E[poly x monomial] with one Density.moment call per term of poly,
    summed in basis order: the reference for the stacked Density.expect."""
    if poly is None:
        return density.moment(monomial_exponents)
    return sum(
        c * density.moment(np.add(exps, monomial_exponents))
        for c, exps in poly.terms()
    )


def monomial_by_exponents(x, exps):
    """One barycentric monomial at points x (..., d+1), a factor x_k^e for
    each nonzero exponent e: the reference for densities.basis_monomials."""
    mono = np.ones(x.shape[:-1])
    for k, e in enumerate(exps):
        if e:
            mono = mono * x[..., k] ** e
    return mono


def evaluate_by_exponents(poly, coords):
    """A BaryQuadratic at coords by one exponent-loop monomial per nonzero
    term, summed in basis order (edges by Horner in t): the reference for
    BaryQuadratic.__call__."""
    x = np.asarray(coords, dtype=float)
    if poly.space == "edge":
        return poly.coeffs[0] + x * (poly.coeffs[1] + x * poly.coeffs[2])
    basis = {"face": FACE_BASIS_EXPONENTS, "volume": VOLUME_BASIS_EXPONENTS}[poly.space]
    vals = np.zeros(x.shape[:-1])
    for c, exps in zip(poly.coeffs, basis):
        if c == 0.0:
            continue
        vals += c * monomial_by_exponents(x, exps)
    return vals


def functional_matrix_per_row(functionals, columns=VOLUME_BASIS_EXPONENTS):
    """The functional matrix one row and one expect_per_term at a time: the
    reference for the grouped element._functional_matrix."""
    cols = np.array(columns)
    rows = []
    for f in functionals:
        vanishes = np.delete(cols, f.vertices, axis=1).any(axis=1)
        values = expect_per_term(f.density, f.weight_poly, cols[:, f.vertices])
        rows.append(np.where(vanishes, 0.0, values))
    return np.array(rows)


def assemble_D(cfg):
    """The 6x6 enriched-moment matrix, assembled with the moment engine."""
    if cfg.row.enrich is None:
        raise ValueError(f"the {cfg.method_id} strategy has no enriched moment matrix")
    return _enriched_block(build_functionals(cfg))


def apply_functionals(functionals, poly):
    """Apply functionals to a volume BaryQuadratic via analytic moments."""
    return _functional_matrix(functionals) @ poly.coeffs


def exact_solve(h, d):
    """The solution x of h x = d, by Gauss-Jordan elimination in exact
    rationals on the float entries, rounded once to floats: the reference for
    a float64 solve of the same system."""
    n = len(h)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(b))] for row, b in zip(h, d)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[col])]
    return np.array([float(row[n]) for row in rows])


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


def cell_values(f, vertices, cells, nodes):
    """f at the barycentric `nodes` in each cell (a row of vertex ids into
    `vertices`), shape (cells, nodes): nodes @ the cell's four vertex
    coordinates, one cell at a time.  The reference for the point mapping of
    experiment._mapped."""
    return f(np.array([nodes @ vertices[cell] for cell in cells]))


def dense_dof_table(functionals, m):
    """A DOF table's (nodes, weights) built as two dense arrays: each (domain,
    density) group's Density.rule lifted to four barycentric coordinates,
    and each functional's weights written into its row of a zero
    (functionals x nodes) matrix.  The reference for the dense nodes and
    weights that experiment.DofTable builds from its groups."""
    groups = {}
    for row, func in enumerate(functionals):
        groups.setdefault((func.vertices, func.density), []).append((row, func.weight_poly))
    rules = [(vertices, density.rule(m)) for vertices, density in groups]
    weights = np.zeros((len(functionals), sum(len(rule) for _, rule in rules)))
    lifted, start = [], 0
    for ((vertices, density), rows), (_, rule) in zip(groups.items(), rules):
        lam = np.zeros((len(rule), 4))
        lam[:, list(vertices)] = rule.nodes
        lifted.append(lam)
        native = rule.nodes[:, 0] if density.space == "edge" else rule.nodes
        for row, poly in rows:
            weights[row, start : start + len(rule)] = (
                rule.weights if poly is None else rule.weights * poly(native)
            )
        start += len(rule)
    return np.concatenate(lifted), weights
