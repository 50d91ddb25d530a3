"""Per-element operators for the enrichment strategies.

A strategy defines ten linear functionals on quadratics over a tetrahedron:
four face averages plus six enriched moments (weighted face moments and two
interior moments; six interior moments; or six edge moments).  Because every
functional is a normalized expectation in barycentric coordinates, the
10 x 10 functional matrix is the same on every tetrahedron: it is assembled
once per strategy from closed-form density moments and reused mesh-wide.
"""

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .densities import (
    BaryQuadratic,
    Density,
    VOLUME_BASIS_EXPONENTS,
    dirichlet_face_constant,
    dirichlet_volume_hk,
    edge_density,
    edge_ortho_quadratic,
    face_density,
    face_sum_of_squares_minus,
    lambda_basis,
    pair_quadratic,
    volume_density,
    volumetric_psi,
)
from .simplex import EDGE_PAIRS, FACE_VERTEX_INDICES

#: Smallest singular value, relative to the largest, of a rank-6 block.
RANK_RTOL = 1e-14


class UnisolvenceError(RuntimeError):
    """Raised when a strategy's functional matrix is numerically singular or
    its enrichment quadratics cannot be formed in floating point, and by the
    engine that admits a configuration (experiment._ErrorEngine) for a block
    that is not SPD or DOFs that do not reproduce quadratics."""


#: Barycentric indices of the volume's native coordinates.
VOLUME_VERTICES = (0, 1, 2, 3)


@dataclass(frozen=True)
class Functional:
    """One degree of freedom: an expectation over a face, the volume or an edge.

    The domain is density.space.  vertices is the one lift between the
    density's native coordinates and the tetrahedron's barycentrics: native
    coordinate r is lambda_{vertices[r]}, and every other lambda vanishes on
    the domain.  Face j has FACE_VERTEX_INDICES[j], the volume
    VOLUME_VERTICES, and the edge from vertex i to j has (j, i), because its
    parameter t is lambda_j.  weight_poly is None for a plain average and the
    enrichment quadratic for a weighted moment.
    """

    vertices: tuple
    density: Density
    weight_poly: BaryQuadratic | None


def det_dfv_closed(alpha, beta):
    """Closed-form determinant of the face-volume matrix (positive for a,b > 0)."""
    a, b = float(alpha), float(beta)
    return (
        a**4
        * b**2
        / (
            2.0
            * (3.0 * (3.0 * a + 1.0)) ** 8
            * (3.0 * a + 2.0) ** 4
            * (2.0 * b + 1.0) ** 2
            * (4.0 * b + 1.0) ** 2
            * (4.0 * b + 3.0) ** 2
        )
    )


def det_dvol_closed(gamma):
    """Closed-form determinant of the volumetric matrix (positive for gamma > 0)."""
    g = float(gamma)
    return (
        g**6
        * (g + 1.0) ** 4
        / (
            2.0**18
            * (2.0 * g + 1.0) ** 9
            * (4.0 * g + 1.0) ** 7
            * (4.0 * g + 3.0) ** 6
        )
    )


def _fv_functionals(face, dens):
    # The paper's closed forms, at alpha and beta read back from the
    # exponents ((0.1 - 1) + 1 != 0.1) as the fv outputs were computed.
    # The planned byte move replaces them with face_ortho_quadratic and
    # volumetric_psi, which agree with them to round-off.
    q = face_sum_of_squares_minus(dirichlet_face_constant(face.components[0][1][0] + 1.0))
    h, k = dirichlet_volume_hk(dens.components[0][1][0] + 1.0)
    return [Functional(FACE_VERTEX_INDICES[j], face, q) for j in range(4)] + [
        Functional(VOLUME_VERTICES, dens, pair_quadratic(i, j, h, k)) for i, j in EDGE_PAIRS[:2]
    ]


@dataclass(frozen=True)
class Method:
    """One strategy's row of METHODS: its long name, its parameter names, and
    each decision that differs between strategies.  densities(*values) is
    (face density, enrichment density or None) and checks the values;
    enrich(face, density) lists the six enriched functionals; closed_det
    (*values) is the enriched block's closed-form determinant or None; spd
    says whether check factors the block."""

    kind: str
    params: tuple
    densities: Callable
    enrich: Callable | None = None
    closed_det: Callable = lambda *values: None
    spd: bool = False


#: Method id -> Method: each strategy is one two-parameter density family,
#: classical has none.  vol's blend theta * uniform + (1 - theta) *
#: dirichlet(gamma) is the uniform law dirichlet(1) at theta = 1 or gamma = 1.
METHODS = {
    "classical": Method("classical", (), lambda: (face_density(1.0), None)),
    "fv": Method(
        "face_volume", ("alpha", "beta"),
        lambda alpha, beta: (face_density(alpha), volume_density(beta)),
        _fv_functionals, det_dfv_closed,
    ),
    "vol": Method(
        "volumetric", ("theta", "gamma"),
        lambda theta, gamma: (face_density(1.0), volume_density(gamma, theta)),
        lambda face, dens: [Functional(VOLUME_VERTICES, dens, psi) for psi in volumetric_psi(dens)],
        lambda theta, gamma: (
            det_dvol_closed(1.0 if theta == 1.0 else gamma) if theta in (0.0, 1.0) or gamma == 1.0 else None
        ),
        spd=True,
    ),
    "ef": Method(
        "edge_face", ("zeta", "nu"),
        lambda zeta, nu: (face_density(1.0), edge_density(zeta, nu)),
        # one quadratic, shared by the six edge functionals
        lambda face, dens: [Functional((j, i), dens, q) for q in [edge_ortho_quadratic(dens)] for i, j in EDGE_PAIRS],
        # the block is the edge pivot times the identity
        lambda zeta, nu: edge_diagonal_entry(zeta, nu) ** 6,
    ),
}


@dataclass(frozen=True)
class StrategyConfig:
    """A METHODS id and its parameter values, in the row's order, as floats
    (-0 becomes 0, the config it equals) that the row's densities check."""

    method_id: str
    params: tuple = ()

    @classmethod
    def of(cls, method, *params):
        """Config of a method id from its parameters in METHODS order."""
        return cls(method, params)

    @classmethod
    def face_volume(cls, alpha, beta):
        return cls.of("fv", alpha, beta)

    @classmethod
    def volumetric_blend(cls, theta, gamma):
        return cls.of("vol", theta, gamma)

    @classmethod
    def edge_face(cls, zeta, nu):
        return cls.of("ef", zeta, nu)

    def __post_init__(self):
        if self.method_id not in METHODS:
            raise ValueError(f"unknown strategy {self.method_id!r}")
        if len(self.params) != len(self.row.params):
            raise ValueError(f"{self.method_id} takes parameters {self.row.params}, got {self.params}")
        object.__setattr__(self, "params", tuple(float(p) + 0.0 for p in self.params))
        self.row.densities(*self.params)

    @property
    def row(self):
        return METHODS[self.method_id]

    @property
    def kind(self):
        return self.row.kind

    def __getattr__(self, name):
        row = METHODS.get(vars(self).get("method_id"))
        if row is None or name not in row.params:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.params[row.params.index(name)]

    def params_text(self):
        return ";".join(f"{name}={param_text(p)}" for name, p in zip(self.row.params, self.params)) or "-"


def param_text(value):
    """A parameter value as text that parses back to it: :g where that
    round-trips, repr otherwise, so distinct values never print alike."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


@functools.cache
def build_functionals(cfg):
    """The ordered functionals of a strategy (4 for classical, 10 otherwise),
    built once per configuration and shared by its DOF table, H and checks.

    Raises UnisolvenceError, naming the configuration, for a parameter too
    large for its enrichment quadratics: the fv closed form overflows, the
    affine Gram matrix of a vol or ef density is singular, or a quadratic is
    not finite."""
    face, dens = cfg.row.densities(*cfg.params)
    funcs = [Functional(FACE_VERTEX_INDICES[j], face, None) for j in range(4)]
    if dens is None:
        return tuple(funcs)
    try:
        with np.errstate(all="ignore"):  # a non-finite quadratic is refused below
            funcs += cfg.row.enrich(face, dens)
    except OverflowError:
        why = "its closed-form interior quadratic overflows"
    except np.linalg.LinAlgError:
        why = f"the affine Gram matrix of its {dens.space} density is singular"
    else:
        if all(np.isfinite(func.weight_poly.coeffs).all() for func in funcs[4:]):
            return tuple(funcs)
        why = f"the moments of its {dens.space} density are not finite"
    raise UnisolvenceError(
        f"strategy {cfg.method_id} ({cfg.params_text()}) has no enrichment quadratic "
        f"in floating point: {why}"
    )


def _functional_matrix(functionals, columns=VOLUME_BASIS_EXPONENTS):
    """Exact values of the functionals (rows) on lambda-monomials (columns).

    A monomial with a positive power of a lambda outside func.vertices
    vanishes on the domain; the others restrict to the native monomials
    with the exponents at func.vertices.  Functionals with one density and
    one weight polynomial (the four face averages, say) share one
    Density.expect call on the stack of their native monomials.
    """
    cols = np.array(columns)
    groups = {}
    for row, f in enumerate(functionals):
        groups.setdefault((f.density, id(f.weight_poly)), []).append(row)
    out = np.empty((len(functionals), len(cols)))
    for rows in groups.values():
        first = functionals[rows[0]]
        native = np.stack([cols[:, functionals[r].vertices] for r in rows])
        # Exponents are nonnegative: a monomial vanishes exactly when its
        # native restriction has lost degree.
        vanishes = native.sum(axis=-1) < cols.sum(axis=-1)
        out[rows] = np.where(vanishes, 0.0, first.density.expect(first.weight_poly, native))
    return out


def _enriched_block(functionals):
    # Six enriched functionals against the six pair monomials.
    return _functional_matrix(functionals[4:], VOLUME_BASIS_EXPONENTS[4:])


def edge_diagonal_entry(zeta, nu):
    """Expectation of t(1-t) q(t) under Beta(zeta, nu); the unisolvence pivot."""
    dens = edge_density(zeta, nu)
    return dens.expect(edge_ortho_quadratic(dens), (1, 1))


def _full_rank(dmat):
    """(smallest singular value > RANK_RTOL * largest, singular values); a
    matrix with a non-finite entry is not of full rank, its values all NaN."""
    if not np.isfinite(dmat).all():
        return False, np.full(len(dmat), np.nan)
    s = np.linalg.svd(dmat, compute_uv=False)
    return bool(s[-1] > RANK_RTOL * s[0]), s


@dataclass(frozen=True)
class ElementOperator:
    """A strategy's 10x10 functional matrix H, the diagnostics of its
    enriched block h[4:, 4:] that check prints, and, when that block has
    rank 6 (see _full_rank), H's inverse and cond(H); both are None otherwise.

    The inverse columns are the coefficient vectors of the basis functions
    (chi_1..chi_10 in Lambda coordinates).  Geometry-independent: valid on
    every tetrahedron.
    """

    h: np.ndarray
    h_inv: np.ndarray | None
    cond: float | None
    det: float
    closed_form_det: float | None
    rel_error: float | None
    rank6: bool
    spd: bool | None
    block_cond: float

    @property
    def ok(self):
        return self.rank6 and (self.spd is not False)


def _assemble_operator(cfg, functionals):
    # Enriched moments annihilate affine monomials by the orthogonality
    # construction, so their lower-left block is a structural zero rather
    # than the ~1e-17 round-off of the moment sums.
    h = np.zeros((10, 10))
    with np.errstate(all="ignore"):  # a non-finite moment fails the rank check
        h[:4] = _functional_matrix(functionals[:4])
        h[4:, 4:] = _enriched_block(functionals)
        block = h[4:, 4:]
        det = float(np.linalg.det(block))
        try:
            closed = cfg.row.closed_det(*cfg.params)
        except OverflowError:
            closed = None
        if not (closed and np.isfinite(closed)):  # absent, or beyond floating point
            closed = None
        spd = None
        if cfg.row.spd:
            try:
                np.linalg.cholesky(0.5 * (block + block.T))
                spd = bool(np.allclose(block, block.T, rtol=0.0, atol=1e-15))
            except np.linalg.LinAlgError:
                spd = False
        rank6, s = _full_rank(block)
        block_cond = float(s[0] / s[-1])  # as np.linalg.cond: inf when singular
        h_inv = cond = None
        if rank6:
            try:
                h_inv = np.linalg.solve(h, np.eye(len(h)))
            except np.linalg.LinAlgError as err:
                raise UnisolvenceError(
                    f"functional matrix of {cfg.method_id} ({cfg.params_text()}) is singular"
                ) from err
            cond = float(np.linalg.cond(h))
    rel = None if closed is None else abs(det - closed) / abs(closed)
    return ElementOperator(h, h_inv, cond, det, closed, rel, rank6, spd, block_cond)


def unisolvence_check(cfg):
    """The ElementOperator of a strategy, for its rank-6 diagnostics: a
    failed rank test is reported, not raised."""
    if cfg.row.enrich is None:
        raise ValueError(f"the {cfg.method_id} strategy has no enriched moment matrix")
    return _assemble_operator(cfg, build_functionals(cfg))


def assemble_H(cfg):
    """The ElementOperator of a strategy, whose inverse every command applies.

    Raises UnisolvenceError when the configuration fails the rank-6 check.
    """
    if cfg.row.enrich is None:
        raise ValueError(f"the {cfg.method_id} strategy has no functional matrix: see _ErrorEngine.coefficients")
    op = _assemble_operator(cfg, build_functionals(cfg))
    if not op.rank6:
        s = _full_rank(op.h[4:, 4:])[1]
        raise UnisolvenceError(
            f"strategy {cfg.method_id} ({cfg.params_text()}) is not unisolvent: "
            f"its enriched block's singular values range from {s[-1]:.3e} to {s[0]:.3e}"
        )
    return op
