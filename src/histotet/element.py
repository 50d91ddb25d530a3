"""Per-element operators for the enrichment strategies.

A strategy defines ten linear functionals on quadratics over a tetrahedron:
four face averages plus six enriched moments (weighted face moments and two
interior moments; six interior moments; or six edge moments).  Because every
functional is a normalized expectation in barycentric coordinates, the
10 x 10 functional matrix is the same on every tetrahedron: it is assembled
once per strategy from closed-form density moments and reused mesh-wide.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .densities import (
    PARAM_FLOOR,
    BaryQuadratic,
    Density,
    VOLUME_BASIS_EXPONENTS,
    edge_density,
    edge_ortho_quadratic,
    face_density,
    face_ortho_quadratic,
    volume_density,
    volumetric_psi,
)
from .simplex import EDGE_PAIRS, FACE_VERTEX_INDICES

#: Condition number above which assembly warns about ill-conditioning.
CONDITION_WARN = 1e12

#: LU pivot threshold (relative to the largest entry) for the rank-6 test.
PIVOT_RTOL = 1e-14


class UnisolvenceError(RuntimeError):
    """Raised when a strategy's functional matrix is numerically singular."""


def lambda_basis(lam):
    """Values of the ten quadratic basis monomials at barycentric points.

    Input shape (..., 4), output shape (..., 10) in Lambda order
    [l1, l2, l3, l4, l1*l2, l1*l3, l1*l4, l2*l3, l2*l4, l3*l4].
    """
    lam = np.asarray(lam, dtype=float)
    cols = [lam[..., i] for i in range(4)]
    cols += [lam[..., i] * lam[..., j] for i, j in EDGE_PAIRS]
    return np.stack(cols, axis=-1)


#: Method id -> (StrategyConfig kind, parameter names in order): each
#: strategy is one two-parameter density family, classical has none.
METHODS = {
    "classical": ("classical", ()),
    "fv": ("face_volume", ("alpha", "beta")),
    "vol": ("volumetric", ("theta", "gamma")),
    "ef": ("edge_face", ("zeta", "nu")),
}

_METHOD_OF_KIND = {kind: method for method, (kind, _) in METHODS.items()}


@dataclass(frozen=True)
class StrategyConfig:
    """Which reconstruction scheme to use, with its density parameters.

    Use the classmethod constructors; positional construction is internal.
    The face averages use the dirichlet(alpha) density for the face-volume
    strategy and the uniform density otherwise.  The volumetric density is
    always the blend theta * uniform + (1 - theta) * dirichlet(gamma).
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    theta: float | None = None
    gamma: float | None = None
    zeta: float | None = None
    nu: float | None = None

    @classmethod
    def of(cls, method, *params):
        """Config of a method id from its parameters in METHODS order."""
        if method not in METHODS:
            raise ValueError(f"unknown strategy {method!r}")
        kind, names = METHODS[method]
        if len(params) != len(names):
            raise ValueError(f"{method} takes parameters {names}, got {params}")
        return cls(kind, **{name: float(p) for name, p in zip(names, params)})

    @classmethod
    def classical(cls):
        return cls.of("classical")

    @classmethod
    def face_volume(cls, alpha, beta):
        return cls.of("fv", alpha, beta)

    @classmethod
    def volumetric(cls, variant="dirichlet", gamma=None):
        """dirichlet(gamma) and uniform: the blend at theta=0 and theta=1."""
        if variant == "dirichlet" and gamma is not None:
            return cls.volumetric_blend(0.0, gamma)
        if variant == "uniform" and gamma is None:
            return cls.volumetric_blend(1.0, 1.0)
        raise ValueError(
            "the volume variants are 'dirichlet' with gamma and 'uniform' "
            f"without; got {variant!r} with gamma={gamma!r}"
        )

    @classmethod
    def volumetric_blend(cls, theta, gamma):
        return cls.of("vol", theta, gamma)

    @classmethod
    def edge_face(cls, zeta, nu):
        return cls.of("ef", zeta, nu)

    def __post_init__(self):
        if self.kind not in _METHOD_OF_KIND:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        for name in METHODS[self.method_id][1]:
            value = getattr(self, name)
            if value is None or not np.isfinite(value):
                raise ValueError(f"{self.method_id} needs a finite {name}, got {value!r}")
            elif name == "theta":
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"theta must lie in [0, 1], got {value!r}")
            elif value < PARAM_FLOOR:
                raise ValueError(
                    f"{name}={value!r} is below the admissible floor {PARAM_FLOOR}"
                )

    @property
    def method_id(self):
        return _METHOD_OF_KIND[self.kind]

    def params_text(self):
        names = METHODS[self.method_id][1]
        if not names:
            return "-"
        return ";".join(f"{name}={getattr(self, name):g}" for name in names)


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


def build_functionals(cfg):
    """The ordered functionals of a strategy (4 for classical, 10 otherwise)."""
    if cfg.kind == "face_volume":
        face = face_density("dirichlet", cfg.alpha)
    else:
        face = face_density("uniform")
    funcs = [Functional(FACE_VERTEX_INDICES[j], face, None) for j in range(4)]

    if cfg.kind == "classical":
        return tuple(funcs)

    if cfg.kind == "face_volume":
        q = face_ortho_quadratic(face)
        funcs += [Functional(FACE_VERTEX_INDICES[j], face, q) for j in range(4)]
        interior = volume_density("dirichlet", gamma=cfg.beta)
        funcs += [
            Functional(VOLUME_VERTICES, interior, rho)
            for rho in volumetric_psi(interior)[:2]
        ]
    elif cfg.kind == "volumetric":
        interior = volume_density("blend", gamma=cfg.gamma, theta=cfg.theta)
        funcs += [
            Functional(VOLUME_VERTICES, interior, psi)
            for psi in volumetric_psi(interior)
        ]
    else:  # edge_face
        dens = edge_density(cfg.zeta, cfg.nu)
        q = edge_ortho_quadratic(dens)
        funcs += [Functional((j, i), dens, q) for i, j in EDGE_PAIRS]
    return tuple(funcs)


def apply_functional_to_monomial(func, lam_exponents):
    """Exact value of a functional on a single lambda-monomial.

    The monomial vanishes on the domain if it has a positive power of a
    lambda outside func.vertices; otherwise it restricts to the native
    monomial with the exponents at func.vertices.
    """
    if any(e > 0 for k, e in enumerate(lam_exponents) if k not in func.vertices):
        return 0.0
    restricted = tuple(lam_exponents[k] for k in func.vertices)
    if func.weight_poly is None:
        return func.density.moment(restricted)
    return sum(
        c * func.density.moment(np.add(exps, restricted))
        for c, exps in func.weight_poly.terms()
    )


def _functional_matrix(functionals, columns=VOLUME_BASIS_EXPONENTS):
    return np.array(
        [
            [apply_functional_to_monomial(f, exps) for exps in columns]
            for f in functionals
        ]
    )


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


def _enriched_block(functionals):
    # Six enriched functionals against the six pair monomials.
    return _functional_matrix(functionals[4:], VOLUME_BASIS_EXPONENTS[4:])


def assemble_D(cfg):
    """The 6x6 enriched-moment matrix, assembled with the moment engine."""
    if cfg.kind == "classical":
        raise ValueError("the classical strategy has no enriched moment matrix")
    return _enriched_block(build_functionals(cfg))


def edge_diagonal_entry(zeta, nu):
    """Expectation of t(1-t) q(t) under Beta(zeta, nu); the unisolvence pivot."""
    dens = edge_density(zeta, nu)
    q = edge_ortho_quadratic(dens)
    return sum(c * dens.moment(np.add(exps, (1, 1))) for c, exps in q.terms())


@dataclass(frozen=True)
class UnisolvenceReport:
    """Diagnostics of the rank-6 condition for one strategy configuration."""

    strategy: str
    params: str
    det: float
    closed_form_det: float | None
    rel_error: float | None
    rank6: bool
    spd: bool | None
    cond: float

    @property
    def ok(self):
        return self.rank6 and (self.spd is not False)


def unisolvence_check(cfg):
    """Numerical rank-6 diagnostics of the enriched moment matrix.

    Compares the determinant against the closed form where one exists,
    attempts a Cholesky factorization for volumetric strategies, and checks
    that all LU pivots stay above PIVOT_RTOL times the largest entry.
    A failed check is reported, not raised.
    """
    return _report(cfg, assemble_D(cfg))


def _report(cfg, dmat):
    det = float(np.linalg.det(dmat))

    closed = None
    if cfg.kind == "face_volume":
        closed = det_dfv_closed(cfg.alpha, cfg.beta)
    elif cfg.kind == "volumetric" and cfg.theta in (0.0, 1.0):
        # theta=0 is dirichlet(gamma), theta=1 the uniform law dirichlet(1)
        closed = det_dvol_closed(cfg.gamma if cfg.theta == 0.0 else 1.0)
    rel = None if closed is None else abs(det - closed) / abs(closed)

    spd = None
    if cfg.kind == "volumetric":
        try:
            np.linalg.cholesky(0.5 * (dmat + dmat.T))
            spd = bool(np.allclose(dmat, dmat.T, rtol=0.0, atol=1e-15))
        except np.linalg.LinAlgError:
            spd = False

    _, _, upper = scipy.linalg.lu(dmat)
    pivots = np.abs(np.diag(upper))
    rank6 = bool(
        np.all(pivots > PIVOT_RTOL * np.max(np.abs(dmat))) and abs(det) > 1e-300
    )
    cond = float(np.linalg.cond(dmat))

    return UnisolvenceReport(
        strategy=cfg.method_id,
        params=cfg.params_text(),
        det=det,
        closed_form_det=closed,
        rel_error=rel,
        rank6=rank6,
        spd=spd,
        cond=cond,
    )


@dataclass(frozen=True)
class ElementOperator:
    """The assembled 10x10 functional matrix of a strategy and its inverse.

    The inverse columns are the coefficient vectors of the basis functions
    (chi_1..chi_10 in Lambda coordinates).  Geometry-independent: valid on
    every tetrahedron.
    """

    cfg: StrategyConfig
    functionals: tuple
    h: np.ndarray
    h_inv: np.ndarray
    cond: float
    report: UnisolvenceReport = field(repr=False)

    def basis_function(self, ell):
        """chi_ell, the basis polynomial dual to functional ell."""
        return BaryQuadratic("volume", self.h_inv[:, ell])


def _assemble_operator(cfg, functionals):
    # Enriched moments annihilate affine monomials by the orthogonality
    # construction, so their lower-left block is a structural zero rather
    # than the ~1e-17 round-off of the moment sums.
    h = np.zeros((10, 10))
    h[:4] = _functional_matrix(functionals[:4])
    h[4:, 4:] = _enriched_block(functionals)
    report = _report(cfg, h[4:, 4:])
    if not report.rank6:
        raise UnisolvenceError(
            f"strategy {cfg.method_id} ({cfg.params_text()}) is not unisolvent: "
            f"det={report.det:.3e}"
        )
    try:
        h_inv = np.linalg.solve(h, np.eye(len(h)))
    except np.linalg.LinAlgError as err:
        raise UnisolvenceError(
            f"functional matrix of {cfg.method_id} ({cfg.params_text()}) "
            "is singular"
        ) from err
    cond = float(np.linalg.cond(h))
    if cond > CONDITION_WARN:
        warnings.warn(
            f"functional matrix of {cfg.method_id} ({cfg.params_text()}) is "
            f"ill-conditioned: cond={cond:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ElementOperator(
        cfg=cfg, functionals=functionals, h=h, h_inv=h_inv, cond=cond, report=report
    )


def assemble_H(cfg):
    """Assemble the full 10x10 functional matrix and its inverse for a strategy.

    Raises UnisolvenceError when the configuration fails the rank-6 check.
    """
    if cfg.kind == "classical":
        raise ValueError("the classical strategy uses classical_project directly")
    return _assemble_operator(cfg, build_functionals(cfg))


def reconstruct(op, dofs):
    """Quadratic with the prescribed degrees of freedom: sum_l dof_l chi_l."""
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (10,):
        raise ValueError("expected 10 degrees of freedom")
    return BaryQuadratic("volume", op.h_inv @ dofs)


def classical_project(face_averages):
    """Affine reconstruction from the four uniform face averages.

    Returns sum_j avg_j * (1 - 3 lambda_j) as a volume BaryQuadratic whose
    quadratic part is zero.
    """
    avg = np.asarray(face_averages, dtype=float)
    if avg.shape != (4,):
        raise ValueError("expected 4 face averages")
    return BaryQuadratic("volume", classical_coefficients(avg))


def classical_coefficients(face_averages):
    """Vectorized classical reconstruction: (..., 4) averages -> (..., 10)."""
    avg = np.asarray(face_averages, dtype=float)
    coeffs = np.zeros(avg.shape[:-1] + (10,))
    coeffs[..., :4] = avg.sum(axis=-1, keepdims=True) - 3.0 * avg
    return coeffs
