"""Degrees of freedom of target functions, mesh-level L1 errors, parameter
tuning by grid search, and the convergence study.

The mesh loops are vectorized: each strategy's functionals are turned once
into a quadrature table (barycentric nodes plus one weight row per
functional), DOFs of all cells in a chunk are a single matrix product, and
the reconstruction coefficients follow from the precomputed inverse of the
functional matrix.  Per-cell contributions are accumulated in cell-index
order so results are deterministic for any thread count.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .element import (
    METHODS,
    StrategyConfig,
    assemble_H,
    build_functionals,
    classical_coefficients,
    lambda_basis,
)
from .mesh import build_mesh
from .quadrature import simplex_rule_plain
from .simplex import Tetrahedron
from .targets import TargetFunction

#: Target size (in scalars) of one chunk's function-value block.
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class QuadSettings:
    """Quadrature resolution: Gauss points per direction for DOF integrals
    and the polynomial exactness degree of the plain L1 error rule."""

    dof_points: int = 8
    error_degree: int = 8


@dataclass(frozen=True)
class DofTable:
    """Barycentric quadrature nodes shared by a strategy's functionals.

    dofs(f) on a cell = weights @ f(points at nodes); shape (n_dofs, n_nodes).
    """

    nodes: np.ndarray
    weights: np.ndarray


def build_dof_table(cfg, settings=QuadSettings()):
    """Quadrature table evaluating all functionals of a strategy at once.

    Functionals sharing a domain and density (e.g. the plain and weighted
    moments on one face, or the six interior moments) share their nodes.
    """
    return _table_from_functionals(build_functionals(cfg), settings.dof_points)


def _table_from_functionals(functionals, m):
    groups = {}
    order = []
    for row, func in enumerate(functionals):
        key = (func.vertices, id(func.density))
        if key not in groups:
            groups[key] = (func, [])
            order.append(key)
        groups[key][1].append((row, func.weight_poly))

    blocks = []
    row_weights = []  # (row, start, weight-vector)
    start = 0
    for key in order:
        rep, members = groups[key]
        rule = rep.density.rule(m)
        lam = np.zeros((len(rule), 4))
        lam[:, list(rep.vertices)] = rule.nodes
        blocks.append(lam)
        # Edge quadratics are polynomials in t, the first native coordinate.
        native = rule.nodes[:, 0] if rep.density.space == "edge" else rule.nodes
        for row, poly in members:
            w = rule.weights if poly is None else rule.weights * poly(native)
            row_weights.append((row, start, w))
        start += len(rule)

    nodes = np.concatenate(blocks)
    weights = np.zeros((len(functionals), len(nodes)))
    for row, offset, w in row_weights:
        weights[row, offset : offset + len(w)] = w
    return DofTable(nodes=nodes, weights=weights)


def _chunk_slices(n_cells, block):
    block = max(1, block)
    return [slice(i, min(i + block, n_cells)) for i in range(0, n_cells, block)]


def _dofs_for_cells(f, cell_vertices, table):
    # (P, 4) @ (c, 4, 3) -> (c, P, 3) batched over cells
    points = np.matmul(table.nodes, cell_vertices)
    return f(points) @ table.weights.T


def compute_dofs(f, tet, cfg, settings=QuadSettings()):
    """Degrees of freedom of a function on one tetrahedron.

    Returns 10 values for the quadratic strategies, 4 (the uniform face
    averages) for the classical one.
    """
    if isinstance(tet, Tetrahedron):
        verts = tet.vertices
    else:
        verts = np.asarray(tet, dtype=float)
    table = build_dof_table(cfg, settings)
    return _dofs_for_cells(f, verts[None], table)[0]


def _run_chunks(work, slices, threads):
    """[work(sl) for sl in slices], on a pool of `threads` workers when there
    is more than one chunk; results come back in slice order."""
    if threads <= 1 or len(slices) <= 1:
        return [work(sl) for sl in slices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, slices))


@dataclass
class _ErrorEngine:
    """Reusable pieces of the per-mesh L1 error computation for one strategy."""

    cfg: StrategyConfig
    settings: QuadSettings
    table: DofTable = field(init=False)
    h_inv_t: np.ndarray | None = field(init=False)
    err_nodes: np.ndarray = field(init=False)
    err_weights: np.ndarray = field(init=False)
    err_basis_t: np.ndarray = field(init=False)

    def __post_init__(self):
        self.table = build_dof_table(self.cfg, self.settings)
        if self.cfg.kind == "classical":
            self.h_inv_t = None
        else:
            self.h_inv_t = assemble_H(self.cfg).h_inv.T
        rule = simplex_rule_plain(3, self.settings.error_degree)
        self.err_nodes = rule.nodes
        self.err_weights = rule.weights
        self.err_basis_t = lambda_basis(rule.nodes).T  # (10, E)

    def coefficients(self, dofs):
        if self.h_inv_t is None:
            return classical_coefficients(dofs)
        return dofs @ self.h_inv_t

    def target_values_at_error_nodes(self, f, cell_vertices):
        n_cells = len(cell_vertices)
        out = np.empty((n_cells, len(self.err_nodes)))
        for sl in _chunk_slices(n_cells, _CHUNK_BUDGET // len(self.err_nodes)):
            out[sl] = f(np.matmul(self.err_nodes, cell_vertices[sl]))
        return out

    def l1_on_mesh(self, f, mesh, threads=1, f_err_values=None):
        """Sum over cells of volume * E[|f - reconstruction|].

        f_err_values optionally supplies precomputed f values at the error
        nodes of every cell (cache used by the tuner).
        """
        verts = mesh.cell_vertex_array
        vols = mesh.cell_volumes()
        n_pts = len(self.table.nodes) + len(self.err_nodes)
        slices = _chunk_slices(len(mesh), _CHUNK_BUDGET // n_pts)

        def work(sl):
            dofs = _dofs_for_cells(f, verts[sl], self.table)
            coeffs = self.coefficients(dofs)
            if f_err_values is None:
                fe = f(np.matmul(self.err_nodes, verts[sl]))
            else:
                fe = f_err_values[sl]
            recon = coeffs @ self.err_basis_t
            cell_err = np.abs(fe - recon) @ self.err_weights
            bad = np.flatnonzero(~np.isfinite(cell_err))
            if bad.size:
                raise ValueError(
                    f"non-finite L1 error for function {f.id} on mesh n={mesh.n} "
                    f"({self.cfg.method_id}), first at cell {sl.start + bad[0]}"
                )
            return float(cell_err @ vols[sl])

        partials = np.array(_run_chunks(work, slices, threads))
        # Fixed summation order keeps the result thread-count independent.
        return float(partials.sum())


def l1_error(f, mesh, cfg, settings=QuadSettings(), threads=1):
    """L1 reconstruction error of a strategy for one function on one mesh."""
    return _ErrorEngine(cfg, settings).l1_on_mesh(f, mesh, threads=threads)


@dataclass(frozen=True)
class ErrorRow:
    """One benchmark measurement."""

    function: str
    n: int
    method: str
    params: str
    l1_error: float
    seconds: float


def convergence_study(functions, ns, methods, settings=QuadSettings(), threads=1):
    """One L1-error row per (function, mesh, method) combination.

    `functions` are TargetFunctions, `ns` grid parameters, `methods`
    StrategyConfigs.  Rows appear in method-major, function, mesh order and
    the numbers are deterministic for fixed settings.
    """
    meshes = {n: build_mesh(n) for n in ns}

    rows = []
    for cfg in methods:
        engine = _ErrorEngine(cfg, settings)
        for f in functions:
            for n in ns:
                start = time.perf_counter()
                err = engine.l1_on_mesh(f, meshes[n], threads=threads)
                elapsed = time.perf_counter() - start
                rows.append(
                    ErrorRow(
                        function=f.id,
                        n=int(n),
                        method=cfg.method_id,
                        params=cfg.params_text(),
                        l1_error=err,
                        seconds=elapsed,
                    )
                )
    return rows


@dataclass(frozen=True)
class TuningGrid:
    """Candidate parameter grid plus the validation protocol."""

    kind: str  # a METHODS id with parameters: 'fv' | 'vol' | 'ef'
    first: tuple
    second: tuple
    functions: tuple
    ns: tuple

    def __post_init__(self):
        if self.kind not in METHODS or not METHODS[self.kind][1]:
            raise ValueError(f"unknown tunable strategy kind {self.kind!r}")
        if not self.first or not self.second:
            raise ValueError("candidate grids must be nonempty")
        if not self.functions or not self.ns:
            raise ValueError("validation functions and meshes must be nonempty")


@dataclass(frozen=True)
class TuneResult:
    """Optimal parameter pair and the full accumulated-error surface."""

    axes: tuple
    best: tuple
    best_error: float
    surface: np.ndarray  # (len(first), len(second)) accumulated L1 errors
    first: tuple
    second: tuple

    def surface_rows(self):
        """(first, second, accumulated_error) triples in row-major order."""
        rows = []
        for ia, a in enumerate(self.first):
            for ib, b in enumerate(self.second):
                rows.append((a, b, float(self.surface[ia, ib])))
        return rows


def grid_search(grid, settings=QuadSettings(), threads=1, meshes=None):
    """Exhaustive bi-parametric search minimizing the accumulated L1 error.

    Every candidate pair is scored by the sum of L1 errors over the
    validation functions and meshes; the reported optimum is the first
    strict minimizer in row-major (outer first-axis, inner second-axis)
    order.  Target values at the error nodes are cached per (function,
    mesh), which changes nothing numerically.
    """
    if meshes is None:
        meshes = {}
    for n in grid.ns:
        if n not in meshes:
            meshes[n] = build_mesh(n)

    engines = {}
    for a in grid.first:
        for b in grid.second:
            engines[(a, b)] = _ErrorEngine(StrategyConfig.of(grid.kind, a, b), settings)

    surface = np.zeros((len(grid.first), len(grid.second)))
    any_engine = next(iter(engines.values()))
    for f in grid.functions:
        for n in grid.ns:
            mesh = meshes[n]
            fe = any_engine.target_values_at_error_nodes(f, mesh.cell_vertex_array)
            for ia, a in enumerate(grid.first):
                for ib, b in enumerate(grid.second):
                    surface[ia, ib] += engines[(a, b)].l1_on_mesh(
                        f, mesh, threads=threads, f_err_values=fe
                    )

    # argmin returns the first minimum in row-major order; the surface is
    # finite, because l1_on_mesh raises on a non-finite cell error.
    ia, ib = np.unravel_index(np.argmin(surface), surface.shape)
    best = (grid.first[ia], grid.second[ib])
    best_error = float(surface[ia, ib])

    return TuneResult(
        axes=METHODS[grid.kind][1],
        best=best,
        best_error=best_error,
        surface=surface,
        first=tuple(grid.first),
        second=tuple(grid.second),
    )
