"""Degrees of freedom of target functions, mesh-level L1 errors, parameter
tuning by grid search, and the convergence study.

The mesh loops are vectorized: each strategy's functionals are turned once
into a quadrature table (barycentric nodes plus one weight row per
functional), DOFs of all cells in a chunk are a single matrix product, and
the reconstruction coefficients follow from the precomputed inverse of the
functional matrix.  One pass per (function, mesh) scores every strategy or
tuning candidate.  A table is a concatenation of blocks, one per (domain,
Dirichlet component, m), and strategies share blocks (the uniform face
block of classical, vol and ef; a blend's uniform block for every theta),
so each chunk of cells evaluates the target once per distinct block and
once at the shared error nodes.  Per-cell contributions are accumulated in
cell-index order so results are deterministic for any thread count.
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

#: Target size (in scalars) of one chunk's function-value block.
_CHUNK_BUDGET = 4_000_000

#: Points mapped and evaluated at a time inside a chunk.
_SLICE_POINTS = 65_536


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
    blocks holds one (key, start, stop) per Dirichlet component of each
    (domain, density) group, key = (vertices, component exponents, m):
    nodes[start:stop] depend on the key alone, so tables with a common key
    share those nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    blocks: tuple


def build_dof_table(cfg, settings=QuadSettings()):
    """Quadrature table evaluating all functionals of a strategy at once.

    Functionals sharing a domain and density (e.g. the plain and weighted
    moments on one face, or the six interior moments) share their nodes.
    """
    return _table_from_functionals(build_functionals(cfg), settings.dof_points)


def _table_from_functionals(functionals, m):
    groups = {}
    for row, func in enumerate(functionals):
        groups.setdefault((func.vertices, func.density), []).append((row, func.weight_poly))

    # One rule per density, lifted to each of its domains.
    rules = {d: d.rule(m) for d in dict.fromkeys(d for _, d in groups)}
    lifted = []
    blocks = []
    row_weights = []  # (row, start, weight-vector)
    start = 0
    for (vertices, density), members in groups.items():
        rule = rules[density]
        lam = np.zeros((len(rule), 4))
        lam[:, list(vertices)] = rule.nodes
        lifted.append(lam)
        # Density.rule concatenates the m^dim-point rules of its components.
        size = m**density.dim
        for k, (_, exps) in enumerate(density.components):
            blocks.append(((vertices, exps, m), start + k * size, start + (k + 1) * size))
        # Edge quadratics are polynomials in t, the first native coordinate.
        native = rule.nodes[:, 0] if density.space == "edge" else rule.nodes
        for row, poly in members:
            w = rule.weights if poly is None else rule.weights * poly(native)
            row_weights.append((row, start, w))
        start += len(rule)

    nodes = np.concatenate(lifted)
    weights = np.zeros((len(functionals), len(nodes)))
    for row, offset, w in row_weights:
        weights[row, offset : offset + len(w)] = w
    return DofTable(nodes=nodes, weights=weights, blocks=tuple(blocks))


def _chunk_slices(n_cells, block):
    block = max(1, block)
    return [slice(i, min(i + block, n_cells)) for i in range(0, n_cells, block)]


def _target_values(f, cells, nodes):
    """f at the nodes mapped into each cell, shape (cells, nodes), evaluated a
    few cells at a time into one preallocated array."""
    values = np.empty((len(cells), len(nodes)))
    rows = max(1, _SLICE_POINTS // len(nodes))
    for i in range(0, len(cells), rows):
        # (P, 4) @ (c, 4, 3) -> (c, P, 3) batched over cells
        values[i : i + rows] = f(np.matmul(nodes, cells[i : i + rows]))
    return values


def compute_dofs(f, tet, cfg, settings=QuadSettings()):
    """Degrees of freedom of a function on one Tetrahedron.

    Returns 10 values for the quadratic strategies, 4 (the uniform face
    averages) for the classical one.
    """
    table = build_dof_table(cfg, settings)
    return (_target_values(f, tet.vertices[None], table.nodes) @ table.weights.T)[0]


def _run_chunks(work, slices, threads):
    """[work(sl) for sl in slices], on a pool of `threads` workers when there
    is more than one chunk; results come back in slice order."""
    if threads <= 1 or len(slices) <= 1:
        return [work(sl) for sl in slices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, slices))


@dataclass
class _ErrorEngine:
    """A strategy's DOF table and reconstruction map, reused on every mesh."""

    cfg: StrategyConfig
    settings: QuadSettings
    table: DofTable = field(init=False)
    h_inv_t: np.ndarray | None = field(init=False)

    def __post_init__(self):
        self.table = build_dof_table(self.cfg, self.settings)
        if self.cfg.kind == "classical":
            self.h_inv_t = None
        else:
            self.h_inv_t = assemble_H(self.cfg).h_inv.T

    def coefficients(self, dofs):
        if self.h_inv_t is None:
            return classical_coefficients(dofs)
        return dofs @ self.h_inv_t

    def l1_on_mesh(self, f, mesh, threads=1):
        """Sum over cells of volume * E[|f - reconstruction|]."""
        return _l1_errors([self], f, mesh, threads)[0]


def _l1_errors(engines, f, mesh, threads=1):
    """L1 error of every engine for one target on one mesh, in one pass.

    The engines share the error rule of the first engine's settings.  Each
    chunk of cells evaluates f once per distinct DOF block (see DofTable)
    and once at the error nodes, and stores every engine's per-cell errors.
    """
    if not engines:
        return []
    rule = simplex_rule_plain(3, engines[0].settings.error_degree)
    basis_t = lambda_basis(rule.nodes).T  # (10, E)
    verts = mesh.cell_vertex_array
    n_cells = len(mesh)
    own_blocks = [_CHUNK_BUDGET // (len(e.table.nodes) + len(rule)) for e in engines]
    cell_err = np.empty((len(engines), n_cells))

    # Score engines grouped by their last block, and drop a block after its
    # last use: a grid then holds its shared blocks plus one of the others.
    block_nodes, group = {}, {}
    for e in engines:
        for key, start, stop in e.table.blocks:
            block_nodes.setdefault(key, e.table.nodes[start:stop])
        group.setdefault(e.table.blocks[-1][0], len(group))
    order = sorted(range(len(engines)), key=lambda i: group[engines[i].table.blocks[-1][0]])
    last_use = {key: pos for pos, i in enumerate(order) for key, _, _ in engines[i].table.blocks}

    def work(sl):
        # DOF nodes before error nodes: the other order raises peak memory.
        cells = verts[sl]
        cache, coeffs, finite = {}, {}, {}
        for pos, i in enumerate(order):
            e = engines[i]
            keys = [key for key, _, _ in e.table.blocks]
            for key in keys:
                if key not in cache:
                    cache[key] = _target_values(f, cells, block_nodes[key])
            dofs = np.concatenate([cache[key] for key in keys], axis=1) @ e.table.weights.T
            coeffs[i] = e.coefficients(dofs)
            finite[i] = np.isfinite(dofs).all(axis=1)
            for key in keys:
                if last_use[key] == pos:
                    cache.pop(key, None)
        fe = _target_values(f, cells, rule.nodes)
        for i, row in enumerate(cell_err):
            row[sl] = np.abs(fe - coeffs[i] @ basis_t) @ rule.weights
        bad = np.flatnonzero(~np.isfinite(cell_err[:, sl]).all(axis=0))
        if bad.size:
            cell = bad[0]
            stages = [
                f"the DOF nodes of {e.cfg.method_id}"
                for i, e in enumerate(engines)
                if not finite[i][cell]
            ]
            if not np.isfinite(fe[cell]).all():
                stages.append("the error nodes")
            raise ValueError(
                f"non-finite L1 error for function {f.id} on mesh n={mesh.n}: "
                f"non-finite value at {' and '.join(stages) or 'the reconstruction'}, "
                f"first at cell {sl.start + cell}"
            )

    # The partition stays the smallest engine's own chunking, although the
    # shared blocks would let more cells fit: BLAS gemm and gemv give row
    # results that depend on the chunk's row count, so another partition
    # moves bytes.  Change it only in the ROADMAP's planned byte move.
    _run_chunks(work, _chunk_slices(n_cells, min(own_blocks)), threads)
    vols = mesh.cell_volumes()
    # Each engine sums its cell errors in the chunks it would use alone, in a
    # fixed order: the committed benchmark references fix these bytes, and
    # the order keeps them independent of the thread count.
    return [
        float(np.array([errs[sl] @ vols[sl] for sl in _chunk_slices(n_cells, block)]).sum())
        for errs, block in zip(cell_err, own_blocks)
    ]


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
    StrategyConfigs.  One pass per (function, mesh) scores every method; a
    row's seconds are the wall time of its pass.  Rows appear in
    method-major, function, mesh order and the numbers are deterministic for
    fixed settings.
    """
    meshes = {n: build_mesh(n) for n in ns}
    engines = [_ErrorEngine(cfg, settings) for cfg in methods]

    passes = []  # (function, n, errors by method, seconds)
    for f in functions:
        for n in ns:
            start = time.perf_counter()
            errors = _l1_errors(engines, f, meshes[n], threads)
            passes.append((f, n, errors, time.perf_counter() - start))

    return [
        ErrorRow(f.id, int(n), cfg.method_id, cfg.params_text(), errors[i], seconds)
        for i, cfg in enumerate(methods)
        for f, n, errors, seconds in passes
    ]


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
    validation functions and meshes, one pass per (function, mesh) for all
    candidates; the reported optimum is the first strict minimizer in
    row-major (outer first-axis, inner second-axis) order.
    """
    if meshes is None:
        meshes = {}
    for n in grid.ns:
        if n not in meshes:
            meshes[n] = build_mesh(n)

    engines = [
        _ErrorEngine(StrategyConfig.of(grid.kind, a, b), settings)
        for a in grid.first
        for b in grid.second
    ]
    surface = np.zeros((len(grid.first), len(grid.second)))
    for f in grid.functions:
        for n in grid.ns:
            errors = _l1_errors(engines, f, meshes[n], threads)
            surface += np.reshape(errors, surface.shape)

    # argmin returns the first minimum in row-major order; the surface is
    # finite, because _l1_errors raises on a non-finite cell error.
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
