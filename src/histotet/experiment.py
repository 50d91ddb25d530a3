"""Degrees of freedom of target functions, mesh-level L1 errors, parameter
tuning by grid search, and the convergence study.

The mesh loops are vectorized: each strategy's functionals are turned once
into a quadrature table, DOFs of all cells in a chunk are a single matrix
product, and the reconstruction coefficients follow from the precomputed
inverse of the functional matrix.  A table stores, per (domain, density)
group, the cached rules of the density's Dirichlet components and each
functional's weights on the group's own nodes; its dense nodes and weights
are built only for the moment a caller reads them (one engine's weights
for its DOF matrix product in a chunk).  One pass per (function, mesh)
scores every strategy or tuning candidate.  A table's nodes are a
concatenation of blocks, one per (domain, Dirichlet component, m), and
strategies share blocks (the uniform face block of classical, vol and ef;
the dirichlet(2) volume block of fv and vol; a blend's uniform block for
every theta).  Each chunk of cells
evaluates the target once per distinct domain of each source of target
values (the blocks of one domain length, Dirichlet component and m), a cell
for a volume source and a face or edge of the chunk for the others, and
once at the shared error nodes.  One plan per pass (_Plan) orders the engines,
places each engine's DOF values at fixed columns of one workspace per
chunk, so that a block an earlier engine left at the same columns is read
in place, lists every other block once, by engine and source, and sizes
the chunks.  Each engine fills its blocks in one step per source: a source
that it alone fills is scattered a slice at a time into all of its blocks
of it, and a source that several engines fill is evaluated once and held
for the chunk's DOF stage.  study_bytes counts a chunk's peak memory from
the same plan: its workspace, every engine's coefficients, one engine's
dense weights and the held sources.  Per-cell contributions are
accumulated in cell-index order so results are deterministic for any
thread count.  The studies take the engines (_ErrorEngine) that admitted
their configurations.  `project` runs one cell through a pass's DOF table
and reconstruction map (an engine) and checks the reconstruction on the
table's own barycentric nodes.
"""

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .element import (
    METHODS,
    ElementOperator,
    StrategyConfig,
    UnisolvenceError,
    assemble_H,
    build_functionals,
    lambda_basis,
)
from .mesh import build_mesh, kuhn_cells, mesh_size
from .quadrature import RuleError, plain_points, simplex_rule
from .targets import TargetFunction

#: Scalars of DOF- and error-node values per cell row that size an engine's
#: chunks; study_bytes counts what a chunk holds at once.
_CHUNK_BUDGET = 4_000_000

#: Points mapped and evaluated at a time inside a chunk.
_SLICE_POINTS = 16_384

#: Largest reproduction residual r (see _ErrorEngine) that a command admits.
#: r is how far a configuration's DOF quadrature disagrees with H's exact
#: moments on the monomials it reproduces, so its reconstruction of f moves
#: by about r max|f|.  Below 1e-8 that stays under every L1 error of the
#: default converge run (the smallest relative to max|f| is 1.3e-8, f3 at
#: n = 25), while the default check grids reach 3.1e-12 (ef (5, 1.5)) and
#: the parameter floor 2.2e-10 (ef (0.001, 0.01)).
REPRODUCTION_TOL = 1e-8


@dataclass(frozen=True)
class QuadSettings:
    """Quadrature resolution: Gauss points per direction for DOF integrals
    and the polynomial exactness degree of the plain L1 error rule."""

    dof_points: int = 8
    error_degree: int = 8

    def __post_init__(self):
        if self.dof_points < 3:
            raise ValueError(
                f"dof_points must be >= 3 for quadratic moments, got {self.dof_points}: "
                "a weighted moment integrates a quadratic weight times a quadratic "
                "(degree 4), and m Gauss points per direction are exact to degree 2m - 1"
            )
        if self.error_degree < 1:
            raise ValueError(f"error_degree must be >= 1, got {self.error_degree}")


@dataclass(frozen=True)
class DofGroup:
    """The functionals of a DOF table on one (domain, density) group: the
    domain's vertex tuple, the rule of each Dirichlet component of the
    density (quadrature.simplex_rule's own cached objects, in node order),
    the table rows of the group's functionals, and their weights on the
    group's own nodes only, shape (rows, nodes of the group)."""

    vertices: tuple
    rules: tuple
    rows: tuple
    weights: np.ndarray


class DenseTable(NamedTuple):
    """A DofTable's dense nodes and weights (DofTable.dense)."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class DofTable:
    """Barycentric quadrature nodes shared by a strategy's functionals.

    dofs(f) on a cell = weights @ f(points at nodes); shape (n_dofs, n_nodes).
    The table stores its groups (DofGroup) in node order, each functional's
    weights on the nodes of its own group and no others.  `nodes` (each
    group's rules lifted to four barycentric coordinates) and `weights`
    (zero outside each row's group) are dense arrays built on every access
    and kept by nobody; dense() builds both once for a caller that reads
    them together.  blocks holds one (key, start, stop) per Dirichlet
    component of each group, key = (vertices, component exponents, m):
    nodes[start:stop] depend on the key alone, so tables with a common key
    share those nodes.
    """

    groups: tuple
    blocks: tuple

    @property
    def nodes(self):
        return np.concatenate([self.block_nodes(start) for _, start, _ in self.blocks])

    @property
    def weights(self):
        weights = np.zeros((sum(len(group.rows) for group in self.groups), self.blocks[-1][2]))
        start = 0
        for group in self.groups:
            stop = start + group.weights.shape[1]
            weights[list(group.rows), start:stop] = group.weights
            start = stop
        return weights

    def dense(self):
        """nodes and weights, each built once."""
        return DenseTable(self.nodes, self.weights)

    def block_nodes(self, start):
        """nodes[start:stop] of the block that starts at node `start`: its
        rule lifted to its domain's vertices, built alone."""
        rules = [(group.vertices, rule) for group in self.groups for rule in group.rules]
        ((vertices, rule),) = [vr for vr, (_, first, _) in zip(rules, self.blocks) if first == start]
        nodes = np.zeros((len(rule), 4))
        nodes[:, list(vertices)] = rule.nodes
        return nodes


def build_dof_table(cfg, settings=QuadSettings()):
    """Quadrature table evaluating all functionals of a strategy at once.

    Functionals sharing a domain and density (e.g. the plain and weighted
    moments on one face, or the six interior moments) share their nodes.
    """
    return _table_from_functionals(build_functionals(cfg), settings.dof_points)


def _layout(functionals, m):
    """A DOF table's node layout, known before any rule is built: the
    (vertices, density, [(row, weight poly)], first node) of each (domain,
    density) group in node order, and its blocks (see DofTable).  A group's
    nodes are the m^dim-point rules of its Dirichlet components, one after
    the other."""
    members = {}
    for row, func in enumerate(functionals):
        members.setdefault((func.vertices, func.density), []).append((row, func.weight_poly))
    groups, blocks, start = [], [], 0
    for (vertices, density), rows in members.items():
        groups.append((vertices, density, rows, start))
        for _, exps in density.components:
            blocks.append(((vertices, exps, m), start, start + m**density.dim))
            start += m**density.dim
    return groups, tuple(blocks)


def _table_from_functionals(functionals, m):
    layout, blocks = _layout(functionals, m)
    groups = []
    for vertices, density, rows, _ in layout:
        rules = tuple(simplex_rule(density.dim, exps, m) for _, exps in density.components)
        weights = np.empty((len(rows), len(rules) * m**density.dim))
        start = 0
        for (coef, _), rule in zip(density.components, rules):
            mass = coef * rule.weights  # the component's share of the density
            # Edge quadratics are polynomials in t, the first native coordinate.
            native = rule.nodes[:, 0] if density.space == "edge" else rule.nodes
            for k, (_, poly) in enumerate(rows):
                weights[k, start : start + len(rule)] = mass if poly is None else mass * poly(native)
            start += len(rule)
        groups.append(DofGroup(vertices, rules, tuple(row for row, _ in rows), weights))
    return DofTable(groups=tuple(groups), blocks=blocks)


def _chunk_slices(n_cells, block):
    block = max(1, block)
    return [slice(i, min(i + block, n_cells)) for i in range(0, n_cells, block)]


def _mapped(f, vertices, ids, slots, nodes):
    """Yield (first, f at `nodes` in the domains ids[first : first + k]), one
    slice of k domains at a time: each domain's vertex coordinates (the rows
    of `vertices` that its row of ids names) placed on `slots` of an
    otherwise zero cell, and mapped by the barycentric nodes."""
    step = max(1, _SLICE_POINTS // len(nodes))
    for first in range(0, len(ids), step):
        part = ids[first : first + step]
        lifted = np.zeros((len(part), 4, 3))
        lifted[:, list(slots)] = vertices[part]
        # (P, 4) @ (k, 4, 3) -> (k, P, 3) batched over domains
        yield first, f(np.matmul(nodes, lifted))


def _project(f, vertices, ids, nodes, out=None, slots=(0, 1, 2, 3)):
    """f at `nodes` in each domain of ids (see _mapped), shape (domains,
    nodes), into `out` or a new array; by default a domain is a cell."""
    values = np.empty((len(ids), len(nodes))) if out is None else out
    for first, part in _mapped(f, vertices, ids, slots, nodes):
        values[first : first + len(part)] = part
    return values


def compute_dofs(f, tet, table):
    """Degrees of freedom of a function on one Tetrahedron: f at the nodes of
    the caller's DOF table (build_dof_table of a configuration, or its
    dense() for a caller that reads the arrays again; `project` passes its
    engine's, so its cell is evaluated at a pass's DOF nodes), contracted
    with its weights.  Returns 10 values for the quadratic strategies, 4
    (the uniform face averages) for the classical one.
    """
    return (_project(f, tet.vertices, np.arange(4)[None], table.nodes) @ table.weights.T)[0]


def _run_chunks(work, slices, threads):
    """[work(sl) for sl in slices], on a pool of `threads` workers when there
    is more than one chunk; results come back in slice order."""
    # Serial in the calling thread: a worker thread allocates from its own
    # malloc arena, and a one-worker pool raised converge's peak RSS from
    # 125 MB to up to 163 MB.
    if threads <= 1 or len(slices) <= 1:
        return [work(sl) for sl in slices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, slices))


@dataclass
class _ErrorEngine:
    """A strategy's DOF table and reconstruction map (op, its ElementOperator;
    None for classical), reused on every mesh and by `project` on its cell.

    Building one is the admission of its configuration.  RuleError refuses a
    DOF rule that cannot be built; UnisolvenceError no enrichment quadratic,
    an enriched block of rank below 6 or not SPD (op.ok), and a reproduction
    residual r = max |H^-1 (W Lambda) - I| above REPRODUCTION_TOL (W the
    table's weights, Lambda the reproduced monomials at its nodes)."""

    cfg: StrategyConfig
    settings: QuadSettings
    table: DofTable = field(init=False)
    op: ElementOperator | None = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        name = f"{self.cfg.method_id} ({self.cfg.params_text()})"
        try:
            self.table = build_dof_table(self.cfg, self.settings)
        except RuleError as err:
            raise RuleError(f"{name}: {err}") from err
        self.op = None if self.cfg.row.enrich is None else assemble_H(self.cfg)
        if self.op is not None and not self.op.ok:
            raise UnisolvenceError(
                f"strategy {name} has an enriched block that is not symmetric positive definite"
            )
        # Classical reproduces the four affine monomials, the others all ten.
        # The dense nodes go once their basis is built, before the weights.
        basis = lambda_basis(self.table.nodes)
        weights = self.table.weights
        k = len(weights)
        dofs = (weights @ basis[:, :k]).T
        self.r = float(np.abs(self.coefficients(dofs) - np.eye(k, 10)).max())
        if not self.r <= REPRODUCTION_TOL:
            raise UnisolvenceError(
                f"strategy {name} does not reproduce quadratics: "
                f"r = max |H^-1 (W Lambda) - I| is {self.r:.1e}, above {REPRODUCTION_TOL:g}"
            )

    def coefficients(self, dofs):
        """Volume coefficients (..., 10) of the reconstruction from DOFs
        (..., k): H^-1 applied to the ten DOFs of a quadratic strategy, and
        for classical the affine sum_j avg_j (1 - 3 lambda_j) of the four
        uniform face averages, whose quadratic part is zero."""
        if self.op is None:
            avg = np.asarray(dofs, dtype=float)
            coeffs = np.zeros(avg.shape[:-1] + (10,))
            coeffs[..., :4] = avg.sum(axis=-1, keepdims=True) - 3.0 * avg
            return coeffs
        return dofs @ self.op.h_inv.T

    def reconstruct(self, dofs, points):
        """The reconstruction from DOFs (..., k) at barycentric points
        (..., 4), shape dofs.shape[:-1] + points.shape[:-1]."""
        return np.tensordot(self.coefficients(dofs), lambda_basis(points), (-1, -1))

    def l1_on_mesh(self, f, mesh, threads=1):
        """Sum over cells of volume * E[|f - reconstruction|]."""
        return _l1_errors([self], f, mesh, threads)[0]


def _source(key):
    """What the DOF block of `key` is evaluated from (see DofTable).  A
    block's points depend only on its domain's vertices, so the blocks of
    one (domain length, exponents, m) share one source, evaluated once per
    distinct domain of a chunk: a cell for a volume block, a face or an
    edge for the others."""
    vertices, exps, m = key
    return len(vertices), exps, m


def _distinct(ids, domains):
    """The distinct ordered vertex-id tuples of the local `domains` (vertex
    tuples of one length) over cells with vertex ids `ids`, and the position
    of each (cell, domain) among them, shape (cells, domains)."""
    ids = ids[:, domains]  # (cells, domains, vertices of a domain)
    flat = ids.reshape(-1, ids.shape[-1])
    # One integer per ordered tuple.  The ids of a chunk of build_mesh cells
    # span about cells / 6 + n^2, so span^3 fits in int64 up to n = 1,400,
    # whose mesh arrays alone would take 2 TB.
    low = flat.min()
    codes = (flat - low) @ (int(flat.max() - low) + 1) ** np.arange(flat.shape[1])
    unique, inverse = np.unique(codes, return_inverse=True)
    tuples = np.empty((len(unique), flat.shape[1]), dtype=flat.dtype)
    tuples[inverse.ravel()] = flat  # each (cell, domain) writes its own tuple
    return tuples, inverse.reshape(ids.shape[:2])


class _Plan:
    """The plan of a pass over `cells` cells for engines with DOF blocks
    `tables`, computed once: the engine order, grouped by last block (a grid
    then holds its shared sources plus one of the others); the columns of a
    chunk's workspace, for the widest DOF table or the error stage's values
    and temporary; each engine's column offset in it and, by source, the
    blocks it fills (fills); the sources that more than one engine fills,
    which a chunk holds for its DOF stage (held, see _dof_values); the local
    domains of each length, one tuple for the cell, one for the faces and
    one for the edges (every face source covers the four faces of a cell and
    every edge source its six edges); each engine's chunk rows alone (its L1
    sum's partition); and the pass's chunk rows and number of chunks."""

    def __init__(self, tables, error_nodes, cells):
        keys = [key for blocks in tables for key, _, _ in blocks]
        group = {key: g for g, key in enumerate(dict.fromkeys(blocks[-1][0] for blocks in tables))}
        self.order = sorted(range(len(tables)), key=lambda i: group[tables[i][-1][0]])
        self.width = max(max(blocks[-1][2] for blocks in tables), 2 * error_nodes)
        # Tables lead with their face blocks and end with their volume blocks,
        # so a table that ends in a volume block sits at the right edge and
        # any other at the left edge: shared volume blocks line up, and so do
        # shared face blocks with the widest table's.
        self.offsets = [self.width - b[-1][2] if len(b[-1][0][0]) == 4 else 0 for b in tables]
        # A block whose key sits at its columns, unwritten since, is read in
        # place: neither evaluated nor gathered.
        self.fills, placed = [{} for _ in tables], {}  # placed: (start, stop column) -> key
        for i in self.order:
            for key, start, stop in tables[i]:
                cols = (self.offsets[i] + start, self.offsets[i] + stop)
                if placed.get(cols) != key:
                    placed = {c: k for c, k in placed.items() if c[1] <= cols[0] or cols[1] <= c[0]}
                    placed[cols] = key
                    self.fills[i].setdefault(_source(key), []).append((key, start, stop))
        fillers = Counter(src for fills in self.fills for src in fills)
        self.held = {src for src, n in fillers.items() if n > 1}
        self.domains = {}
        for vertices in dict.fromkeys(v for v, _, _ in keys):
            self.domains[len(vertices)] = self.domains.get(len(vertices), ()) + (vertices,)
        self.own_rows = [_CHUNK_BUDGET // (blocks[-1][2] + error_nodes) for blocks in tables]
        self.rows = max(1, min(min(self.own_rows), cells))
        self.chunks = -(-cells // self.rows)

    def workers(self, threads):
        """Chunks that can run at once, each on its own workspace: _run_chunks
        runs one chunk serially and a pool starts a thread per chunk, up to
        `threads`."""
        return max(1, min(threads, self.chunks))


def _dof_values(f, mesh, sl, tables, plan, workspace):
    """Yield (engine, f at its DOF table's nodes in each of the cells sl of
    the mesh) for each engine in plan order, each a view of the engine's
    columns of the same (cells x plan.width) workspace.  A block read in
    place is left as it is.  Every other block is filled from its source,
    evaluated once per distinct domain: a cell, or a face or edge keyed by
    the ordered global vertex ids of the domain (build_mesh gives a shared
    face or edge the same vertex order in all its cells, so each of them
    maps the same points).  Each engine takes one step per source it fills
    (plan.fills): a source that it alone fills is evaluated a slice of
    domains at a time and scattered into all of its blocks of it; a source
    that several engines fill (plan.held) is evaluated at the first of them,
    held until the last engine is done, and gathered into each block a slice
    of rows at a time."""
    ids = mesh.cells[sl]
    # A cell is the one domain of its volume blocks.
    held, index = {}, {((0, 1, 2, 3),): (ids, np.arange(len(ids))[:, None])}
    for i in plan.order:
        values = workspace[:, plan.offsets[i] : plan.offsets[i] + tables[i].blocks[-1][2]]
        for src, blocks in plan.fills[i].items():
            (vertices, _, _), start, _ = blocks[0]
            nodes, domains = tables[i].block_nodes(start), plan.domains[src[0]]
            if domains not in index:
                index[domains] = _distinct(ids, domains)
            tuples, inverse = index[domains]
            columns = [(inverse[:, domains.index(k[0])], values[:, a:b]) for k, a, b in blocks]
            if src in plan.held:
                if src not in held:
                    held[src] = _project(f, mesh.vertices, tuples, nodes, slots=vertices)
                step = max(1, _SLICE_POINTS // len(nodes))
                for column, block in columns:
                    for r in range(0, len(ids), step):
                        block[r : r + step] = held[src][column[r : r + step]]
            else:
                for first, part in _mapped(f, mesh.vertices, tuples, vertices, nodes):
                    for column, block in columns:
                        hit = np.flatnonzero((column >= first) & (column < first + len(part)))
                        block[hit] = part[column[hit] - first]
        yield i, values


def _l1_errors(engines, f, mesh, threads=1):
    """L1 error of every engine for one target on one mesh, in one pass.

    The engines share one error rule, so they must share its degree.  Each
    chunk of cells (see _dof_values) evaluates f once per distinct face or
    edge of each face or edge source, once per cell for each volume source,
    and once at the error nodes, and stores every engine's per-cell errors.
    """
    if not engines:
        return []
    degrees = list(dict.fromkeys(e.settings.error_degree for e in engines))
    if len(degrees) > 1:
        raise ValueError(
            f"a pass scores its engines on one error rule, but their error degrees are "
            f"{' and '.join(map(str, degrees))}"
        )
    rule = simplex_rule(3, (0.0,) * 4, plain_points(3, degrees[0]))
    basis_t = lambda_basis(rule.nodes).T  # (10, E)
    n_cells = len(mesh)
    tables = [e.table for e in engines]
    plan = _Plan([t.blocks for t in tables], len(rule), n_cells)
    cell_err = np.empty((len(engines), n_cells))

    def work(sl):
        rows = sl.stop - sl.start
        # A workspace of the chunk's own: an in-place read finds what an
        # earlier engine of the same chunk wrote there.
        workspace = np.empty((rows, plan.width))
        coeffs, finite = {}, {}
        # DOF nodes before error nodes: the other order raises peak memory.
        for i, values in _dof_values(f, mesh, sl, tables, plan, workspace):
            # values is a row-strided view: BLAS gives it the gemm of a
            # contiguous copy, bit for bit.  The dense weights are built for
            # this gemm and dropped after it.
            dofs = values @ tables[i].weights.T
            coeffs[i] = engines[i].coefficients(dofs)
            finite[i] = np.isfinite(dofs).all(axis=1)
        # The error stage reuses the workspace: f, then one |f - p| temporary.
        size, flat = rows * len(rule), workspace.reshape(-1)
        fe = _project(f, mesh.vertices, mesh.cells[sl], rule.nodes, flat[:size].reshape(rows, -1))
        diff = flat[size : 2 * size].reshape(rows, -1)
        for i, row in enumerate(cell_err):
            np.matmul(coeffs[i], basis_t, out=diff)
            np.subtract(fe, diff, out=diff)
            row[sl] = np.abs(diff, out=diff) @ rule.weights
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
    _run_chunks(work, _chunk_slices(n_cells, plan.rows), threads)
    vols = mesh.cell_volumes()
    # Each engine sums its cell errors in the chunks it would use alone, in a
    # fixed order: the committed benchmark references fix these bytes, and
    # the order keeps them independent of the thread count.
    return [
        float(np.array([errs[sl] @ vols[sl] for sl in _chunk_slices(n_cells, block)]).sum())
        for errs, block in zip(cell_err, plan.own_rows)
    ]


def _passes(engines, functions, ns, threads):
    """The study loop: build each mesh once, and yield (errors by engine,
    record) for each (function, mesh) pass, function-major.  The record,
    (function id, n, wall seconds, target points evaluated), is the pass's
    one measurement."""
    meshes = {n: build_mesh(n) for n in ns}
    for f in functions:
        for n in ns:
            calls = []  # points per target call; list.append is safe across threads

            def counted(points, f=f, calls=calls):
                calls.append(points.size // 3)
                return f(points)

            start = time.perf_counter()
            errors = _l1_errors(engines, TargetFunction(f.id, counted), meshes[n], threads)
            yield errors, (f.id, int(n), time.perf_counter() - start, sum(calls))


def study_bytes(ns, configs, settings, threads=1):
    """Bytes of the arrays a study of `configs` on the meshes of grid
    parameters ns holds, counted before any is built: every mesh's three
    arrays (mesh_size; a study keeps all its meshes); every engine's DOF
    table (the weights of each functional on the nodes of its own group,
    see DofTable); each distinct rule that the process caches, keyed (dim,
    exponents, m) as quadrature.simplex_rule is: every Dirichlet component's
    DOF rule and the error rule, a rule they share counted once (dim + 1
    coordinates and a weight per node); 10 basis values per error node; a
    (configurations x largest mesh's cells) error array; and the larger of
    what set-up and the pass allocate for a while.  Set-up builds one rule
    or engine at a time: a rule's node and weight grids and two product
    scalars per node, or an engine's residual r, which holds the ten basis
    values at its table's dense nodes beside the nodes and then beside the
    dense weights; building a table allocates less.  The pass runs one
    chunk's peak per worker that can run (_Plan.workers).  The interpreter
    and the target's temporaries at the DOF nodes come on top (f's own
    arrays, and all mapped points of a cell of more than _SLICE_POINTS
    nodes); `project` is a study of one cell per chunk, whose check holds
    the dense nodes and weights, the basis values and the reconstruction at
    every node at once, in place of r.

    A chunk's peak is its workspace, one target slice (3 x _SLICE_POINTS
    scalars of mapped points), every engine's coefficients, the largest
    engine's dense weights (each engine builds its own for its DOF gemm and
    drops them after it) and the sources it holds for its DOF stage
    (_Plan.held), each a block's width at every distinct face or edge of
    the largest mesh's first chunk, or per cell."""
    m = settings.dof_points
    functionals = [build_functionals(cfg) for cfg in configs]
    layouts = [_layout(fs, m) for fs in functionals]
    tables = [blocks for _, blocks in layouts]
    dense = [(len(fs), t[-1][2]) for fs, t in zip(functionals, tables)]  # (rows, nodes)
    stored = sum(
        len(rows) * len(d.components) * m**d.dim for groups, _ in layouts for _, d, rows, _ in groups
    )
    e = plain_points(3, settings.error_degree)
    # quadrature.simplex_rule's keys: the DOF rules, then the error rule.
    rules = {(d.dim, exps, m) for groups, _ in layouts for _, d, _, _ in groups for _, exps in d.components}
    rules.add((3, (0.0,) * 4, e))
    transient = [(k + 15 if not ns else 10 + max(4, k)) * w for k, w in dense]  # project's check, or r
    setup = [k**dim * (2 * dim + 2) for dim, _, k in rules] + transient
    error_nodes = e**3
    sizes = [mesh_size(n) for n in ns]
    meshes, cells = sum(s for _, s in sizes), max((c for c, _ in sizes), default=0)
    plan = _Plan(tables, error_nodes, cells)
    # project's study has no mesh: its one-cell chunk shares no domain, as
    # one cell of any mesh does not.
    ids = kuhn_cells(max(ns, default=2), plan.rows)
    domains = {length: len(_distinct(ids, d)[0]) for length, d in plan.domains.items() if length < 4}
    domains[4] = plan.rows  # a volume source's values, one row per cell
    held = sum(domains[length] * m ** (length - 1) for length, _, _ in plan.held)
    chunk = (
        plan.rows * (plan.width + 10 * len(tables)) + 3 * _SLICE_POINTS
        + max(k * w for k, w in dense) + held
    )
    return 8 * (
        meshes + stored + sum(k**dim * (dim + 2) for dim, _, k in rules) + 10 * error_nodes
        + cells * len(configs) + max(max(setup), plan.workers(threads) * chunk)
    )


@dataclass(frozen=True)
class ErrorRow:
    """One benchmark measurement."""

    function: str
    n: int
    method: str
    params: str
    l1_error: float


def convergence_study(functions, ns, engines, threads=1):
    """(rows, passes): one L1-error row per (function, mesh, method)
    combination, and the record (function id, n, wall seconds, target points)
    of each (function, mesh) pass, in pass order.

    `functions` are TargetFunctions, `ns` grid parameters, `engines` the
    _ErrorEngine of each method, which share one error degree.  One pass per
    (function, mesh) scores every method.  Rows appear in method-major,
    function, mesh order and the numbers are deterministic for fixed
    settings.
    """
    passes = list(_passes(engines, functions, ns, threads))
    rows = [
        ErrorRow(f, n, e.cfg.method_id, e.cfg.params_text(), errors[i])
        for i, e in enumerate(engines)
        for errors, (f, n, _, _) in passes
    ]
    return rows, [record for _, record in passes]


@dataclass(frozen=True)
class TuningGrid:
    """Candidate parameter grid plus the validation protocol."""

    kind: str  # a METHODS id with parameters: 'fv' | 'vol' | 'ef'
    first: tuple
    second: tuple
    functions: tuple
    ns: tuple

    def __post_init__(self):
        if self.kind not in METHODS or not METHODS[self.kind].params:
            raise ValueError(f"unknown tunable strategy kind {self.kind!r}")
        if not self.first or not self.second:
            raise ValueError("candidate grids must be nonempty")
        if not self.functions or not self.ns:
            raise ValueError("validation functions and meshes must be nonempty")


@dataclass(frozen=True)
class TuneResult:
    """Optimal parameter pair and the full accumulated-error surface."""

    best: tuple
    best_error: float
    surface: np.ndarray  # (len(first), len(second)) accumulated L1 errors, row-major
    passes: tuple  # (function id, n, wall seconds, target points) of each pass, in pass order


def grid_search(grid, engines, threads=1):
    """Exhaustive bi-parametric search minimizing the accumulated L1 error.

    `engines` are the _ErrorEngine of each candidate pair, in row-major
    (outer first-axis, inner second-axis) order.  Every candidate is scored
    by the sum of L1 errors over the validation functions and meshes, one
    pass per (function, mesh) for all candidates; the reported optimum is the
    first strict minimizer in row-major order.
    """
    configs = [StrategyConfig.of(grid.kind, a, b) for a in grid.first for b in grid.second]
    if [e.cfg for e in engines] != configs:
        raise ValueError(f"the engines' configurations are not the {grid.kind} grid's row-major product")
    surface = np.zeros((len(grid.first), len(grid.second)))
    passes = []
    for errors, record in _passes(engines, grid.functions, grid.ns, threads):
        surface += np.reshape(errors, surface.shape)
        passes.append(record)

    # argmin returns the first minimum in row-major order; the surface is
    # finite, because _l1_errors raises on a non-finite cell error.
    ia, ib = np.unravel_index(np.argmin(surface), surface.shape)
    return TuneResult(
        best=(grid.first[ia], grid.second[ib]),
        best_error=float(surface[ia, ib]),
        surface=surface,
        passes=tuple(passes),
    )
