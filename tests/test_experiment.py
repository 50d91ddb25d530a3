import itertools
from collections import Counter

import numpy as np
import pytest

from histotet import (
    TARGETS,
    BaryQuadratic,
    QuadSettings,
    StrategyConfig,
    TargetFunction,
    TuningGrid,
    assemble_H,
    build_mesh,
    compute_dofs,
    convergence_study,
    grid_search,
)
from histotet.experiment import build_dof_table
from histotet.quadrature import plain_points, simplex_rule
from conftest import engines_of, grid_engines, l1_error, make_random_tet
from oracles import barycentric, cell_values, evaluate_by_exponents

QUADRATIC_CONFIGS = [
    StrategyConfig.face_volume(2.0, 2.0),
    StrategyConfig.volumetric_blend(0.5, 2.0),
    StrategyConfig.edge_face(2.0, 2.0),
]

ONE = TargetFunction("one", lambda p: np.ones(p.shape[:-1]))


def poly_target(tet, coeffs):
    poly = BaryQuadratic("volume", coeffs)
    return TargetFunction("poly", lambda p: poly(barycentric(tet, p)))


def test_dofs_of_constant(rng):
    tet = make_random_tet(rng)
    for cfg in QUADRATIC_CONFIGS:
        dofs = compute_dofs(ONE, tet, build_dof_table(cfg))
        np.testing.assert_allclose(dofs[:4], 1.0, atol=1e-13)
        np.testing.assert_allclose(dofs[4:], 0.0, atol=1e-13)
    classical = compute_dofs(ONE, tet, build_dof_table(StrategyConfig.of("classical")))
    np.testing.assert_allclose(classical, np.ones(4), atol=1e-13)


def test_affine_functions_have_silent_enrichment(rng):
    tet = make_random_tet(rng)
    f = TargetFunction("affine", lambda p: 0.7 - 1.3 * p[..., 0] + 0.4 * p[..., 2])
    for cfg in QUADRATIC_CONFIGS:
        dofs = compute_dofs(f, tet, build_dof_table(cfg))
        assert np.max(np.abs(dofs[4:])) < 1e-12


def test_pair_monomial_dofs_match_operator_column(rng):
    tet = make_random_tet(rng)
    cfg = StrategyConfig.face_volume(1.0, 1.0)
    op = assemble_H(cfg)
    f = poly_target(tet, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0])  # lambda1 lambda2
    dofs = compute_dofs(f, tet, build_dof_table(cfg))
    np.testing.assert_allclose(dofs, op.h[:, 4], atol=1e-12)
    # the pair monomial survives only on the two faces that contain its edge
    assert dofs[6] == pytest.approx(-1 / 360, rel=1e-10, abs=0.0)
    assert dofs[7] == pytest.approx(-1 / 360, rel=1e-10, abs=0.0)


def test_geometry_independence_of_dofs(rng):
    for cfg in QUADRATIC_CONFIGS:
        op, table = assemble_H(cfg), build_dof_table(cfg)
        for c in (0, 4, 9):
            column = op.h[:, c]
            for _ in range(10):
                tet = make_random_tet(rng)
                coeffs = np.zeros(10)
                coeffs[c] = 1.0
                dofs = compute_dofs(poly_target(tet, coeffs), tet, table)
                np.testing.assert_allclose(dofs, column, atol=1e-12)


def test_non_finite_error_raises():
    mesh = build_mesh(4)

    def poisoned(p):
        # Non-finite in a small ball around the corner (1, 1, 1), whatever
        # points a call holds.
        return np.where(np.sum((p - 1.0) ** 2, axis=-1) < 0.05**2, np.nan, np.sin(p[..., 0]))

    f = TargetFunction("poisoned", poisoned)
    with pytest.raises(ValueError, match=r"function poisoned on mesh n=4") as info:
        l1_error(f, mesh, StrategyConfig.of("classical"))
    cell = int(str(info.value).rsplit("cell ", 1)[1])
    assert np.any(np.all(mesh.vertices[mesh.cells[cell]] == 1.0, axis=-1))


def test_non_finite_error_names_the_stage():
    mesh = build_mesh(4)
    # Face DOF nodes on the boundary plane x == 0 have x exactly 0; the error
    # nodes are interior Gauss points.
    on_plane = TargetFunction(
        "plane", lambda p: np.where(p[..., 0] == 0.0, np.nan, np.sin(p[..., 0]))
    )
    with pytest.raises(ValueError, match=r"function plane on mesh n=4") as info:
        l1_error(on_plane, mesh, StrategyConfig.face_volume(2.0, 2.0))
    message = str(info.value)
    assert "at the DOF nodes of fv," in message and "error nodes" not in message
    cell = int(message.rsplit("cell ", 1)[1])
    assert np.sum(mesh.vertices[mesh.cells[cell]][:, 0] == 0.0) == 3

    n_err = plain_points(3, 8) ** 3
    at_error_nodes = TargetFunction(
        "errnodes",
        lambda p: np.full(p.shape[:-1], np.nan) if p.shape[-2] == n_err else np.sin(p[..., 0]),
    )
    with pytest.raises(ValueError, match=r"at the error nodes, first at cell 0$") as info:
        convergence_study([at_error_nodes], (4,), engines_of(QUADRATIC_CONFIGS))
    assert "DOF nodes" not in str(info.value)


def test_convergence_study_shape_and_rows():
    functions = [TARGETS["f1"], TARGETS["f3"]]
    methods = [StrategyConfig.of("classical"), StrategyConfig.edge_face(2.0, 2.0)]
    rows, passes = convergence_study(functions, (3, 5), engines_of(methods))
    assert len(rows) == 8
    assert {r.method for r in rows} == {"classical", "ef"}
    assert all(r.l1_error >= 0.0 for r in rows)
    # One record per (function, mesh) pass, function-major, whatever the methods.
    assert [(f, n) for f, n, _, _ in passes] == [("f1", 3), ("f1", 5), ("f3", 3), ("f3", 5)]
    assert all(seconds >= 0.0 for _, _, seconds, _ in passes)
    again, _ = convergence_study(functions, (3, 5), engines_of(methods))
    assert [r.l1_error for r in rows] == [r.l1_error for r in again]


ALL_METHODS = [StrategyConfig.of("classical")] + QUADRATIC_CONFIGS


def distinct_points(mesh, configs, rows, error_nodes=216):
    """Target points of one pass of `configs` over `mesh` in chunks of `rows`
    cells: per chunk, each face or edge source (blocks of one dimension,
    exponents and m) once per distinct ordered vertex tuple of its domains,
    and each distinct volume block and the error nodes once per cell."""
    from histotet.experiment import _chunk_slices, build_dof_table

    sources, volumes = {}, {}
    for cfg in configs:
        for (vertices, exps, m), start, stop in build_dof_table(cfg).blocks:
            if len(vertices) == 4:
                volumes[vertices, exps, m] = stop - start
            else:
                sources.setdefault((len(vertices), exps, m), (stop - start, set()))[1].add(vertices)
    total = len(mesh) * (sum(volumes.values()) + error_nodes)
    for sl in _chunk_slices(len(mesh), rows):
        for nodes, domains in sources.values():
            cells = mesh.cells[sl]
            total += nodes * len({tuple(cell[list(v)]) for cell in cells for v in domains})
    return total


def test_one_pass_evaluates_each_node_set_once():
    points = []

    def counted(p):
        points.append(p.shape[0] * p.shape[1])
        return np.sin(p[..., 0]) * p[..., 1]

    target = TargetFunction("counted", counted)
    mesh = build_mesh(3)
    rows, passes = convergence_study([target], (3,), engines_of(ALL_METHODS))
    assert len(rows) == len(ALL_METHODS)
    # Each distinct DOF block once per cell would be 1,584 points per cell
    # (the uniform face block serves classical, vol and ef; fv and vol share
    # the dirichlet(2) volume block), then the error nodes once.  The 48
    # cells make one chunk, which evaluates each face or edge source once per
    # distinct face or edge: 120 of the 192 faces and 98 of the 288 edges.
    blocks = {
        key: stop - start
        for cfg in ALL_METHODS
        for key, start, stop in build_dof_table(cfg).blocks
    }
    assert sum(blocks.values()) + 216 == 1800
    expected = distinct_points(mesh, ALL_METHODS, len(mesh))
    assert sum(points) == expected == 48 * (1024 + 216) + 64 * 120 * 2 + 8 * 98
    # The pass's record holds the points it evaluated.
    assert [(f, n, p) for f, n, _, p in passes] == [("counted", 3, sum(points))]
    # With no methods a pass evaluates no point.
    del points[:]
    rows, passes = convergence_study([target], (3,), [])
    assert rows == [] and points == []
    assert [(f, n, p) for f, n, _, p in passes] == [("counted", 3, 0)]


def test_grid_pass_evaluates_each_block_once(monkeypatch):
    from histotet import experiment
    from histotet.cli import _PARAM_FLAGS

    points = []

    def counted(p):
        points.append(p.shape[0] * p.shape[1])
        return TARGETS["f2"](p)

    target = TargetFunction("counted", counted)
    mesh = build_mesh(3)
    grid = _PARAM_FLAGS["alpha"][1]  # the default 6x6 fv grid
    configs = [StrategyConfig.face_volume(a, b) for a in grid for b in grid]
    engines = [experiment._ErrorEngine(cfg, QuadSettings()) for cfg in configs]
    # Per chunk: 6 face sources of 64 nodes at each distinct face, then 6
    # volume blocks of 512 nodes and the 216 error nodes per cell.
    for budget, rows in ((experiment._CHUNK_BUDGET, 48), (20_000, 20)):
        monkeypatch.setattr(experiment, "_CHUNK_BUDGET", budget)
        del points[:]
        result = grid_search(TuningGrid("fv", grid, grid, (target,), (3,)), engines, threads=2)
        assert sum(points) == distinct_points(mesh, configs, rows)
        assert [p for *_, p in result.passes] == [sum(points)]
    assert len(experiment._chunk_slices(len(mesh), 20_000 // (768 + 216))) == 3
    # One chunk evaluates the 120 distinct faces of the 192; three chunks 137.
    assert distinct_points(mesh, configs, 48) == 48 * (3072 + 216) + 6 * 64 * 120
    assert distinct_points(mesh, configs, 20) == 48 * (3072 + 216) + 6 * 64 * 137


def test_grid_surface_sums_the_study_rows_of_each_candidate(monkeypatch):
    from histotet import experiment

    built = []

    def counted(n):
        built.append(n)
        return build_mesh(n)

    monkeypatch.setattr(experiment, "build_mesh", counted)
    functions, ns = (TARGETS["f2"], TARGETS["f6"]), (3, 4)
    grid = TuningGrid("vol", (0.25, 0.75), (1.0, 3.0), functions, ns)
    result = grid_search(grid, grid_engines(grid))
    assert built == [3, 4]  # each mesh once, for all the passes on it

    configs = [StrategyConfig.of("vol", a, b) for a in grid.first for b in grid.second]
    rows, passes = convergence_study(functions, ns, engines_of(configs))
    # The grid's passes are the study's, record for record but the seconds.
    assert [(f, n, p) for f, n, _, p in result.passes] == [(f, n, p) for f, n, _, p in passes]
    for k, cfg in enumerate(configs):
        total = 0.0
        for row in rows[4 * k : 4 * k + 4]:  # function, mesh order
            assert row.params == cfg.params_text()
            total += row.l1_error
        assert result.surface.flat[k] == total  # bitwise


def test_study_bytes_counts_the_arrays_of_a_pass(monkeypatch):
    from histotet import experiment
    from histotet.element import build_functionals, lambda_basis
    from histotet.experiment import _ErrorEngine, _Plan, study_bytes

    # A study keeps every mesh, every engine's DOF table (its groups' weight
    # rows) and each distinct cached rule, the error rule among them; the
    # error array and the chunks are the largest mesh's pass, one chunk per
    # worker that can run.
    settings = QuadSettings(dof_points=4, error_degree=5)
    configs = [StrategyConfig.of("classical"), *QUADRATIC_CONFIGS, StrategyConfig.edge_face(1, 3)]
    meshes = [build_mesh(3), build_mesh(4)]
    tables = [_ErrorEngine(cfg, settings).table for cfg in configs]
    components = {
        (func.density.dim, exps)
        for cfg in configs for func in build_functionals(cfg) for _, exps in func.density.components
    }
    # The error rule has 4 points per direction, as the DOF rules do, so it
    # is vol's uniform volume rule: one cached rule of 64 nodes, counted once.
    assert plain_points(3, settings.error_degree) == 4 and (3, (0.0,) * 4) in components
    rule = simplex_rule(3, (0.0,) * 4, 4)
    assert rule.nodes.nbytes + rule.weights.nbytes == 64 * 5 * 8  # what a second copy would add
    study = sum(a.nbytes for a in (
        *(group.weights for t in tables for group in t.groups),
        *(a for r in (simplex_rule(*c, 4) for c in components) for a in (r.nodes, r.weights)),
        lambda_basis(rule.nodes).T,
    ))
    fixed = study + sum(a.nbytes for a in (
        *(a for m in meshes for a in (m.vertices, m.cells, m.cell_volumes())),
        np.empty((5, len(meshes[-1]))),  # the errors
    ))

    def chunk_bytes(ns, configs=configs):  # a study's bytes per worker, and the rest
        one, three = (study_bytes(ns, configs, settings, threads=t) for t in (1, 3))
        return (three - one) // 2, one - (three - one) // 2

    # The 162 cells make three chunks, so three workers can run.
    monkeypatch.setattr(experiment, "_CHUNK_BUDGET", 54 * (192 + 64))
    plan = _Plan([t.blocks for t in tables], len(rule), len(meshes[-1]))
    assert (plan.rows, plan.chunks) == (54, 3)
    assert plan.width == 192  # vol's table; the error stage needs 2 x 64
    # A chunk holds its workspace and one target slice, at most, after the
    # last engine, the coefficients of all five, and one engine's dense
    # weights for its DOF gemm, the largest vol's 10 x 192.  Each face or
    # edge source is filled by one engine and scattered a slice at a time:
    # classical's uniform faces (vol and ef read them in place), fv's faces
    # and each ef's edges.  fv's dirichlet(2) volume block, which vol reads
    # in place, is evaluated straight into fv's columns.  Nothing is held.
    assert not plan.held
    slice_ = 3 * experiment._SLICE_POINTS
    assert chunk_bytes((3, 4)) == (8 * (54 * (192 + 50) + slice_ + 10 * 192), fixed)
    # Threads beyond the chunks count no chunk.
    three, many = (study_bytes((3, 4), configs, settings, threads=t) for t in (3, 100))
    assert many == three

    # An fv grid refills each alpha's faces in the next beta group, so each
    # face source is filled by two engines and held for the chunk's DOF
    # stage: the peak has both sources (16 nodes at each distinct face of the
    # first chunk) beside all four engines' coefficients and dense weights.
    grid = [StrategyConfig.face_volume(a, b) for a in (1, 2) for b in (1, 2)]
    plan = _Plan([_ErrorEngine(cfg, settings).table.blocks for cfg in grid], len(rule), len(meshes[-1]))
    assert len(plan.held) == 2 and plan.width == 128 and (plan.rows, plan.chunks) == (72, 3)
    faces = len({tuple(cell[list(v)]) for cell in meshes[-1].cells[:72] for v in plan.domains[3]})
    assert chunk_bytes((3, 4), grid)[0] == 8 * (72 * (128 + 40) + slice_ + 10 * 128 + 2 * 16 * faces)

    # A chunk holds at least one cell, however small the budget, and one
    # cell shares no face.  project's study, which has no mesh, counts one
    # such chunk and one worker, whatever the thread count.
    monkeypatch.setattr(experiment, "_CHUNK_BUDGET", 10)
    one_cell = 8 * (192 + slice_ + 50 + 10 * 192)
    assert chunk_bytes((3, 4)) == (one_cell, fixed)
    for threads in (1, 3):
        assert study_bytes((), configs, settings, threads) == study + one_cell


def test_schedule_of_the_default_methods():
    from histotet.experiment import _Plan, _source, build_dof_table, study_bytes

    tables = [build_dof_table(cfg).blocks for cfg in ALL_METHODS]
    plan = _Plan(tables, 216, 10**6)
    # fv and vol both end on the dirichlet(2) volume block, so they stay
    # together, in their given order.
    assert plan.order == [0, 1, 2, 3]
    # fv and vol end in a volume block and sit at the right edge of vol's
    # 1,280 columns; classical and ef sit at the left edge.
    assert plan.width == 1280  # vol's table
    assert plan.offsets == [0, 512, 0, 0]
    # vol reads the uniform faces (classical's columns) and the dirichlet(2)
    # volume block (fv's columns) in place, and ef the uniform faces.
    vol, ef = tables[2], tables[3]
    filled = [[block for blocks in fills.values() for block in blocks] for fills in plan.fills]
    assert filled == [list(tables[0]), list(tables[1]), [vol[4]], list(ef[4:])]
    # Each source is filled by one engine, so a chunk scatters it a slice of
    # domains at a time and holds none: the uniform faces (classical's four
    # blocks), fv's dirichlet(2) faces and volume block, vol's uniform volume
    # block and ef's six edges.
    faces = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    edges = ((1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2))
    assert all(
        _source(key) == src for fills in plan.fills for src, blocks in fills.items() for key, _, _ in blocks
    )
    assert [{src: len(blocks) for src, blocks in fills.items()} for fills in plan.fills] == [
        {(3, (0.0,) * 3, 8): 4},
        {(3, (1.0,) * 3, 8): 4, (4, (1.0,) * 4, 8): 1},
        {(4, (0.0,) * 4, 8): 1},
        {(2, (1.0, 1.0), 8): 6},
    ]
    assert not plan.held
    assert plan.domains == {4: ((0, 1, 2, 3),), 3: faces, 2: edges}
    assert plan.own_rows == [4_000_000 // (n + 216) for n in (256, 768, 1280, 304)]
    assert plan.rows == min(plan.own_rows) == 2673
    # The peak is after the last engine: the workspace, one target slice,
    # the coefficients (10) of all four and vol's dense weights.  The 16,464
    # cells at n = 15 make 7 chunks, so two threads count two chunks and any
    # more count 7.
    assert _Plan(tables, 216, 16_464).chunks == 7
    one, two, seven, many = (
        study_bytes((15,), ALL_METHODS, QuadSettings(), threads=t) for t in (1, 2, 7, 4000)
    )
    slice_ = 3 * 16_384
    assert two - one == 8 * (plan.rows * (1280 + 40) + slice_ + 10 * 1280)
    assert many == seven == one + 6 * (two - one)
    # n = 5's 384 cells make one chunk, which one worker runs.
    one, many = (study_bytes((5,), ALL_METHODS, QuadSettings(), threads=t) for t in (1, 4000))
    assert many == one


def test_default_grids_read_shared_blocks_in_place():
    from histotet.cli import _PARAM_FLAGS
    from histotet.experiment import _Plan, build_dof_table

    grid = _PARAM_FLAGS["alpha"][1]
    fv, ef = (
        [build_dof_table(StrategyConfig.of(kind, a, b)).blocks for a in grid for b in grid]
        for kind in ("fv", "ef")
    )
    # The fv grid's engines that share a beta sit together and at the right
    # edge: the first fills the dirichlet(beta) volume block, and the others
    # read it in place, so no volume source is held.  Each alpha's faces are
    # filled again in every beta group, so all six face sources are held.
    plan = _Plan(fv, 216, 10**6)
    filled = Counter(src for fills in plan.fills for src, blocks in fills.items() for _ in blocks)
    volumes = {src: n for src, n in filled.items() if src[0] == 4}
    assert len(volumes) == len(grid) and set(volumes.values()) == {1}
    assert sum(filled.values()) == len(fv) * 4 + len(grid)
    assert sorted(src[0] for src in plan.held) == [3] * len(grid)
    # The ef grid fills the uniform faces for its first engine only; the
    # others read them in place and fill their edges.  Nothing is held.
    plan = _Plan(ef, 216, 10**6)
    with_faces = [i for i, fills in enumerate(plan.fills) if any(src[0] == 3 for src in fills)]
    assert with_faces == [plan.order[0]]
    first = plan.fills[plan.order[0]]
    assert sorted((src[0], len(blocks)) for src, blocks in first.items()) == [(2, 6), (3, 4)]
    assert not plan.held


# Five engine sets, one per fill path of _dof_values: (configurations, the
# dimensions of the sources the pass holds, the blocks read in place, the
# blocks an engine scatters from a key it already filled).
PASS_SETS = {
    # Scatter only; vol and ef read the uniform faces, vol also fv's volume.
    "default": (ALL_METHODS, [], 9, 0),
    # Each alpha's faces are filled again in the next beta group: 2 held.
    "fv": ([StrategyConfig.face_volume(a, b) for a in (1, 2) for b in (1, 2)], [3, 3], 2, 0),
    # theta = 0 writes its faces over the blend's uniform volume block, so a
    # volume and a face source are held and 6 blocks read in place.
    "vol": ([StrategyConfig.volumetric_blend(t, g) for t in (0, 0.5) for g in (1, 2)], [3, 4], 6, 0),
    # The first engine fills the uniform faces; the other three read them in place.
    "ef": ([StrategyConfig.edge_face(a, b) for a in (1, 2) for b in (1, 2)], [], 12, 0),
    # gamma = 1 lists the uniform volume block twice: one source, two blocks.
    "twin": ([StrategyConfig.volumetric_blend(0.5, 1)], [], 0, 1),
}


@pytest.mark.parametrize("configs, held, in_place, twins", PASS_SETS.values(), ids=PASS_SETS)
def test_a_pass_moves_no_bit(configs, held, in_place, twins, monkeypatch):
    # What a pass guarantees, on f1 over the 162 cells of n = 4 in 1, 2-5
    # and 5-13 chunks: each cell's DOF values are those of its own mapped
    # points, whatever engines share them; threads, slicing and the engine
    # order never move a bit; an engine's error equals its stand-alone run
    # bit for bit when its chunk rows alone are the pass's, and otherwise
    # moves in its last bits with the per-cell DOFs of other row counts.
    from histotet import experiment

    f, mesh, engines = TARGETS["f1"], build_mesh(4), engines_of(configs)
    tables = [e.table for e in engines]
    plan = experiment._Plan([t.blocks for t in tables], 216, len(mesh))
    filled = [blocks for fills in plan.fills for blocks in fills.values()]
    assert sorted(src[0] for src in plan.held) == held
    assert sum(len(t.blocks) for t in tables) - sum(map(len, filled)) == in_place
    assert sum(len(blocks) - len({key for key, _, _ in blocks}) for blocks in filled) == twins

    dof_values = experiment._dof_values
    own, rows = {}, []  # each block's values on the whole mesh; the rows each pass checked

    def checked_dof_values(target, mesh, sl, tables, plan, workspace):
        # A chunk evaluates a face or edge source once per distinct face or
        # edge: if a BLAS mapped a shared face differently in two of its
        # cells, sharing would move bytes, and this fails instead.
        for i, values in dof_values(target, mesh, sl, tables, plan, workspace):
            for key, start, stop in tables[i].blocks:
                if key not in own:
                    own[key] = cell_values(f, mesh.vertices, mesh.cells, tables[i].nodes[start:stop])
                assert np.array_equal(values[:, start:stop], own[key][sl])
            # values is a row-strided view of the workspace: its gemm must be
            # that of a contiguous copy, bit for bit.
            weights_t = tables[i].weights.T
            assert np.array_equal(values @ weights_t, np.ascontiguousarray(values) @ weights_t)
            rows.append(len(values))
            yield i, values

    def scored(engines, threads=1):
        del rows[:]
        errors = experiment._l1_errors(engines, f, mesh, threads)
        assert sum(rows) == len(engines) * len(mesh)
        return errors

    monkeypatch.setattr(experiment, "_dof_values", checked_dof_values)
    by_budget = []
    for budget in (4_000_000, 50_000, 20_000):
        monkeypatch.setattr(experiment, "_CHUNK_BUDGET", budget)
        monkeypatch.setattr(experiment, "_SLICE_POINTS", 16_384)
        plan = experiment._Plan([t.blocks for t in tables], 216, len(mesh))
        assert (plan.chunks == 1) == (budget == 4_000_000)
        errors = scored(engines)
        for i, engine in enumerate(engines):
            alone = scored([engine])[0]
            if plan.own_rows[i] == plan.rows or plan.chunks == 1:
                assert alone == errors[i]
            else:
                assert alone == pytest.approx(errors[i], rel=1e-14, abs=0.0)
        # Per target call: up to a whole chunk, several cells, one cell.
        for points in (16_384, 1_000, 7):
            monkeypatch.setattr(experiment, "_SLICE_POINTS", points)
            assert scored(engines, threads=2) == errors
        assert scored(engines[::-1], threads=2) == errors[::-1]
        by_budget.append(errors)
    for errors in by_budget[1:]:
        assert errors == pytest.approx(by_budget[0], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("configs", [
    ALL_METHODS,  # converge's four default methods
    [StrategyConfig.face_volume(a, b) for a in (1.0, 2.0) for b in (1.0, 2.0)],
    [StrategyConfig.volumetric_blend(a, b) for a in (0.25, 0.75) for b in (1.0, 2.0)],
    [StrategyConfig.edge_face(a, b) for a in (1.0, 2.0) for b in (1.0, 2.0)],
], ids=["converge", "fv-grid", "vol-grid", "ef-grid"])
def test_refusal_counts_what_a_pass_allocates(configs, monkeypatch):
    import tracemalloc

    from histotet import experiment
    from histotet.experiment import _ErrorEngine, _Plan, _passes, study_bytes

    # The per-worker term of the --n refusal is one chunk's peak, counted as
    # threads=2 - threads=1.  A study on one thread allocates that, its
    # engines' DOF tables (their groups' weight rows) and its error array;
    # the rest is the target's temporaries.  At the default budget, which
    # the refusal uses, the 4,374 cells at n = 10 make two chunks, or one for
    # the ef grid, whose tables are narrowest; a budget of 1,000,000 makes at
    # least three for all.
    settings, meshes, f = QuadSettings(), {10: build_mesh(10)}, TARGETS["f1"]
    monkeypatch.setattr(experiment, "build_mesh", meshes.__getitem__)  # the pass builds no mesh
    tables = [_ErrorEngine(cfg, settings).table for cfg in configs]
    once = sum(g.weights.nbytes for t in tables for g in t.groups) + 8 * len(configs) * len(meshes[10])
    list(_passes(engines_of(configs, settings), [f], (10,), 1))  # builds the rules and the mesh's volumes
    default = 1 if configs[0].method_id == "ef" else 2
    for budget, at_least in ((experiment._CHUNK_BUDGET, default), (1_000_000, 3)):
        monkeypatch.setattr(experiment, "_CHUNK_BUDGET", budget)
        chunks = _Plan([t.blocks for t in tables], 216, len(meshes[10])).chunks
        assert chunks >= at_least
        if chunks == 1:
            continue  # one worker: no per-worker term to compare
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            list(_passes(engines_of(configs, settings), [f], (10,), 1))
            grown = tracemalloc.get_traced_memory()[1] - before - once
        finally:
            tracemalloc.stop()
        one, two = (study_bytes((10,), configs, settings, threads=t) for t in (1, 2))
        assert 0.85 * grown <= two - one <= grown


def test_study_computes_each_mesh_volume_once(monkeypatch):
    # Three functions on two meshes make six passes, but the volumes are
    # cached on the mesh: one determinant sweep per mesh.
    sweeps = []
    det = np.linalg.det

    def counting_det(a):
        if np.ndim(a) == 3:
            sweeps.append(len(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    functions = [TARGETS[fid] for fid in ("f1", "f2", "f3")]
    convergence_study(functions, (3, 4), engines_of([StrategyConfig.of("classical")]))
    assert sorted(sweeps) == [48, 162]


def test_a_pass_refuses_engines_of_different_error_degrees():
    # A pass scores every engine on one error rule: an engine of another
    # error degree is refused, not scored on the first engine's rule.
    fine, coarse = QuadSettings(), QuadSettings(error_degree=4)
    engines = engines_of([StrategyConfig.of("classical")], fine) + engines_of(QUADRATIC_CONFIGS[:1], coarse)
    with pytest.raises(ValueError, match="their error degrees are 8 and 4$"):
        convergence_study([ONE], (2,), engines)
    grid = TuningGrid(kind="vol", first=(0.5,), second=(1.0, 2.0), functions=(ONE,), ns=(2,))
    engines = grid_engines(grid, coarse)[:1] + grid_engines(grid, fine)[1:]
    with pytest.raises(ValueError, match="their error degrees are 4 and 8$"):
        grid_search(grid, engines)


def test_grid_search_single_candidate():
    grid = TuningGrid(
        kind="fv",
        first=(1.0,),
        second=(1.0,),
        functions=(TARGETS["f1"],),
        ns=(3,),
    )
    result = grid_search(grid, grid_engines(grid))
    assert result.best == (1.0, 1.0)
    assert result.surface.shape == (1, 1)


def test_grid_search_surface_and_optimum():
    grid = TuningGrid(
        kind="ef",
        first=(1.0, 2.0),
        second=(1.0, 2.0),
        functions=(TARGETS["f1"],),
        ns=(3, 4),
    )
    result = grid_search(grid, grid_engines(grid))
    assert result.surface.shape == (2, 2)
    ia = grid.first.index(result.best[0])
    ib = grid.second.index(result.best[1])
    assert result.surface[ia, ib] == result.surface.min()
    # accumulated error over two meshes is larger than either alone
    assert result.best_error > 0.0


def test_strict_minimizer_keeps_earlier_tie(monkeypatch):
    from histotet import experiment

    errors = {}
    monkeypatch.setattr(
        experiment,
        "_l1_errors",
        lambda engines, f, mesh, threads=1: [errors[(e.cfg.zeta, e.cfg.nu)] for e in engines],
    )
    grid = TuningGrid(
        kind="ef", first=(1.0, 2.0), second=(1.0, 2.0), functions=(TARGETS["f1"],), ns=(3,)
    )
    # a unique minimum away from the first candidate
    errors.update({(1.0, 1.0): 2.0, (1.0, 2.0): 3.0, (2.0, 1.0): 1.0, (2.0, 2.0): 4.0})
    result = grid_search(grid, grid_engines(grid))
    assert (result.best, result.best_error) == ((2.0, 1.0), 1.0)
    # an all-equal surface: the first candidate in row-major order wins
    errors.update(dict.fromkeys(errors, 5.0))
    result = grid_search(grid, grid_engines(grid))
    assert (result.best, result.best_error) == ((1.0, 1.0), 5.0)


def test_grid_search_takes_the_engines_of_its_grid_in_row_major_order():
    grid = TuningGrid("ef", (1.0, 2.0), (1.0, 2.0), (TARGETS["f1"],), (3,))
    engines = grid_engines(grid)
    for wrong in (engines[::-1], engines[:3], engines_of([StrategyConfig.face_volume(1, 1)] * 4)):
        with pytest.raises(ValueError, match="not the ef grid's row-major product"):
            grid_search(grid, wrong)


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ValueError):
        TuningGrid(kind="fv", first=(), second=(1.0,), functions=(TARGETS["f1"],), ns=(3,))
    with pytest.raises(ValueError):
        TuningGrid(kind="bad", first=(1.0,), second=(1.0,), functions=(TARGETS["f1"],), ns=(3,))


def test_one_rule_per_density(monkeypatch):
    from histotet import quadrature
    from histotet.cli import _PARAM_FLAGS

    calls = []
    build = quadrature.simplex_rule_weighted

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(quadrature, "simplex_rule_weighted", counted)
    for cfg, builds in zip(ALL_METHODS, (1, 2, 3, 2)):
        quadrature.simplex_rule.cache_clear()
        del calls[:]
        build_dof_table(cfg)
        assert len(calls) == builds, cfg.method_id
        # A second table of the same strategy builds no rule.
        build_dof_table(cfg)
        assert len(calls) == builds, cfg.method_id
    # Classical, vol and ef share the uniform face rule, fv's beta = 2 and
    # vol's gamma = 2 one volume rule, and a blend shares its uniform part
    # with every other theta: five distinct rules.
    quadrature.simplex_rule.cache_clear()
    del calls[:]
    for cfg in ALL_METHODS + [StrategyConfig.volumetric_blend(0.25, 2.0)]:
        build_dof_table(cfg)
    assert len(calls) == 5
    # The default fv grid: 36 tables of two rules each, built from 6 face
    # (alpha) and 6 volume (beta) rules, plus one error rule.
    quadrature.simplex_rule.cache_clear()
    del calls[:]
    grid = _PARAM_FLAGS["alpha"][1]
    tuning = TuningGrid("fv", grid, grid, (TARGETS["f2"],), (3,))
    grid_search(tuning, grid_engines(tuning))
    assert len(calls) == 13


def test_a_dof_table_stores_each_group_on_its_own_nodes():
    # A table stores each functional's weights on the nodes of its own
    # (domain, density) group and the cached rules of the group's Dirichlet
    # components; the dense nodes and weights are built from them, bit for
    # bit those of one dense build.
    from histotet.cli import _PARAM_FLAGS
    from histotet.element import METHODS, build_functionals
    from oracles import dense_dof_table

    stored = [sum(g.weights.nbytes for g in build_dof_table(cfg).groups) for cfg in ALL_METHODS]
    # classical 4 x 64; fv 4 x 2 x 64 + 6 x 512; vol 4 x 64 + 6 x 1,024; ef 4 x 64 + 6 x 8.
    assert stored == [2048, 12288, 51200, 2432]
    configs = [StrategyConfig.of("classical")] + [
        StrategyConfig.of(method, *params)
        for method in ("fv", "vol", "ef")
        for params in itertools.product(*(_PARAM_FLAGS[name][1] for name in METHODS[method].params))
    ]
    assert len(configs) == 1 + 102
    for m in (3, 8):
        settings = QuadSettings(dof_points=m)
        for cfg in configs:
            table = build_dof_table(cfg, settings)
            rules = [rule for group in table.groups for rule in group.rules]
            assert len(rules) == len(table.blocks)
            for rule, ((vertices, exps, _), start, stop) in zip(rules, table.blocks):
                assert rule is simplex_rule(len(vertices) - 1, exps, m)
                assert table.block_nodes(start).tobytes() == table.nodes[start:stop].tobytes()
            rows = sorted(row for group in table.groups for row in group.rows)
            assert rows == list(range(len(build_functionals(cfg))))
            nodes, weights = dense_dof_table(build_functionals(cfg), m)
            assert table.nodes.shape == nodes.shape and table.nodes.tobytes() == nodes.tobytes(), (cfg, m)
            assert table.weights.shape == weights.shape and table.weights.tobytes() == weights.tobytes(), (cfg, m)


def test_error_rule_is_the_cached_uniform_volume_rule(monkeypatch):
    from histotet import experiment, quadrature

    # At --quad-m 6 the default error degree also takes 6 points per
    # direction: a blend's uniform volume DOF rule is the pass's error rule.
    settings = QuadSettings(dof_points=6)
    assert plain_points(3, settings.error_degree) == settings.dof_points
    calls, error_nodes = [], []
    build, basis = quadrature.simplex_rule_weighted, experiment.lambda_basis

    def counted(*args):
        calls.append(args)
        return build(*args)

    def recorded(nodes):
        error_nodes.append(nodes)
        return basis(nodes)

    monkeypatch.setattr(quadrature, "simplex_rule_weighted", counted)
    monkeypatch.setattr(experiment, "lambda_basis", recorded)
    engine = experiment._ErrorEngine(StrategyConfig.volumetric_blend(0.5, 2.0), settings)
    assert len(calls) == 3  # the uniform face, the uniform volume and dirichlet(2)
    engine.l1_on_mesh(TARGETS["f2"], build_mesh(3))
    assert len(calls) == 3  # the pass builds no rule
    uniform = simplex_rule(3, (0.0,) * 4, 6)
    assert error_nodes[-1] is uniform.nodes
    ref = build(3, np.zeros(4), 6)
    assert uniform.nodes.tobytes() == ref.nodes.tobytes()
    assert uniform.weights.tobytes() == ref.weights.tobytes()


def test_quad_settings_reject_rules_too_coarse_for_quadratics():
    with pytest.raises(ValueError, match="dof_points must be >= 3 for quadratic moments, got 2"):
        QuadSettings(dof_points=2)
    with pytest.raises(ValueError, match="error_degree must be >= 1, got 0"):
        QuadSettings(error_degree=0)
    QuadSettings(dof_points=3, error_degree=1)


def test_quad_settings_affect_rule_sizes():
    small = build_dof_table(StrategyConfig.face_volume(1.0, 1.0), QuadSettings(dof_points=4))
    large = build_dof_table(StrategyConfig.face_volume(1.0, 1.0), QuadSettings(dof_points=8))
    assert len(small.nodes) == 4 * 16 + 64
    assert len(large.nodes) == 4 * 64 + 512


def test_engine_coefficients_equal_the_element_reconstruction():
    # project and every mesh pass reconstruct through _ErrorEngine.coefficients;
    # it must apply the element's formulas, bit for bit, on each default grid
    # point: H^-1 d for a quadratic strategy, and for classical the affine
    # sum_j d_j (1 - 3 lambda_j), whose lambda_k coefficient is sum(d) - 3 d_k.
    from itertools import product

    from histotet.cli import _PARAM_FLAGS
    from histotet.element import METHODS
    from histotet.experiment import _ErrorEngine

    rng = np.random.default_rng(24)
    configs = [StrategyConfig.of("classical")] + [
        StrategyConfig.of(method, *params)
        for method, row in METHODS.items() if row.params
        for params in product(*(_PARAM_FLAGS[name][1] for name in row.params))
    ]
    assert len(configs) == 1 + 36 + 30 + 36
    for cfg in configs:
        engine = _ErrorEngine(cfg, QuadSettings())
        op = None if cfg.method_id == "classical" else assemble_H(cfg)
        scales = 10.0 ** rng.integers(-3, 4, (10, 1))
        for d in rng.standard_normal((10, len(engine.table.weights))) * scales:
            if op is None:
                expected = np.zeros(10)
                expected[:4] = d.sum() - 3 * d
            else:
                expected = op.h_inv @ d
            np.testing.assert_array_equal(engine.coefficients(d), expected)


def test_dof_weights_are_those_of_the_exponent_loop(monkeypatch):
    # Every DOF weight polynomial goes through densities.basis_monomials; the
    # exponent loop it replaced gives the same weights, bit for bit.
    from histotet.cli import _PARAM_FLAGS
    from histotet.element import METHODS

    configs = [StrategyConfig.of("classical")] + [
        StrategyConfig.of(method, *params)
        for method in ("fv", "vol", "ef")
        for params in itertools.product(*(_PARAM_FLAGS[name][1] for name in METHODS[method].params))
    ]
    assert len(configs) == 103
    for m in (3, 8):
        settings = QuadSettings(dof_points=m)
        weights = [build_dof_table(cfg, settings).weights for cfg in configs]
        with monkeypatch.context() as patch:
            patch.setattr(BaryQuadratic, "__call__", evaluate_by_exponents)
            reference = [build_dof_table(cfg, settings).weights for cfg in configs]
        for cfg, got, want in zip(configs, weights, reference):
            assert got.tobytes() == want.tobytes(), (cfg, m)
