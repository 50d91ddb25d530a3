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
    l1_error,
)
from histotet.quadrature import simplex_rule_plain
from conftest import make_random_tet

QUADRATIC_CONFIGS = [
    StrategyConfig.face_volume(2.0, 2.0),
    StrategyConfig.volumetric_blend(0.5, 2.0),
    StrategyConfig.edge_face(2.0, 2.0),
]

ONE = TargetFunction("one", lambda p: np.ones(p.shape[:-1]))


def poly_target(tet, coeffs):
    poly = BaryQuadratic("volume", coeffs)
    return TargetFunction("poly", lambda p: poly(tet.barycentric(p)))


def test_dofs_of_constant(rng):
    tet = make_random_tet(rng)
    for cfg in QUADRATIC_CONFIGS:
        dofs = compute_dofs(ONE, tet, cfg)
        np.testing.assert_allclose(dofs[:4], 1.0, atol=1e-13)
        np.testing.assert_allclose(dofs[4:], 0.0, atol=1e-13)
    classical = compute_dofs(ONE, tet, StrategyConfig.classical())
    np.testing.assert_allclose(classical, np.ones(4), atol=1e-13)


def test_affine_functions_have_silent_enrichment(rng):
    tet = make_random_tet(rng)
    f = TargetFunction("affine", lambda p: 0.7 - 1.3 * p[..., 0] + 0.4 * p[..., 2])
    for cfg in QUADRATIC_CONFIGS:
        dofs = compute_dofs(f, tet, cfg)
        assert np.max(np.abs(dofs[4:])) < 1e-12


def test_pair_monomial_dofs_match_operator_column(rng):
    tet = make_random_tet(rng)
    cfg = StrategyConfig.face_volume(1.0, 1.0)
    op = assemble_H(cfg)
    f = poly_target(tet, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0])  # lambda1 lambda2
    dofs = compute_dofs(f, tet, cfg)
    np.testing.assert_allclose(dofs, op.h[:, 4], atol=1e-12)
    # the pair monomial survives only on the two faces that contain its edge
    assert dofs[6] == pytest.approx(-1 / 360, rel=1e-10)
    assert dofs[7] == pytest.approx(-1 / 360, rel=1e-10)


def test_geometry_independence_of_dofs(rng):
    for cfg in QUADRATIC_CONFIGS:
        op = assemble_H(cfg)
        for c in (0, 4, 9):
            column = op.h[:, c]
            for _ in range(10):
                tet = make_random_tet(rng)
                coeffs = np.zeros(10)
                coeffs[c] = 1.0
                dofs = compute_dofs(poly_target(tet, coeffs), tet, cfg)
                np.testing.assert_allclose(dofs, column, atol=1e-12)


def test_quadratics_are_reproduced_in_l1():
    mesh = build_mesh(5)
    f = TargetFunction(
        "quad",
        lambda p: 0.5 + p[..., 0] - 2.0 * p[..., 1] * p[..., 2] + p[..., 0] ** 2,
    )
    for cfg in QUADRATIC_CONFIGS:
        assert l1_error(f, mesh, cfg) < 1e-9


def test_classical_reproduces_affines_in_l1():
    mesh = build_mesh(5)
    f = TargetFunction("affine", lambda p: 1.0 - p[..., 0] + 3.0 * p[..., 1])
    assert l1_error(f, mesh, StrategyConfig.classical()) < 1e-11


def test_refinement_reduces_error():
    cfg = StrategyConfig.face_volume(2.0, 2.0)
    f = TARGETS["f1"]
    coarse = l1_error(f, build_mesh(10), cfg)
    fine = l1_error(f, build_mesh(20), cfg)
    assert fine < coarse


def test_projector_consistency(rng):
    f = TARGETS["f5"]
    for cfg in QUADRATIC_CONFIGS:
        op = assemble_H(cfg)
        for _ in range(3):
            tet = make_random_tet(rng)
            dofs = compute_dofs(f, tet, cfg)
            poly = BaryQuadratic("volume", op.h_inv @ dofs)
            re_dofs = compute_dofs(poly_target(tet, poly.coeffs), tet, cfg)
            np.testing.assert_allclose(re_dofs, dofs, atol=1e-9)


def test_thread_count_does_not_change_results(monkeypatch):
    from histotet import experiment

    mesh = build_mesh(6)
    engine = experiment._ErrorEngine(StrategyConfig.volumetric_blend(0.5, 2.0), QuadSettings())
    f = TARGETS["f2"]
    single_chunk = engine.l1_on_mesh(f, mesh, threads=1)
    # 750 cells fit in one default chunk; shrink the budget to 200 cells per
    # chunk, so that threads=2 really runs on the pool.
    n_pts = len(engine.table.nodes) + len(simplex_rule_plain(3, 8))
    monkeypatch.setattr(experiment, "_CHUNK_BUDGET", 200 * n_pts)
    assert len(experiment._chunk_slices(len(mesh), 200)) == 4
    serial = engine.l1_on_mesh(f, mesh, threads=1)
    threaded = engine.l1_on_mesh(f, mesh, threads=2)
    assert serial == threaded  # bitwise: fixed chunking and reduction order
    # Chunk partials are summed after each chunk's dot product, so another
    # chunk size may round differently in the last bits.
    assert serial == pytest.approx(single_chunk, rel=1e-14)


def test_non_finite_error_raises():
    mesh = build_mesh(4)

    def poisoned(p):
        values = np.sin(p[..., 0])
        corner = np.unravel_index(np.argmax(p.sum(axis=-1)), values.shape)
        values[corner] = np.nan  # one point per call, next to the corner (1, 1, 1)
        return values

    f = TargetFunction("poisoned", poisoned)
    with pytest.raises(ValueError, match=r"function poisoned on mesh n=4") as info:
        l1_error(f, mesh, StrategyConfig.classical())
    cell = int(str(info.value).rsplit("cell ", 1)[1])
    assert np.any(np.all(mesh.cell_vertex_array[cell] == 1.0, axis=-1))


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
    assert np.sum(mesh.cell_vertex_array[cell][:, 0] == 0.0) == 3

    n_err = len(simplex_rule_plain(3, 8))
    at_error_nodes = TargetFunction(
        "errnodes",
        lambda p: np.full(p.shape[:-1], np.nan) if p.shape[-2] == n_err else np.sin(p[..., 0]),
    )
    with pytest.raises(ValueError, match=r"at the error nodes, first at cell 0$") as info:
        convergence_study([at_error_nodes], (4,), QUADRATIC_CONFIGS)
    assert "DOF nodes" not in str(info.value)


def test_l1_error_is_deterministic():
    mesh = build_mesh(5)
    f = TARGETS["f8"]
    cfg = StrategyConfig.face_volume(2.0, 2.0)
    assert l1_error(f, mesh, cfg) == l1_error(f, mesh, cfg)


def test_convergence_study_shape_and_rows():
    functions = [TARGETS["f1"], TARGETS["f3"]]
    methods = [StrategyConfig.classical(), StrategyConfig.edge_face(2.0, 2.0)]
    rows = convergence_study(functions, (3, 5), methods)
    assert len(rows) == 8
    assert {r.method for r in rows} == {"classical", "ef"}
    assert all(r.l1_error >= 0.0 and r.seconds >= 0.0 for r in rows)
    again = convergence_study(functions, (3, 5), methods)
    assert [r.l1_error for r in rows] == [r.l1_error for r in again]


ALL_METHODS = [StrategyConfig.classical()] + QUADRATIC_CONFIGS


def test_study_rows_equal_stand_alone_errors_for_any_chunking(monkeypatch):
    from histotet import experiment

    mesh = build_mesh(4)
    n_err = len(simplex_rule_plain(3, 8))
    sizes = [len(experiment.build_dof_table(cfg).nodes) for cfg in ALL_METHODS]
    monkeypatch.setattr(experiment, "_CHUNK_BUDGET", 50_000)
    blocks = [50_000 // (size + n_err) for size in sizes]
    # Four different chunkings of the mesh; the pass runs on the smallest.
    assert len(set(blocks)) == 4 and max(blocks) < len(mesh)
    functions = [TARGETS["f2"], TARGETS["f7"]]
    for threads in (1, 2):
        rows = convergence_study(functions, (4,), ALL_METHODS, threads=threads)
        expected = [
            l1_error(f, mesh, cfg, threads=threads) for cfg in ALL_METHODS for f in functions
        ]
        assert [r.l1_error for r in rows] == expected  # bitwise
        # A row's seconds are its (function, mesh) pass's, shared by every method.
        assert [r.seconds for r in rows] == [r.seconds for r in rows[:2]] * 4


def test_one_pass_evaluates_each_node_set_once():
    from histotet.experiment import build_dof_table

    points = []

    def counted(p):
        points.append(p.shape[0] * p.shape[1])
        return np.sin(p[..., 0]) * p[..., 1]

    target = TargetFunction("counted", counted)
    mesh = build_mesh(3)
    convergence_study([target], (3,), ALL_METHODS)
    # Each distinct DOF block once (the uniform face block serves classical,
    # vol and ef; fv and vol share the dirichlet(2) volume block), then the
    # error nodes once.
    blocks = {
        key: stop - start
        for cfg in ALL_METHODS
        for key, start, stop in build_dof_table(cfg).blocks
    }
    distinct = sum(blocks.values())
    assert sum(points) == len(mesh) * (distinct + len(simplex_rule_plain(3, 8)))
    assert distinct + 216 == 1800
    # With no methods there is no pass to run.
    del points[:]
    assert convergence_study([target], (3,), []) == []
    assert points == []


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
    # 24 face blocks of 64 nodes, 6 volume blocks of 512 and the 216 error nodes.
    for budget in (experiment._CHUNK_BUDGET, 20_000):
        monkeypatch.setattr(experiment, "_CHUNK_BUDGET", budget)
        alone = [l1_error(target, mesh, cfg) for cfg in configs]
        del points[:]
        result = grid_search(TuningGrid("fv", grid, grid, (target,), (3,)), meshes={3: mesh})
        assert sum(points) == len(mesh) * 4824
        assert list(result.surface.ravel()) == alone  # bitwise
        reversed_errors = experiment._l1_errors(engines[::-1], target, mesh)
        assert reversed_errors == alone[::-1]
    assert len(experiment._chunk_slices(len(mesh), 20_000 // (768 + 216))) == 3


def test_observed_convergence_orders():
    # h = 1 / (n - 1): quadratic strategies converge at order 3, classical at 2.
    functions = [TARGETS["f1"], TARGETS["f3"], TARGETS["f5"]]
    rows = convergence_study(functions, (10, 15), ALL_METHODS)
    errors = {(r.method, r.function, r.n): r.l1_error for r in rows}
    for cfg in ALL_METHODS:
        floor = 1.8 if cfg.kind == "classical" else 2.8
        for f in functions:
            coarse, fine = errors[cfg.method_id, f.id, 10], errors[cfg.method_id, f.id, 15]
            order = np.log(coarse / fine) / np.log(14 / 9)
            assert order >= floor, (cfg.method_id, f.id, order)


def test_grid_surface_sums_the_study_rows_of_each_candidate(monkeypatch):
    from histotet import experiment

    built = []

    def counted(n):
        built.append(n)
        return build_mesh(n)

    monkeypatch.setattr(experiment, "build_mesh", counted)
    functions, ns = (TARGETS["f2"], TARGETS["f6"]), (3, 4)
    grid = TuningGrid("vol", (0.25, 0.75), (1.0, 3.0), functions, ns)
    meshes = {}
    result = grid_search(grid, meshes=meshes)
    again = grid_search(grid, meshes=meshes)
    assert sorted(built) == [3, 4]  # the shared dict keeps the first call's meshes
    assert (again.surface == result.surface).all()

    configs = [StrategyConfig.of("vol", a, b) for a in grid.first for b in grid.second]
    rows = convergence_study(functions, ns, configs)
    for k, cfg in enumerate(configs):
        total = 0.0
        for row in rows[4 * k : 4 * k + 4]:  # function, mesh order
            assert row.params == cfg.params_text()
            total += row.l1_error
        assert result.surface.flat[k] == total  # bitwise


def test_study_bytes_counts_the_arrays_of_a_pass():
    from histotet.experiment import _CHUNK_BUDGET, study_bytes

    mesh = build_mesh(4)
    arrays = [mesh.vertices, mesh.cells, mesh.cell_vertex_array, mesh.cell_volumes()]
    errors = np.empty((5, len(mesh)))
    chunk = np.empty(_CHUNK_BUDGET)
    expected = sum(a.nbytes for a in arrays) + errors.nbytes + 3 * chunk.nbytes
    assert study_bytes(4, 5, threads=3) == expected


def test_convergence_study_classical_exact_on_affine_lift():
    f = TargetFunction("affine", lambda p: 2.0 * p[..., 0] - p[..., 1] + 0.25)
    rows = convergence_study([f], (4,), [StrategyConfig.classical()])
    assert rows[0].l1_error < 1e-11


def test_grid_search_single_candidate():
    grid = TuningGrid(
        kind="fv",
        first=(1.0,),
        second=(1.0,),
        functions=(TARGETS["f1"],),
        ns=(3,),
    )
    result = grid_search(grid)
    assert result.best == (1.0, 1.0)
    assert result.surface.shape == (1, 1)
    assert len(result.surface_rows()) == 1


def test_grid_search_surface_and_optimum():
    grid = TuningGrid(
        kind="ef",
        first=(1.0, 2.0),
        second=(1.0, 2.0),
        functions=(TARGETS["f1"],),
        ns=(3, 4),
    )
    result = grid_search(grid)
    assert result.surface.shape == (2, 2)
    ia = result.first.index(result.best[0])
    ib = result.second.index(result.best[1])
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
    result = grid_search(grid)
    assert (result.best, result.best_error) == ((2.0, 1.0), 1.0)
    # an all-equal surface: the first candidate in row-major order wins
    errors.update(dict.fromkeys(errors, 5.0))
    result = grid_search(grid)
    assert (result.best, result.best_error) == ((1.0, 1.0), 5.0)


def test_grid_search_rejects_empty_grid():
    with pytest.raises(ValueError):
        TuningGrid(kind="fv", first=(), second=(1.0,), functions=(TARGETS["f1"],), ns=(3,))
    with pytest.raises(ValueError):
        TuningGrid(kind="bad", first=(1.0,), second=(1.0,), functions=(TARGETS["f1"],), ns=(3,))


def test_one_rule_per_density(monkeypatch):
    from histotet import densities, quadrature
    from histotet.cli import _PARAM_FLAGS
    from histotet.experiment import build_dof_table

    calls = []
    build = quadrature.simplex_rule_weighted

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(densities, "simplex_rule_weighted", counted)
    for cfg, builds in zip(ALL_METHODS, (1, 2, 3, 2)):
        del calls[:]
        build_dof_table(cfg)
        assert len(calls) == builds, cfg.method_id
    # The default fv grid: 36 tables of two rules each, plus one error rule.
    monkeypatch.setattr(quadrature, "simplex_rule_weighted", counted)
    del calls[:]
    grid = _PARAM_FLAGS["alpha"][1]
    grid_search(TuningGrid("fv", grid, grid, (TARGETS["f2"],), (3,)))
    assert len(calls) == 73


def test_quad_settings_reject_rules_too_coarse_for_quadratics():
    with pytest.raises(ValueError, match="dof_points must be >= 3 for quadratic moments, got 2"):
        QuadSettings(dof_points=2)
    with pytest.raises(ValueError, match="error_degree must be >= 1, got 0"):
        QuadSettings(error_degree=0)
    QuadSettings(dof_points=3, error_degree=1)


def test_quad_settings_affect_rule_sizes():
    from histotet.experiment import build_dof_table

    small = build_dof_table(StrategyConfig.face_volume(1.0, 1.0), QuadSettings(dof_points=4))
    large = build_dof_table(StrategyConfig.face_volume(1.0, 1.0), QuadSettings(dof_points=8))
    assert len(small.nodes) == 4 * 16 + 64
    assert len(large.nodes) == 4 * 64 + 512
