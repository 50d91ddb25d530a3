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
    n_pts = len(engine.table.nodes) + len(engine.err_nodes)
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
        experiment._ErrorEngine,
        "l1_on_mesh",
        lambda self, f, mesh, threads=1, f_err_values=None: errors[(self.cfg.zeta, self.cfg.nu)],
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


def test_quad_settings_affect_rule_sizes():
    from histotet.experiment import build_dof_table

    small = build_dof_table(StrategyConfig.face_volume(1.0, 1.0), QuadSettings(dof_points=4))
    large = build_dof_table(StrategyConfig.face_volume(1.0, 1.0), QuadSettings(dof_points=8))
    assert len(small.nodes) == 4 * 16 + 64
    assert len(large.nodes) == 4 * 64 + 512
