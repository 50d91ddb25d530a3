import dataclasses
import warnings
from itertools import product

import numpy as np
import pytest

from histotet import (
    REFERENCE_TET,
    TARGETS,
    BaryQuadratic,
    StrategyConfig,
    UnisolvenceError,
    assemble_H,
    compute_dofs,
    lambda_basis,
    unisolvence_check,
)
from histotet import element
from histotet.cli import _PARAM_FLAGS
from histotet.element import (
    METHODS,
    RANK_RTOL,
    VOLUME_VERTICES,
    Functional,
    _assemble_operator,
    _functional_matrix,
    build_functionals,
    det_dfv_closed,
    det_dvol_closed,
    edge_diagonal_entry,
)
from histotet.densities import (
    VOLUME_BASIS_EXPONENTS,
    face_ortho_quadratic,
    volume_density,
    volumetric_psi,
)
from histotet.experiment import REPRODUCTION_TOL, QuadSettings, _ErrorEngine
from histotet.simplex import EDGE_PAIRS, FACE_VERTEX_INDICES
from conftest import engines_of
from oracles import (
    assemble_D,
    cell_values,
    dfv_entries,
    dvol_entries,
    exact_solve,
    symmetric_quadratic_density,
)

CONFIGS = [
    StrategyConfig.face_volume(2.0, 2.0),
    StrategyConfig.volumetric_blend(0.5, 2.0),
    StrategyConfig.edge_face(2.0, 2.0),
    StrategyConfig.face_volume(1.0, 1.0),
    StrategyConfig.volumetric_blend(1.0, 1.0),
    StrategyConfig.edge_face(1.0, 1.0),
]


def example1_matrix():
    base = np.array(
        [
            [0, 0, 0, -2, -2, -2],
            [0, -2, -2, 0, 0, -2],
            [-2, 0, -2, 0, -2, 0],
            [-2, -2, 0, -2, 0, 0],
            [22 / 35, -3 / 35, -3 / 35, -3 / 35, -3 / 35, 2 / 35],
            [-3 / 35, 22 / 35, -3 / 35, -3 / 35, 2 / 35, -3 / 35],
        ]
    )
    return base / 720.0


def test_dfv_matrix_uniform_case():
    mat = assemble_D(StrategyConfig.face_volume(1.0, 1.0))
    np.testing.assert_allclose(mat, example1_matrix(), rtol=1e-14)
    d, v, u, w = dfv_entries(1.0, 1.0)
    assert d == pytest.approx(-1 / 360, rel=1e-15, abs=0.0)
    assert v == pytest.approx(11 / 12600, rel=1e-15, abs=0.0)
    assert w == pytest.approx(1 / 12600, rel=1e-15, abs=0.0)
    assert u == pytest.approx(-1 / 8400, rel=1e-15, abs=0.0)


def test_dvol_entries_gamma1():
    s, t, z = dvol_entries(1.0)
    assert s == pytest.approx(11 / 12600, rel=1e-15, abs=0.0)
    assert t == pytest.approx(-1 / 8400, rel=1e-15, abs=0.0)
    assert z == pytest.approx(1 / 12600, rel=1e-15, abs=0.0)


def test_edge_matrix_uniform_diagonal():
    mat = assemble_D(StrategyConfig.edge_face(1.0, 1.0))
    np.testing.assert_allclose(np.diag(mat), -1 / 180, rtol=1e-13)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) == 0.0  # vanishes by edge restriction, exactly
    assert edge_diagonal_entry(1.0, 1.0) == pytest.approx(-1 / 180, rel=1e-13, abs=0.0)


def test_symmetric_quadratic_matrix_from_moment_engine():
    """Moment engine matches the hand-derived symmetric-quadratic matrix."""
    fdens = symmetric_quadratic_density("face")
    vdens = symmetric_quadratic_density("volume")
    q = face_ortho_quadratic(fdens)
    rho1, rho2 = volumetric_psi(vdens)[:2]
    funcs = [Functional(FACE_VERTEX_INDICES[j], fdens, q) for j in range(4)]
    funcs += [Functional(VOLUME_VERTICES, vdens, rho1), Functional(VOLUME_VERTICES, vdens, rho2)]
    mat = _functional_matrix(tuple(funcs), VOLUME_BASIS_EXPONENTS[4:])
    expected = (
        np.array(
            [
                [0, 0, 0, -7168, -7168, -7168],
                [0, -7168, -7168, 0, 0, -7168],
                [-7168, 0, -7168, 0, -7168, 0],
                [-7168, -7168, 0, -7168, 0, 0],
                [2165, -250, -250, -250, -250, 135],
                [-250, 2165, -250, -250, 135, -250],
            ],
            dtype=float,
        )
        / 2116800.0
    )
    np.testing.assert_allclose(mat, expected, rtol=1e-12, atol=1e-19)


def dfv_layout(alpha, beta):
    d, v, u, w = dfv_entries(alpha, beta)
    rows = [[0.0 if j in pair else d for pair in EDGE_PAIRS] for j in range(4)]
    rows += [[v, u, u, u, u, w], [u, v, u, u, w, u]]
    return np.array(rows)


def dvol_layout(gamma):
    s, t, z = dvol_entries(gamma)
    mat = np.full((6, 6), t)
    np.fill_diagonal(mat, s)
    mat[np.arange(6), 5 - np.arange(6)] = z  # antipodal pair: no shared index
    return mat


ORACLE_GRID = (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0)


def test_closed_entries_match_moment_engine():
    for alpha in ORACLE_GRID:
        for beta in ORACLE_GRID:
            mat = assemble_D(StrategyConfig.face_volume(alpha, beta))
            np.testing.assert_allclose(mat, dfv_layout(alpha, beta), rtol=1e-10, atol=0.0)
    for gamma in ORACLE_GRID:
        mat = assemble_D(StrategyConfig.volumetric_blend(0.0, gamma))
        np.testing.assert_allclose(mat, dvol_layout(gamma), rtol=1e-10, atol=0.0)
    for cfg in CONFIGS:
        op = assemble_H(cfg)
        assert np.array_equal(op.h[4:, 4:], assemble_D(cfg))
        assert np.linalg.det(op.h[4:, 4:]) == unisolvence_check(cfg).det


def test_functional_lifts_onto_their_domain():
    from histotet.experiment import _table_from_functionals

    for cfg in CONFIGS[:3]:
        for func in build_functionals(cfg):
            nodes = _table_from_functionals((func,), 4).nodes
            others = [k for k in range(4) if k not in func.vertices]
            assert np.max(np.abs(nodes[:, others]), initial=0.0) == 0.0
            np.testing.assert_allclose(nodes.sum(axis=1), 1.0, atol=1e-14)
            assert np.array_equal(nodes[:, list(func.vertices)], func.density.rule(4).nodes)
    # faces keep ascending vertex labels; on edge (i, j) the parameter t is lambda_j
    for j in range(4):
        assert FACE_VERTEX_INDICES[j] == tuple(sorted(set(range(4)) - {j}))
    edge_funcs = build_functionals(StrategyConfig.edge_face(2.0, 2.0))[4:]
    assert [f.vertices for f in edge_funcs] == [(j, i) for i, j in EDGE_PAIRS]


DEFAULT_GRID_CONFIGS = [
    StrategyConfig.of(method, *params)
    for method in ("fv", "vol", "ef")
    for params in product(*(_PARAM_FLAGS[name][1] for name in METHODS[method].params))
]


def test_check_reads_the_operator_every_command_inverts():
    # check prints the verdicts of the very H, and the inverse, that an
    # error engine applies, bit for bit, on check's default grids.
    assert len(DEFAULT_GRID_CONFIGS) == 102
    for cfg in DEFAULT_GRID_CONFIGS:
        rep = unisolvence_check(cfg)
        assert rep.h.tobytes() == assemble_H(cfg).h.tobytes(), cfg
        assert rep.h_inv.tobytes() == _ErrorEngine(cfg, QuadSettings()).op.h_inv.tobytes(), cfg


def test_every_default_configuration_reproduces_quadratics():
    # The engine's r, against a solve of H on the table's own DOFs of the ten
    # basis monomials, stays below the tolerance on check's default grids.
    for cfg in DEFAULT_GRID_CONFIGS:
        engine = _ErrorEngine(cfg, QuadSettings())
        dofs = engine.table.weights @ lambda_basis(engine.table.nodes)
        r = np.abs(np.linalg.solve(engine.op.h, dofs) - np.eye(10)).max()
        assert engine.r == pytest.approx(r, rel=1e-2, abs=1e-15), cfg
        assert engine.r <= REPRODUCTION_TOL, cfg


def test_functional_matrix_blocks():
    cfg = StrategyConfig.face_volume(2.0, 2.0)
    op = assemble_H(cfg)
    np.testing.assert_allclose(op.h[:4, :4], (np.ones((4, 4)) - np.eye(4)) / 3.0, atol=1e-15)
    # N block carries alpha/(3(3 alpha + 1)) = 2/21 in the complementary pattern
    n_block = op.h[:4, 4:]
    pattern = np.array(
        [
            [0, 0, 0, 1, 1, 1],
            [0, 1, 1, 0, 0, 1],
            [1, 0, 1, 0, 1, 0],
            [1, 1, 0, 1, 0, 0],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(n_block, pattern * (2.0 / 21.0), atol=1e-16)
    # zero lower-left block, exactly
    assert np.max(np.abs(op.h[4:, :4])) == 0.0
    np.testing.assert_allclose(op.h[4:, 4:], assemble_D(cfg), atol=1e-18)


CLASSICAL = StrategyConfig.of("classical")


def test_classical_project_examples():
    (engine,) = engines_of([CLASSICAL])
    constant = engine.coefficients([1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(constant, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0], atol=1e-15)
    kron = engine.coefficients([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(kron[:4], [-2, 1, 1, 1], atol=1e-15)
    lam1 = engine.coefficients([0.0, 1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(lam1, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)


def test_evaluate_basics():
    poly = BaryQuadratic("volume", [0, 0, 0, 0, 1, 0, 0, 0, 0, 0])  # lambda1 * lambda2
    assert poly([0.25, 0.25, 0.25, 0.25]) == pytest.approx(1 / 16)
    one = BaryQuadratic("volume", [1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    assert one([0.1, 0.2, 0.3, 0.4]) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(
        lambda_basis([1, 0, 0, 0]), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-15
    )


def _scale_enrichments(funcs, factor):
    """funcs with every enrichment quadratic multiplied by factor."""
    return tuple(
        func
        if func.weight_poly is None
        else dataclasses.replace(
            func, weight_poly=BaryQuadratic(func.weight_poly.space, factor * func.weight_poly.coeffs)
        )
        for func in funcs
    )


def test_scale_invariance_of_reconstruction(rng):
    from histotet.experiment import _table_from_functionals
    from histotet import TARGETS

    f = TARGETS["f4"]
    verts = rng.random((4, 3))
    while abs(np.linalg.det(verts[1:] - verts[0])) / 6.0 < 0.01:
        verts = rng.random((4, 3))
    cell = np.arange(4)[None]

    for cfg in CONFIGS[:3]:
        base_funcs = build_functionals(cfg)
        base_op = _assemble_operator(cfg, base_funcs)
        base_table = _table_from_functionals(base_funcs, 8)
        base_dofs = cell_values(f, verts, cell, base_table.nodes) @ base_table.weights.T
        base_coeffs = base_op.h_inv @ base_dofs[0]
        for factor in (-3.0, 0.01, 7.0):
            scaled = _scale_enrichments(base_funcs, factor)
            op = _assemble_operator(cfg, scaled)
            table = _table_from_functionals(scaled, 8)
            coeffs = op.h_inv @ (cell_values(f, verts, cell, table.nodes) @ table.weights.T)[0]
            np.testing.assert_allclose(coeffs, base_coeffs, atol=1e-10)


def test_parameter_floor_rejected():
    with pytest.raises(ValueError):
        StrategyConfig.face_volume(1e-6, 1.0)
    with pytest.raises(ValueError):
        StrategyConfig.edge_face(2.0, 1e-4)
    with pytest.raises(ValueError):
        StrategyConfig.volumetric_blend(1.2, 2.0)


def test_singular_functionals_raise(monkeypatch):
    cfg = StrategyConfig.face_volume(1.0, 1.0)
    funcs = build_functionals(cfg)
    broken = _scale_enrichments(funcs, 0.0)
    op = _assemble_operator(cfg, broken)
    assert op.rank6 is False and op.h_inv is None
    monkeypatch.setattr(element, "build_functionals", lambda cfg: broken)
    with pytest.raises(UnisolvenceError):
        assemble_H(cfg)


def _with_smallest_singular_value(dmat, ratio):
    """dmat with its smallest singular value set to ratio times the largest."""
    u, s, vt = np.linalg.svd(dmat)
    s[-1] = ratio * s[0]
    return (u * s) @ vt


@pytest.mark.parametrize("ratio", [0.0, 1e-15, 1e-13])
@pytest.mark.parametrize("cfg", CONFIGS[:3], ids=lambda c: c.method_id)
def test_rank_deficient_blocks_are_rejected(monkeypatch, cfg, ratio):
    # ratio 0 is a rank-5 block, 1e-15 a near-singular one; both fall below
    # RANK_RTOL, in the report and in assembly alike.  1e-13, on the other
    # side, is admitted.
    admitted = ratio == 1e-13
    bad = _with_smallest_singular_value(assemble_D(cfg), ratio)
    s = np.linalg.svd(bad, compute_uv=False)
    assert (s[-1] > RANK_RTOL * s[0]) == admitted and s[-2] > 1e-3 * s[0]
    monkeypatch.setattr(element, "_enriched_block", lambda functionals: bad)
    rep = unisolvence_check(cfg)
    if admitted:
        assert rep.rank6 is True and rep.ok
        assert assemble_H(cfg).h_inv is not None
        return
    assert rep.rank6 is False and not rep.ok
    assert rep.block_cond > 1.0 / RANK_RTOL
    with pytest.raises(UnisolvenceError, match="singular values range from"):
        assemble_H(cfg)


def test_a_non_finite_enriched_block_is_not_of_full_rank():
    # At alpha = 1e306 the fv quadratics are finite but the face moments are
    # NaN.  The check reports the block as failed (the closed form overflows
    # and is left out), and assembly raises; neither warns of the NaN.
    cfg = StrategyConfig.face_volume(1e306, 1.0)
    assert all(np.isfinite(f.weight_poly.coeffs).all() for f in element.build_functionals(cfg)[4:])
    rep = unisolvence_check(cfg)
    assert rep.rank6 is False and not rep.ok and np.isnan(rep.block_cond)
    assert rep.closed_form_det is None and rep.rel_error is None
    with pytest.raises(UnisolvenceError, match=r"fv \(alpha=1e\+306;beta=1\) is not unisolvent"):
        assemble_H(cfg)


EF_CORNERS = [StrategyConfig.edge_face(*p) for p in ((0.001, 500.0), (500.0, 0.001), (0.001, 1000.0))]


@pytest.mark.parametrize("cfg", CONFIGS[:3] + EF_CORNERS, ids=lambda c: f"{c.method_id}({c.params_text()})")
def test_raw_cond_measures_row_scaling_not_accuracy(cfg):
    # The DOFs are normalized expectations: at the ef corners the six edge
    # rows shrink together, so raw cond(H) passes 1e12 while H with unit rows
    # stays well conditioned.  Assembly warns of nothing.  What the corners
    # lack is accuracy: their DOF quadrature and H's exact moments disagree
    # on quadratics (r), so no command admits them.  Elsewhere the float64
    # coefficients keep the digits of an exact solve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = assemble_H(cfg)
    assert np.linalg.cond(op.h / np.abs(op.h).max(axis=1, keepdims=True)) < 20.0
    if cfg in EF_CORNERS:
        assert op.cond > 1e12
        with pytest.raises(UnisolvenceError, match="does not reproduce quadratics"):
            _ErrorEngine(cfg, QuadSettings())
        return
    engine = _ErrorEngine(cfg, QuadSettings())
    dofs = compute_dofs(TARGETS["f4"], REFERENCE_TET, engine.table)
    exact = exact_solve(engine.op.h, dofs)
    assert np.abs(engine.coefficients(dofs) - exact).max() <= 1e-14 * np.abs(exact).max()


def test_rank6_is_the_singular_value_verdict_alone(monkeypatch):
    # A well-conditioned block whose determinant underflows to 0 has rank 6.
    monkeypatch.setattr(element, "_enriched_block", lambda functionals: 1e-60 * np.eye(6))
    rep = unisolvence_check(CONFIGS[2])
    assert rep.det == 0.0 and rep.block_cond == 1.0
    assert rep.rank6 is True and rep.ok


def test_volumetric_config_validation():
    with pytest.raises(ValueError, match=r"vol takes parameters \('theta', 'gamma'\)"):
        StrategyConfig.of("vol", 2.0)  # missing gamma
    with pytest.raises(ValueError, match="theta must lie in"):
        StrategyConfig.volumetric_blend(1.5, 2.0)
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        StrategyConfig.of("nope", 2.0)


def test_direct_construction_checks_the_id_and_the_arity():
    # A value past the row's parameters, such as another method's, has no name.
    cases = [("fv", (1.0,)), ("fv", (1.0, 1.0, 3.0)), ("classical", (-5.0,)), ("vol", (0.5, 2.0, 2.0))]
    for method, params in cases:
        with pytest.raises(ValueError, match=rf"{method} takes parameters \("):
            StrategyConfig(method, params)
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        StrategyConfig("nope", ())


def test_negative_zero_prints_as_the_config_it_equals():
    cfg = StrategyConfig.of("vol", -0.0, 2)
    assert cfg == StrategyConfig.volumetric_blend(0, 2)
    assert cfg.params_text() == "theta=0;gamma=2"


def test_volume_variants_are_blend_members():
    # The dirichlet(gamma) and uniform volume densities are the blend's ends.
    for gamma in ORACLE_GRID:
        _, dirichlet = METHODS["vol"].densities(0.0, gamma)
        assert dirichlet == volume_density(gamma)
        _, uniform = METHODS["vol"].densities(1.0, gamma)
        assert uniform == volume_density(1.0)


def test_methods_table_drives_configs():
    assert [f.name for f in dataclasses.fields(StrategyConfig)] == ["method_id", "params"]
    closed = {
        "classical": None,
        "fv": det_dfv_closed(0.5, 1.0),
        "vol": det_dvol_closed(1.0),  # gamma = 1: the uniform law
        "ef": edge_diagonal_entry(0.5, 1.0) ** 6,
    }
    kinds = {"classical": "classical", "fv": "face_volume", "vol": "volumetric", "ef": "edge_face"}
    assert list(METHODS) == list(closed)
    for method, row in METHODS.items():
        values = (0.5, 1.0)[: len(row.params)]
        cfg = StrategyConfig.of(method, *values)
        assert (cfg.kind, cfg.method_id, cfg.params) == (kinds[method], method, values)
        expected = ";".join(f"{name}={v:g}" for name, v in zip(row.params, values)) or "-"
        assert cfg.params_text() == expected
        assert row.closed_det(*values) == closed[method]
        assert [getattr(cfg, name) for name in row.params] == list(values)
        with pytest.raises(AttributeError):
            getattr(cfg, "gamma" if method == "fv" else "alpha")
        with pytest.raises(ValueError):
            StrategyConfig.of(method, *[0.5] * (len(row.params) + 1))
    assert [m for m, row in METHODS.items() if row.spd] == ["vol"]
    assert METHODS["vol"].closed_det(0.5, 2.0) is None
    assert StrategyConfig.face_volume(2, 3) == StrategyConfig.of("fv", 2, 3)
    assert StrategyConfig.edge_face(2, 3) == StrategyConfig.of("ef", 2, 3)
    with pytest.raises(ValueError):
        StrategyConfig.of("symmetric-quadratic")
    with pytest.raises(ValueError):
        StrategyConfig.of("fv", float("nan"), 1.0)
