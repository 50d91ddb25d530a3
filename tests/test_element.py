import dataclasses

import numpy as np
import pytest

from histotet import (
    BaryQuadratic,
    StrategyConfig,
    UnisolvenceError,
    assemble_D,
    assemble_H,
    classical_project,
    lambda_basis,
    reconstruct,
    unisolvence_check,
)
from histotet.densities import face_density, volume_density
from histotet.element import (
    METHODS,
    VOLUME_VERTICES,
    Functional,
    _assemble_operator,
    _functional_matrix,
    build_functionals,
    det_dfv_closed,
    det_dvol_closed,
    edge_diagonal_entry,
)
from histotet.densities import VOLUME_BASIS_EXPONENTS, face_ortho_quadratic, volumetric_psi
from histotet.simplex import EDGE_PAIRS, FACE_VERTEX_INDICES
from oracles import apply_functionals, dfv_entries, dvol_entries

PARAM_GRID = (0.5, 1.0, 2.0, 5.0)

CONFIGS = [
    StrategyConfig.face_volume(2.0, 2.0),
    StrategyConfig.volumetric_blend(0.5, 2.0),
    StrategyConfig.edge_face(2.0, 2.0),
    StrategyConfig.face_volume(1.0, 1.0),
    StrategyConfig.volumetric(variant="uniform"),
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
    assert d == pytest.approx(-1 / 360, rel=1e-15)
    assert v == pytest.approx(11 / 12600, rel=1e-15)
    assert w == pytest.approx(1 / 12600, rel=1e-15)
    assert u == pytest.approx(-1 / 8400, rel=1e-15)


def test_dvol_entries_gamma1():
    s, t, z = dvol_entries(1.0)
    assert s == pytest.approx(11 / 12600, rel=1e-15)
    assert t == pytest.approx(-1 / 8400, rel=1e-15)
    assert z == pytest.approx(1 / 12600, rel=1e-15)


def test_edge_matrix_uniform_diagonal():
    mat = assemble_D(StrategyConfig.edge_face(1.0, 1.0))
    np.testing.assert_allclose(np.diag(mat), -1 / 180, rtol=1e-13)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) == 0.0  # vanishes by edge restriction, exactly
    assert edge_diagonal_entry(1.0, 1.0) == pytest.approx(-1 / 180, rel=1e-13)


def test_symmetric_quadratic_matrix_from_moment_engine():
    """Moment engine matches the hand-derived symmetric-quadratic matrix."""
    fdens = face_density("symmetric-quadratic")
    vdens = volume_density("symmetric-quadratic")
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
        mat = assemble_D(StrategyConfig.volumetric(gamma=gamma))
        np.testing.assert_allclose(mat, dvol_layout(gamma), rtol=1e-10, atol=0.0)
    for cfg in CONFIGS:
        op = assemble_H(cfg)
        assert np.array_equal(op.h[4:, 4:], assemble_D(cfg))
        assert op.report.det == unisolvence_check(cfg).det


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


def test_fv_determinant_example1():
    rep = unisolvence_check(StrategyConfig.face_volume(1.0, 1.0))
    expected = 1.0 / (2.0 * 3**2 * 12.0**8 * 5**6 * 7**2)
    assert rep.det == pytest.approx(expected, rel=1e-10)
    assert rep.closed_form_det == pytest.approx(expected, rel=1e-12)


def test_fv_determinants_on_grid():
    for alpha in PARAM_GRID:
        for beta in PARAM_GRID:
            rep = unisolvence_check(StrategyConfig.face_volume(alpha, beta))
            assert rep.closed_form_det == det_dfv_closed(alpha, beta)
            assert rep.closed_form_det > 0.0
            assert rep.rel_error < 1e-9
            assert rep.rank6


def test_vol_determinants_on_grid():
    for gamma in PARAM_GRID:
        rep = unisolvence_check(StrategyConfig.volumetric(gamma=gamma))
        assert rep.closed_form_det == det_dvol_closed(gamma)
        assert rep.rel_error < 1e-9
        assert rep.rank6 and rep.spd
        # theta=1 is the uniform law whatever gamma is
        rep = unisolvence_check(StrategyConfig.volumetric_blend(1.0, gamma))
        assert rep.closed_form_det == det_dvol_closed(1.0)
        assert rep.rel_error < 1e-9


def test_vol_determinant_gamma1_value():
    assert det_dvol_closed(1.0) == pytest.approx(
        16.0 / (2.0**18 * 3**9 * 5**7 * 7**6), rel=1e-13
    )


def test_blend_spd_sweep():
    for theta in (0.0, 0.25, 0.5, 1.0):
        for gamma in PARAM_GRID:
            rep = unisolvence_check(StrategyConfig.volumetric_blend(theta, gamma))
            assert rep.spd, (theta, gamma)
            assert rep.rank6


def test_functional_matrix_blocks():
    op = assemble_H(StrategyConfig.face_volume(2.0, 2.0))
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
    np.testing.assert_allclose(op.h[4:, 4:], assemble_D(op.cfg), atol=1e-18)


def test_inverse_and_kronecker():
    for cfg in CONFIGS:
        op = assemble_H(cfg)
        np.testing.assert_allclose(op.h @ op.h_inv, np.eye(10), atol=1e-10)
        # analytic functionals applied to every basis column give e_l
        for ell in range(10):
            values = apply_functionals(op.functionals, op.basis_function(ell))
            np.testing.assert_allclose(values, np.eye(10)[ell], atol=1e-10)


def test_classical_project_examples():
    constant = classical_project([1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(constant.coeffs, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0], atol=1e-15)
    kron = classical_project([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(kron.coeffs[:4], [-2, 1, 1, 1], atol=1e-15)
    lam1 = classical_project([0.0, 1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(lam1.coeffs, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)


def test_classical_reproduces_affines(rng):
    for _ in range(50):
        coeff = rng.normal(size=4)
        averages = (np.ones((4, 4)) - np.eye(4)) / 3.0 @ coeff
        poly = classical_project(averages)
        lam = rng.dirichlet(np.ones(4), size=20)
        np.testing.assert_allclose(poly(lam), lam @ coeff, atol=1e-12)


def test_reconstruct_monomials_and_basis_columns():
    for cfg in CONFIGS:
        op = assemble_H(cfg)
        for c in range(10):
            dofs = op.h[:, c]  # analytic DOFs of the c-th monomial
            poly = reconstruct(op, dofs)
            expected = np.zeros(10)
            expected[c] = 1.0
            np.testing.assert_allclose(poly.coeffs, expected, atol=1e-10)
        for ell in (0, 4, 9):
            e = np.zeros(10)
            e[ell] = 1.0
            np.testing.assert_allclose(
                reconstruct(op, e).coeffs, op.h_inv[:, ell], atol=1e-15
            )


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
    from histotet.experiment import _table_from_functionals, _target_values
    from histotet import TARGETS

    f = TARGETS["f4"]
    verts = rng.random((1, 4, 3))
    while abs(np.linalg.det(verts[0, 1:] - verts[0, 0])) / 6.0 < 0.01:
        verts = rng.random((1, 4, 3))

    for cfg in CONFIGS[:3]:
        base_funcs = build_functionals(cfg)
        base_op = _assemble_operator(cfg, base_funcs)
        base_table = _table_from_functionals(base_funcs, 8)
        base_dofs = _target_values(f, verts, base_table.nodes) @ base_table.weights.T
        base_coeffs = base_op.h_inv @ base_dofs[0]
        for factor in (-3.0, 0.01, 7.0):
            scaled = _scale_enrichments(base_funcs, factor)
            op = _assemble_operator(cfg, scaled)
            table = _table_from_functionals(scaled, 8)
            coeffs = op.h_inv @ (_target_values(f, verts, table.nodes) @ table.weights.T)[0]
            np.testing.assert_allclose(coeffs, base_coeffs, atol=1e-10)


def test_parameter_floor_rejected():
    with pytest.raises(ValueError):
        StrategyConfig.face_volume(1e-6, 1.0)
    with pytest.raises(ValueError):
        StrategyConfig.edge_face(2.0, 1e-4)
    with pytest.raises(ValueError):
        StrategyConfig.volumetric_blend(1.2, 2.0)


def test_singular_functionals_raise():
    cfg = StrategyConfig.face_volume(1.0, 1.0)
    funcs = build_functionals(cfg)
    broken = _scale_enrichments(funcs, 0.0)
    with pytest.raises(UnisolvenceError):
        _assemble_operator(cfg, broken)


def test_volumetric_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig.volumetric(variant="dirichlet")  # missing gamma
    with pytest.raises(ValueError):
        StrategyConfig.volumetric(variant="blend", gamma=2.0)  # blends use volumetric_blend
    with pytest.raises(ValueError):
        StrategyConfig.volumetric(variant="nope", gamma=2.0)


def test_volume_variants_are_blend_members():
    for gamma in ORACLE_GRID:
        cfg = StrategyConfig.volumetric("dirichlet", gamma=gamma)
        assert cfg == StrategyConfig.volumetric_blend(0, gamma)
    assert StrategyConfig.volumetric("uniform") == StrategyConfig.volumetric_blend(1, 1)


def test_methods_table_drives_configs():
    assert [f.name for f in dataclasses.fields(StrategyConfig)] == [
        "kind", "alpha", "beta", "theta", "gamma", "zeta", "nu"
    ]
    for method, (kind, names) in METHODS.items():
        cfg = StrategyConfig.of(method, *[0.5] * len(names))
        assert (cfg.kind, cfg.method_id) == (kind, method)
        expected = ";".join(f"{name}=0.5" for name in names) or "-"
        assert cfg.params_text() == expected
        with pytest.raises(ValueError):
            StrategyConfig.of(method, *[0.5] * (len(names) + 1))
    assert StrategyConfig.face_volume(2, 3) == StrategyConfig.of("fv", 2, 3)
    assert StrategyConfig.edge_face(2, 3) == StrategyConfig.of("ef", 2, 3)
    with pytest.raises(ValueError):
        StrategyConfig.of("symmetric-quadratic")
    with pytest.raises(ValueError):
        StrategyConfig.of("fv", float("nan"), 1.0)
