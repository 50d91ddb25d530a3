"""Acceptance suite: one test per release criterion, each printing a summary
line (run with -s to see them; `pytest -v` shows one pass/fail line per
criterion either way)."""

import time
import warnings

import numpy as np
import pytest

from histotet import (
    TARGETS,
    BaryQuadratic,
    StrategyConfig,
    TargetFunction,
    TuningGrid,
    assemble_D,
    assemble_H,
    build_mesh,
    classical_project,
    compute_dofs,
    convergence_study,
    edge_density,
    edge_ortho_quadratic,
    grid_search,
)
from histotet.cli import main as cli_main
from histotet.element import (
    det_dfv_closed,
    det_dvol_closed,
    edge_diagonal_entry,
)
from conftest import make_random_tet
from oracles import apply_functionals
from test_densities import _all_family_cases, analytic_residual, quadrature_residual

PARAM_GRID = (0.5, 1.0, 2.0, 5.0)

TUNED_DEFAULTS = [
    StrategyConfig.face_volume(2.0, 2.0),
    StrategyConfig.volumetric_blend(0.5, 2.0),
    StrategyConfig.edge_face(2.0, 2.0),
]

UNIT_VARIANTS = [
    StrategyConfig.face_volume(1.0, 1.0),
    StrategyConfig.volumetric(variant="dirichlet", gamma=1.0),
    StrategyConfig.edge_face(1.0, 1.0),
]


def test_criterion_1_determinant_reproduction():
    started = time.perf_counter()

    det11 = float(np.linalg.det(assemble_D(StrategyConfig.face_volume(1.0, 1.0))))
    expected = 1.0 / (2.0 * 3**2 * 12.0**8 * 5**6 * 7**2)
    assert det11 == pytest.approx(expected, rel=1e-10)

    for alpha in PARAM_GRID:
        for beta in PARAM_GRID:
            det = float(np.linalg.det(assemble_D(StrategyConfig.face_volume(alpha, beta))))
            closed = det_dfv_closed(alpha, beta)
            assert abs(det - closed) / closed < 1e-9, (alpha, beta)
    for gamma in PARAM_GRID:
        det = float(np.linalg.det(assemble_D(StrategyConfig.volumetric(gamma=gamma))))
        closed = det_dvol_closed(gamma)
        assert abs(det - closed) / closed < 1e-9, gamma

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASSED: determinants match closed forms ({elapsed:.3f} s)")


def test_criterion_2_spd_suite():
    started = time.perf_counter()
    for theta in (0.0, 0.25, 0.5, 1.0):
        for gamma in PARAM_GRID:
            mat = assemble_D(StrategyConfig.volumetric_blend(theta, gamma))
            np.testing.assert_allclose(mat, mat.T, atol=1e-15)
            np.linalg.cholesky(mat)  # raises if not positive definite
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2 PASSED: volumetric matrices SPD on the blend grid ({elapsed:.3f} s)")


def test_criterion_3_orthogonality_suite():
    started = time.perf_counter()
    cases = _all_family_cases()
    for poly, dens in cases:
        assert analytic_residual(poly, dens) < 1e-12
        assert quadrature_residual(poly, dens) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"criterion 3 PASSED: {len(cases)} enrichment polynomials orthogonal "
        f"to affines on both paths ({elapsed:.3f} s)"
    )


def test_criterion_4_reproduction_suite(rng):
    started = time.perf_counter()
    tet = make_random_tet(rng)
    for cfg in TUNED_DEFAULTS + UNIT_VARIANTS:
        op = assemble_H(cfg)
        for c in range(10):
            coeffs = np.zeros(10)
            coeffs[c] = 1.0
            mono = BaryQuadratic("volume", coeffs)
            f = TargetFunction("mono", lambda p, mono=mono: mono(tet.barycentric(p)))
            dofs = compute_dofs(f, tet, cfg)
            recon = op.h_inv @ dofs
            assert np.max(np.abs(recon - coeffs)) < 1e-10, (cfg.method_id, c)

    for _ in range(50):
        lin = rng.normal(size=4)
        averages = (np.ones((4, 4)) - np.eye(4)) / 3.0 @ lin
        poly = classical_project(averages)
        lam = rng.dirichlet(np.ones(4), size=25)
        assert np.max(np.abs(poly(lam) - lam @ lin)) < 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        "criterion 4 PASSED: all quadratic monomials reproduced by the three "
        f"strategies; classical reproduces affines ({elapsed:.3f} s)"
    )


def test_criterion_5_kronecker_and_projector(rng):
    started = time.perf_counter()
    for cfg in TUNED_DEFAULTS:
        op = assemble_H(cfg)
        for ell in range(10):
            values = apply_functionals(op.functionals, op.basis_function(ell))
            assert np.max(np.abs(values - np.eye(10)[ell])) < 1e-10, (cfg.method_id, ell)

    tets = [make_random_tet(rng) for _ in range(20)]
    for cfg in TUNED_DEFAULTS:
        op = assemble_H(cfg)
        for fid in ("f3", "f4"):
            f = TARGETS[fid]
            for tet in tets:
                dofs = compute_dofs(f, tet, cfg)
                poly = BaryQuadratic("volume", op.h_inv @ dofs)
                back = compute_dofs(
                    TargetFunction("pi", lambda p, poly=poly: poly(tet.barycentric(p))),
                    tet,
                    cfg,
                )
                assert np.max(np.abs(back - dofs)) < 1e-9, (cfg.method_id, fid)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        "criterion 5 PASSED: Kronecker property and projector consistency on "
        f"20 random tetrahedra ({elapsed:.3f} s)"
    )


def test_criterion_6_edge_polynomial_oracle(rng):
    started = time.perf_counter()
    for _ in range(20):
        zeta, nu = rng.uniform(0.25, 5.0, size=2)
        q = edge_ortho_quadratic(edge_density(zeta, nu))
        lead = (zeta + nu + 1.0) * (zeta + nu + 2.0)
        closed = np.array(
            [
                zeta * (zeta + 1.0) / lead,
                -2.0 * (zeta + 1.0) * (zeta + nu + 1.0) / lead,
                1.0,
            ]
        )
        np.testing.assert_allclose(q.coeffs, closed, rtol=1e-11)

    # brute-force oracle for the uniform edge weight: plain Gauss-Legendre
    # integration of t(1-t)(t^2 - t + 1/6) over [0,1]
    x, w = np.polynomial.legendre.leggauss(20)
    t = 0.5 * (x + 1.0)
    q11 = edge_ortho_quadratic(edge_density(1.0, 1.0))
    integrand = t * (1.0 - t) * q11(t)
    brute = 0.5 * float(np.dot(integrand, w))
    assert brute == pytest.approx(-1.0 / 180.0, rel=1e-12)
    assert edge_diagonal_entry(1.0, 1.0) == pytest.approx(-1.0 / 180.0, rel=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 6 PASSED: edge polynomial matches the derived closed form ({elapsed:.3f} s)")


def _check_monotone(errors, tolerance=0.05):
    """Nonincreasing along the mesh sequence, with at most one inversion
    below `tolerance` relative size."""
    inversions = 0
    for prev, curr in zip(errors, errors[1:]):
        if curr > prev:
            inversions += 1
            if curr > prev * (1.0 + tolerance):
                return False
    return inversions <= 1


def test_criterion_7_convergence_reproduction():
    started = time.perf_counter()
    functions = [TARGETS[fid] for fid in ("f1", "f3", "f5")]
    ns = (5, 10, 15)
    methods = [StrategyConfig.classical()] + TUNED_DEFAULTS
    rows = convergence_study(functions, ns, methods)

    table = {(r.function, r.method, r.n): r.l1_error for r in rows}
    for f in functions:
        for n in (10, 15):
            classical = table[(f.id, "classical", n)]
            for cfg in TUNED_DEFAULTS:
                quad = table[(f.id, cfg.method_id, n)]
                assert quad < classical, (f.id, cfg.method_id, n, quad, classical)
        for method in ("classical", "fv", "vol", "ef"):
            series = [table[(f.id, method, n)] for n in ns]
            assert _check_monotone(series), (f.id, method, series)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        "criterion 7 PASSED: every quadratic strategy beats classical at "
        f"n in (10, 15) for f1, f3, f5, errors decay monotonically ({elapsed:.1f} s)"
    )


def test_criterion_8_tuning_reproduction():
    started = time.perf_counter()
    functions = tuple(TARGETS[f"f{i}"] for i in range(1, 9))
    ns = (5, 10, 15)  # reduced mesh set sanctioned for this criterion
    expected = {"fv": (2.0, 2.0), "vol": (0.5, 2.0), "ef": (2.0, 2.0)}
    grids = {
        "fv": ((1.0, 2.0), (1.0, 2.0)),
        "vol": ((0.5, 1.0), (1.0, 2.0)),
        "ef": ((1.0, 2.0), (1.0, 2.0)),
    }

    meshes = {}
    findings = []
    for kind, (first, second) in grids.items():
        grid = TuningGrid(kind=kind, first=first, second=second, functions=functions, ns=ns)
        result = grid_search(grid, meshes=meshes)
        assert result.surface.shape == (len(first), len(second))
        assert np.all(result.surface > 0.0)
        assert result.best[0] in first and result.best[1] in second
        matches = result.best == expected[kind]
        findings.append((kind, result.best, expected[kind], matches))
        if not matches:
            warnings.warn(
                f"tuning finding: {kind} optimum {result.best} differs from the "
                f"reference optimum {expected[kind]} on the reduced protocol",
                stacklevel=1,
            )

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    summary = "; ".join(
        f"{kind}: got {got}, reference {want}{'' if ok else ' [finding]'}"
        for kind, got, want, ok in findings
    )
    print(f"criterion 8 PASSED (soft): {summary} ({elapsed:.1f} s)")


def test_criterion_9_converge_determinism(tmp_path):
    started = time.perf_counter()
    args = [
        "converge",
        "--functions", "f1,f3,f5",
        "--n", "5,10,15",
        "--out", None,  # placeholder, replaced per run
    ]
    outputs = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        argv = args[:-1] + [str(run_dir)]
        assert cli_main(argv) == 0
        outputs.append((run_dir / "errors.csv").read_bytes())

    assert outputs[0] == outputs[1], "consecutive converge runs differ"
    n_rows = outputs[0].decode().strip().count("\n")
    assert n_rows == 3 * 3 * 4  # functions x meshes x methods

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        "criterion 9 PASSED: two consecutive converge runs produced "
        f"byte-identical CSV ({elapsed:.1f} s)"
    )
