"""Acceptance suite: one test per release criterion, each the one Tier-1
statement of its paper identity and each printing a summary line (run with
-s or -rP to see them; `pytest -v` shows one pass/fail line per criterion
either way)."""

import csv
import time
import warnings
from itertools import product

import numpy as np
import pytest

from histotet import (
    TARGETS,
    BaryQuadratic,
    StrategyConfig,
    TargetFunction,
    TuningGrid,
    assemble_H,
    build_mesh,
    compute_dofs,
    convergence_study,
    edge_density,
    edge_ortho_quadratic,
    grid_search,
)
from histotet.cli import main as cli_main
from histotet.element import (
    build_functionals,
    det_dfv_closed,
    det_dvol_closed,
    edge_diagonal_entry,
)
from histotet.experiment import build_dof_table
from histotet.quadrature import plain_points, simplex_rule
from conftest import engines_of, grid_engines, make_random_tet
from oracles import apply_functionals, assemble_D, barycentric
from test_densities import _all_family_cases, analytic_residual, quadrature_residual

PARAM_GRID = (0.5, 1.0, 2.0, 5.0)

TUNED_DEFAULTS = [
    StrategyConfig.face_volume(2.0, 2.0),
    StrategyConfig.volumetric_blend(0.5, 2.0),
    StrategyConfig.edge_face(2.0, 2.0),
]

# Each family at its uniform law; vol's blend reaches it at gamma = 1 and at
# theta = 1.
UNIT_VARIANTS = [
    StrategyConfig.face_volume(1.0, 1.0),
    StrategyConfig.volumetric_blend(0.0, 1.0),
    StrategyConfig.volumetric_blend(1.0, 1.0),
    StrategyConfig.edge_face(1.0, 1.0),
]


def test_criterion_1_determinant_reproduction():
    # The enriched block's determinant, by np.linalg.det of the moment
    # engine's block and as check prints it (the ElementOperator of
    # assemble_H: det, closed_form_det, rel_error, rank6), against the
    # paper's closed forms.
    started = time.perf_counter()

    # abs=0: pytest.approx's default absolute tolerance of 1e-12 would pass
    # any determinant this small.
    expected = 1.0 / (2.0 * 3**2 * 12.0**8 * 5**6 * 7**2)  # fv (1, 1)
    det11 = float(np.linalg.det(assemble_D(StrategyConfig.face_volume(1.0, 1.0))))
    assert det11 == pytest.approx(expected, rel=1e-10, abs=0.0)
    op = assemble_H(StrategyConfig.face_volume(1.0, 1.0))
    assert op.det == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert op.closed_form_det == pytest.approx(expected, rel=1e-12, abs=0.0)
    expected = 16.0 / (2.0**18 * 3**9 * 5**7 * 7**6)  # vol at the uniform law
    assert det_dvol_closed(1.0) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def reads(cfg, closed, tol):
        op = assemble_H(cfg)
        assert op.closed_form_det == closed and closed > 0.0, cfg
        assert op.rel_error < tol and op.rank6, cfg

    for alpha in PARAM_GRID:
        for beta in PARAM_GRID:
            cfg = StrategyConfig.face_volume(alpha, beta)
            det = float(np.linalg.det(assemble_D(cfg)))
            closed = det_dfv_closed(alpha, beta)
            assert abs(det - closed) / closed < 1e-9, (alpha, beta)
            reads(cfg, closed, 1e-9)
    for gamma in PARAM_GRID:
        cfg = StrategyConfig.volumetric_blend(0.0, gamma)
        det = float(np.linalg.det(assemble_D(cfg)))
        closed = det_dvol_closed(gamma)
        assert abs(det - closed) / closed < 1e-9, gamma
        reads(cfg, closed, 1e-9)
        # theta = 1 is the uniform law whatever gamma is
        reads(StrategyConfig.volumetric_blend(1.0, gamma), det_dvol_closed(1.0), 1e-9)
    # gamma = 1 is the uniform law whatever theta is
    for theta in (0.25, 0.5, 0.75):
        reads(StrategyConfig.volumetric_blend(theta, 1.0), det_dvol_closed(1.0), 1e-13)
    # The ef block is the edge pivot times the identity: its closed form is
    # the pivot to the sixth, on the grid and at the admissible corners.
    corners = [(0.001, 0.001), (0.001, 500.0), (500.0, 0.001), (0.001, 1000.0), (1000.0, 1000.0)]
    for zeta, nu in list(product(PARAM_GRID, PARAM_GRID)) + corners:
        reads(StrategyConfig.edge_face(zeta, nu), edge_diagonal_entry(zeta, nu) ** 6, 1e-13)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASSED: determinants match closed forms ({elapsed:.3f} s)")


def test_criterion_2_spd_suite():
    started = time.perf_counter()
    for theta in (0.0, 0.25, 0.5, 1.0):
        for gamma in PARAM_GRID:
            cfg = StrategyConfig.volumetric_blend(theta, gamma)
            mat = assemble_D(cfg)
            np.testing.assert_allclose(mat, mat.T, atol=1e-15)
            np.linalg.cholesky(mat)  # raises if not positive definite
            op = assemble_H(cfg)  # check's verdicts on the same block
            assert op.spd and op.rank6, (theta, gamma)
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
        op, table = assemble_H(cfg), build_dof_table(cfg)
        for c in range(10):
            coeffs = np.zeros(10)
            coeffs[c] = 1.0
            mono = BaryQuadratic("volume", coeffs)
            f = TargetFunction("mono", lambda p, mono=mono: mono(barycentric(tet, p)))
            dofs = compute_dofs(f, tet, table)
            recon = op.h_inv @ dofs
            assert np.max(np.abs(recon - coeffs)) < 1e-10, (cfg.method_id, c)

    (classical,) = engines_of([StrategyConfig.of("classical")])
    for _ in range(50):
        lin = rng.normal(size=4)
        averages = (np.ones((4, 4)) - np.eye(4)) / 3.0 @ lin
        lam = rng.dirichlet(np.ones(4), size=25)
        assert np.max(np.abs(classical.reconstruct(averages, lam) - lam @ lin)) < 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        "criterion 4 PASSED: all quadratic monomials reproduced by the three "
        f"strategies; classical reproduces affines ({elapsed:.3f} s)"
    )


def test_criterion_5_kronecker_and_projector(rng):
    started = time.perf_counter()
    for cfg in TUNED_DEFAULTS + UNIT_VARIANTS:
        op = assemble_H(cfg)
        assert np.max(np.abs(op.h @ op.h_inv - np.eye(10))) < 1e-10, cfg.method_id
        assert np.max(np.abs(op.h_inv @ op.h - np.eye(10))) < 1e-10, cfg.method_id
        for ell in range(10):
            values = apply_functionals(build_functionals(cfg), BaryQuadratic("volume", op.h_inv[:, ell]))
            assert np.max(np.abs(values - np.eye(10)[ell])) < 1e-10, (cfg.method_id, ell)

    tets = [make_random_tet(rng) for _ in range(20)]
    for cfg in TUNED_DEFAULTS:
        op, table = assemble_H(cfg), build_dof_table(cfg)
        for fid in ("f3", "f4", "f5"):
            f = TARGETS[fid]
            for tet in tets:
                dofs = compute_dofs(f, tet, table)
                poly = BaryQuadratic("volume", op.h_inv @ dofs)
                back = compute_dofs(
                    TargetFunction("pi", lambda p, poly=poly: poly(barycentric(tet, p))),
                    tet,
                    table,
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
    assert brute == pytest.approx(-1.0 / 180.0, rel=1e-12, abs=0.0)
    assert edge_diagonal_entry(1.0, 1.0) == pytest.approx(-1.0 / 180.0, rel=1e-12, abs=0.0)

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


@pytest.fixture(scope="module")
def converge_runs(tmp_path_factory):
    """errors.csv of two consecutive `histotet converge --functions f1,f3,f5
    --n 5,10,15` runs with the default methods, and each run's seconds:
    criterion 7 reads the first, criterion 9 compares the two."""
    root = tmp_path_factory.mktemp("converge")
    outputs, seconds = [], []
    for run_dir in (root / "first", root / "second"):
        started = time.perf_counter()
        argv = ["converge", "--functions", "f1,f3,f5", "--n", "5,10,15", "--out", str(run_dir)]
        assert cli_main(argv) == 0
        outputs.append((run_dir / "errors.csv").read_bytes())
        seconds.append(time.perf_counter() - started)
    return outputs, seconds


def _cubic_part(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return x**3 - 2.0 * x * y * z + 0.5 * y**2 * z + 3.0 * z**3


def _quadratic_part(p):
    return p[..., 0] ** 2 - 2.0 * p[..., 1] * p[..., 2]


#: The cubic gate's targets: a cubic, its lower-degree part (a quadratic
#: that the quadratic strategies reproduce) and an affine that classical
#: reproduces.
GATE_TARGETS = (
    TargetFunction("cubic", lambda p: _cubic_part(p) + _quadratic_part(p) + p[..., 0] + 0.5),
    TargetFunction("quadratic", lambda p: _quadratic_part(p) + p[..., 0] + 0.5),
    TargetFunction("affine", lambda p: 1.0 - p[..., 0] + 3.0 * p[..., 1]),
)


def _asymptotic_constant(engine, part):
    """K = (1/6) sum_s E_y |(I - P) part(y V_s)|, V_s the vertices of the
    six cells of build_mesh(2) (one per Kuhn cell shape) and E_y the pass's
    error rule, through the engine's reconstruction on one cell per shape:
    no mesh pass runs."""
    rule = simplex_rule(3, (0.0,) * 4, plain_points(3, engine.settings.error_degree))
    table, cube = engine.table, build_mesh(2)
    total = 0.0
    for shape in cube.vertices[cube.cells]:
        dofs = table.weights @ part(table.nodes @ shape)
        total += np.abs(part(rule.nodes @ shape) - engine.reconstruct(dofs, rule.nodes)) @ rule.weights
    return total / 6.0


def test_criterion_7_convergence_reproduction(converge_runs):
    started = time.perf_counter()
    (first, _), (study_seconds, _) = converge_runs
    functions, ns = ("f1", "f3", "f5"), (5, 10, 15)
    rows = list(csv.DictReader(first.decode().splitlines()))
    methods = [StrategyConfig.of("classical")] + TUNED_DEFAULTS
    assert {(r["method"], r["params"]) for r in rows} == {(c.method_id, c.params_text()) for c in methods}

    table = {(r["function"], r["method"], int(r["n"])): float(r["l1_error"]) for r in rows}
    for fid in functions:
        for n in (10, 15):
            classical = table[(fid, "classical", n)]
            for cfg in TUNED_DEFAULTS:
                quad = table[(fid, cfg.method_id, n)]
                assert quad < classical, (fid, cfg.method_id, n, quad, classical)
        for method in ("classical", "fv", "vol", "ef"):
            series = [table[(fid, method, n)] for n in ns]
            assert _check_monotone(series), (fid, method, series)
            # Observed order from n = 10 to 15, with h = 1 / (n - 1): 2 for
            # the affine classical scheme, 3 for the quadratic strategies.
            order = np.log(series[1] / series[2]) / np.log(14 / 9)
            if method == "classical":
                assert 1.8 <= order <= 2.4, (fid, method, order)
            else:
                assert order >= 2.8, (fid, method, order)

    # The cubic gate.  A quadratic strategy reproduces the lower-degree part,
    # so on a Kuhn cell of size h = 1 / (n - 1) the cubic's defect is h^3
    # (I - P) applied to its cubic part, one polynomial per cell shape, and
    # L1(n) (n - 1)^3 is K at every n.  Classical does the same on the
    # quadratic with h^2.  Each scheme's lower-degree input is reproduced.
    engines = engines_of(methods)
    rows, _ = convergence_study(GATE_TARGETS, (3, 5, 9), engines)
    l1 = {(r.function, r.method, r.n): r.l1_error for r in rows}
    constants = {}
    for engine in engines:
        method = engine.cfg.method_id
        if method == "classical":
            target, lower, degree, part, rel, floor = "quadratic", "affine", 2, _quadratic_part, 1e-13, 1e-11
        else:
            target, lower, degree, part, rel, floor = "cubic", "quadratic", 3, _cubic_part, 1e-11, 1e-9
        constants[method] = k = _asymptotic_constant(engine, part)
        for n in (3, 5, 9):
            scaled = l1[target, method, n] * (n - 1) ** degree
            assert scaled == pytest.approx(k, rel=rel, abs=0.0), (method, n, scaled, k)
            assert l1[lower, method, n] < floor, (method, n, l1[lower, method, n])

    elapsed = study_seconds + time.perf_counter() - started
    assert elapsed < 300.0
    print(
        "criterion 7 PASSED: every quadratic strategy beats classical at "
        f"n in (10, 15) for f1, f3, f5, errors decay monotonically, observed "
        f"orders 2 (classical) and 3 (quadratic); at n = 3, 5, 9 a cubic's L1 (n - 1)^3 "
        f"(a quadratic's L1 (n - 1)^2 for classical) is its one-cell constant "
        f"({', '.join(f'{m} {k:.7g}' for m, k in constants.items())}) ({elapsed:.1f} s)"
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

    findings = []
    for kind, (first, second) in grids.items():
        grid = TuningGrid(kind=kind, first=first, second=second, functions=functions, ns=ns)
        result = grid_search(grid, grid_engines(grid))
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


def test_criterion_9_converge_determinism(converge_runs):
    outputs, seconds = converge_runs
    assert outputs[0] == outputs[1], "consecutive converge runs differ"
    n_rows = outputs[0].decode().strip().count("\n")
    assert n_rows == 3 * 3 * 4  # functions x meshes x methods

    elapsed = sum(seconds)
    assert elapsed < 600.0
    print(
        "criterion 9 PASSED: two consecutive converge runs produced "
        f"byte-identical CSV ({elapsed:.1f} s)"
    )
