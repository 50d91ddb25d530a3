import dataclasses
import itertools
import re

import numpy as np
import pytest

from histotet import (
    BaryQuadratic,
    StrategyConfig,
    edge_density,
    edge_ortho_quadratic,
    face_density,
    face_ortho_quadratic,
    gram_schmidt_enrich,
    simplex_rule_weighted,
    volume_density,
    volumetric_psi,
)
from histotet.densities import (
    EDGE_BASIS_EXPONENTS,
    Density,
    FACE_BASIS_EXPONENTS,
    VOLUME_BASIS_EXPONENTS,
    dirichlet_face_constant,
    face_sum_of_squares_minus,
    lambda_basis,
    pair_quadratic,
)
from histotet.element import _functional_matrix, build_functionals
from histotet.quadrature import plain_points, simplex_rule
from histotet.simplex import EDGE_PAIRS
from oracles import (
    evaluate_by_exponents,
    expect_per_term,
    functional_matrix_per_row,
    monomial_by_exponents,
    symmetric_quadratic_density,
)

PARAM_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _affine_exponents(space):
    return {
        "face": FACE_BASIS_EXPONENTS[:3],
        "volume": VOLUME_BASIS_EXPONENTS[:4],
        "edge": EDGE_BASIS_EXPONENTS[:2],
    }[space]


def analytic_residual(poly, density):
    """Largest |<poly, phi>| over phi in {1, coordinates} via exact moments."""
    worst = 0.0
    for phi in ((0,) * (density.dim + 1),) + tuple(_affine_exponents(poly.space)):
        val = sum(
            c * density.moment(np.add(exps, phi)) for c, exps in poly.terms()
        )
        worst = max(worst, abs(val))
    return worst


def quadrature_residual(poly, density, m=6):
    """Same residual through the weighted quadrature rule (independent path)."""
    rule = density.rule(m)
    native = rule.nodes[:, 0] if poly.space == "edge" else rule.nodes
    pvals = poly(native)
    worst = abs(float(np.dot(pvals, rule.weights)))
    for k in range(density.dim + 1):
        coord = rule.nodes[:, k]
        worst = max(worst, abs(float(np.dot(pvals * coord, rule.weights))))
    return worst


# --- closed-form constants -------------------------------------------------


def test_face_constant_uniform():
    q = face_ortho_quadratic(face_density(1.0))
    np.testing.assert_allclose(q.coeffs, [0.5] * 3 + [-2.0] * 3, atol=1e-15)


def test_face_constant_alpha2():
    q = face_ortho_quadratic(face_density(2.0))
    np.testing.assert_allclose(q.coeffs[:3], 1.0 - 3.0 / 7.0, rtol=1e-15)


def test_face_constant_symmetric_quadratic():
    q = face_ortho_quadratic(symmetric_quadratic_density("face"))
    np.testing.assert_allclose(q.coeffs[:3], 1.0 - 8.0 / 15.0, rtol=1e-15)


def test_volume_pair_uniform():
    rho1, rho2 = volumetric_psi(volume_density(1.0))[:2]
    np.testing.assert_allclose(rho1.coeffs, pair_quadratic(0, 1, 1 / 30, 1 / 6).coeffs, atol=1e-15)
    np.testing.assert_allclose(rho2.coeffs, pair_quadratic(0, 2, 1 / 30, 1 / 6).coeffs, atol=1e-15)


def test_volume_pair_symmetric_quadratic():
    rho1 = volumetric_psi(symmetric_quadratic_density("volume"))[0]
    np.testing.assert_allclose(
        rho1.coeffs, pair_quadratic(0, 1, 23 / 840, 3 / 20).coeffs, atol=1e-15
    )


def test_volume_pair_beta2():
    rho1 = volumetric_psi(volume_density(2.0))[0]
    np.testing.assert_allclose(
        rho1.coeffs, pair_quadratic(0, 1, 2 / 45, 1 / 5).coeffs, rtol=1e-14
    )


def test_psi_gamma1_matches_uniform_pair():
    psis = volumetric_psi(volume_density(1.0))
    np.testing.assert_allclose(
        psis[0].coeffs, pair_quadratic(0, 1, 1 / 30, 1 / 6).coeffs, atol=1e-15
    )


def test_psi_gamma2_pair34():
    psis = volumetric_psi(volume_density(2.0))
    np.testing.assert_allclose(
        psis[5].coeffs, pair_quadratic(2, 3, 2 / 45, 1 / 5).coeffs, rtol=1e-14
    )


def test_psi_blend_orthogonality():
    dens = volume_density(2.0, theta=0.5)
    for psi in volumetric_psi(dens):
        assert analytic_residual(psi, dens) < 1e-12


def test_psi_shares_one_gram_matrix_across_its_seeds(monkeypatch):
    # volumetric_psi solves the six seeds against one Gram matrix, with their
    # right-hand sides from one stacked moment call; the coefficients must be
    # those of one gram_schmidt_enrich call per seed, bit for bit.
    calls = []
    moment = Density.moment
    monkeypatch.setattr(Density, "moment", lambda self, p: calls.append(p) or moment(self, p))
    for theta in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        for gamma in np.geomspace(1e-3, 200.0, 25):
            dens = volume_density(gamma, theta)
            calls.clear()
            psis = volumetric_psi(dens)
            assert len(calls) == 2
            for psi, (i, j) in zip(psis, EDGE_PAIRS):
                (enriched,) = gram_schmidt_enrich([pair_quadratic(i, j, 0.0, 0.0)], dens)
                assert np.array_equal(psi.coeffs, enriched.coeffs), (theta, gamma, i, j)


# --- edge polynomials -------------------------------------------------------


def test_edge_uniform_is_shifted_legendre():
    q = edge_ortho_quadratic(edge_density(1.0, 1.0))
    np.testing.assert_allclose(q.coeffs, [1 / 6, -1.0, 1.0], rtol=1e-13)


def edge_closed_form(zeta, nu):
    # monic version of the quadratic orthogonal under Beta(zeta, nu)
    lead = (zeta + nu + 1.0) * (zeta + nu + 2.0)
    return np.array(
        [
            zeta * (zeta + 1.0) / lead,
            -2.0 * (zeta + 1.0) * (zeta + nu + 1.0) / lead,
            1.0,
        ]
    )


def test_edge_matches_closed_form(rng):
    for _ in range(20):
        zeta, nu = rng.uniform(0.2, 5.0, size=2)
        q = edge_ortho_quadratic(edge_density(zeta, nu))
        np.testing.assert_allclose(q.coeffs, edge_closed_form(zeta, nu), rtol=1e-11)


def test_edge_beta22_residuals():
    dens = edge_density(2.0, 2.0)
    q = edge_ortho_quadratic(dens)
    assert analytic_residual(q, dens) < 1e-13


# --- gram-schmidt ------------------------------------------------------------


def test_gram_schmidt_reproduces_uniform_pair():
    seed = pair_quadratic(0, 1, 0.0, 0.0)
    (result,) = gram_schmidt_enrich([seed], volume_density(1.0))
    np.testing.assert_allclose(
        result.coeffs, pair_quadratic(0, 1, 1 / 30, 1 / 6).coeffs, atol=1e-15
    )


def test_gram_schmidt_reproduces_face_closed_form():
    for alpha in PARAM_GRID:
        dens = face_density(alpha)
        seed = BaryQuadratic("face", [1.0, 1.0, 1.0, -2.0, -2.0, -2.0])
        # seed written via sum mu = 1: sum mu^2 = sum mu - 2 sum mu mu
        (result,) = gram_schmidt_enrich([seed], dens)
        closed = face_sum_of_squares_minus(dirichlet_face_constant(alpha))
        np.testing.assert_allclose(result.coeffs, closed.coeffs, atol=1e-14)


def test_gram_schmidt_edge_seed():
    (result,) = gram_schmidt_enrich(
        [BaryQuadratic("edge", [0.0, 0.0, 1.0])], edge_density(1.0, 1.0)
    )
    np.testing.assert_allclose(result.coeffs, [1 / 6, -1.0, 1.0], rtol=1e-13)


def test_gram_schmidt_rejects_affine_seed():
    for seed, density in [
        (BaryQuadratic("volume", [1.0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0]), volume_density(1.0)),
        (BaryQuadratic("face", [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]), face_density(1.0)),
        (BaryQuadratic("edge", [1.0, 0.5, 0.0]), edge_density(1.0, 1.0)),
    ]:
        with pytest.raises(ValueError, match="affine"):
            gram_schmidt_enrich([seed], density)


def _seed_batches():
    """(density, seeds) pairs: face, volume-blend and edge densities, each
    with a batch of multi-term seeds of its space."""
    face_seeds = [face_sum_of_squares_minus(c) for c in (0.0, 1 / 3, 0.4, 2.0)]
    hk = ((0.1, 0.2), (1 / 30, 1 / 6), (-0.5, 0.3), (2.0, -1.0), (1e-3, 0.7), (0.25, 0.25))
    volume_seeds = [pair_quadratic(i, j, h, k) for (i, j), (h, k) in zip(EDGE_PAIRS, hk)]
    edge_seeds = [BaryQuadratic("edge", [a, b, 1.0]) for a, b in ((0.5, -1.0), (1 / 6, -1.0), (2.0, 3.0))]
    for a in PARAM_GRID:
        yield face_density(a), face_seeds
        for theta in THETA_GRID:
            yield volume_density(a, theta), volume_seeds
        for b in PARAM_GRID:
            yield edge_density(a, b), edge_seeds


def test_gram_schmidt_batch_equals_one_call_per_seed(monkeypatch):
    calls = []
    moment = Density.moment
    monkeypatch.setattr(Density, "moment", lambda self, p: calls.append(p) or moment(self, p))
    constructors = {"face": face_ortho_quadratic, "volume": volumetric_psi, "edge": edge_ortho_quadratic}
    for density, seeds in _seed_batches():
        calls.clear()
        constructors[density.space](density)
        assert len(calls) == 2, density
        calls.clear()
        batch = gram_schmidt_enrich(seeds, density)
        assert len(calls) == 2
        assert len(batch) == len(seeds)
        for seed, got in zip(seeds, batch):
            (alone,) = gram_schmidt_enrich([seed], density)
            assert np.array_equal(got.coeffs, alone.coeffs), (density, seed)
            assert analytic_residual(got, density) < 1e-12, (density, seed)
        # A bad seed after good ones raises before any moment is computed.
        edge_seed = BaryQuadratic("edge", [0.0, 0.0, 1.0])
        other = face_sum_of_squares_minus(0.0) if density.space == "edge" else edge_seed
        affine = BaryQuadratic(density.space, np.eye(len(seeds[0].coeffs))[0])
        for bad, match in ((affine, "affine"), (other, "different domains")):
            calls.clear()
            with pytest.raises(ValueError, match=match):
                gram_schmidt_enrich(seeds + [bad], density)
            assert calls == []


# --- orthogonality sweep (analytic and quadrature paths) --------------------


def _all_family_cases():
    cases = []
    for alpha in PARAM_GRID:
        dens = face_density(alpha)
        cases.append((face_ortho_quadratic(dens), dens))
    dens = symmetric_quadratic_density("face")
    cases.append((face_ortho_quadratic(dens), dens))
    for gamma in PARAM_GRID:
        dens = volume_density(gamma)
        cases.extend((psi, dens) for psi in volumetric_psi(dens))
    # The closed-form weights of the fv strategy, as it builds them: one face
    # quadratic (the same on all four faces) and two interior quadratics.
    for alpha in PARAM_GRID:
        for beta in PARAM_GRID:
            funcs = build_functionals(StrategyConfig.face_volume(alpha, beta))
            cases.extend((f.weight_poly, f.density) for f in funcs[7:])
    dens = symmetric_quadratic_density("volume")
    cases.extend((psi, dens) for psi in volumetric_psi(dens))
    for theta in THETA_GRID:
        for gamma in (0.5, 2.0, 5.0):
            dens = volume_density(gamma, theta=theta)
            cases.extend((psi, dens) for psi in volumetric_psi(dens))
    for zeta in PARAM_GRID:
        for nu in PARAM_GRID:
            dens = edge_density(zeta, nu)
            cases.append((edge_ortho_quadratic(dens), dens))
    return cases


def test_orthogonality_two_paths_agree():
    for poly, dens in _all_family_cases():
        assert analytic_residual(poly, dens) < 1e-12
        assert quadrature_residual(poly, dens) < 1e-10


def test_single_component_rule_is_the_weighted_rule():
    # The mixture union scales each component's weights by its coefficient;
    # for one component that is 1.0 * w, so the rule is the Dirichlet rule
    # bit for bit.
    for dens in [
        face_density(2.0),
        volume_density(2.0),
        edge_density(2.0, 3.0),
        volume_density(2.0, theta=0.0),
        volume_density(2.0, theta=1.0),
    ]:
        ((_, exps),) = dens.components
        rule, ref = dens.rule(8), simplex_rule_weighted(dens.dim, exps, 8)
        assert np.array_equal(rule.nodes, ref.nodes), dens
        assert np.array_equal(rule.weights, ref.weights), dens


# --- density moments ----------------------------------------------------------


def test_face_mean_is_third_for_every_alpha():
    for alpha in PARAM_GRID:
        dens = face_density(alpha)
        assert dens.moment((1, 0, 0)) == pytest.approx(1 / 3, rel=1e-14, abs=0.0)


def test_face_pair_moment_alpha2():
    dens = face_density(2.0)
    assert dens.moment((1, 1, 0)) == pytest.approx(2 / 21, rel=1e-14, abs=0.0)


def test_every_density_has_unit_mass():
    densities = [face_density(a) for a in PARAM_GRID]
    densities.append(symmetric_quadratic_density("face"))
    densities.append(symmetric_quadratic_density("volume"))
    densities += [
        volume_density(g, theta=t)
        for t in THETA_GRID
        for g in (0.5, 2.0)
    ]
    densities += [edge_density(z, n) for z in (0.5, 2.0) for n in (1.0, 3.0)]
    for dens in densities:
        zero = (0,) * (dens.dim + 1)
        assert dens.moment(zero) == pytest.approx(1.0, abs=1e-14)


def test_param_floor_enforced():
    with pytest.raises(ValueError):
        face_density(1e-6)
    with pytest.raises(ValueError):
        edge_density(0.0, 1.0)
    with pytest.raises(ValueError):
        volume_density(2.0, theta=1.5)


def _stacked_expect_cases():
    """(density, poly) pairs over PARAM_GRID: face, volume at theta 0, 0.3
    and 1, and edge densities, each with its enrichment quadratics."""
    for a in PARAM_GRID:
        face = face_density(a)
        yield face, face_ortho_quadratic(face)
        yield face, face_sum_of_squares_minus(dirichlet_face_constant(a))
        for theta in (0.0, 0.3, 1.0):
            volume = volume_density(a, theta)
            for psi in volumetric_psi(volume):
                yield volume, psi
        for b in PARAM_GRID:
            edge = edge_density(a, b)
            yield edge, edge_ortho_quadratic(edge)


def test_stacked_expect_equals_one_moment_call_per_term():
    rng = np.random.default_rng(3)
    for density, poly in _stacked_expect_cases():
        k = density.dim + 1
        stacks = [rng.integers(0, 3, size=shape + (k,)) for shape in ((), (7,), (3, 5))]
        zero = BaryQuadratic(poly.space, np.zeros_like(poly.coeffs))
        for p in stacks:
            for weight in (None, poly):
                got = density.expect(weight, p)
                assert np.shape(got) == p.shape[:-1]
                assert np.array_equal(got, expect_per_term(density, weight, p)), (density, p.shape)
            # A polynomial with no nonzero term has zero moments.
            assert np.array_equal(density.expect(zero, p), np.zeros(p.shape[:-1]))


def test_grouped_functional_matrix_equals_one_row_at_a_time():
    configs = [StrategyConfig.of(m, a, b) for m in ("fv", "ef") for a in PARAM_GRID for b in PARAM_GRID]
    configs += [StrategyConfig.of("vol", t, g) for t in (0.0, 0.3, 1.0) for g in PARAM_GRID]
    configs.append(StrategyConfig.of("classical"))
    for cfg in configs:
        funcs = build_functionals(cfg)
        assert np.array_equal(_functional_matrix(funcs), functional_matrix_per_row(funcs)), cfg
        if cfg.method_id != "classical":
            enriched = VOLUME_BASIS_EXPONENTS[4:]
            assert np.array_equal(
                _functional_matrix(funcs[4:], enriched), functional_matrix_per_row(funcs[4:], enriched)
            ), cfg
    # Zero weight polynomials give zero rows, as in a singular strategy.
    zeroed = tuple(
        dataclasses.replace(f, weight_poly=BaryQuadratic(f.weight_poly.space, np.zeros(10)))
        for f in build_functionals(StrategyConfig.volumetric_blend(0.3, 2.0))[4:]
    )
    assert np.array_equal(_functional_matrix(zeroed), np.zeros((6, 10)))
    assert np.array_equal(_functional_matrix(zeroed), functional_matrix_per_row(zeroed))


def test_cached_setup_is_read_only():
    rule = simplex_rule(3, (0.0,) * 4, 8)
    assert simplex_rule(3, (0.0,) * 4, 8) is rule
    with pytest.raises(ValueError, match="read-only"):
        rule.weights[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rule.nodes[0, 0] = 1.0
    error_rule = simplex_rule(3, (0.0,) * 4, plain_points(3, 8))
    assert simplex_rule(3, (0.0,) * 4, plain_points(3, 8)) is error_rule
    with pytest.raises(ValueError, match="read-only"):
        error_rule.weights[0] = 1.0
    funcs = build_functionals(StrategyConfig.edge_face(2.0, 3.0))
    assert build_functionals(StrategyConfig.edge_face(2.0, 3.0)) is funcs
    with pytest.raises(ValueError, match="read-only"):
        funcs[4].weight_poly.coeffs[0] = 1.0


def test_bad_parameters_raise_on_every_call():
    from histotet.experiment import build_dof_table

    for _ in range(2):
        with pytest.raises(ValueError, match="alpha must be >= 0.001"):
            face_density(0)
        # The functionals exist, but the volume rule overflows: a failed
        # build is not cached, so the next table fails the same way.
        with pytest.raises(ValueError, match="is not finite with mass 1"):
            volume_density(300.0).rule(8)
        with pytest.raises(ValueError, match="is not finite with mass 1"):
            build_dof_table(StrategyConfig.volumetric_blend(0.0, 300.0))


# --- the quadratic basis: one pair rule, one monomial evaluator --------------


def test_one_pair_rule_orders_edge_pairs_and_both_bases():
    assert EDGE_PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for basis, n in ((VOLUME_BASIS_EXPONENTS, 4), (FACE_BASIS_EXPONENTS, 3)):
        assert all(type(e) is int for exps in basis for e in exps)
        # The coordinates, then one row per pair, marking exactly that pair.
        assert basis[:n] == tuple(tuple(int(k == i) for k in range(n)) for i in range(n))
        marked = [tuple(k for k in range(n) if exps[k] == 1) for exps in basis[n:]]
        assert marked == list(itertools.combinations(range(n), 2))
        assert all(sum(exps) == 2 for exps in basis[n:])
    for k, (i, j) in enumerate(EDGE_PAIRS):
        assert VOLUME_BASIS_EXPONENTS[4 + k] == tuple(int(r in (i, j)) for r in range(4))
        coeffs = pair_quadratic(i, j, 0.0, 0.0).coeffs
        assert np.flatnonzero(coeffs).tolist() == [4 + k]
        assert coeffs[4 + k] == 1.0


def _evaluation_points(rng, n):
    """Points with n coordinates in three shapes, with negative entries,
    exact zeros of both signs and infinities (a skipped zero term times an
    infinity would be NaN)."""
    x = rng.standard_normal((40, n))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    x[rng.random(x.shape) < 0.05] = np.inf
    return [x, x[0], x[:12].reshape(3, 4, n)]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_evaluator_equals_the_exponent_loop(rng):
    # Compared as bytes, so a signed zero counts.
    for space, n in (("face", 3), ("volume", 4), ("edge", 2)):
        size = {"face": 6, "volume": 10, "edge": 3}[space]
        coeff_sets = [np.zeros(size)]
        for _ in range(30):
            coeffs = rng.standard_normal(size)
            coeffs[rng.random(size) < 0.3] = 0.0
            coeffs[rng.random(size) < 0.1] = -0.0
            coeff_sets.append(coeffs)
        points = _evaluation_points(rng, n)
        if space == "edge":
            points = [x[..., 0] for x in points]
        for coeffs in coeff_sets:
            poly = BaryQuadratic(space, coeffs)
            for x in points:
                with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN
                    got, want = poly(x), evaluate_by_exponents(poly, x)
                assert _same_bits(got, want), (space, coeffs)
    import histotet
    from histotet import element

    assert histotet.lambda_basis is element.lambda_basis is lambda_basis
    for x in _evaluation_points(rng, 4) + [rng.dirichlet(np.ones(4), 100)]:
        with np.errstate(invalid="ignore"):
            got = lambda_basis(x)
            want = np.stack([monomial_by_exponents(x, e) for e in VOLUME_BASIS_EXPONENTS], axis=-1)
        assert _same_bits(got, want)


@pytest.mark.parametrize("space, shape", [
    ("face", (4,)),
    ("volume", (5,)),
    ("volume", (3,)),
    ("volume", ()),
])
def test_quadratic_refuses_points_of_another_coordinate_count(space, shape):
    poly = BaryQuadratic(space, np.ones(6 if space == "face" else 10))
    expected = 3 if space == "face" else 4
    message = f"a {space} quadratic takes points of {expected} coordinates, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        poly(np.full(shape, 0.25))
    # An edge quadratic takes bare parameters t, of any shape.
    assert BaryQuadratic("edge", [1.0, 2.0, 3.0])(np.full(shape, 0.5)).shape == shape


def test_gram_schmidt_sums_each_seed_as_density_expect():
    # gram_schmidt_enrich takes every seed's right-hand side from one moment
    # call over all seeds; each must be the seed's own Density.expect.
    params = (0.001, 0.5, 1.0, 2.0, 5.0, 200.0)
    face_seeds = [face_sum_of_squares_minus(c) for c in (0.0, 0.4, 2.0)]
    hk = ((0.1, 0.2), (1 / 30, 1 / 6), (-0.5, 0.3), (2.0, -1.0), (1e-3, 0.7), (0.25, 0.25))
    volume_seeds = [pair_quadratic(i, j, h, k) for (i, j), (h, k) in zip(EDGE_PAIRS, hk)]
    edge_seeds = [
        BaryQuadratic("edge", [a, b, 1.0])
        for a, b in ((0.5, -1.0), (1 / 6, -1.0), (2.0, 3.0), (-0.3, 0.7), (1e-3, 1e3), (0.0, 0.25))
    ]
    batches = []
    for a in params:
        batches.append((face_density(a), face_seeds))
        batches += [(volume_density(a, theta), volume_seeds) for theta in (0.0, 0.25, 0.5, 1.0)]
        batches += [(edge_density(a, b), edge_seeds) for b in params]
    cases = 0
    for density, seeds in batches:
        n = density.dim + 1
        affine = np.array(_affine_exponents(density.space))
        gram = density.moment(affine[:, None] + affine[None, :])
        for seed, got in zip(seeds, gram_schmidt_enrich(seeds, density), strict=True):
            want = seed.coeffs[:n] - np.linalg.solve(gram, density.expect(seed, affine))
            assert got.coeffs[:n].tobytes() == want.tobytes(), (density, seed)
            assert got.coeffs[n:].tobytes() == seed.coeffs[n:].tobytes()
            cases += 1
    assert cases == 378
