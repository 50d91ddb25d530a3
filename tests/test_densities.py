import numpy as np
import pytest

from histotet import (
    BaryQuadratic,
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
    FACE_BASIS_EXPONENTS,
    VOLUME_BASIS_EXPONENTS,
    _pair_quadratic,
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
    q = face_ortho_quadratic(face_density("dirichlet", 1.0))
    np.testing.assert_allclose(q.coeffs, [0.5] * 3 + [-2.0] * 3, atol=1e-15)


def test_face_constant_alpha2():
    q = face_ortho_quadratic(face_density("dirichlet", 2.0))
    np.testing.assert_allclose(q.coeffs[:3], 1.0 - 3.0 / 7.0, rtol=1e-15)


def test_face_constant_symmetric_quadratic():
    q = face_ortho_quadratic(face_density("symmetric-quadratic"))
    np.testing.assert_allclose(q.coeffs[:3], 1.0 - 8.0 / 15.0, rtol=1e-15)


def test_volume_pair_uniform():
    rho1, rho2 = volumetric_psi(volume_density("uniform"))[:2]
    np.testing.assert_allclose(rho1.coeffs, _pair_quadratic(0, 1, 1 / 30, 1 / 6).coeffs, atol=1e-15)
    np.testing.assert_allclose(rho2.coeffs, _pair_quadratic(0, 2, 1 / 30, 1 / 6).coeffs, atol=1e-15)


def test_volume_pair_symmetric_quadratic():
    rho1 = volumetric_psi(volume_density("symmetric-quadratic"))[0]
    np.testing.assert_allclose(
        rho1.coeffs, _pair_quadratic(0, 1, 23 / 840, 3 / 20).coeffs, atol=1e-15
    )


def test_volume_pair_beta2():
    rho1 = volumetric_psi(volume_density("dirichlet", gamma=2.0))[0]
    np.testing.assert_allclose(
        rho1.coeffs, _pair_quadratic(0, 1, 2 / 45, 1 / 5).coeffs, rtol=1e-14
    )


def test_psi_gamma1_matches_uniform_pair():
    psis = volumetric_psi(volume_density("dirichlet", gamma=1.0))
    np.testing.assert_allclose(
        psis[0].coeffs, _pair_quadratic(0, 1, 1 / 30, 1 / 6).coeffs, atol=1e-15
    )


def test_psi_gamma2_pair34():
    psis = volumetric_psi(volume_density("dirichlet", gamma=2.0))
    np.testing.assert_allclose(
        psis[5].coeffs, _pair_quadratic(2, 3, 2 / 45, 1 / 5).coeffs, rtol=1e-14
    )


def test_psi_blend_orthogonality():
    dens = volume_density("blend", gamma=2.0, theta=0.5)
    for psi in volumetric_psi(dens):
        assert analytic_residual(psi, dens) < 1e-12


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
    seed = _pair_quadratic(0, 1, 0.0, 0.0)
    result = gram_schmidt_enrich(seed, volume_density("uniform"))
    np.testing.assert_allclose(
        result.coeffs, _pair_quadratic(0, 1, 1 / 30, 1 / 6).coeffs, atol=1e-15
    )


def test_gram_schmidt_reproduces_face_closed_form():
    for alpha in PARAM_GRID:
        dens = face_density("dirichlet", alpha)
        seed = BaryQuadratic("face", [1.0, 1.0, 1.0, -2.0, -2.0, -2.0])
        # seed written via sum mu = 1: sum mu^2 = sum mu - 2 sum mu mu
        result = gram_schmidt_enrich(seed, dens)
        np.testing.assert_allclose(
            result.coeffs, face_ortho_quadratic(dens).coeffs, atol=1e-14
        )


def test_gram_schmidt_edge_seed():
    result = gram_schmidt_enrich(
        BaryQuadratic("edge", [0.0, 0.0, 1.0]), edge_density(1.0, 1.0)
    )
    np.testing.assert_allclose(result.coeffs, [1 / 6, -1.0, 1.0], rtol=1e-13)


def test_gram_schmidt_rejects_affine_seed():
    for seed, density in [
        (BaryQuadratic("volume", [1.0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0]), volume_density("uniform")),
        (BaryQuadratic("face", [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]), face_density("uniform")),
        (BaryQuadratic("edge", [1.0, 0.5, 0.0]), edge_density(1.0, 1.0)),
    ]:
        with pytest.raises(ValueError, match="affine"):
            gram_schmidt_enrich(seed, density)


# --- orthogonality sweep (analytic and quadrature paths) --------------------


def _all_family_cases():
    cases = []
    for alpha in PARAM_GRID:
        dens = face_density("dirichlet", alpha)
        cases.append((face_ortho_quadratic(dens), dens))
    dens = face_density("symmetric-quadratic")
    cases.append((face_ortho_quadratic(dens), dens))
    for gamma in PARAM_GRID:
        dens = volume_density("dirichlet", gamma=gamma)
        cases.extend((rho, dens) for rho in volumetric_psi(dens)[:2])
        cases.extend((psi, dens) for psi in volumetric_psi(dens))
    dens = volume_density("symmetric-quadratic")
    cases.extend((psi, dens) for psi in volumetric_psi(dens))
    for theta in THETA_GRID:
        for gamma in (0.5, 2.0, 5.0):
            dens = volume_density("blend", gamma=gamma, theta=theta)
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
        face_density("dirichlet", 2.0),
        volume_density("dirichlet", gamma=2.0),
        edge_density(2.0, 3.0),
        volume_density("blend", gamma=2.0, theta=0.0),
        volume_density("blend", gamma=2.0, theta=1.0),
    ]:
        ((_, exps),) = dens.components
        rule, ref = dens.rule(8), simplex_rule_weighted(dens.dim, exps, 8)
        assert np.array_equal(rule.nodes, ref.nodes), dens
        assert np.array_equal(rule.weights, ref.weights), dens


# --- density moments ----------------------------------------------------------


def test_face_mean_is_third_for_every_alpha():
    for alpha in PARAM_GRID:
        dens = face_density("dirichlet", alpha)
        assert dens.moment((1, 0, 0)) == pytest.approx(1 / 3, rel=1e-14)


def test_face_pair_moment_alpha2():
    dens = face_density("dirichlet", 2.0)
    assert dens.moment((1, 1, 0)) == pytest.approx(2 / 21, rel=1e-14)


def test_every_density_has_unit_mass():
    densities = [face_density("dirichlet", a) for a in PARAM_GRID]
    densities.append(face_density("symmetric-quadratic"))
    densities.append(volume_density("symmetric-quadratic"))
    densities += [
        volume_density("blend", gamma=g, theta=t)
        for t in THETA_GRID
        for g in (0.5, 2.0)
    ]
    densities += [edge_density(z, n) for z in (0.5, 2.0) for n in (1.0, 3.0)]
    for dens in densities:
        zero = (0,) * (dens.dim + 1)
        assert dens.moment(zero) == pytest.approx(1.0, abs=1e-14)


def test_param_floor_enforced():
    with pytest.raises(ValueError):
        face_density("dirichlet", 1e-6)
    with pytest.raises(ValueError):
        edge_density(0.0, 1.0)
    with pytest.raises(ValueError):
        volume_density("blend", gamma=2.0, theta=1.5)
