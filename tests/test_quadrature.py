import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from histotet import (
    gauss_jacobi,
    simplex_rule_plain,
    simplex_rule_weighted,
)
from histotet.simplex import dirichlet_expectation
from oracles import simplex_moment


def beta_fn(x, y):
    return math.exp(gammaln(x) + gammaln(y) - gammaln(x + y))


def test_one_point_legendre_is_midpoint():
    nodes, weights = gauss_jacobi(1, 0.0, 0.0)
    np.testing.assert_allclose(nodes, [0.5], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0], atol=1e-15)


def test_one_point_weighted_node_is_moment_ratio():
    # weight t: node = (1/3)/(1/2), weight = integral of t
    nodes, weights = gauss_jacobi(1, 1.0, 0.0)
    np.testing.assert_allclose(nodes, [2.0 / 3.0], rtol=1e-14)
    np.testing.assert_allclose(weights, [0.5], rtol=1e-14)


def test_fractional_weight_against_gamma_oracle():
    # integral of t^4 * t^0.5 (1-t)^1.5 dt = B(5.5, 2.5)
    nodes, weights = gauss_jacobi(3, 0.5, 1.5)
    val = float(np.dot(nodes**4, weights))
    assert val == pytest.approx(beta_fn(5.5, 2.5), abs=1e-13)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 0.0), (-0.5, 2.5), (4.0, 0.25)])
def test_weight_mass_and_positivity(a, b):
    nodes, weights = gauss_jacobi(6, a, b)
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(beta_fn(a + 1.0, b + 1.0), rel=1e-13)
    assert np.all((nodes > 0.0) & (nodes < 1.0))


def test_gauss_jacobi_rejects_bad_exponents():
    with pytest.raises(ValueError):
        gauss_jacobi(3, -1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi(0, 0.0, 0.0)


def test_dirichlet_quarter_rule_is_quiet_and_exact():
    # dirichlet(0.25) on the volume: the first collapsed axis has a + b = -1,
    # where scipy's recurrence computes a discarded 0/0.
    exps = (-0.75,) * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = simplex_rule_weighted(3, exps, 8)
    for p in itertools.product(range(5), repeat=4):
        if sum(p) <= 8:
            got = np.prod(rule.nodes ** np.array(p), axis=1) @ rule.weights
            assert abs(got - dirichlet_expectation(exps, p)) < 1e-13, p


def test_gauss_jacobi_rejects_a_non_finite_rule(monkeypatch):
    from histotet import quadrature

    monkeypatch.setattr(
        quadrature, "roots_jacobi", lambda m, a, b: (np.full(m, np.nan), np.ones(m))
    )
    with pytest.raises(ValueError, match=r"\(m, a, b\) = \(3, 0.5, 2.0\)"):
        gauss_jacobi(3, 0.5, 2.0)


@pytest.mark.parametrize("d, exponent", [(2, 499.0), (2, 349.0), (3, 300.0), (1, 600.0)])
def test_weighted_rule_rejects_overflowing_exponents(d, exponent):
    # 2^(a+b+1) overflows once a + b + 1 > 1024 on a collapsed axis: the
    # weights become NaN (499 on a face) or zero (349 on a face).
    exps = (exponent,) * (d + 1)
    with pytest.raises(ValueError, match=rf"\(d, exponents, m\) = \({d}, \({exponent}, "):
        simplex_rule_weighted(d, exps, 8)


def test_weighted_rule_mass_is_one():
    for exps in [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (-0.5, 2.0, 0.3)]:
        rule = simplex_rule_weighted(2, exps, 5)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_face_pair_moment_alpha2():
    # E[mu1 mu2] under dirichlet(alpha=2) face density = alpha / (3(3 alpha + 1))
    rule = simplex_rule_weighted(2, (1.0, 1.0, 1.0), 4)
    val = (rule.nodes[:, 0] * rule.nodes[:, 1]) @ rule.weights
    assert val == pytest.approx(2.0 / 21.0, rel=1e-13)


def test_volume_mean_gamma2():
    rule = simplex_rule_weighted(3, (1.0,) * 4, 4)
    assert rule.nodes[:, 0] @ rule.weights == pytest.approx(0.25, rel=1e-13)


def test_plain_rule_matches_moments():
    r3 = simplex_rule_plain(3, 2)
    assert r3.nodes[:, 0] ** 2 @ r3.weights == pytest.approx(
        simplex_moment([2, 0, 0, 0], 3), rel=1e-13
    )
    assert r3.weights.sum() == pytest.approx(1.0, abs=1e-13)
    r2 = simplex_rule_plain(2, 4)
    val = (r2.nodes[:, 0] ** 2 * r2.nodes[:, 1] ** 2) @ r2.weights
    assert val == pytest.approx(1.0 / 90.0, rel=1e-13)


def _random_monomials(rng, d, max_degree, count):
    monos = []
    for _ in range(count):
        exps = np.zeros(d + 1, dtype=int)
        degree = int(rng.integers(0, max_degree + 1))
        for _ in range(degree):
            exps[int(rng.integers(0, d + 1))] += 1
        monos.append(exps)
    return monos


def test_exactness_against_moment_formula(rng):
    # 200 random monomials within the documented (conservative) degree bound
    checked = 0
    for d in (2, 3):
        for m in (3, 5, 8):
            bound = 2 * m - 1 - (d - 1)
            weight = rng.uniform(-0.5, 3.0, size=d + 1)
            rule = simplex_rule_weighted(d, weight, m)
            for exps in _random_monomials(rng, d, bound, 34):
                vals = np.prod(rule.nodes ** exps[None, :], axis=1)
                got = vals @ rule.weights
                want = simplex_moment(weight + exps, d) / simplex_moment(weight, d)
                assert got == pytest.approx(want, rel=1e-11), (d, m, exps)
                checked += 1
    assert checked >= 200


def test_weighted_rule_rejects_bad_input():
    with pytest.raises(ValueError):
        simplex_rule_weighted(2, (-1.5, 0.0, 0.0), 4)
    with pytest.raises(ValueError):
        simplex_rule_weighted(2, (0.0, 0.0), 4)
    with pytest.raises(ValueError):
        simplex_rule_plain(3, 0)
