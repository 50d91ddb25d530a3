import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histotet import (
    TARGETS,
    BaryQuadratic,
    StrategyConfig,
    TargetFunction,
    assemble_H,
    build_mesh,
    compute_dofs,
    face_ortho_quadratic,
    volumetric_psi,
)
from histotet import experiment
from histotet.densities import Density
from histotet.element import build_functionals
from histotet.experiment import _l1_errors, build_dof_table
from histotet.simplex import dirichlet_expectation
from conftest import engines_of, l1_error, make_random_tet
from oracles import barycentric

MESH, MESH4 = build_mesh(3), build_mesh(4)

PARAM = st.floats(1e-3, 8.0)
CANDIDATE = st.one_of(
    st.tuples(st.just("fv"), PARAM, PARAM),
    st.tuples(st.just("vol"), st.floats(0.0, 1.0), PARAM),
    st.tuples(st.just("ef"), PARAM, PARAM),
)


@settings(deadline=None, max_examples=15)
@given(st.lists(CANDIDATE, min_size=1, max_size=5))
@example([("fv", 0.25, 0.25), ("vol", 0.25, 0.25), ("ef", 0.25, 0.25)])
@example([("vol", 0.5, 1.0), ("fv", 1.0, 1.0)])  # vol's two components coincide
def test_pass_errors_equal_stand_alone_errors(candidates):
    # Candidates share DOF blocks (a uniform face, a volume component) in any
    # mix; sharing must not move a bit of any candidate's error.  n = 3 is
    # one chunk, so each engine's stand-alone partition is the pass's.
    configs = [StrategyConfig.of(*c) for c in candidates]
    engines = engines_of(configs)
    f = TARGETS["f2"]
    for threads in (1, 2):
        alone = [l1_error(f, MESH, cfg, threads=threads) for cfg in configs]
        assert _l1_errors(engines, f, MESH, threads) == alone
    # A budget of 20,000 scalars splits n = 4 (162 cells) into 5 to 13
    # chunks, which two threads then score out of order.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_CHUNK_BUDGET", 20_000)
        assert experiment._Plan([e.table.blocks for e in engines], 216, len(MESH4)).chunks >= 3
        assert _l1_errors(engines, f, MESH4, threads=1) == _l1_errors(engines, f, MESH4, threads=2)


# Any finite admissible value, from the floor 1e-3 up.
ADMISSIBLE = st.floats(1e-3, allow_infinity=False)


@given(st.one_of(
    st.tuples(st.just("fv"), ADMISSIBLE, ADMISSIBLE),
    st.tuples(st.just("vol"), st.floats(0.0, 1.0), ADMISSIBLE),
    st.tuples(st.just("ef"), ADMISSIBLE, ADMISSIBLE),
))
@example(("fv", 1.0000001, 1.0))  # :g prints it as 1
def test_parameter_text_parses_back(candidate):
    cfg = StrategyConfig.of(*candidate)
    values = tuple(float(item.split("=")[1]) for item in cfg.params_text().split(";"))
    assert values == cfg.params


# Down to the admissible floor 1e-3, log-uniform so every decade is drawn.
LOG_PARAM = st.floats(-3.0, np.log10(8.0)).map(lambda x: 10.0**x)
LOG_CANDIDATE = st.one_of(
    st.tuples(st.just("fv"), LOG_PARAM, LOG_PARAM),
    st.tuples(st.just("vol"), st.floats(0.0, 1.0), LOG_PARAM),
    st.tuples(st.just("ef"), LOG_PARAM, LOG_PARAM),
)
TET = st.integers(0, 2**32 - 1).map(lambda seed: make_random_tet(np.random.default_rng(seed)))
COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10)
TET0 = make_random_tet(np.random.default_rng(0))
ONES = [1.0] * 10


@settings(deadline=None, max_examples=20)
@given(LOG_CANDIDATE, TET, COEFFS)
@example(("ef", 1e-3, 8.0), TET0, ONES)  # cond(H) about 5e6
@example(("vol", 0.0, 1e-3), TET0, ONES)
def test_quadratics_are_reproduced(candidate, tet, coeffs):
    # The DOFs of a quadratic are exact up to round-off, which H^-1 amplifies
    # by at most about cond(H): the worst error seen over thousands of draws
    # is about 200 cond(H) eps (vol with gamma near the floor).
    cfg = StrategyConfig.of(*candidate)
    op = assemble_H(cfg)
    poly = BaryQuadratic("volume", coeffs)
    f = TargetFunction("quadratic", lambda p: poly(barycentric(tet, p)))
    error = np.max(np.abs(op.h_inv @ compute_dofs(f, tet, build_dof_table(cfg)) - poly.coeffs))
    assert error <= 1e3 * op.cond * np.finfo(float).eps, (error, op.cond)


@settings(deadline=None, max_examples=20)
@given(LOG_CANDIDATE, TET, st.sampled_from(["f3", "f4", "f7"]))
@example(("ef", 1e-3, 8.0), TET0, "f7")
@example(("fv", 1e-3, 1e-3), TET0, "f4")
def test_projector_is_idempotent(candidate, tet, fid):
    # The DOFs of the reconstruction are the DOFs it was built from, up to
    # round-off amplified by cond(H): the worst drift seen over about 8,000
    # seeded draws is 2.4 cond(H) eps max|dofs| (fv with alpha near the floor).
    (engine,) = engines_of([StrategyConfig.of(*candidate)])
    op, table = engine.op, engine.table
    dofs = compute_dofs(TARGETS[fid], tet, table)
    recon = TargetFunction("reconstruction", lambda p: engine.reconstruct(dofs, barycentric(tet, p)))
    drift = np.max(np.abs(compute_dofs(recon, tet, table) - dofs))
    bound = 100 * op.cond * np.finfo(float).eps * np.max(np.abs(dofs))
    assert drift <= bound, (drift, op.cond)


@settings(deadline=None, max_examples=50)
@given(LOG_PARAM, LOG_PARAM)
@example(7.3091004858016335, 1.0)  # the largest face gap of a dense sweep
def test_fv_closed_forms_match_the_generic_enrichment(alpha, beta):
    # fv builds its weights from the paper's closed forms, every other
    # strategy by Gram-Schmidt.  Over 20,000 log-uniform draws of (alpha,
    # beta) and a 20,001-point sweep of each, the two differ by at most
    # 2.2e-13 in any coefficient (2.3e-14 on {1e-3, 0.1, 0.5, 1, 2, 5, 8}^2):
    # the size of the move when fv switches to the generic path.
    funcs = build_functionals(StrategyConfig.face_volume(alpha, beta))
    face, interior = funcs[4].density, funcs[8].density
    generic = [face_ortho_quadratic(face)] * 4 + volumetric_psi(interior)[:2]
    for f, q in zip(funcs[4:], generic):
        np.testing.assert_allclose(f.weight_poly.coeffs, q.coeffs, rtol=0.0, atol=1e-12)


# Dirichlet exponents as the densities use them, and stacks of monomial
# exponent tuples for a d-simplex, with one or two leading axes.
EXPONENT = st.floats(-1.0, 40.0, exclude_min=True)


@st.composite
def exponents_and_stack(draw):
    d = draw(st.integers(1, 3))
    weights = draw(st.lists(st.tuples(*[EXPONENT] * (d + 1)), min_size=1, max_size=3))
    shape = draw(st.sampled_from([(1,), (5,), (2, 3), (4, 4)]))
    size = int(np.prod(shape))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 6)] * (d + 1)), min_size=size, max_size=size))
    return d, weights, np.reshape(monomials, shape + (d + 1,))


@settings(deadline=None, max_examples=60)
@given(exponents_and_stack())
def test_stacked_moments_equal_per_tuple_moments(case):
    # One call on a stack must give each tuple's own expectation bit for bit:
    # the element matrices and Gram systems are built from stacked calls.
    d, weights, stack = case
    tuples = stack.reshape(-1, d + 1)
    for e in weights:
        looped = [dirichlet_expectation(e, p) for p in tuples]
        assert np.array_equal(dirichlet_expectation(e, stack), np.reshape(looped, stack.shape[:-1]))
    space = {1: "edge", 2: "face", 3: "volume"}[d]
    density = Density(space, tuple((1.0 / len(weights), e) for e in weights))
    looped = [density.moment(p) for p in tuples]
    assert np.array_equal(density.moment(stack), np.reshape(looped, stack.shape[:-1]))
