import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histotet import (
    TARGETS,
    BaryQuadratic,
    QuadSettings,
    StrategyConfig,
    TargetFunction,
    assemble_H,
    build_mesh,
    compute_dofs,
    l1_error,
    reconstruct,
)
from histotet import experiment
from histotet.densities import Density
from histotet.experiment import _ErrorEngine, _l1_errors
from histotet.simplex import dirichlet_expectation
from conftest import make_random_tet

MESH = build_mesh(3)

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
    # mix; sharing must not move a bit of any candidate's error.
    configs = [StrategyConfig.of(*c) for c in candidates]
    engines = [_ErrorEngine(cfg, QuadSettings()) for cfg in configs]
    f = TARGETS["f2"]
    for threads in (1, 2):
        alone = [l1_error(f, MESH, cfg, threads=threads) for cfg in configs]
        assert _l1_errors(engines, f, MESH, threads) == alone


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
    f = TargetFunction("quadratic", lambda p: poly(tet.barycentric(p)))
    error = np.max(np.abs(op.h_inv @ compute_dofs(f, tet, cfg) - poly.coeffs))
    assert error <= 1e3 * op.cond * np.finfo(float).eps, (error, op.cond)


@settings(deadline=None, max_examples=20)
@given(LOG_CANDIDATE, TET, st.sampled_from(["f3", "f4", "f7"]))
@example(("ef", 1e-3, 8.0), TET0, "f7")
@example(("fv", 1e-3, 1e-3), TET0, "f4")
def test_projector_is_idempotent(candidate, tet, fid):
    # The DOFs of the reconstruction are the DOFs it was built from, up to
    # round-off amplified by cond(H): the worst drift seen over about 8,000
    # seeded draws is 2.4 cond(H) eps max|dofs| (fv with alpha near the floor).
    cfg = StrategyConfig.of(*candidate)
    op = assemble_H(cfg)
    dofs = compute_dofs(TARGETS[fid], tet, cfg)
    poly = reconstruct(op, dofs)
    recon = TargetFunction("reconstruction", lambda p: poly(tet.barycentric(p)))
    drift = np.max(np.abs(compute_dofs(recon, tet, cfg) - dofs))
    bound = 100 * op.cond * np.finfo(float).eps * np.max(np.abs(dofs))
    assert drift <= bound, (drift, op.cond)


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
    density = Density(space, "mixture", tuple((1.0 / len(weights), e) for e in weights))
    looped = [density.moment(p) for p in tuples]
    assert np.array_equal(density.moment(stack), np.reshape(looped, stack.shape[:-1]))


MESH4 = build_mesh(4)


@settings(deadline=None, max_examples=10)
@given(st.lists(CANDIDATE, min_size=1, max_size=4), st.sampled_from(["f2", "f7"]))
def test_pass_errors_do_not_depend_on_thread_count(candidates, fid):
    # A budget of 20,000 scalars splits n=4 (162 cells) into 5 to 13 chunks,
    # which two threads then score out of order.
    engines = [_ErrorEngine(StrategyConfig.of(*c), QuadSettings()) for c in candidates]
    chunk_counts = []
    run_chunks = experiment._run_chunks

    def counting_run_chunks(work, slices, threads):
        chunk_counts.append(len(slices))
        return run_chunks(work, slices, threads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_CHUNK_BUDGET", 20_000)
        mp.setattr(experiment, "_run_chunks", counting_run_chunks)
        serial = _l1_errors(engines, TARGETS[fid], MESH4, threads=1)
        threaded = _l1_errors(engines, TARGETS[fid], MESH4, threads=2)
    assert min(chunk_counts) >= 3
    assert serial == threaded
