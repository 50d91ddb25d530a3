import numpy as np
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
)
from histotet.experiment import _ErrorEngine, _l1_errors
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
