from hypothesis import example, given, settings
from hypothesis import strategies as st

from histotet import TARGETS, QuadSettings, StrategyConfig, build_mesh, l1_error
from histotet.experiment import _ErrorEngine, _l1_errors

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
