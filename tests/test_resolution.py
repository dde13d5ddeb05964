"""The minimal resolution and the Koszul strands against dense oracles."""

from hypothesis import given, settings, strategies as st

from koszul_kit.linalg import Matrix
from koszul_kit.presentations import QuadraticPresentation, quadratic_dual, truncate_algebra
from koszul_kit.resolution import GradedFreeModule, _act_on_expanded, minimal_resolution_betti
from koszul_kit.scalars import QQ, Field
from koszul_kit.suite import strand_complex

from conftest import (
    dense_act_on_expanded,
    dense_resolution_betti,
    dense_strand_differentials,
    raw_values,
    truncated_presentation,
)

PRESENTATIONS = truncated_presentation([QQ, Field(2), Field(3)])


@settings(max_examples=80)
@given(PRESENTATIONS, st.data())
def test_act_on_expanded_matches_dense(case, data):
    pres, bound = case
    alg = truncate_algebra(pres, bound)
    f = alg.field
    shifts = data.draw(st.lists(st.integers(min_value=0, max_value=bound - 1),
                                min_size=1, max_size=3))
    free = GradedFreeModule(alg, shifts)
    vdeg = data.draw(st.integers(min_value=0, max_value=bound - 1))
    mdeg = data.draw(st.integers(min_value=1, max_value=bound - vdeg))
    entries = st.integers(min_value=0, max_value=4).map(f.of_int)
    vec = data.draw(st.lists(entries, min_size=free.dim_at(vdeg), max_size=free.dim_at(vdeg)))
    _check_act(free, mdeg, vdeg, vec)


def _check_act(free, mdeg, vdeg, vec):
    """The sparse product by every basis element of A_mdeg is the dense one
    with its zeros left out, on raw values."""
    sparse = {i: v for i, v in enumerate(vec) if v}
    for mb in range(free.alg.dim_at(mdeg)):
        got = _act_on_expanded(free, mdeg, mb, vdeg, sparse)
        want = dense_act_on_expanded(free, mdeg, mb, vdeg, vec)
        assert got == {i: v for i, v in enumerate(want) if v}
        assert raw_values(free.alg.field, got.values()) and all(got.values())


def test_act_on_expanded_reduces_mod_p():
    # over F_3 with x^2 + y^2 = 0, one square rewrites to 2 times the other:
    # 2 * 2 = 4 must come back as 1
    f = Field(3)
    pres = QuadraticPresentation(f, ["x", "y"], Matrix.from_int_rows(f, [[1, 0, 0, 1]]))
    free = GradedFreeModule(truncate_algebra(pres, 2), [0])
    _check_act(free, 1, 1, [f.of_int(2)] * free.dim_at(1))


@settings(max_examples=120)
@given(PRESENTATIONS)
def test_resolution_and_strands_match_dense(case):
    pres, bound = case
    alg = truncate_algebra(pres, bound)
    assert minimal_resolution_betti(alg, bound, bound) == dense_resolution_betti(alg, bound, bound)
    dual = truncate_algebra(quadratic_dual(pres), bound)
    for n in range(1, bound + 1):
        got = strand_complex(alg, dual, n).diffs
        want = dense_strand_differentials(alg, dual, n)
        assert got.keys() == want.keys()
        for pos, m in got.items():
            assert (m.rows, m.cols, m.to_rows()) == \
                (want[pos].rows, want[pos].cols, want[pos].to_rows())
            assert raw_values(alg.field, [x for row in m.to_rows() for x in row])


def test_resolution_and_strands_match_dense_on_sym3(sym3):
    for pres in (sym3, quadratic_dual(sym3)):
        alg = truncate_algebra(pres, 4)
        dual = truncate_algebra(quadratic_dual(pres), 4)
        assert minimal_resolution_betti(alg, 4, 4) == dense_resolution_betti(alg, 4, 4)
        for n in range(1, 5):
            want = dense_strand_differentials(alg, dual, n)
            assert {pos: m.to_rows() for pos, m in strand_complex(alg, dual, n).diffs.items()} == \
                {pos: m.to_rows() for pos, m in want.items()}
