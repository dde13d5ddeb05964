"""The minimal resolution and the Koszul strands against dense oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit import resolution
from koszul_kit.errors import InconsistentDataError
from koszul_kit.linalg import Matrix
from koszul_kit.presentations import QuadraticPresentation, quadratic_dual, truncate_algebra
from koszul_kit.resolution import GradedFreeModule, _act_on_expanded, minimal_resolution_betti
from koszul_kit.scalars import QQ, Field
from koszul_kit.suite import koszulness_check, strand_complex

from conftest import (
    dense_act_on_expanded,
    dense_resolution_betti,
    dense_strand_differentials,
    raw_values,
    symmetric_presentation,
    truncated_presentation,
)

PRESENTATIONS = truncated_presentation([QQ, Field(2), Field(3), Field(5)])


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
@given(PRESENTATIONS, st.data())
def test_resolution_and_strands_match_dense(case, data):
    """The resolution against the full-kernel oracle at steps = cap = bound
    and at 0 <= steps <= cap <= bound drawn independently; the strands at
    every n <= bound."""
    pres, bound = case
    alg = truncate_algebra(pres, bound)
    assert minimal_resolution_betti(alg, bound, bound) == dense_resolution_betti(alg, bound, bound)
    cap = data.draw(st.integers(min_value=0, max_value=bound), label="degree_cap")
    steps = data.draw(st.integers(min_value=0, max_value=cap), label="steps")
    assert minimal_resolution_betti(alg, steps, cap) == dense_resolution_betti(alg, steps, cap)
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


def _off_diagonal(f):
    """k<a,b>/(ab + ba - b^2, ab + b^2), on the words aa, ab, ba, bb."""
    return QuadraticPresentation(f, ["a", "b"],
                                 Matrix.from_int_rows(f, [[0, 1, 1, -1], [0, 1, 0, 1]]))


def test_resolution_leaves_the_diagonal_off_koszul_input(monkeypatch):
    """At bound 5 the resolution of k over Q needs new generators off the
    diagonal, β_{3,4} = 1 and β_{4,5} = 3, so kernels are computed there
    too and the window is not Koszul.  Over F_3 the same relations stay on
    the diagonal.  Either way a map is assembled exactly at the (step,
    degree) of each generator from step 2 on, and never for the last
    step's own map.  Zero steps leave only the augmentation."""
    built = []
    real = resolution._map_columns

    def recorded(source, target, gen_cols, deg):
        built.append(deg)
        return real(source, target, gen_cols, deg)

    monkeypatch.setattr(resolution, "_map_columns", recorded)
    pres = _off_diagonal(QQ)
    alg = truncate_algebra(pres, 5)
    betti = minimal_resolution_betti(alg, 5, 5)
    assert betti == {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1, (3, 4): 1, (4, 5): 3}
    assert built == [2, 3, 4, 5]
    assert betti == dense_resolution_betti(alg, 5, 5)
    assert koszulness_check(pres, 5)["koszul_window"] is False
    alg3 = truncate_algebra(_off_diagonal(Field(3)), 5)
    built.clear()
    betti3 = minimal_resolution_betti(alg3, 5, 5)
    assert betti3 == {(0, 0): 1, **{(i, i): 2 for i in range(1, 6)}}
    assert built == [2, 3, 4, 5]
    assert betti3 == dense_resolution_betti(alg3, 5, 5)
    built.clear()
    assert minimal_resolution_betti(alg, 0, 5) == {(0, 0): 1}
    assert minimal_resolution_betti(alg, 1, 5) == {(0, 0): 1, (1, 1): 2}
    assert built == []


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=repr)
def test_exactness_certificate_fires_on_a_dropped_column(f, monkeypatch):
    """Over S(V), dim V = 2, the first kernel computed from a map is that
    of d_1 at degree 2, of dimension 4 - dim A_2 = 1.  Its first column
    is x1 * x1, the only product that reaches x1^2; dropped, the kernel
    grows to dimension 2 and the exactness count catches it."""
    real = resolution._map_columns

    def faulted(source, target, gen_cols, deg):
        cols = real(source, target, gen_cols, deg)
        cols[0] = {}
        return cols

    monkeypatch.setattr(resolution, "_map_columns", faulted)
    alg = truncate_algebra(symmetric_presentation(f, 2), 3)
    with pytest.raises(InconsistentDataError, match=r"^resolution step 2: kernel of "
                       r"dimension 2 at degree 2, exactness gives 1$"):
        minimal_resolution_betti(alg, 3, 3)
