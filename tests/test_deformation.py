"""PBW conditions, the curved dual dga, the filtered algebra U, and the
vanishing lemma."""

import inspect
import os
import random
import sys
import types
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszul_kit.deformations import (
    CdgAlgebra,
    DeformationData,
    PbwReport,
    build_U,
    build_cdga,
    pbw_check,
    vanishing_witness,
)
from koszul_kit.errors import (
    CdgaInvariantError,
    InconsistentDataError,
    InputError,
    KoszulKitError,
    WellDefinednessError,
)
from koszul_kit.linalg import Matrix
from koszul_kit.presentations import (
    QuadraticPresentation,
    WordQuotient,
    quadratic_dual,
    truncate_algebra,
)
from koszul_kit.scalars import QQ, Field
from koszul_kit.words import degree_offset, pair_index, word_global_index, words_of_length

from conftest import (
    SEED,
    build_cdga_by_solves,
    canonical_fractions,
    check_associativity,
    dense,
    dense_rref,
    full_cdga_verify,
    heap_column,
    heap_u_column,
    heisenberg_deformation,
    normal_form,
    pbw_check_by_kernel,
    pbw_check_by_solves,
    raw_values,
    standard_words,
    standard_words_by_candidate_tests,
    symmetric_presentation,
    twopoint_deformation,
    u_product,
    verify_on_every_table,
    walked_standard_words,
)


# -- pbw_check ----------------------------------------------------------------


def test_heisenberg_pbw(heis):
    rep = pbw_check(heis)
    assert rep.all_pass
    assert rep.overlap_dim == 1


def test_jacobi_violation_fails_cond2(qq):
    # [x1,x2] = x3, [x1,x3] = x2 perturbed by [x2,x3] = x2: Jacobi fails
    rel = Matrix.from_int_rows(qq, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    alpha = Matrix.from_int_rows(qq, [[0, 0, -1], [0, -1, 0], [0, -1, 0]])
    bad = DeformationData.from_raw(qq, ["x1", "x2", "x3"], rel, alpha,
                                   [qq.zero()] * 3)
    rep = pbw_check(bad)
    assert rep.cond1
    assert not rep.cond2
    assert not rep.all_pass


def test_associative_multiplication_on_full_relations(qq):
    # R = V ⊗ V, alpha an associative product on V: all conditions pass.
    # V = k with x.x = x (idempotent product).
    d = DeformationData.from_raw(qq, ["x"], Matrix.from_int_rows(qq, [[1]]),
                                 Matrix.from_int_rows(qq, [[-1]]), [qq.zero()])
    assert pbw_check(d).all_pass
    # two-dimensional: e.e = e, e.f = f, f.e = 0, f.f = 0 (associative)
    rel = Matrix.from_int_rows(qq, [[1, 0, 0, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]])
    alpha = Matrix.from_int_rows(qq, [[-1, 0], [0, -1], [0, 0], [0, 0]])
    d2 = DeformationData.from_raw(qq, ["e", "f"], rel, alpha, [qq.zero()] * 4)
    assert pbw_check(d2).all_pass


def test_pbw_report_all_pass():
    for conds in ((True, True, True), (True, False, True), (False, False, False),
                  (True, True, False)):
        assert PbwReport(*conds, 3).all_pass == all(conds)


# -- build_cdga -----------------------------------------------------------------


def test_heisenberg_cdga_is_ce(heis_world):
    heis, u, cdga = heis_world
    assert cdga.curvature_is_zero
    # d vanishes on x1*, x2*; d(x3*) pairs to -1 against x1 ^ x2, the
    # classical Chevalley-Eilenberg value -x1* ^ x2* as a bilinear form
    f = cdga.field
    d1 = cdga.d(1).to_rows()
    assert all(f.is_zero(row[0]) for row in d1)
    assert all(f.is_zero(row[1]) for row in d1)
    col = [row[2] for row in d1]
    # pairing of d(x3*) against the relation r12 = x1 ox x2 - x2 ox x1
    # under the contragredient pairing
    word = cdga.dual.basis_words[2][0]
    assert word == (0, 1)
    rel = heis.base.relations
    val = f.zero()
    for i, c in enumerate(col):
        w = cdga.dual.basis_words[2][i]
        # <w, r> = r at the swapped pair coordinate
        val = f.add(val, f.mul(c, rel.to_rows()[0][w[1] * 3 + w[0]]))
    assert f.eq(val, f.of_int(-1))
    assert cdga.verify() is None


def test_twopoint_cdga_golden(twopoint_world):
    twop, u, cdga = twopoint_world
    f = cdga.field
    assert f.eq(cdga.curvature[0], f.of_int(2))
    for n in range(1, 5):
        val = cdga.d(n).entry(0, 0)
        if n % 2 == 1:
            assert f.eq(val, f.of_int(-3))
        else:
            assert f.is_zero(val)


def test_trivial_deformation_zero_cdga(sym2):
    data = DeformationData.trivial(sym2)
    cdga = build_cdga(data, 4)
    assert cdga.curvature_is_zero
    for n in range(4):
        assert cdga.d(n).is_zero()


def test_sign_debug_hook_breaks_leibniz(twopoint):
    # the corrupted extension gives d(x*^2) = -6 x*^3 instead of 0
    alg = build_cdga(twopoint, 4, check=False, _sign_debug=True)
    msg = alg.verify()
    assert msg is not None and "Leibniz" in msg
    with pytest.raises(CdgaInvariantError):
        build_cdga(twopoint, 4, _sign_debug=True)


def test_pbw_cdga_equivalence_random_f3():
    f3 = Field(3)
    rng = random.Random(SEED + 17)
    rel = Matrix.from_int_rows(f3, [
        [0, 1, 0, 2, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 2, 0]])
    cases = []
    for _ in range(40):
        alpha = Matrix.from_rows(f3, [[f3.of_int(rng.randrange(3)) for _ in range(3)]
                                      for _ in range(3)], 3)
        beta = [f3.of_int(rng.randrange(3)) for _ in range(3)]
        cases.append((alpha, beta))
    # random (alpha, beta) are almost never PBW; a nonzero multiple of the
    # Heisenberg bracket [x, y] = c z is
    for _ in range(10):
        c = rng.randrange(1, 3)
        cases.append((Matrix.from_int_rows(f3, [[0, 0, c], [0, 0, 0], [0, 0, 0]]),
                      [f3.zero()] * 3))
    agree = both = 0
    for alpha, beta in cases:
        data = DeformationData.from_raw(f3, ["x", "y", "z"], rel, alpha, beta)
        bg = pbw_check(data).all_pass
        try:
            build_cdga(data, 4)
            ok = True
        except KoszulKitError:
            ok = False
        assert bg == ok
        agree += 1
        both += bg
    assert agree == len(cases)
    assert 0 < both < len(cases)


# -- build_U ---------------------------------------------------------------------


def test_heisenberg_gr_dims(heis_world, sym3):
    heis, u, _ = heis_world
    alg = truncate_algebra(sym3, 8)
    assert u.gr_dims == [alg.dim_at(n) for n in range(9)]


def test_twopoint_u(twopoint_world):
    twop, u, _ = twopoint_world
    assert u.total_dim == 2
    assert u.gr_dims[:3] == [1, 1, 0]
    # x . x = 3x - 2 in U
    f = u.field
    x, one = u._basis_pos[(0,)], u._basis_pos[()]
    assert u.mult_basis(x, x) == {x: f.of_int(3), one: f.of_int(-2)}


def test_trivial_deformation_u_is_graded(sym2):
    data = DeformationData.trivial(sym2)
    u = build_U(data, 5)
    alg = truncate_algebra(sym2, 5)
    assert u.gr_dims == [alg.dim_at(n) for n in range(6)]
    assert check_associativity(u, 4)


def test_u_associativity(heis_world):
    _, u, _ = heis_world
    assert check_associativity(u, 4)


def test_non_pbw_gr_dims_drop(qq):
    # alpha violating Jacobi: gr dims fall below the symmetric algebra
    rel = Matrix.from_int_rows(qq, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    alpha = Matrix.from_int_rows(qq, [[0, 0, -1], [0, -1, 0], [0, -1, 0]])
    bad = DeformationData.from_raw(qq, ["x1", "x2", "x3"], rel, alpha,
                                   [qq.zero()] * 3)
    u = build_U(bad, 4)
    sym = [1, 3, 6, 10, 15]
    assert u.gr_dims[0] == 1
    assert any(u.gr_dims[n] < sym[n] for n in range(1, 5))


# -- build_U against a dense oracle ------------------------------------------------

small = st.integers(min_value=-2, max_value=2)


@st.composite
def small_deformation(draw, fields=(QQ, Field(2), Field(3), Field(5)), entries=None):
    """Random (R, alpha, beta) on d <= 3 generators, PBW or not, and a bound;
    coefficients are small ints, or drawn from ``entries``."""
    f = draw(st.sampled_from(fields))
    e = small.map(f.of_int) if entries is None else entries
    d = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=min(d * d, 3)))
    rel = draw(st.lists(st.lists(e, min_size=d * d, max_size=d * d),
                        min_size=m, max_size=m))
    alpha = draw(st.lists(st.lists(e, min_size=d, max_size=d),
                          min_size=m, max_size=m))
    beta = draw(st.lists(e, min_size=m, max_size=m))
    try:
        data = DeformationData.from_raw(
            f, [f"x{i}" for i in range(d)], Matrix.from_rows(f, rel, d * d),
            Matrix.from_rows(f, alpha, d), beta)
    except InputError:  # a relation without quadratic part
        assume(False)
    return data, draw(st.integers(min_value=2, max_value=4 if d <= 2 else 3))


def _dense_u_oracle(data, bound):
    """{pivot: row} of the dense rref of every u p v with |u| + 2 + |v| <= bound,
    pivots searched from the largest word (the order U's basis avoids)."""
    f, d = data.field, data.base.dim
    ambient = degree_offset(d, bound + 1)
    rows = []
    for n in range(2, bound + 1):
        for i in range(n - 1):
            for u in words_of_length(d, i):
                for v in words_of_length(d, n - 2 - i):
                    for g in data.graph_rows().to_rows():
                        row = [f.zero()] * ambient
                        for a in range(d):
                            for b in range(d):
                                row[word_global_index(u + (a, b) + v, d)] = g[pair_index(a, b, d)]
                            row[word_global_index(u + (a,) + v, d)] = g[d * d + a]
                        row[word_global_index(u + v, d)] = g[d * d + d]
                        rows.append(row)
    r, pivots = dense_rref(Matrix.from_rows(f, rows, ambient),
                           col_order=range(ambient - 1, -1, -1))
    r_rows = r.to_rows()
    return {p: r_rows[i] for i, p in enumerate(pivots)}


def _dense_normal_form(f, oracle, ambient, g):
    """Word g reduced by the dense oracle rows, over the whole ambient."""
    v = [f.zero()] * ambient
    v[g] = f.one()
    for p, row in oracle.items():
        c = v[p]
        if not f.is_zero(c):
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return v


def _assert_matches_oracle(data, bound):
    """U, and the graded A as the trivial deformation of its base, against
    the dense u p v span: chosen basis words, word normal forms and the
    span's dimension."""
    f, d = data.field, data.base.dim
    ambient = degree_offset(d, bound + 1)
    u = build_U(data, bound)
    oracle = _dense_u_oracle(data, bound)
    assert u.basis_words == [w for n in range(bound + 1) for w in words_of_length(d, n)
                             if word_global_index(w, d) not in oracle]
    assert u.span.dim() == len(oracle)
    alg = truncate_algebra(data.base, bound)
    graded = _dense_u_oracle(DeformationData.trivial(data.base), bound)
    assert alg.span.dim() == len(graded)
    for n in range(bound + 1):
        words = words_of_length(d, n)
        assert standard_words(alg, n) == alg.basis_words[n] == [
            w for w in words if word_global_index(w, d) not in graded]
        assert standard_words(u, n) == [w for w in u.basis_words if len(w) == n]
        for w in words:
            g = word_global_index(w, d)
            v = _dense_normal_form(f, oracle, ambient, g)
            assert normal_form(u, w) == {b: v[word_global_index(b, d)] for b in u.basis_words
                                        if not f.is_zero(v[word_global_index(b, d)])}
            col = u.reduce_word(w)
            assert all(col.values()) and raw_values(f, col.values())
            assert dense(f, col, u.total_dim) == [v[word_global_index(b, d)]
                                                  for b in u.basis_words]
            v = _dense_normal_form(f, graded, ambient, g)
            want = [v[word_global_index(b, d)] for b in alg.basis_words[n]]
            col = alg.project_word(w)
            assert all(col.values()) and raw_values(f, col.values())
            assert dense(f, col, alg.dim_at(n)) == want
            # the column is cached and shared, like mult_basis
            assert alg.project_word(w) is col


@settings(max_examples=40)
@given(small_deformation())
def test_filtered_truncation_matches_dense_oracle(case):
    _assert_matches_oracle(*case)


@settings(max_examples=40)
@given(small_deformation(fields=(QQ,), entries=canonical_fractions))
def test_fraction_coefficients_give_canonical_normal_forms(case):
    """Relations, alpha and beta over Q with coefficients like 1/2, 2, -2/3
    and 3/2, whose sums and products are often integral: the rewriting rules,
    S-polynomials and normal forms keep every value canonical (checked on
    each word's column by the oracle) and agree with the dense oracle."""
    data, bound = case
    _assert_matches_oracle(data, bound)
    u = build_U(data, bound)
    assert all(raw_values(QQ, [c for _, c in tail]) for _, tail in u._rules.values())
    words = [w for n in range(bound + 1) for w in words_of_length(data.base.dim, n)]
    assert all(raw_values(QQ, normal_form(u, w).values()) for w in words)


@st.composite
def two_generator_deformation(draw):
    """Random (R, alpha, beta) on 2 generators with bound up to 6."""
    f = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    m = draw(st.integers(min_value=1, max_value=2))
    rel = draw(st.lists(st.lists(small, min_size=4, max_size=4), min_size=m, max_size=m))
    alpha = draw(st.lists(st.lists(small, min_size=2, max_size=2), min_size=m, max_size=m))
    beta = draw(st.lists(small, min_size=m, max_size=m))
    try:
        data = DeformationData.from_raw(
            f, ["x", "y"], Matrix.from_int_rows(f, rel),
            Matrix.from_int_rows(f, alpha), [f.of_int(b) for b in beta])
    except InputError:  # a relation without quadratic part
        assume(False)
    return data, draw(st.integers(min_value=5, max_value=6))


@settings(max_examples=8)
@given(two_generator_deformation())
def test_rewriting_matches_span_oracle_two_generators(case):
    _assert_matches_oracle(*case)


FIELDS = [QQ, Field(2), Field(3), Field(5)]


def _xy(f, rel, alpha, beta):
    """Two generators x < y; rows over (xx, xy, yx, yy), (x, y) and k."""
    return DeformationData.from_raw(f, ["x", "y"], Matrix.from_int_rows(f, rel),
                                    Matrix.from_int_rows(f, alpha),
                                    [f.of_int(b) for b in beta])


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_unit_enters_span_through_empty_lead(f):
    """xy - yx + 1 and x^2 (x < y): 2x = x p + p x - x^2 y + y x^2 lies in
    S_3, so 1 = p - x.y + y.x lies in S_4 but not in S_3 (except over F_2,
    where 2x = 0).  The completion finds it as a rule with empty lead."""
    data = _xy(f, [[0, 1, -1, 0], [1, 0, 0, 0]], [[0, 0], [0, 0]], [1, 0])
    for bound in (3, 4, 6):
        _assert_matches_oracle(data, bound)
    assert standard_words(build_U(data, 3), 0) == [()]
    assert standard_words(build_U(data, 4), 0) == ([()] if f.p == 2 else [])


def test_right_multiplication_does_not_descend_off_pbw():
    """Why U's generator table walks only words of length <= N - e_max:
    Q<x, y>/(xy - 1, yx) fails the PBW test, and in U_{<=3} the classes of
    x and y are 0 while the class of the word xy is the unit.  The rule
    that kills x has excess 2 (x = x(yx) - (xy - 1)x, found at sugar 3):
    it may rewrite a word of length 1 but no word of length 2, so a walk
    that read x.y off the class of x would give x.y = 0.y = 0.  With e_max = 2,
    N - e_max = 1: x and y walk, and xy, too long, is reduced on the heap,
    by the rules its own length allows."""
    data = _xy(QQ, [[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0], [0, 0]], [-1, 0])
    assert not pbw_check(data).all_pass
    u = build_U(data, 3)
    assert u.basis_words == [(), (0, 0), (1, 1), (0, 0, 0), (1, 1, 1)]
    assert max(e for e, _ in u._rules.values()) == 2 and u._walk_top == 1
    assert u.reduce_word((0,)) == {} and u.reduce_word((1,)) == {}
    assert u.reduce_word((0, 1)) == {u._basis_pos[()]: 1}


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_sugar_above_degree(f):
    """x^2 - y and y^2 - x: overlaps yield rules whose sugar exceeds the
    length of their lead, which may rewrite only shorter words."""
    _assert_matches_oracle(_xy(f, [[1, 0, 0, 0], [0, 0, 0, 1]],
                                   [[0, -1], [-1, 0]], [0, 0]), 6)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_new_lead_at_every_sugar(f):
    """y^2 - xy: the completion finds a new lead y x^k y at every sugar
    k + 2, up to the bound."""
    data = _xy(f, [[0, -1, 0, 1]], [[0, 0]], [0])
    _assert_matches_oracle(data, 6)
    u = build_U(data, 6)
    for k in range(5):
        assert (1,) + (0,) * k + (1,) not in u.basis_words


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_inclusion_ambiguity(f):
    """xy and yx - y^2 + x: the completion finds x^2 (excess 1) and y x^2
    at sugar 3.  x^2 lies inside y x^2 but may rewrite it only from sugar
    4, where that inclusion ambiguity yields a new rule with lead yx."""
    data = _xy(f, [[0, 1, 0, 0], [0, 0, 1, -1]], [[0, 0], [1, 0]], [0, 0])
    for bound in (4, 6):
        _assert_matches_oracle(data, bound)
    assert (1, 0) in build_U(data, 3).basis_words
    assert (1, 0) not in build_U(data, 4).basis_words


def test_long_rewrite_chain_without_recursion(heis):
    """The worst-order word x3^4 x2^4 x1^4 of U_{<=12} rewrites through a
    long chain; its normal form needs no Python recursion and equals the
    product of its letters taken one generator at a time."""
    u = build_U(heis, 12)
    word = (2,) * 4 + (1,) * 4 + (0,) * 4
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        got = u.reduce_word(word)
    finally:
        sys.setrecursionlimit(limit)
    x = {u._basis_pos[word[:1]]: QQ.one()}
    for g in word[1:]:
        x = u_product(u, x, {u._basis_pos[(g,)]: QQ.one()})
    assert got == x


# -- the generator table of U against the heap oracle ---------------------------------


def _assert_walk_matches_heap(data, bound):
    """A fresh U_{<=bound} against the heap normal forms of a second one
    (``heap_u_column``): every word's ``reduce_word``, every in-bound
    ``mult_basis`` and every generator-table entry, all values canonical.
    The words longer than N - e_max, and only they, reach the heap
    ``_reduce``, each once.  The graded truncation A of the base has
    e_max = 0, and its table entries match ``heap_column`` too."""
    f, d = data.field, data.base.dim
    u, oracle = build_U(data, bound), build_U(data, bound)
    top = bound - max((e for e, _ in u._rules.values()), default=0)
    assert u._walk_top == top
    heaped = []
    reduce = u._reduce

    def counted(poly, level):
        heaped.extend(poly)
        return reduce(poly, level)

    u._reduce = counted
    words = [w for n in range(bound + 1) for w in words_of_length(d, n)]
    for w in words:
        col = u.reduce_word(w)
        assert col == heap_u_column(oracle, w), w
        assert all(col.values()) and raw_values(f, col.values())
    for i, s in enumerate(u.basis_words):
        for j, t in enumerate(u.basis_words):
            if len(s) + len(t) <= bound:
                col = u.mult_basis(i, j)
                assert col == heap_u_column(oracle, s + t), (s, t)
                assert all(col.values()) and raw_values(f, col.values())
    assert heaped == [w for w in words if len(w) > top]
    assert len(u._table) == sum(u.gr_dims[:max(top, 0)])
    for s, row in zip(u.basis_words, u._table):
        for g, col in enumerate(row):
            assert col == heap_u_column(oracle, s + (g,)), (s, g)
    alg = truncate_algebra(data.base, bound)
    assert alg._walk_top == bound
    alg.project_word((0,) * bound)  # builds every row below the bound
    flat = [w for n in range(bound) for w in alg.basis_words[n]]
    assert len(alg._table) == len(flat)
    for s, row in zip(flat, alg._table):
        for g, col in enumerate(row):
            assert col == heap_column(alg, s + (g,)), (s, g)


@settings(max_examples=60)
@given(st.one_of(small_deformation(), two_generator_deformation(),
                 small_deformation(fields=(QQ,), entries=canonical_fractions)))
def test_generator_walk_matches_heap_oracle(case):
    """Random deformations over Q, F_2, F_3 and F_5, PBW or not, with small
    int or ``Fraction`` coefficients."""
    _assert_walk_matches_heap(*case)


# the families of the tests above, PBW or not, and the Weyl algebra
# xy - yx + 1, which is PBW
WALK_FAMILIES = {
    "unit_in_span": ([[0, 1, -1, 0], [1, 0, 0, 0]], [[0, 0], [0, 0]], [1, 0]),
    "xy_is_one": ([[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0], [0, 0]], [-1, 0]),
    "sugar_above_degree": ([[1, 0, 0, 0], [0, 0, 0, 1]], [[0, -1], [-1, 0]], [0, 0]),
    "new_lead_at_every_sugar": ([[0, -1, 0, 1]], [[0, 0]], [0]),
    "inclusion": ([[0, 1, 0, 0], [0, 0, 1, -1]], [[0, 0], [1, 0]], [0, 0]),
    "weyl": ([[0, 1, -1, 0]], [[0, 0]], [1]),
}


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_generator_walk_matches_heap_on_families(f, family):
    """Rules of excess >= 1, 1 in the span and PBW input, at every bound
    2..6: the walk covers words up to N - e_max and the heap the rest."""
    data = _xy(f, *WALK_FAMILIES[family])
    for bound in range(2, 7):
        _assert_walk_matches_heap(data, bound)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_walk_seeds_the_empty_word_with_its_heap_class(f):
    """k<x, y>/(xy - yx + 1, x^2): off F_2, 1 lies in S_4 (a rule with
    empty lead and excess 4), so U_{<=4} has no unit.  The empty word's
    class is then its heap class, 0, not a unit column; every word is too
    long to walk.  At bound 6, N - e_max = 2: the table's entry for x.y
    rewrites xy to yx - 1 and reads the empty word's class, 0."""
    data = _xy(f, [[0, 1, -1, 0], [1, 0, 0, 0]], [[0, 0], [0, 0]], [1, 0])
    u4, u6 = build_U(data, 4), build_U(data, 6)
    if f.p == 2:  # 2x = 0: the unit stays out of S
        assert u4._walk_top == 4 and u4.reduce_word(()) == {u4._basis_pos[()]: 1}
        return
    assert () not in u4.basis_words and u4._walk_top == 0
    assert u4.reduce_word(()) == {} == heap_u_column(u4, ())
    assert () not in u6.basis_words and u6._walk_top == 2
    assert u6.reduce_word((0, 1)) == heap_u_column(u6, (0, 1))
    for bound in (4, 5, 6):
        _assert_walk_matches_heap(data, bound)


def test_products_beyond_the_bound_raise_on_the_table_path(heis):
    """A product or word past N raises the same ``InputError`` whether the
    table is built or not, on PBW input (Heisenberg, e_max = 0) and off it
    (xy = 1, yx = 0, where N - e_max < N)."""
    off = _xy(QQ, [[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0], [0, 0]], [-1, 0])
    for data, bound in ((heis, 4), (off, 5)):
        for warm in (False, True):
            u = build_U(data, bound)
            if warm:  # every in-bound product and word, so the table is full
                for i, s in enumerate(u.basis_words):
                    for j, t in enumerate(u.basis_words):
                        if len(s) + len(t) <= bound:
                            u.mult_basis(i, j)
            long = max(range(u.total_dim), key=lambda i: len(u.basis_words[i]))
            x = u._basis_pos[(0,)] if (0,) in u._basis_pos else long
            n = len(u.basis_words[long]) + len(u.basis_words[x])
            assert n > bound
            with pytest.raises(InputError, match=f"word degree {n} beyond bound {bound}"):
                u.mult_basis(long, x)
            with pytest.raises(InputError, match=f"word degree {bound + 1} beyond bound"):
                u.reduce_word((0,) * (bound + 1))
            assert (long, x) not in u._mult_cache


# -- pbw_check against the solves oracle ----------------------------------------------


@st.composite
def binomial_deformation(draw):
    """Relations x_i x_j - x_j x_i, x_i x_j + x_j x_i or x_i x_j for a set of
    pairs (symmetric, exterior and monomial algebras among them, so that
    the overlap is often large and its dimension differs from the number
    of generators), with sparse small alpha and beta: PBW or not, so that
    all three conditions pass often enough, and fail one at a time."""
    f = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    d = draw(st.integers(min_value=1, max_value=3))
    shapes = [(i, j, s) for i in range(d) for j in range(i, d) for s in (-1, 1, 0)
              if i < j or s == 0]
    chosen = draw(st.lists(st.sampled_from(shapes), unique=True))
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2]).map(f.of_int)
    rel = []
    for i, j, sign in chosen:
        row = [f.zero()] * (d * d)
        row[i * d + j] = f.one()
        if sign:
            row[j * d + i] = f.of_int(sign)
        rel.append(row)
    alpha = [[draw(coeff) for _ in range(d)] for _ in chosen]
    beta = [draw(coeff) for _ in chosen]
    try:
        return DeformationData.from_raw(f, [f"x{i}" for i in range(d)],
                                        Matrix.from_rows(f, rel, d * d),
                                        Matrix.from_rows(f, alpha, d), beta)
    except InputError:  # over F_2 x_i x_j + x_j x_i and x_i x_j - x_j x_i agree
        assume(False)


@settings(max_examples=150)
@given(st.one_of(small_deformation().map(lambda case: case[0]), binomial_deformation()))
def test_pbw_check_matches_solves_oracle(data):
    got, want = pbw_check(data), pbw_check_by_solves(data)
    assert (got.cond1, got.cond2, got.cond3, got.overlap_dim) == (
        want.cond1, want.cond2, want.cond3, want.overlap_dim)


# -- vanishing witness -------------------------------------------------------------


def test_vanishing_witness(heis, twopoint, sym2):
    assert vanishing_witness(heis)
    assert vanishing_witness(twopoint)
    assert vanishing_witness(DeformationData.trivial(sym2))


def test_weights_constraints(qq):
    rel = Matrix.from_int_rows(qq, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    alpha = Matrix.from_int_rows(qq, [[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    # weights (1,1,2) make [x1,x2] = x3 homogeneous: accepted
    DeformationData.from_raw(qq, ["x1", "x2", "x3"], rel, alpha,
                             [qq.zero()] * 3, weights=[1, 1, 2])
    # all-ones weights make alpha inhomogeneous: rejected
    with pytest.raises(InputError):
        DeformationData.from_raw(qq, ["x1", "x2", "x3"], rel, alpha,
                                 [qq.zero()] * 3, weights=[1, 1, 1])


@pytest.mark.parametrize("f", [QQ, Field(2), Field(3), Field(5)])
def test_relation_without_quadratic_part_rejected(f):
    rel = Matrix.from_int_rows(f, [[1], [1]])
    # x0.x0 + x0 and x0.x0 span x0: P meets k + V
    with pytest.raises(InputError, match="no quadratic part"):
        DeformationData.from_raw(f, ["x0"], rel, Matrix.from_int_rows(f, [[1], [0]]),
                                 [f.zero()] * 2)
    # x0.x0 + 1 and x0.x0 span 1
    with pytest.raises(InputError, match="no quadratic part"):
        DeformationData.from_raw(f, ["x0"], rel, Matrix.zero(f, 2, 1),
                                 [f.one(), f.zero()])
    # x0.x0 + x0 twice spans one relation, with its tail kept
    data = DeformationData.from_raw(f, ["x0"], rel, Matrix.from_int_rows(f, [[1], [1]]),
                                    [f.zero()] * 2)
    assert data.base.num_relations == 1 and data.alpha.to_rows() == [[f.one()]]


def test_beta_zero_iff_curvature_zero(heis, twopoint, sym2):
    # augmented case: c = 0 exactly when beta = 0
    assert build_cdga(heis, 3).curvature_is_zero
    assert build_cdga(DeformationData.trivial(sym2), 3).curvature_is_zero
    assert not build_cdga(twopoint, 3).curvature_is_zero


# -- verify against the pairwise oracle ---------------------------------------------


def _corrupted(alg, n, r, c, delta):
    """alg with delta added to entry (r, c) of d_n, or to curvature
    coordinate r when n is None; alg itself is left as it is."""
    f = alg.field
    derivations, curvature = dict(alg.derivations), list(alg.curvature)
    if n is None:
        curvature[r] = f.add(curvature[r], delta)
    else:
        data = alg.derivations[n].to_rows()
        data[r][c] = f.add(data[r][c], delta)
        derivations[n] = Matrix.from_rows(f, data, alg.derivations[n].cols)
    return CdgAlgebra(alg.data, alg.dual, derivations, curvature)


@settings(max_examples=100)
@given(small_deformation(), st.integers(min_value=3, max_value=6), st.booleans(),
       st.data())
def test_verify_matches_pairwise_oracle(case, bound, sign_debug, draws):
    """The generator-only check returns the pairwise check's string, on the
    build as it is and with one entry of some d_n or one curvature
    coordinate changed.  Below bound 3 no axiom can fail."""
    data, _ = case
    try:
        alg = build_cdga(data, bound, check=False, _sign_debug=sign_debug)
    except WellDefinednessError:
        assume(False)
    assert alg.verify() == full_cdga_verify(alg) == verify_on_every_table(alg)
    f = alg.field
    targets = [(n, m) for n, m in sorted(alg.derivations.items())
               if m.rows and m.cols]
    if alg.curvature:
        targets.append((None, None))
    n, m = draws.draw(st.sampled_from(targets))
    delta = f.of_int(draws.draw(st.integers(min_value=1, max_value=(f.p or 3) - 1)))
    if n is None:
        bad = _corrupted(alg, None, draws.draw(st.integers(0, len(alg.curvature) - 1)),
                         None, delta)
    else:
        bad = _corrupted(alg, n, draws.draw(st.integers(0, m.rows - 1)),
                         draws.draw(st.integers(0, m.cols - 1)), delta)
    assert bad.verify() == full_cdga_verify(bad) == verify_on_every_table(bad)


@pytest.mark.parametrize("f", [QQ, Field(5)], ids=["Q", "F_5"])
def test_verify_builds_a2_tables_only_to_read_them(f):
    """An undeformed build has d = 0 on the generators and c = 0, so its
    check reads no product of A!_2 and builds none of those tables; with
    d_1, d_2 or c changed, and on the sign-debug builds of deformed data,
    the check returns what it returned when it built every table."""
    alg = build_cdga(DeformationData.trivial(symmetric_presentation(f, 3)), 4)
    assert sorted(alg.dual._mult_cols) == [(1, 0), (1, 1), (1, 2), (1, 3)]
    for n, r, c in [(1, 0, 0), (1, 2, 1), (2, 0, 0), (None, 1, None)]:
        bad = _corrupted(alg, n, r, c, f.one())
        assert bad.verify() == verify_on_every_table(bad) == full_cdga_verify(bad)
    for data in (heisenberg_deformation(f), twopoint_deformation(f)):
        for sign_debug in (False, True):
            built = build_cdga(data, 4, check=False, _sign_debug=sign_debug)
            assert built.verify() == verify_on_every_table(built) == full_cdga_verify(built)


def test_fault_in_d3_reported_on_a_generator_pair(twopoint):
    """A fault only in d_3 first breaks Leibniz on (x*, A!_2): the check on
    generators reaches it through the pair whose product lands in A!_3."""
    alg = build_cdga(twopoint, 5)
    assert alg.verify() is None and full_cdga_verify(alg) is None
    bad = _corrupted(alg, 3, 0, 0, QQ.one())
    assert bad.verify() == full_cdga_verify(bad) == "Leibniz fails on basis pair A!_1[0] * A!_2[0]"


@pytest.mark.parametrize("rel, alpha, beta, want", [
    ([[0, -1, 0, -1], [0, 1, 0, 0]], [[1, 0], [-1, 0]], [1, 1], "d(c) != 0"),
    ([[0, -1, 0, -1], [1, 1, 0, 0]], [[-1, -1], [0, 0]], [-1, -1],
     "d^2 != [c,-] on basis A!_1[0]"),
])
def test_curvature_fault_past_leibniz(rel, alpha, beta, want):
    """Non-PBW data on x < y whose d satisfies Leibniz; a changed curvature
    coordinate then fails d(c) = 0, or d^2 = [c, -] on a generator."""
    alg = build_cdga(_xy(QQ, rel, alpha, beta), 4, check=False)
    bad = _corrupted(alg, None, 0, None, QQ.one())
    assert bad.verify() == full_cdga_verify(bad) == want


# -- one A! per presentation -------------------------------------------------------


def _random_deformation(rng, f, base):
    """Random small alpha and beta over the canonical relations of ``base``;
    mostly not of PBW type."""
    m = base.num_relations
    small = lambda: f.of_int(rng.randint(-2, 2))
    return DeformationData(base, Matrix.from_rows(f, [[small() for _ in range(m)]
                                                      for _ in range(base.dim)], m),
                           Matrix.from_rows(f, [[small() for _ in range(m)]], m))


def _random_base(rng, f, d):
    rows = [[f.of_int(rng.randint(-2, 2)) for _ in range(d * d)]
            for _ in range(rng.randint(0, d * d))]
    return QuadraticPresentation(f, [f"x{i}" for i in range(d)],
                                 Matrix.from_rows(f, rows, d * d))


def test_standard_words_one_walk_per_lead_set():
    """The standard words of A, A! and U, one walk per distinct set of
    banned leads, equal the walk that tests each candidate word, a
    separate walk per length and the words no rule rewrites.  U is mostly not of PBW type, and the draws reach rules of
    excess >= 2, where the lead set changes with the length."""
    excesses = set()
    for seed in range(40):
        rng = random.Random(SEED * 1000 + seed)
        f = FIELDS[seed % 4]
        d = rng.randint(1, 3)
        bound = rng.randint(2, 5 if d <= 2 else 4)
        base = _random_base(rng, f, d)
        u = build_U(_random_deformation(rng, f, base), bound)
        excesses |= {e for e, _ in u._rules.values()}
        for q in (truncate_algebra(base, bound), truncate_algebra(quadratic_dual(base), bound),
                  u):
            assert q._standard == standard_words_by_candidate_tests(q)
            for n in range(bound + 1):
                assert q._standard[n] == walked_standard_words(q, n) == standard_words(q, n)
    assert max(excesses) >= 2


@st.composite
def lead_sets(draw):
    """A stand-in for a word quotient's rules: leads of lengths 0-3 (the
    empty lead included) on d <= 3 letters, each with an excess of 0-3,
    and a bound, so the banned set changes with the length."""
    d = draw(st.integers(min_value=1, max_value=3))
    lead = st.lists(st.integers(min_value=0, max_value=d - 1), max_size=3).map(tuple)
    rules = draw(st.dictionaries(lead, st.integers(min_value=0, max_value=3).map(
        lambda e: (e, ())), max_size=6))
    return types.SimpleNamespace(bound=draw(st.integers(min_value=0, max_value=5)),
                                 _d=d, _rules=rules)


@settings(max_examples=200)
@given(lead_sets())
def test_standard_words_by_suffix_table_match_candidate_tests(q):
    assert WordQuotient._standard_words(q) == standard_words_by_candidate_tests(q)


def _cdga_outcome(data, bound, sign_debug, check=False, build=build_cdga):
    """(derivations as dense rows, curvature), or the error's type and text."""
    try:
        alg = build(data, bound, check=check, _sign_debug=sign_debug)
    except KoszulKitError as e:
        return type(e).__name__, str(e)
    return ({n: m.to_rows() for n, m in alg.derivations.items()}, alg.curvature)


@pytest.mark.parametrize("seed", range(12))
def test_build_cdga_shares_one_dual_across_deformations(seed):
    """Two deformations of one base, the first built with the sign-debug
    hook, share one truncated A! and give the derivations and curvature
    (or the error) of deformations built on fresh ``from_raw`` bases."""
    rng = random.Random(seed)
    f = FIELDS[seed % 4]
    d = rng.randint(1, 3)
    bound = rng.randint(2, 4)
    base = _random_base(rng, f, d)
    built = []
    for sign_debug in (True, False):
        shared = _random_deformation(rng, f, base)
        fresh = DeformationData.from_raw(
            f, base.generators, base.relations, shared.alpha.transpose(),
            [shared.beta.entry(0, i) for i in range(base.num_relations)])
        assert fresh.alpha.eq(shared.alpha) and fresh.beta.eq(shared.beta)
        got = _cdga_outcome(shared, bound, sign_debug)
        assert got == _cdga_outcome(fresh, bound, sign_debug)
        if not isinstance(got[0], str):
            built.append(build_cdga(shared, bound, check=False).dual)
    assert base.dual() is base.dual()
    assert all(dual is base.dual().truncation(bound) for dual in built)


@pytest.mark.parametrize("seed", range(8))
def test_selftest_draws_match_from_raw(monkeypatch, seed):
    """The selftest's 20 PBW draws share one base, and each equals the
    ``from_raw`` deformation of its raw alpha rows and beta entries: the
    same relations, alpha and beta columns."""
    import io

    from koszul_kit import selftest

    made, raw_alpha = [], []

    class Recorded(DeformationData):
        def __init__(self, base, alpha, beta):
            super().__init__(base, alpha, beta)
            made.append(self)

    random_matrix = selftest._random_matrix

    def recorded_matrix(f, rng, rows, cols, span=5):
        m = random_matrix(f, rng, rows, cols, span)
        if f.p == 3:  # the only F_3 draws are the PBW check's alpha rows
            raw_alpha.append(m)
        return m

    monkeypatch.setattr(selftest, "DeformationData", Recorded)
    monkeypatch.setattr(selftest, "_random_matrix", recorded_matrix)
    failures, _ = selftest.run(seed, out=io.StringIO())
    assert failures == 0 and len(made) == len(raw_alpha) == 20
    assert len({id(data.base) for data in made}) == 1
    f3 = Field(3)
    rel3 = Matrix.from_int_rows(f3, [[0, 1, 0, 2, 0, 0, 0, 0, 0],
                                     [0, 0, 1, 0, 0, 0, 2, 0, 0],
                                     [0, 0, 0, 0, 0, 1, 0, 2, 0]])
    for data, ar in zip(made, raw_alpha):
        fresh = DeformationData.from_raw(f3, ["x", "y", "z"], rel3, ar,
                                         [data.beta.entry(0, i) for i in range(3)])
        assert fresh.base.relations.eq(data.base.relations)
        assert fresh.alpha.columns == data.alpha.columns
        assert fresh.beta.columns == data.beta.columns


# -- A's PBW data, once per presentation ----------------------------------------------


def _report(rep):
    return rep.cond1, rep.cond2, rep.cond3, rep.overlap_dim, rep.all_pass


def test_pbw_data_matches_the_per_deformation_oracles():
    """``pbw_check`` and ``build_cdga``, which read the overlap basis and
    the A!_2 pairing inverse their presentation keeps, equal the bodies
    that rebuilt both for every deformation: the ``PbwReport`` fields, the
    derivations and curvature, or the error's class and text.  Eight
    deformations share each base, at bounds in random order, so the
    inverse built at the first bound serves the others; each is also
    checked and built on a fresh ``from_raw`` base."""
    seen = Counter()
    for seed in range(24):
        rng = random.Random(SEED * 1000 + 500 + seed)
        f = FIELDS[seed % 4]
        d = rng.randint(1, 3)
        base = _random_base(rng, f, d)
        m = base.num_relations
        for _ in range(8):
            if rng.random() < 0.75:
                data = _random_deformation(rng, f, base)
            else:
                data = DeformationData.trivial(base)
            fresh = DeformationData.from_raw(
                f, base.generators, base.relations, data.alpha.transpose(),
                [data.beta.entry(0, i) for i in range(m)])
            bound = rng.randint(2, 4)
            check, sign_debug = rng.random() < 0.5, rng.random() < 0.25
            want_report = _report(pbw_check_by_kernel(data))
            want = _cdga_outcome(data, bound, sign_debug, check, build_cdga_by_solves)
            for x in (data, fresh):
                assert _report(pbw_check(x)) == want_report
                assert _cdga_outcome(x, bound, sign_debug, check) == want
            seen[want_report[-1]] += 1
            seen[want[0] if isinstance(want[0], str) else "built"] += 1
    assert seen[True] and seen[False]
    assert seen["built"] and seen["WellDefinednessError"] and seen["CdgaInvariantError"]


def test_deformations_of_one_r_share_one_overlap_and_one_pairing_inverse(monkeypatch):
    """Twenty deformations of one R, each checked and dualized at bounds 3
    and 4, run four eliminations in all: two for the relations of A!, one
    for the overlap (R⊗V) ∩ (V⊗R) and one inversion of the A!_2 pairing:
    no check makes a kernel of its own, and no build a solve."""
    from koszul_kit import linalg

    f3 = Field(3)
    d, m = 3, 3
    base = QuadraticPresentation(f3, ["x", "y", "z"], Matrix.from_int_rows(f3, [
        [0, 1, 0, 2, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 2, 0]]))
    shapes = []
    rref = linalg.rref

    def counted(mat):
        shapes.append((mat.rows, mat.cols))
        return rref(mat)

    monkeypatch.setattr(linalg, "rref", counted)
    rng = random.Random(SEED + 29)
    outcomes = Counter()
    for i in range(20):
        data = DeformationData.trivial(base) if i % 5 == 0 else _random_deformation(rng, f3, base)
        outcomes[pbw_check(data).all_pass] += 1
        for bound in (3, 4):
            try:
                build_cdga(data, bound)
                outcomes["built"] += 1
            except CdgaInvariantError:
                outcomes["failed"] += 1
    # [R | I] inverted; R swapped, whose kernel is R-perp; R-perp's rows
    # made canonical; [R⊗V; −V⊗R]ᵀ, whose kernel is the overlap
    assert sorted(shapes) == [(m, 2 * m), (m, d * d), (d * d - m, d * d), (d ** 3, 2 * m * d)]
    assert outcomes[True] and outcomes[False] and outcomes["built"] and outcomes["failed"]


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_degenerate_pairing_is_a_program_fault(f, monkeypatch, capsys):
    """A!_2 ≅ R*, so a singular pairing is no property of the input: with
    one column of ``_dual_pairing`` zeroed, ``build_cdga`` raises
    ``InconsistentDataError``, and ``cdga`` exits 2 naming it instead of
    calling the deformation not of PBW type."""
    from koszul_kit import cli, presentations

    pairing = presentations._dual_pairing

    def zeroed(dual, rel):
        mat = pairing(dual, rel)
        return Matrix(mat.field, mat.rows, [{}] + mat.columns[1:])

    monkeypatch.setattr(presentations, "_dual_pairing", zeroed)
    weyl = _xy(f, [[0, 1, -1, 0]], [[0, 0]], [1])  # xy - yx = 1
    with pytest.raises(InconsistentDataError, match="^degree-2 pairing is degenerate$"):
        build_cdga(weyl, 3)
    heis = os.path.join(os.path.dirname(__file__), "..", "examples_cli", "heisenberg.json")
    assert cli.main(["cdga", heis]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "InconsistentDataError: degree-2 pairing is degenerate\n"
