"""Quadratic presentations, duals, and graded truncations."""

import gc
import inspect
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit.errors import DegreeOverflowError, InputError
from koszul_kit.linalg import Matrix, solve
from koszul_kit.presentations import (
    QuadraticPresentation,
    _dual_pairing,
    double_dual_check,
    quadratic_dual,
    truncate_algebra,
)
from koszul_kit.scalars import QQ, Field
from koszul_kit.words import words_of_length

from conftest import (
    canonical_fractions,
    check_associativity,
    check_weight_blocks,
    dense,
    dense_left_mult,
    dense_mult_tensor,
    dense_right_mult,
    heap_column,
    raw_values,
    sparse,
    symmetric_presentation,
    truncated_presentation,
)


def test_dual_of_symmetric_is_exterior(sym2):
    dual = quadratic_dual(sym2)
    assert dual.num_relations == 3
    # R-perp contains x1*x1*, x2*x2*, x1*x2* + x2*x1*
    f = QQ
    for vec in ([1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0]):
        assert solve(dual.relations.transpose(), sparse([f.of_int(x) for x in vec])) is not None


def test_dual_dims(sym2, sym3):
    assert quadratic_dual(sym2).num_relations == 3   # 1 -> 3
    assert quadratic_dual(sym3).num_relations == 6   # 3 -> 6


def test_dual_of_zero_relations():
    # R = 0: the dual relations are all of V* ⊗ V*, so (A!)_n = 0 for n >= 2
    p = QuadraticPresentation(QQ, ["x"], Matrix.from_rows(QQ, [], 1))
    dual = quadratic_dual(p)
    assert dual.num_relations == 1
    alg = truncate_algebra(dual, 3)
    assert alg.dims == (1, 1, 0, 0)
    assert double_dual_check(p, 3)


def test_full_relations_give_polynomial_dual():
    # dim V = 1, R = V⊗V: A = k[x]/(x^2), A! = k[x*]
    p = QuadraticPresentation(QQ, ["x"], Matrix.from_int_rows(QQ, [[1]]))
    alg = truncate_algebra(p, 4)
    assert alg.dims == (1, 1, 0, 0, 0)
    dual = quadratic_dual(p)
    assert dual.num_relations == 0
    dalg = truncate_algebra(dual, 4)
    assert dalg.dims == (1, 1, 1, 1, 1)


def test_truncation_dims(sym3):
    alg = truncate_algebra(sym3, 2)
    assert alg.dims == (1, 3, 6)
    e = truncate_algebra(quadratic_dual(sym3), 4)
    assert e.dims == (1, 3, 3, 1, 0)


def test_unit_and_relations_in_product(sym2):
    alg = truncate_algebra(sym2, 3)
    one = {0: QQ.one()}
    a = {0: QQ.one()}
    assert alg.multiply(0, one, 1, a) == a
    # x1 x2 = x2 x1 in A_2
    x1, x2 = {0: QQ.one()}, {1: QQ.one()}
    assert alg.multiply(1, x1, 1, x2) == alg.multiply(1, x2, 1, x1)


def test_exterior_square_zero(sym2):
    e = truncate_algebra(quadratic_dual(sym2), 3)
    x1 = {0: QQ.one()}
    assert e.multiply(1, x1, 1, x1) == {}


def test_associativity_within_bound(sym3):
    alg = truncate_algebra(sym3, 4)
    assert check_associativity(alg, 4)
    e = truncate_algebra(quadratic_dual(sym3), 4)
    assert check_associativity(e, 4)


def test_degree_overflow(sym2):
    alg = truncate_algebra(sym2, 2)
    with pytest.raises(DegreeOverflowError):
        alg.multiply(1, {0: QQ.one()}, 2, sparse([QQ.one()] * 3))


def test_double_dual_random_f5():
    f5 = Field(5)
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        nrel = rng.randint(0, d * d)
        rows = Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5)) for _ in range(d * d)]
                                     for _ in range(nrel)], d * d)
        p = QuadraticPresentation(f5, [f"x{i}" for i in range(d)], rows)
        assert double_dual_check(p, 3)


def test_dim_r_plus_r_perp(sym3):
    for p in (sym3, quadratic_dual(sym3)):
        d = p.dim
        assert p.num_relations + quadratic_dual(p).num_relations == d * d


def test_weights_block_structure():
    # Heisenberg-style weights (1, 1, 2); relations are weight homogeneous
    f = QQ
    rows = Matrix.from_int_rows(f, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    p = QuadraticPresentation(f, ["x1", "x2", "x3"], rows, weights=[1, 1, 2])
    alg = truncate_algebra(p, 4)
    assert check_weight_blocks(alg)
    assert quadratic_dual(p).weights == (1, 1, 2)


def test_inhomogeneous_weights_rejected():
    f = QQ
    # a relation mixing weights 2 and 3 must be rejected
    bad = Matrix.from_int_rows(f, [[1, 1, 0, 0]])   # x1 ox x1 + x1 ox x2
    with pytest.raises(InputError):
        QuadraticPresentation(f, ["x1", "x2"], bad, weights=[1, 2])


def test_lex_least_standard_monomials(sym3):
    alg = truncate_algebra(sym3, 3)
    assert alg.basis_words[2] == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for word in alg.basis_words[3]:
        assert tuple(sorted(word)) == word


def test_euler_characteristic_of_koszul_pair(sym3):
    alg = truncate_algebra(sym3, 6)
    e = truncate_algebra(quadratic_dual(sym3), 6)
    for n in range(1, 7):
        total = 0
        for i in range(0, n + 1):
            total += (-1) ** i * alg.dim_at(n - i) * e.dim_at(i)
        assert total == 0


# -- the product table -----------------------------------------------------------


def _dense_product(alg, i, a, j, b):
    """a * b cell by cell through ``Field`` calls and ``dense_mult_tensor``."""
    f = alg.field
    mt = dense_mult_tensor(alg, i, j).to_rows()
    vec = [f.mul(x, y) for x in a for y in b]
    out = [f.zero()] * len(mt)
    for r in range(len(mt)):
        for k, v in enumerate(vec):
            out[r] = f.add(out[r], f.mul(mt[r][k], v))
    return out


def _check_product_table(alg, draw_vector):
    f, d, bound = alg.field, alg.pres.dim, alg.bound
    assert alg.basis_words[1] == [(g,) for g in range(d)]
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            mt = dense_mult_tensor(alg, i, j)
            cols = alg.mult_columns(i, j)
            assert cols == [sparse([row[k] for row in mt.to_rows()]) for k in range(mt.cols)]
            assert all(raw_values(f, c.values()) and all(c.values()) for c in cols)
            zero_a, zero_b = [f.zero()] * alg.dim_at(i), [f.zero()] * alg.dim_at(j)
            for a, b in ((draw_vector(i), draw_vector(j)), (zero_a, draw_vector(j)),
                         (draw_vector(i), zero_b)):
                got = alg.multiply(i, sparse(a), j, sparse(b))
                assert dense(f, got, alg.dim_at(i + j)) == _dense_product(alg, i, a, j, b)
                assert all(got.values()) and raw_values(f, got.values())
    # generator products, as the callers read them
    for j in range(bound):
        left, right, nj = alg.mult_columns(1, j), alg.mult_columns(j, 1), alg.dim_at(j)
        for g in range(d):
            lm, rm = dense_left_mult(alg, g, j).to_rows(), dense_right_mult(alg, g, j).to_rows()
            for t in range(nj):
                assert left[g * nj + t] == sparse([row[t] for row in lm])
                assert right[t * d + g] == sparse([row[t] for row in rm])
    for i in range(bound + 2):
        with pytest.raises(DegreeOverflowError):
            alg.mult_columns(i, bound + 1 - i)
    with pytest.raises(DegreeOverflowError):
        alg.multiply(1, sparse([f.one()] * d), bound, sparse([f.one()] * alg.dim_at(bound)))


@settings(max_examples=100)
@given(truncated_presentation([QQ, Field(2), Field(3), Field(5)]), st.data())
def test_product_table_matches_dense(case, data):
    pres, bound = case
    alg = truncate_algebra(pres, bound)
    entries = st.integers(min_value=-3, max_value=3).map(alg.field.of_int)
    _check_product_table(alg, lambda n: data.draw(st.lists(entries, min_size=alg.dim_at(n),
                                                             max_size=alg.dim_at(n))))


def test_product_table_with_zero_pieces():
    # k[x]/(x^2) and the exterior algebra on 3 generators over F_2 and F_5:
    # degrees past the top are zero-dimensional
    for f in (QQ, Field(2), Field(5)):
        x2 = QuadraticPresentation(f, ["x"], Matrix.from_int_rows(f, [[1]]))
        ext3 = quadratic_dual(symmetric_presentation(f, 3))
        for pres, bound in ((x2, 3), (ext3, 5)):
            alg = truncate_algebra(pres, bound)
            assert alg.dim_at(bound) == 0
            _check_product_table(alg, lambda n: [f.of_int(k + 2) for k in range(alg.dim_at(n))])
        assert truncate_algebra(x2, 2).mult_columns(1, 1) == [{}]


# -- the generator table against the heap normal form ---------------------------


@st.composite
def table_case(draw):
    """A quadratic presentation on dim V = 1..3 generators over Q, F_2,
    F_3 or F_5, or its quadratic dual, and a bound <= 5 (<= 4 for
    Fraction coefficients on three generators): random small-int
    relations, monomial, zero or full relation spaces, the non-Koszul
    k<a, b>/(ab + ba - b^2, ab + b^2), or Fraction coefficients over Q."""
    f = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    d = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["random", "monomial", "zero", "full", "non-koszul",
                                 "fraction"]))
    if kind == "random":
        rows = draw(st.lists(st.lists(st.integers(-2, 2).map(f.of_int), min_size=d * d,
                                      max_size=d * d), max_size=d * d))
    elif kind == "monomial":
        pairs = draw(st.lists(st.integers(0, d * d - 1), unique=True))
        rows = [[f.of_int(int(k == m)) for k in range(d * d)] for m in pairs]
    elif kind == "zero":
        rows = []
    elif kind == "full":
        rows = [[f.of_int(int(k == m)) for k in range(d * d)] for m in range(d * d)]
    elif kind == "non-koszul":
        d = 2
        rows = [[f.of_int(x) for x in r] for r in ([0, 1, 1, -1], [0, 1, 0, 1])]
    else:
        f = QQ
        rows = draw(st.lists(st.lists(canonical_fractions, min_size=d * d, max_size=d * d),
                             min_size=1, max_size=d * d))
    pres = QuadraticPresentation(f, [f"x{i}" for i in range(d)],
                                 Matrix.from_rows(f, rows, d * d))
    if draw(st.booleans()):
        pres = quadratic_dual(pres)
    # the heap oracle's Fraction arithmetic swells on three generators
    top = 4 if kind == "fraction" and d == 3 else 5
    return pres, draw(st.integers(min_value=2, max_value=top))


@settings(max_examples=120)
@given(table_case())
def test_generator_table_matches_heap_normal_form(case):
    """Every word's ``project_word`` column, built a letter at a time
    through the generator tables, equals its heap normal form; every
    column is zero-free and canonical.  The product tables of a fresh
    truncation, which walk u·v from u, agree with the dense oracle."""
    pres, bound = case
    alg = truncate_algebra(pres, bound)
    f = alg.field
    # longest words first: each walk starts from a short cached prefix
    for n in range(bound, -1, -1):
        for w in words_of_length(pres.dim, n):
            col = alg.project_word(w)
            assert col == heap_column(alg, w), w
            assert all(col.values()) and raw_values(f, col.values())
    fresh = truncate_algebra(pres, bound)
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            mt = dense_mult_tensor(alg, i, j)
            rows = mt.to_rows()
            cols = fresh.mult_columns(i, j)
            assert cols == [sparse([row[k] for row in rows]) for k in range(mt.cols)]
            assert all(all(c.values()) and raw_values(f, c.values()) for c in cols)


def test_generator_table_needs_no_recursion():
    """The worst-order word x3^4 x2^4 x1^4 of S(V) at bound 12 walks eleven
    generator tables; its column needs no Python recursion and equals its
    heap normal form."""
    alg = truncate_algebra(symmetric_presentation(QQ, 3), 12)
    word = (2,) * 4 + (1,) * 4 + (0,) * 4
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        got = alg.project_word(word)
    finally:
        sys.setrecursionlimit(limit)
    assert got == heap_column(alg, word) == {alg.basis_words[12].index(tuple(sorted(word))): 1}


@pytest.mark.parametrize("seed", range(16))
def test_presentation_owns_its_dual_and_truncations(seed):
    """``p.truncation(n)`` and ``p.dual().truncation(n)`` are built once
    and kept; after reads in a random order they equal fresh
    ``truncate_algebra`` builds in dims, basis words and every product
    table of total degree <= n."""
    rng = random.Random(seed)
    f = [QQ, Field(2), Field(3), Field(5)][seed % 4]
    d = rng.randint(1, 3)
    rows = [[f.of_int(rng.randint(-2, 2)) for _ in range(d * d)]
            for _ in range(rng.randint(0, d * d))]
    pres = QuadraticPresentation(f, [f"x{i}" for i in range(d)],
                                 Matrix.from_rows(f, rows, d * d))
    n = rng.randint(2, 5 if d <= 2 else 4)
    assert pres.dual() is pres.dual()
    assert pres.dual().relations.eq(quadratic_dual(pres).relations)
    for p, oracle in ((pres, pres), (pres.dual(), quadratic_dual(pres))):
        alg = p.truncation(n)
        for _ in range(10):
            i = rng.randint(0, n)
            alg.mult_columns(i, rng.randint(0, n - i))
        assert p.truncation(n) is alg
        fresh = truncate_algebra(oracle, n)
        assert alg.dims == fresh.dims and alg.basis_words == fresh.basis_words
        for i in range(n + 1):
            for j in range(n + 1 - i):
                assert alg.mult_columns(i, j) == fresh.mult_columns(i, j)
    assert pres.truncation(n) is not pres.dual().truncation(n)
    # nothing derived refers back strongly: dropping the presentation frees
    # it all at once, with no cycle left for the collector
    derived = [weakref.ref(x) for x in (pres.truncation(n), pres.dual(),
                                         pres.dual().truncation(n))]
    gc.disable()
    try:
        del p, alg, oracle, pres
        assert all(ref() is None for ref in derived)
    finally:
        gc.enable()


# -- A's PBW data: the overlap basis and the A!_2 pairing inverse ------------------------


@pytest.mark.parametrize("seed", range(12))
def test_degree_two_basis_is_the_same_at_every_bound(seed):
    """The degree-2 basis words of A and A! are the same at bounds 2..6:
    the degree-2 rules are the relations themselves, and every ambiguity
    has sugar >= 3.  So the pairing inverse built at one bound inverts the
    pairing read at every bound."""
    rng = random.Random(seed)
    f = [QQ, Field(2), Field(3), Field(5)][seed % 4]
    d = rng.randint(1, 3)
    rows = [[f.of_int(rng.randint(-2, 2)) for _ in range(d * d)]
            for _ in range(rng.randint(0, d * d))]
    pres = QuadraticPresentation(f, [f"x{i}" for i in range(d)],
                                 Matrix.from_rows(f, rows, d * d))
    for p in (pres, pres.dual()):
        words = [truncate_algebra(p, n).basis_words[2] for n in range(2, 7)]
        assert all(w == words[0] for w in words)
    inverse = pres.dual_pairing_inverse(rng.randint(2, 6))
    identity = Matrix.identity(f, pres.num_relations)
    for n in range(2, 7):
        assert _dual_pairing(pres.dual().truncation(n), pres.relations).mul(inverse).eq(identity)


@pytest.mark.parametrize("f", [QQ, Field(2), Field(3), Field(5)], ids=repr)
def test_pbw_data_is_kept_and_freed_with_its_presentation(f):
    """``overlap()`` and ``dual_pairing_inverse()`` are built once and kept,
    one inverse for every bound.  Neither refers back to the presentation,
    and nothing else keeps them: dropping the presentation frees it at
    once, with no cycle left for the collector, and with it the only other
    reference to each."""
    pres = symmetric_presentation(f, 3)
    overlap, inverse = pres.overlap(), pres.dual_pairing_inverse(3)
    assert overlap.cols == 1  # S(V) on three generators: Λ^3 V
    assert pres.overlap() is overlap
    assert all(pres.dual_pairing_inverse(n) is inverse for n in range(2, 7))
    refs = [weakref.ref(x) for x in (pres, pres.dual(), pres.dual().truncation(3))]
    gc.disable()
    try:
        del pres
        assert all(ref() is None for ref in refs)
        # what is left is this frame's name and getrefcount's argument
        left = sys.getrefcount(overlap), sys.getrefcount(inverse)
        assert left == (2, 2)
    finally:
        gc.enable()
