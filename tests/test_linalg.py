"""Exact linear algebra kernel: worked examples and random properties."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit.linalg import (
    EchelonSpan,
    Matrix,
    kernel_basis,
    rank,
    row_space,
    rref,
    solve,
    solve_matrix,
    solve_sparse,
    sparse_rank,
    RHS,
)
from koszul_kit.errors import InputError
from koszul_kit.scalars import QQ, Field, _is_prime, canon

from conftest import (
    canonical_fractions,
    dense,
    dense_add,
    dense_apply,
    dense_eq,
    dense_is_zero,
    dense_kron,
    dense_mul,
    dense_neg,
    dense_rref,
    dense_scale,
    dense_solve,
    dense_sub,
    dense_transpose,
    intersect_row_spaces,
    sparse,
)

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, pivots = rref(m)
    assert r.eq(m)
    assert pivots == [0, 1]


def test_rref_rank_one():
    m = Matrix.from_int_rows(QQ, [[1, 2], [2, 4]])
    r, pivots = rref(m)
    assert pivots == [0]
    assert [QQ.format(x) for x in r.to_rows()[0]] == ["1", "2"]
    assert all(QQ.is_zero(x) for x in r.to_rows()[1])


def test_rref_f2_by_hand_oracle():
    # [[1,1],[1,2]] over F_2 is [[1,1],[1,0]]: subtract rows -> [[1,0],[0,1]]
    m = Matrix.from_int_rows(F2, [[1, 1], [1, 2]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r.eq(Matrix.identity(F2, 2))


def test_kernel_zero_matrix():
    k = kernel_basis(Matrix.zero(QQ, 3, 3))
    assert k.cols == 3


def test_kernel_identity():
    assert kernel_basis(Matrix.identity(QQ, 3)).cols == 0


def test_kernel_one_equation():
    m = Matrix.from_int_rows(QQ, [[1, 1, 0]])
    k = kernel_basis(m)
    assert k.cols == 2
    assert m.mul(k).is_zero()
    # contains (1,-1,0) and (0,0,1)
    assert solve(k, sparse([QQ.of_int(1), QQ.of_int(-1), QQ.zero()])) is not None
    assert solve(k, sparse([QQ.zero(), QQ.zero(), QQ.one()])) is not None


def test_solve_identity():
    b = sparse([QQ.of_int(3), QQ.of_int(-1)])
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_absent():
    m = Matrix.from_int_rows(QQ, [[1, 2], [2, 4]])
    assert solve(m, sparse([QQ.of_int(1), QQ.of_int(3)])) is None


def test_solve_half():
    x = solve(Matrix.from_int_rows(QQ, [[2]]), {0: QQ.one()})
    assert QQ.format(x[0]) == "1/2"


small = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_idempotent_property(rows):
    m = Matrix.from_int_rows(QQ, rows)
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1.eq(r2) and p1 == p2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=4, max_size=4), min_size=1, max_size=4))
def test_rank_transpose_property(rows):
    m = Matrix.from_int_rows(QQ, rows)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4))
def test_kernel_and_solve_roundtrip(rows):
    m = Matrix.from_int_rows(QQ, rows)
    k = kernel_basis(m)
    if k.cols:
        assert m.mul(k).is_zero()
    assert k.cols + rank(m) == m.cols
    x0 = [QQ.of_int(i - 1) for i in range(m.cols)]
    b = m.apply(sparse(x0))
    x = solve(m, b)
    assert x is not None and m.apply(x) == b


def test_intersect_row_spaces():
    a = Matrix.from_int_rows(QQ, [[1, 0, 0], [0, 1, 0]])
    b = Matrix.from_int_rows(QQ, [[0, 1, 0], [0, 0, 1]])
    i = intersect_row_spaces(a, b)
    assert i.rows == 1
    assert [QQ.format(x) for x in i.to_rows()[0]] == ["0", "1", "0"]


# -- the elimination core against the dense Gauss-Jordan oracle --------------
#
# ``rref`` and everything built on it run on EchelonSpan; the oracle is the
# dense Gauss-Jordan loop in conftest.  EchelonSpan leads each row by its
# largest coordinate, so its own oracle is the dense rref with columns
# searched in descending order.

FIELDS = [QQ, F2, F3, F5]
entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))


@st.composite
def field_and_matrix(draw, max_rows=6, max_cols=7):
    f = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=max_rows))
    return f, Matrix.from_int_rows(f, rows)


def _sparse(f, vec):
    return {i: c for i, c in enumerate(vec) if not f.is_zero(c)}


def _dense(f, vec, n):
    out = [f.zero()] * n
    for k, c in vec.items():
        out[k] = c
    return out


def _descending_rref(m):
    """{pivot: rref row} with pivots searched from the largest column."""
    r, pivots = dense_rref(m, col_order=range(m.cols - 1, -1, -1))
    return {p: r.to_rows()[i] for i, p in enumerate(pivots)}


def _dense_normal_form(f, rows, vec):
    v = list(vec)
    for p, row in rows.items():
        c = v[p]
        if not f.is_zero(c):
            v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
    return v


def _check_echelon_span(f, m, probe):
    """``EchelonSpan`` on the rows of m against the descending dense rref:
    leads, normal forms of the rows and of ``probe`` before and after
    ``interreduce()``, and raw values in every row and normal form."""
    span = EchelonSpan(f)
    grew = [span.insert(_sparse(f, r)) for r in m.to_rows()]
    oracle = _descending_rref(m)
    assert set(span.rows) == set(oracle)
    assert span.dim() == sum(grew) == len(oracle)
    for row in span.rows.values():
        _assert_raw(f, row.values())
    vecs = m.to_rows() + [probe]
    want = [_dense_normal_form(f, oracle, v) for v in vecs]
    got = [span.reduce(_sparse(f, v)) for v in vecs]
    assert [_dense(f, x, m.cols) for x in got] == want
    span.interreduce()
    assert {lead: _dense(f, row, m.cols) for lead, row in span.rows.items()} == oracle
    # the normal form does not depend on whether the rows are reduced
    got += [span.reduce(_sparse(f, v)) for v in vecs]
    assert [_dense(f, x, m.cols) for x in got[len(vecs):]] == want
    for x in [*got, *span.rows.values()]:
        assert all(x.values())
        _assert_raw(f, x.values())


@settings(max_examples=200)
@given(field_and_matrix(), st.data())
def test_echelon_span_matches_dense(fm, data):
    f, m = fm
    probe = [f.of_int(x) for x in data.draw(
        st.lists(entry, min_size=m.cols, max_size=m.cols))]
    _check_echelon_span(f, m, probe)


@settings(max_examples=200)
@given(field_and_matrix(), st.data())
def test_solve_sparse_matches_dense(fm, data):
    f, m = fm
    if data.draw(st.booleans()):  # a consistent system
        x0 = [f.of_int(x) for x in data.draw(
            st.lists(entry, min_size=m.cols, max_size=m.cols))]
        b = dense(f, m.apply(sparse(x0)), m.rows)
    else:
        b = [f.of_int(x) for x in data.draw(
            st.lists(entry, min_size=m.rows, max_size=m.rows))]
    rows = m.to_rows()
    eqs = [{**_sparse(f, row), RHS: bi} for row, bi in zip(rows, b)]
    got = solve_sparse(f, eqs, m.cols)
    # solve_sparse pivots on the largest variables and sets the smallest
    # free; dense solve on the reversed variable order makes the same choice
    reversed_m = Matrix.from_rows(f, [row[::-1] for row in rows], m.cols)
    want = dense_solve(reversed_m, b)
    assert got == (None if want is None else want[::-1])
    assert sparse_rank(f, [_sparse(f, r) for r in rows]) == len(dense_rref(m)[1])


def test_solve_sparse_consistency():
    rng = random.Random(2)
    for _ in range(20):
        m = Matrix.from_int_rows(QQ, [[rng.randrange(-3, 4) for _ in range(4)]
                                      for _ in range(3)])
        x0 = [QQ.of_int(rng.randrange(-2, 3)) for _ in range(4)]
        b = dense(QQ, m.apply(sparse(x0)), 3)
        rows = m.to_rows()
        eqs = []
        for i in range(3):
            eq = {j: rows[i][j] for j in range(4) if not QQ.is_zero(rows[i][j])}
            eq[RHS] = b[i]
            eqs.append(eq)
        x = solve_sparse(QQ, eqs, 4)
        assert x is not None and dense(QQ, m.apply(sparse(x)), 3) == b


def test_solve_sparse_inconsistent():
    eqs = [{0: QQ.one(), RHS: QQ.one()}, {0: QQ.one(), RHS: QQ.of_int(2)}]
    assert solve_sparse(QQ, eqs, 1) is None


def test_row_space_membership():
    rs = row_space(Matrix.from_int_rows(QQ, [[1, 1, 0], [0, 0, 1]]))
    assert solve(rs.transpose(), sparse([QQ.of_int(2), QQ.of_int(2), QQ.of_int(5)])) == {0: 2, 1: 5}
    assert solve(rs.transpose(), sparse([QQ.one(), QQ.zero(), QQ.zero()])) is None


@st.composite
def field_matrix_and_rhs(draw):
    """A field, an r x c matrix (r, c >= 0, sometimes all zero) and a
    right-hand side of k columns, each either in the image or arbitrary."""
    f = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()) and draw(st.booleans()):
        rows = [[0] * ncols for _ in range(nrows)]
    m = Matrix.from_rows(f, [[f.of_int(x) for x in r] for r in rows], ncols)
    rhs = []  # sparse columns
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            x0 = draw(st.lists(entry, min_size=ncols, max_size=ncols))
            rhs.append(m.apply(sparse([f.of_int(x) for x in x0])))
        else:
            rhs.append(sparse([f.of_int(x) for x in draw(
                st.lists(entry, min_size=nrows, max_size=nrows))]))
    return f, m, rhs


def _check_one_core(f, m, rhs):
    """rref, rank, row_space, kernel_basis, solve and solve_matrix on m and
    the sparse columns ``rhs`` against the dense oracles, with the storage
    invariant on every matrix they return."""
    want_r, want_p = dense_rref(m)
    r, pivots = rref(m)
    assert (r.rows, r.cols) == (m.rows, m.cols)
    assert r.to_rows() == want_r.to_rows() and pivots == want_p
    _assert_stored(r)
    assert rank(m) == len(want_p)
    rs = row_space(m)
    assert (rs.rows, rs.cols) == (len(want_p), m.cols)
    assert rs.to_rows() == want_r.to_rows()[: len(want_p)]
    _assert_stored(rs)
    # the kernel basis is the one with an identity block on the free columns
    k = kernel_basis(m)
    free = [j for j in range(m.cols) if j not in want_p]
    assert (k.rows, k.cols) == (m.cols, len(free))
    assert m.mul(k).is_zero()
    k_rows = k.to_rows()
    assert [k_rows[j] for j in free] == Matrix.identity(f, len(free)).to_rows()
    _assert_stored(k)
    want_x = [dense_solve(m, dense(f, b, m.rows)) for b in rhs]
    got_x = [solve(m, b) for b in rhs]
    assert [None if x is None else dense(f, x, m.cols) for x in got_x] == want_x
    assert [None if x is None else sparse(x) for x in want_x] == got_x
    for x in got_x:
        if x is not None:
            _assert_raw(f, x.values())
    x = solve_matrix(m, Matrix(f, m.rows, rhs))
    if None in want_x:
        assert x is None
    else:
        assert (x.rows, x.cols) == (m.cols, len(rhs))
        assert [dense(f, col, x.rows) for col in x.columns] == want_x
        _assert_stored(x)


@settings(max_examples=300)
@given(field_matrix_and_rhs())
def test_one_core_matches_dense_oracle(case):
    _check_one_core(*case)



# -- Matrix ops against the dense Field-call oracle ----------------------------------


def raw_scalars(f):
    """Field elements as the ops hold them, zero drawn often: over Q an
    ``int`` when integral and a ``Fraction`` otherwise, over F_p an ``int``
    in [0, p)."""
    if f.p:
        return st.one_of(st.just(0), st.integers(min_value=0, max_value=f.p - 1))
    return st.one_of(st.just(f.zero()),
                     st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                               st.integers(min_value=1, max_value=3)).map(canon))


@st.composite
def raw_matrix(draw, f, rows, cols):
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return Matrix.zero(f, rows, cols)
    data = draw(st.lists(st.lists(raw_scalars(f), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(f, data, cols)


def _assert_raw(f, values):
    for x in values:
        if f.p:
            assert type(x) is int and 0 <= x < f.p, x
        else:
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), x


def _assert_stored(m):
    """The storage invariant: one zero-free column dict per column, keys in
    ``range(rows)``, raw values."""
    assert len(m.columns) == m.cols
    for col in m.columns:
        assert all(0 <= i < m.rows for i in col)
        assert all(col.values())
        _assert_raw(m.field, col.values())


def _assert_same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    _assert_stored(got)
    rows = got.to_rows()
    assert len(rows) == got.rows and all(len(r) == got.cols for r in rows)
    assert rows == want.to_rows()
    _assert_raw(got.field, [x for r in rows for x in r])


def _check_matrix_ops(f, a, b, m, o, vec, c):
    """Every op on a, b (same shape), m (a.cols rows), o (any shape), vec
    (length a.cols) and scalar c agrees with the dense oracle and keeps the
    entry invariant; no op changes its operands."""
    before = [x.to_rows() for x in (a, b, m, o)]
    _assert_same(a.add(b), dense_add(a, b))
    _assert_same(a.sub(b), dense_sub(a, b))
    _assert_same(a.scale(c), dense_scale(a, c))
    _assert_same(a.neg(), dense_neg(a))
    _assert_same(a.mul(m), dense_mul(a, m))
    _assert_same(a.kron(o), dense_kron(a, o))
    _assert_same(o.kron(a), dense_kron(o, a))
    _assert_same(a.transpose(), dense_transpose(a))
    # rows picked in descending order, columns permuted
    rsel, csel = list(range(a.rows))[::-2], list(range(a.cols))[1::2] + list(range(a.cols))[::2]
    a_rows = a.to_rows()
    _assert_same(a.submatrix(rsel, csel),
                 Matrix.from_rows(f, [[a_rows[i][j] for j in csel] for i in rsel], len(csel)))
    got = a.apply(sparse(vec))
    assert got == sparse(dense_apply(a, vec))
    assert dense(f, got, a.rows) == dense_apply(a, vec)
    assert all(got.values())
    _assert_raw(f, got.values())
    assert a.is_zero() == dense_is_zero(a)
    for x, y in ((a, b), (a, a.add(Matrix.zero(f, a.rows, a.cols))), (a, o),
                 (a, a.transpose())):
        assert x.eq(y) == dense_eq(x, y)
    assert [x.to_rows() for x in (a, b, m, o)] == before


@settings(max_examples=300)
@given(st.data())
def test_matrix_ops_match_dense_oracle(data):
    f = data.draw(st.sampled_from([QQ, F2, F3, F5]))
    r, c, k, r2, c2 = (data.draw(st.integers(min_value=0, max_value=4)) for _ in range(5))
    a, b = data.draw(raw_matrix(f, r, c)), data.draw(raw_matrix(f, r, c))
    m, o = data.draw(raw_matrix(f, c, k)), data.draw(raw_matrix(f, r2, c2))
    vec = data.draw(st.lists(raw_scalars(f), min_size=c, max_size=c))
    # a scalar may also be any int: scale reduces it mod p
    scalar = data.draw(st.one_of(raw_scalars(f), st.integers(min_value=-3, max_value=3)))
    _check_matrix_ops(f, a, b, m, o, vec, scalar)


def test_matrix_ops_on_empty_and_zero_shapes():
    for f in (QQ, F2, F3, F5):
        one, two = f.one(), f.of_int(2)
        for r, c in ((0, 3), (3, 0), (0, 0), (2, 3)):
            z = Matrix.zero(f, r, c)
            full = Matrix.from_rows(f, [[two] * c for _ in range(r)], c)
            for x, rows in ((z, [[f.zero()] * c for _ in range(r)]),
                            (full, [[two] * c for _ in range(r)])):
                assert (x.rows, x.cols) == (r, c) and x.to_rows() == rows
                assert Matrix.from_rows(f, x.to_rows(), c).eq(x)
                _assert_stored(x)
            for a, b in ((z, z), (z, full), (full, z)):
                for k in (0, 2):
                    _check_matrix_ops(f, a, b, Matrix.zero(f, c, k),
                                      Matrix.identity(f, 2), [one] * c, two)
                    ones = Matrix.from_rows(f, [[one] * k for _ in range(c)], k)
                    _check_matrix_ops(f, a, b, ones,
                                      Matrix.zero(f, 0, 2), [f.zero()] * c, f.zero())


# -- canonical rationals over Q ---------------------------------------------------


def test_field_values_are_canonical():
    assert type(QQ.zero()) is int and type(QQ.one()) is int and type(QQ.of_int(-4)) is int
    two = QQ.parse("4/2")
    assert type(two) is int and two == 2
    assert QQ.parse("-2/4") == Fraction(-1, 2) and type(QQ.parse(" 3 ")) is int
    three = QQ.inv(Fraction(1, 3))
    assert type(three) is int and three == 3
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(2) == Fraction(1, 2) and QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    half = Fraction(1, 2)
    for got in (QQ.add(half, half), QQ.sub(Fraction(3, 2), half), QQ.mul(2, half),
                QQ.div(1, half), QQ.neg(Fraction(-1)), canon(Fraction(4, 4))):
        assert type(got) is int, got
    assert canon(half) is half and canon(Fraction(6, -3)) == -2
    for x in (3, Fraction(3), Fraction(6, 2)):
        assert QQ.format(x) == "3"
    for x in (Fraction(-1, 2), Fraction(2, -4)):
        assert QQ.format(x) == "-1/2"
    assert F5.parse("4/2") == 2 and F5.format(-1) == "4" and F5.inv(2) == 3


@st.composite
def fraction_matrix(draw, rows, cols):
    data = draw(st.lists(st.lists(canonical_fractions, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(QQ, data, cols)


@settings(max_examples=200)
@given(st.data())
def test_integral_fraction_results_are_stored_as_ints(data):
    """Over Q, entries like 1/2, 2, -2/3 and 3/2, whose sums and products are
    often integral, through every ``Matrix`` op, rref, kernel_basis, solve,
    solve_matrix and ``EchelonSpan.insert``/``interreduce``: each result
    equals its dense oracle, and every stored value is canonical."""
    r, c, k, r2, c2 = (data.draw(st.integers(min_value=0, max_value=4)) for _ in range(5))
    a, b = data.draw(fraction_matrix(r, c)), data.draw(fraction_matrix(r, c))
    m, o = data.draw(fraction_matrix(c, k)), data.draw(fraction_matrix(r2, c2))
    vecs = [data.draw(st.lists(canonical_fractions, min_size=n, max_size=n))
            for n in (c, c, r)]
    _check_matrix_ops(QQ, a, b, m, o, vecs[0], data.draw(canonical_fractions))
    # one right-hand side in the image of a, one drawn freely
    _check_one_core(QQ, a, [a.apply(sparse(vecs[1])), sparse(vecs[2])])
    _check_echelon_span(QQ, a, vecs[1])


# -- certified primality of the modulus ---------------------------------------------


def test_primality_matches_a_sieve():
    n = 10_000
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [m for m in range(n) if _is_prime(m)] == [m for m in range(n) if sieve[m]]
    # a strong pseudoprime to every prime base up to 37
    assert not _is_prime(3825123056546413051)


def _within(seconds, fn):
    start = time.perf_counter()
    out = fn()
    assert time.perf_counter() - start < seconds
    return out


def test_large_moduli_are_certified_in_time():
    assert _within(1.0, lambda: Field(2**61 - 1)).p == 2**61 - 1
    with pytest.raises(InputError, match="not prime"):
        _within(1.0, lambda: Field(2147483647 * 2147483629))  # two 31-bit primes
    # 2^89 - 1 is prime, but past the bound below which the bases are proven exact
    with pytest.raises(InputError, match="too large to certify"):
        Field(2**89 - 1)
