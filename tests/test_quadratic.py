"""Quadratic presentations, duals, and graded truncations."""

import random

import pytest

from koszul_kit.errors import DegreeOverflowError, InputError
from koszul_kit.linalg import Matrix, solve
from koszul_kit.presentations import (
    QuadraticPresentation,
    double_dual_check,
    quadratic_dual,
    truncate_algebra,
)
from koszul_kit.scalars import QQ, Field


def test_dual_of_symmetric_is_exterior(sym2):
    dual = quadratic_dual(sym2)
    assert dual.num_relations == 3
    # R-perp contains x1*x1*, x2*x2*, x1*x2* + x2*x1*
    f = QQ
    for vec in ([1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0]):
        assert solve(dual.relations.transpose(), [f.of_int(x) for x in vec]) is not None


def test_dual_dims(sym2, sym3):
    assert quadratic_dual(sym2).num_relations == 3   # 1 -> 3
    assert quadratic_dual(sym3).num_relations == 6   # 3 -> 6


def test_dual_of_zero_relations():
    # R = 0: the dual relations are all of V* ⊗ V*, so (A!)_n = 0 for n >= 2
    p = QuadraticPresentation(QQ, ["x"], Matrix(QQ, [], 0, 1))
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
    one = alg.unit_vector()
    a = [QQ.one(), QQ.zero()]
    assert alg.multiply(0, one, 1, a) == a
    # x1 x2 = x2 x1 in A_2
    x1, x2 = [QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]
    assert alg.multiply(1, x1, 1, x2) == alg.multiply(1, x2, 1, x1)


def test_exterior_square_zero(sym2):
    e = truncate_algebra(quadratic_dual(sym2), 3)
    x1 = [QQ.one(), QQ.zero()]
    assert all(QQ.is_zero(c) for c in e.multiply(1, x1, 1, x1))


def test_associativity_within_bound(sym3):
    alg = truncate_algebra(sym3, 4)
    assert alg.check_associativity(4)
    e = truncate_algebra(quadratic_dual(sym3), 4)
    assert e.check_associativity(4)


def test_degree_overflow(sym2):
    alg = truncate_algebra(sym2, 2)
    with pytest.raises(DegreeOverflowError):
        alg.multiply(1, [QQ.one(), QQ.zero()], 2, [QQ.one()] * 3)


def test_double_dual_random_f5():
    f5 = Field(5)
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        nrel = rng.randint(0, d * d)
        rows = Matrix(f5, [[f5.of_int(rng.randrange(5)) for _ in range(d * d)]
                           for _ in range(nrel)], nrel, d * d)
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
    assert alg.check_weight_blocks()
    assert quadratic_dual(p).weights == (1, 1, 2)


def test_inhomogeneous_weights_rejected():
    f = QQ
    rows = Matrix.from_int_rows(f, [[0, 1, 0, 0]])  # x1 ox x2: weight 1+2 vs nothing else
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
