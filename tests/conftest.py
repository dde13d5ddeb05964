import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from koszul_kit.deformations import DeformationData, build_U, build_cdga
from koszul_kit.linalg import Matrix
from koszul_kit.presentations import QuadraticPresentation
from koszul_kit.scalars import QQ

SEED = int(os.environ.get("KOSZUL_SEED", "0"))

# Property tests draw the same examples on every run: a failure is
# reproducible, and the suite's run time does not wander with the draw.
settings.register_profile("koszul", derandomize=True, deadline=None, database=None)
settings.load_profile("koszul")


def dense_rref(m, col_order=None):
    """Dense Gauss-Jordan reduced row echelon form: the test-side oracle for
    the library's one elimination core.

    Returns (R, pivots) in the shape ``linalg.rref`` gives: rows sorted by
    pivot column and padded with zero rows, pivots strictly increasing.
    ``col_order`` changes the pivot search order (the reversed order is the
    oracle of ``EchelonSpan``, which leads each row by its largest
    coordinate); R is stored in natural column order.
    """
    f = m.field
    data = m.copy_data()
    nrows, ncols = m.rows, m.cols
    order = list(range(ncols)) if col_order is None else list(col_order)
    pivots = []
    r = 0
    for col in order:
        if r >= nrows:
            break
        sel = next((i for i in range(r, nrows) if not f.is_zero(data[i][col])), -1)
        if sel < 0:
            continue
        data[r], data[sel] = data[sel], data[r]
        inv = f.inv(data[r][col])
        data[r] = [f.mul(inv, x) for x in data[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(data[i][col]):
                c = data[i][col]
                data[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(data[i], data[r])]
        pivots.append(col)
        r += 1
    rows_sorted = [row for _, row in sorted(zip(pivots, data[:r]))]
    return Matrix(f, rows_sorted + data[r:], nrows, ncols), sorted(pivots)


def dense_solve(m, b):
    """Oracle solution of m.x = b (free variables zero), or None."""
    f = m.field
    aug = Matrix(f, [row + [bi] for row, bi in zip(m.data, b)], m.rows, m.cols + 1)
    r, pivots = dense_rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][m.cols]
    return x


def full_cdga_verify(alg):
    """The curved-dga axioms on every basis pair and every basis element,
    through dense ``dual.multiply`` with unit vectors: the test-side oracle
    of ``CdgAlgebra.verify``, which checks generators only.  Returns the
    first violation as a string, or None."""
    f = alg.field
    top = alg.bound
    dual = alg.dual
    # Leibniz on basis pairs within bound
    for i in range(0, top):
        for j in range(0, top):
            if i + j + 1 > top:
                continue
            mi, mj = dual.dim_at(i), dual.dim_at(j)
            for a in range(mi):
                ea = [f.one() if s == a else f.zero() for s in range(mi)]
                for b in range(mj):
                    eb = [f.one() if s == b else f.zero() for s in range(mj)]
                    ab = dual.multiply(i, ea, j, eb)
                    lhs = alg.d(i + j).apply(ab)
                    rhs = dual.multiply(i + 1, alg.d(i).apply(ea), j, eb)
                    db = alg.d(j).apply(eb)
                    term2 = dual.multiply(i, ea, j + 1, db)
                    if i % 2 == 1:
                        term2 = [f.neg(x) for x in term2]
                    rhs = [f.add(x, y) for x, y in zip(rhs, term2)]
                    if any(not f.eq(x, y) for x, y in zip(lhs, rhs)):
                        return f"Leibniz fails on basis pair A!_{i}[{a}] * A!_{j}[{b}]"
    # d(c) = 0
    if 3 <= top:
        dc = alg.d(2).apply(alg.curvature)
        if any(not f.is_zero(x) for x in dc):
            return "d(c) != 0"
    # d^2 = [c, -]
    for n in range(0, top - 1):
        mn = dual.dim_at(n)
        for b in range(mn):
            eb = [f.one() if s == b else f.zero() for s in range(mn)]
            dd = alg.d(n + 1).apply(alg.d(n).apply(eb))
            cb = dual.multiply(2, alg.curvature, n, eb)
            bc = dual.multiply(n, eb, 2, alg.curvature)
            comm = [f.sub(x, y) for x, y in zip(cb, bc)]
            if any(not f.eq(x, y) for x, y in zip(dd, comm)):
                return f"d^2 != [c,-] on basis A!_{n}[{b}]"
    return None


def symmetric_presentation(field, dim):
    """S(V): relations x_i x_j - x_j x_i for i < j."""
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            row = [field.zero()] * (dim * dim)
            row[i * dim + j] = field.one()
            row[j * dim + i] = field.neg(field.one())
            rows.append(row)
    return QuadraticPresentation(field, [f"x{i+1}" for i in range(dim)],
                                 Matrix(field, rows, len(rows), dim * dim))


def heisenberg_deformation(field):
    """The Heisenberg Lie algebra: [x1, x2] = x3, bracket via x^y -> [y,x]."""
    rel = Matrix.from_int_rows(field, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    alpha = Matrix.from_int_rows(field, [[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    return DeformationData.from_raw(field, ["x1", "x2", "x3"], rel, alpha,
                                    [field.zero()] * 3)


def twopoint_deformation(field, a=1, b=2):
    """U = k[x]/(x^2 - (a+b)x + ab)."""
    s = -(a + b)
    return DeformationData.from_raw(
        field, ["x"], Matrix.from_int_rows(field, [[1]]),
        Matrix.from_int_rows(field, [[s]]), [field.of_int(a * b)])


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def sym2(qq):
    return symmetric_presentation(qq, 2)


@pytest.fixture(scope="session")
def sym3(qq):
    return symmetric_presentation(qq, 3)


@pytest.fixture(scope="session")
def heis(qq):
    return heisenberg_deformation(qq)


@pytest.fixture(scope="session")
def twopoint(qq):
    return twopoint_deformation(qq)


@pytest.fixture(scope="session")
def sym2_world(qq, sym2):
    """(deformation, U, cdga) for the trivial deformation of S(V), dim 2."""
    data = DeformationData.trivial(sym2)
    return data, build_U(data, 8), build_cdga(data, 5)


@pytest.fixture(scope="session")
def heis_world(heis):
    return heis, build_U(heis, 8), build_cdga(heis, 5)


@pytest.fixture(scope="session")
def twopoint_world(twopoint):
    return twopoint, build_U(twopoint, 4), build_cdga(twopoint, 6)
