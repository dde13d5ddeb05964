"""One linear system for module maps: ``map_equations`` against dense
products, and the homotopy search and the adjunction's Hom bases built on
it against the equation loops each wrote for itself (the ``oracle_``
bodies of conftest).  Both sides solve the same system, and
``solve_sparse`` and ``kernel_basis`` read only its row space and the
variable order, so every homotopy and basis must be ``Matrix.eq``-equal."""

import functools
import random

import pytest

from koszul_kit.cofree import minimize_G
from koszul_kit.complexes import (
    CdgModule,
    ChainMap,
    UComplex,
    cone,
    map_equations,
    nullhomotopy,
)
from koszul_kit.deformations import DeformationData, build_cdga
from koszul_kit.functors import (
    FunctorBounds,
    adjunction_report,
    apply_G,
    hom_labels,
    module_linear_hom_basis,
)
from koszul_kit.linalg import RHS, Matrix, zero_free
from koszul_kit.scalars import QQ, Field

from conftest import (
    SEED,
    heisenberg_deformation,
    oracle_homotopy_identity_holds,
    oracle_module_linear_hom_basis,
    oracle_nullhomotopy,
    random_bounded_complex,
    symmetric_presentation,
)

FIELDS = [QQ, Field(2), Field(3), Field(5)]


@functools.cache
def _worlds(f):
    """(deformation, cdga to degree 4) for S(V), dim 2, and the Heisenberg
    algebra over f."""
    out = []
    for data in (DeformationData.trivial(symmetric_presentation(f, 2)),
                 heisenberg_deformation(f)):
        out.append((data, build_cdga(data, 4)))
    return out


def _random_matrix(f, rng, rows, cols):
    return Matrix.from_rows(f, [[f.of_int(rng.randrange(-2, 3)) for _ in range(cols)]
                                for _ in range(rows)], cols)


def _nilpotent_complex(data):
    """N -> k on degrees 0, 1: x1 acts on N = k^2 by a nonzero nilpotent,
    every other generator by 0, and the map is the projection onto the
    top, so the U-action terms of every system are nonzero."""
    f = data.field
    zero = Matrix.zero(f, 2, 2)
    x1 = Matrix.from_int_rows(f, [[0, 0], [1, 0]])
    n = UComplex.module(data, 2, [x1] + [zero] * (data.base.dim - 1))
    m = UComplex.of_modules(data, (0, 1), {0: n, 1: UComplex.trivial(data)},
                            {0: Matrix.from_int_rows(f, [[1, 0]])})
    assert m.validate() is None
    return m


def _assert_same_homotopy(fmap, gmap):
    """``nullhomotopy`` and its oracle agree, None or Matrix.eq per degree,
    and a found homotopy passes the identity check; returns it."""
    got, want = nullhomotopy(fmap, gmap), oracle_nullhomotopy(fmap, gmap)
    if want is None:
        assert got is None
        return None
    assert got is not None and sorted(got) == sorted(want)
    assert all(got[p].eq(want[p]) for p in want)
    assert oracle_homotopy_identity_holds(fmap, gmap, got)
    return got


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_map_equations_match_dense_products(f):
    """The equations of c1 L s + c2 s R = B, read off entry by entry in
    the products of L and R with the unit maps E_v, in row-major order and
    without the entries that read 0 = 0; entries on the diagonal of s are
    fixed at zero."""
    rng = random.Random(SEED + 83)
    for _ in range(6):
        b, c = rng.randint(1, 3), rng.randint(1, 3)
        left, right = _random_matrix(f, rng, b, b), _random_matrix(f, rng, c, c)
        rhs = _random_matrix(f, rng, b, c) if rng.random() < 0.5 else None
        c1, c2 = rng.choice([1, -1, 2]), rng.choice([1, -1, 3])
        free = [(i, j) for i in range(b) for j in range(c) if i != j]

        def var(q, i, j):
            return free.index((i, j)) if q == 7 and i != j else None

        got = map_equations(f, [(c1, left, 7, None), (c2, None, 7, right)], var, b, c, rhs)
        # the unit map E_v: s^7 (b x c) with a 1 at the entry of variable v
        forms = []
        for i, j in free:
            unit = Matrix(f, b, [{i: f.one()} if k == j else {} for k in range(c)])
            forms.append(left.mul(unit).scale(f.of_int(c1)).add(
                unit.mul(right).scale(f.of_int(c2))))
        want = []
        for i in range(b):
            for j in range(c):
                eq = zero_free({v: form.entry(i, j) for v, form in enumerate(forms)}, f.p)
                if rhs is not None and rhs.entry(i, j):
                    eq[RHS] = rhs.entry(i, j)
                if eq:
                    want.append(eq)
        assert got == want


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_homotopies_on_cones_match_oracle(f):
    """Identity and zero pairs on cones: of the identity of G(M), of a
    scalar multiple of the identity of M (zero included, so some cones are
    not acyclic), and of the identity of a complex with a nonzero U-action."""
    rng = random.Random(SEED + 89)
    found = missing = 0
    for data, cdga in _worlds(f):
        for m in (random_bounded_complex(data, None, rng), _nilpotent_complex(data)):
            g = apply_G(m, cdga, FunctorBounds((-3, 2), 3, 3))
            scalar = {p: Matrix.identity(f, n).scale(f.of_int(rng.randrange(2)))
                      for p, n in m.dims.items()}
            for cn in (cone(ChainMap.identity(g)), cone(ChainMap(m, m, scalar)),
                       cone(ChainMap.identity(m))):
                ident, zero = ChainMap.identity(cn), ChainMap.zero(cn, cn)
                for pair in ((ident, zero), (ident, ident), (zero, zero)):
                    if _assert_same_homotopy(*pair) is None:
                        missing += 1
                    else:
                        found += 1
    assert found and missing


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_identity_check_matches_oracle_on_faulted_homotopies(f):
    """The homotopy identity check on Matrix temporaries, the one check of
    it (the library's sparse copy is gone): it accepts the homotopies
    id ~ 0 that ``nullhomotopy`` finds on acyclic cones, and refuses each
    with one entry bumped by 1."""
    rng = random.Random(SEED + 103)
    for data, cdga in _worlds(f):
        m = random_bounded_complex(data, None, rng)
        cn = cone(ChainMap.identity(apply_G(m, cdga, FunctorBounds((-3, 2), 3, 3))))
        ident, zero = ChainMap.identity(cn), ChainMap.zero(cn, cn)
        h = nullhomotopy(ident, zero)
        for p, s in [(None, None), *h.items()]:
            faulted = h
            if p is not None:
                cols = [dict(col) for col in s.columns]
                cols[0][0] = f.add(cols[0].get(0, f.zero()), f.one())
                faulted = {**h, p: Matrix(f, s.rows, [zero_free(c, f.p) for c in cols])}
            assert oracle_homotopy_identity_holds(ident, zero, faulted) == (p is None)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_round_trip_homotopies_match_oracle(f):
    """i o p against the identity of G(M) on ``minimize_G`` round trips:
    the certificate ``minimize_G`` asks for, found by both."""
    rng = random.Random(SEED + 97)
    b = FunctorBounds((-4, 3), 4, 3)
    for data, cdga in _worlds(f):
        for m in (random_bounded_complex(data, None, rng),
                  random_bounded_complex(data, None, rng, length=2),
                  _nilpotent_complex(data)):
            res = minimize_G(m, cdga, b, certify=False)
            comp = res.into.compose(res.onto)
            assert _assert_same_homotopy(comp, ChainMap.identity(res.g_of_m)) is not None


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_an_equation_zero_equals_b_answers_none(f):
    """id ~ 0 on k alone: the complex has no degree for s to land in, so
    the system has no variable and its one equation reads 0 = 1."""
    data = _worlds(f)[0][0]
    x = UComplex.trivial(data)
    one = Matrix.identity(f, 1)
    assert map_equations(f, [(1, one, 0, None)], lambda q, i, j: None, 1, 1, one) == [
        {RHS: f.one()}]
    assert nullhomotopy(ChainMap.identity(x), ChainMap.zero(x, x)) is None
    assert oracle_nullhomotopy(ChainMap.identity(x), ChainMap.zero(x, x)) is None


def _random_n(cdga, rng, lo):
    """A random two-term cdg-module on degrees lo, lo + 1: every action and
    differential is allowed, since d(x*) and c land two degrees up."""
    f = cdga.field
    nd = {lo: rng.randint(1, 2), lo + 1: rng.randint(1, 2)}
    acts = {lo: [_random_matrix(f, rng, nd[lo + 1], nd[lo])
                 for _ in range(cdga.dual.pres.dim)]}
    n = CdgModule(cdga, (lo, lo + 1), nd, acts, {lo: _random_matrix(f, rng, nd[lo + 1], nd[lo])})
    assert n.validate() is None
    return n


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_adjunction_hom_bases_match_oracle(f):
    """The bases of Hom_{A!}(N, G(M)) that ``adjunction_report`` reads, in
    every degree of its window, on seeded (N, M)."""
    rng = random.Random(SEED + 101)
    b = FunctorBounds((-3, 3), 4, 3)
    maps = 0
    for data, cdga in _worlds(f):
        for lo, m in ((-1, random_bounded_complex(data, None, rng, length=2)),
                      (0, _nilpotent_complex(data)),
                      (1, random_bounded_complex(data, None, rng, length=2))):
            n = _random_n(cdga, rng, lo)
            g = apply_G(m, cdga, b)
            labels = hom_labels(n.dims, b.window, lambda p, q: range(g.dim(q)))
            for p in range(b.window[0], b.window[1] + 1):
                got = module_linear_hom_basis(n, g, p, labels.get(p, []))
                assert got.eq(oracle_module_linear_hom_basis(n, g, p, labels.get(p, [])))
                maps += got.cols
            assert adjunction_report(n, m, cdga, b)["ok"]
    assert maps
