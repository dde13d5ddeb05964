"""Complexes of free U-modules on sparse U columns against the dense
oracles of ``conftest``: the expanded differentials, d^2, the fiber
k ⊗_U P and the U-linear homotopy search, over Q, F_2, F_3 and F_5."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from koszul_kit.deformations import DeformationData, build_U, pbw_check
from koszul_kit.errors import InputError
from koszul_kit.freeside import (
    FreeUComplex,
    free_cone_of_map,
    free_identity_map,
    free_nullhomotopy,
    null_test_free,
)
from koszul_kit.linalg import Matrix
from koszul_kit.scalars import QQ, Field

from conftest import (
    SEED,
    dense,
    dense_free_check_d_squared,
    dense_free_entries,
    dense_free_expand,
    dense_free_fiber,
    dense_free_nullhomotopy,
    dense_u_multiply,
    labelled_cells,
    oracle_free_expand,
    raw_values,
    sparse,
    symmetric_presentation,
)

FIELDS = [QQ, Field(2), Field(3), Field(5)]


def _augmented_u(f, kind, a, b):
    """A PBW deformation with beta = 0 (so k ⊗_U - is defined) and its U:
    S(V) on 2 + (a % 2) generators, [x, y] = a x + b y, or k[x]/(x^2 - a x)."""
    if kind == "sym":
        data = DeformationData.trivial(symmetric_presentation(f, 2 + a % 2))
    elif kind == "lie2":
        data = DeformationData.from_raw(f, ["x", "y"], Matrix.from_int_rows(f, [[0, 1, -1, 0]]),
                                        Matrix.from_int_rows(f, [[-a, -b]]), [f.zero()])
    else:
        data = DeformationData.from_raw(f, ["x"], Matrix.from_int_rows(f, [[1]]),
                                        Matrix.from_int_rows(f, [[-a]]), [f.zero()])
    assert pbw_check(data).all_pass
    return build_U(data, 4)


def _column(f, terms):
    """sum c * col over (c, col) terms, as a zero-free column."""
    out = {}
    for c, col in terms:
        for k, v in col.items():
            out[k] = f.add(out.get(k, f.zero()), f.mul(c, v))
    return {k: v for k, v in out.items() if not f.is_zero(v)}


def _koszul(u):
    """The Koszul complex of k over the commutative U = S(V):
    e_S -> sum_k (-1)^k x_{S[k]} e_{S - S[k]}, in degrees -dim V..0."""
    f, d = u.field, u.data.base.dim
    subsets = [list(combinations(range(d), n)) for n in range(d + 1)]
    entries = {}
    for n in range(1, d + 1):
        rows, cols = subsets[n - 1], subsets[n]
        mat = [[{} for _ in cols] for _ in rows]
        for j, s in enumerate(cols):
            for k, g in enumerate(s):
                mat[rows.index(s[:k] + s[k + 1:])][j] = {u._basis_pos[(g,)]: f.of_int((-1) ** k)}
        entries[-n] = mat
    return FreeUComplex(u, (-d, 0), {-n: len(subsets[n]) for n in range(d + 1)}, entries)


def _random_element(u, rng):
    """A random element of U_{<=1}, often zero."""
    f = u.field
    col = {k: f.of_int(rng.choice([0, 0, 1, -1, 2])) for k in range(u.dim_leq(1))}
    return {k: v for k, v in col.items() if v}


def _random_complex(u, rng):
    """Random entries of U_{<=1} in degrees -2..0: d^2 is usually nonzero
    when degree -2 is, and zero when it is not."""
    ranks = {p: rng.randint(0 if p == -2 else 1, 2) for p in (-2, -1, 0)}
    entries = {p: [[_random_element(u, rng) for _ in range(ranks[p])]
                   for _ in range(ranks[p + 1])] for p in (-2, -1) if ranks[p]}
    return FreeUComplex(u, (-2, 0), ranks, entries)


def _perturbed_identity(fc, rng):
    """id and g = id - ((-1)^q d s - (-1)^q s d) for a random s with entries
    in U_{<=1}: s is a homotopy between them, in general not a central one."""
    f, u = fc.field, fc.u
    n = u.total_dim
    ent = dense_free_entries(fc)
    lo, hi = fc.window
    s = {q: [[dense(f, _random_element(u, rng), n) for _ in range(fc.rank(q))]
              for _ in range(fc.rank(q - 1))] for q in range(lo, hi + 2)}
    ident = free_identity_map(fc.ranks, u)
    g = {}
    for q, r in fc.ranks.items():
        sgn = f.one() if q % 2 == 0 else f.neg(f.one())
        g[q] = [[dense(f, ident[q][i][j], n) for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(r):
                for k in range(fc.rank(q - 1)):
                    prod = dense_u_multiply(u, s[q][k][j], ent[q - 1][i][k])
                    g[q][i][j] = [f.sub(x, f.mul(sgn, y)) for x, y in zip(g[q][i][j], prod)]
                for k in range(fc.rank(q + 1)):
                    prod = dense_u_multiply(u, ent[q][k][j], s[q + 1][i][k])
                    g[q][i][j] = [f.add(x, f.mul(sgn, y)) for x, y in zip(g[q][i][j], prod)]
        g[q] = [[sparse(v) for v in row] for row in g[q]]
    return ident, g


def _unimodular(f, r, rng):
    """A random g in SL_r(Z) and its inverse, as integer matrices over f."""
    g = [[int(i == j) for j in range(r)] for i in range(r)]
    ginv = [row[:] for row in g]
    for _ in range(3 * (r > 1)):
        i, j = rng.sample(range(r), 2)
        c = rng.choice([1, -1, 2])
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]        # g <- E(i, j, c) g
        for row in ginv:                                      # ginv <- ginv E(i, j, -c)
            row[j] -= c * row[i]
    return ([[f.of_int(x) for x in row] for row in g],
            [[f.of_int(x) for x in row] for row in ginv])


def _change_basis(fc, rng):
    """d_p -> g_{p+1} d_p g_p^{-1} for random unimodular g_p."""
    f = fc.field
    gs = {p: _unimodular(f, r, rng) for p, r in fc.ranks.items()}
    entries = {}
    for p, mat in fc.entries.items():
        g, ginv = gs[p + 1][0], gs[p][1]
        entries[p] = [[_column(f, [(f.mul(g[i][k], ginv[l][j]), mat[k][l])
                                   for k in range(fc.rank(p + 1)) for l in range(fc.rank(p))])
                       for j in range(fc.rank(p))] for i in range(fc.rank(p + 1))]
    return FreeUComplex(fc.u, fc.window, fc.ranks, entries)


def _same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.to_rows() == want.to_rows()


def _check_against_oracles(fc, base_level):
    """expand, check_d_squared and fiber_complex against the dense bodies,
    and every entry a zero-free column of raw values."""
    f, u = fc.field, fc.u
    for mat in fc.entries.values():
        for col in (c for row in mat for c in row):
            assert all(col.values()) and raw_values(f, col.values())
    assert fc.check_d_squared() == dense_free_check_d_squared(fc)
    want = dense_free_fiber(fc)
    fiber = fc.fiber_complex()
    assert sorted(fiber.diffs) == sorted(want)
    for p, m in want.items():
        _same(fiber.diff(p), m)
    lo, hi = fc.window
    if base_level + (hi - lo) * fc.entry_degree_bound() > u.bound:
        with pytest.raises(InputError):
            oracle_free_expand(fc, base_level)
        if fc.check_d_squared() is None:
            with pytest.raises(InputError, match="beyond U bound"):
                null_test_free(fc, base_level, fc.window)
        return
    e = fc.entry_degree_bound()
    expanded = fc.expand({p: base_level + (p - lo) * e for p in range(lo, hi + 1)})
    old = oracle_free_expand(fc, base_level)
    want = dense_free_expand(fc, base_level)
    assert sorted(expanded.diffs) == sorted(old.diffs) == sorted(want)
    assert expanded.dims == old.dims
    for p, m in want.items():
        # the old expansion is j-major and the dense one keeps its labels:
        # equal after relabelling onto the u-major labels of ``expand``
        assert sorted(expanded.labels[p]) == sorted(old.labels[p])
        cells = labelled_cells(expanded.diff(p), expanded.labels[p + 1], expanded.labels[p])
        assert cells == labelled_cells(old.diff(p), old.labels[p + 1], old.labels[p])
        assert cells == labelled_cells(m, old.labels[p + 1], old.labels[p])
        assert raw_values(f, [x for row in expanded.diff(p).to_rows() for x in row])


def _assert_homotopy(fc, fmat, gmat, s):
    """f - g = (-1)^q d s + (-1)^{q+1} s d on generators, in U, with the
    first map's entry multiplying on the left."""
    f, u = fc.field, fc.u
    n = u.total_dim
    ent = dense_free_entries(fc)
    hom = {q: [[dense(f, c, n) for c in row] for row in mat] for q, mat in s.items()}
    lo, hi = fc.window
    for q in range(lo, hi + 1):
        sgn = f.one() if q % 2 == 0 else f.neg(f.one())
        for i in range(fc.rank(q)):
            for j in range(fc.rank(q)):
                want = [f.zero()] * n
                for m, c in ((fmat, f.one()), (gmat, f.neg(f.one()))):
                    if q in m:
                        want = [f.add(x, f.mul(c, y)) for x, y in
                                zip(want, dense(f, m[q][i][j], n))]
                got = [f.zero()] * n
                for k in range(fc.rank(q - 1)):
                    prod = dense_u_multiply(u, hom[q][k][j], ent[q - 1][i][k])
                    got = [f.add(x, f.mul(sgn, y)) for x, y in zip(got, prod)]
                for k in range(fc.rank(q + 1)):
                    prod = dense_u_multiply(u, ent[q][k][j], hom[q + 1][i][k])
                    got = [f.sub(x, f.mul(sgn, y)) for x, y in zip(got, prod)]
                assert all(f.eq(x, y) for x, y in zip(got, want))


def _check_homotopy(fc, fmat, gmat, cap):
    """free_nullhomotopy against the dense search; a found s is checked."""
    f, n = fc.field, fc.u.total_dim

    def densify(maps):
        return {q: [[dense(f, c, n) for c in row] for row in mat] for q, mat in maps.items()}

    s = free_nullhomotopy(fc, fmat, gmat, degree_cap=cap)
    want = dense_free_nullhomotopy(fc, densify(fmat), densify(gmat), cap)
    if want is None:
        assert s is None
        return None
    assert densify(s) == want
    for col in (c for mat in s.values() for row in mat for c in row):
        assert all(col.values()) and raw_values(f, col.values())
    _assert_homotopy(fc, fmat, gmat, s)
    return s


@settings(max_examples=60)
@given(st.sampled_from(FIELDS), st.sampled_from(["koszul", "lie2", "x2"]),
       st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2**16))
@example(Field(3), "koszul", 0, 0, 0, 1, 0)
@example(Field(2), "koszul", 0, 0, 1, 0, 1)
@example(QQ, "lie2", 1, 1, 0, 1, 1)
def test_free_side_matches_dense_oracles(f, kind, a, b, base_level, cap, seed):
    """Random free complexes after a random unimodular change of basis: the
    Koszul complex of k over S(V), and random complexes with entries in
    U_{<=1} over a Lie algebra or k[x]/(x^2 - a x), and the cone of the
    identity of each.  Over F_p the Koszul d^2 sums x y - y x as raw
    values 1 + (p - 1), which cancel only mod p.  The identity of the cone
    is null-homotopic; that of the Koszul complex is not (H_0 = k); the
    identity is homotopic to its perturbation by a random s.  In the
    explicit [x, y] = x + y example, whose complex has d^2 = 0, that
    perturbation's cone squares to zero only with the products taken in
    the right order."""
    rng = random.Random(seed + SEED)
    u = _augmented_u(f, "sym" if kind == "koszul" else kind, a, b)
    base = _koszul(u) if kind == "koszul" else _random_complex(u, rng)
    base = _change_basis(base, rng)
    _check_against_oracles(base, base_level)
    if kind == "koszul":
        assert base.check_d_squared() is None
        assert _check_homotopy(base, free_identity_map(base.ranks, u), {}, cap) is None
    if base.check_d_squared() is None:
        ident, g = _perturbed_identity(base, rng)
        assert _check_homotopy(base, ident, g, 1) is not None
        # g is a chain map, so its cone squares to zero: in the right order
        # of the noncommuting products only
        cone_g = free_cone_of_map(base, base, g)
        _check_against_oracles(cone_g, base_level)
        assert cone_g.check_d_squared() is None
        cone = free_cone_of_map(base, base, free_identity_map(base.ranks, u))
        _check_against_oracles(cone, base_level)
        assert cone.check_d_squared() is None
        ident = free_identity_map(cone.ranks, u)
        maps = (ident, {}) if seed % 2 else ({}, ident)
        assert _check_homotopy(cone, *maps, cap) is not None


def test_free_nullhomotopy_default_cap():
    """The default cap is u.bound - entry_degree_bound(), the largest whose
    products with every entry stay within U: on the Koszul complex of k over
    S(V), dim V = 2, with U built to bound 4, it is 3.  The default equals
    the explicit cap on the identity (no homotopy, H_0 = k) and on the cone
    of the identity (a homotopy)."""
    u = _augmented_u(QQ, "sym", 0, 0)
    koszul = _koszul(u)
    assert (u.data.base.dim, u.bound, koszul.entry_degree_bound()) == (2, 4, 1)
    ident = free_identity_map(koszul.ranks, u)
    assert free_nullhomotopy(koszul, ident, {}) is None
    assert free_nullhomotopy(koszul, ident, {}, degree_cap=3) is None
    cone = free_cone_of_map(koszul, koszul, ident)
    cone_ident = free_identity_map(cone.ranks, u)
    s = free_nullhomotopy(cone, cone_ident, {})
    assert s is not None and s == free_nullhomotopy(cone, cone_ident, {}, degree_cap=3)
    _assert_homotopy(cone, cone_ident, {}, s)
