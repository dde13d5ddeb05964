"""Headline operations: CE complexes, Koszulness, Tor/Ext, minimization,
null systems, truncations, regrading."""

import functools
import random
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit import cofree, suite
from koszul_kit.cofree import (
    cofree_decomposition,
    complex_of_free_dual_modules,
    minimize_G,
    null_test_cofree,
    t_truncate,
)
from koszul_kit.complexes import (
    BaseComplex,
    CdgModule,
    ChainMap,
    UComplex,
    cone,
    homology_dims,
    nullhomotopy,
    weight_split,
)
from koszul_kit.deformations import DeformationData, build_U, build_cdga
from koszul_kit.errors import InconsistentDataError, InputError, NotCofreeError
from koszul_kit.freeside import (
    FreeUComplex,
    free_cone_of_map,
    free_identity_map,
    free_nullhomotopy,
    null_test_free,
)
from koszul_kit.functors import FunctorBounds, G_blocks, apply_G, f_free_complex
from koszul_kit.linalg import Matrix, kernel_basis, solve_matrix, zero_free
from koszul_kit.presentations import QuadraticPresentation, quadratic_dual, truncate_algebra
from koszul_kit.scalars import QQ, Field
from koszul_kit.suite import (
    HomologyReport,
    ext,
    koszul_ce_complex,
    koszulness_check,
    regrade,
    sigma_truncate,
    tor,
)

from conftest import (
    SEED,
    bigraded_from_weighted,
    direct_sum,
    heisenberg_deformation,
    oracle_free_dual_merge,
    oracle_homology_per_weight,
    oracle_homotopy_identity_holds,
    oracle_regrade,
    oracle_socle_sdr,
    oracle_sub_quotient,
    oracle_to_cofree_coordinates,
    oracle_transfer_minimal,
    pinv_cols,
    random_bounded_complex,
    symmetric_presentation,
    unit_maps_by_lines,
    weighted_from_bigraded,
)


def test_homology_reports_own_their_edge_degrees():
    a, b = HomologyReport({(0, None): 1}, (0, 1)), HomologyReport({}, (0, 1))
    a.edge_degrees.add(1)
    assert b.edge_degrees == set() and a.edge_degrees == {1}
    assert a.stabilized and b.stabilized
    c = HomologyReport({(0, None): 2, (0, 1): 1}, (-1, 1), {1}, stabilized=False)
    assert c.by_degree() == {0: 3}
    assert c.to_json() == {"entries": [[0, 1, 1], [0, None, 2]], "window": [-1, 1],
                           "edge_degrees": [1], "stabilized": False}


# -- CE complex and Tor -----------------------------------------------------------


def ce_oracle_heisenberg(qq):
    """Independent Chevalley-Eilenberg chain complex of the Heisenberg Lie
    algebra: Lambda^q(g) with the textbook differential built from the
    structure constants [x1, x2] = x3, placed in degrees -q.

    d(x_i ^ x_j) = [x_i, x_j]; d of triple products by the Leibniz rule.
    """
    f = qq
    # bases: q=1: x1,x2,x3; q=2: x12,x13,x23; q=3: x123
    d1 = Matrix.zero(f, 1, 3)                      # g -> k is zero
    d2 = Matrix.from_int_rows(f, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]).transpose()
    # rows index (x1,x2,x3): d(x12) = [x1,x2] = x3; d(x13) = d(x23) = 0
    d2 = Matrix.from_int_rows(f, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    # d(x123) = [x1,x2]^x3 - [x1,x3]^x2 + [x2,x3]^x1 = x3^x3 = 0
    d3 = Matrix.zero(f, 3, 1)
    dims = {0: 1, -1: 3, -2: 3, -3: 1}
    diffs = {-1: d1, -2: d2, -3: d3}
    from koszul_kit.complexes import BaseComplex
    return BaseComplex(f, (-3, 0), dims, diffs)


def test_tor_heisenberg_matches_ce_oracle(heis_world, qq):
    heis, u, cdga = heis_world
    oracle = ce_oracle_heisenberg(qq)
    h_oracle, _ = homology_dims(oracle, (-3, 0))
    assert [h_oracle[-p] for p in range(4)] == [1, 2, 2, 1]
    k = UComplex.trivial(heis)
    rep = tor(k, cdga, FunctorBounds((-5, 1), 5, 4))
    by = rep.by_degree()
    assert [by.get(-p, 0) for p in range(4)] == [h_oracle[-p] for p in range(4)]


def test_tor_symmetric_binomials(sym2_world, sym3, qq):
    data, u, cdga = sym2_world
    k = UComplex.trivial(data)
    rep = tor(k, cdga, FunctorBounds((-4, 1), 4, 3), cross_check=True, u=u)
    by = rep.by_degree()
    assert [by.get(-p, 0) for p in range(3)] == [1, 2, 1]
    d3 = DeformationData.trivial(sym3)
    u3, c3 = build_U(d3, 6), build_cdga(d3, 4)
    k3 = UComplex.trivial(d3)
    rep3 = tor(k3, c3, FunctorBounds((-5, 1), 5, 4))
    by3 = rep3.by_degree()
    assert [by3.get(-p, 0) for p in range(4)] == [1, 3, 3, 1]


def _bump_first_entry(m):
    """m with 1 added to its entry (0, 0): a single faulted product."""
    f = m.field
    cols = [dict(c) for c in m.columns]
    cols[0][0] = f.add(cols[0].get(0, f.zero()), f.one())
    return Matrix(f, m.rows, [zero_free(c, f.p) for c in cols])


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=repr)
def test_tor_cross_check_mismatch_is_inconsistent_data(f, monkeypatch):
    """A stray scalar in k ⊗_U FG(k)'s map from degree -1 to 0 lowers the
    second route's homology at -1, where G(k) gives Tor_1 = k^2: a
    disagreement of two computed answers, not an input error."""
    data = DeformationData.trivial(symmetric_presentation(f, 2))
    u, cdga = build_U(data, 8), build_cdga(data, 5)
    real = FreeUComplex.fiber_complex

    def faulted(self):
        cx = real(self)
        cx.diffs[-1] = _bump_first_entry(cx.diff(-1))
        return cx

    monkeypatch.setattr(FreeUComplex, "fiber_complex", faulted)
    kc = UComplex.trivial(data)
    with pytest.raises(InconsistentDataError, match=r"^tor cross-check mismatch at degree -1$"):
        tor(kc, cdga, FunctorBounds((-4, 1), 4, 3), cross_check=True, u=u)


@pytest.mark.parametrize("f", [QQ, Field(2), Field(3), Field(5)], ids=repr)
def test_tor_cross_check_reads_g_of_m_again(f):
    """k ⊗_U F_i(G(M)) keeps the labels 1 ⊗ n, and F's differential sends
    1 ⊗ n to 1 ⊗ dn plus terms off them: the fiber is G(M), dims and
    differentials, in every degree p with filtration + p >= 0, and empty
    below.  So ``tor --cross-check`` is no second route to Tor."""
    rng = random.Random(SEED + 59)
    b = FunctorBounds((-4, 1), 2, 3)
    nonzero = 0
    for data in (DeformationData.trivial(symmetric_presentation(f, 2)),
                 heisenberg_deformation(f)):
        u, cdga = build_U(data, 4), build_cdga(data, 4)
        k = UComplex.trivial(data)
        for m in (k, random_bounded_complex(data, None, rng, length=2)):
            g = apply_G(m, cdga, b)
            fib = f_free_complex(g, u, b)[0].fiber_complex()
            kept = [p for p in range(-4, 2) if b.filtration + p >= 0]
            assert fib.dims == {p: g.dim(p) for p in kept if g.dim(p)}
            assert all(fib.diff(p).eq(g.diff(p)) for p in kept if p + 1 in kept)
            nonzero += sum(not g.diff(p).is_zero() for p in kept if p + 1 in kept)
    assert nonzero


def test_tor_of_free_module_concentrated(sym2_world):
    data, u, cdga = sym2_world
    # M = U as a module: use the weight-graded truncation U_{<=2} which is a
    # genuine module; Tor_0 = fiber, higher Tor vanish in the interior for
    # the free module itself; approximate by the rank-1 free complex route
    kfree = FreeUComplex(u, (0, 0), {0: 1}, {})
    rep = null_test_free(kfree, 3, (0, 0))
    assert rep["fiber_homology"] == {0: 1}


def test_ce_complex_resolution(heis_world):
    heis, u, cdga = heis_world
    k = UComplex.trivial(heis)
    fg, eps, rep = koszul_ce_complex(k, u, cdga,
                                     FunctorBounds((-5, 1), 5, 4))
    by = rep.by_degree()
    assert by[0] == 1
    assert all(by.get(p, 0) == 0 for p in range(-4, 0))
    # the fiber of the CE complex is the CE chain complex: dims (1,3,3,1)
    g = apply_G(k, cdga, FunctorBounds((-5, 1), 5, 4))
    fib = f_free_complex(g, u, FunctorBounds((-5, 1), 5, 4))[0].fiber_complex()
    assert [fib.dim(-q) for q in range(4)] == [1, 3, 3, 1]


def test_abelian_dim2_reduces_to_koszul(sym2_world):
    data, u, cdga = sym2_world
    k = UComplex.trivial(data)
    fg, eps, rep = koszul_ce_complex(k, u, cdga,
                                     FunctorBounds((-4, 1), 4, 3))
    by = rep.by_degree()
    assert by[0] == 1 and all(by.get(p, 0) == 0 for p in range(-3, 0))


# -- Koszulness ---------------------------------------------------------------------


def test_koszulness_symmetric_and_exterior(sym3):
    assert koszulness_check(sym3, 4)["koszul_window"]
    assert koszulness_check(quadratic_dual(sym3), 4)["koszul_window"]


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=repr)
def test_strand_d_squared_failure_is_inconsistent_data(f, monkeypatch):
    """One faulted entry of strand 2's first map of S(V), dim V = 3: every
    column of the next map, x_g ⊗ x_h* -> x_g x_h ⊗ 1, is nonzero, so
    d^2 != 0.  A computed complex failed its axiom; it is not an input
    error."""
    real = suite.strand_complex

    def faulted(alg, dual, n):
        cx = real(alg, dual, n)
        if n == 2:
            cx.diffs[-2] = _bump_first_entry(cx.diff(-2))
        return cx

    monkeypatch.setattr(suite, "strand_complex", faulted)
    with pytest.raises(InconsistentDataError, match=r"^strand 2: d\^2 != 0 at degree -2$"):
        koszulness_check(symmetric_presentation(f, 3), 3)


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=repr)
def test_resolution_betti_ext3_and_heisenberg(f):
    """Betti numbers of the minimal resolution of k up to degree 6: the
    exterior algebra on 3 generators has Ext = S(V*), and the Heisenberg
    base S(V) has Ext = Λ(V*)."""
    ext3 = quadratic_dual(symmetric_presentation(f, 3))
    assert koszulness_check(ext3, 6)["ext_betti"] == {(i, i): comb(i + 2, 2) for i in range(7)}
    heis = heisenberg_deformation(f).base
    assert koszulness_check(heis, 6)["ext_betti"] == {(i, i): comb(3, i) for i in range(4)}


def test_koszulness_failure_found_by_search():
    """Randomized search over F_2, dim V = 3, for a presentation failing
    strand exactness within degree 4 (the search harness is the oracle)."""
    f2 = Field(2)
    rng = random.Random(SEED + 31)
    found = None
    for _ in range(200):
        nrel = rng.randint(1, 8)
        rows = Matrix.from_rows(f2, [[f2.of_int(rng.randrange(2)) for _ in range(9)]
                                     for _ in range(nrel)], 9)
        p = QuadraticPresentation(f2, ["a", "b", "c"], rows)
        rep = koszulness_check(p, 4)
        if not rep["koszul_window"]:
            found = (p, rep)
            break
    assert found is not None, "no non-Koszul presentation found in 200 draws"
    p, rep = found
    assert (not rep["strands_pass"]) or (not rep["ext_concentrated"])


@st.composite
def quadratic_window(draw):
    """A random quadratic presentation on dim V = 2 or 3 generators over
    Q, F_2, F_3 or F_5 (from no relations to a full row set) and a window
    degree: at most 5 for dim 2 and at most 4 for dim 3."""
    f = draw(st.sampled_from(FIELDS))
    d = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d),
                         max_size=d * d))
    rel = Matrix.from_rows(f, [[f.of_int(x) for x in r] for r in rows], d * d)
    pres = QuadraticPresentation(f, [f"x{i}" for i in range(d)], rel)
    return pres, draw(st.integers(2, 5 if d == 2 else 4))


@settings(max_examples=330)
@given(quadratic_window())
def test_koszul_verdicts_obey_the_theory(case):
    """Three consequences of Koszul duality that the verdicts must respect.
    A Koszul algebra satisfies H_A(t) H_{A!}(-t) = 1, so within a window
    where ``koszul_window`` holds, sum_i (-1)^i dim A_{m-i} dim A!_i = 0
    for 1 <= m <= n.  A is Koszul exactly when A! is, strand by strand:
    the strands of A ⊗ (A!)* and of A! ⊗ A* are dual complexes, so their
    exactness verdicts agree degree by degree.  And a PBW algebra is
    Koszul (Priddy 1970): when every rule of the truncated completion has
    a quadratic lead, the relations are a Gröbner basis through degree n,
    and ``koszul_window`` holds."""
    pres, n = case
    dual = quadratic_dual(pres)
    rep = koszulness_check(pres, n)
    assert rep["strands"] == koszulness_check(dual, n)["strands"]
    alg = truncate_algebra(pres, n)
    if all(len(lead) == 2 for lead in alg._rules):
        assert rep["koszul_window"]
    if rep["koszul_window"]:
        alg_dual = truncate_algebra(dual, n)
        for m in range(1, n + 1):
            assert sum((-1) ** i * alg.dim_at(m - i) * alg_dual.dim_at(i)
                       for i in range(m + 1)) == 0


# -- Ext ---------------------------------------------------------------------------


def test_ext_duality_dims(sym2, sym3):
    # dim Ext^i(k,k) in internal degree i equals dim A!_i
    for pres in (sym2, sym3, quadratic_dual(sym2), quadratic_dual(sym3)):
        rep = koszulness_check(pres, 4)
        dual = truncate_algebra(quadratic_dual(pres), 4)
        for i in range(5):
            assert rep["ext_betti"].get((i, i), 0) == dual.dim_at(i)


def test_ext_periodic_kx_mod_x2(qq):
    pres = QuadraticPresentation(qq, ["x"], Matrix.from_int_rows(qq, [[1]]))
    data = DeformationData.trivial(pres)
    cdga = build_cdga(data, 6)
    k = UComplex.trivial(data)
    rep = ext(k, cdga, FunctorBounds((0, 4), 4, 6))
    by = rep.by_degree()
    assert all(by[i] == 1 for i in range(4))


def test_ext_of_zero(sym2_world):
    data, u, cdga = sym2_world
    z = UComplex.of_modules(data, (0, 0), {}, {})
    rep = ext(z, cdga, FunctorBounds((0, 3), 3, 3))
    assert all(v == 0 for v in rep.by_degree().values())


# -- minimization ----------------------------------------------------------------


def test_minimize_matches_homology(sym2_world):
    data, u, cdga = sym2_world
    rng = random.Random(SEED + 41)
    b = FunctorBounds((-5, 5), 4, 3)
    for _ in range(6):
        m = random_bounded_complex(data, u, rng)
        assert m.validate() is None
        res = minimize_G(m, cdga, b)
        hm, _ = homology_dims(m, m.window)
        assert dict(res.socle_dims) == {p: d for p, d in hm.items() if d}
        # certificates
        assert res.witness_onto is not None
        comp = res.into.compose(res.onto)
        assert oracle_homotopy_identity_holds(comp, ChainMap.identity(res.g_of_m),
                                              res.witness_onto)


def test_minimize_acyclic_gives_zero(sym2_world):
    data, u, cdga = sym2_world
    f = QQ
    k = UComplex.trivial(data)
    m = UComplex.of_modules(data, (0, 1), {0: k, 1: k}, {0: Matrix.identity(f, 1)})
    res = minimize_G(m, cdga, FunctorBounds((-4, 4), 4, 3))
    assert not res.minimal.dims


def test_minimize_single_module(sym2_world):
    data, u, cdga = sym2_world
    m = UComplex.trivial(data)
    res = minimize_G(m, cdga, FunctorBounds((-4, 2), 4, 3))
    assert res.socle_dims == {0: 1}


# -- null systems -----------------------------------------------------------------


def test_null_free_cone_identity(sym2_world):
    data, u, cdga = sym2_world
    p0 = FreeUComplex(u, (0, 0), {0: 1}, {})
    cn = free_cone_of_map(p0, p0, free_identity_map({0: 1}, u))
    rep = null_test_free(cn, 3, (-1, 0))
    assert rep["in_null_system"]
    h = free_nullhomotopy(cn, free_identity_map(cn.ranks, u), {}, degree_cap=3)
    assert h is not None


def test_null_free_koszul_resolution(sym2_world):
    data, u, cdga = sym2_world
    f = QQ
    pos = u._basis_pos
    x1, x2, minus_x1 = {pos[(0,)]: f.one()}, {pos[(1,)]: f.one()}, {pos[(0,)]: f.of_int(-1)}
    K = FreeUComplex.from_entries(u, (-2, 0), {-2: 1, -1: 2, 0: 1},
                                  {-2: [[x2], [minus_x1]], -1: [[x1, x2]]})
    assert K.check_d_squared() is None
    rep = null_test_free(K, 4, (-1, -1))
    assert rep["acyclic"] and not rep["fiber_acyclic"]
    assert not rep["in_null_system"]
    assert [rep["fiber_homology"].get(-p, 0) for p in range(3)] == [1, 2, 1]


def test_null_free_zero_complex(sym2_world):
    data, u, cdga = sym2_world
    z = FreeUComplex(u, (0, 0), {}, {})
    rep = null_test_free(z, 2, (0, 0))
    assert rep["in_null_system"]


def spliced_complex(cdga, lo=-3, hi=3):
    """The complex of free modules over E(V*), dim V = 2, that splices the
    resolution of k to its coresolution; positions lo..hi of it."""
    return complex_of_free_dual_modules(cdga, *spliced_data(cdga, lo, hi))


def spliced_data(cdga, lo=-3, hi=3):
    """(ranks, entries) of ``spliced_complex``."""
    f = cdga.field
    one_e1 = {1: {0: f.one()}}
    one_e2 = {1: {1: f.one()}}
    socle = {2: {0: f.one()}}
    z = {}

    def res_mat(n):
        out = [[z for _ in range(n + 1)] for _ in range(n)]
        for i in range(n):
            out[i][i] = one_e1
            out[i][i + 1] = one_e2
        return out

    def cores_mat(n):
        out = [[z for _ in range(n)] for _ in range(n + 1)]
        for j in range(n):
            out[j][j] = one_e1
            out[j + 1][j] = one_e2
        return out

    ranks = {-3: [3] * 4, -2: [2] * 3, -1: [1] * 2, 0: [0],
             1: [-2], 2: [-3] * 2, 3: [-4] * 3}
    entries = {-3: res_mat(3), -2: res_mat(2), -1: res_mat(1),
               0: [[socle]], 1: cores_mat(1), 2: cores_mat(2)}
    return ({P: r for P, r in ranks.items() if lo <= P <= hi},
            {P: e for P, e in entries.items() if lo <= P < hi})


FIELDS = [QQ, Field(2), Field(3), Field(5)]


@functools.cache
def _deformation_and_cdga(kind, f):
    """The trivial deformation of S(V), dim 2 or 3, or the Heisenberg
    algebra over f, with its cdga to degree 4; built once per field."""
    data = (heisenberg_deformation(f) if kind == "heis"
            else DeformationData.trivial(symmetric_presentation(f, int(kind[-1]))))
    return data, build_cdga(data, 4)


def _random_linear_map(cdga, rng):
    """A two-term complex of free modules over E(V*), dim V = 2: a random
    strictly linear map F^0 -> F^1 with entries in E_1."""
    return complex_of_free_dual_modules(cdga, *_random_linear_map_data(cdga, rng))


def _random_linear_map_data(cdga, rng):
    """(ranks, entries) of ``_random_linear_map``."""
    f = cdga.field
    n0, n1, shift = rng.randint(1, 2), rng.randint(1, 2), rng.randint(-1, 2)
    entries = [[{1: zero_free({0: rng.randrange(-2, 3), 1: rng.randrange(-2, 3)}, f.p)}
                for _ in range(n0)] for _ in range(n1)]
    return {0: [shift] * n0, 1: [shift - 1] * n1}, {0: entries}


@st.composite
def cofree_candidate(draw):
    """(module, cdga, cap) for ``cofree_decomposition`` over Q, F_2, F_3
    or F_5: G(M) of a random complex of trivial modules (over S(V), dim 2
    or 3, or the Heisenberg algebra), a piece of the spliced complex or a
    random linear map of free modules; the cap is drawn, so some
    candidates fail the test.  G(M) plus a trivial line
    (the cone of a zero map) has a coinduction unit that is not injective
    when the cap stops below the top of A!."""
    f = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    source = draw(st.sampled_from(["G", "G plus a line", "spliced", "linear"]))
    if source.startswith("G"):
        data, cdga = _deformation_and_cdga(draw(st.sampled_from(["sym2", "sym3", "heis"])), f)
        m = random_bounded_complex(data, None, rng, length=draw(st.integers(1, 3)))
        module = apply_G(m, cdga, FunctorBounds((-3, 2), 3, draw(st.integers(1, 3))))
        if source == "G plus a line":
            at = draw(st.integers(-2, 2))
            line = CdgModule(cdga, (at, at), {at: 1}, {}, {})
            module = cone(ChainMap.zero(line, module))
    else:
        data, cdga = _deformation_and_cdga("sym2", f)
        if source == "spliced":
            lo = draw(st.integers(-3, 3))
            module = spliced_complex(cdga, lo, draw(st.integers(lo, 3)))
        else:
            module = _random_linear_map(cdga, rng)
    return module, cdga, draw(st.integers(1, 3))


def _unit_maps_or_error(build):
    try:
        return build(), None
    except NotCofreeError as e:
        return None, str(e)


def _assert_unit_maps_match_oracle(module, cdga, cap):
    """The stacked coinduction unit equals the per-line oracle, and both
    refuse the same candidates with the same message; returns that message."""
    got, got_err = _unit_maps_or_error(
        lambda: cofree_decomposition(module, cdga, cap).unit_maps)
    want, want_err = _unit_maps_or_error(
        lambda: unit_maps_by_lines(module, cdga, cap))
    assert got_err == want_err
    if want is not None:
        assert sorted(got) == sorted(want)
        assert all(got[p].eq(want[p]) for p in want)
    return got_err


@settings(max_examples=80)
@given(cofree_candidate())
def test_unit_maps_match_per_line_oracle(case):
    _assert_unit_maps_match_oracle(*case)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_unit_maps_match_oracle_where_the_unit_is_not_injective(f):
    """G(k^2) over E(V*), dim V = 2, is cofree; plus a trivial line in
    degree -1 it has the cofree dimension counts at cap 1, but its two top
    lines reach the socle only through degree-2 monomials."""
    data, cdga = _deformation_and_cdga("sym2", f)
    k = UComplex.trivial(data)
    g = apply_G(direct_sum(k, k), cdga, FunctorBounds((-3, 0), 3, 2))
    line = CdgModule(cdga, (0, 0), {0: 1}, {}, {})
    module = cone(ChainMap.zero(line, g))
    assert (_assert_unit_maps_match_oracle(module, cdga, 1)
            == "coinduction unit not bijective at degree -2")
    assert _assert_unit_maps_match_oracle(module, cdga, 2) == "degree -3: dim 0 != cofree count 1"
    assert _assert_unit_maps_match_oracle(g, cdga, 2) is None


def _null_verdicts(module, cdga, cap, interior):
    """``null_test_cofree`` by position on a merge, or its refusal."""
    try:
        return null_test_cofree(module, cdga, cap, interior, by_position=True)
    except NotCofreeError as err:
        return str(err)


@settings(max_examples=40)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16), st.data())
def test_free_dual_merge_is_the_old_merge_conjugated(f, seed, data):
    """Over Q, F_2, F_3 and F_5, on pieces of the spliced complex and on
    random linear maps: the merge built by ``functors.free_dual_module``
    is the old merge (``oracle_free_dual_merge``, twisted action (-1)^P)
    conjugated by the sign (-1)^{r P} on the labels (r, s, (P, j)) <->
    (P, j, r, s): the same window, dims and weights, and every d and
    action matrix.  The position null test gives the same verdicts on
    both, at guards 0 and 1 and caps 2, 3 and 4."""
    _, cdga = _deformation_and_cdga("sym2", f)
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(-3, 3))
        ranks, entries = spliced_data(cdga, lo, data.draw(st.integers(lo, 3)))
    else:
        ranks, entries = _random_linear_map_data(cdga, random.Random(seed))
    got = complex_of_free_dual_modules(cdga, ranks, entries)
    want = oracle_free_dual_merge(cdga, ranks, entries)
    assert (got.window, got.dims) == (want.window, want.dims)
    signed = {}  # p: got's coordinates -> want's, the signed permutation
    for p, labs in got.labels.items():
        old = {lab: k for k, lab in enumerate(want.free_labels[p])}
        assert sorted(old) == sorted((*v, r, s) for r, s, v in labs)
        signed[p] = Matrix(f, len(labs), [{old[(*v, r, s)]: f.neg(f.one()) if r * v[0] % 2
                                           else f.one()} for r, s, v in labs])
        assert [want.weights[p][old[(*v, r, s)]] for r, s, v in labs] == got.weights[p]
    for p, c in signed.items():
        up = signed.get(p + 1, Matrix.zero(f, 0, 0))
        assert want.diff(p).mul(c).eq(up.mul(got.diff(p)))
        for g in range(2):
            assert want.action(p, g).mul(c).eq(up.mul(got.action(p, g)))
    positions = sorted(P for P, shifts in ranks.items() if shifts)
    for cap in (2, 3, 4):
        for guard in (0, 1):
            interior = (positions[0] + guard, positions[-1] - guard)
            assert (_null_verdicts(got, cdga, cap, interior)
                    == _null_verdicts(want, cdga, cap, interior))


def test_null_cofree_spliced_separation(sym2_world):
    data, u, cdga = sym2_world
    spliced = spliced_complex(cdga)
    rep = null_test_cofree(spliced, cdga, 3, (-2, 2), by_position=True)
    assert rep["acyclic"]
    assert not rep["socle_acyclic"]
    assert not rep["in_null_system"]
    assert nullhomotopy(ChainMap.identity(spliced),
                        ChainMap.zero(spliced, spliced)) is None


def test_null_cofree_cone_identity(sym2_world):
    data, u, cdga = sym2_world
    k = UComplex.trivial(data)
    g = apply_G(k, cdga, FunctorBounds((-3, 1), 3, 3))
    cn = cone(ChainMap.identity(g))
    rep = null_test_cofree(cn, cdga, 3, (-2, 0))
    assert rep["in_null_system"]
    idc = ChainMap.identity(cn)
    hom = nullhomotopy(idc, ChainMap.zero(cn, cn))
    assert hom is not None
    assert oracle_homotopy_identity_holds(idc, ChainMap.zero(cn, cn), hom)


def test_null_cofree_rejects_non_cofree(sym2_world):
    data, u, cdga = sym2_world
    # the trivial cdg-module k is not cofree over E(V*)
    k = CdgModule(cdga, (0, 0), {0: 1}, {}, {})
    with pytest.raises(NotCofreeError):
        null_test_cofree(k, cdga, 3, (0, 0))


# -- truncations ------------------------------------------------------------------


def test_sigma_truncate_edges(heis_world):
    heis, u, cdga = heis_world
    k = UComplex.trivial(heis)
    m = UComplex.of_modules(heis, (0, 2), {0: k, 1: direct_sum(k, k), 2: k},
                            {0: Matrix.zero(QQ, 2, 1), 1: Matrix.zero(QQ, 1, 2)})
    above, below = sigma_truncate(m, 5)
    assert not above.dims and below.dims == m.dims
    above, below = sigma_truncate(m, -1)
    assert above.dims == m.dims and not below.dims
    above, below = sigma_truncate(m, 0)
    assert above.dims == {1: 2, 2: 1} and below.dims == {0: 1}


def test_t_truncate_socle_split(sym2_world):
    data, u, cdga = sym2_world
    k = UComplex.trivial(data)
    g = apply_G(k, cdga, FunctorBounds((-3, 0), 3, 3))
    # socle of G(k) is k at degree 0: cutting at 0 keeps everything
    sub, quot, restr = t_truncate(g, cdga, 0, 3)
    assert dict(sub.dims) == dict(g.dims) and not quot.dims
    sub, quot, restr = t_truncate(g, cdga, -1, 3)
    assert not sub.dims and dict(quot.dims) == dict(g.dims)


def test_socle_complex_built_once_per_module(sym2_world, monkeypatch):
    """null_test_cofree builds the socle complex of its input once;
    t_truncate builds it once for the input and once for the quotient."""
    data, u, cdga = sym2_world
    built = []
    socle_complex = CdgModule.socle_complex

    def counted(module):
        built.append(module)
        return socle_complex(module)

    monkeypatch.setattr(CdgModule, "socle_complex", counted)
    spliced = spliced_complex(cdga)
    null_test_cofree(spliced, cdga, 3, (-2, 2), by_position=True)
    assert built == [spliced]
    built.clear()
    k2 = direct_sum(UComplex.trivial(data), UComplex.trivial(data))
    m = UComplex.of_modules(data, (0, 1), {0: k2, 1: k2},
                            {0: Matrix.from_int_rows(QQ, [[0, 1], [0, 0]])})
    g = apply_G(m, cdga, FunctorBounds((-4, 3), 4, 3))
    sub, quot, restr = t_truncate(g, cdga, 0, 3)
    assert restr is not None and built == [g, quot]


def test_t_truncate_two_line_socle(sym2_world):
    data, u, cdga = sym2_world
    f = QQ
    k = UComplex.trivial(data)
    k2 = direct_sum(k, k)
    m = UComplex.of_modules(data, (0, 1), {0: k2, 1: k2},
                            {0: Matrix.from_int_rows(f, [[0, 1], [0, 0]])})
    b = FunctorBounds((-4, 3), 4, 3)
    g = apply_G(m, cdga, b)
    sub, quot, restr = t_truncate(g, cdga, 0, 3)
    # the kernel of the socle differential at 0 is 1-dimensional
    bases, _ = sub.socle_complex()
    assert {p: x.cols for p, x in bases.items() if x.cols} == {0: 1}
    assert quot.dims
    # the quotient restructures as cofree with socle in degrees >= 1
    assert restr is not None
    rbases, _ = restr.socle_complex()
    assert all(p >= 1 for p, x in rbases.items() if x.cols)


def _seeded_cuts():
    """(G(M), cdga, p_cut): seeded G(M) of random complexes of trivial
    modules over Q, F_2, F_3 and F_5 (S(V), dim 2 and 3, and the Heisenberg
    algebra), internal cap 3, with every cut of the window -2..2."""
    rng = random.Random(SEED)
    for f in FIELDS:
        for kind in ("sym2", "sym3", "heis"):
            data, cdga = _deformation_and_cdga(kind, f)
            m = random_bounded_complex(data, None, rng, length=rng.randint(2, 3))
            g = apply_G(m, cdga, FunctorBounds((-3, 2), 3, 3))
            for p_cut in range(-2, 3):
                yield g, cdga, p_cut


def test_quotient_sections_match_solved_right_inverse():
    """The quotient of a t-truncation reads its differentials and actions
    as blocks in the basis that completes the subobject's columns; a right
    inverse of the projection solved from scratch gives the same matrices (two right inverses differ by columns
    in the subobject, which d and the actions keep and the projection
    kills).  Seeded G(M) of random complexes of trivial modules over Q,
    F_2, F_3 and F_5, cut at every degree of the window."""
    captured = []

    def spy(i, sub_cols):
        out = sub_quotient(i, sub_cols)
        captured.append((i, out))
        return out

    sub_quotient = cofree._sub_quotient
    for g, cdga, p_cut in _seeded_cuts():
        with mock.patch.object(cofree, "_sub_quotient", spy):
            t_truncate(g, cdga, p_cut, 3)
    compared = 0
    for i, (_, quot, _, proj) in captured:
        f = i.field
        for p in quot.dims:
            if not quot.dim(p + 1):
                continue
            sec = pinv_cols(f, proj.map_at(p))
            to_quot = proj.map_at(p + 1)
            assert quot.diff(p).eq(to_quot.mul(i.diff(p)).mul(sec))
            for gen in range(i.num_generators()):
                assert quot.action(p, gen).eq(to_quot.mul(i.action(p, gen)).mul(sec))
            compared += 1
    assert compared >= 40


def _same_module(a, b):
    """Equal dims, and equal d and actions from every nonzero degree."""
    return a.dims == b.dims and all(
        a.diff(p).eq(b.diff(p))
        and all(a.action(p, x).eq(b.action(p, x)) for x in range(a.num_generators()))
        for p in a.dims)


def test_block_split_matches_the_solving_oracles():
    """The t-truncation split and cofree coordinates, read as blocks of one
    change of basis, give the matrices of the old per-map solves
    (``oracle_sub_quotient``, ``oracle_to_cofree_coordinates``) on every
    seeded cut: the subobject and the quotient (d and actions), the
    inclusion and the projection, the quotient in cofree coordinates, and
    the restructured quotient built on them."""
    split, coordinates = cofree._sub_quotient, cofree.to_cofree_coordinates
    calls = []

    def spy(fn):
        def run(*args):
            calls.append(args)
            return fn(*args)
        return run

    cuts = 0
    for g, cdga, p_cut in _seeded_cuts():
        calls.clear()
        with mock.patch.object(cofree, "_sub_quotient", spy(split)), \
                mock.patch.object(cofree, "to_cofree_coordinates", spy(coordinates)):
            new = t_truncate(g, cdga, p_cut, 3)
        with mock.patch.object(cofree, "_sub_quotient", oracle_sub_quotient), \
                mock.patch.object(cofree, "to_cofree_coordinates", oracle_to_cofree_coordinates):
            old = t_truncate(g, cdga, p_cut, 3)
        (i, sub_cols), (quot, dec) = calls
        got, want = split(i, sub_cols), oracle_sub_quotient(i, sub_cols)
        assert _same_module(got[0], want[0]) and _same_module(got[1], want[1])
        for a, b in zip(got[2:], want[2:]):
            assert all(a.map_at(p).eq(b.map_at(p)) for p in i.dims)
        assert _same_module(coordinates(quot, dec), oracle_to_cofree_coordinates(quot, dec))
        assert all(_same_module(a, b) for a, b in zip(new, old))
        cuts += 1
    assert cuts == 60


def _off(col):
    """A unit vector index whose line does not hold the nonzero ``col``."""
    return 0 if set(col) != {0} else 1


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=repr)
def test_sub_quotient_certificates_fire(f):
    """Each check of the split fires, on G(M) of a two-line socle complex:
    dependent columns; a column set that d does not keep; one that d keeps
    and an action does not (the old per-map solves raise the same three);
    and a subobject nonzero at p and zero at p + 1 with d nonzero on it,
    which the old body let through to the inclusion's chain-map check."""
    data, cdga = _deformation_and_cdga("sym2", f)
    k2 = direct_sum(UComplex.trivial(data), UComplex.trivial(data))
    m = UComplex.of_modules(data, (0, 1), {0: k2, 1: k2},
                            {0: Matrix.from_int_rows(f, [[0, 1], [0, 0]])})
    g = apply_G(m, cdga, FunctorBounds((-4, 3), 4, 3))
    one, d = f.one(), g.diff(0)
    moved = next(j for j, col in enumerate(d.columns) if col)
    kept, image = next((j, g.action(0, x).columns[j]) for j, col in enumerate(d.columns)
                       for x in range(g.num_generators())
                       if not col and g.action(0, x).columns[j])

    def cols(units):
        return {p: Matrix(f, g.dim(p), [{j: one} for j in js]) for p, js in units.items()}

    cases = [(cols({0: [moved, moved]}), "dependent subobject columns"),
             (cols({0: [moved], 1: [_off(d.columns[moved])]}), "subspace is not d-stable"),
             (cols({0: [kept], 1: [_off(image)]}), "subspace is not action-stable")]
    for sub_cols, msg in cases:
        for split in (cofree._sub_quotient, oracle_sub_quotient):
            with pytest.raises(InconsistentDataError, match=msg):
                split(g, sub_cols)
    unkept = cols({0: [moved]})
    with pytest.raises(InconsistentDataError, match="subspace is not d-stable"):
        cofree._sub_quotient(g, unkept)
    incl = oracle_sub_quotient(g, unkept)[2]
    assert incl.validate() == "does not commute with d at degree 0"


# -- the perturbation transfer ------------------------------------------------------


def _transfer_inputs():
    """(big, labels, socle differentials, cdga, cap) of seeded transfers:
    G(M) of random complexes of trivial modules over Q, F_2, F_3 and F_5
    at internal caps 1 to 3, and every cofree-coordinate quotient that
    t_truncate restructures on the cuts of ``_seeded_cuts``."""
    inputs = []
    rng = random.Random(SEED + 43)
    for f in FIELDS:
        for kind in ("sym2", "sym3", "heis"):
            data, cdga = _deformation_and_cdga(kind, f)
            for cap in (1, 2, 3):
                m = random_bounded_complex(data, None, rng, length=rng.randint(1, 3))
                g = apply_G(m, cdga, FunctorBounds((-3, 2), 3, cap))
                inputs.append((g, g.labels, m.diffs, cdga, cap))
    transfer = cofree.transfer_minimal

    def spy(*args):
        inputs.append(args)
        return transfer(*args)

    with mock.patch.object(cofree, "transfer_minimal", spy):
        for g, cdga, p_cut in _seeded_cuts():
            t_truncate(g, cdga, p_cut, 3)
    return inputs


def test_transfer_matches_the_sign_reading_oracle():
    """The transfer written as G on the socle SDR gives the minimal
    differentials, actions, inclusion and projection of the old body,
    which read the sign of the socle differential off big's differential;
    the sign it read is (-1)^r every time.  The homotopy terms vanish on
    these inputs (``test_minimize_where_the_homotopy_terms_matter`` covers
    them)."""
    inputs = _transfer_inputs()
    read = 0
    for big, labels, socle_diffs, cdga, cap in inputs:
        f = big.field
        res = cofree.transfer_minimal(big, labels, socle_diffs, cdga, cap)
        minimal, into, onto, eps = oracle_transfer_minimal(big, labels, socle_diffs, cdga, cap)
        assert eps == {r: f.neg(f.one()) if r % 2 else f.one() for r in eps}
        read += len(eps)
        assert res.minimal.dims == minimal.dims
        for p in range(big.window[0], big.window[1] + 1):
            assert res.minimal.diff(p).eq(minimal.diff(p))
            for g in range(minimal.num_generators()):
                assert res.minimal.action(p, g).eq(minimal.action(p, g))
            assert res.into.map_at(p).eq(into.map_at(p))
            assert res.onto.map_at(p).eq(onto.map_at(p))
    assert len(inputs) == 36 + 60 and read >= 100


def _untwisted_coordinates(module, dec):
    """``cofree.to_cofree_coordinates`` without the parity twist: the
    module conjugated by the coinduction unit as it comes."""
    dims = {p: len(labs) for p, labs in dec.labels.items()}
    diffs, actions = {}, {}
    for p, um in dec.unit_maps.items():
        um1 = dec.unit_maps.get(p + 1)
        inv = solve_matrix(um, Matrix.identity(um.field, um.rows))
        if um1 is not None and module.dim(p + 1):
            diffs[p] = um1.mul(module.diff(p)).mul(inv)
            actions[p] = [um1.mul(module.action(p, g)).mul(inv)
                          for g in range(module.num_generators())]
    out = CdgModule(module.cdga, module.window, dims, actions, diffs)
    out.labels = dec.labels
    return out


def test_dropped_parity_twist_fails_the_inclusion_certificate():
    """With the parity twist of the cofree coordinates dropped, a
    quotient's actions are -cofree_actions, and t_truncate raises from the
    inclusion's action certificate on exactly the cuts where that changes
    the quotient (not over F_2) and its minimal model is nonzero."""
    coordinates = cofree.to_cofree_coordinates
    raised = 0
    for g, cdga, p_cut in _seeded_cuts():
        restructured = t_truncate(g, cdga, p_cut, 3)[2]
        assert restructured is not None
        changed = []

        def untwisted(module, dec):
            bad, good = _untwisted_coordinates(module, dec), coordinates(module, dec)
            changed.append(any(not bad.action(p, x).eq(good.action(p, x))
                               for p in good.dims for x in range(good.num_generators())))
            return bad

        with mock.patch.object(cofree, "to_cofree_coordinates", untwisted):
            try:
                t_truncate(g, cdga, p_cut, 3)
                msg = None
            except InconsistentDataError as e:
                msg = str(e)
        if changed == [True] and restructured.dims:
            assert msg.startswith("minimal model inclusion: does not commute with action")
            raised += 1
        else:
            assert msg is None
    assert raised >= 10


def _without_sign(field, maps, src, tgt, degree=0):
    """``G_blocks`` with the sign (-1)^{degree r} dropped: G(d0) and G(h0)
    with no sign, as if G's d_M term carried none."""
    out = G_blocks(field, maps, src, tgt, degree)
    for p, labs in src.items():
        for (r, _, _), col in zip(labs, out[p].columns):
            if degree * r % 2:
                for k, c in col.items():
                    col[k] = field.neg(c)
    return out


def test_unsigned_socle_differential_fails_the_series_certificate():
    """With G(d0) and G(h0) unsigned, the rest of G(M)'s differential keeps
    2 G(d0) on odd r, which does not lower r: minimize raises from the
    series certificate on every input with d_M != 0 (over F_2 the sign is
    1 and nothing changes)."""
    rng = random.Random(SEED + 41)
    raised = 0
    for f in FIELDS:
        for kind in ("sym2", "sym3", "heis"):
            data, cdga = _deformation_and_cdga(kind, f)
            for _ in range(2):
                m = random_bounded_complex(data, None, rng)
                b = FunctorBounds((-5, 5), 4, 3)
                with mock.patch.object(cofree, "G_blocks", _without_sign):
                    if f.p == 2 or all(d.is_zero() for d in m.diffs.values()):
                        minimize_G(m, cdga, b)
                        continue
                    with pytest.raises(InconsistentDataError,
                                       match="perturbation series did not terminate"):
                        minimize_G(m, cdga, b)
                    raised += 1
    assert raised >= 10


def _faulty_sdr(fault):
    """``cofree.socle_sdr`` with one fault: the projection doubled, or the
    identity in place of the retract, which collapses nothing."""
    socle_sdr = cofree.socle_sdr

    def sdr(socle):
        hdims, i0, p0, h0 = socle_sdr(socle)
        f = socle.field
        if fault == "p0 doubled":
            p0 = {q: m.scale(f.of_int(2)) for q, m in p0.items()}
        else:
            hdims = dict(socle.dims)
            i0 = p0 = {q: Matrix.identity(f, n) for q, n in hdims.items()}
            h0 = {q: Matrix.zero(f, socle.dim(q - 1), n) for q, n in hdims.items()}
        return hdims, i0, p0, h0
    return sdr


@pytest.mark.parametrize("fault, message", [
    ("p0 doubled", "p o i != id on the minimal model"),
    ("identity SDR", "minimal model inclusion: does not commute with d"),
    ("socle differential dropped", "nonzero socle differential after minimization"),
])
@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_faulty_socle_data_fails_its_certificate(f, fault, message):
    """G(M) of k^2 -> k^2 (rank 1), minimized with one fault in the socle
    data.  A doubled projection keeps both maps chain maps but p o i = 2.
    The identity SDR keeps G(d0) out of the transferred differential.
    With the socle differential given as zero the transfer returns G(M)
    itself, a certified retract whose socle differential is not zero."""
    data, cdga = _deformation_and_cdga("sym2", f)
    k2 = direct_sum(UComplex.trivial(data), UComplex.trivial(data))
    m = UComplex.of_modules(data, (0, 1), {0: k2, 1: k2},
                            {0: Matrix.from_int_rows(f, [[0, 1], [0, 0]])})
    b = FunctorBounds((-4, 3), 4, 3)
    with pytest.raises(InconsistentDataError, match=message):
        if fault == "socle differential dropped":
            g = apply_G(m, cdga, b)
            cofree.transfer_minimal(g, g.labels, {}, cdga, b.internal)
        else:
            with mock.patch.object(cofree, "socle_sdr", _faulty_sdr(fault)):
                minimize_G(m, cdga, b)


def _nilpotent_x_complex(f):
    """(M, cdga) over the Heisenberg algebra: N -> k in degrees 0, 1, where
    x1 acts on N = k^2 by a nonzero nilpotent and x2, x3 by 0, and the map
    is the projection onto the top.  H(M) is k in degree 0.  The action
    term of G(M)'s differential is nonzero, and so are the homotopy terms
    of the transfer."""
    data, cdga = _deformation_and_cdga("heis", f)
    zero = Matrix.zero(f, 2, 2)
    n = UComplex.module(data, 2, [Matrix.from_int_rows(f, [[0, 0], [1, 0]]), zero, zero])
    m = UComplex.of_modules(data, (0, 1), {0: n, 1: UComplex.trivial(data)},
                            {0: Matrix.from_int_rows(f, [[1, 0]])})
    assert m.validate() is None
    return m, cdga


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_minimize_where_the_homotopy_terms_matter(f):
    """The transfer takes the perturbation lemma in Crainic's convention
    ip - 1 = dh + hd with h = -G(h0); on G(M) of a module with a nonzero
    action the terms h A i and p A h do not vanish, and the model passes
    every certificate and the full cdg-module axioms."""
    m, cdga = _nilpotent_x_complex(f)
    res = minimize_G(m, cdga, FunctorBounds((-4, 2), 4, 3))
    assert res.socle_dims == {0: 1}
    assert res.minimal.validate() is None
    assert oracle_homotopy_identity_holds(res.into.compose(res.onto),
                                          ChainMap.identity(res.g_of_m), res.witness_onto)
    g = res.g_of_m
    for p_cut in range(-4, 3):
        assert t_truncate(g, cdga, p_cut, 3)[2] is not None


@pytest.mark.parametrize("fault", ["old sign", "zero"])
@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_faulty_homotopy_fails_the_projection_certificate(f, fault):
    """With the homotopy of the socle SDR negated (the sign the transfer
    used before, which no G(M) of trivial modules could tell apart) or
    zero, the projection stops commuting with d; over F_2 the negated
    homotopy is the same one."""
    m, cdga = _nilpotent_x_complex(f)
    socle_sdr = cofree.socle_sdr

    def sdr(socle):
        hdims, i0, p0, h0 = socle_sdr(socle)
        h0 = {q: h.neg() if fault == "old sign" else h.scale(0) for q, h in h0.items()}
        return hdims, i0, p0, h0

    with mock.patch.object(cofree, "socle_sdr", sdr):
        if fault == "old sign" and f.p == 2:
            minimize_G(m, cdga, FunctorBounds((-4, 2), 4, 3))
            return
        with pytest.raises(InconsistentDataError,
                           match="minimal model projection: does not commute with d at degree -3"):
            minimize_G(m, cdga, FunctorBounds((-4, 2), 4, 3))


# -- regrading -------------------------------------------------------------------


def _moved(split, shift):
    """A split's keys moved (p, w) -> (p + shift * w, w), its blocks as
    dense rows."""
    dims, blocks = split
    return ({(p + shift * w, w): n for (p, w), n in dims.items()},
            {(p + shift * w, w): d.to_rows() for (p, w), d in blocks.items()})


def _bidegree_10(split):
    """Whether every block of d runs from (p, w) to (p + 1, w)."""
    dims, blocks = split
    return all(d.cols == dims.get((p, w), 0) and d.rows == dims.get((p + 1, w), 0)
               for (p, w), d in blocks.items())


def test_regrade_identity_and_roundtrip():
    f = QQ
    comps = {(0, 0): 2, (1, 1): 1, (2, 3): 1}
    x = weighted_from_bigraded(f, comps, {})
    assert _moved(regrade(x, 1), 0) == _moved(weight_split(x), 0)
    for r in (-1, 0, 1, 2):
        assert _moved(regrade(x, r), 1 - r) == _moved(weight_split(x), 0)


def test_regrade_random_roundtrips():
    rng = random.Random(SEED + 57)
    f = QQ
    for _ in range(10):
        comps = {}
        for _ in range(rng.randint(1, 5)):
            comps[(rng.randint(-3, 3), rng.randint(-3, 3))] = rng.randint(1, 3)
        diffs = {}
        for (p, q), n in list(comps.items()):
            if (p + 1, q) in comps:
                diffs[(p, q)] = Matrix.from_rows(f, [[f.of_int(rng.randrange(-2, 3))
                                                      for _ in range(n)]
                                                     for _ in range(comps[(p + 1, q)])], n)
        # force d^2 = 0 by zeroing composites
        for (p, q) in list(diffs):
            if (p + 1, q) in diffs:
                diffs[(p + 1, q)] = Matrix.zero(
                    f, comps.get((p + 2, q), 0), comps[(p + 1, q)])
        x = weighted_from_bigraded(f, comps, diffs)
        assert x.check_d_squared() is None
        for r in (-1, 0, 1, 2):
            out = regrade(x, r)
            assert _bidegree_10(out)  # differentials stay bidegree (1, 0)
            assert _moved(out, 1 - r) == _moved(weight_split(x), 0)


def test_regrade_koszul_strand_indexing(sym2_world):
    # the merged complex of graded modules regrades with r = 2 by p -> p + q
    data, u, cdga = sym2_world
    spliced = spliced_complex(cdga)
    split = weight_split(spliced)
    out = regrade(spliced, 2)
    for (p, q), n in split[0].items():
        assert out[0][(p + q, q)] == n
    assert _moved(out, -1) == _moved(split, 0)


def _weighted_complex(draw, f, moves_weight=False):
    """A random weighted complex on two to five degrees whose d keeps
    weight (d^2 = 0 or not), or, with ``moves_weight``, with one entry of d
    that joins two weights."""
    lo = draw(st.integers(min_value=-3, max_value=1))
    hi = lo + draw(st.integers(min_value=1, max_value=4))
    low = draw(st.integers(min_value=-2, max_value=1))
    weights = {p: [draw(st.integers(min_value=low, max_value=low + 1))
                   for _ in range(draw(st.integers(min_value=0, max_value=3)))]
               for p in range(lo, hi + 1)}
    entry = st.integers(min_value=-1, max_value=2)
    diffs = {p: Matrix(f, len(weights[p + 1]),
                       [zero_free({i: f.of_int(draw(entry)) for i, wi in enumerate(weights[p + 1])
                                   if wi == w}, f.p) for w in weights[p]])
             for p in range(lo, hi)}
    if moves_weight:
        pairs = [(p, i, j) for p in range(lo, hi) for i, wi in enumerate(weights[p + 1])
                 for j, wj in enumerate(weights[p]) if wi != wj]
        if pairs:
            p, i, j = draw(st.sampled_from(pairs))
            cols = [dict(c) for c in diffs[p].columns]
            cols[j][i] = f.one()
            diffs[p] = Matrix(f, diffs[p].rows, cols)
    return BaseComplex(f, (lo, hi), {p: len(w) for p, w in weights.items()}, diffs,
                       {p: w for p, w in weights.items() if w})


@settings(max_examples=150)
@given(st.sampled_from(FIELDS), st.data())
def test_weight_split_matches_the_bigraded_oracles(f, data):
    """On random weighted complexes whose d keeps weight, over Q, F_2, F_3
    and F_5: the per-weight homology of the one split equals the homology
    with one submatrix per weight block; the regraded blocks for r in {-1,
    0, 1, 2} equal the regraded BigradedComplex, key by key, and map back
    to the split; and a block with d^2 != 0 gives the same message.  A d
    that joins two weights is refused by both readers of the split."""
    x = _weighted_complex(data.draw, f)
    got, _ = homology_dims(x, x.window, per_weight=True)
    assert list(got.items()) == list(oracle_homology_per_weight(x, x.window).items())
    bg = bigraded_from_weighted(x)
    assert weight_split(x)[0] == bg.components
    for r in (-1, 0, 1, 2):
        try:
            want = oracle_regrade(bg, r)
        except InputError as err:
            with pytest.raises(InputError) as new:
                regrade(x, r)
            assert str(new.value) == str(err)
            continue
        out = regrade(x, r)
        assert out[0] == want.components
        assert {k: d.to_rows() for k, d in out[1].items()} == {
            k: d.to_rows() for k, d in want.diffs.items()}
        assert _moved(out, 1 - r) == _moved(weight_split(x), 0)
    y = _weighted_complex(data.draw, f, moves_weight=True)
    if any(y.weights.get(p + 1, [])[i] != w for p, d in y.diffs.items()
           for w, col in zip(y.weights.get(p, []), d.columns) for i in col):
        for read in (lambda: homology_dims(y, y.window, per_weight=True),
                     lambda: regrade(y, 2)):
            with pytest.raises(InconsistentDataError, match="d does not keep weight at degree"):
                read()


def _exact_complex(draw, f):
    """A random complex with d^2 = 0: each d_p is a kernel basis of d_{p+1}
    times a random matrix, from the top degree down."""
    lo = draw(st.integers(min_value=-2, max_value=1))
    hi = lo + draw(st.integers(min_value=1, max_value=4))
    dims = {p: draw(st.integers(min_value=0, max_value=4)) for p in range(lo, hi + 1)}
    entry = st.integers(min_value=-2, max_value=2)
    diffs = {}
    for p in range(hi - 1, lo - 1, -1):
        rows = dims[p + 1]
        kernel = (kernel_basis(diffs[p + 1]) if p + 1 in diffs
                  else Matrix.identity(f, rows))
        mix = Matrix.from_rows(f, [[f.of_int(draw(entry)) for _ in range(dims[p])]
                                   for _ in range(kernel.cols)], dims[p])
        diffs[p] = kernel.mul(mix)
    return BaseComplex(f, (lo, hi), dims, diffs)


@settings(max_examples=150)
@given(st.sampled_from(FIELDS), st.data())
def test_socle_sdr_matches_the_solving_oracle(f, data):
    """The SDR read as blocks of one change of basis per degree equals the
    one from a row-space basis of the boundaries and a preimage solve: the
    homology dims, i0, p0 and h0, over Q, F_2, F_3 and F_5.  Most draws have
    a nonzero homotopy."""
    x = _exact_complex(data.draw, f)
    got, want = cofree.socle_sdr(x), oracle_socle_sdr(x)
    assert got[0] == want[0]
    for new, old in zip(got[1:], want[1:]):
        assert set(new) == set(old)
        assert all(new[q].to_rows() == old[q].to_rows() for q in new)


def test_null_cofree_zero_module(sym2_world):
    data, u, cdga = sym2_world
    z = CdgModule(cdga, (0, 0), {}, {}, {})
    rep = null_test_cofree(z, cdga, 3, (0, 0))
    assert rep["in_null_system"]
