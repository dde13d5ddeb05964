"""The bimodule T, the functors F and G, adjunction, unit/counit, F'."""

import functools
import json
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from koszul_kit import cli, module_commands
from koszul_kit.complexes import (
    CdgModule,
    ChainMap,
    UComplex,
    UModule,
    cone,
    homology_dims,
    nullhomotopy,
)
from koszul_kit.cofree import minimize_G
from koszul_kit.deformations import DeformationData, build_U, build_cdga, pbw_check
from koszul_kit import functors
from koszul_kit.errors import DegreeOverflowError, InconsistentDataError, InputError
from koszul_kit.functors import (
    FunctorBounds,
    KoszulBimodule,
    adjunction_report,
    apply_F,
    apply_Fprime,
    apply_G,
    apply_G_map,
    counit,
    f_free_complex,
    gf_composite,
    hom_complex_explicit,
    unit,
)
from koszul_kit.linalg import Matrix
from koszul_kit.presentations import QuadraticPresentation, quadratic_dual
from koszul_kit.scalars import QQ, Field

from conftest import (
    SEED,
    dense,
    dense_cofree_actions,
    dense_f_differentials,
    dense_free_check_d_squared,
    dense_free_expand,
    dense_free_fiber,
    dense_gf_differentials,
    dense_hom_complex_explicit,
    dense_left_mult,
    dense_mult_basis,
    dense_u_multiply,
    heisenberg_deformation,
    labelled_cells,
    oracle_apply_F,
    oracle_apply_Fprime,
    oracle_delta,
    oracle_f_fiber,
    oracle_free_expand,
    random_bounded_complex,
    raw_values,
    sparse,
    symmetric_presentation,
    truncated_presentation,
    twopoint_deformation,
    u_product,
)


BOUNDS = FunctorBounds(window=(-5, 2), filtration=5, internal=4)


def um_trivial_complex(data):
    k = UModule.trivial(data)
    return UComplex(data, (0, 0), {0: k}, {})


def k_cdg(cdga):
    return CdgModule(cdga, (0, 0), {0: 1}, {}, {})


def test_functor_bounds_is_an_immutable_value():
    b = FunctorBounds((-5, 2), 5, 4)
    assert b == BOUNDS and hash(b) == hash(BOUNDS) and len({b, BOUNDS}) == 1
    assert b != FunctorBounds((-5, 2), 5, 3)
    assert (b.window, b.filtration, b.internal) == ((-5, 2), 5, 4)
    assert FunctorBounds((-5, 2), filtration=5, internal=4) == b
    assert repr(b) == "FunctorBounds(window=(-5, 2), filtration=5, internal=4)"
    with pytest.raises(AttributeError):
        b.filtration = 6
    with pytest.raises(AttributeError):
        b.extra = 1
    for args in (((1, 0), 2, 2), ((0, 1), -1, 2), ((0, 1), 2, -1)):
        with pytest.raises(InputError):
            FunctorBounds(*args)
    with pytest.raises(TypeError):
        FunctorBounds((0, 1), 2)


# -- the bimodule -------------------------------------------------------------


def test_bimodule_twopoint_curvature(twopoint_world):
    twop, u, cdga = twopoint_world
    t = KoszulBimodule(u, cdga)
    for r in range(3):
        assert t.check_delta_squared(1, r)
    assert t.check_right_module(1, 3)


def test_bimodule_delta_squared_zero_cases(sym2_world, heis_world):
    for (data, u, cdga) in (sym2_world, heis_world):
        t = KoszulBimodule(u, cdga)
        for r in range(2):
            assert t.check_delta_squared(2, r)
        assert t.check_right_module(2, 2)


def test_bimodule_rejects_mismatched_data(sym2_world, heis_world):
    _, u, _ = sym2_world
    _, _, cdga = heis_world
    with pytest.raises(InconsistentDataError):
        KoszulBimodule(u, cdga)


# -- F ------------------------------------------------------------------------


def test_f_of_trivial_cdg_module(sym2_world):
    data, u, cdga = sym2_world
    fc = apply_F(k_cdg(cdga), u, BOUNDS)
    # F(k) = U concentrated in degree 0 with zero differential
    assert set(fc.dims) == {0}
    assert fc.dims[0] == u.dim_leq(BOUNDS.filtration)


def test_f_of_dual_algebra_is_koszul_complex(sym2_world):
    data, u, cdga = sym2_world
    # N = A! as a dg-module over itself (d = 0): left regular actions with
    # the parity twist; supported in degrees 0..2
    f = QQ
    dual = cdga.dual
    dims = {r: dual.dim_at(r) for r in range(3)}
    acts = {}
    for r in range(2):
        acts[r] = [dense_left_mult(dual, g, r).scale(f.neg(f.one()))
                   for g in range(2)]
    n = CdgModule(cdga, (0, 2), dims, acts, {})
    assert n.validate() is None
    fc = apply_F(n, u, FunctorBounds((0, 2), 4, 4))
    h, edges = homology_dims(fc, (0, 2))
    # acyclic except at the top of the window
    assert h[0] == 0 and h[1] == 0


def test_fiber_of_f_is_socle(sym2_world):
    data, u, cdga = sym2_world
    g = apply_G(um_trivial_complex(data), cdga, BOUNDS)
    fib = f_free_complex(g, u, BOUNDS)[0].fiber_complex()
    h, _ = homology_dims(fib, (-3, 0))
    # Tor of k over S(V), dim 2: (1, 2, 1)
    assert (h[0], h[-1], h[-2]) == (1, 2, 1)


# -- G ------------------------------------------------------------------------


def test_g_of_zero_is_zero(sym2_world):
    data, u, cdga = sym2_world
    z = UComplex(data, (0, 0), {}, {})
    g = apply_G(z, cdga, BOUNDS)
    assert not g.dims


def test_g_of_twopoint_simples_matches_alternating(twopoint_world):
    twop, u, cdga = twopoint_world
    f = QQ
    for a, b in ((1, 2), (2, 1)):
        m = UModule(twop, 1, [Matrix.from_int_rows(f, [[a]])])
        g = apply_G(UComplex(twop, (0, 0), {0: m}, {}), cdga,
                    FunctorBounds((-4, 0), 2, 4))
        # alternating multipliers: a at odd dual degree, b at even
        for p in range(-4, 0):
            q = -p
            expect = a if q % 2 == 1 else b
            assert f.eq(g.diff(p).entry(0, 0), f.of_int(expect))
        assert g.validate() is None


def test_g_images_validate_on_random_complexes(sym2_world):
    data, u, cdga = sym2_world
    rng = random.Random(SEED + 9)
    f = QQ
    k = UModule.trivial(data)
    k2 = k.direct_sum(k)
    for _ in range(5):
        rows = [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)]
        # ensure d^2 = 0 by nilpotent upper triangular shape
        rows[1][0] = 0
        rows[1][1] = 0
        rows[0][0] = 0
        d = Matrix.from_int_rows(f, rows)
        m = UComplex(data, (0, 1), {0: k2, 1: k2}, {0: d})
        g = apply_G(m, cdga, BOUNDS)  # verify=True validates inside
        assert g.window == BOUNDS.window


# -- exactness and cones -------------------------------------------------------


def test_g_exact_on_componentwise_ses(sym2_world):
    data, u, cdga = sym2_world
    f = QQ
    k = UModule.trivial(data)
    k2 = k.direct_sum(k)
    n1 = UComplex(data, (0, 0), {0: k}, {})
    n2 = UComplex(data, (0, 0), {0: k2}, {})
    g1 = apply_G(n1, cdga, BOUNDS)
    g2 = apply_G(n2, cdga, BOUNDS)
    for p in g2.dims:
        assert g2.dim(p) == 2 * g1.dim(p)
    # inclusion and projection transport through G and compose to zero
    inc = ChainMap(n1, n2, {0: Matrix.from_int_rows(f, [[1], [0]])})
    prj = ChainMap(n2, n1, {0: Matrix.from_int_rows(f, [[0, 1]])})
    ginc = apply_G_map(inc, cdga, BOUNDS)
    gprj = apply_G_map(prj, cdga, BOUNDS)
    assert ginc.validate(check_actions=True) is None
    assert gprj.validate(check_actions=True) is None
    comp = gprj.compose(ginc)
    assert all(m.is_zero() for m in comp.maps.values())


def test_g_takes_cones_to_cones(sym2_world):
    """G(cone f) equals cone(G f) after the canonical basis alignment.

    The alignment carries G(M)[1] onto the shifted summand with the sign
    (-1)^r on the dual-degree-r component.
    """
    data, u, cdga = sym2_world
    f = QQ
    c = um_trivial_complex(data)
    idm = ChainMap.identity(c)
    b = FunctorBounds((-4, 2), 4, 3)
    g_cone = apply_G(cone(idm), cdga, b)
    cone_g = cone(apply_G_map(idm, cdga, b))
    gm = apply_G(c, cdga, b)
    assert {p: g_cone.dim(p) for p in g_cone.dims} == \
           {p: cone_g.dim(p) for p in cone_g.dims}

    def alignment(p):
        # columns of cone_g^p: G(c)^{p+1} labels then G(c)^p labels;
        # map onto g_cone^p coordinates (r, s, cone-part index)
        tgt = {lab: i for i, lab in enumerate(g_cone.labels.get(p, []))}
        nleft = gm.dim(p + 1)
        n = cone_g.dim(p)
        mat = [[f.zero()] * n for _ in range(g_cone.dim(p))]
        for j in range(n):
            if j < nleft:
                r, s, i = gm.labels[p + 1][j]
                sgn = f.one() if r % 2 == 0 else f.neg(f.one())
                # shifted summand of cone(c) sits at cone degree p + r = -1,
                # where the single basis vector has index 0
                mat[tgt[(r, s, 0)]][j] = sgn
            else:
                r, s, i = gm.labels[p][j - nleft]
                mat[tgt[(r, s, 0)]][j] = f.one()
        return Matrix.from_rows(f, mat, n)

    for p in sorted(g_cone.dims):
        if p + 1 not in g_cone.dims:
            continue
        lhs = alignment(p + 1).mul(cone_g.diff(p))
        rhs = g_cone.diff(p).mul(alignment(p))
        assert lhs.eq(rhs), f"differentials disagree at degree {p}"


# -- adjunction -----------------------------------------------------------------


def test_adjunction_k_k(sym2_world):
    data, u, cdga = sym2_world
    rep = adjunction_report(k_cdg(cdga), um_trivial_complex(data), cdga,
                            FunctorBounds((-3, 3), 4, 3))
    assert rep["ok"]
    # Hom(F(k), k) = Hom(U, k): one-dimensional cycle space in degree 0
    assert rep["cycle_dims"] == 1


def test_adjunction_zero(sym2_world):
    data, u, cdga = sym2_world
    z = CdgModule(cdga, (0, 0), {}, {}, {})
    rep = adjunction_report(z, um_trivial_complex(data), cdga,
                            FunctorBounds((-2, 2), 3, 3))
    assert rep["ok"] and rep["cycle_dims"] == 0


def test_adjunction_random_heisenberg_f5():
    f5 = Field(5)
    heis5 = heisenberg_deformation(f5)
    cdga = build_cdga(heis5, 4)
    rng = random.Random(SEED + 23)
    for _ in range(6):
        nd = {0: rng.randint(1, 2), 1: rng.randint(1, 2)}
        acts = {0: [Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5))
                                           for _ in range(nd[0])]
                                          for _ in range(nd[1])], nd[0])
                    for _ in range(3)]}
        diffs = {0: Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5))
                                           for _ in range(nd[0])]
                                          for _ in range(nd[1])], nd[0])}
        n = CdgModule(cdga, (0, 1), nd, acts, diffs)
        assert n.validate() is None  # two-term windows satisfy all axioms
        k = UModule.trivial(heis5)
        m = UComplex(heis5, (0, 1), {0: k, 1: k},
                     {0: Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5))]], 1)})
        assert adjunction_report(n, m, cdga, FunctorBounds((-3, 3), 4, 4))["ok"]


def _random_matrix(f, rng, rows, cols):
    return Matrix.from_rows(f, [[f.of_int(rng.randrange(f.p)) for _ in range(cols)]
                                for _ in range(rows)], cols)


def _random_n(cdga, rng, lo):
    """A random two-term cdg-module on degrees lo, lo + 1 over F_p: every
    action and differential is allowed, since d(x*) and c act by zero."""
    f = cdga.field
    nd = {lo: rng.randint(1, 2), lo + 1: rng.randint(1, 2)}
    acts = {lo: [_random_matrix(f, rng, nd[lo + 1], nd[lo])
                 for _ in range(cdga.dual.pres.dim)]}
    n = CdgModule(cdga, (lo, lo + 1), nd, acts,
                  {lo: _random_matrix(f, rng, nd[lo + 1], nd[lo])})
    assert n.validate() is None
    return n


def _random_m(data, rng, lo):
    """A random two-term complex on degrees lo, lo + 1 of k[x1, x2]-modules
    (trivial deformation of S(V), dim 2) on which x1 and x2 act by
    polynomials in one strictly lower triangular matrix, with a third such
    polynomial as the differential: every term of the U-action is nonzero
    in general."""
    f = data.field
    dim = rng.randint(1, 3)
    a = Matrix.from_rows(f, [[f.of_int(rng.randrange(f.p)) if j < i else f.zero()
                              for j in range(dim)] for i in range(dim)], dim)

    def poly():
        out, power = Matrix.zero(f, dim, dim), Matrix.identity(f, dim)
        for _ in range(3):
            out = out.add(power.scale(f.of_int(rng.randrange(f.p))))
            power = a.mul(power)
        return out

    mod = UModule(data, dim, [poly(), poly()])
    assert mod.validate() is None
    return UComplex(data, (lo, lo + 1), {lo: mod, lo + 1: mod}, {lo: poly()})


def _entries(cx, labels, twist=False):
    """The differentials' nonzero entries keyed by (p, row label, column
    label), times (-1)^r for each label of odd r when ``twist``."""
    f = cx.field
    out = {}
    for p, d in cx.diffs.items():
        for col, column in enumerate(d.columns):
            for row, c in column.items():
                src, tgt = labels[p][col], labels[p + 1][row]
                out[(p, tgt, src)] = f.neg(c) if twist and (src[0] + tgt[0]) % 2 else c
    return out


def _explicit_pairs():
    """Seeded (N, M, window) over F_5 and F_3: Heisenberg with trivial M,
    S(V) with M carrying a nonzero U-action, N on degrees -2..1."""
    rng = random.Random(SEED + 31)
    pairs = []
    for f in (Field(5), Field(3)):
        heis = heisenberg_deformation(f)
        s2 = DeformationData.trivial(symmetric_presentation(f, 2))
        hc, sc = build_cdga(heis, 4), build_cdga(s2, 4)
        k = UModule.trivial(heis)
        for lo in (-2, -1, 0, 1):
            m = UComplex(heis, (0, 1), {0: k, 1: k}, {0: _random_matrix(f, rng, 1, 1)})
            pairs.append((heis, hc, _random_n(hc, rng, lo), m))
            pairs.append((s2, sc, _random_n(sc, rng, lo), _random_m(s2, rng, rng.randint(-1, 1))))
    return pairs


def _assert_explicit_matches_oracle(n, m, window):
    cx, labels = hom_complex_explicit(n, m, window)
    old, old_labels = dense_hom_complex_explicit(n, m, window)
    assert cx.dims == old.dims
    for p, labs in labels.items():
        assert sorted(labs) == sorted((r, j, i) for r, i, j in old_labels[p])
    flipped = {p: [(r, j, i) for r, i, j in labs] for p, labs in old_labels.items()}
    ours, theirs = _entries(cx, labels), _entries(old, flipped, twist=True)
    assert ours.keys() == theirs.keys()
    assert all(cx.field.eq(c, theirs[k]) for k, c in ours.items())
    assert cx.check_d_squared() is None


def test_hom_complex_explicit_matches_oracle_sym2(sym2_world):
    data, u, cdga = sym2_world
    q = cdga.field
    k = UModule.trivial(data)
    ms = [um_trivial_complex(data),
          UComplex(data, (0, 1), {0: k.direct_sum(k), 1: k},
                   {0: Matrix.from_rows(q, [[q.one(), q.of_int(2)]], 2)})]
    ns = [k_cdg(cdga),
          CdgModule(cdga, (0, 1), {0: 1, 1: 1},
                    {0: [Matrix.identity(q, 1), Matrix.zero(q, 1, 1)]}, {}),
          CdgModule(cdga, (-1, 0), {-1: 2, 0: 1},
                    {-1: [Matrix.from_rows(q, [[q.one(), q.zero()]], 2),
                          Matrix.from_rows(q, [[q.of_int(3), q.of_int(-1)]], 2)]},
                    {-1: Matrix.from_rows(q, [[q.of_int(2), q.one()]], 2)})]
    for n in ns:
        assert n.validate() is None
        for m in ms:
            _assert_explicit_matches_oracle(n, m, (-3, 3))


def test_hom_complex_explicit_matches_oracle_seeded():
    for _, _, n, m in _explicit_pairs():
        _assert_explicit_matches_oracle(n, m, (-3, 3))


def test_adjunction_with_u_action_and_negative_degrees():
    """Seeded pairs whose M has a nonzero U-action, or whose N lives in
    negative degrees: the adjunction holds on every one."""
    for _, cdga, n, m in _explicit_pairs():
        rep = adjunction_report(n, m, cdga, FunctorBounds((-3, 3), 4, 4))
        assert rep["ok"], rep


def _nilpotent_pair(f):
    """k[x1, x2] acting on k[x1]/(x1^2), x2 by zero, in degree 0 or on a
    two-term identity; N = k --x1*--> k on degrees 0, 1 with d = 0."""
    data = DeformationData.trivial(symmetric_presentation(f, 2))
    cdga = build_cdga(data, 4)
    x1 = Matrix.from_rows(f, [[f.zero(), f.zero()], [f.one(), f.zero()]], 2)
    mod = UModule(data, 2, [x1, Matrix.zero(f, 2, 2)])
    n = CdgModule(cdga, (0, 1), {0: 1, 1: 1},
                  {0: [Matrix.identity(f, 1), Matrix.zero(f, 1, 1)]}, {})
    ms = (UComplex(data, (0, 0), {0: mod}, {}),
          UComplex(data, (0, 1), {0: mod, 1: mod}, {0: Matrix.identity(f, 2)}))
    return cdga, n, ms


def test_adjunction_with_nilpotent_u_action():
    """The solution space must be the maps with h(x* v) = -x* h(v) under
    G's twisted action: with h(x* v) = x* h(v) the differentials disagree
    here."""
    for f in (QQ, Field(5)):
        cdga, n, ms = _nilpotent_pair(f)
        for m in ms:
            rep = adjunction_report(n, m, cdga, FunctorBounds((-3, 3), 4, 3))
            assert rep == {"dims_match": True, "differentials_match": True, "iso": True,
                           "cycle_dims": rep["cycle_dims"], "ok": True}


def test_adjunction_check_fails_on_the_old_sign_convention(monkeypatch):
    """Hom_U(F(N), M) in the old convention, (-1)^r per label away from
    the one ``_G_differentials`` writes, is isomorphic but not by the
    socle evaluation: the check must see it, through N's differential
    against trivial M over the Heisenberg algebra, and through N's action
    against M with a nonzero U-action over S(V)."""
    f5 = Field(5)
    heis5 = heisenberg_deformation(f5)
    hc = build_cdga(heis5, 4)
    rng = random.Random(SEED + 37)
    n = _random_n(hc, rng, 0)
    while n.diff(0).is_zero():
        n = _random_n(hc, rng, 0)
    assert any(not a.is_zero() for a in n.actions[0])
    k = UModule.trivial(heis5)
    cases = [(hc, n, UComplex(heis5, (0, 1), {0: k, 1: k},
                              {0: _random_matrix(f5, rng, 1, 1)}))]
    sc, n2, ms = _nilpotent_pair(f5)
    cases += [(sc, n2, m) for m in ms]
    b = FunctorBounds((-3, 3), 4, 4)
    assert all(adjunction_report(n, m, cdga, b)["ok"] for cdga, n, m in cases)

    def old_convention(n, m, window):
        cx, labels = dense_hom_complex_explicit(n, m, window)
        return cx, {p: [(r, j, i) for r, i, j in labs] for p, labs in labels.items()}

    monkeypatch.setattr(functors, "hom_complex_explicit", old_convention)
    for cdga, n, m in cases:
        rep = adjunction_report(n, m, cdga, b)
        assert rep["dims_match"] and rep["iso"]
        assert rep["differentials_match"] is False and rep["ok"] is False


# -- unit / counit -----------------------------------------------------------------


@pytest.mark.parametrize("world", ["sym2_world", "heis_world"])
def test_counit_and_unit_quasi_iso(world, request):
    data, u, cdga = request.getfixturevalue(world)
    b = FunctorBounds((-5, 1), 5, 4)
    kc = um_trivial_complex(data)
    fg, eps = counit(kc, u, cdga, b)
    h, edges = homology_dims(cone(eps), (-4, 1))
    assert all(v == 0 for p, v in h.items() if p not in edges)
    gf, eta = unit(k_cdg(cdga), u, cdga, b)
    h2, edges2 = homology_dims(cone(eta), (-4, 1))
    assert all(v == 0 for p, v in h2.items() if p not in edges2)


def test_counit_on_free_module_is_homotopy_equivalence(sym2_world):
    data, u, cdga = sym2_world
    # FG(k) -> k in degree 0 only: H^0 both sides k
    kc = um_trivial_complex(data)
    fg, eps = counit(kc, u, cdga, FunctorBounds((-4, 1), 4, 3))
    h, _ = homology_dims(fg, (-3, 1))
    assert h[0] == 1 and all(h[p] == 0 for p in (-3, -2, -1, 1))


def test_triangle_identity_g_counit_unit(sym2_world, heis_world):
    from koszul_kit.functors import triangle_check
    for world in (sym2_world, heis_world):
        data, u, cdga = world
        b = FunctorBounds((-3, 1), 4, 3)
        kc = um_trivial_complex(data)
        g, comp = triangle_check(kc, u, cdga, b)
        ident = ChainMap.identity(g)
        hom = nullhomotopy(comp, ident)
        assert hom is not None


# -- F' ------------------------------------------------------------------------


def test_fprime_of_k_symmetric(sym2_world):
    data, u, cdga = sym2_world
    fp = apply_Fprime(um_trivial_complex(data), cdga,
                      FunctorBounds((0, 3), 4, 3))
    h, _ = homology_dims(fp, (0, 3))
    assert (h[0], h[1], h[2]) == (1, 2, 1)


def test_fprime_of_zero(sym2_world):
    data, u, cdga = sym2_world
    z = UComplex(data, (0, 0), {}, {})
    fp = apply_Fprime(z, cdga, FunctorBounds((0, 2), 2, 2))
    assert not fp.dims


def test_fprime_periodic_for_kx_mod_x2(qq):
    # U = k[x]/(x^2) via the trivial deformation of A = k[x]/(x^2)
    p = Matrix.from_int_rows(qq, [[1]])
    pres = QuadraticPresentation(qq, ["x"], p)
    data = DeformationData.trivial(pres)
    cdga = build_cdga(data, 6)
    fp = apply_Fprime(um_trivial_complex(data), cdga,
                      FunctorBounds((0, 4), 4, 6))
    h, _ = homology_dims(fp, (0, 4))
    assert all(h[i] == 1 for i in range(4))


@functools.cache
def _fprime_world(kind, f):
    """The deformation and its cdga to degree 4, built once per field: the
    trivial deformation of S(V), dim 2 or 3, the Heisenberg algebra
    (d_{A!} != 0) or the curved two-point algebra."""
    if kind == "heis":
        data = heisenberg_deformation(f)
    elif kind == "twopoint":
        data = twopoint_deformation(f)
    else:
        data = DeformationData.trivial(symmetric_presentation(f, int(kind[-1])))
    return data, build_cdga(data, 4)


def _fprime_or_error(build):
    try:
        return build(), None
    except DegreeOverflowError as err:
        return None, str(err)


@settings(max_examples=80)
@given(st.sampled_from([QQ, Field(2), Field(3), Field(5)]),
       st.sampled_from(["sym2", "sym3", "heis", "twopoint"]), st.integers(0, 2**16),
       st.integers(-3, 1), st.integers(0, 5))
def test_fprime_matches_its_old_formula(f, kind, seed, lo, internal):
    """Over Q, F_2, F_3 and F_5, F' through ``free_dual_module`` equals
    ``oracle_apply_Fprime``, the old formula: the same labels, every d and
    action matrix, no weights; and a product read past A!'s bound is refused by
    both with one message.  The inputs are k, a random bounded complex of
    trivial modules, a module on which x_1 acts (e_0 -> e_1) and, over the
    two-point algebra, the curved simple module."""
    data, cdga = _fprime_world(kind, f)
    rng = random.Random(seed)
    if kind == "twopoint":
        m = UComplex(data, (0, 0), {0: UModule(data, 1, [Matrix.from_int_rows(f, [[1]])])}, {})
    else:
        moved = UModule(data, 2, [Matrix.from_int_rows(f, [[0, 0], [int(g == 0), 0]])
                                  for g in range(cdga.dual.pres.dim)])
        m = rng.choice([um_trivial_complex(data), random_bounded_complex(data, None, rng),
                        UComplex(data, (1, 1), {1: moved}, {})])
    b = FunctorBounds((lo, lo + 4), 0, internal)
    want, want_err = _fprime_or_error(lambda: oracle_apply_Fprime(m, cdga, b))
    got, got_err = _fprime_or_error(lambda: apply_Fprime(m, cdga, b))
    assert got_err == want_err
    if want is None:
        return
    assert (got.window, got.dims, got.labels, got.weights) == (
        want.window, want.dims, want.labels, None)
    for p in range(lo - 1, lo + 5):
        assert got.diff(p).to_rows() == want.diff(p).to_rows()
        for g in range(cdga.dual.pres.dim):
            assert got.action(p, g).to_rows() == want.action(p, g).to_rows()


# -- balancing ------------------------------------------------------------------


def test_balancing_tensor_identity(sym2_world):
    """M ⊗_U F(N) = -F(M) ⊗_{A!} N on a small right module, by matrices.

    Both sides reduce to M ⊗ N with differential m ⊗ n -> sum (m.x_g) ⊗
    (x_g* n) + m ⊗ d(n); equality is checked entrywise.
    """
    data, u, cdga = sym2_world
    # right module M = trivial k (right actions zero); N = G(k)
    kc = um_trivial_complex(data)
    n = apply_G(kc, cdga, FunctorBounds((-3, 0), 3, 2))
    # side one: M ⊗_U F(N): kill the U part of F(N) through right-action 0,
    # which is the fiber complex of F(N)
    side1 = f_free_complex(n, u, FunctorBounds((-3, 0), 3, 2))[0].fiber_complex()
    # side two: -F(M) ⊗_{A!} N = (k ⊗ A!) ⊗_{A!} N = N with its d
    for p in side1.dims:
        assert side1.dim(p) == n.dim(p)
        if p + 1 in side1.dims:
            assert side1.diff(p).eq(n.diff(p))


def test_bimodule_exact_element_twopoint(twopoint_world):
    # delta^2(1 (x) x*) = -ab (1 (x) x*^3) with a = 1, b = 2
    twop, u, cdga = twopoint_world
    f = QQ
    t = KoszulBimodule(u, cdga)
    d1 = t.delta(0, 1)          # U_{<=0} (x) A!_1 -> U_{<=1} (x) A!_2
    d2 = t.delta(1, 2)
    comp = d2.mul(d1)
    # source is 1-dimensional: the element 1 (x) x*; target basis is
    # (u-monomials of degree <= 2) x (x*^3): expect -2 on the 1 (x) x*^3 slot
    col = [row[0] for row in comp.to_rows()]
    expected = [f.of_int(-2), f.zero()]
    assert [f.format(x) for x in col] == [f.format(x) for x in expected]


# -- generator products read off the product table ------------------------------


def _same(got, want):
    assert (got.rows, got.cols, got.to_rows()) == (want.rows, want.cols, want.to_rows())


def _dense_delta(t, level, r):
    """``KoszulBimodule.delta`` cell by cell from ``dense_mult_basis`` and
    ``dense_left_mult``."""
    f, u, dual = t.field, t.u, t.cdga.dual
    src_u = [i for i in range(u.total_dim) if len(u.basis_words[i]) <= level]
    tgt_pos = {ui: k for k, ui in enumerate(
        i for i in range(u.total_dim) if len(u.basis_words[i]) <= level + 1)}
    na, nb = dual.dim_at(r), dual.dim_at(r + 1)
    out = [[f.zero()] * (len(src_u) * na) for _ in range(len(tgt_pos) * nb)]
    d_r = t.cdga.d(r).to_rows()
    for ci, ui in enumerate(src_u):
        for a in range(na):
            for g in range(dual.pres.dim):
                uxg = dense_mult_basis(u, ui, u._basis_pos[(g,)])
                xga = [row[a] for row in dense_left_mult(dual, g, r).to_rows()]
                for ti, cu in enumerate(uxg):
                    if f.is_zero(cu):
                        continue
                    for b, ca in enumerate(xga):
                        cell = out[tgt_pos[ti] * nb + b]
                        cell[ci * na + a] = f.add(cell[ci * na + a], f.mul(cu, ca))
            for b in range(nb):
                cell = out[tgt_pos[ui] * nb + b]
                cell[ci * na + a] = f.add(cell[ci * na + a], d_r[b][a])
    return out


def test_generator_products_match_dense_oracles(sym2_world, heis_world, twopoint_world):
    """The twisted action of G(M), (GF)_i(N) and the cofree minimal model,
    the strict action of F'(M) and the bimodule delta, against the dense
    left and right multiplication matrices, over Q, F_2, F_3 and F_5.

    On the quantum plane A! = k<x, y>/(yx - 2xy) left and right products
    differ and carry powers of 2; for the Lie algebra [x, y] = y over F_5
    the two terms of delta(y ⊗ y*) sum to 5, which must reduce to 0."""
    worlds = [(*w, um_trivial_complex(w[0])) for w in (sym2_world, heis_world)]
    twop, u, cdga = twopoint_world
    simple = UModule(twop, 1, [Matrix.from_int_rows(QQ, [[1]])])  # x acts by the root 1
    worlds.append((twop, u, cdga, UComplex(twop, (0, 0), {0: simple}, {})))
    for f in (Field(2), Field(3)):
        data = heisenberg_deformation(f)
        worlds.append((data, build_U(data, 6), build_cdga(data, 5), um_trivial_complex(data)))
    for f in (QQ, Field(5)):
        plane = QuadraticPresentation(f, ["x", "y"], Matrix.from_int_rows(f, [[0, -2, 1, 0]]))
        data = DeformationData.trivial(quadratic_dual(plane))
        worlds.append((data, build_U(data, 6), build_cdga(data, 5), um_trivial_complex(data)))
    f5 = Field(5)
    data = DeformationData.from_raw(f5, ["x", "y"], Matrix.from_int_rows(f5, [[0, 1, -1, 0]]),
                                    Matrix.from_int_rows(f5, [[0, -1]]), [f5.zero()])
    worlds.append((data, build_U(data, 6), build_cdga(data, 5), um_trivial_complex(data)))
    b = FunctorBounds((-3, 1), 3, 3)
    for data, u, cdga, m in worlds:
        dual = cdga.dual
        modules = [apply_G(m, cdga, b), gf_composite(k_cdg(cdga), u, cdga, b)]
        if cdga.curvature_is_zero:
            modules.append(minimize_G(m, cdga, b, certify=False).minimal)
        for mod in modules:
            want = dense_cofree_actions(dual, mod.labels)
            assert any(r for labs in mod.labels.values() for r, *_ in labs)
            for p in mod.dims:
                for g in range(dual.pres.dim):
                    _same(mod.action(p, g), want[p][g])
                    assert raw_values(data.field,
                                      [x for row in mod.action(p, g).to_rows() for x in row])
        fp = apply_Fprime(m, cdga, b)
        for t, labs in fp.labels.items():
            tpos = {lab: i for i, lab in enumerate(fp.labels.get(t + 1, []))}
            for g in range(dual.pres.dim):
                out = [[data.field.zero()] * len(labs) for _ in range(len(tpos))]
                for col, (r, s, i) in enumerate(labs):
                    lm = dense_left_mult(dual, g, r).to_rows()
                    for s2 in range(len(lm)):
                        row = tpos.get((r + 1, s2, i))
                        if row is not None:
                            out[row][col] = lm[s2][s]
                _same(fp.action(t, g), Matrix.from_rows(data.field, out, len(labs)))
        t = KoszulBimodule(u, cdga)
        for level, r in ((0, 0), (1, 1), (2, 1), (1, 2), (2, 3)):
            got = t.delta(level, r).to_rows()
            assert got == _dense_delta(t, level, r)
            assert raw_values(data.field, [x for row in got for x in row])
            # the sparse delta(u_i ⊗ e_a) is the column of u_i ⊗ e_a
            tgt_u = [i for i in range(u.total_dim) if len(u.basis_words[i]) <= level + 1]
            src_u = [i for i in tgt_u if len(u.basis_words[i]) <= level]
            na, nb = dual.dim_at(r), dual.dim_at(r + 1)
            for ci, ui in enumerate(src_u):
                for a in range(na):
                    unit_a = {a: data.field.one()}
                    col = {(tgt_u[row // nb], row % nb): got[row][ci * na + a]
                           for row in range(len(got)) if got[row][ci * na + a]}
                    assert t._delta_elem(r, ui, unit_a) == col


# -- U products read off the sparse table ---------------------------------------


FIELDS = [QQ, Field(2), Field(3), Field(5)]


def _lie2(f, a, b, c):
    """[x, y] = a x + b y + c on two generators: PBW for every a, b, c,
    since (R⊗V) ∩ (V⊗R) = Λ^3 V is zero; curved when c != 0."""
    return DeformationData.from_raw(f, ["x", "y"], Matrix.from_int_rows(f, [[0, 1, -1, 0]]),
                                    Matrix.from_int_rows(f, [[-a, -b]]), [f.of_int(-c)])


@st.composite
def pbw_deformation(draw):
    """A random PBW deformation over Q, F_2, F_3 or F_5: U = k[x]/(x^2 -
    s x - t), a two-generator Lie algebra with a central term, the
    semidirect product k x1 ⋉ k^2 (x1 acting by a random 2x2 matrix M,
    with the central term c on [x2, x3] allowed when tr M = 0), or the
    trivial deformation of a random quadratic presentation."""
    f = draw(st.sampled_from(FIELDS))
    small = st.integers(min_value=-2, max_value=2)
    kind = draw(st.sampled_from(["x2", "lie2", "semidirect", "trivial"]))
    if kind == "x2":
        s, t = draw(small), draw(small)
        return DeformationData.from_raw(f, ["x"], Matrix.from_int_rows(f, [[1]]),
                                        Matrix.from_int_rows(f, [[-s]]), [f.of_int(-t)])
    if kind == "lie2":
        return _lie2(f, draw(small), draw(small), draw(small))
    if kind == "semidirect":
        m11, m12, m21, m22, c = (draw(small) for _ in range(5))
        if c:
            m22 = -m11
        rel = [[0, 1, 0, -1, 0, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0, -1, 0, 0],
               [0, 0, 0, 0, 0, 1, 0, -1, 0]]
        alpha = [[0, -m11, -m21], [0, -m12, -m22], [0, 0, 0]]
        return DeformationData.from_raw(f, ["x1", "x2", "x3"], Matrix.from_int_rows(f, rel),
                                        Matrix.from_int_rows(f, alpha),
                                        [f.zero(), f.zero(), f.of_int(-c)])
    pres, _ = draw(truncated_presentation([f]))
    return DeformationData.trivial(pres)


def _random_cdg_module(cdga, window, rng):
    """A CdgModule with random sparse actions and differentials, axioms
    unchecked: F and (GF)_i read only its matrices."""
    f = cdga.field
    lo, hi = window
    dims = {p: rng.randint(1, 2) for p in range(lo - 1, hi + 4)}

    def mat(p):
        return Matrix.from_int_rows(f, [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(dims[p])]
                                        for _ in range(dims[p + 1])])

    actions = {p: [mat(p) for _ in range(cdga.dual.pres.dim)] for p in range(lo - 1, hi + 3)}
    diffs = {p: mat(p) for p in range(lo - 1, hi + 3)}
    return CdgModule(cdga, window, dims, actions, diffs)


def _check_u_products(data, rng):
    """U's sparse product table and every reader of it against the dense
    oracles, with the raw-value invariant on each stored value."""
    f = data.field
    assert pbw_check(data).all_pass
    u, cdga = build_U(data, 3), build_cdga(data, 3, check=False)
    words = u.basis_words
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if len(wi) + len(wj) > u.bound:
                with pytest.raises(InputError):
                    u.mult_basis(i, j)
                continue
            col = u.mult_basis(i, j)
            assert all(col.values()) and raw_values(f, col.values())
            assert [col.get(k, f.zero()) for k in range(u.total_dim)] == dense_mult_basis(u, i, j)
    # products of elements, zero vectors included, with |a| + |b| within the bound
    for top in range(u.bound + 1):
        n_a, n_b = u.dim_leq(top), u.dim_leq(u.bound - top)
        for a_nz, b_nz in ((0, n_b), (n_a, 0), (n_a, n_b)):
            a = [f.of_int(rng.choice([0, 1, -1, 2])) if k < a_nz else f.zero()
                 for k in range(u.total_dim)]
            b = [f.of_int(rng.choice([0, 1, -1, 2])) if k < b_nz else f.zero()
                 for k in range(u.total_dim)]
            got = u_product(u, sparse(a), sparse(b))
            assert dense(f, got, u.total_dim) == dense_u_multiply(u, a, b)
            assert all(got.values()) and raw_values(f, got.values())
    # F and (GF)_i on a random module
    b = FunctorBounds((-2, 1), 1, 2)
    n = _random_cdg_module(cdga, b.window, rng)
    fc = apply_F(n, u, b, verify=False)
    gf = gf_composite(n, u, cdga, b, verify=False)
    for got, want in ((fc, dense_f_differentials(n, u, fc.labels)),
                      (gf, dense_gf_differentials(n, u, cdga, gf.labels))):
        assert sorted(got.diffs) == sorted(p for p, m in want.items() if m.rows and m.cols)
        for p, m in want.items():
            _same(got.diff(p), m)
            assert raw_values(f, [x for row in got.diff(p).to_rows() for x in row])
    # the bimodule delta and delta(u_i ⊗ a) for a random a
    t = KoszulBimodule(u, cdga)
    dual = cdga.dual
    for level in range(u.bound):
        for r in range(dual.bound):
            got = t.delta(level, r).to_rows()
            want = _dense_delta(t, level, r)
            assert got == want and raw_values(f, [x for row in got for x in row])
            na, nb = dual.dim_at(r), dual.dim_at(r + 1)
            tgt_u = [i for i in range(u.total_dim) if len(words[i]) <= level + 1]
            for ci, ui in enumerate(i for i in tgt_u if len(words[i]) <= level):
                avec = [f.of_int(rng.choice([0, 1, -1, 2])) for _ in range(na)]
                col = {}
                for row in range(len(want)):
                    v = f.zero()
                    for a, ca in enumerate(avec):
                        v = f.add(v, f.mul(ca, want[row][ci * na + a]))
                    if not f.is_zero(v):
                        col[(tgt_u[row // nb], row % nb)] = v
                elem = t._delta_elem(r, ui, sparse(avec))
                assert elem == col and raw_values(f, elem.values())


@settings(max_examples=60)
@given(pbw_deformation(), st.integers(min_value=0, max_value=2**16))
@example(_lie2(Field(5), 0, 1, 0), 0)
def test_u_products_match_dense_oracles(data, seed):
    """``mult_basis`` (densified), ``multiply``, the differentials of F and
    (GF)_i, ``delta`` and ``_delta_elem`` against the dense oracles on
    random PBW deformations over Q, F_2, F_3 and F_5.  The example is
    [x, y] = y over F_5, where raw sums such as 5 y must reduce to 0."""
    _check_u_products(data, random.Random(seed + SEED))


# -- F(N) as N's free complex, against the old builders ---------------------------


_FREE_WORLDS = {}


def _free_worlds(f):
    """(name, U, cdga) for symmetric2, Heisenberg and twopoint over f, and
    ``gk`` of symmetric2.json read over f with its own U and cdga."""
    got = _FREE_WORLDS.get(f.p)
    if got is None:
        worlds = []
        for name, data in (("sym2", DeformationData.trivial(symmetric_presentation(f, 2))),
                           ("heis", heisenberg_deformation(f)),
                           ("twop", twopoint_deformation(f))):
            worlds.append((name, build_U(data, 4), build_cdga(data, 4)))
        with open(os.path.join(os.path.dirname(__file__), "..", "examples_cli",
                               "symmetric2.json")) as fh:
            raw = json.load(fh)
        raw["field"] = {"type": "Q"} if f.p is None else {"type": "Fp", "p": f.p}
        problem = cli.Problem(raw)
        gk = (problem.u_truncation(4), module_commands.named_cdg_module(problem, "gk", 4))
        got = _FREE_WORLDS[f.p] = (worlds, gk)
    return got


def _same_columns(got, want):
    """Equal matrices, column dict for column dict, key order included."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert [list(c.items()) for c in got.columns] == [list(c.items()) for c in want.columns]


def _check_free_F(n, u, b, valid):
    """F(N) against the old ``apply_F`` (column dicts in order) and the
    dense cells; both fibers against the old fiber of F and the dense one;
    the expansion against the j-major one, relabelled, where the entry
    degree is 1; and the entry-level d^2 against its dense oracle."""
    f = u.field
    got = apply_F(n, u, b, verify=valid)
    old = oracle_apply_F(n, u, b)
    assert (got.labels, got.dims, sorted(got.diffs)) == (old.labels, old.dims, sorted(old.diffs))
    dense_diffs = dense_f_differentials(n, u, got.labels)
    for p in old.diffs:
        _same_columns(got.diff(p), old.diff(p))
        assert got.diff(p).to_rows() == dense_diffs[p].to_rows()
        assert raw_values(f, [x for row in got.diff(p).to_rows() for x in row])
    free, levels = f_free_complex(n, u, b)
    assert free.expand(levels).labels == got.labels
    assert free.check_d_squared() == dense_free_check_d_squared(free)
    if valid:
        assert free.check_d_squared() is None
    if u.data.beta.is_zero():
        fib, old_fib = free.fiber_complex(), oracle_f_fiber(old, u)
        assert fib.dims == old_fib.dims == {p: n.dim(p) for p in levels if n.dim(p)}
        want = dense_free_fiber(free)
        assert sorted(fib.diffs) == sorted(want)
        for p in fib.dims:
            assert fib.diff(p).eq(old_fib.diff(p))
            if p in want:
                assert fib.diff(p).to_rows() == want[p].to_rows()
    if free.entry_degree_bound() == 1:
        base = b.filtration + b.window[0]
        jmajor, dense_j = oracle_free_expand(free, base), dense_free_expand(free, base)
        assert jmajor.dims == got.dims
        for p in got.diffs:
            cells = labelled_cells(got.diff(p), got.labels[p + 1], got.labels[p])
            assert cells == labelled_cells(jmajor.diff(p), jmajor.labels[p + 1], jmajor.labels[p])
            assert cells == labelled_cells(dense_j[p], jmajor.labels[p + 1], jmajor.labels[p])
    return got


@settings(max_examples=40)
@given(st.sampled_from(FIELDS), st.integers(min_value=0, max_value=2**16))
def test_free_complex_matches_the_old_builders(f, seed):
    """One free U-complex for F, delta and (GF)_i over Q, F_2, F_3 and F_5:
    F(N) on G of random bounded U-complexes and on ``gk``, and on a random
    cdg-module with a differential (axioms unchecked), against the old
    ``apply_F`` and its fiber, the j-major expansion and the dense cells;
    T's delta at several (level, r) on symmetric2, Heisenberg and twopoint
    against its old body and the dense cells; (GF)_i of the random module
    against its dense oracle."""
    rng = random.Random(seed + SEED)
    worlds, (gk_u, gk) = _free_worlds(f)
    b = FunctorBounds((-4, 1), 2, 3)
    _check_free_F(gk, gk_u, FunctorBounds((-3, 1), 2, 3), True)
    for name, u, cdga in worlds:
        if name != "twop":
            m = random_bounded_complex(u.data, None, rng, length=rng.randint(1, 3))
            _check_free_F(apply_G(m, cdga, b), u, b, True)
        n = _random_cdg_module(cdga, b.window, rng)
        _check_free_F(n, u, b, False)
        gf = gf_composite(n, u, cdga, b, verify=False)
        want = dense_gf_differentials(n, u, cdga, gf.labels)
        assert sorted(gf.diffs) == sorted(p for p, m in want.items() if m.rows and m.cols)
        for p, m in want.items():
            _same(gf.diff(p), m)
        t = KoszulBimodule(u, cdga)
        for level, r in ((0, 0), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
            got = t.delta(level, r)
            _same_columns(got, oracle_delta(t, level, r))
            assert got.to_rows() == _dense_delta(t, level, r)
