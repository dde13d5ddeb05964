"""Acceptance criteria, one test per criterion, exact tolerances.

Every check here is exact (field equality, integer dimensions); the only
stated tolerances are wall-clock budgets, asserted where the criterion
pins one.  Each test prints a single PASS line on success so the suite
doubles as a release report under ``pytest -s``.
"""

import random
import time

import pytest

from koszul_kit.cofree import (
    complex_of_free_dual_modules,
    minimize_G,
    null_test_cofree,
)
from koszul_kit.complexes import (
    CdgModule,
    ChainMap,
    UComplex,
    cone,
    homology_dims,
    homotopy_identity_holds,
    nullhomotopy,
    weight_split,
)
from koszul_kit.deformations import (
    DeformationData,
    build_U,
    build_cdga,
    pbw_check,
    vanishing_witness,
)
from koszul_kit.errors import KoszulKitError
from koszul_kit.freeside import (
    FreeUComplex,
    free_cone_of_map,
    free_identity_map,
    free_nullhomotopy,
    null_test_free,
)
from koszul_kit.functors import (
    FunctorBounds,
    KoszulBimodule,
    adjunction_report,
    apply_G,
    counit,
    unit,
)
from koszul_kit.linalg import Matrix
from koszul_kit.presentations import (
    QuadraticPresentation,
    double_dual_check,
    quadratic_dual,
    truncate_algebra,
)
from koszul_kit.scalars import QQ, Field
from koszul_kit.suite import (
    koszulness_check,
    regrade,
    tor,
)

from conftest import (
    SEED,
    direct_sum,
    heisenberg_deformation,
    symmetric_presentation,
    weighted_from_bigraded,
)


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_quadratic_dual():
    t0 = time.time()
    f = QQ
    for dim, expect in ((2, 3), (3, 6)):
        p = symmetric_presentation(f, dim)
        dual = quadratic_dual(p)
        assert p.num_relations == (1 if dim == 2 else 3)
        assert dual.num_relations == expect
        e = truncate_algebra(dual, dim + 1)
        assert list(e.dims) == [_binom(dim, i) for i in range(dim + 2)]
    f5 = Field(5)
    rng = random.Random(SEED + 101)
    for _ in range(50):
        d = rng.randint(1, 3)
        nrel = rng.randint(0, d * d)
        rows = Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5)) for _ in range(d * d)]
                                     for _ in range(nrel)], d * d)
        p = QuadraticPresentation(f5, [f"x{i}" for i in range(d)], rows)
        assert double_dual_check(p, 3)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"
    report(1, f"S(V) -> E(V*) dims and 50 random double duals ({elapsed:.1f}s)")


def _binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_criterion_02_pbw_cdga_equivalence():
    t0 = time.time()
    f3 = Field(3)
    rng = random.Random(SEED + 202)
    rel = Matrix.from_int_rows(f3, [
        [0, 1, 0, 2, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 2, 0]])
    passing = 0
    cases = []
    for _ in range(100):
        alpha = Matrix.from_rows(f3, [[f3.of_int(rng.randrange(3)) for _ in range(3)]
                                      for _ in range(3)], 3)
        beta = [f3.of_int(rng.randrange(3)) for _ in range(3)]
        cases.append((alpha, beta))
    # seeded PBW instances keep the passing branch exercised
    cases.append((Matrix.from_int_rows(f3, [[0, 0, 2], [0, 0, 0], [0, 0, 0]]),
                  [f3.zero()] * 3))                       # Heisenberg over F_3
    cases.append((Matrix.zero(f3, 3, 3), [f3.zero()] * 3))  # abelian
    cases.append((Matrix.zero(f3, 3, 3), [f3.one(), f3.zero(), f3.zero()]))
    passing_deformations = []
    for alpha, beta in cases:
        data = DeformationData.from_raw(f3, ["x", "y", "z"], rel, alpha, beta)
        bg = pbw_check(data).all_pass
        try:
            build_cdga(data, 4)
            built = True
        except KoszulKitError:
            built = False
        assert bg == built, "Positselski and Braverman-Gaitsgory disagree"
        if bg:
            passing += 1
            passing_deformations.append(data)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over budget"
    assert passing >= 2
    test_criterion_02_pbw_cdga_equivalence.passing = passing_deformations
    report(2, f"100 random + 3 seeded deformations over F_3 agree on both "
              f"routes, {passing} of PBW type ({elapsed:.1f}s)")


def test_criterion_03_golden_twopoint(twopoint_world):
    twop, u, cdga = twopoint_world
    f = QQ
    assert f.eq(cdga.curvature[0], f.of_int(2))
    for n in range(1, 5):
        v = cdga.d(n).entry(0, 0)
        assert f.eq(v, f.of_int(-3)) if n % 2 == 1 else f.is_zero(v)
    # G(k_1) is the alternating .1x* / .2x* complex
    k1 = UComplex.module(twop, 1, [Matrix.from_int_rows(f, [[1]])])
    g = apply_G(k1, cdga, FunctorBounds((-4, 0), 2, 4))
    for p in range(-4, 0):
        q = -p
        expect = 1 if q % 2 == 1 else 2
        assert f.eq(g.diff(p).entry(0, 0), f.of_int(expect))
    assert g.validate() is None   # includes d^2 = c-action
    report(3, "k[x]/(x^2-3x+2): c = 2x*^2, alternating d, G(k_1) exact match")


def test_criterion_04_vanishing(heis, twopoint):
    passing = getattr(test_criterion_02_pbw_cdga_equivalence, "passing", [])
    for data in passing:
        assert vanishing_witness(data)
    assert vanishing_witness(heis)
    assert vanishing_witness(twopoint)
    report(4, f"vanishing lemma on {len(passing)} PBW deformations "
              "plus Heisenberg and k[x]")


def test_criterion_05_bimodule_curvature(twopoint_world, heis_world, sym2_world):
    f = QQ
    # k[x] example: delta^2 = -(.c) for filtration <= 6, internal <= 6
    twop, u2, c2 = twopoint_world
    u2b = build_U(twop, 8)
    c2b = build_cdga(twop, 8)
    t = KoszulBimodule(u2b, c2b)
    for lev in range(0, 7):
        for r in range(0, 7):
            if lev + 2 <= u2b.bound and r + 2 <= c2b.bound:
                assert t.check_delta_squared(lev, r)
    # Heisenberg and S/E data: delta^2 = 0 (c = 0)
    for world in (heis_world, sym2_world):
        data, u, cdga = world
        t = KoszulBimodule(u, cdga)
        for lev in (0, 2, 4, 6):
            for r in range(0, min(6, cdga.bound - 2) + 1):
                if lev + 2 <= u.bound:
                    assert t.check_delta_squared(lev, r)
    # E(V*) as the base algebra, S-side dual
    e_pres = quadratic_dual(symmetric_presentation(f, 2))
    e_data = DeformationData.trivial(e_pres)
    ue = build_U(e_data, 8)
    ce = build_cdga(e_data, 8)
    te = KoszulBimodule(ue, ce)
    for lev in (0, 3, 6):
        for r in (0, 3, 6):
            assert te.check_delta_squared(lev, r)
    report(5, "delta^2 = -(.c) on k[x], = 0 on Heisenberg, S(V) and E(V*) "
              "within filtration/internal <= 6")


@pytest.fixture(scope="module")
def sym3_world():
    data = DeformationData.trivial(symmetric_presentation(QQ, 3))
    return data, build_U(data, 8), build_cdga(data, 5)


def test_criterion_06_quasi_isomorphisms(sym2_world, sym3_world, heis_world):
    b = FunctorBounds(window=(-6, 1), filtration=6, internal=5)
    for name, world in (("S(V) dim 2", sym2_world), ("S(V) dim 3", sym3_world),
                        ("Heisenberg", heis_world)):
        data, u, cdga = world
        t0 = time.time()
        fg, eps = counit(UComplex.trivial(data), u, cdga, b)
        h, _ = homology_dims(cone(eps), (-6, 1))
        # guard band 2: interior degrees [-4, -1]
        assert all(h[p] == 0 for p in range(-4, 0)), name
        assert h[0] == 0  # the counit cone is exact at 0 as well
        kcdg = CdgModule(cdga, (0, 0), {0: 1}, {}, {})
        gf, eta = unit(kcdg, u, cdga, b)
        h2, _ = homology_dims(cone(eta), (-6, 1))
        assert all(h2[p] == 0 for p in range(-4, 0)), name
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"{name}: {elapsed:.1f}s over budget"
    report(6, "counit and unit cones acyclic in the interior of [-6, 1], "
              "guard band 2, for S(V) dims 2, 3 and Heisenberg")


def test_criterion_07_chevalley_eilenberg(heis_world, sym2_world, sym3_world, qq):
    heis, uh, ch = heis_world
    # independent CE oracle: Lambda^q g with d(x1^x2) = x3, everything else 0
    from koszul_kit.complexes import BaseComplex
    oracle = BaseComplex(qq, (-3, 0), {0: 1, -1: 3, -2: 3, -3: 1},
                         {-1: Matrix.zero(qq, 1, 3),
                          -2: Matrix.from_int_rows(qq, [[0, 0, 0], [0, 0, 0],
                                                        [1, 0, 0]]),
                          -3: Matrix.zero(qq, 3, 1)})
    h_oracle, _ = homology_dims(oracle, (-3, 0))
    k = UComplex.trivial(heis)
    rep = tor(k, ch, FunctorBounds((-5, 1), 5, 4))
    by = rep.by_degree()
    tor_dims = [by.get(-p, 0) for p in range(4)]
    assert tor_dims == [h_oracle[-p] for p in range(4)] == [1, 2, 2, 1]
    for dim, world in ((2, sym2_world), (3, None)):
        if world is None:
            data = DeformationData.trivial(symmetric_presentation(qq, dim))
            cdga = build_cdga(data, 5)
        else:
            data, _, cdga = world
        rep = tor(UComplex.trivial(data), cdga, FunctorBounds((-5, 1), 5, 4))
        by = rep.by_degree()
        assert [by.get(-p, 0) for p in range(dim + 1)] == \
               [_binom(dim, p) for p in range(dim + 1)]
    report(7, "Tor(Heisenberg, k) = (1,2,2,1) against the direct CE oracle; "
              "Tor(S(V), k) binomial")


def test_criterion_08_ext_duality(sym2, sym3):
    for pres in (sym2, sym3, quadratic_dual(sym2), quadratic_dual(sym3)):
        rep = koszulness_check(pres, 4)
        dual = truncate_algebra(quadratic_dual(pres), 4)
        for i in range(5):
            assert rep["ext_betti"].get((i, i), 0) == dual.dim_at(i)
            assert all(deg == step for (step, deg) in rep["ext_betti"]
                       if rep["ext_betti"][(step, deg)])
    report(8, "dim Ext^i(k,k) concentrated in internal degree i and equal to "
              "dim A!_i for S(V), E(V*), dims 2 and 3, i <= 4")


def test_criterion_09_null_system_separation(sym2_world):
    data, u, cdga = sym2_world
    f = QQ
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

    spliced = complex_of_free_dual_modules(
        cdga,
        {-3: [3] * 4, -2: [2] * 3, -1: [1] * 2, 0: [0],
         1: [-2], 2: [-3] * 2, 3: [-4] * 3},
        {-3: res_mat(3), -2: res_mat(2), -1: res_mat(1),
         0: [[socle]], 1: cores_mat(1), 2: cores_mat(2)})
    rep = null_test_cofree(spliced, cdga, 3, (-2, 2), by_position=True)
    assert rep["acyclic"] is True
    assert rep["socle_acyclic"] is False
    assert rep["in_null_system"] is False
    assert nullhomotopy(ChainMap.identity(spliced),
                        ChainMap.zero(spliced, spliced)) is None
    # cone(id) on the free U-side is in the null system with a witness
    p0 = FreeUComplex(u, (0, 0), {0: 1}, {})
    cn = free_cone_of_map(p0, p0, free_identity_map({0: 1}, u))
    repf = null_test_free(cn, 3, (-1, 0))
    assert repf["in_null_system"] is True
    wit = free_nullhomotopy(cn, free_identity_map(cn.ranks, u), {}, degree_cap=3)
    assert wit is not None
    # cone(id) on the cofree side likewise, with a module-linear witness
    g = apply_G(UComplex.trivial(data), cdga, FunctorBounds((-3, 1), 3, 3))
    cng = cone(ChainMap.identity(g))
    repc = null_test_cofree(cng, cdga, 3, (-2, 0))
    assert repc["in_null_system"] is True
    idc, zc = ChainMap.identity(cng), ChainMap.zero(cng, cng)
    hom = nullhomotopy(idc, zc)
    assert hom is not None and homotopy_identity_holds(idc, zc, hom)
    report(9, "spliced E-complex: acyclic, socle test fails, not null, "
              "no homotopy; cone(id) null with witnesses on both sides")


def test_criterion_10_minimization(sym2_world):
    t0 = time.time()
    data, u, cdga = sym2_world
    rng = random.Random(SEED + 1010)
    b = FunctorBounds((-6, 6), 4, 3)
    f = QQ
    k = UComplex.trivial(data)
    for trial in range(25):
        length = rng.randint(1, 4)
        dims = [rng.randint(1, 2) for _ in range(length)]
        mods = {}
        for p, n in enumerate(dims):
            m = k
            for _ in range(n - 1):
                m = direct_sum(m, k)
            mods[p] = m
        diffs = {}
        prev = None
        for p in range(length - 1):
            while True:
                d = Matrix.from_rows(f, [[f.of_int(rng.randrange(-2, 3))
                                          for _ in range(dims[p])]
                                         for _ in range(dims[p + 1])], dims[p])
                if prev is None or d.mul(prev).is_zero():
                    break
            diffs[p] = d
            prev = d
        m = UComplex.of_modules(data, (0, length - 1), mods, diffs)
        res = minimize_G(m, cdga, b)
        hm, _ = homology_dims(m, m.window)
        assert dict(res.socle_dims) == {p: d for p, d in hm.items() if d}
        # socle differential of the minimal model is zero
        _, socle = res.minimal.socle_complex()
        assert all(mm.is_zero() for mm in socle.diffs.values())
        # round-trip certificates
        comp = res.into.compose(res.onto)
        assert homotopy_identity_holds(comp, ChainMap.identity(res.g_of_m),
                                       res.witness_onto)
        back = res.onto.compose(res.into)
        for p in res.minimal.dims:
            assert back.map_at(p).eq(Matrix.identity(f, res.minimal.dim(p)))
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over budget"
    report(10, f"25 random minimizations: socle = homology, zero socle "
               f"differential, certificates exact ({elapsed:.1f}s)")


def test_criterion_11_adjunction():
    f5 = Field(5)
    heis5 = heisenberg_deformation(f5)
    cdga5 = build_cdga(heis5, 4)
    s2 = DeformationData.trivial(symmetric_presentation(f5, 2))
    cdga2 = build_cdga(s2, 4)
    rng = random.Random(SEED + 1111)
    checked = 0
    for trial in range(50):
        if trial % 2 == 0:
            data, cdga, ngen = heis5, cdga5, 3
        else:
            data, cdga, ngen = s2, cdga2, 2
        nd = {0: rng.randint(1, 2), 1: rng.randint(1, 2)}
        acts = {0: [Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5))
                                           for _ in range(nd[0])] for _ in range(nd[1])], nd[0])
                    for _ in range(ngen)]}
        diffs = {0: Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5))
                                           for _ in range(nd[0])] for _ in range(nd[1])], nd[0])}
        n = CdgModule(cdga, (0, 1), nd, acts, diffs)
        assert n.validate() is None
        k = UComplex.trivial(data)
        m = UComplex.of_modules(data, (0, 1), {0: k, 1: k},
                                {0: Matrix.from_rows(f5, [[f5.of_int(rng.randrange(5))]], 1)})
        rep = adjunction_report(n, m, cdga, FunctorBounds((-3, 3), 4, 4))
        assert rep["ok"]
        checked += 1
    assert checked == 50
    # hand-built instances with hand-enumerated morphism sets
    q = QQ
    s2q = DeformationData.trivial(symmetric_presentation(q, 2))
    cq = build_cdga(s2q, 4)
    b = FunctorBounds((-3, 3), 4, 3)
    kc = UComplex.trivial(s2q)
    # (a) Hom(F(k), k) = Hom_U(U, k) = k: one morphism dimension
    rep = adjunction_report(CdgModule(cq, (0, 0), {0: 1}, {}, {}), kc, cq, b)
    assert rep["ok"] and rep["cycle_dims"] == 1
    # (b) target k ⊕ k doubles the morphism space
    k2c = direct_sum(kc, kc)
    rep = adjunction_report(CdgModule(cq, (0, 0), {0: 1}, {}, {}), k2c, cq, b)
    assert rep["ok"] and rep["cycle_dims"] == 2
    # (c) two-term N with one generator acting: morphisms still k since the
    # target G(k) vanishes in degree 1
    n = CdgModule(cq, (0, 1), {0: 1, 1: 1},
                  {0: [Matrix.identity(q, 1), Matrix.zero(q, 1, 1)]}, {})
    rep = adjunction_report(n, kc, cq, b)
    assert rep["ok"] and rep["cycle_dims"] == 1
    report(11, "adjunction verified on 50 random pairs over F_5 and 3 "
               "hand-enumerated morphism sets")


def test_criterion_12_regrading():
    rng = random.Random(SEED + 1212)
    f = QQ
    for _ in range(12):
        comps = {}
        for _ in range(rng.randint(1, 6)):
            comps[(rng.randint(-3, 3), rng.randint(-3, 3))] = rng.randint(1, 3)
        diffs = {}
        for (p, q), n in comps.items():
            m = comps.get((p + 1, q))
            if m and (p + 2, q) not in comps:
                diffs[(p, q)] = Matrix.from_rows(f, [[f.of_int(rng.randrange(-2, 3))
                                                      for _ in range(n)]
                                                     for _ in range(m)], n)
        x = weighted_from_bigraded(f, comps, diffs)
        assert x.check_d_squared() is None
        dims, blocks = weight_split(x)
        for r in (-1, 0, 1, 2):
            out, moved = regrade(x, r)
            assert all(d.cols == out[(p, q)] and d.rows == out[(p + 1, q)]
                       for (p, q), d in moved.items()), "differential not bidegree (1,0)"
            assert {(p - (r - 1) * q, q): n for (p, q), n in out.items()} == dims
            assert {(p - (r - 1) * q, q): d.to_rows() for (p, q), d in moved.items()} == {
                k: d.to_rows() for k, d in blocks.items()}
    report(12, "regrade round trips exactly for r in {-1, 0, 1, 2} with "
               "differentials of bidegree (1, 0)")
