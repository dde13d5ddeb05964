"""Modules, complexes, cones, homology, homotopies."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit import complexes
from koszul_kit.cli import (
    DEFAULT_DEGREE,
    DEFAULT_FILTRATION,
    DEFAULT_INTERNAL,
    DEFAULT_WINDOW,
    Problem,
)
from koszul_kit.complexes import (
    BaseComplex,
    CdgModule,
    ChainMap,
    UComplex,
    cone,
    homology_dims,
    nullhomotopy,
)
from koszul_kit.deformations import DeformationData, build_cdga
from koszul_kit.errors import CurvedInputError, InputError
from koszul_kit.functors import FunctorBounds
from koszul_kit.linalg import Matrix, rank
from koszul_kit.module_commands import named_module
from koszul_kit.scalars import QQ, Field
from koszul_kit.suite import koszul_ce_complex, sigma_truncate

from conftest import (
    SEED,
    complex_snapshot,
    direct_sum,
    element_matrix,
    heisenberg_deformation,
    oracle_act_element,
    oracle_act_word,
    oracle_cone,
    oracle_homotopy_identity_holds,
    oracle_shift,
    oracle_sigma_truncate,
    symmetric_presentation,
    twopoint_deformation,
)


def test_trivial_module_requires_beta_zero(heis, twopoint):
    assert UComplex.trivial(heis).module_axioms(0) is None
    with pytest.raises(InputError):
        UComplex.trivial(twopoint)


def test_twopoint_simples(twopoint):
    f = QQ
    for a in (1, 2):
        m = UComplex.module(twopoint, 1, [Matrix.from_int_rows(f, [[a]])])
        assert m.module_axioms(0) is None
    bad = UComplex.module(twopoint, 1, [Matrix.from_int_rows(f, [[5]])])
    assert bad.module_axioms(0) is not None


def test_g_of_simple_validates(twopoint_world):
    twop, u, cdga = twopoint_world
    f = QQ
    # G(k_1): components (x^q) at degree -q, actions identity times the
    # parity twist, alternating differential 1 (q odd) / 2 (q even)
    dims = {p: 1 for p in range(-4, 1)}
    acts = {p: [Matrix.from_int_rows(f, [[-1]])] for p in range(-4, 0)}
    diffs = {p: Matrix.from_int_rows(f, [[1 if (-p) % 2 == 1 else 2]])
             for p in range(-4, 0)}
    g = CdgModule(cdga, (-4, 0), dims, acts, diffs)
    assert g.validate() is None
    # both maps scaled by a = 1 is invalid when a != b (d^2 gives a^2, not ab)
    bad_diffs = {p: Matrix.from_int_rows(f, [[1]]) for p in range(-4, 0)}
    bad = CdgModule(cdga, (-4, 0), dims, acts, bad_diffs)
    assert bad.validate() is not None
    # alternating 0 / 3 keeps the anti-derivation law (0 + 3 = a + b) but
    # d^2 = 0 != ab: the curvature law is the first to fail
    bad2_diffs = {p: Matrix.from_int_rows(f, [[0 if (-p) % 2 == 1 else 3]])
                  for p in range(-4, 0)}
    bad2 = CdgModule(cdga, (-4, 0), dims, acts, bad2_diffs)
    msg = bad2.validate()
    assert msg is not None and "curvature" in msg


def test_cone_of_identity_acyclic_and_nullhomotopic(heis):
    c = UComplex.trivial(heis)
    cn = cone(ChainMap.identity(c))
    assert cn.validate() is None
    h, _ = homology_dims(cn, (-2, 1))
    assert all(v == 0 for v in h.values())
    idc, zero = ChainMap.identity(cn), ChainMap.zero(cn, cn)
    hom = nullhomotopy(idc, zero)
    assert hom is not None
    assert oracle_homotopy_identity_holds(idc, zero, hom)


def test_cone_of_zero_map(heis):
    c = UComplex.trivial(heis)
    cn = cone(ChainMap.zero(c, c))
    h, _ = homology_dims(cn, (-2, 1))
    assert h[-1] == 1 and h[0] == 1


def test_homology_exact_two_term(heis):
    f = QQ
    k = UComplex.trivial(heis)
    c = UComplex.of_modules(heis, (0, 1), {0: k, 1: k}, {0: Matrix.identity(f, 1)})
    h, _ = homology_dims(c, (0, 1))
    assert h == {0: 0, 1: 0}


def test_homology_zero_differential(heis):
    k = UComplex.trivial(heis)
    k2 = direct_sum(k, k)
    c = UComplex.of_modules(heis, (0, 1), {0: k2, 1: k}, {0: Matrix.zero(QQ, 1, 2)})
    h, _ = homology_dims(c, (0, 1))
    assert h == {0: 2, 1: 1}


def test_curved_homology_rejected(twopoint_world):
    twop, u, cdga = twopoint_world
    dims = {p: 1 for p in range(-2, 1)}
    acts = {p: [Matrix.from_int_rows(QQ, [[-1]])] for p in range(-2, 0)}
    diffs = {p: Matrix.from_int_rows(QQ, [[1 if (-p) % 2 == 1 else 2]])
             for p in range(-2, 0)}
    g = CdgModule(cdga, (-2, 0), dims, acts, diffs)
    with pytest.raises(CurvedInputError):
        homology_dims(g, (-2, 0))


def test_homology_invariant_under_conjugation(heis):
    rng = random.Random(SEED + 5)
    f = QQ
    k = UComplex.trivial(heis)
    k2 = direct_sum(k, k)
    d = Matrix.from_int_rows(f, [[0, 1], [0, 0]])
    c = UComplex.of_modules(heis, (0, 1), {0: k2, 1: k2}, {0: d})
    h0, _ = homology_dims(c, (0, 1))
    for _ in range(5):
        # conjugate by a random invertible change of basis in each degree
        while True:
            g0 = Matrix.from_int_rows(f, [[rng.randrange(-2, 3) for _ in range(2)]
                                          for _ in range(2)])
            from koszul_kit.linalg import rank
            if rank(g0) == 2:
                break
        gi = _inv(g0)
        c2 = UComplex.of_modules(heis, (0, 1), {0: k2, 1: k2}, {0: g0.mul(d).mul(gi)})
        h1, _ = homology_dims(c2, (0, 1))
        assert h1 == h0


def _inv(m):
    from koszul_kit.linalg import solve_matrix
    return solve_matrix(m, Matrix.identity(m.field, m.rows))


def test_nullhomotopy_respects_u_linearity(twopoint):
    # k_1 and k_2 are non-isomorphic simples: the identity complex on k_1
    # maps to k_2 only by zero, and s must be U-linear
    f = QQ
    k1 = UComplex.module(twopoint, 1, [Matrix.from_int_rows(f, [[1]])])
    k2 = UComplex.module(twopoint, 1, [Matrix.from_int_rows(f, [[2]])])
    c1 = UComplex.of_modules(twopoint, (0, 1), {0: k1, 1: k2}, {0: Matrix.zero(f, 1, 1)})
    # id vs id needs s = 0: fine
    hom = nullhomotopy(ChainMap.identity(c1), ChainMap.identity(c1))
    assert hom is not None
    # the map multiplying degree 1 by 1 cannot be nullhomotopic: any
    # homotopy s: k_2 -> k_1 must be U-linear, forcing s = 0
    one = ChainMap(c1, c1, {1: Matrix.identity(f, 1)})
    assert nullhomotopy(one, ChainMap.zero(c1, c1)) is None


def test_shift_negates_differential_and_twists_actions(twopoint_world):
    twop, u, cdga = twopoint_world
    f = QQ
    dims = {p: 1 for p in range(-2, 1)}
    acts = {p: [Matrix.from_int_rows(f, [[-1]])] for p in range(-2, 0)}
    diffs = {p: Matrix.from_int_rows(f, [[1 if (-p) % 2 == 1 else 2]])
             for p in range(-2, 0)}
    g = CdgModule(cdga, (-2, 0), dims, acts, diffs)
    sh = g.shift()
    assert sh.validate() is None
    assert sh.dims == {p - 1: 1 for p in range(-2, 1)}
    assert f.eq(sh.diff(-2).entry(0, 0), f.of_int(-1))
    assert f.eq(sh.action(-2, 0).entry(0, 0), f.one())


def test_socle_complex_of_g(sym2_world):
    data, u, cdga = sym2_world
    from koszul_kit.functors import FunctorBounds, apply_G
    k = UComplex.trivial(data)
    k2 = direct_sum(k, k)
    d = Matrix.from_int_rows(QQ, [[0, 1], [0, 0]])
    m = UComplex.of_modules(data, (0, 1), {0: k2, 1: k2}, {0: d})
    g = apply_G(m, cdga, FunctorBounds((-4, 2), 4, 3))
    bases, socle = g.socle_complex()
    assert {p: b.cols for p, b in bases.items() if b.cols} == {0: 2, 1: 2}
    # socle differential is d_M up to base change: rank matches
    from koszul_kit.linalg import rank
    assert rank(socle.diffs[0]) == 1


def test_module_weights_validation(heis):
    f = QQ
    # weight-graded module: U_{<=1}-style with weights 0,1,1,2 and the
    # regular-action pattern; trivial actions are weight-compatible only
    # when declared weights match
    m = UComplex.module(heis, 2, [Matrix.zero(f, 2, 2)] * 3, weights=[0, 7])
    assert m.module_axioms(0) is None  # zero actions are vacuously homogeneous
    up = Matrix.from_int_rows(f, [[0, 0], [1, 0]])
    m2 = UComplex.module(heis, 2, [up, Matrix.zero(f, 2, 2), Matrix.zero(f, 2, 2)],
                         weights=[0, 7])
    msg = m2.module_axioms(0)
    assert msg is not None and "weight" in msg


def test_cone_acyclic_iff_nullhomotopic(heis):
    """For bounded complexes, f is a homotopy equivalence iff cone(f) is
    nullhomotopic; here probed through cone(f) acyclic vs id ~ 0."""
    rng = random.Random(SEED + 77)
    f = QQ
    k = UComplex.trivial(heis)
    k2 = direct_sum(k, k)
    for _ in range(8):
        a = Matrix.from_rows(f, [[f.of_int(rng.randrange(-2, 3)) for _ in range(2)]
                                 for _ in range(2)], 2)
        c1 = k2
        fmap = ChainMap(c1, c1, {0: a})
        cn = cone(fmap)
        h, _ = homology_dims(cn, (-2, 1))
        acyclic = all(v == 0 for v in h.values())
        hom = nullhomotopy(ChainMap.identity(cn), ChainMap.zero(cn, cn))
        assert acyclic == (hom is not None)


EXAMPLES = Path(__file__).resolve().parent.parent / "examples_cli"


def _counting_rank(monkeypatch):
    """Patch the rank homology_dims calls; returns the list of its inputs."""
    calls = []

    def counting(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(complexes, "rank", counting)
    return calls


@pytest.mark.parametrize("per_weight", [False, True])
def test_homology_ranks_each_differential_once(monkeypatch, per_weight):
    """The `ce symmetric2.json` complex at default bounds: each d_p is read
    at p and at p + 1 but reduced once, and the dims are n - rank - rank."""
    problem = Problem(json.loads((EXAMPLES / "symmetric2.json").read_text()))
    b = FunctorBounds(DEFAULT_WINDOW, DEFAULT_FILTRATION, DEFAULT_INTERNAL)
    u = problem.u_truncation(max(DEFAULT_DEGREE, b.filtration + b.window[1] + 1))
    fg, _, _ = koszul_ce_complex(named_module(problem, "k"), u,
                                 problem.cdga(DEFAULT_DEGREE), b)
    lo, hi = b.window
    calls = _counting_rank(monkeypatch)
    h, _ = complexes.homology_dims(fg, b.window, per_weight=per_weight)
    ranked = [p for m in calls for p in range(lo - 1, hi + 1) if fg.diffs.get(p) is m]
    assert len(calls) == len(ranked) == len(set(ranked)) == 2
    want = {p: fg.dim(p) - rank(fg.diff(p)) - rank(fg.diff(p - 1)) for p in range(lo, hi + 1)}
    if per_weight:
        want = {(p, None): n for p, n in want.items() if fg.dim(p)}
    assert h == want


def test_homology_ranks_each_weight_block_once(monkeypatch):
    """Weights 0 and 1 in every degree: the four weight blocks of d_0 and
    d_1 are reduced once each, not once per degree that reads them, and
    d_-1 and d_2, which have no blocks, are not reduced."""
    f = QQ
    d0 = Matrix.from_int_rows(f, [[1, 0], [0, 0]])
    d1 = Matrix.from_int_rows(f, [[0, 0], [0, 1]])
    x = BaseComplex(f, (0, 2), {0: 2, 1: 2, 2: 2}, {0: d0, 1: d1},
                    weights={p: [0, 1] for p in range(3)})
    calls = _counting_rank(monkeypatch)
    h, _ = complexes.homology_dims(x, (0, 2), per_weight=True)
    assert h == {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0, (2, 0): 1, (2, 1): 0}
    blocks = complexes.weight_split(x)[1]
    assert sorted(blocks) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [m.to_rows() for m in calls] == [b.to_rows() for b in blocks.values()]


# -- the one complex type against the per-kind bodies it replaced -----------------


@pytest.fixture(scope="session")
def kind_worlds():
    """(deformation, cdga) over Q, F_2 and F_3: the Heisenberg algebra, S(V)
    on two generators, and the curved two-point algebra."""
    worlds = {}
    for f in (QQ, Field(2), Field(3)):
        for data in (heisenberg_deformation(f),
                     DeformationData.trivial(symmetric_presentation(f, 2)),
                     twopoint_deformation(f)):
            worlds.setdefault(f, []).append((data, build_cdga(data, 4)))
    return worlds


def _matrix(draw, f, rows, cols):
    entries = st.integers(min_value=-1, max_value=2)
    return Matrix.from_rows(f, [[f.of_int(draw(entries)) for _ in range(cols)]
                                for _ in range(rows)], cols)


def _complex(draw, kind, f, world, weighted):
    """A complex of ``kind`` on a window of at most four degrees: random
    matrices of the right shapes (shift, cone and truncation do not read the
    axioms).  A cdg-module may leave the actions of some degrees unstored."""
    data, cdga = world
    lo = draw(st.integers(min_value=-2, max_value=1))
    hi = lo + draw(st.integers(min_value=0, max_value=3))
    dims = {p: draw(st.integers(min_value=0, max_value=2)) for p in range(lo, hi + 1)}
    diffs = {p: _matrix(draw, f, dims[p + 1], dims[p])
             for p in range(lo, hi) if dims[p] and dims[p + 1]}
    weights = None
    if weighted:
        weights = {p: [draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
                   for p, n in dims.items() if n}
    if kind == "plain":
        return BaseComplex(f, (lo, hi), dims, diffs, weights)
    if kind == "U":
        mods = {p: UComplex.module(data, n, [_matrix(draw, f, n, n) for _ in range(data.base.dim)],
                                   None if weights is None else weights[p])
                for p, n in dims.items() if n}
        return UComplex.of_modules(data, (lo, hi), mods, diffs)
    acts = {p: [_matrix(draw, f, dims.get(p + 1, 0), n) for _ in range(cdga.dual.pres.dim)]
            for p, n in dims.items() if n and draw(st.booleans())}
    return CdgModule(cdga, (lo, hi), dims, acts, diffs, weights)


@settings(max_examples=120)
@given(st.data())
def test_one_complex_type_matches_per_kind_oracles(kind_worlds, data):
    """Shift, cone, brutal truncation and the word action of every kind of
    complex, over Q, F_2 and F_3, equal the per-kind bodies they replaced:
    window, dims, differentials, actions and weights.

    One weights rule now holds for every kind: each operation carries the
    weights through, and a cone is weighted when both ends are.  The old
    bodies differed from it in two places, asserted here: a plain cone or
    truncation dropped the weights, and a U-cone of a weighted and an
    unweighted complex kept the weights of the degrees where only the
    weighted end lives."""
    draw = data.draw
    f = draw(st.sampled_from(list(kind_worlds)))
    world = draw(st.sampled_from(kind_worlds[f]))
    kinds = st.sampled_from(["plain", "U", "cdg"])
    x = _complex(draw, draw(kinds), f, world, draw(st.booleans()))
    kind = type(x).__name__

    assert complex_snapshot(x.shift()) == oracle_shift(x)

    for p_cut in range(x.window[0] - 1, x.window[1] + 1):
        got = [complex_snapshot(part) for part in sigma_truncate(x, p_cut)]
        want = oracle_sigma_truncate(x, p_cut)
        if kind == "BaseComplex" and x.weights is not None:
            assert [g[:5] for g in got] == [w[:5] for w in want]
            assert got[0][5] == {p: w for p, w in x.weights.items() if p > p_cut}
            assert got[1][5] == {p: w for p, w in x.weights.items() if p <= p_cut}
        else:
            assert got == list(want)

    if x.action_degree is not None:
        for p in x.dims:
            word = tuple(draw(st.lists(st.integers(min_value=0, max_value=x.num_generators() - 1),
                                       max_size=3)))
            assert x.act_word(p, word).to_rows() == oracle_act_word(x, p, word).to_rows()
            if kind == "CdgModule":
                degree = draw(st.integers(min_value=0, max_value=2))
                col = {i: f.of_int(draw(st.integers(min_value=1, max_value=2)))
                       for i in range(x.cdga.dual.dim_at(degree)) if draw(st.booleans())}
                assert (element_matrix(x, p, degree, col).to_rows()
                        == oracle_act_element(x, p, degree, col).to_rows())

    # a cone: to the same kind of complex most often, to any kind otherwise
    tkind = draw(st.sampled_from([{"BaseComplex": "plain", "UComplex": "U",
                                   "CdgModule": "cdg"}[kind], "plain", "U", "cdg"]))
    y = _complex(draw, tkind, f, world, draw(st.booleans()))
    lo = min(x.window[0], y.window[0]) - 1
    hi = max(x.window[1], y.window[1]) + 1
    fmap = ChainMap(x, y, {p: _matrix(draw, f, y.dim(p), x.dim(p)) for p in range(lo, hi + 1)})
    got, want = complex_snapshot(cone(fmap)), oracle_cone(fmap)
    assert got[:5] == want[:5]
    both = x.weights is not None and y.weights is not None
    assert got[5] == (None if not both else
                      {p: list(x.weights.get(p + 1) or []) + list(y.weights.get(p) or [])
                       for p in got[2]})
    old_rule_differs = ((want[0] == "BaseComplex" and both)
                        or (want[0] == "UComplex" and not both
                            and (x.weights is not None or y.weights is not None)))
    if not old_rule_differs:
        assert got[5] == want[5]
