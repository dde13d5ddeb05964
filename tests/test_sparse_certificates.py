"""The module certificates, summed one sparse column at a time, and the
word actions they read, against the matrix bodies they replaced (the
``oracle_*`` functions of conftest.py).

Over Q (with ``Fraction`` values), F_2, F_3 and F_5 the tests build valid
U-complexes, G(M), F'(M), FG(M), cdg-modules over the curved two-point
algebra (c != 0) and chain maps (identities, scalars, G on a map, the counit and
the unit), inject at most one fault (an action entry, a differential
entry, a dropped curvature coordinate, a chain-map entry or a weight),
and require the certificate and its oracle to return the same message,
or both None.  A shape fault (a map, an action or a differential with one
row or column too many or too few) must fail in the same way as in the
oracle: the same message, or the same exception.
"""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from koszul_kit.complexes import CdgModule, ChainMap, UComplex
from koszul_kit.deformations import CdgAlgebra, DeformationData, build_cdga, build_U
from koszul_kit.functors import (
    FunctorBounds,
    apply_Fprime,
    apply_G,
    counit,
    unit,
)
from koszul_kit.linalg import DimensionError, Matrix
from koszul_kit.presentations import QuadraticPresentation
from koszul_kit.scalars import QQ, Field

from conftest import (
    apply_G_map,
    heisenberg_deformation,
    oracle_act_word,
    oracle_cdg_check_d_squared,
    oracle_cdg_validate,
    oracle_chain_map_validate,
    oracle_check_d_squared,
    oracle_ucomplex_validate,
    oracle_umodule_validate,
    symmetric_presentation,
    twopoint_deformation,
)

FIELDS = (QQ, Field(2), Field(3), Field(5))
BOUNDS = FunctorBounds((-3, 1), 2, 3)
# U-roots of the two-point algebra x^2 - (a + b) x + ab per field: c = ab
# is nonzero in each, and so is d = -(a + b) except over F_2
ROOTS = {None: (Fraction(1, 2), 3), 2: (1, 1), 3: (1, 1), 5: (1, 2)}
# every message the faults make fire, with the numbered degree, generator
# or relation written #
FIRED = [
    "R-perp relation # acts nonzero at degree #",
    "action not weight-homogeneous at degree #",
    "action of generator # is not weight-homogeneous",
    "anti-derivation law fails at degree #, generator #",
    "curvature law d^2 = c.(-) fails at degree #",
    "d^2 != 0 at degree #",
    "degree #: action of generator # is not weight-homogeneous",
    "degree #: relation # of P does not annihilate the module",
    "differential not U-linear at degree #, generator #",
    "does not commute with action at degree #",
    "does not commute with d at degree #",
    "relation # of P does not annihilate the module",
]


def _value(f, k):
    """The k-th of a few nonzero values of f; over Q some are not integral."""
    if f.p:
        return 1 + k % (f.p - 1)
    return (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))[k % 5]


def _scalar(f, n, c):
    return Matrix(f, n, [{j: c} for j in range(n)])


def _shift(f, n, c):
    """c times the nilpotent shift e_j -> e_{j+1} of k^n."""
    return Matrix(f, n, [{j + 1: c} if j + 1 < n else {} for j in range(n)])


def _qplane(f):
    """The quantum plane k<x, y>/(xy - q yx), q = 2: its dual's relations are
    not symmetric in the two letters of a pair (over F_3, q = -1)."""
    q = f.of_int(2) if f.p != 2 else f.one()
    return DeformationData.trivial(QuadraticPresentation(
        f, ["x", "y"], Matrix.from_rows(f, [[f.zero(), f.one(), f.neg(q), f.zero()]], 4)))


def _worlds(f):
    """(name, deformation, U, cdga, modules): the Heisenberg algebra, S(V) on
    two generators and the quantum plane with the trivial module and graded
    nilpotent ones, and the curved two-point algebra with its simples and a
    non-split extension."""
    out = []
    for name, data in (("heis", heisenberg_deformation(f)),
                       ("sym2", DeformationData.trivial(symmetric_presentation(f, 2))),
                       ("qplane", _qplane(f))):
        zeros = [Matrix.zero(f, n, n) for n in range(4)]
        mods = [UComplex.trivial(data)]
        for n, y in ((2, _shift(f, 2, _value(f, 2))), (3, zeros[3])):
            acts = [_shift(f, n, f.one()), y] + zeros[n:n + 1] * (data.base.dim - 2)
            mods.append(UComplex.module(data, n, acts, weights=list(range(n))))
        out.append((name, data, build_U(data, 4), build_cdga(data, 5), mods))
    a, b = ROOTS[f.p]
    data = twopoint_deformation(f, a, b)
    a, b = f.parse(str(a)), f.parse(str(b))
    mods = [UComplex.module(data, 1, [_scalar(f, 1, a)]),
            UComplex.module(data, 1, [_scalar(f, 1, b)]),
            UComplex.module(data, 2, [Matrix(f, 2, [{0: a}, {0: f.one(), 1: b}])])]
    out.append(("twopoint", data, build_U(data, 4), build_cdga(data, 5), mods))
    return out


@pytest.fixture(scope="module")
def worlds():
    return {f: _worlds(f) for f in FIELDS}


def _u_complexes(data, mod, f):
    """A module (a U-complex in degree 0), and M --c--> M on degrees -1, 0."""
    n = mod.dim(0)
    return [mod, UComplex.of_modules(data, (-1, 0), {-1: mod, 0: mod},
                                     {-1: _scalar(f, n, _value(f, n))})]


def _by_degree(x):
    """x with each basis vector of degree p weighted p: homogeneous for any
    action of degree 1 and weight 1."""
    return x.rebuild(x.window, x.dims, x.actions, x.diffs,
                     {p: [p] * n for p, n in x.dims.items()})


def _times(x, c):
    """c times the identity of x."""
    return ChainMap(x, x, {p: _scalar(x.field, n, c) for p, n in x.dims.items()})


def _objects_of(world, m, f):
    """Valid complexes and chain maps built on one U-complex m, as (kind,
    object): m, G(m), F'(m), G(m) weighted by degree, FG(m), identities,
    scalar maps, G on a scalar map and the counit."""
    _, _, u, cdga, _ = world
    g = apply_G(m, cdga, BOUNDS, verify=False)
    fg, eps = counit(m, u, cdga, BOUNDS)
    return [("U", m), ("cdg", g), ("cdg", apply_Fprime(m, cdga, BOUNDS, verify=False)),
            ("cdg", _by_degree(g)), ("plain", fg),
            ("map", (ChainMap.identity(m), True)),
            ("map", (ChainMap.identity(g), True)),
            ("map", (_times(g, _value(f, 3)), True)),
            ("map", (apply_G_map(_times(m, _value(f, 4)), cdga, BOUNDS), True)),
            ("map", (eps, False))]


def _objects(world, f):
    """Every object of ``_objects_of`` over the world's U-complexes, and the
    unit of k where the cdga is flat."""
    name, data, u, cdga, mods = world
    out = [obj for mod in mods for m in _u_complexes(data, mod, f)
           for obj in _objects_of(world, m, f)]
    if name != "twopoint":  # (GF)_i of a curved module is refused
        k = CdgModule(cdga, (0, 0), {0: 1}, {}, {})
        out.append(("map", (unit(k, u, cdga, BOUNDS)[1], False)))
    return out


def _perturb(m: Matrix, i, j, v):
    cols = list(m.columns)
    col = dict(cols[j])
    new = col.get(i, 0) + v
    f = m.field
    new = new % f.p if f.p else new
    if new:
        col[i] = new
    else:
        col.pop(i, None)
    cols[j] = col
    return Matrix(f, m.rows, cols)


def _entry_faults(x, f, k=0):
    """Every single-entry fault of x's actions and differentials (adding
    ``_value(f, k)``) and weights (adding 1), and each dropped curvature
    coordinate: (kind, faulty complex)."""
    out = []
    v = _value(f, k)
    for p, acts in x.actions.items():
        for g, a in enumerate(acts):
            for i in range(a.rows):
                for j in range(a.cols):
                    new = dict(x.actions)
                    new[p] = acts[:g] + [_perturb(a, i, j, v)] + acts[g + 1:]
                    out.append(("action", x.rebuild(x.window, x.dims, new, x.diffs, x.weights)))
    for p in x.dims:
        if x.dim(p + 1):
            d = x.diff(p)
            for i in range(d.rows):
                for j in range(d.cols):
                    diffs = dict(x.diffs)
                    diffs[p] = _perturb(d, i, j, v)
                    out.append(("diff", x.rebuild(x.window, x.dims, x.actions, diffs, x.weights)))
    if x.weights is not None:
        for p, w in x.weights.items():
            for i in range(len(w)):
                weights = dict(x.weights)
                weights[p] = w[:i] + [w[i] + 1] + w[i + 1:]
                out.append(("weight", x.rebuild(x.window, x.dims, x.actions, x.diffs, weights)))
    if isinstance(x, CdgModule):
        for s, c in enumerate(x.cdga.curvature):
            if c:
                cdga = x.cdga
                curv = list(cdga.curvature)
                curv[s] = f.zero()
                flat = CdgAlgebra(cdga.data, cdga.dual, cdga.derivations, curv)
                out.append(("curvature", CdgModule(flat, x.window, x.dims, x.actions, x.diffs,
                                                   x.weights)))
    return out


def _map_faults(fmap, f):
    out = []
    src, tgt = fmap.source, fmap.target
    for p in set(src.dims) & set(tgt.dims):
        m = fmap.map_at(p)
        for i in range(m.rows):
            for j in range(m.cols):
                maps = dict(fmap.maps)
                maps[p] = _perturb(m, i, j, _value(f, i + j))
                out.append(("map", ChainMap(src, tgt, maps)))
    return out


def _reshaped(m: Matrix, v):
    """m with one row or column too many (holding v) or too few."""
    f = m.field
    out = [Matrix(f, m.rows + 1, [{m.rows: v}] + m.columns[1:] if m.cols else []),
           Matrix(f, m.rows, m.columns + [{0: v} if m.rows else {}])]
    if m.rows:
        out.append(Matrix(f, m.rows - 1, [{i: c for i, c in col.items() if i < m.rows - 1}
                                          for col in m.columns]))
    if m.cols:
        out.append(Matrix(f, m.rows, m.columns[:-1]))
    return out


def _shape_faults(x, f):
    """Every complex made from x by one shape fault of an action or a
    differential (a U-complex refuses a malformed action when it is made)."""
    out = []
    v = _value(f, 1)
    if not isinstance(x, UComplex):
        for p, acts in x.actions.items():
            for g, a in enumerate(acts):
                for bad in _reshaped(a, v):
                    new = dict(x.actions)
                    new[p] = acts[:g] + [bad] + acts[g + 1:]
                    out.append(x.rebuild(x.window, x.dims, new, x.diffs, x.weights))
    for p in x.dims:
        for bad in _reshaped(x.diff(p), v):
            out.append(x.rebuild(x.window, x.dims, x.actions, {**x.diffs, p: bad}, x.weights))
    return out


def _map_shape_faults(fmap, f):
    src, tgt = fmap.source, fmap.target
    return [ChainMap(src, tgt, {**fmap.maps, p: bad})
            for p in set(src.dims) | set(tgt.dims)
            for bad in _reshaped(fmap.map_at(p), _value(f, 2))]


def _outcome(check):
    """A certificate's message, or None, or the exception it raises on a
    malformed input."""
    try:
        return check()
    except (DimensionError, IndexError) as e:
        return type(e).__name__


def _verdicts(x):
    """(new, oracle) outcome pairs of every certificate of a complex."""
    if isinstance(x, CdgModule):
        return [(_outcome(x.validate), _outcome(lambda: oracle_cdg_validate(x))),
                (_outcome(x.check_d_squared), _outcome(lambda: oracle_cdg_check_d_squared(x)))]
    pairs = [(_outcome(x.check_d_squared), _outcome(lambda: oracle_check_d_squared(x)))]
    if isinstance(x, UComplex):
        pairs.append((_outcome(x.validate), _outcome(lambda: oracle_ucomplex_validate(x))))
        for p, n in x.dims.items():
            mod = UComplex.module(x.data, n, x.actions[p],
                                  None if x.weights is None else x.weights.get(p))
            pairs.append((x.module_axioms(p), oracle_umodule_validate(mod)))
    return pairs


def _map_verdicts(fmap, check_actions):
    return [(_outcome(lambda: fmap.validate(check_actions)),
             _outcome(lambda: oracle_chain_map_validate(fmap, check_actions)))]


def _spread(faults, per_kind=12):
    """At most ``per_kind`` faults of each kind, spread evenly over its list."""
    by_kind = {}
    for kind, bad in faults:
        by_kind.setdefault(kind, []).append(bad)
    return [bad for bads in by_kind.values()
            for bad in bads[::max(1, len(bads) // per_kind)]]


def test_every_single_entry_fault_gives_the_oracles_message(worlds):
    """Single-entry faults spread over every action, differential, map
    entry and weight, and every dropped curvature coordinate, of the objects
    built on the two-term complex of the first and the last module of each
    world, over each field: the same first message as the oracle, so the
    certificates fire on every fault the matrix bodies fire on.  Every
    certificate fires somewhere, and none fires on the valid objects the
    faults start from."""
    fired = set()
    for f in FIELDS:
        for world in worlds[f]:
            _, data, _, _, mods = world
            for mod in (mods[0], mods[-1]):
                for kind, obj in _objects_of(world, _u_complexes(data, mod, f)[1], f):
                    if kind == "map":
                        valid = _map_verdicts(*obj)
                        pairs = [_map_verdicts(bad, obj[1])
                                 for bad in _spread(_map_faults(obj[0], f))]
                    else:
                        valid = _verdicts(obj)
                        pairs = [_verdicts(bad) for bad in _spread(_entry_faults(obj, f))]
                    assert valid == [(None, None)] * len(valid), (f.p, world[0], kind)
                    for new, old in (pair for fault in pairs for pair in fault):
                        assert new == old, (f.p, world[0], kind)
                        if old is not None:
                            fired.add(re.sub(r"(degree|generator|relation) -?\d+", r"\1 #", old))
    assert fired == set(FIRED)


@settings(max_examples=150)
@given(st.data())
def test_certificates_match_oracles_on_drawn_faults(worlds, data):
    """Seeded draws over the four fields: a valid object, at most one fault
    at a drawn place (with a drawn value for an action or differential
    entry), and every certificate against its oracle."""
    draw = data.draw
    f = draw(st.sampled_from(FIELDS))
    world = draw(st.sampled_from(worlds[f]))
    kind, obj = draw(st.sampled_from(_objects(world, f)))
    if kind == "map":
        fmap, check_actions = obj
        faults = _map_faults(fmap, f)
        if faults and draw(st.booleans()):
            fmap = draw(st.sampled_from(faults))[1]
        for new, old in _map_verdicts(fmap, check_actions):
            assert new == old
        return
    faults = _entry_faults(obj, f, draw(st.integers(min_value=0, max_value=4)))
    x = draw(st.sampled_from(faults))[1] if faults and draw(st.booleans()) else obj
    for new, old in _verdicts(x):
        assert new == old


def test_every_shape_fault_fails_as_in_the_oracle(worlds):
    """Every shape fault of every action, differential and map of the
    objects built on the two-term complex of the first and the last module
    of each world, over each field: the certificate gives the oracle's
    message, or raises the oracle's exception, so a malformed input fails
    exactly where it failed before.  Both kinds of failure occur."""
    seen = set()
    for f in FIELDS:
        for world in worlds[f]:
            _, data, _, _, mods = world
            for mod in (mods[0], mods[-1]):
                for kind, obj in _objects_of(world, _u_complexes(data, mod, f)[1], f):
                    if kind == "map":
                        pairs = [_map_verdicts(bad, obj[1])
                                 for bad in _map_shape_faults(obj[0], f)]
                    else:
                        pairs = [_verdicts(bad) for bad in _shape_faults(obj, f)]
                    for new, old in (pair for fault in pairs for pair in fault):
                        assert new == old, (f.p, world[0], kind)
                        seen.add("raises" if old in ("DimensionError", "IndexError")
                                 else "message" if old else "passes")
    assert seen == {"raises", "message", "passes"}


def _words(ngens, max_len):
    """Every word of length <= max_len over ngens generators, shortest first."""
    return [w for n in range(max_len + 1) for w in product(range(ngens), repeat=n)]


def test_act_word_is_the_right_to_left_product(worlds):
    """``act_word``, which starts from the last letter's action, equals the
    uncached right-to-left product of the actions from the identity on
    every word of length <= 3; the empty word is the identity."""
    for f in FIELDS:
        for world in worlds[f]:
            for kind, x in _objects(world, f):
                if kind not in ("U", "cdg"):  # the kinds with actions
                    continue
                for p in x.dims:
                    for word in _words(x.num_generators(), 3):
                        assert (x.act_word(p, word).to_rows()
                                == oracle_act_word(x, p, word).to_rows())
                    assert (x.act_word(p, ()).to_rows()
                            == Matrix.identity(x.field, x.dim(p)).to_rows())
