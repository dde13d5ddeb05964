"""The Koszul bimodule T = U ⊗ A!, the functors F and G, filtrations,
unit/counit, the adjunction check, and the mirror functor F'.

F is T ⊗_{A!} (-) and G is Hom_U(T, -), and each differential is written
once.  F(N) is N's free U-complex (``freeside.FreeUComplex.of_source``):
generator n_j goes to sum_g x_g (x_g* n_j) + 1 (d n_j), so
d(u ⊗ n) = sum_g (u x_g) ⊗ (x_g* n) + u ⊗ d(n).  Its one column formula,
``freeside.add_column``, writes F, T's delta (F on A!), the F-term of
(GF)_i and the ``null-free`` expansion.  ``_G_differentials`` is the Hom
differential d(f)(t) = (-1)^{|t|}[sum_g x_g f(x_g* t) + f(dt) + d_M f(t)] on
the functionals of prod_r Hom(X^r, M^{p+r}) that ``hom_labels`` lists.  With
X = A! it is G's, and (GF)_i is G over F, with x_g acting on U ⊗ N by
left multiplication and F's differential as d_M.  With X = N it is
Hom_U(F(N), M), and with no action term and G(M) as M the plain Hom of
N into G(M): the two sides of the adjunction.  ``free_dual_module`` is the
free A!-module A! ⊗ V with d(a ⊗ v) = d(a) ⊗ v + (-1)^{|a|} a·d(v): F'(M)
is it on the basis of M, and ``cofree.complex_of_free_dual_modules``
merges a complex of free A!-modules through it.

Windowing: F is materialized through its filtration pieces, the free
complex expanded at U-level filtration + p in degree p, so every
differential lands exactly in the next component and squares to zero on
the nose.
G is materialized as the subobject of functionals supported in dual
degrees <= the internal cap, which is a genuine cdg-submodule.

Products come from the two sparse product tables: u x_g and x_g u from
U's cached ``mult_basis`` columns, x_g e_t and e_t x_g from A!'s
``mult_columns``.  Both kernels sum raw values over nonzero entries only
and reduce mod p once per output entry.
"""

from __future__ import annotations

from collections import namedtuple

from .complexes import BaseComplex, CdgModule, ChainMap, UComplex, map_equations
from .deformations import CdgAlgebra, FilteredAlgebraTruncation
from .errors import InconsistentDataError, InputError
from .freeside import FreeUComplex, _gen_pos, add_column
from .linalg import Matrix, axpy, kernel_basis, rank, zero_free


class FunctorBounds(namedtuple("FunctorBounds", ("window", "filtration", "internal"))):
    """Cohomological window, U-filtration level, and internal degree cap."""
    __slots__ = ()

    def __new__(cls, window, filtration, internal):
        lo, hi = window
        if lo > hi:
            raise InputError("window must be nonempty")
        if filtration < 0 or internal < 0:
            raise InputError("bounds must be nonnegative")
        return super().__new__(cls, window, filtration, internal)


# -- the two kernels ----------------------------------------------------------


def _add_rows(acc: dict, rows: dict, c, col: dict):
    """acc += c * col, each key of col sent to its row; a key with no row
    is cut off."""
    for key, v in col.items():
        k = rows.get(key)
        if k is not None:
            acc[k] = acc.get(k, 0) + c * v


def hom_labels(dims: dict, window, basis) -> dict:
    """The basis of prod_r Hom(X^r, M^{p+r}) for each p of the window, as
    {p: [(r, s, e) ...]}: the functional s* of X^r with value e.  ``dims``
    is {r: dim X^r}, read in its order; ``basis(p, q)`` lists the basis of
    M^q that term p uses; degrees with no label are left out."""
    labels = {}
    lo, hi = window
    for p in range(lo, hi + 1):
        labs = []
        for r, n in dims.items():
            es = basis(p, p + r)
            if es and n:
                labs.extend((r, s, e) for s in range(n) for e in es)
        if labs:
            labels[p] = labs
    return labels


def dual_dims(dual, cap: int) -> dict:
    """{r: dim A!_r} for r up to the internal cap and the truncation bound."""
    return {r: dual.dims[r] for r in range(min(cap, dual.bound) + 1)}


def _dual_source(cdga: CdgAlgebra):
    """A! as a source of ``_G_differentials`` and of its free complex: on
    A!_r, x_g* is left multiplication by x_g and d is the cdga's derivation."""
    dual = cdga.dual

    def source(r):
        n = dual.dim_at(r)
        left = dual.mult_columns(1, r)  # x_g e_t: column g * n + t
        return [left[g * n:(g + 1) * n] for g in range(dual.pres.dim)], cdga.d(r).columns
    return source


def _module_source(n: CdgModule):
    """N as a source of ``_G_differentials`` and of its free complex: on
    N^r, the columns of each x_g* and of d."""
    return lambda r: ([n.action(r, g).columns for g in range(n.num_generators())],
                      n.diff(r).columns)


def _module_terms(x: BaseComplex):
    """``act`` and ``d_m`` of ``_G_differentials`` for a target read off its
    matrix columns: x_g and d on its basis vector e of degree q."""

    def act(acc, rows, c, q, g, e):
        _add_rows(acc, rows, c, x.action(q, g).columns[e])

    def d_m(acc, rows, c, q, e):
        _add_rows(acc, rows, c, x.diff(q).columns[e])
    return act, d_m


def _G_differentials(field, source, labels: dict, act, d_m) -> dict:
    """The Hom differential on functionals labelled (r, s, e): the basis
    functional f = (s*, e) of Hom(X^r, M^{p+r}) goes to
    d(f)(t) = (-1)^{|t|}[sum_g x_g f(x_g* t) + f(dt) + d_M f(t)].

    X is A! for G and (GF)_i, and N for Hom_U(F(N), M).  ``source(r)``
    gives the columns on X^r of each x_g* (a list per generator, empty for
    none) and of d; it is read once per degree.  ``act(acc, rows, c, q, g,
    e)`` adds c · x_g e and ``d_m(acc, rows, c, q, e)`` adds c · d_M e, for
    e in M^q, to ``acc`` through ``rows`` ({element of M^{q+1}: row}); a
    term beyond the truncation has no row and is cut off.  Returns
    {p: Matrix} for each p with p + 1 labelled.
    """
    into = {}  # r: the terms of x_g* t and of dt at each s of X^r, t in X^{r-1}

    def terms_into(r):
        got = into.get(r)
        if got is None:
            acts, d_cols = source(r - 1)
            a_in, d_in = {}, {}
            for g, cols in enumerate(acts):
                for t, col in enumerate(cols):
                    for s, c in col.items():
                        a_in.setdefault(s, []).append((t, g, c))
            for t, col in enumerate(d_cols):
                for s, c in col.items():
                    d_in.setdefault(s, []).append((t, c))
            got = into[r] = (a_in, d_in)
        return got

    diffs = {}
    for p, labs in labels.items():
        tgt = labels.get(p + 1)
        if tgt is None:
            continue
        rows = {}  # (r, s) -> {e: row}
        for k, (r, s, e) in enumerate(tgt):
            rows.setdefault((r, s), {})[e] = k
        below = {r + 1 for r, _ in rows}  # the r whose terms at r - 1 have rows
        cols = []
        for r, s, e in labs:
            q = p + r
            acc = {}
            sgn = 1 if r % 2 else -1  # (-1)^{r-1}
            if r in below:
                a_in, d_in = terms_into(r)
                for t, g, c in a_in.get(s, ()):
                    at = rows.get((r - 1, t))
                    if at is not None:
                        act(acc, at, sgn * c, q, g, e)
                for t, c in d_in.get(s, ()):
                    k = rows.get((r - 1, t), {}).get(e)
                    if k is not None:
                        acc[k] = acc.get(k, 0) + sgn * c
            at = rows.get((r, s))
            if at is not None:
                d_m(acc, at, -sgn, q, e)
            cols.append(zero_free(acc, field.p))
        diffs[p] = Matrix(field, len(tgt), cols)
    return diffs


# -- the Koszul bimodule --------------------------------------------------------


class KoszulBimodule:
    """Truncation of T = U ⊗ A! with the twisting endomorphism.

    delta(u ⊗ a) = sum_g u x_g ⊗ x_g* a + u ⊗ d(a), taking the component
    U_{<=l} ⊗ A!_r into U_{<=l+1} ⊗ A!_{r+1}: F's differential with N = A!,
    the expansion of A!'s free complex.
    """

    def __init__(self, u: FilteredAlgebraTruncation, cdga: CdgAlgebra):
        if u.data is not cdga.data and not u.data.graph_rows().eq(cdga.data.graph_rows()):
            raise InconsistentDataError("U and (A!, d, c) come from different deformations")
        self.u = u
        self.cdga = cdga
        self.field = u.field

    def delta(self, level: int, r: int) -> Matrix:
        """Matrix of delta on U_{<=level} ⊗ A!_r (columns u-major)."""
        dual = self.cdga.dual
        free = FreeUComplex.of_source(self.u, (r, r + 1),
                                      {r: dual.dim_at(r), r + 1: dual.dim_at(r + 1)},
                                      _dual_source(self.cdga))
        return free.expand({r: level, r + 1: level + 1}).diff(r)

    def check_delta_squared(self, level: int, r: int):
        """delta^2 = -(.c) on U_{<=level} ⊗ A!_r, exactly."""
        f = self.field
        d2 = self.delta(level + 1, r + 1).mul(self.delta(level, r))
        # right multiplication by -c: u ⊗ a -> -u ⊗ (a c)
        dual = self.cdga.dual
        na_src = dual.dim_at(r)
        na_tgt = dual.dim_at(r + 2)
        char = f.p
        curv = {s: c for s, c in enumerate(self.cdga.curvature) if c}
        acs = []  # the nonzero entries of -(e_a c), which depends on a only
        for a in range(na_src):
            ac = dual.multiply(r, {a: f.one()}, 2, curv)
            acs.append([(b, -c % char if char else -c) for b, c in ac.items()])
        rc = []  # column ui * na_src + a is -(u_ui ⊗ e_a c)
        for ui in range(self.u.dim_leq(level)):
            base = ui * na_tgt
            rc.extend({base + b: c for b, c in ac} for ac in acs)
        return d2.eq(Matrix(f, self.u.dim_leq(level + 2) * na_tgt, rc))

    def check_right_module(self, level: int, r_max: int):
        """delta((u⊗a)b) = delta(u⊗a)b + (-1)^{|a|} (u⊗a) d(b) on basis triples."""
        f = self.field
        one = f.one()
        u, dual = self.u, self.cdga.dual
        for r in range(r_max):
            sgn = 1 if r % 2 == 0 else -1
            for s in range(1, r_max - r + 1):
                if r + s + 1 > dual.bound:
                    continue
                ds = self.cdga.d(s).columns
                for ui in range(u.dim_leq(level)):
                    for a in range(dual.dim_at(r)):
                        ea = {a: one}
                        ab1 = self._delta_elem(r, ui, ea)
                        for b in range(dual.dim_at(s)):
                            eb = {b: one}
                            lhs = self._delta_elem(r + s, ui, dual.multiply(r, ea, s, eb))
                            rhs = {}
                            for (ti, c1), co in ab1.items():
                                for b2, c2 in dual.multiply(r + 1, {c1: co}, s, eb).items():
                                    rhs[(ti, b2)] = rhs.get((ti, b2), 0) + c2
                            for b2, c2 in dual.multiply(r, ea, s + 1, ds[b]).items():
                                rhs[(ui, b2)] = rhs.get((ui, b2), 0) + sgn * c2
                            if _sparse_ne(f, lhs, rhs):
                                return False
        return True

    def _delta_elem(self, r: int, ui: int, avec):
        """delta(u_i ⊗ a) as {(u_index, a!_{r+1} index): coeff}, summed
        from the columns u_i ⊗ e_a of delta's matrix."""
        cols = self.delta(len(self.u.basis_words[ui]), r).columns
        dual = self.cdga.dual
        na, nb = dual.dim_at(r), dual.dim_at(r + 1)
        out = {}
        for a, ca in avec.items():
            axpy(out, ca, cols[ui * na + a])
        return {divmod(k, nb): c for k, c in zero_free(out, self.field.p).items()}


def _sparse_ne(f, a: dict, b: dict) -> bool:
    for k in set(a) | set(b):
        if not f.eq(a.get(k, f.zero()), b.get(k, f.zero())):
            return True
    return False


# -- the functor F (filtration pieces) --------------------------------------


def f_free_complex(n: CdgModule, u: FilteredAlgebraTruncation, bounds: FunctorBounds):
    """N's free U-complex on the degrees p of the window that F expands,
    those with N^p != 0 and filtration + p >= 0, and their U-levels
    filtration + p.  Returns (FreeUComplex, {p: level})."""
    lo, hi = bounds.window
    levels = {}
    for p in range(lo, hi + 1):
        lev = bounds.filtration + p
        if lev < 0 or n.dim(p) == 0:
            continue
        if lev > u.bound:
            raise InputError(f"filtration level {lev} beyond U bound {u.bound}")
        levels[p] = lev
    free = FreeUComplex.of_source(u, bounds.window, {p: n.dim(p) for p in levels},
                                  _module_source(n))
    return free, levels


def apply_F(n: CdgModule, u: FilteredAlgebraTruncation,
            bounds: FunctorBounds, verify=True) -> BaseComplex:
    """The filtration piece F_i(N): ... -> U_{<=i+p} ⊗ N^p -> U_{<=i+p+1} ⊗
    N^{p+1} -> ..., N's free complex expanded, with differential
    u ⊗ n -> sum_g (u x_g) ⊗ (x_g* n) + u ⊗ d(n) and basis ``labels``
    {p: [(u basis index, n basis index)]}, u-major.  A plain complex: the
    U-module structure exists only in the colimit."""
    free, levels = f_free_complex(n, u, bounds)
    fc = free.expand(levels)
    if verify:
        msg = fc.check_d_squared()
        if msg:
            raise InconsistentDataError(f"F output: {msg}")
    return fc


# -- the functor G -----------------------------------------------------------


def cofree_actions(dual, labels: dict) -> dict:
    """The twisted action (x_g* . f)(t) = -f(t x_g*) on functionals
    labelled (r, s, *rest): the dual basis functional s* of A!_r, with the
    rest of the label carried through.  Images of G, (GF)_i and the cofree
    minimal models all carry it; the parity twist is what makes the module
    anti-derivation law hold literally.

    Returns {p: [Matrix per generator]} for each p with p + 1 labelled.
    """
    f = dual.field
    char = f.p
    d_gens = dual.pres.dim
    actions = {}
    for p, labs in labels.items():
        tgt = labels.get(p + 1)
        if tgt is None:
            continue
        tpos = {lab: i for i, lab in enumerate(tgt)}
        acts = []
        for g in range(d_gens):
            cols = []
            for lab in labs:
                r, s = lab[0], lab[1]
                col = {}
                if r:
                    right = dual.mult_columns(r - 1, 1)  # e_t x_g: column t * d_gens + g
                    for t in range(dual.dim_at(r - 1)):
                        c = right[t * d_gens + g].get(s)
                        if c:
                            row = tpos.get((r - 1, t) + lab[2:])
                            if row is not None:
                                col[row] = -c % char if char else -c
                cols.append(col)
            acts.append(Matrix(f, len(tgt), cols))
        actions[p] = acts
    return actions


def apply_G(m: UComplex, cdga: CdgAlgebra, bounds: FunctorBounds,
            verify=True) -> CdgModule:
    """G(M)^p = product over r <= cap of Hom(A!_r, M^{p+r}).

    The differential follows (the functional form of) the explicit
    description; the left action is installed with the parity twist
    x* . f := -(f composed with right multiplication), which is what makes
    the module anti-derivation axiom hold literally.
    """
    dual = cdga.dual
    labels = hom_labels(dual_dims(dual, bounds.internal), bounds.window,
                        lambda p, q: range(m.dim(q)))
    weights = None
    if m.weights is not None and dual.pres.weights is not None:
        weights = {p: [m.weight_of(p + r, i) - dual.basis_weight(r, s) for r, s, i in labs]
                   for p, labs in labels.items()}
    g = CdgModule(cdga, bounds.window, {p: len(labs) for p, labs in labels.items()},
                  cofree_actions(dual, labels),
                  _G_differentials(cdga.field, _dual_source(cdga), labels, *_module_terms(m)),
                  weights)
    g.labels = labels
    if verify:
        msg = g.validate()
        if msg:
            raise InconsistentDataError(f"G output: {msg}")
    return g


def G_blocks(field, maps: dict, src: dict, tgt: dict, degree: int = 0) -> dict:
    """G on a map phi of the given degree, {q: Matrix M^q -> M'^{q+degree}}:
    for each p labelled in ``src``, the matrix from ``src[p]`` to
    ``tgt[p + degree]`` sending the functional (r, s, i) to
    (-1)^{degree r} sum_j phi_ji (r, s, j).  The sign is the one
    ``_G_differentials`` puts on d_M (degree 1); a chain map (degree 0)
    goes blockwise.  A term with no target label is cut off."""
    out = {}
    for p, labs in src.items():
        tgt_labs = tgt.get(p + degree, [])
        tpos = {lab: k for k, lab in enumerate(tgt_labs)}
        cols = []
        for r, s, i in labs:
            col = {}
            m = maps.get(p + r)
            if m is not None:
                odd = degree * r % 2
                for j, c in m.columns[i].items():
                    row = tpos.get((r, s, j))
                    if row is not None:
                        col[row] = field.neg(c) if odd else c
            cols.append(col)
        out[p] = Matrix(field, len(tgt_labs), cols)
    return out


def apply_G_map(phi: ChainMap, cdga: CdgAlgebra, bounds: FunctorBounds) -> ChainMap:
    """G on morphisms: blockwise id ⊗ phi^{p+r}."""
    gsrc = apply_G(phi.source, cdga, bounds, verify=False)
    gtgt = apply_G(phi.target, cdga, bounds, verify=False)
    return ChainMap(gsrc, gtgt, G_blocks(phi.field, phi.maps, gsrc.labels, gtgt.labels))


# -- unit, counit, (GF)_i ----------------------------------------------------


def counit(m: UComplex, u: FilteredAlgebraTruncation, cdga: CdgAlgebra,
           bounds: FunctorBounds):
    """FG(M) -> M: u ⊗ f -> u . f_0(1).  Returns (FG, ChainMap)."""
    f = m.field
    g = apply_G(m, cdga, bounds)
    fg = apply_F(g, u, bounds)
    maps = {}
    for p in fg.dims:
        if m.dim(p) == 0:
            continue
        cols = []
        acts = {}
        for ui, ni in fg.labels[p]:
            r, s, i = g.labels[p][ni]
            if r:
                cols.append({})
                continue
            # act by the monomial word of u_i on m^p, one product per word
            act = acts.get(ui)
            if act is None:
                act = acts[ui] = m.act_word(p, u.basis_words[ui])
            cols.append(act.columns[i])
        maps[p] = Matrix(f, m.dim(p), cols)
    eps = ChainMap(fg, m, maps)
    msg = eps.validate(check_actions=False)
    if msg:
        raise InconsistentDataError(f"counit: {msg}")
    return fg, eps


def gf_composite(n: CdgModule, u: FilteredAlgebraTruncation, cdga: CdgAlgebra,
                 bounds: FunctorBounds, verify=True) -> CdgModule:
    """(GF)_i(N)^p = product over r of Hom(A!_r, U_{p+i} ⊗ N^{r+p}): G's
    differential over F's, with x_g acting on U ⊗ N by left multiplication.
    The labels are flat, (r, s, u_i, n_j)."""
    dual = cdga.dual
    lo, hi = bounds.window

    def ulevel(p):
        # the paper indexes U by p+i, clamped at U_0 for very negative p
        return max(p + bounds.filtration, 0)

    for p in range(lo, hi + 1):
        if ulevel(p) > u.bound:
            raise InputError(f"filtration level {ulevel(p)} beyond U bound {u.bound}")
    labels = hom_labels(dual_dims(dual, bounds.internal), bounds.window,
                        lambda p, q: [(ui, ni) for ui in range(u.dim_leq(ulevel(p)))
                                      for ni in range(n.dim(q))])
    gens = _gen_pos(u)
    free = FreeUComplex.of_source(u, n.window, n.dims, _module_source(n))

    def act(acc, rows, c, q, g, e):
        ui, ni = e
        for ti, cu in u.mult_basis(gens[g], ui).items():
            k = rows.get((ti, ni))
            if k is not None:
                acc[k] = acc.get(k, 0) + c * cu

    def d_m(acc, rows, c, q, e):
        ui, ni = e
        add_column(acc, rows, c, u, free.columns[q][ni], ui)

    diffs = _G_differentials(cdga.field, _dual_source(cdga), labels, act, d_m)
    labels = {p: [(r, s, ui, ni) for r, s, (ui, ni) in labs] for p, labs in labels.items()}
    gf = CdgModule(cdga, bounds.window, {p: len(labs) for p, labs in labels.items()},
                   cofree_actions(dual, labels), diffs)
    gf.labels = labels
    if verify:
        msg = gf.check_d_squared()
        if msg:
            raise InconsistentDataError(f"(GF)_i output: {msg}")
    return gf


def unit(n: CdgModule, u: FilteredAlgebraTruncation, cdga: CdgAlgebra,
         bounds: FunctorBounds):
    """N -> (GF)_i(N): n -> (a -> (-1)^r 1 ⊗ a.n).  Returns (GF, ChainMap)."""
    f = n.field
    gf = gf_composite(n, u, cdga, bounds)
    one_idx = u._basis_pos[()]
    words = cdga.dual.basis_words
    maps = {}
    for p in gf.dims:
        if n.dim(p) == 0:
            continue
        cols = [{} for _ in range(n.dim(p))]
        acts = {}
        for row, (r, s, ui, ni) in enumerate(gf.labels[p]):
            if ui != one_idx:
                continue
            # a . n for a the standard monomial s of A!_r, with the parity
            # twist (-1)^r matching the twisted action on G-images; one
            # product per monomial
            act = acts.get((r, s))
            if act is None:
                act = acts[(r, s)] = n.act_word(p, words[r][s])
            for col, acol in zip(cols, act.columns):
                c = acol.get(ni)
                if c:
                    col[row] = f.neg(c) if r % 2 else c
        maps[p] = Matrix(f, gf.dim(p), cols)
    eta = ChainMap(n, gf, maps)
    msg = eta.validate(check_actions=False)
    if msg:
        raise InconsistentDataError(f"unit: {msg}")
    return gf, eta


# -- adjunction ---------------------------------------------------------------


def hom_complex_explicit(n: CdgModule, m: UComplex, window):
    """Hom_U(F(N), M): term p is prod_r Hom(N^r, M^{p+r}), a functional
    f = (s*, e) labelled (r, s, e) as by ``hom_labels``, with G's
    differential for N in place of A!:
    d(f)(t) = (-1)^{|t|}[sum_g x_g f(x_g* t) + f(d_N t) + d_M f(t)].
    Returns (complex, labels)."""
    labels = hom_labels(n.dims, window, lambda p, q: range(m.dim(q)))
    diffs = _G_differentials(n.field, _module_source(n), labels, *_module_terms(m))
    return BaseComplex(n.field, window, {p: len(labs) for p, labs in labels.items()},
                       diffs), labels


def module_linear_hom_basis(n: CdgModule, g: CdgModule, degree: int, labels):
    """Basis of the degree-``degree`` maps h: N -> G that are linear for
    the action through right multiplication on A!, h(x* v)(t) = h(v)(t x*):
    under G's twisted action, h(x* v) = -x* h(v).  These are what the
    adjunction gives with no sign, h(v)(t) = psi(t ⊗ v) for psi on
    T ⊗_{A!} N; h -> (v -> (-1)^{|v|} h(v)) takes them onto the strictly
    A!-linear maps.

    The variables are ``labels``, the functionals (r, j, i) of
    Hom(N^r, G^{r+degree}) as by ``hom_labels``; the columns of the
    result span the solutions.
    """
    varmap = {lab: v for v, lab in enumerate(labels)}

    def var(q, i, j):
        """Entry (i, j) of h^q: N^q -> G^{q+degree} is the functional (q, j, i)."""
        return varmap.get((q, j, i))

    eqs = []
    for r in n.dims:
        for gen in range(n.num_generators()):
            # h(x* v) + x* h(v) = 0 on N^r
            eqs += map_equations(n.field, [(1, None, r + 1, n.action(r, gen)),
                                           (1, g.action(r + degree, gen), r, None)],
                                 var, g.dim(r + 1 + degree), n.dim(r))
    cols = [{} for _ in labels]  # column v: the coefficients of variable v
    for row, eq in enumerate(eqs):
        for v, c in eq.items():
            cols[v][row] = c
    return kernel_basis(Matrix(n.field, len(eqs), cols))


def adjunction_report(n: CdgModule, m: UComplex, cdga: CdgAlgebra,
                      bounds: FunctorBounds):
    """Verify Hom_U(F(N), M) = Hom_{A!}(N, G(M)) componentwise.

    Both sides are Hom complexes written by ``_G_differentials`` with N as
    the source: Hom_U(F(N), M) is ``hom_complex_explicit``, and
    Hom_{A!}(N, G(M)), as the maps of ``module_linear_hom_basis``, lies
    inside the plain Hom of graded spaces, whose differential has no
    action term and G(M)'s differential as d_M.
    Checks that the socle evaluation h -> (v -> h(v)(1)) is an isomorphism
    commuting with the differentials.  Also reports the degree-0 cycle
    count of Hom_U(F(N), M).
    """
    f = n.field
    window = bounds.window
    explicit, exp_labels = hom_complex_explicit(n, m, window)
    g = apply_G(m, cdga, bounds)
    labels = hom_labels(n.dims, window, lambda p, q: range(g.dim(q)))
    ambient = _G_differentials(f, lambda r: ((), n.diff(r).columns), labels,
                               *_module_terms(g))
    report = {
        "dims_match": True,
        "differentials_match": True,
        "iso": True,
        "cycle_dims": None,
    }
    lo, hi = window
    bases = {}
    for p in range(lo, hi + 1):
        bases[p] = module_linear_hom_basis(n, g, p, labels.get(p, []))
        if bases[p].cols != explicit.dim(p):
            report.update(dims_match=False, iso=False, ok=False)
            return report
    exp_pos = {p: {lab: k for k, lab in enumerate(labs)} for p, labs in exp_labels.items()}

    def to_explicit(p, vec):
        """The socle evaluation of a degree-p map, a sparse column over
        ``labels[p]``: its entries whose G-label has dual degree 0, as a
        sparse column of explicit coordinates."""
        out = {}
        for k, c in vec.items():
            r, j, gi = labels[p][k]
            rr, _, i = g.labels[p + r][gi]
            if rr == 0:
                row = exp_pos[p][(r, j, i)]
                out[row] = out.get(row, 0) + c
        return zero_free(out, f.p)

    for p in range(lo, hi + 1):
        basis = bases[p]
        if not basis.cols:
            continue
        images = [to_explicit(p, vec) for vec in basis.columns]
        if rank(Matrix(f, explicit.dim(p), images)) != basis.cols:
            report["iso"] = False
        d = ambient.get(p)
        for vec, image in zip(basis.columns, images):
            if explicit.diff(p).apply(image) != (to_explicit(p + 1, d.apply(vec)) if d else {}):
                report["differentials_match"] = False
    # degree-0 cycles on the explicit side
    d0 = explicit.diff(0)
    ker0 = explicit.dim(0) - (rank(d0) if explicit.dim(1) else 0)
    report["cycle_dims"] = ker0
    report["ok"] = (report["dims_match"] and report["differentials_match"]
                    and report["iso"])
    return report


# -- free A!-modules: F' and the free-module merge ------------------------------


def free_dual_module(cdga: CdgAlgebra, gens: dict, entries: dict, cap: int,
                     window=None, gen_weights=None) -> CdgModule:
    """The free A!-module A! ⊗ V on generators v of degree n, ``gens``
    being {n: [v ...]} with names unique within a degree, and
    d(v) = sum_w e_wv w read from ``entries[(n, v)]``, a dict {w: e}: e an
    A!-element {k: sparse column of A!_k} and w a generator of degree
    n + 1 - k.  Its action is the plain left multiplication
    x.(a ⊗ v) = xa ⊗ v and its differential
    d(a ⊗ v) = d(a) ⊗ v + (-1)^{|a|} sum_w a e_wv ⊗ w.

    The basis vector (r, s, v) is monomial s of A!_r times v, in degree
    n + r for r <= cap, listed r-major, then s, then generator; a term
    past the cap is cut off.  Only the labels in ``window`` are kept, or
    all of them, the window then their span, when it is None.  With
    ``gen_weights`` ({v: weight}) the label (r, s, v) weighs
    gen_weights[v] + r.  The products come from ``mult_columns(1, r)`` and
    ``mult_columns(r, k)``, so one read past A!'s bound raises
    ``DegreeOverflowError``.
    """
    f = cdga.field
    dual = cdga.dual
    labels = {}
    for r in range(cap + 1):
        n_r = dual.dim_at(r)
        for n, vs in gens.items():
            p = n + r
            if n_r and vs and (window is None or window[0] <= p <= window[1]):
                labels.setdefault(p, []).extend((r, s, v) for s in range(n_r) for v in vs)
    labels = dict(sorted(labels.items()))
    if window is None:
        window = (min(labels), max(labels)) if labels else (0, 0)
    d_cols = {r: cdga.d(r).columns for r in range(cap + 1)}
    d_gens = dual.pres.dim
    diffs, actions = {}, {}
    for p, labs in labels.items():
        tgt = labels.get(p + 1, [])
        rows = {}  # (r, w) -> {s: row}
        for k, (r, s, w) in enumerate(tgt):
            rows.setdefault((r, w), {})[s] = k
        cols, acts = [], [[] for _ in range(d_gens)]
        for r, s, v in labs:
            up = rows.get((r + 1, v), {})
            acc = {}
            _add_rows(acc, up, 1, d_cols[r][s])
            sgn = -1 if r % 2 else 1
            for w, e in entries.get((p - r, v), {}).items():
                for deg, col in e.items():
                    prods, n_e = dual.mult_columns(r, deg), dual.dim_at(deg)
                    at = rows.get((r + deg, w), {})
                    for t, c in col.items():
                        _add_rows(acc, at, sgn * c, prods[s * n_e + t])
            cols.append(zero_free(acc, f.p))
            left, n_r = dual.mult_columns(1, r), dual.dim_at(r)
            for g, a in enumerate(acts):
                col = {}
                _add_rows(col, up, 1, left[g * n_r + s])
                a.append(col)
        diffs[p] = Matrix(f, len(tgt), cols)
        actions[p] = [Matrix(f, len(tgt), a) for a in acts]
    weights = None
    if gen_weights is not None:
        weights = {p: [gen_weights[v] + r for r, _, v in labs] for p, labs in labels.items()}
    module = CdgModule(cdga, window, {p: len(labs) for p, labs in labels.items()},
                       actions, diffs, weights)
    module.labels = labels
    return module


def apply_Fprime(m: UComplex, cdga: CdgAlgebra, bounds: FunctorBounds,
                 verify=True) -> CdgModule:
    """F'(M) = A! ⊗ M, whose cohomology is Ext_U(k, M): the free A!-module
    (``free_dual_module``) on the basis of M, basis vector i of M^q a
    generator of degree q with d(m) = -sum_g x_g* (x_g m) + d_M(m), cut at
    the internal cap and the truncation bound.  Its differential is
    (-1)^{r+1} sum_g (b x_g*) ⊗ x_g m + d(b) ⊗ m + (-1)^r b ⊗ d_M(m) on
    b ⊗ m, b in A!_r, and its labels are (r, s, i)."""
    d_gens = cdga.dual.pres.dim
    gens, entries = {}, {}
    for q, n in m.dims.items():
        gens[q] = range(n)
        acts = [m.action(q, g).columns for g in range(d_gens)]
        d_m = m.diff(q).columns
        for i in range(n):
            terms = {}
            for g, cols in enumerate(acts):
                for j, c in cols[i].items():
                    terms.setdefault(j, {}).setdefault(1, {})[g] = -c
            for j, c in d_m[i].items():
                terms.setdefault(j, {})[0] = {0: c}
            entries[(q, i)] = terms
    fp = free_dual_module(cdga, gens, entries, min(bounds.internal, cdga.dual.bound),
                          bounds.window)
    if verify:
        msg = fp.validate()
        if msg:
            raise InconsistentDataError(f"F' output: {msg}")
    return fp


def triangle_check(m: UComplex, u: FilteredAlgebraTruncation, cdga: CdgAlgebra,
                   bounds: FunctorBounds):
    """G(counit) composed with unit_{G(M)}: the adjunction triangle on G(M).

    Returns (G(M), composite ChainMap); the composite is the identity up
    to (often on the nose) homotopy.
    """
    f = u.field
    g = apply_G(m, cdga, bounds)
    gf, eta = unit(g, u, cdga, bounds)
    maps = {}
    for p in gf.dims:
        if g.dim(p) == 0:
            continue
        tpos = {lab: i for i, lab in enumerate(g.labels.get(p, []))}
        cols = []
        acts = {}
        for r, s, ui, ni in gf.labels[p]:
            col = {}
            cols.append(col)
            # ni indexes G(M)^{p+r}; the counit keeps its socle component,
            # with one product per word
            r2, s2, i2 = g.labels[p + r][ni]
            if r2 != 0:
                continue
            act = acts.get((r, ui))
            if act is None:
                act = acts[(r, ui)] = m.act_word(p + r, u.basis_words[ui])
            for j, c in act.columns[i2].items():
                row = tpos.get((r, s, j))
                if row is not None:
                    col[row] = c
        maps[p] = Matrix(f, g.dim(p), cols)
    geps = ChainMap(gf, g, maps)
    msg = geps.validate(check_actions=False)
    if msg:
        raise InconsistentDataError(f"G(counit): {msg}")
    return g, geps.compose(eta)
