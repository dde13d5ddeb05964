"""Complexes of free left U-modules: windowed expansion, the fiber
k ⊗_U (-), null-system membership, and U-linear homotopy search.

A free complex is a matrix over U: component p is U^{ranks[p]} and the
image of the generator e_j of component p is a sum c u_k e_i over the
generators of p+1.  It is held only as its column view, one column per
generator, {U index k: {i: coefficient}}: read once from a problem
file's entry grid (``FreeUComplex.from_entries``), or from a cdg-module
N's x_g* and d columns (``FreeUComplex.of_source``: F(N) is N's free
complex).  Maps of free complexes and homotopies are column views too,
{p: [column per generator]}.  ``add_column``, the one column formula,
writes F, T's delta, the F-term of (GF)_i, ``null-free`` and d².
Expansion replaces U by its filtration piece at a level given per degree,
which embeds the expanded object as a subcomplex of the true one.
"""

from __future__ import annotations

from .complexes import BaseComplex, homology_dims
from .deformations import FilteredAlgebraTruncation
from .errors import InputError
from .linalg import RHS, Matrix, solve_sparse, zero_free


class FreeUComplex:
    """Bounded complex of free U-modules with differential entries in U,
    held as ``columns[p][j]``, the image sum c u_k e_i of the generator e_j
    of degree p as {U basis index k: {i: c}}."""

    def __init__(self, u: FilteredAlgebraTruncation, window, ranks: dict,
                 columns: dict):
        self.u = u
        self.field = u.field
        self.window = (int(window[0]), int(window[1]))
        self.ranks = {p: int(r) for p, r in ranks.items() if r}
        self.columns = columns

    @classmethod
    def from_entries(cls, u: FilteredAlgebraTruncation, window, ranks: dict, entries: dict):
        """The complex of an entry grid {p: [[sparse U column of entry (i,
        j)]]}, the map U^{ranks[p]} -> U^{ranks[p+1]} row by row, read into
        the column view in one pass."""
        free = cls(u, window, ranks, {})
        for p, mat in entries.items():
            if len(mat) != free.rank(p + 1):
                raise InputError(f"entry matrix at degree {p} has wrong height")
            for row in mat:
                if len(row) != free.rank(p):
                    raise InputError(f"entry matrix at degree {p} has wrong width")
            if mat and free.rank(p):
                view = free.columns[p] = [{} for _ in range(free.rank(p))]
                for i, row in enumerate(mat):
                    for col, entry in zip(view, row):
                        for k, c in entry.items():
                            col.setdefault(k, {})[i] = c
        return free

    @classmethod
    def of_source(cls, u: FilteredAlgebraTruncation, window, ranks: dict, source):
        """N's free complex on ``ranks`` ({p: dim N^p}): d(e_j) = sum_g x_g
        (x_g* n_j) + 1 (d n_j), from ``source(p)``, the columns on N^p of
        each x_g* (a list per generator) and of d, which the view shares."""
        free = cls(u, window, ranks, {})
        gens = _gen_pos(u)
        one = u._basis_pos[()]
        for p in free.ranks:
            if p + 1 not in free.ranks:
                continue
            acts, d_cols = source(p)
            view = free.columns[p] = [{} for _ in range(free.ranks[p])]
            for k, cols in zip(gens, acts):
                for col, xn in zip(view, cols):
                    if xn:
                        col[k] = xn
            for col, dn in zip(view, d_cols):
                if dn:
                    col[one] = dn
        return free

    def rank(self, p: int) -> int:
        return self.ranks.get(p, 0)

    def entry_degree_bound(self) -> int:
        """Max filtration degree of any differential entry."""
        words = self.u.basis_words
        return max((len(words[k]) for view in self.columns.values()
                    for col in view for k in col), default=0)

    def check_d_squared(self):
        """d(d(e_j)) = 0 exactly in the truncated U: d(e_j) = sum c u_k e_i
        goes to sum c d(u_k e_i), each term by ``add_column``, so u_k
        multiplies e_i's entries on the left.  Names the least (i, j), in
        row order, of a nonzero entry in the lowest such degree."""
        u = self.u
        for p in sorted(self.columns):
            nxt = self.columns.get(p + 1)
            if nxt is None:
                continue
            rows = {(t, i): (i, t) for t in range(u.total_dim) for i in range(self.rank(p + 2))}
            bad = []
            for j, col in enumerate(self.columns[p]):
                acc = {}
                for k, terms in col.items():
                    for i, c in terms.items():
                        add_column(acc, rows, c, u, nxt[i], k)
                bad.extend((i, j) for i, _ in zero_free(acc, self.field.p))
            if bad:
                i, j = min(bad)
                return f"d^2 != 0 at degree {p} (entry {i},{j})"
        return None

    # -- expansion ---------------------------------------------------------

    def expand(self, levels: dict) -> BaseComplex:
        """The complex with component p spanned by u ⊗ e_j for u in
        U_{<=levels[p]}, on the ranked degrees of ``levels``; its basis is
        ``labels`` {p: [(u basis index, j)]}, u-major.  A term beyond the
        next level is cut off: where levels grow by the entry degree, none
        is, and the result is a subcomplex of the true one."""
        f = self.field
        u = self.u
        labels = {p: [(ui, j) for ui in range(u.dim_leq(lev)) for j in range(self.rank(p))]
                  for p, lev in levels.items() if self.rank(p)}
        diffs = {}
        for p, labs in labels.items():
            tgt = labels.get(p + 1)
            if tgt is None:
                continue
            rows = {lab: i for i, lab in enumerate(tgt)}
            view = self.columns.get(p)
            diffs[p] = Matrix(f, len(tgt), [
                zero_free(add_column({}, rows, 1, u, view[j], ui), f.p) if view else {}
                for ui, j in labs])
        out = BaseComplex(f, self.window, {p: len(labs) for p, labs in labels.items()}, diffs)
        out.labels = labels
        return out

    def fiber_complex(self) -> BaseComplex:
        """k ⊗_U P: scalar parts of the differential entries (needs beta = 0)."""
        u = self.u
        one_idx = u._basis_pos[()]
        if not u.data.beta.is_zero():
            raise InputError("k tensor needs an augmented U (beta = 0)")
        diffs = {p: Matrix(self.field, self.rank(p + 1),
                           [dict(col.get(one_idx, {})) for col in view])
                 for p, view in self.columns.items()}
        return BaseComplex(self.field, self.window, self.ranks, diffs)


def add_column(acc: dict, rows: dict, c, u: FilteredAlgebraTruncation, col: dict,
               ui: int) -> dict:
    """The one column formula of a free U-complex: acc += c · d(u_ui e_j),
    ``col`` being e_j's column {k: {i: coefficient}}.  Each term u_t of
    u_ui u_k (U's ``mult_basis``) puts u_t e_i on ``rows[(t, i)]``; a term
    with no row is cut off.  Returns ``acc``, raw values unreduced."""
    for k, terms in col.items():
        for ti, v in u.mult_basis(ui, k).items():
            cv = c * v
            for i, ci in terms.items():
                row = rows.get((ti, i))
                if row is not None:
                    acc[row] = acc.get(row, 0) + cv * ci
    return acc


def _gen_pos(u: FilteredAlgebraTruncation):
    """U's basis positions of the generators x_g, in order."""
    return [u._basis_pos[(g,)] for g in range(u.data.base.dim)]


def free_identity_map(p_ranks, u):
    """The identity of free modules of ranks ``p_ranks``, as a column view."""
    one = u._basis_pos[()]
    return {p: [{one: {j: u.field.one()}} for j in range(r)] for p, r in p_ranks.items()}


def free_cone_of_map(src: FreeUComplex, tgt: FreeUComplex, fmat: dict) -> FreeUComplex:
    """Cone of a U-linear chain map ``fmat`` {p: [column per generator]}
    between free complexes: degree p is src^{p+1} ⊕ tgt^p, and
    d(s, t) = (-d s, f s + d t)."""
    f = src.field
    lo = min(src.window[0] - 1, tgt.window[0])
    hi = max(src.window[1] - 1, tgt.window[1])
    ranks = {}
    for p in range(lo, hi + 1):
        r = src.rank(p + 1) + tgt.rank(p)
        if r:
            ranks[p] = r
    columns = {}
    for p in range(lo, hi + 1):
        if not ranks.get(p + 1) or not ranks.get(p):
            continue
        s2 = src.rank(p + 2)
        view = columns[p] = []
        for j in range(src.rank(p + 1)):
            col = {}
            if p + 1 in src.columns:
                for k, terms in src.columns[p + 1][j].items():
                    col[k] = {i: f.neg(c) for i, c in terms.items()}
            if p + 1 in fmat:
                for k, terms in fmat[p + 1][j].items():
                    col.setdefault(k, {}).update((s2 + i, c) for i, c in terms.items())
            view.append(col)
        for j in range(tgt.rank(p)):
            view.append({k: {s2 + i: c for i, c in terms.items()}
                         for k, terms in tgt.columns[p][j].items()} if p in tgt.columns else {})
    return FreeUComplex(src.u, (lo, hi), ranks, columns)


def free_nullhomotopy(p: FreeUComplex, fmat: dict, gmat: dict, degree_cap=None):
    """U-linear homotopy between chain endomorphisms of a free complex.

    ``fmat`` and ``gmat`` are column views {q: [column per generator]}.
    Unknowns are the U-coordinates of s on generators; the identity
    f - g = (-1)^n d s + (-1)^{n+1} s d is solved exactly on generators,
    one scalar equation per coordinate u_t e_i of the image of e_j.
    The unknown coordinates run over U basis words of degree at most
    ``degree_cap``; by default the largest cap whose products with every
    entry stay within U's bound, ``u.bound - p.entry_degree_bound()``.
    Returns s as a column view {q: [column of s(e_j) in degree q - 1]}
    or None.
    """
    f = p.field
    u = p.u
    cap = degree_cap if degree_cap is not None else u.bound - p.entry_degree_bound()
    keep = range(u.dim_leq(cap))
    lo, hi = p.window
    varmap = {}
    for q in range(lo, hi + 2):
        for i in range(p.rank(q - 1)):
            for j in range(p.rank(q)):
                for bi in keep:
                    varmap[(q, i, j, bi)] = len(varmap)
    eqs = []
    for q in range(lo, hi + 1):
        sgn = 1 if q % 2 == 0 else -1
        # coeff[(i, j, t)] holds the unknowns of coordinate u_t e_i of the
        # image of e_j, rhs[(i, j, t)] that coordinate of f - g
        coeff, rhs = {}, {}
        for m, c in ((fmat, 1), (gmat, -1)):
            for j, col in enumerate(m.get(q, ())):
                for t, terms in col.items():
                    for i, x in terms.items():
                        rhs[(i, j, t)] = rhs.get((i, j, t), 0) + c * x
        # d s: s(e_j) = sum u_bi e_k, and u_bi multiplies d(e_k) on the left
        for k, dcol in enumerate(p.columns.get(q - 1, ())):
            for j in range(p.rank(q)):
                for bi in keep:
                    v = varmap[(q, k, j, bi)]
                    for a, terms in dcol.items():
                        for t, x in u.mult_basis(bi, a).items():
                            for i, c in terms.items():
                                eq = coeff.setdefault((i, j, t), {})
                                eq[v] = eq.get(v, 0) + sgn * c * x
        # s d: d(e_j) = sum c u_a e_k, and u_a multiplies s(e_k) on the left
        for j, dcol in enumerate(p.columns.get(q, ())):
            for a, terms in dcol.items():
                for k, c in terms.items():
                    for bi in keep:
                        for t, x in u.mult_basis(a, bi).items():
                            for i in range(p.rank(q)):
                                v = varmap[(q + 1, i, k, bi)]
                                eq = coeff.setdefault((i, j, t), {})
                                eq[v] = eq.get(v, 0) - sgn * c * x
        for key in coeff.keys() | rhs.keys():
            eq = coeff.get(key, {})
            eq[RHS] = rhs.get(key, 0)
            eqs.append(eq)
    sol = solve_sparse(f, eqs, len(varmap))
    if sol is None:
        return None
    out = {q: [{} for _ in range(p.rank(q))] for q in range(lo, hi + 2)
           if p.rank(q) and p.rank(q - 1)}
    for (q, i, j, bi), v in varmap.items():
        if sol[v]:
            out[q][j].setdefault(bi, {})[i] = sol[v]
    return out


def null_test_free(p: FreeUComplex, base_level: int, interior):
    """The free-side null-system criterion: P and k ⊗_U P both acyclic.

    ``interior`` is the degree range on which acyclicity is asserted;
    window edges are excluded by the caller via guard bands.  A bound
    refusal names the ``null-free`` flags: U's bound is ``--degree`` and
    the base level ``--filtration // 2``.
    """
    try:
        msg = p.check_d_squared()
    except InputError as e:  # a product of two entries beyond U's bound
        raise InputError(f"d^2 needs a U product of {e}; raise --degree") from None
    if msg:
        raise InputError(msg)
    # the level grows by the entry degree e, so no term is cut off; for
    # scalar entries (e = 0) the expansion is level-constant and gives the
    # true homology, otherwise the window edges are unreliable
    start, stop = p.window
    e = p.entry_degree_bound()
    levels = {q: base_level + (q - start) * e for q in range(start, stop + 1)}
    top = max(levels.values(), default=0)
    if top > p.u.bound:
        raise InputError(
            f"expansion level {top} beyond U bound {p.u.bound}; raise --degree to {top}, "
            f"or lower --filtration (base level {base_level} = --filtration // 2)")
    expanded = p.expand(levels)
    h_p, _ = homology_dims(expanded, p.window)
    fiber = p.fiber_complex()
    h_f, _ = homology_dims(fiber, p.window)
    lo, hi = interior
    acyclic = all(h_p.get(q, 0) == 0 for q in range(lo, hi + 1))
    fiber_acyclic = all(h_f.get(q, 0) == 0 for q in range(lo, hi + 1))
    return {
        "acyclic": acyclic,
        "fiber_acyclic": fiber_acyclic,
        "in_null_system": acyclic and fiber_acyclic,
        "homology": h_p,
        "fiber_homology": h_f,
    }
