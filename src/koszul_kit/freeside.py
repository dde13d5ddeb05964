"""Complexes of free left U-modules: windowed expansion, the fiber
k ⊗_U (-), null-system membership, and U-linear homotopy search.

A free complex is a matrix over U: component p is U^{ranks[p]} and the
differential entry (i, j) is an element of the truncated U, acting on the
generator e_j of component p and read off in the generators of p+1.  It
is held as one column view per generator, {U index k: {i: coefficient}},
built from an entry grid or from a cdg-module N's x_g* and d columns:
F(N) is N's free complex.  ``add_column``, the one column formula,
writes F, T's delta, the F-term of (GF)_i and ``null-free``.
Expansion replaces U by its filtration piece at a level given per degree,
which embeds the expanded object as a subcomplex of the true one.
"""

from __future__ import annotations

from .complexes import BaseComplex, homology_dims
from .deformations import FilteredAlgebraTruncation
from .errors import InputError
from .linalg import RHS, Matrix, axpy, is_nonzero, solve_sparse, zero_free


class FreeUComplex:
    """Bounded complex of free U-modules with differential entries in U,
    held as ``columns[p][j]``, the image sum c u_k e_i of the generator e_j
    of degree p as {U basis index k: {i: c}}, built in O(nnz)."""

    def __init__(self, u: FilteredAlgebraTruncation, window, ranks: dict,
                 entries: dict):
        self.u = u
        self.field = u.field
        self.window = (int(window[0]), int(window[1]))
        self.ranks = {p: int(r) for p, r in ranks.items() if r}
        # entries[p][i][j]: sparse U column, for the map component
        # U^{ranks[p]} -> U^{ranks[p+1]}
        self._entries = entries
        self.columns = {}
        for p, mat in entries.items():
            if len(mat) != self.ranks.get(p + 1, 0):
                raise InputError(f"entry matrix at degree {p} has wrong height")
            for row in mat:
                if len(row) != self.ranks.get(p, 0):
                    raise InputError(f"entry matrix at degree {p} has wrong width")
            if mat and self.rank(p):
                view = self.columns[p] = [{} for _ in range(self.rank(p))]
                for i, row in enumerate(mat):
                    for col, entry in zip(view, row):
                        for k, c in entry.items():
                            col.setdefault(k, {})[i] = c

    @classmethod
    def of_source(cls, u: FilteredAlgebraTruncation, window, ranks: dict, source):
        """N's free complex on ``ranks`` ({p: dim N^p}): d(e_j) = sum_g x_g
        (x_g* n_j) + 1 (d n_j), from ``source(p)``, the columns on N^p of
        each x_g* (a list per generator) and of d, which the view shares."""
        free = cls(u, window, ranks, {})
        free._entries = None
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

    @property
    def entries(self) -> dict:
        """The entry grid {p: [[sparse U column of entry (i, j)]]}: as given,
        or read off the columns for a complex built by ``of_source``."""
        if self._entries is None:
            self._entries = {p: [[{k: t[i] for k, t in col.items() if i in t} for col in view]
                                 for i in range(self.rank(p + 1))]
                             for p, view in self.columns.items()}
        return self._entries

    def rank(self, p: int) -> int:
        return self.ranks.get(p, 0)

    def entry_degree_bound(self) -> int:
        """Max filtration degree of any differential entry."""
        words = self.u.basis_words
        return max((len(words[k]) for view in self.columns.values()
                    for col in view for k in col), default=0)

    def check_d_squared(self):
        """d entries compose to zero exactly in the truncated U.

        For maps of free left modules phi(e_j) = sum c_{kj} e_k, the
        composite entry is (psi phi)_{ij} = sum_k c^phi_{kj} . c^psi_{ik}:
        the first map's entry multiplies on the left.
        """
        u = self.u
        entries = self.entries
        for p in sorted(entries):
            if p + 1 not in entries:
                continue
            a = entries[p]
            b = entries[p + 1]
            for i in range(self.rank(p + 2)):
                for j in range(self.rank(p)):
                    acc = {}
                    for k in range(self.rank(p + 1)):
                        axpy(acc, 1, u.multiply(a[k][j], b[i][k]))
                    if is_nonzero(acc, self.field.p):
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
    one = {u._basis_pos[()]: u.field.one()}
    return {p: [[one if i == j else {} for j in range(r)] for i in range(r)]
            for p, r in p_ranks.items()}


def free_cone_of_map(src: FreeUComplex, tgt: FreeUComplex, fmat: dict) -> FreeUComplex:
    """Cone of a U-matrix chain map between free complexes."""
    f = src.field
    zero = {}
    lo = min(src.window[0] - 1, tgt.window[0])
    hi = max(src.window[1] - 1, tgt.window[1])
    ranks = {}
    for p in range(lo, hi + 1):
        r = src.rank(p + 1) + tgt.rank(p)
        if r:
            ranks[p] = r
    entries = {}
    for p in range(lo, hi + 1):
        rows = ranks.get(p + 1, 0)
        cols = ranks.get(p, 0)
        if not rows or not cols:
            continue
        s1, t1 = src.rank(p + 1), tgt.rank(p)
        s2, t2 = src.rank(p + 2), tgt.rank(p + 1)
        ent = [[zero for _ in range(cols)] for _ in range(rows)]
        sent = src.entries.get(p + 1)
        tent = tgt.entries.get(p)
        fent = fmat.get(p + 1)
        for i in range(s2):
            for j in range(s1):
                v = sent[i][j] if sent else zero
                ent[i][j] = {k: f.neg(c) for k, c in v.items()}
        for i in range(t2):
            for j in range(s1):
                v = fent[i][j] if fent else zero
                ent[s2 + i][j] = v
        for i in range(t2):
            for j in range(t1):
                v = tent[i][j] if tent else zero
                ent[s2 + i][s1 + j] = v
        entries[p] = ent
    return FreeUComplex(src.u, (lo, hi), ranks, entries)


def free_nullhomotopy(p: FreeUComplex, fmat: dict, gmat: dict, degree_cap=None):
    """U-linear homotopy between chain endomorphisms of a free complex.

    Unknowns are the U-coordinates of s on generators; the identity
    f - g = (-1)^n d s + (-1)^{n+1} s d is solved exactly on generators.
    The unknown coordinates run over U basis words of degree at most
    ``degree_cap``; by default the largest cap whose products with every
    entry stay within U's bound, ``u.bound - p.entry_degree_bound()``.
    Returns {p: matrix of sparse U columns} or None.
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
        sgn_d = 1 if q % 2 == 0 else -1
        dq = p.entries.get(q)
        dprev = p.entries.get(q - 1)
        fm = fmat.get(q)
        gm = gmat.get(q)
        for i in range(p.rank(q)):
            for j in range(p.rank(q)):
                # one scalar equation per U basis element t: coeff[t] holds
                # its unknowns, rhs[t] the coordinate t of f - g
                rhs = {}
                if fm is not None:
                    axpy(rhs, 1, fm[i][j])
                if gm is not None:
                    axpy(rhs, -1, gm[i][j])
                coeff = {}

                def add_term(var_key_base, fixed, unknown_left, sgn):
                    # composite entry: first map's entry multiplies on the left
                    for bi in keep:
                        v = varmap[var_key_base + (bi,)]
                        for k, c in fixed.items():
                            prod = u.mult_basis(bi, k) if unknown_left else u.mult_basis(k, bi)
                            for t, x in prod.items():
                                eq = coeff.setdefault(t, {})
                                eq[v] = eq.get(v, 0) + sgn * c * x

                # (d o s)_{ij} = sum_k s[q][k][j] . d[q-1][i][k]  (s first)
                if dprev is not None:
                    for k in range(p.rank(q - 1)):
                        add_term((q, k, j), dprev[i][k], True, sgn_d)
                # (s o d)_{ij} = sum_k d[q][k][j] . s[q+1][i][k]  (d first)
                if dq is not None:
                    for k in range(p.rank(q + 1)):
                        add_term((q + 1, i, k), dq[k][j], False, -sgn_d)
                for t in coeff.keys() | rhs.keys():
                    eq = coeff.get(t, {})
                    eq[RHS] = rhs.get(t, 0)
                    eqs.append(eq)
    sol = solve_sparse(f, eqs, len(varmap))
    if sol is None:
        return None
    out = {}
    for q in range(lo, hi + 2):
        if p.rank(q) and p.rank(q - 1):
            out[q] = [[zero_free({bi: sol[varmap[(q, i, j, bi)]] for bi in keep}, f.p)
                       for j in range(p.rank(q))] for i in range(p.rank(q - 1))]
    return out


def null_test_free(p: FreeUComplex, base_level: int, interior):
    """The free-side null-system criterion: P and k ⊗_U P both acyclic.

    ``interior`` is the degree range on which acyclicity is asserted;
    window edges are excluded by the caller via guard bands.
    """
    msg = p.check_d_squared()
    if msg:
        raise InputError(msg)
    # the level grows by the entry degree e, so no term is cut off; for
    # scalar entries (e = 0) the expansion is level-constant and gives the
    # true homology, otherwise the window edges are unreliable
    start, stop = p.window
    e = p.entry_degree_bound()
    levels = {q: base_level + (q - start) * e for q in range(start, stop + 1)}
    if levels and max(levels.values()) > p.u.bound:
        raise InputError(
            f"expansion level {max(levels.values())} beyond U bound {p.u.bound}; "
            "lower the window or rebuild U deeper")
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
