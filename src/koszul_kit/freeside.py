"""Complexes of free left U-modules: windowed expansion, the fiber
k ⊗_U (-), null-system membership, and U-linear homotopy search.

A free complex is a matrix over U: component p is U^{ranks[p]} and the
differential entry (i, j) is an element of the truncated U, a sparse
column {U basis index: raw value}, acting on the generator e_j of
component p and read off in the generators of p+1.
Expansion replaces U by its filtration piece at a level growing along the
window, which embeds the expanded object as a subcomplex of the true one.
"""

from __future__ import annotations

from .complexes import BaseComplex, homology_dims
from .deformations import FilteredAlgebraTruncation
from .errors import InputError
from .linalg import RHS, Matrix, axpy, is_nonzero, solve_sparse, zero_free


class FreeUComplex:
    """Bounded complex of free U-modules with differential entries in U."""

    def __init__(self, u: FilteredAlgebraTruncation, window, ranks: dict,
                 entries: dict):
        self.u = u
        self.field = u.field
        self.window = (int(window[0]), int(window[1]))
        self.ranks = {p: int(r) for p, r in ranks.items() if r}
        # entries[p][i][j]: sparse U column, for the map component
        # U^{ranks[p]} -> U^{ranks[p+1]}
        self.entries = entries
        for p, mat in entries.items():
            if len(mat) != self.ranks.get(p + 1, 0):
                raise InputError(f"entry matrix at degree {p} has wrong height")
            for row in mat:
                if len(row) != self.ranks.get(p, 0):
                    raise InputError(f"entry matrix at degree {p} has wrong width")

    def rank(self, p: int) -> int:
        return self.ranks.get(p, 0)

    def entry_degree_bound(self) -> int:
        """Max filtration degree of any differential entry."""
        top = 0
        for mat in self.entries.values():
            for row in mat:
                for col in row:
                    for bi in col:
                        top = max(top, len(self.u.basis_words[bi]))
        return top

    def check_d_squared(self):
        """d entries compose to zero exactly in the truncated U.

        For maps of free left modules phi(e_j) = sum c_{kj} e_k, the
        composite entry is (psi phi)_{ij} = sum_k c^phi_{kj} . c^psi_{ik}:
        the first map's entry multiplies on the left.
        """
        u = self.u
        for p in sorted(self.entries):
            if p + 1 not in self.entries:
                continue
            a = self.entries[p]
            b = self.entries[p + 1]
            for i in range(self.rank(p + 2)):
                for j in range(self.rank(p)):
                    acc = {}
                    for k in range(self.rank(p + 1)):
                        axpy(acc, 1, u.multiply(a[k][j], b[i][k]))
                    if is_nonzero(acc, self.field.p):
                        return f"d^2 != 0 at degree {p} (entry {i},{j})"
        return None

    # -- expansion ---------------------------------------------------------

    def expand(self, base_level: int) -> BaseComplex:
        """Subcomplex with component p expanded at level base_level + (p - lo) * e.

        e is the max entry degree, so every differential lands inside the
        next component and the result is an honest subcomplex.  For scalar
        entries (e = 0) the expansion is level-constant and represents the
        true homology exactly; otherwise window edges are unreliable.
        """
        f = self.field
        u = self.u
        e = self.entry_degree_bound()
        lo, hi = self.window
        levels = {p: base_level + (p - lo) * e for p in range(lo, hi + 1)}
        if levels and max(levels.values()) > u.bound:
            raise InputError(
                f"expansion level {max(levels.values())} beyond U bound {u.bound}; "
                "lower the window or rebuild U deeper")
        dims, labels = {}, {}
        for p in range(lo, hi + 1):
            r = self.rank(p)
            if not r:
                continue
            labels[p] = [(ui, j) for j in range(r) for ui in range(u.dim_leq(levels[p]))]
            dims[p] = len(labels[p])
        diffs = {}
        for p in sorted(dims):
            if p + 1 not in dims:
                continue
            tpos = {lab: i for i, lab in enumerate(labels[p + 1])}
            ent = self.entries.get(p)
            cols = []
            for ui, j in labels[p]:
                acc = {}
                for i, erow in enumerate(ent or ()):
                    # u_basis[ui] * entry, reduced in U
                    for k, c in erow[j].items():
                        for ti, v in u.mult_basis(ui, k).items():
                            row = tpos.get((ti, i))
                            if row is None:
                                raise InputError("expansion level overflow")
                            acc[row] = acc.get(row, 0) + c * v
                cols.append(zero_free(acc, f.p))
            diffs[p] = Matrix(f, dims[p + 1], cols)
        return BaseComplex(f, self.window, dims, diffs)

    def fiber_complex(self) -> BaseComplex:
        """k ⊗_U P: scalar parts of the differential entries (needs beta = 0)."""
        u = self.u
        one_idx = u._basis_pos[()]
        if not u.data.beta.is_zero():
            raise InputError("k tensor needs an augmented U (beta = 0)")
        dims = {p: r for p, r in self.ranks.items()}
        diffs = {}
        for p, ent in self.entries.items():
            rows = self.rank(p + 1)
            if not rows or not self.rank(p):
                continue
            diffs[p] = Matrix(self.field, rows,
                              [{i: ent[i][j][one_idx] for i in range(rows) if one_idx in ent[i][j]}
                               for j in range(self.rank(p))])
        return BaseComplex(self.field, self.window, dims, diffs)


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
    expanded = p.expand(base_level)
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
