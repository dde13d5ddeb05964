import os
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from koszul_kit.cofree import socle_sdr
from koszul_kit.complexes import BaseComplex, CdgModule, ChainMap, UComplex, _block
from koszul_kit.deformations import CdgAlgebra, DeformationData, PbwReport, build_U, build_cdga
from koszul_kit.errors import (
    CdgaInvariantError,
    InconsistentDataError,
    InputError,
    NotCofreeError,
    WellDefinednessError,
)
from koszul_kit.functors import (
    G_blocks,
    apply_G,
    bimodule_delta,
    cofree_actions,
    dual_dims,
    hom_labels,
    unit,
)
from koszul_kit.linalg import (
    RHS,
    DimensionError,
    EchelonSpan,
    Matrix,
    axpy,
    is_nonzero,
    kernel_basis,
    rank,
    row_space,
    solve,
    solve_matrix,
    solve_sparse,
    zero_free,
)
from koszul_kit.presentations import GradedAlgebraTruncation, QuadraticPresentation, _dual_pairing
from koszul_kit.resolution import GradedFreeModule
from koszul_kit.scalars import QQ
from koszul_kit.words import pair_index, word_weight, words_of_length

SEED = int(os.environ.get("KOSZUL_SEED", "0"))

# Property tests draw the same examples on every run: a failure is
# reproducible, and the suite's run time does not wander with the draw.
settings.register_profile("koszul", derandomize=True, deadline=None, database=None)
settings.load_profile("koszul")


def dense_rref(m, col_order=None):
    """Dense Gauss-Jordan reduced row echelon form: the test-side oracle for
    the library's one elimination core.

    Returns (R, pivots) in the shape ``linalg.rref`` gives: rows sorted by
    pivot column and padded with zero rows, pivots strictly increasing.
    ``col_order`` changes the pivot search order (the reversed order is the
    oracle of ``EchelonSpan``, which leads each row by its largest
    coordinate); R is stored in natural column order.
    """
    f = m.field
    data = m.to_rows()
    nrows, ncols = m.rows, m.cols
    order = list(range(ncols)) if col_order is None else list(col_order)
    pivots = []
    r = 0
    for col in order:
        if r >= nrows:
            break
        sel = next((i for i in range(r, nrows) if not f.is_zero(data[i][col])), -1)
        if sel < 0:
            continue
        data[r], data[sel] = data[sel], data[r]
        inv = f.inv(data[r][col])
        data[r] = [f.mul(inv, x) for x in data[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(data[i][col]):
                c = data[i][col]
                data[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(data[i], data[r])]
        pivots.append(col)
        r += 1
    rows_sorted = [row for _, row in sorted(zip(pivots, data[:r]))]
    return Matrix.from_rows(f, rows_sorted + data[r:], ncols), sorted(pivots)


def dense_solve(m, b):
    """Oracle solution of m.x = b (free variables zero), or None."""
    f = m.field
    aug = Matrix.from_rows(f, [row + [bi] for row, bi in zip(m.to_rows(), b)], m.cols + 1)
    r, pivots = dense_rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r.to_rows()[i][m.cols]
    return x


# -- dense Matrix ops: one Field call per entry, zeros included -------------------
#
# The test-side oracle of the ``Matrix`` ops, which run on raw values and
# visit nonzeros only; the oracles read the dense ``to_rows()``.


def dense_transpose(m):
    data = m.to_rows()
    return Matrix.from_rows(m.field, [[data[i][j] for i in range(m.rows)]
                                      for j in range(m.cols)], m.rows)


def dense_add(m, other):
    f = m.field
    if (m.rows, m.cols) != (other.rows, other.cols):
        raise DimensionError("shape mismatch in add")
    return Matrix.from_rows(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                                for r1, r2 in zip(m.to_rows(), other.to_rows())], m.cols)


def dense_sub(m, other):
    f = m.field
    if (m.rows, m.cols) != (other.rows, other.cols):
        raise DimensionError("shape mismatch in sub")
    return Matrix.from_rows(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                                for r1, r2 in zip(m.to_rows(), other.to_rows())], m.cols)


def dense_scale(m, c):
    f = m.field
    return Matrix.from_rows(f, [[f.mul(c, a) for a in r] for r in m.to_rows()], m.cols)


def dense_neg(m):
    return dense_scale(m, m.field.neg(m.field.one()))


def dense_mul(m, other):
    f = m.field
    if m.cols != other.rows:
        raise DimensionError(f"cannot multiply {m.rows}x{m.cols} by {other.rows}x{other.cols}")
    ot = other.to_rows()
    md = m.to_rows()
    out = []
    zero = f.zero()
    for i in range(m.rows):
        ri = md[i]
        orow = [zero] * other.cols
        for k in range(m.cols):
            a = ri[k]
            if f.is_zero(a):
                continue
            rk = ot[k]
            for j in range(other.cols):
                b = rk[j]
                if not f.is_zero(b):
                    orow[j] = f.add(orow[j], f.mul(a, b))
        out.append(orow)
    return Matrix.from_rows(f, out, other.cols)


def dense_apply(m, vec):
    if len(vec) != m.cols:
        raise DimensionError("vector length mismatch")
    f = m.field
    md = m.to_rows()
    out = []
    for i in range(m.rows):
        s = f.zero()
        ri = md[i]
        for j, v in enumerate(vec):
            if not f.is_zero(v):
                s = f.add(s, f.mul(ri[j], v))
        out.append(s)
    return out


def dense_kron(m, other):
    f = m.field
    md, od = m.to_rows(), other.to_rows()
    out = []
    for i1 in range(m.rows):
        for i2 in range(other.rows):
            row = []
            r1, r2 = md[i1], od[i2]
            for j1 in range(m.cols):
                a = r1[j1]
                if f.is_zero(a):
                    row.extend([f.zero()] * other.cols)
                else:
                    row.extend([f.mul(a, b) for b in r2])
            out.append(row)
    return Matrix.from_rows(f, out, m.cols * other.cols)


def dense_is_zero(m):
    return all(m.field.is_zero(x) for row in m.to_rows() for x in row)


def dense_eq(m, other):
    if (m.rows, m.cols) != (other.rows, other.cols):
        return False
    f = m.field
    return all(f.eq(a, b) for r1, r2 in zip(m.to_rows(), other.to_rows())
               for a, b in zip(r1, r2))


# -- the one element format of A, A! and U, at the test boundary --------------------
#
# The library passes an element as a sparse column {basis index: raw value},
# zeros left out; the oracles below compute on dense coordinate lists.


def dense(f, col, n):
    """A sparse column as a dense list of length n."""
    out = [f.zero()] * n
    for k, v in col.items():
        out[k] = v
    return out


def sparse(vec):
    """A dense list as a sparse column, zeros left out."""
    return {k: v for k, v in enumerate(vec) if v}


def dense_columns(f, cols, n):
    """The n-row matrix whose columns are the dense lists ``cols``."""
    return Matrix.from_rows(f, [[col[i] for col in cols] for i in range(n)], len(cols))


# -- the product table of a graded truncation, dense ---------------------------------


def dense_mult_tensor(alg, i, j):
    """Matrix of A_i ⊗ A_j -> A_{i+j}, one ``project_word`` per basis pair:
    the oracle of ``GradedAlgebraTruncation.mult_columns`` and ``multiply``."""
    n = alg.dim_at(i + j)
    cols = [dense(alg.field, alg.project_word(u + v), n)
            for u in alg.basis_words[i] for v in alg.basis_words[j]]
    return dense_columns(alg.field, cols, n)


def dense_left_mult(alg, g, j):
    """Matrix of left multiplication by generator g, A_j -> A_{1+j}."""
    n = alg.dim_at(1 + j)
    cols = [dense(alg.field, alg.project_word((g,) + v), n) for v in alg.basis_words[j]]
    return dense_columns(alg.field, cols, n)


def dense_right_mult(alg, g, j):
    """Matrix of right multiplication by generator g, A_j -> A_{j+1}."""
    n = alg.dim_at(j + 1)
    cols = [dense(alg.field, alg.project_word(v + (g,)), n) for v in alg.basis_words[j]]
    return dense_columns(alg.field, cols, n)


def dense_cofree_actions(dual, labels):
    """The twisted action (x_g* . f)(t) = -f(t x_g*) on labels (r, s, *rest),
    cell by cell from ``dense_right_mult``: the oracle of
    ``functors.cofree_actions``, with a matrix for every labelled degree."""
    f = dual.field
    actions = {}
    for p, labs in labels.items():
        tgt = labels.get(p + 1, [])
        tpos = {lab: i for i, lab in enumerate(tgt)}
        acts = []
        for g in range(dual.pres.dim):
            out = [[f.zero()] * len(labs) for _ in range(len(tgt))]
            for col, (r, s, *rest) in enumerate(labs):
                if r == 0:
                    continue
                rm = dense_right_mult(dual, g, r - 1).to_rows()
                for t in range(dual.dim_at(r - 1)):
                    c = rm[s][t]
                    if f.is_zero(c):
                        continue
                    row = tpos.get((r - 1, t, *rest))
                    if row is not None:
                        out[row][col] = f.sub(out[row][col], c)
            acts.append(Matrix.from_rows(f, out, len(labs)))
        actions[p] = acts
    return actions


# -- word quotients: the heap normal form and the checks only tests read ------------


_NORMAL_FORMS = weakref.WeakKeyDictionary()


def normal_form(q, word):
    """{standard word: coefficient} of the class of a word in the word
    quotient q: the word reduced greatest word first on a heap at the
    bound, by every rule its length allows.  The oracle of the generator
    table; memoised per quotient and word, and shared by later calls
    (callers copy before changing it)."""
    memo = _NORMAL_FORMS.setdefault(q, {})
    nf = memo.get(word)
    if nf is None:
        nf = memo[word] = q._reduce({word: q.field.one()}, q.bound)
    return nf


def heap_column(alg, word):
    """The heap ``normal_form`` of a word on the basis positions of its
    degree: the oracle of ``GradedAlgebraTruncation.project_word``."""
    pos = {w: i for i, w in enumerate(alg.basis_words[len(word)])}
    return {pos[w]: c for w, c in normal_form(alg, word).items()}


def heap_u_column(u, word):
    """The heap ``normal_form`` of a word on U's flat basis positions: the
    oracle of ``FilteredAlgebraTruncation.reduce_word`` and ``mult_basis``."""
    return {u._basis_pos[w]: c for w, c in normal_form(u, word).items()}


def standard_words(q, n):
    """The degree-n words no rule rewrites at the bound, in lex order."""
    return [w for w in words_of_length(q._d, n) if q._rewrite(w, q.bound) is None]


def walked_standard_words(q, n):
    """The degree-n standard words by a walk of their own: lengths 1..n
    against the leads of the rules of excess <= bound - n, each word
    extended a letter at a time and its suffixes tested."""
    banned = {lead for lead, (e, _) in q._rules.items() if e <= q.bound - n}
    lengths = sorted({len(lead) for lead in banned if lead})
    words = [] if () in banned else [()]
    for m in range(1, n + 1):
        longer = [w + (x,) for w in words for x in range(q._d)]
        words = [w for w in longer
                 if not any(w[m - k:] in banned for k in lengths if k <= m)]
    return words


def standard_words_by_candidate_tests(q):
    """``WordQuotient._standard_words`` before its suffix table: one walk
    per distinct set of banned leads, every candidate word testing its own
    suffixes against the set."""
    bound, d = q.bound, q._d
    out, banned = [], None
    for n in range(bound + 1):
        now = {lead for lead, (e, _) in q._rules.items() if e <= bound - n}
        if now != banned:
            banned = now
            lengths = sorted({len(lead) for lead in banned if lead})
            words, m = ([] if () in banned else [()]), 0
        while m < n:
            m += 1
            longer = [w + (x,) for w in words for x in range(d)]
            words = [w for w in longer
                     if not any(w[m - k:] in banned for k in lengths if k <= m)]
        out.append(words)
    return out


def check_associativity(q, max_total=None):
    """(ab)c = a(bc) exactly on standard words of degree >= 1 with
    |a| + |b| + |c| within bound.  A and A! multiply through ``multiply``,
    so through their generator tables; U through the heap normal forms of
    concatenated words."""
    top = q.bound if max_total is None else min(max_total, q.bound)
    f = q.field
    if isinstance(q, GradedAlgebraTruncation):
        gens = [(n, {i: f.one()}) for n in range(1, top + 1) for i in range(q.dim_at(n))]
        product = q.multiply
    else:
        gens = [(n, {w: f.one()}) for n in range(1, top + 1) for w in standard_words(q, n)]

        def product(_i, x, _j, y):
            out = {}
            for u, a in x.items():
                for v, b in y.items():
                    for w, c in normal_form(q, u + v).items():
                        out[w] = f.add(out.get(w, f.zero()), f.mul(f.mul(a, b), c))
            return {w: c for w, c in out.items() if not f.is_zero(c)}

    for i, a in gens:
        for j, b in gens:
            if i + j >= top:
                continue
            ab = product(i, a, j, b)
            for k, c in gens:
                if i + j + k <= top and (product(i + j, ab, k, c)
                                         != product(i, a, j + k, product(j, b, k, c))):
                    return False
    return True


def check_weight_blocks(alg):
    """Every word reduces onto basis monomials of its own weight."""
    if alg.pres.weights is None:
        return True
    w = alg.pres.weights
    for n in range(2, alg.bound + 1):
        for word in words_of_length(alg.pres.dim, n):
            for i in alg.project_word(word):
                if word_weight(word, w) != alg.basis_weight(n, i):
                    return False
    return True


# -- the product table of the filtered truncation U, dense ---------------------------
#
# The old U products: a dense column over the whole U basis, every cell of
# which is tested with ``Field.is_zero``.


def dense_mult_basis(u, i, j):
    """basis_word[i] * basis_word[j] as a dense list over the U basis, from
    the heap normal form: the oracle of ``FilteredAlgebraTruncation.mult_basis``."""
    return dense(u.field, heap_u_column(u, u.basis_words[i] + u.basis_words[j]), u.total_dim)


def u_product(u, a, b):
    """The product of two U elements, sparse columns, summed over U's one
    product entry ``mult_basis`` and reduced once."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            axpy(out, x * y, u.mult_basis(i, j))
    return zero_free(out, u.field.p)


def dense_u_multiply(u, a, b):
    """The product of two dense U elements, summed over ``dense_mult_basis``."""
    f = u.field
    out = [f.zero()] * u.total_dim
    for i, x in enumerate(a):
        if f.is_zero(x):
            continue
        for j, y in enumerate(b):
            if f.is_zero(y):
                continue
            c = f.mul(x, y)
            out = [f.add(o, f.mul(c, v)) for o, v in zip(out, dense_mult_basis(u, i, j))]
    return out


def dense_f_differentials(n, u, labels):
    """The differentials u ⊗ n -> sum_g (u x_g) ⊗ (x_g* n) + u ⊗ d(n) of
    ``functors.apply_F`` on its ``labels``, cell by cell."""
    f = u.field
    diffs = {}
    for p, src in labels.items():
        if p + 1 not in labels:
            continue
        tgt_pos = {lab: i for i, lab in enumerate(labels[p + 1])}
        out = [[f.zero()] * len(src) for _ in range(len(tgt_pos))]
        d_n = n.diff(p).to_rows()
        for col, (ui, ni) in enumerate(src):
            for g in range(u.data.base.dim):
                uxg = dense_mult_basis(u, ui, u._basis_pos[(g,)])
                act = n.action(p, g).to_rows()
                for ti, cu in enumerate(uxg):
                    if f.is_zero(cu):
                        continue
                    for nj in range(n.dim(p + 1)):
                        ca = act[nj][ni]
                        if not f.is_zero(ca):
                            row = tgt_pos[(ti, nj)]
                            out[row][col] = f.add(out[row][col], f.mul(cu, ca))
            for nj in range(n.dim(p + 1)):
                c = d_n[nj][ni]
                if not f.is_zero(c):
                    row = tgt_pos[(ui, nj)]
                    out[row][col] = f.add(out[row][col], c)
        diffs[p] = Matrix.from_rows(f, out, len(src))
    return diffs


def dense_gf_differentials(n, u, cdga, labels):
    """The differentials of ``functors.gf_composite`` on its ``labels``
    (r, s, u_i, n_j), cell by cell from ``dense_mult_basis`` and
    ``dense_left_mult``."""
    f = n.field
    dual = cdga.dual
    diffs = {}
    for p, src in labels.items():
        if p + 1 not in labels:
            continue
        tpos = {lab: i for i, lab in enumerate(labels[p + 1])}
        out = [[f.zero()] * len(src) for _ in range(len(tpos))]

        def add(lab, col, c):
            row = tpos.get(lab)
            if row is not None:
                out[row][col] = f.add(out[row][col], c)

        for col, (r, s, ui, ni) in enumerate(src):
            sgn = f.one() if r % 2 == 0 else f.neg(f.one())
            if r >= 1:
                # x_g . f(x_g* t) and f(d t), t in A!_{r-1}, with sign -sgn
                for g in range(dual.pres.dim):
                    lm = dense_left_mult(dual, g, r - 1).to_rows()
                    xgu = dense_mult_basis(u, u._basis_pos[(g,)], ui)
                    for t in range(dual.dim_at(r - 1)):
                        c1 = lm[s][t]
                        for ti, cu in enumerate(xgu):
                            if not f.is_zero(c1) and not f.is_zero(cu):
                                add((r - 1, t, ti, ni), col, f.neg(f.mul(sgn, f.mul(c1, cu))))
                dm = cdga.d(r - 1)
                dmr = dm.to_rows()
                for t in range(dual.dim_at(r - 1)):
                    c1 = dmr[s][t] if dm.rows > s else f.zero()
                    if not f.is_zero(c1):
                        add((r - 1, t, ui, ni), col, f.neg(f.mul(sgn, c1)))
            # the differential of F(N) on f(t), with sign sgn
            for g in range(dual.pres.dim):
                uxg = dense_mult_basis(u, ui, u._basis_pos[(g,)])
                act = n.action(p + r, g).to_rows()
                for ti, cu in enumerate(uxg):
                    for nj in range(n.dim(p + r + 1)):
                        ca = act[nj][ni]
                        if not f.is_zero(cu) and not f.is_zero(ca):
                            add((r, s, ti, nj), col, f.mul(sgn, f.mul(cu, ca)))
            dn = n.diff(p + r).to_rows()
            for nj in range(n.dim(p + r + 1)):
                if not f.is_zero(dn[nj][ni]):
                    add((r, s, ui, nj), col, f.mul(sgn, dn[nj][ni]))
        diffs[p] = Matrix.from_rows(f, out, len(src))
    return diffs


def dense_hom_complex_explicit(n, m, window):
    """Hom_U(F(N), M) as ``functors.hom_complex_explicit`` built it before
    it ran on ``_G_differentials``: its own loop, labels (r, i, j) for the
    entry e_i of M^{p+r} at e_j of N^r, and the sign (-1)^r of the source
    degree on every term, i.e. (-1)^{|t|}[d_M f(t) - f(d_N t) -
    sum_g x_g f(x_g* t)].  The old body cut N's terms off below degree 1;
    here they run wherever N^{r-1} is nonzero.  The oracle of the explicit
    complex, whose differentials differ from it by (-1)^r per label.
    Returns (BaseComplex, labels)."""
    f = n.field
    lo, hi = window
    dims, labels = {}, {}
    for p in range(lo, hi + 1):
        labs = []
        for r in n.dims:
            if m.dim(p + r):
                labs.extend((r, i, j) for i in range(m.dim(p + r))
                            for j in range(n.dim(r)))
        if labs:
            dims[p] = len(labs)
            labels[p] = labs
    pos = {p: {lab: i for i, lab in enumerate(labs)} for p, labs in labels.items()}
    diffs = {}
    d_gens = n.num_generators()
    for p in sorted(dims):
        if p + 1 not in dims:
            continue
        tpos = pos[p + 1]
        cols = []
        for r, i, j in labels[p]:
            acc = {}
            sgn = 1 if r % 2 == 0 else -1
            # (-1)^r d_M f
            for i2, c in m.diff(p + r).columns[i].items():
                row = tpos.get((r, i2, j))
                if row is not None:
                    acc[row] = acc.get(row, 0) + sgn * c
            if n.dim(r - 1):
                # (-1)^r f d_N : contributes to component r' = r - 1
                for j2, dcol in enumerate(n.diff(r - 1).columns):
                    c = dcol.get(j)
                    if c:
                        row = tpos.get((r - 1, i, j2))
                        if row is not None:
                            acc[row] = acc.get(row, 0) + sgn * c
                # (-1)^r sum_g x_g f(x_g* x): also lands in component r - 1
                if m.dim(p + r):
                    for g in range(d_gens):
                        am = m.action(p + r, g).columns[i]
                        for j2, acol in enumerate(n.action(r - 1, g).columns):
                            c1 = acol.get(j)
                            if not c1:
                                continue
                            for i2, c2 in am.items():
                                row = tpos.get((r - 1, i2, j2))
                                if row is not None:
                                    acc[row] = acc.get(row, 0) + sgn * c1 * c2
            cols.append(zero_free(acc, f.p))
        diffs[p] = Matrix(f, dims[p + 1], cols)
    return BaseComplex(f, window, dims, diffs), labels


# -- the old builders of F: its own loop, its fiber, the j-major expansion ---------
#
# ``functors.apply_F`` and T's delta as they were before F(N)
# became the expansion of N's free U-complex: the loop ``_add_F``, the fiber
# k ⊗_U F_i(N) that ``FilteredFComplex`` kept, and ``FreeUComplex.expand``
# with its labels j-major at the levels base_level + (p - lo) e.  The
# library's one column formula must give their matrices column dict for
# column dict, key order included (the j-major expansion after relabelling).


def oracle_add_F(acc, rows, sign, u, acts, d_cols, ui, ni):
    """F's differential: acc += sign · d(u_ui ⊗ n_ni), where
    d(u ⊗ n) = sum_g (u x_g) ⊗ (x_g* n) + u ⊗ d(n); ``acts`` pairs U's
    position of each x_g with the columns of x_g* on N."""
    for gi, act in acts:
        xn = act[ni]  # x_g* n
        if not xn:
            continue
        for ti, cu in u.mult_basis(ui, gi).items():
            if sign < 0:
                cu = -cu
            for nj, ca in xn.items():
                k = rows.get((ti, nj))
                if k is not None:
                    acc[k] = acc.get(k, 0) + cu * ca
    for nj, c in d_cols[ni].items():
        k = rows.get((ui, nj))
        if k is not None:
            acc[k] = acc.get(k, 0) + sign * c
    return acc


def _oracle_gens(u):
    return [u._basis_pos[(g,)] for g in range(u.data.base.dim)]


def oracle_apply_F(n, u, bounds):
    """The old ``apply_F`` on its own loop, unverified: F_i(N) with
    ``labels`` {p: [(u index, n index)]}, u-major at level filtration + p."""
    f = u.field
    lo, hi = bounds.window
    dims, labels = {}, {}
    for p in range(lo, hi + 1):
        lev = bounds.filtration + p
        if lev < 0 or n.dim(p) == 0:
            continue
        if lev > u.bound:
            raise InputError(f"filtration level {lev} beyond U bound {u.bound}")
        labels[p] = [(ui, ni) for ui in range(u.dim_leq(lev)) for ni in range(n.dim(p))]
        dims[p] = len(labels[p])
    gens = _oracle_gens(u)
    diffs = {}
    for p in sorted(dims):
        if p + 1 not in dims:
            continue
        rows = {lab: i for i, lab in enumerate(labels[p + 1])}
        acts = [(gi, n.action(p, g).columns) for g, gi in enumerate(gens)]
        d_cols = n.diff(p).columns
        diffs[p] = Matrix(f, dims[p + 1],
                          [zero_free(oracle_add_F({}, rows, 1, u, acts, d_cols, ui, ni), f.p)
                           for ui, ni in labels[p]])
    fc = BaseComplex(f, bounds.window, dims, diffs)
    fc.labels = labels
    return fc


def oracle_delta(u, cdga, level, r):
    """The old ``KoszulBimodule.delta``: F's loop with N = A!."""
    dual = cdga.dual
    na, nb = dual.dim_at(r), dual.dim_at(r + 1)
    left = dual.mult_columns(1, r)  # x_g e_a: column g * na + a
    acts = [(gi, left[g * na:(g + 1) * na]) for g, gi in enumerate(_oracle_gens(u))]
    d_cols = cdga.d(r).columns
    n_tgt = u.dim_leq(level + 1)
    rows = {(ti, b): ti * nb + b for ti in range(n_tgt) for b in range(nb)}
    return Matrix(u.field, n_tgt * nb,
                  [zero_free(oracle_add_F({}, rows, 1, u, acts, d_cols, ui, a), u.field.p)
                   for ui in range(u.dim_leq(level)) for a in range(na)])


def oracle_f_fiber(fc, u):
    """``FilteredFComplex.fiber_complex``: k ⊗_U F_i(N), the labels of F_i(N)
    whose U part is the unit monomial, rows and columns."""
    dims = {}
    sel = {}
    for p, labs in fc.labels.items():
        keep = [i for i, (ui, ni) in enumerate(labs) if u.basis_words[ui] == ()]
        if keep:
            dims[p] = len(keep)
            sel[p] = keep
    diffs = {p: fc.diff(p).submatrix(sel[p + 1], sel[p]) for p in dims if p + 1 in dims}
    return BaseComplex(fc.field, fc.window, dims, diffs)


def oracle_free_expand(fc, base_level):
    """The old ``FreeUComplex.expand``: component p at level base_level +
    (p - lo) e, e the entry degree bound, with labels (u index, j) j-major,
    and "expansion level overflow" on a term with no row."""
    f = fc.field
    u = fc.u
    e = fc.entry_degree_bound()
    lo, hi = fc.window
    levels = {p: base_level + (p - lo) * e for p in range(lo, hi + 1)}
    if levels and max(levels.values()) > u.bound:
        raise InputError(f"expansion level {max(levels.values())} beyond U bound {u.bound}")
    dims, labels = {}, {}
    for p in range(lo, hi + 1):
        r = fc.rank(p)
        if not r:
            continue
        labels[p] = [(ui, j) for j in range(r) for ui in range(u.dim_leq(levels[p]))]
        dims[p] = len(labels[p])
    diffs = {}
    for p in sorted(dims):
        if p + 1 not in dims:
            continue
        tpos = {lab: i for i, lab in enumerate(labels[p + 1])}
        ent = free_entries(fc).get(p)
        cols = []
        for ui, j in labels[p]:
            acc = {}
            for i, erow in enumerate(ent or ()):
                for k, c in erow[j].items():
                    for ti, v in u.mult_basis(ui, k).items():
                        row = tpos.get((ti, i))
                        if row is None:
                            raise InputError("expansion level overflow")
                        acc[row] = acc.get(row, 0) + c * v
            cols.append(zero_free(acc, f.p))
        diffs[p] = Matrix(f, dims[p + 1], cols)
    out = BaseComplex(f, fc.window, dims, diffs)
    out.labels = labels
    return out


def labelled_cells(m, row_labels, col_labels):
    """The nonzero cells of a Matrix as {(row label, column label): value}:
    two bases that list one set of labels in different orders compare equal
    exactly when the matrices agree after relabelling."""
    return {(row_labels[i], col_labels[j]): v
            for j, col in enumerate(m.columns) for i, v in col.items()}


# -- the free side on dense U coordinate lists ------------------------------------
#
# The old ``freeside`` bodies, on dense lists over the U basis with one
# ``Field`` call per cell: the oracles of ``FreeUComplex`` and
# ``free_nullhomotopy``, which read sparse U columns.  They read entry
# grids; the library holds only column views, read here by ``free_grid``.


def free_grid(view, nrows):
    """A column view [{U index k: {i: c}} per generator j] as the entry
    grid [[sparse U column of entry (i, j)]] with ``nrows`` rows."""
    return [[{k: t[i] for k, t in col.items() if i in t} for col in view]
            for i in range(nrows)]


def free_entries(fc):
    """The entry grid {p: grid} of a ``FreeUComplex``, d_p with rank(p+1) rows."""
    return {p: free_grid(view, fc.rank(p + 1)) for p, view in fc.columns.items()}


def free_view(grid, ncols):
    """An entry grid with ``ncols`` columns as its column view."""
    view = [{} for _ in range(ncols)]
    for i, row in enumerate(grid):
        for col, entry in zip(view, row):
            for k, c in entry.items():
                col.setdefault(k, {})[i] = c
    return view


def free_map_grid(maps, rows):
    """A map or homotopy {q: column view} as {q: grid}, rows(q) rows."""
    return {q: free_grid(view, rows(q)) for q, view in maps.items()}


def dense_free_entries(fc):
    """The differential entries of a ``FreeUComplex`` as dense lists."""
    u = fc.u
    return {p: [[dense(u.field, e, u.total_dim) for e in row] for row in mat]
            for p, mat in free_entries(fc).items()}


def dense_free_check_d_squared(fc):
    """``FreeUComplex.check_d_squared`` on dense entries."""
    f, u = fc.field, fc.u
    entries = dense_free_entries(fc)
    for p in sorted(entries):
        if p + 1 not in entries:
            continue
        a, b = entries[p], entries[p + 1]
        for i in range(fc.rank(p + 2)):
            for j in range(fc.rank(p)):
                acc = [f.zero()] * u.total_dim
                for k in range(fc.rank(p + 1)):
                    prod = dense_u_multiply(u, a[k][j], b[i][k])
                    acc = [f.add(x, y) for x, y in zip(acc, prod)]
                if any(not f.is_zero(x) for x in acc):
                    return f"d^2 != 0 at degree {p} (entry {i},{j})"
    return None


def dense_free_expand(fc, base_level):
    """The differentials of ``FreeUComplex.expand``, as {p: Matrix}."""
    f, u = fc.field, fc.u
    entries = dense_free_entries(fc)
    e = max((len(u.basis_words[bi]) for mat in entries.values() for row in mat
             for vec in row for bi, c in enumerate(vec) if not f.is_zero(c)), default=0)
    lo, hi = fc.window
    levels = {p: base_level + (p - lo) * e for p in range(lo, hi + 1)}
    labels = {p: [(ui, j) for j in range(fc.rank(p)) for ui in range(u.total_dim)
                  if len(u.basis_words[ui]) <= levels[p]]
              for p in range(lo, hi + 1) if fc.rank(p)}
    diffs = {}
    for p in sorted(labels):
        if p + 1 not in labels:
            continue
        tpos = {lab: i for i, lab in enumerate(labels[p + 1])}
        out = [[f.zero()] * len(labels[p]) for _ in range(len(tpos))]
        ent = entries.get(p)
        for col, (ui, j) in enumerate(labels[p]):
            for i in range(fc.rank(p + 1) if ent else 0):
                unit = [f.one() if k == ui else f.zero() for k in range(u.total_dim)]
                for ti, c in enumerate(dense_u_multiply(u, unit, ent[i][j])):
                    if not f.is_zero(c):
                        row = tpos[(ti, i)]
                        out[row][col] = f.add(out[row][col], c)
        diffs[p] = Matrix.from_rows(f, out, len(labels[p]))
    return diffs


def dense_free_fiber(fc):
    """The differentials of ``FreeUComplex.fiber_complex``, as {p: Matrix}."""
    f = fc.field
    one_idx = fc.u._basis_pos[()]
    diffs = {}
    for p, ent in dense_free_entries(fc).items():
        rows, cols = fc.rank(p + 1), fc.rank(p)
        if rows and cols:
            diffs[p] = Matrix.from_rows(f, [[ent[i][j][one_idx] for j in range(cols)]
                                            for i in range(rows)], cols)
    return diffs


def dense_free_nullhomotopy(fc, fmat, gmat, degree_cap):
    """``free_nullhomotopy`` with dense entries and maps: one scalar
    equation per U basis element, assembled through unit-vector products.
    Returns {p: matrix of dense lists} or None."""
    f, u = fc.field, fc.u
    nb = u.total_dim
    entries = dense_free_entries(fc)
    keep = [i for i in range(nb) if len(u.basis_words[i]) <= degree_cap]
    lo, hi = fc.window
    varmap = {}
    for q in range(lo, hi + 2):
        for i in range(fc.rank(q - 1)):
            for j in range(fc.rank(q)):
                for bi in keep:
                    varmap[(q, i, j, bi)] = len(varmap)
    eqs = []
    one = f.one()
    for q in range(lo, hi + 1):
        sgn_d = one if q % 2 == 0 else f.neg(one)
        sgn_s = f.neg(sgn_d)
        dq, dprev = entries.get(q), entries.get(q - 1)
        fm, gm = fmat.get(q), gmat.get(q)
        for i in range(fc.rank(q)):
            for j in range(fc.rank(q)):
                rhs = [f.zero()] * nb
                if fm is not None:
                    rhs = [f.add(x, y) for x, y in zip(rhs, fm[i][j])]
                if gm is not None:
                    rhs = [f.sub(x, y) for x, y in zip(rhs, gm[i][j])]
                coeff = {}

                def add_term(key, fixed, unknown_left, sgn):
                    for bi in keep:
                        unit = [one if k == bi else f.zero() for k in range(nb)]
                        prod = (dense_u_multiply(u, unit, fixed) if unknown_left
                                else dense_u_multiply(u, fixed, unit))
                        v = varmap[key + (bi,)]
                        for t, c in enumerate(prod):
                            if not f.is_zero(c):
                                row = coeff.setdefault(t, {})
                                row[v] = f.add(row.get(v, f.zero()), f.mul(sgn, c))

                if dprev is not None:
                    for k in range(fc.rank(q - 1)):
                        add_term((q, k, j), dprev[i][k], True, sgn_d)
                if dq is not None:
                    for k in range(fc.rank(q + 1)):
                        add_term((q + 1, i, k), dq[k][j], False, sgn_s)
                for t in range(nb):
                    eq = dict(coeff.get(t, {}))
                    if eq or not f.is_zero(rhs[t]):
                        eq[RHS] = rhs[t]
                        eqs.append(eq)
    sol = solve_sparse(f, eqs, len(varmap))
    if sol is None:
        return None
    return {q: [[[sol[varmap[(q, i, j, bi)]] if bi in keep else f.zero() for bi in range(nb)]
                 for j in range(fc.rank(q))] for i in range(fc.rank(q - 1))]
            for q in range(lo, hi + 2) if fc.rank(q) and fc.rank(q - 1)}


@st.composite
def truncated_presentation(draw, fields):
    """A random quadratic presentation on d <= 3 generators over one of
    ``fields`` (no relations, a free algebra, included) and a truncation
    bound."""
    f = draw(st.sampled_from(fields))
    d = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=-2, max_value=2)
    rows = draw(st.lists(st.lists(small, min_size=d * d, max_size=d * d),
                         min_size=0, max_size=d * d))
    rel = Matrix.from_rows(f, [[f.of_int(x) for x in r] for r in rows], d * d)
    pres = QuadraticPresentation(f, [f"x{i}" for i in range(d)], rel)
    return pres, draw(st.integers(min_value=2, max_value=4 if d <= 2 else 3))


# Rationals over Q whose sums and products are often integral (2 * 1/2,
# 3/2 + 1/2, -2/3 * 3/2), zero drawn often, each in canonical form: what
# every op must store as an int again.
canonical_fractions = st.one_of(st.just(0), st.sampled_from(
    [Fraction(1, 2), 2, Fraction(-2, 3), Fraction(3, 2), -1, Fraction(-3, 2), 3]))


def raw_values(f, values):
    """Every value canonical: over Q an ``int`` when integral and a
    ``Fraction`` only with a denominator > 1, over F_p an ``int`` in [0, p)."""
    if f.p:
        return all(type(x) is int and 0 <= x < f.p for x in values)
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in values)


# -- the minimal resolution on dense expanded vectors --------------------------------


def dense_act_on_expanded(free, mdeg, mb, vdeg, vec):
    """``resolution._act_on_expanded`` on dense lists: every row of the dense
    ``dense_mult_tensor`` is read, zeros included."""
    alg = free.alg
    f = alg.field
    src_labs = free.basis_labels(vdeg)[0]
    tgt_labs, tstart = free.basis_labels(vdeg + mdeg)
    out = [f.zero()] * len(tgt_labs)
    for (gi, d, b), c in zip(src_labs, vec):
        if f.is_zero(c):
            continue
        mt = dense_mult_tensor(alg, mdeg, d)
        j = mb * alg.dim_at(d) + b
        row = tstart[gi]
        for prow in mt.to_rows():
            pc = prow[j]
            if not f.is_zero(pc):
                out[row] = f.add(out[row], f.mul(c, pc))
            row += 1
    return out


def dense_resolution_betti(alg, steps, degree_cap):
    """The minimal resolution with a full dense kernel at every (step,
    degree), through ``dense_act_on_expanded``: the oracle of
    ``minimal_resolution_betti``, which computes a kernel only where the
    span of A_1 times the kernel below falls short of exactness's count."""
    f = alg.field
    betti = {(0, 0): 1}
    current = GradedFreeModule(alg, [0])
    kernels = {}
    for deg in range(1, degree_cap + 1):
        n = current.dim_at(deg)
        if n:
            kernels[deg] = Matrix.identity(f, n)
    step = 1
    while step <= steps:
        next_shifts, gen_vectors = [], []
        for deg in sorted(kernels):
            kb = kernels[deg]
            if kb.cols == 0:
                continue
            span = EchelonSpan(f)
            for ldeg in sorted(kernels):
                if ldeg >= deg:
                    break
                mdeg = deg - ldeg
                if mdeg < 1 or mdeg > alg.bound:
                    continue
                lk = kernels[ldeg]
                for ci in range(lk.cols):
                    for mb in range(alg.dim_at(mdeg)):
                        prod = dense_act_on_expanded(current, mdeg, mb, ldeg,
                                                     dense(f, lk.columns[ci], lk.rows))
                        span.insert(dict(enumerate(prod)))
            chosen = [ci for ci in range(kb.cols)
                      if span.insert(dict(enumerate(dense(f, kb.columns[ci], kb.rows))))]
            if chosen:
                betti[(step, deg)] = len(chosen)
                for ci in chosen:
                    next_shifts.append(deg)
                    gen_vectors.append(dense(f, kb.columns[ci], kb.rows))
        if not next_shifts:
            break
        nxt = GradedFreeModule(alg, next_shifts)
        new_kernels = {}
        for deg in range(1, degree_cap + 1):
            src_labs = nxt.basis_labels(deg)[0]
            if not src_labs:
                continue
            cols = [dense_act_on_expanded(current, d, b, next_shifts[si], gen_vectors[si])
                    for (si, d, b) in src_labs]
            kb = kernel_basis(dense_columns(f, cols, current.dim_at(deg)))
            if kb.cols:
                new_kernels[deg] = kb
        current = nxt
        kernels = new_kernels
        step += 1
    return betti


def dense_strand_differentials(alg, dual, n):
    """The differentials of ``suite.strand_complex(alg, dual, n)``, assembled
    cell by cell with one ``Field`` call per product."""
    f = alg.field
    comps = {-q: (n - q, q) for q in range(n + 1)
             if alg.dim_at(n - q) and dual.dim_at(q)}
    diffs = {}
    for pos, (adeg, qdeg) in comps.items():
        if pos + 1 not in comps:
            continue
        dq, dq1 = dual.dim_at(qdeg), dual.dim_at(qdeg - 1)
        rows, cols = alg.dim_at(adeg + 1) * dq1, alg.dim_at(adeg) * dq
        out = [[f.zero()] * cols for _ in range(rows)]
        for g in range(alg.pres.dim):
            rm = dense_right_mult(alg, g, adeg).to_rows()
            dualrm = dense_right_mult(dual, g, qdeg - 1).to_rows()
            for ai in range(alg.dim_at(adeg)):
                for si in range(dq):
                    for aj in range(alg.dim_at(adeg + 1)):
                        for sj in range(dq1):
                            cell = out[aj * dq1 + sj]
                            cell[ai * dq + si] = f.add(cell[ai * dq + si], f.mul(
                                rm[aj][ai], dualrm[si][sj]))
        diffs[pos] = Matrix.from_rows(f, out, cols)
    return diffs


# -- pbw_check by solves -------------------------------------------------------------


def intersect_row_spaces(a: Matrix, b: Matrix) -> Matrix:
    """Canonical basis (rref rows) of rowspace(a) ∩ rowspace(b)."""
    if a.cols != b.cols:
        raise DimensionError("ambient mismatch in intersection")
    # (x, y) with x.a = y.b  <=>  (x, y) in left kernel of [a; -b]
    k = kernel_basis(a.vstack(b.neg()).transpose())  # columns are (x | y)
    at = a.transpose()
    vecs = [at.apply({i: v for i, v in col.items() if i < a.rows}) for col in k.columns]
    return row_space(Matrix(a.field, a.cols, vecs).transpose())


def pbw_check_by_solves(data):
    """``deformations.pbw_check`` as it was before it read coordinates off
    the kernel: the rref basis of (R⊗V)∩(V⊗R), two ``solve`` calls per
    basis vector for its coordinates in both row sets, and a third for the
    R-coordinates of its image.  The test-side oracle of ``pbw_check``."""
    f = data.field
    p = f.p
    d = data.base.dim
    rel = data.base.relations
    m = rel.rows
    alpha, beta = data.alpha.columns, data.beta.columns  # per relation i
    idm = Matrix.identity(f, d)
    rv = rel.kron(idm)        # rows r_i ⊗ e_k span R ⊗ V
    vr = idm.kron(rel)        # rows e_k ⊗ r_i span V ⊗ R
    overlap = intersect_row_spaces(rv, vr)
    rvt, vrt, relt = rv.transpose(), vr.transpose(), rel.transpose()

    cond1 = True
    cond2 = True
    cond3 = True
    for vec in overlap.transpose().columns:
        # t as sum c r_i ⊗ e_k (key i * d + k) and as sum c e_k ⊗ r_i (key k * m + i)
        c_rv = [(divmod(key, d), c) for key, c in solve(rvt, vec).items()]
        c_vr = [(divmod(key, m)[::-1], c) for key, c in solve(vrt, vec).items()]
        # (alpha ⊗ id)(t) - (id ⊗ alpha)(t) in V ⊗ V coordinates, and
        # (beta ⊗ id)(t) - (id ⊗ beta)(t) in V
        img, rhs2 = {}, {}
        for coeffs, sign, left in ((c_rv, 1, True), (c_vr, -1, False)):
            for (i, k), c in coeffs:
                c *= sign
                for g, a in alpha[i].items():
                    idx = pair_index(g, k, d) if left else pair_index(k, g, d)
                    img[idx] = img.get(idx, 0) + c * a
                for b in beta[i].values():
                    rhs2[k] = rhs2.get(k, 0) + c * b
        # express img in R coordinates and push through alpha / beta; an
        # img outside R fails all three conditions
        u = solve(relt, zero_free(img, p))
        if u is None:
            cond1 = False
            cond2 = False
            cond3 = False
            continue
        if data.alpha.apply(u) != zero_free(rhs2, p):
            cond2 = False
        if data.beta.apply(u):
            cond3 = False
    return PbwReport(cond1, cond2, cond3, overlap.rows)


# -- the PBW data of A rebuilt for every deformation ---------------------------------


def pbw_check_by_kernel(data):
    """``deformations.pbw_check`` as it was before the presentation kept its
    overlap basis: the kernel of [R⊗V; −V⊗R]ᵀ, made again on every call.
    A kernel vector (x | y) is an overlap vector t given in both row sets
    at once, t = x·(R⊗V) = y·(V⊗R).  The test-side oracle of ``pbw_check``
    and of ``QuadraticPresentation.overlap``."""
    f = data.field
    p = f.p
    d = data.base.dim
    rel = data.base.relations
    m = rel.rows
    alpha, beta = data.alpha.columns, data.beta.columns  # per relation i
    idm = Matrix.identity(f, d)
    rv = rel.kron(idm)        # rows r_i ⊗ e_k span R ⊗ V
    vr = idm.kron(rel)        # rows e_k ⊗ r_i span V ⊗ R
    overlap = kernel_basis(rv.vstack(vr.neg()).transpose())
    relt = rel.transpose()
    # R is stored as rref rows: an element of R has its R-coordinates at the
    # pivots, the leftmost column of each row
    pivots = [min(row) for row in relt.columns]
    top = rv.rows

    cond1 = True
    cond2 = True
    cond3 = True
    for vec in overlap.columns:
        # t as sum c r_i ⊗ e_k (key i * d + k) and as sum c e_k ⊗ r_i (key
        # top + k * m + i)
        c_rv = [(divmod(key, d), c) for key, c in vec.items() if key < top]
        c_vr = [(divmod(key - top, m)[::-1], c) for key, c in vec.items() if key >= top]
        img, rhs2 = {}, {}
        for coeffs, sign, left in ((c_rv, 1, True), (c_vr, -1, False)):
            for (i, k), c in coeffs:
                c *= sign
                for g, a in alpha[i].items():
                    idx = pair_index(g, k, d) if left else pair_index(k, g, d)
                    img[idx] = img.get(idx, 0) + c * a
                for b in beta[i].values():
                    rhs2[k] = rhs2.get(k, 0) + c * b
        img = zero_free(img, p)
        u = {i: img[j] for i, j in enumerate(pivots) if j in img}
        if relt.apply(u) != img:
            cond1 = False
            cond2 = False
            cond3 = False
            continue
        if data.alpha.apply(u) != zero_free(rhs2, p):
            cond2 = False
        if data.beta.apply(u):
            cond3 = False
    return PbwReport(cond1, cond2, cond3, overlap.cols)


def build_cdga_by_solves(data, bound, check=True, _sign_debug=False):
    """``deformations.build_cdga`` as it was before the presentation kept
    the inverse of its A!_2 pairing: the pairing made again on every
    build and d + 1 ``solve`` calls against it, one per d(x_g*) and one for
    c.  A degenerate pairing raises as the build does.  The test-side
    oracle of ``build_cdga`` and of
    ``QuadraticPresentation.dual_pairing_inverse``."""
    if bound < 2:
        raise InputError(f"--degree {bound} is below 2: the cdga reads A!_2")
    f = data.field
    d = data.base.dim
    dual_pres = data.base.dual()
    dual = dual_pres.truncation(bound)
    rel = data.base.relations

    pairing = _dual_pairing(dual, rel)  # m x dim A!_2, invertible
    # d1 on generators: <d(x_g*), r_j> = x_g*(alpha(r_j)) = alpha[g][j]
    lift = []  # chosen representative of d(x_g*), as {V*⊗V* word: coeff}
    for alpha_g in data.alpha.transpose().columns:
        coeffs = solve(pairing, alpha_g)
        if coeffs is None:
            raise InconsistentDataError("degree-2 pairing is degenerate")
        lift.append({dual.basis_words[2][s]: c for s, c in coeffs.items()})
    # curvature: <c, r_j> = beta(r_j)
    curv_col = solve(pairing, data.beta.transpose().columns[0])
    curv = [curv_col.get(s, f.zero()) for s in range(dual.dim_at(2))]

    # well-definedness: the lifted derivation must kill R-perp in A!_3
    p = f.p
    if bound >= 3:
        for t, rho in enumerate(dual_pres.relations.transpose().columns):
            acc = {}
            for ab, c in rho.items():
                a, b = divmod(ab, d)
                # d(a ⊗ b) = d(a) ⊗ b - a ⊗ d(b), projected to A!_3
                for w, coeff in lift[a].items():
                    axpy(acc, c * coeff, dual.project_word(w + (b,)))
                for w, coeff in lift[b].items():
                    axpy(acc, -c * coeff, dual.project_word((a,) + w))
            if is_nonzero(acc, p):
                raise WellDefinednessError(
                    f"derivation does not preserve the relation ideal (R-perp row {t})")

    # extend through the quotient by the (anti-)Leibniz rule on lifted words
    derivations = {0: Matrix.zero(f, dual.dim_at(1), 1)}
    sign = 1 if _sign_debug else -1
    for n in range(1, bound):
        cols = []
        for word in dual.basis_words[n]:
            acc = {}
            for pos, g in enumerate(word):
                s = 1 if pos % 2 == 0 else sign
                for w, coeff in lift[g].items():
                    axpy(acc, s * coeff, dual.project_word(word[:pos] + w + word[pos + 1:]))
            cols.append(zero_free(acc, p))
        derivations[n] = Matrix(f, dual.dim_at(n + 1), cols)

    alg = CdgAlgebra(data, dual, derivations, curv)
    if check:
        violation = alg.verify()
        if violation is not None:
            raise CdgaInvariantError(violation)
    return alg


# -- quotient coordinates through a fresh solve ---------------------------------------


def pinv_cols(f, proj):
    """A right inverse of a surjective projection, solved for from scratch:
    the section that ``cofree._sub_quotient`` used before it read the
    complement columns it had already chosen.  The oracle of its quotient
    differentials and actions."""
    x = solve_matrix(proj, Matrix.identity(f, proj.rows))
    assert x is not None, "projection not surjective"
    return x


# -- the t-truncation split and cofree coordinates, one solve per map ----------------


def _oracle_invert(m):
    inv = solve_matrix(m, Matrix.identity(m.field, m.rows))
    if inv is None:
        raise InconsistentDataError("matrix not invertible")
    return inv


def oracle_sub_quotient(i, sub_cols):
    """``cofree._sub_quotient`` as it was before it read the split as
    blocks of one change of basis: the subobject's maps solved through
    the inclusion, the quotient's read through the complement columns,
    with a branch on each empty degree.  It checks stability only where
    the subobject is nonzero in both degrees of a map.  The test-side
    oracle of the split."""
    f = i.field
    sub_dims, quot_dims = {}, {}
    incl_maps, proj_maps, sections = {}, {}, {}
    sub_diffs, quot_diffs = {}, {}
    sub_actions, quot_actions = {}, {}
    basis_full = {}
    for p in i.dims:
        n = i.dim(p)
        sc = sub_cols.get(p)
        cols = sc.columns if sc is not None else []
        span = EchelonSpan(f)
        if len([v for v in cols if span.insert(v)]) != len(cols):
            raise InconsistentDataError("dependent subobject columns")
        stacked = cols + [v for v in Matrix.identity(f, n).columns if span.insert(v)]
        basis_full[p] = (cols, stacked)
        sub_dims[p] = len(cols)
        quot_dims[p] = n - len(cols)
    for p in i.dims:
        cols, stacked = basis_full[p]
        n = i.dim(p)
        inv = _oracle_invert(Matrix(f, n, stacked))
        incl_maps[p] = Matrix(f, n, cols)
        proj_maps[p] = inv.submatrix(range(len(cols), n), range(n))
        sections[p] = Matrix(f, n, stacked[len(cols):])
    for p in i.dims:
        if i.dim(p + 1):
            d = i.diff(p)
            if sub_dims.get(p) and sub_dims.get(p + 1):
                img = d.mul(incl_maps[p])
                expr = solve_matrix(incl_maps[p + 1], img)
                if expr is None:
                    raise InconsistentDataError("subspace is not d-stable")
                sub_diffs[p] = expr
            if quot_dims.get(p) and quot_dims.get(p + 1):
                quot_diffs[p] = proj_maps[p + 1].mul(d).mul(sections[p])
            acts_s, acts_q = [], []
            for g in range(i.num_generators()):
                a = i.action(p, g)
                if sub_dims.get(p):
                    imga = a.mul(incl_maps[p])
                    ex = solve_matrix(incl_maps[p + 1], imga) \
                        if sub_dims.get(p + 1) else Matrix.zero(f, 0, sub_dims[p])
                    if ex is None:
                        raise InconsistentDataError("subspace is not action-stable")
                    acts_s.append(ex)
                else:
                    acts_s.append(Matrix.zero(f, sub_dims.get(p + 1, 0), 0))
                if quot_dims.get(p):
                    acts_q.append(proj_maps[p + 1].mul(a).mul(sections[p])
                                  if quot_dims.get(p + 1)
                                  else Matrix.zero(f, 0, quot_dims[p]))
                else:
                    acts_q.append(Matrix.zero(f, quot_dims.get(p + 1, 0), 0))
            sub_actions[p] = acts_s
            quot_actions[p] = acts_q
    sub = CdgModule(i.cdga, i.window, sub_dims, sub_actions, sub_diffs)
    quot = CdgModule(i.cdga, i.window, quot_dims, quot_actions, quot_diffs)
    incl = ChainMap(sub, i, {p: incl_maps[p] for p in i.dims if sub_dims.get(p)})
    proj = ChainMap(i, quot, {p: proj_maps[p] for p in i.dims if quot_dims.get(p)})
    return sub, quot, incl, proj


def oracle_to_cofree_coordinates(module, dec):
    """``cofree.to_cofree_coordinates`` as it was before it shared the
    conjugation of the split: each degree conjugated by the twisted unit
    maps in a loop of its own.  The test-side oracle of cofree
    coordinates."""
    f = module.field
    dims = {p: len(labs) for p, labs in dec.labels.items()}
    twisted = {p: Matrix(f, um.rows, [{k: f.neg(c) if dec.labels[p][k][0] % 2 else c
                                       for k, c in col.items()} for col in um.columns])
               for p, um in dec.unit_maps.items()}
    diffs, actions = {}, {}
    for p in dims:
        um = twisted.get(p)
        um1 = twisted.get(p + 1)
        if um is None:
            continue
        inv = _oracle_invert(um)
        if um1 is not None and module.dim(p + 1):
            diffs[p] = um1.mul(module.diff(p)).mul(inv)
            actions[p] = [um1.mul(module.action(p, g)).mul(inv)
                          for g in range(module.num_generators())]
    out = CdgModule(module.cdga, module.window, dims, actions, diffs)
    out.labels = dec.labels
    return out


# -- F' and the free-module merge, each with its own formula ----------------------


def oracle_apply_Fprime(m, cdga, bounds):
    """F'(M)^t = sum over r of A!_r ⊗ M^{t-r}, differential
    (-1)^{r+1} sum_g (b x_g*) ⊗ x_g m + d(b) ⊗ m + (-1)^r b ⊗ d_M(m),
    with the plain left multiplication on the A!-factor; labels (r, s, i)."""
    f = m.field
    dual = cdga.dual
    cap = min(bounds.internal, dual.bound)
    lo, hi = bounds.window
    dims, labels = {}, {}
    for t in range(lo, hi + 1):
        labs = []
        for r in range(0, cap + 1):
            if dual.dim_at(r) == 0 or m.dim(t - r) == 0:
                continue
            labs.extend((r, s, i) for s in range(dual.dim_at(r))
                        for i in range(m.dim(t - r)))
        if labs:
            dims[t] = len(labs)
            labels[t] = labs
    pos = {t: {lab: i for i, lab in enumerate(labs)} for t, labs in labels.items()}
    d_gens = dual.pres.dim
    char = f.p
    diffs, actions = {}, {}
    for t in sorted(dims):
        out_rows = dims.get(t + 1, 0)
        tpos = pos.get(t + 1, {})
        if out_rows:
            cols = []
            for r, s, i in labels[t]:
                acc = {}
                sgn_twist = -1 if r % 2 == 0 else 1  # (-1)^{r+1}
                for g in range(d_gens):
                    right = dual.mult_columns(r, 1)  # e_s x_g: column s * d_gens + g
                    am = m.action(t - r, g).columns[i]
                    for s2, c1 in right[s * d_gens + g].items():
                        for i2, c2 in am.items():
                            row = tpos.get((r + 1, s2, i2))
                            if row is not None:
                                acc[row] = acc.get(row, 0) + sgn_twist * c1 * c2
                for s2, c1 in cdga.d(r).columns[s].items():
                    row = tpos.get((r + 1, s2, i))
                    if row is not None:
                        acc[row] = acc.get(row, 0) + c1
                sgn = 1 if r % 2 == 0 else -1
                for i2, c1 in m.diff(t - r).columns[i].items():
                    row = tpos.get((r, s, i2))
                    if row is not None:
                        acc[row] = acc.get(row, 0) + sgn * c1
                cols.append(zero_free(acc, char))
            diffs[t] = Matrix(f, out_rows, cols)
        acts = []
        for g in range(d_gens):
            cols = []
            for r, s, i in labels[t]:
                left = dual.mult_columns(1, r)  # x_g e_s: column g * dim A!_r + s
                col = {}
                for s2, c1 in left[g * dual.dim_at(r) + s].items():
                    row = tpos.get((r + 1, s2, i))
                    if row is not None:
                        col[row] = c1
                cols.append(col)
            acts.append(Matrix(f, out_rows, cols))
        actions[t] = acts
    fp = CdgModule(cdga, (lo, hi), dims, actions, diffs)
    fp.labels = labels
    return fp


def oracle_free_dual_merge(cdga, ranks, entries):
    """The merge of a complex of free A!-modules with the generator action
    twisted by (-1)^P and the strictly linear differential
    a ⊗ gen_j -> sum_i a entry_ij ⊗ gen_i; labels (P, j, r, s) in
    ``free_labels``, the internal degree r of A! doubling as a weight
    shift + r."""
    f = cdga.field
    dual = cdga.dual
    if any(not m.is_zero() for m in cdga.derivations.values()):
        raise InputError("free-module merge needs d_{A!} = 0")
    labels = {}   # p -> [(P, gen_index, internal degree q of the E part, basis)]
    for P in sorted(ranks):
        for gi, shift in enumerate(ranks[P]):
            for deg in range(dual.bound + 1):
                for bidx in range(dual.dim_at(deg)):
                    labels.setdefault(P + shift + deg, []).append((P, gi, deg, bidx))
    ps = sorted(labels)
    window = (ps[0], ps[-1]) if ps else (0, 0)
    dims = {p: len(labs) for p, labs in labels.items()}
    pos = {p: {lab: i for i, lab in enumerate(labs)} for p, labs in labels.items()}
    d_gens = dual.pres.dim
    char = f.p
    diffs, actions = {}, {}
    for p in sorted(labels):
        labs = labels[p]
        tgt = labels.get(p + 1, [])
        nt = len(tgt)
        tpos = pos.get(p + 1, {})
        cols = []
        for P, gi, deg, bidx in labs:
            acc = {}
            for ti, erow in enumerate(entries.get(P, ())):
                for edeg, col_e in erow[gi].items():
                    if edeg > dual.bound or not col_e:
                        continue
                    prod = dual.multiply(deg, {bidx: f.one()}, edeg, col_e)
                    for tb, c in prod.items():
                        row = tpos.get((P + 1, ti, deg + edeg, tb))
                        if row is not None:
                            acc[row] = acc.get(row, 0) + c
            cols.append(zero_free(acc, char))
        if nt:
            diffs[p] = Matrix(f, nt, cols)
        acts = []
        for g in range(d_gens):
            cols = []
            for P, gi, deg, bidx in labs:
                left = dual.mult_columns(1, deg)  # x_g e_b: column g * dim A!_deg + b
                sgn = 1 if P % 2 == 0 else -1
                col = {}
                for tb, c in left[g * dual.dim_at(deg) + bidx].items():
                    row = tpos.get((P, gi, deg + 1, tb))
                    if row is not None:
                        col[row] = sgn * c % char if char else sgn * c
                cols.append(col)
            acts.append(Matrix(f, nt, cols))
        actions[p] = acts
    weights = None
    if dual.pres.weights is None or all(w == 1 for w in dual.pres.weights):
        weights = {p: [ranks[P][gi] + deg for (P, gi, deg, bidx) in labs]
                   for p, labs in labels.items()}
    cx = CdgModule(cdga, window, dims, actions, diffs, weights)
    cx.free_labels = labels
    return cx


# -- the coinduction unit, one socle line at a time ----------------------------------


def unit_maps_by_lines(i, cdga, cap):
    """The unit maps of ``cofree.cofree_decomposition`` as it built them
    before it stacked one block per monomial: for each label (r, s, si) of
    degree p, the action of the monomial s on I^p followed by the
    projection onto socle line si, one ``oracle_act_element`` and one product per
    line.  Raises ``NotCofreeError`` with the library's message where the
    module fails the test.  The test-side oracle of the unit maps."""
    f = i.field
    dual = cdga.dual
    socle_bases, _ = i.socle_complex()
    socle_dims = {q: b.cols for q, b in socle_bases.items() if b.cols}
    lo, hi = i.window
    if socle_dims:
        lo = min(lo, min(socle_dims) - min(cap, dual.bound))

    def socle_lines(p, q):
        return range(socle_dims.get(q, 0))

    dims = dual_dims(dual, cap)
    labels = hom_labels(dims, (lo, i.window[1]), socle_lines)
    labels.update(hom_labels(dims, i.window, socle_lines))
    projections = {}
    for q, b in socle_bases.items():
        if not b.cols:
            continue
        n = i.dim(q)
        span = EchelonSpan(f)
        for v in b.columns:
            span.insert(v)
        full = b.columns + [v for v in Matrix.identity(f, n).columns if span.insert(v)]
        inv = solve_matrix(Matrix(f, n, full), Matrix.identity(f, n))
        projections[q] = inv.submatrix(range(b.cols), range(n))
    unit_maps = {}
    for p in range(lo, hi + 1):
        n = i.dim(p)
        labs = labels.get(p, [])
        if n != len(labs):
            raise NotCofreeError(f"degree {p}: dim {n} != cofree count {len(labs)}")
        if not n:
            continue
        cols = [{} for _ in range(n)]
        for row, (r, s, si) in enumerate(labs):
            proj = projections[p + r]
            act = oracle_act_element(i, p, r, {s: f.one()}) if r else Matrix.identity(f, n)
            for col, pcol in zip(cols, proj.mul(act).columns):
                c = pcol.get(si)
                if c:
                    col[row] = c
        um = Matrix(f, len(labs), cols)
        if rank(um) != n:
            raise NotCofreeError(f"coinduction unit not bijective at degree {p}")
        unit_maps[p] = um
    return unit_maps


# -- the perturbation transfer with its sign read off the differential ---------------


def oracle_transfer_minimal(big, labels, socle_diffs, cdga, cap):
    """``cofree.transfer_minimal`` as it was before it was written as G
    applied to the socle SDR: one block builder of its own, the sign of the
    socle differential on each dual degree r read off big's differential
    (``eps``, (-1)^r where no entry shows it), and shape guards around the
    series and the transferred maps; no certificate.  Its homotopy has
    the sign the transfer used then, opposite to Crainic's convention, so
    it is an oracle only where the terms h A i and p A h vanish, as on G(M)
    of complexes of trivial modules and their t-truncation quotients.
    Returns (minimal, into, onto, eps).  The test-side oracle of the
    transfer."""
    f = big.field
    socle_dims = {}
    for p, labs in labels.items():
        for (r, s, i) in labs:
            q = p + r
            socle_dims[q] = max(socle_dims.get(q, 0), i + 1)
    window = big.window
    socle = BaseComplex(f, window, socle_dims, socle_diffs)
    hdims, i0, p0, h0 = socle_sdr(socle)
    hdims = {q: n for q, n in hdims.items() if n}
    hlabels = hom_labels(dual_dims(cdga.dual, cap), window, lambda p, q: range(hdims.get(q, 0)))

    def mk_block(src_labs, tgt_labs, per_q_mat, sign):
        tpos = {lab: i for i, lab in enumerate(tgt_labs)}
        cols = []
        for r, s, i in src_labs:
            col = {}
            cols.append(col)
            mat = per_q_mat(r)
            if mat is None:
                continue
            sg = sign(r)
            for j, c in mat.columns[i].items():
                row = tpos.get((r, s, j))
                if row is not None:
                    col[row] = f.mul(sg, c)
        return Matrix(f, len(tgt_labs), cols)

    one = f.one()
    neg = f.neg(one)
    eps = {}
    for p, labs in labels.items():
        tgt = labels.get(p + 1, [])
        tpos = {lab: k for k, lab in enumerate(tgt)}
        d = big.diff(p)
        for col, (r, s, i) in enumerate(labs):
            if r in eps:
                continue
            d0m = socle.diffs.get(p + r)
            if d0m is None:
                continue
            for j, base in sorted(d0m.columns[i].items()):
                row = tpos.get((r, s, j))
                if row is None:
                    continue
                got = d.entry(row, col)
                if f.eq(got, base):
                    eps[r] = one
                elif f.eq(got, f.neg(base)):
                    eps[r] = neg
                break

    def sgn_r(r):
        got = eps.get(r)
        if got is not None:
            return got
        return one if r % 2 == 0 else neg

    def no_sign(r):
        return one

    lo, hi = window
    d0hat, hhat, ihat, phat, tpert = {}, {}, {}, {}, {}
    for p in range(lo, hi + 1):
        src = labels.get(p, [])
        d0hat[p] = mk_block(src, labels.get(p + 1, []), lambda r: socle.diffs.get(p + r), sgn_r)
        hhat[p] = mk_block(src, labels.get(p - 1, []), lambda r: h0.get(p + r), sgn_r)
        ihat[p] = mk_block(hlabels.get(p, []), src, lambda r: i0.get(p + r), no_sign)
        phat[p] = mk_block(src, hlabels.get(p, []), lambda r: p0.get(p + r), no_sign)
        tpert[p] = big.diff(p).sub(d0hat[p])

    amat = {}
    for p in range(lo, hi + 1):
        n = len(labels.get(p, []))
        if not n:
            continue
        ht = hhat.get(p + 1)
        acc = Matrix.identity(f, n)
        term = Matrix.identity(f, n)
        if ht is not None and tpert.get(p) is not None and ht.cols and ht.rows:
            nmat = hhat[p + 1].mul(tpert[p]) if tpert[p].rows else None
        else:
            nmat = None
        if nmat is not None and nmat.rows == n:
            for _ in range(cap + 2):
                term = nmat.mul(term)
                if term.is_zero():
                    break
                acc = acc.add(term)
            assert term.is_zero(), "perturbation series did not terminate"
        amat[p] = tpert[p].mul(acc) if tpert[p].rows else tpert[p]

    dmin, iinf, pinf = {}, {}, {}
    for p in range(lo, hi + 1):
        if amat.get(p) is not None and ihat.get(p) is not None:
            if len(hlabels.get(p, [])) and len(hlabels.get(p + 1, [])):
                dmin[p] = phat[p + 1].mul(amat[p].mul(ihat[p]))
        if len(hlabels.get(p, [])):
            im = ihat[p]
            if amat.get(p) is not None and hhat.get(p + 1) is not None \
                    and hhat[p + 1].rows == len(labels.get(p, [])):
                im = im.add(hhat[p + 1].mul(amat[p].mul(ihat[p])))
            iinf[p] = im
            pm = phat[p]
            if hhat.get(p) is not None and amat.get(p - 1) is not None \
                    and hhat[p].cols == len(labels.get(p, [])):
                pm = pm.add(phat[p].mul(amat[p - 1].mul(hhat[p])))
            pinf[p] = pm

    minimal = CdgModule(cdga, window, {p: len(labs) for p, labs in hlabels.items()},
                        cofree_actions(cdga.dual, hlabels), dmin)
    return minimal, ChainMap(minimal, big, iinf), ChainMap(big, minimal, pinf), eps


def verify_on_every_table(alg):
    """``CdgAlgebra.verify`` as it was when it built ``mult_columns(2, j)``
    and ``mult_columns(2, 1)`` whether or not d(x_a*) and c are zero."""
    top = alg.bound
    if top < 1:
        return None
    dual = alg.dual
    p = alg.field.p
    m1 = dual.dim_at(1)
    left = [dual.mult_columns(1, j) for j in range(top)]
    ds = [alg.d(n).columns for n in range(top)]
    if is_nonzero(ds[0][0], p):
        return "Leibniz fails on basis pair A!_0[0] * A!_0[0]"
    for j in range(top - 1):
        mj, mj1 = dual.dim_at(j), dual.dim_at(j + 1)
        right = dual.mult_columns(2, j)
        for a in range(m1):
            for b in range(mj):
                acc = {}
                for r, v in left[j][a * mj + b].items():
                    axpy(acc, v, ds[j + 1][r])
                for s, v in ds[1][a].items():
                    axpy(acc, -v, right[s * mj + b])
                for t, v in ds[j][b].items():
                    axpy(acc, v, left[j + 1][a * mj1 + t])
                if is_nonzero(acc, p):
                    return f"Leibniz fails on basis pair A!_1[{a}] * A!_{j}[{b}]"
    if top < 3:
        return None
    curv = {s: c for s, c in enumerate(alg.curvature) if c}
    if alg.d(2).apply(curv):
        return "d(c) != 0"
    m2 = dual.dim_at(2)
    cx = dual.mult_columns(2, 1)
    xc = left[2]
    for b in range(m1):
        acc = {}
        for s, v in ds[1][b].items():
            axpy(acc, v, ds[2][s])
        for s, c in curv.items():
            axpy(acc, -c, cx[s * m1 + b])
            axpy(acc, c, xc[b * m2 + s])
        if is_nonzero(acc, p):
            return f"d^2 != [c,-] on basis A!_1[{b}]"
    return None


def full_cdga_verify(alg):
    """The curved-dga axioms on every basis pair and every basis element,
    on dense lists through ``dual.multiply`` with unit vectors: the
    test-side oracle of ``CdgAlgebra.verify``, which checks generators
    only.  Returns the first violation as a string, or None."""
    f = alg.field
    top = alg.bound
    dual = alg.dual

    def multiply(i, a, j, b):
        return dense(f, dual.multiply(i, sparse(a), j, sparse(b)), dual.dim_at(i + j))

    # Leibniz on basis pairs within bound
    for i in range(0, top):
        for j in range(0, top):
            if i + j + 1 > top:
                continue
            mi, mj = dual.dim_at(i), dual.dim_at(j)
            for a in range(mi):
                ea = [f.one() if s == a else f.zero() for s in range(mi)]
                for b in range(mj):
                    eb = [f.one() if s == b else f.zero() for s in range(mj)]
                    ab = multiply(i, ea, j, eb)
                    lhs = dense_apply(alg.d(i + j), ab)
                    rhs = multiply(i + 1, dense_apply(alg.d(i), ea), j, eb)
                    db = dense_apply(alg.d(j), eb)
                    term2 = multiply(i, ea, j + 1, db)
                    if i % 2 == 1:
                        term2 = [f.neg(x) for x in term2]
                    rhs = [f.add(x, y) for x, y in zip(rhs, term2)]
                    if any(not f.eq(x, y) for x, y in zip(lhs, rhs)):
                        return f"Leibniz fails on basis pair A!_{i}[{a}] * A!_{j}[{b}]"
    # d(c) = 0
    if 3 <= top:
        dc = dense_apply(alg.d(2), alg.curvature)
        if any(not f.is_zero(x) for x in dc):
            return "d(c) != 0"
    # d^2 = [c, -]
    for n in range(0, top - 1):
        mn = dual.dim_at(n)
        for b in range(mn):
            eb = [f.one() if s == b else f.zero() for s in range(mn)]
            dd = dense_apply(alg.d(n + 1), dense_apply(alg.d(n), eb))
            cb = multiply(2, alg.curvature, n, eb)
            bc = multiply(n, eb, 2, alg.curvature)
            comm = [f.sub(x, y) for x, y in zip(cb, bc)]
            if any(not f.eq(x, y) for x, y in zip(dd, comm)):
                return f"d^2 != [c,-] on basis A!_{n}[{b}]"
    return None


# -- the per-kind complex operations that BaseComplex writes once ---------------
#
# Each oracle is the body one kind of complex had before the kinds shared a
# single shift, cone, brutal truncation and word action; the kind was a
# ``side`` tag ("plain", "U" or "A!"), and a U-complex stored one module per
# degree, read here as U-complexes in degree 0.
# An oracle returns the ``complex_snapshot`` of the complex it built.


def _side(x):
    return {UComplex: "U", CdgModule: "A!"}.get(type(x), "plain")


def _modules(x):
    """The module per degree that a U-complex stored, each a U-complex in
    degree 0."""
    return {p: UComplex.module(x.data, n, x.actions[p],
                               None if x.weights is None else x.weights.get(p))
            for p, n in x.dims.items()}


def direct_sum(m1, m2):
    """M1 ⊕ M2 of two U-modules (U-complexes in degree 0): block-diagonal
    actions, and the weights concatenated when both carry them."""
    n1, n2 = m1.dim(0), m2.dim(0)
    acts = [_block(m1.field, [[a, None], [None, b]], [n1, n2], [n1, n2])
            for a, b in zip(m1.actions[0], m2.actions[0])]
    w = None
    if m1.weights is not None and m2.weights is not None:
        w = m1.weights[0] + m2.weights[0]
    return UComplex.module(m1.data, n1 + n2, acts, w)


def _dense_of(m):
    return (m.rows, m.cols, m.to_rows())


def _snapshot(kind, window, dims, diffs, actions=None, weights=None):
    return (kind, (int(window[0]), int(window[1])),
            {p: int(n) for p, n in dims.items() if n},
            {p: _dense_of(d) for p, d in diffs.items() if d.rows and d.cols},
            {p: [_dense_of(a) for a in acts] for p, acts in (actions or {}).items()},
            weights)


def complex_snapshot(x):
    """(kind, window, dims, diffs, actions, weights), matrices as (rows,
    cols, dense rows)."""
    return _snapshot(type(x).__name__, x.window, x.dims, x.diffs, x.actions, x.weights)


def _u_snapshot(window, modules, diffs):
    """The snapshot of ``UComplex.of_modules(data, window, modules, diffs)``."""
    modules = {p: m for p, m in modules.items() if m.dim(0)}
    weights = None
    if any(m.weights is not None for m in modules.values()):
        weights = {p: None if m.weights is None else m.weights[0] for p, m in modules.items()}
    return _snapshot("UComplex", window, {p: m.dim(0) for p, m in modules.items()}, diffs,
                     {p: m.actions[0] for p, m in modules.items()}, weights)


def oracle_shift(x):
    lo, hi = x.window
    window = (lo - 1, hi - 1)
    diffs = {p - 1: x.diff(p).neg() for p in list(x.diffs)}
    if _side(x) == "U":
        return _u_snapshot(window, {p - 1: m for p, m in _modules(x).items()}, diffs)
    dims = {p - 1: n for p, n in x.dims.items()}
    weights = None if x.weights is None else {p - 1: w for p, w in x.weights.items()}
    if _side(x) == "A!":
        acts = {p - 1: [a.neg() for a in x.actions[p]] for p in x.actions}
        return _snapshot("CdgModule", window, dims, diffs, acts, weights)
    return _snapshot("BaseComplex", window, dims, diffs, None, weights)


def oracle_cone(fmap):
    """The cone with module structure when both ends are U-complexes or both
    cdg-modules, else a plain complex.  The shift of the source is the
    one under test (``oracle_shift`` checks it)."""
    src, tgt = fmap.source, fmap.target
    f = fmap.field
    lo = min(src.window[0] - 1, tgt.window[0])
    hi = max(src.window[1] - 1, tgt.window[1])
    ssh = src.shift()
    dims = {}
    for p in range(lo, hi + 1):
        n = ssh.dim(p) + tgt.dim(p)
        if n:
            dims[p] = n
    diffs = {}
    for p in range(lo, hi + 1):
        if not dims.get(p) or not dims.get(p + 1):
            continue
        diffs[p] = _block(f, [[ssh.diff(p), None], [fmap.map_at(p + 1), tgt.diff(p)]],
                          heights=[ssh.dim(p + 1), tgt.dim(p + 1)],
                          widths=[ssh.dim(p), tgt.dim(p)])
    if _side(src) != _side(tgt) or _side(src) == "plain":
        return _snapshot("BaseComplex", (lo, hi), dims, diffs)
    if _side(src) == "U":
        smods, tmods = _modules(ssh), _modules(tgt)
        mods = {}
        for p in range(lo, hi + 1):
            m1, m2 = smods.get(p), tmods.get(p)
            if m1 and m2:
                mods[p] = direct_sum(m1, m2)
            elif m1 or m2:
                mods[p] = m1 or m2
        return _u_snapshot((lo, hi), mods, diffs)
    actions = {}
    for p in range(lo, hi + 1):
        if not dims.get(p):
            continue
        actions[p] = [_block(f, [[ssh.action(p, g), None], [None, tgt.action(p, g)]],
                             heights=[ssh.dim(p + 1), tgt.dim(p + 1)],
                             widths=[ssh.dim(p), tgt.dim(p)])
                      for g in range(src.num_generators())]
    weights = None
    if ssh.weights is not None and tgt.weights is not None:
        weights = {p: list(ssh.weights.get(p) or []) + list(tgt.weights.get(p) or [])
                   for p in range(lo, hi + 1) if dims.get(p)}
    return _snapshot("CdgModule", (lo, hi), dims, diffs, actions, weights)


def oracle_sigma_truncate(x, p_cut):
    """(above, below) snapshots of the brutal truncation at p_cut."""
    lo, hi = x.window
    up, down = (max(lo, p_cut + 1), hi), (lo, min(hi, p_cut))
    above_dims = {p: n for p, n in x.dims.items() if p > p_cut}
    below_dims = {p: n for p, n in x.dims.items() if p <= p_cut}
    above_diffs = {p: d for p, d in x.diffs.items() if p > p_cut}
    below_diffs = {p: d for p, d in x.diffs.items() if p + 1 <= p_cut}
    if _side(x) == "U":
        mods = _modules(x)
        return (_u_snapshot(up, {p: m for p, m in mods.items() if p > p_cut}, above_diffs),
                _u_snapshot(down, {p: m for p, m in mods.items() if p <= p_cut}, below_diffs))
    if _side(x) == "A!":
        return (_snapshot("CdgModule", up, above_dims,  above_diffs,
                          {p: a for p, a in x.actions.items() if p > p_cut},
                          None if x.weights is None else
                          {p: w for p, w in x.weights.items() if p > p_cut}),
                _snapshot("CdgModule", down, below_dims, below_diffs,
                          {p: a for p, a in x.actions.items() if p + 1 <= p_cut},
                          None if x.weights is None else
                          {p: w for p, w in x.weights.items() if p <= p_cut}))
    return (_snapshot("BaseComplex", up, above_dims, above_diffs),
            _snapshot("BaseComplex", down, below_dims, below_diffs))


def oracle_act_word(x, p, word):
    """A monomial word (applied right to left) on degree p: the U-module's
    own action matrices, or the cdg-module's actions degree by degree."""
    f = x.field
    if _side(x) == "U":
        mod = _modules(x)[p]
        m = Matrix.identity(f, mod.dim(0))
        for g in reversed(word):
            m = mod.actions[0][g].mul(m)
        return m
    m = Matrix.identity(f, x.dim(p))
    deg = p
    for g in reversed(word):
        acts = x.actions.get(deg)
        a = Matrix.zero(f, x.dim(deg + 1), x.dim(deg)) if acts is None else acts[g]
        m = a.mul(m)
        deg += 1
    return m


def oracle_act_element(x, p, degree, col):
    """An A!_degree element, a sparse column, on N^p of a cdg-module."""
    out = Matrix.zero(x.field, x.dim(p + degree), x.dim(p))
    for i, c in col.items():
        out = out.add(oracle_act_word(x, p, x.cdga.dual.basis_words[degree][i]).scale(c))
    return out


def element_matrix(x, p, degree, col):
    """The matrix of ``x.element_terms(p, degree, col)``: the sum of its
    terms c * (word action)."""
    out = Matrix.zero(x.field, x.dim(p + degree), x.dim(p))
    for c, word_action, _ in x.element_terms(p, degree, col):
        out = out.add(word_action.scale(c))
    return out


# -- the bigraded view and the socle SDR as they were -----------------------
#
# ``suite.BigradedComplex`` with its splitting, reindexing and check, the
# per-weight homology of ``complexes.homology_dims`` with one submatrix per
# weight block, and ``cofree.socle_sdr`` with its (B, H, B') basis from a
# row space and a preimage solve: the bodies from before one weight split
# served all three and the SDR became blocks of one change of basis.


class BigradedComplex:
    """Components indexed (p, q) with differential of bidegree (1, 0)."""

    def __init__(self, field, components: dict, diffs: dict):
        self.field = field
        self.components = {k: int(n) for k, n in components.items() if n}
        self.diffs = diffs          # {(p, q): Matrix to (p+1, q)}

    def dim(self, p, q):
        return self.components.get((p, q), 0)

    def check(self):
        for (p, q), d in self.diffs.items():
            if d.cols != self.dim(p, q) or d.rows != self.dim(p + 1, q):
                return f"differential at {(p, q)} is not of bidegree (1, 0)"
        for (p, q) in self.diffs:
            d2src = self.diffs.get((p + 1, q))
            if d2src is not None:
                if not d2src.mul(self.diffs[(p, q)]).is_zero():
                    return f"d^2 != 0 at {(p, q)}"
        return None

    def equal(self, other) -> bool:
        if self.components != other.components:
            return False
        for k, d in self.diffs.items():
            od = other.diffs.get(k)
            if od is None or not d.eq(od):
                return False
        return set(self.diffs) == set(other.diffs)


def _reindex(x: BigradedComplex, shift: int) -> BigradedComplex:
    def move(key):
        p, q = key
        return (p + shift * q, q)

    return BigradedComplex(x.field, {move(k): n for k, n in x.components.items()},
                           {move(k): d for k, d in x.diffs.items()})


def oracle_regrade(x: BigradedComplex, r: int) -> BigradedComplex:
    """Reindex (p, q) -> (p + (r-1) q, q); differentials stay (1, 0)."""
    out = _reindex(x, r - 1)
    msg = out.check()
    if msg:
        raise InputError(f"regrade: {msg}")
    return out


def bigraded_from_weighted(x) -> BigradedComplex:
    """Split a weighted complex into its (degree, weight) components."""
    comps, diffs = {}, {}
    sel = {}
    for p in x.dims:
        ws = x.weights.get(p) or []
        for w in sorted(set(ws)):
            idx = [i for i, wi in enumerate(ws) if wi == w]
            comps[(p, w)] = len(idx)
            sel[(p, w)] = idx
    for p in x.dims:
        d = x.diff(p)
        for w in sorted({wi for wi in (x.weights.get(p) or [])}):
            if (p + 1, w) not in comps:
                continue
            diffs[(p, w)] = d.submatrix(sel[(p + 1, w)], sel[(p, w)])
    return BigradedComplex(x.field, comps, diffs)


def weighted_from_bigraded(field, components: dict, diffs: dict) -> BaseComplex:
    """The weighted complex whose (degree, weight) blocks are ``components``
    and ``diffs`` (keys (p, q) -> weight q): each degree lists its blocks by
    ascending weight and d_p is block diagonal."""
    comps = {k: n for k, n in components.items() if n}
    dims, weights, offset = {}, {}, {}
    for (p, q), n in sorted(comps.items()):
        offset[(p, q)] = dims.get(p, 0)
        dims[p] = dims.get(p, 0) + n
        weights.setdefault(p, []).extend([q] * n)
    cols = {p: [{} for _ in range(n)] for p, n in dims.items()}
    for (p, q), d in diffs.items():
        for j, col in enumerate(d.columns):
            cols[p][offset[(p, q)] + j].update(
                {offset[(p + 1, q)] + i: v for i, v in col.items()})
    lo, hi = (min(dims), max(dims)) if dims else (0, 0)
    return BaseComplex(field, (lo, hi), dims,
                       {p: Matrix(field, dims[p + 1], c) for p, c in cols.items()
                        if p + 1 in dims}, weights)


def _homology_at_weight(x, p, w, ranks):
    def block_rank(q):
        got = ranks.get((q, w))
        if got is None:
            rsel = [i for i, wi in enumerate(x.weights.get(q + 1) or []) if wi == w]
            csel = [i for i, wi in enumerate(x.weights.get(q) or []) if wi == w]
            got = ranks[(q, w)] = rank(x.diff(q).submatrix(rsel, csel))
        return got

    n = len([i for i in (x.weights.get(p) or []) if i == w])
    return n - block_rank(p) - block_rank(p - 1)


def oracle_homology_per_weight(x, window):
    """{(p, w): dim} of a weighted complex, one submatrix per weight block."""
    lo, hi = window
    ranks, out = {}, {}
    for p in range(lo, hi + 1):
        for w in sorted({wi for wi in (x.weights.get(p) or [])}):
            out[(p, w)] = _homology_at_weight(x, p, w, ranks)
    return out


def _bhb_basis(socle, q):
    f, n = socle.field, socle.dim(q)
    b_cols = []
    if socle.dim(q - 1):
        b_cols = row_space(socle.diff(q - 1).transpose()).transpose().columns
    z = kernel_basis(socle.diff(q)) if socle.dim(q + 1) else Matrix.identity(f, n)
    span = EchelonSpan(f)
    for v in b_cols:
        span.insert(v)
    h_cols = [v for v in z.columns if span.insert(v)]
    bp_cols = [v for v in Matrix.identity(f, n).columns if span.insert(v)]
    return b_cols, h_cols, bp_cols


def oracle_socle_sdr(socle):
    """(h_dims, i0, p0, h0) of the SDR of (S, d0) onto its homology, the
    boundary part lifted through d0 on B' by a solve; not certified."""
    f = socle.field
    dim, diff = socle.dim, socle.diff
    degs = sorted(socle.dims)
    bhb = {q: _bhb_basis(socle, q) for q in degs}
    i0, p0, h0, hdims = {}, {}, {}, {}
    for q in degs:
        n = dim(q)
        b_cols, h_cols, bp_cols = bhb[q]
        hdims[q] = len(h_cols)
        inv = _oracle_invert(Matrix(f, n, b_cols + h_cols + bp_cols))
        nb, nh = len(b_cols), len(h_cols)
        i0[q] = Matrix(f, n, h_cols)
        p0[q] = inv.submatrix(range(nb, nb + nh), range(n))
        bpq1 = bhb.get(q - 1, ([], [], []))[2]
        if b_cols and bpq1:
            dmat = Matrix(f, n, [diff(q - 1).apply(v) for v in bpq1])
            pre = solve_matrix(dmat, Matrix(f, n, b_cols))
            if pre is None:
                raise InconsistentDataError("SDR: boundary preimage failed")
            bp_mat = Matrix(f, dim(q - 1), bpq1)
            h0[q] = bp_mat.mul(pre).mul(inv.submatrix(range(nb), range(n)))
        else:
            h0[q] = Matrix.zero(f, dim(q - 1), n)
    return hdims, i0, p0, h0


# -- the module certificates as products of matrices --------------------------
#
# The bodies of the check of one U-module (now ``UComplex.module_axioms``),
# ``UComplex.validate``,
# ``BaseComplex.check_d_squared``, ``CdgModule.check_d_squared``,
# ``CdgModule.validate`` and ``ChainMap.validate`` from before the checks
# summed one sparse column at a time: every product and every sum is a
# Matrix, and words act through ``oracle_act_word``, uncached.


def _oracle_action(x, p, g):
    acts = x.actions.get(p)
    if acts is None:
        return Matrix.zero(x.field, x.dim(p + x.action_degree), x.dim(p))
    return acts[g]


def oracle_umodule_validate(m):
    """The check of a U-module m, a U-complex in degree 0."""
    f = m.field
    d = m.data.base.dim
    n, acts = m.dim(0), m.actions[0]
    weights = None if m.weights is None else m.weights.get(0)
    for i, row in enumerate(m.data.graph_rows().transpose().columns):
        acc = Matrix.zero(f, n, n)
        for k, c in row.items():
            if k < d * d:
                term = acts[k // d].mul(acts[k % d])
            elif k < d * d + d:
                term = acts[k - d * d]
            else:
                term = Matrix.identity(f, n)
            acc = acc.add(term.scale(c))
        if not acc.is_zero():
            return f"relation {i} of P does not annihilate the module"
    if weights is not None:
        wts = m.data.base.weights or [1] * d
        for g in range(d):
            for c, col in enumerate(acts[g].columns):
                if any(weights[r] != weights[c] + wts[g] for r in col):
                    return f"action of generator {g} is not weight-homogeneous"
    return None


def oracle_check_d_squared(x):
    """``BaseComplex.check_d_squared``."""
    for p in x.degrees():
        if x.dim(p) and x.dim(p + 2):
            if not x.diff(p + 1).mul(x.diff(p)).is_zero():
                return f"d^2 != 0 at degree {p}"
    return None


def oracle_ucomplex_validate(x):
    for p, mod in _modules(x).items():
        msg = oracle_umodule_validate(mod)
        if msg:
            return f"degree {p}: {msg}"
    msg = oracle_check_d_squared(x)
    if msg:
        return msg
    for p in x.degrees():
        if x.dim(p) and x.dim(p + 1):
            d = x.diff(p)
            for g in range(x.num_generators()):
                if not d.mul(_oracle_action(x, p, g)).eq(_oracle_action(x, p + 1, g).mul(d)):
                    return f"differential not U-linear at degree {p}, generator {g}"
    return None


def oracle_cdg_check_d_squared(x):
    """``CdgModule.check_d_squared``: the curvature law."""
    curv = {s: c for s, c in enumerate(x.cdga.curvature) if c}
    for p in x.degrees():
        if x.dim(p) and x.dim(p + 2):
            lhs = x.diff(p + 1).mul(x.diff(p))
            if not lhs.eq(oracle_act_element(x, p, 2, curv)):
                return f"curvature law d^2 = c.(-) fails at degree {p}"
    return None


def oracle_cdg_validate(x):
    f = x.field
    dual = x.cdga.dual
    d = dual.pres.dim
    for p in x.degrees():
        if not x.dim(p) or not x.dim(p + 2):
            continue
        for i, row in enumerate(dual.pres.relations.transpose().columns):
            acc = Matrix.zero(f, x.dim(p + 2), x.dim(p))
            for ab, c in row.items():
                a, b = divmod(ab, d)
                acc = acc.add(_oracle_action(x, p + 1, a).mul(_oracle_action(x, p, b)).scale(c))
            if not acc.is_zero():
                return f"R-perp relation {i} acts nonzero at degree {p}"
    d1 = x.cdga.d(1).columns
    for p in x.degrees():
        if not x.dim(p):
            continue
        for g in range(d):
            lhs = x.diff(p + 1).mul(_oracle_action(x, p, g))
            rhs = oracle_act_element(x, p, 2, d1[g]).sub(
                _oracle_action(x, p + 1, g).mul(x.diff(p)))
            if not lhs.eq(rhs):
                return f"anti-derivation law fails at degree {p}, generator {g}"
    msg = oracle_cdg_check_d_squared(x)
    if msg:
        return msg
    if x.weights is not None:
        wts = dual.pres.weights or [1] * d
        for p in x.degrees():
            for g in range(d):
                for c, col in enumerate(_oracle_action(x, p, g).columns):
                    if any(x.weight_of(p + 1, r) != x.weight_of(p, c) + wts[g] for r in col):
                        return f"action not weight-homogeneous at degree {p}"
    return None


def oracle_chain_map_validate(fmap, check_actions=True):
    src, tgt = fmap.source, fmap.target
    lo = min(src.window[0], tgt.window[0])
    hi = max(src.window[1], tgt.window[1])
    for p in range(lo, hi + 1):
        if not tgt.diff(p).mul(fmap.map_at(p)).eq(fmap.map_at(p + 1).mul(src.diff(p))):
            return f"does not commute with d at degree {p}"
    if check_actions:
        shift = src.action_degree
        for p in range(lo, hi + 1):
            for g in range(src.num_generators()):
                lhs = fmap.map_at(p + shift).mul(_oracle_action(src, p, g))
                rhs = _oracle_action(tgt, p, g).mul(fmap.map_at(p))
                if not lhs.eq(rhs):
                    return f"does not commute with action at degree {p}"
    return None



# -- the linear systems in module maps, as each wrote its own -----------------
#
# The bodies of ``complexes.nullhomotopy`` and
# ``functors.module_linear_hom_basis`` before both were written on
# ``complexes.map_equations``: each assembles its equations row by row,
# from transposed copies of the matrices it reads.


def oracle_nullhomotopy(fmap, gmap):
    """``nullhomotopy`` with its own equation loops: {p: s^p} or None."""
    if fmap.source is not gmap.source or fmap.target is not gmap.target:
        if (fmap.source.dims != gmap.source.dims
                or fmap.target.dims != gmap.target.dims):
            raise InconsistentDataError("nullhomotopy needs parallel maps")
    src, tgt = fmap.source, fmap.target
    f = fmap.field
    lo = min(src.window[0], tgt.window[0])
    hi = max(src.window[1], tgt.window[1]) + 1
    varmap = {}
    for p in range(lo, hi + 1):
        ns, nt = src.dim(p), tgt.dim(p - 1)
        for i in range(nt):
            for j in range(ns):
                varmap[(p, i, j)] = len(varmap)

    def var(p, i, j):
        return varmap.get((p, i, j))

    def rows_of(m, nrows):
        """Row i of m as {column: value}, for i < nrows (m may be smaller)."""
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(m.columns):
            for i, v in col.items():
                if i < nrows:
                    rows[i][j] = v
        return rows

    eqs = []
    # homotopy identity per degree
    for p in range(lo - 1, hi + 1):
        ns = src.dim(p)
        delta = fmap.map_at(p).sub(gmap.map_at(p))
        sgn_d = 1 if p % 2 == 0 else -1
        dprev = rows_of(tgt.diff(p - 1), tgt.dim(p))  # tgt^{p-1} -> tgt^p
        dnext = src.diff(p).columns                   # src^p -> src^{p+1}
        for i in range(tgt.dim(p)):
            for j in range(ns):
                eq = {}
                # (-1)^p (d s^p)_{ij} = sum_k d[i,k] s^p[k,j]
                for k, c in dprev[i].items():
                    v = var(p, k, j)
                    if v is not None:
                        eq[v] = eq.get(v, 0) + sgn_d * c
                # (-1)^{p+1} (s^{p+1} d)_{ij} = sum_k s^{p+1}[i,k] d[k,j]
                if j < len(dnext):
                    for k, c in dnext[j].items():
                        v = var(p + 1, i, k)
                        if v is not None:
                            eq[v] = eq.get(v, 0) - sgn_d * c
                eq = zero_free(eq, f.p)
                rhs = delta.columns[j].get(i) if j < delta.cols else None
                if eq or rhs:
                    eq[RHS] = rhs or f.zero()
                    eqs.append(eq)
    # module linearity of s
    act_shift = src.action_degree
    for p in range(lo - 1, hi + 1):
        for g in range(src.num_generators()):
            a_s = src.action(p, g).columns    # src^p -> src^{p+shift}
            rows_t = tgt.dim(p - 1 + act_shift)
            a_t = rows_of(tgt.action(p - 1, g), rows_t)  # tgt^{p-1} -> tgt^{p-1+shift}
            for i in range(rows_t):
                for j in range(src.dim(p)):
                    eq = {}
                    # (s^{p+shift} a_src)_{ij}
                    if j < len(a_s):
                        for k, c in a_s[j].items():
                            v = var(p + act_shift, i, k)
                            if v is not None:
                                eq[v] = eq.get(v, 0) + c
                    # -(a_tgt s^p)_{ij}
                    for k, c in a_t[i].items():
                        v = var(p, k, j)
                        if v is not None:
                            eq[v] = eq.get(v, 0) - c
                    eq = zero_free(eq, f.p)
                    if eq:
                        eqs.append(eq)
    sol = solve_sparse(f, eqs, len(varmap))
    if sol is None:
        return None
    maps = {}
    for p in range(lo, hi + 1):
        ns, nt = src.dim(p), tgt.dim(p - 1)
        if not ns or not nt:
            continue
        maps[p] = Matrix(f, nt, [zero_free({i: sol[varmap[(p, i, j)]] for i in range(nt)}, f.p)
                                 for j in range(ns)])
    return maps



def oracle_homotopy_identity_holds(fmap, gmap, h):
    """``homotopy_identity_holds`` on Matrix temporaries: d s and s d
    formed, scaled and summed, then compared with f - g."""
    f = fmap.field
    src, tgt = fmap.source, fmap.target
    lo = min(src.window[0], tgt.window[0])
    hi = max(src.window[1], tgt.window[1])
    one = f.one()
    for p in range(lo, hi + 1):
        delta = fmap.map_at(p).sub(gmap.map_at(p))
        sgn_d = one if p % 2 == 0 else f.neg(one)
        sp = h.get(p)
        sp1 = h.get(p + 1)
        acc = Matrix.zero(f, tgt.dim(p), src.dim(p))
        if sp is not None:
            acc = acc.add(tgt.diff(p - 1).mul(sp).scale(sgn_d))
        if sp1 is not None:
            acc = acc.add(sp1.mul(src.diff(p)).scale(f.neg(sgn_d)))
        if not acc.eq(delta):
            return False
    return True

def oracle_module_linear_hom_basis(n, g, degree, labels):
    """``module_linear_hom_basis`` with its own equation loop."""
    f = n.field
    varmap = {lab: v for v, lab in enumerate(labels)}
    cols = [{} for _ in labels]  # column v: the coefficients of variable v
    neqs = 0
    for r in n.dims:
        for gen in range(n.num_generators()):
            a_n = n.action(r, gen)           # N^r -> N^{r+1}
            # G^{r+degree} -> G^{r+degree+1}, read by rows
            g_rows = [{} for _ in range(g.dim(r + 1 + degree))]
            for k, gcol in enumerate(g.action(r + degree, gen).columns):
                for i, c in gcol.items():
                    g_rows[i][k] = c
            for i, g_row in enumerate(g_rows):
                for j in range(n.dim(r)):
                    # h(x* e_j) + x* h(e_j) at e_i
                    eq = {}
                    for k, c in a_n.columns[j].items():
                        v = varmap.get((r + 1, k, i))
                        if v is not None:
                            eq[v] = eq.get(v, 0) + c
                    for k, c in g_row.items():
                        v = varmap.get((r, j, k))
                        if v is not None:
                            eq[v] = eq.get(v, 0) + c
                    eq = zero_free(eq, f.p)
                    if eq:
                        for v, c in eq.items():
                            cols[v][neqs] = c
                        neqs += 1
    return kernel_basis(Matrix(f, neqs, cols))

def random_bounded_complex(data, u, rng, max_dim=2, length=3):
    """Random U-complex of sums of trivial modules with nilpotent maps."""
    f = data.field
    k = UComplex.trivial(data)
    mods = {}
    dims = {}
    for p in range(length):
        n = rng.randint(1, max_dim)
        m = k
        for _ in range(n - 1):
            m = direct_sum(m, k)
        mods[p] = m
        dims[p] = n
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
    return UComplex.of_modules(data, (0, length - 1), mods, diffs)

def symmetric_presentation(field, dim):
    """S(V): relations x_i x_j - x_j x_i for i < j."""
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            row = [field.zero()] * (dim * dim)
            row[i * dim + j] = field.one()
            row[j * dim + i] = field.neg(field.one())
            rows.append(row)
    return QuadraticPresentation(field, [f"x{i+1}" for i in range(dim)],
                                 Matrix.from_rows(field, rows, dim * dim))


def heisenberg_deformation(field):
    """The Heisenberg Lie algebra: [x1, x2] = x3, bracket via x^y -> [y,x]."""
    rel = Matrix.from_int_rows(field, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    alpha = Matrix.from_int_rows(field, [[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    return DeformationData.from_raw(field, ["x1", "x2", "x3"], rel, alpha,
                                    [field.zero()] * 3)


def twopoint_deformation(field, a=1, b=2):
    """U = k[x]/(x^2 - (a+b)x + ab)."""
    s = -(a + b)
    return DeformationData.from_raw(
        field, ["x"], Matrix.from_int_rows(field, [[1]]),
        Matrix.from_int_rows(field, [[s]]), [field.of_int(a * b)])


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def sym2(qq):
    return symmetric_presentation(qq, 2)


@pytest.fixture(scope="session")
def sym3(qq):
    return symmetric_presentation(qq, 3)


@pytest.fixture(scope="session")
def heis(qq):
    return heisenberg_deformation(qq)


@pytest.fixture(scope="session")
def twopoint(qq):
    return twopoint_deformation(qq)


@pytest.fixture(scope="session")
def sym2_world(qq, sym2):
    """(deformation, U, cdga) for the trivial deformation of S(V), dim 2."""
    data = DeformationData.trivial(sym2)
    return data, build_U(data, 8), build_cdga(data, 5)


@pytest.fixture(scope="session")
def heis_world(heis):
    return heis, build_U(heis, 8), build_cdga(heis, 5)


@pytest.fixture(scope="session")
def twopoint_world(twopoint):
    return twopoint, build_U(twopoint, 4), build_cdga(twopoint, 6)


# -- library code that only tests read ---------------------------------------------
#
# T's right-module law, G on maps and the adjunction triangle, as they were
# in ``functors``, where no command read them: the law and the triangle
# over the library's ``bimodule_delta``, ``apply_G`` and ``unit``, G on
# maps over ``G_blocks``.


def check_right_module(u, cdga, level, r_max):
    """delta((u⊗a)b) = delta(u⊗a)b + (-1)^{|a|} (u⊗a) d(b) on basis triples."""
    f = u.field
    one = f.one()
    dual = cdga.dual
    for r in range(r_max):
        sgn = 1 if r % 2 == 0 else -1
        for s in range(1, r_max - r + 1):
            if r + s + 1 > dual.bound:
                continue
            ds = cdga.d(s).columns
            for ui in range(u.dim_leq(level)):
                for a in range(dual.dim_at(r)):
                    ea = {a: one}
                    ab1 = delta_elem(u, cdga, r, ui, ea)
                    for b in range(dual.dim_at(s)):
                        eb = {b: one}
                        lhs = delta_elem(u, cdga, r + s, ui, dual.multiply(r, ea, s, eb))
                        rhs = {}
                        for (ti, c1), co in ab1.items():
                            for b2, c2 in dual.multiply(r + 1, {c1: co}, s, eb).items():
                                rhs[(ti, b2)] = rhs.get((ti, b2), 0) + c2
                        for b2, c2 in dual.multiply(r, ea, s + 1, ds[b]).items():
                            rhs[(ui, b2)] = rhs.get((ui, b2), 0) + sgn * c2
                        if _sparse_ne(f, lhs, rhs):
                            return False
    return True


def delta_elem(u, cdga, r, ui, avec):
    """delta(u_i ⊗ a) as {(u_index, a!_{r+1} index): coeff}, summed
    from the columns u_i ⊗ e_a of delta's matrix."""
    cols = bimodule_delta(u, cdga, len(u.basis_words[ui]), r).columns
    dual = cdga.dual
    na, nb = dual.dim_at(r), dual.dim_at(r + 1)
    out = {}
    for a, ca in avec.items():
        axpy(out, ca, cols[ui * na + a])
    return {divmod(k, nb): c for k, c in zero_free(out, u.field.p).items()}


def _sparse_ne(f, a: dict, b: dict) -> bool:
    for k in set(a) | set(b):
        if not f.eq(a.get(k, f.zero()), b.get(k, f.zero())):
            return True
    return False


def apply_G_map(phi, cdga, bounds):
    """G on morphisms: blockwise id ⊗ phi^{p+r}."""
    gsrc = apply_G(phi.source, cdga, bounds, verify=False)
    gtgt = apply_G(phi.target, cdga, bounds, verify=False)
    return ChainMap(gsrc, gtgt, G_blocks(phi.field, phi.maps, gsrc.labels, gtgt.labels))


def triangle_check(m, u, cdga, bounds):
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
