"""Nonhomogeneous quadratic data P = (R, alpha, beta).

Three constructions live here: the Braverman-Gaitsgory PBW conditions on
(R⊗V) ∩ (V⊗R), the curved dga (A!, d, c) obtained by dualizing the
deformation, and the filtration-truncated algebra U = T(V)/(P).  The two
routes to PBW-ness (condition check versus cdga axioms) are implemented
independently so they can certify each other.
"""

from __future__ import annotations

from .errors import (
    CdgaInvariantError,
    InputError,
    WellDefinednessError,
)
from .linalg import Matrix, axpy, is_nonzero, rref, zero_free
from .presentations import (
    GradedAlgebraTruncation,
    QuadraticPresentation,
    WordQuotient,
)
from .words import pair_index


class DeformationData:
    """P = {x + alpha(x) + beta(x) | x in R} with columns of alpha indexed
    by the canonical relation basis of the underlying presentation."""

    def __init__(self, base: QuadraticPresentation, alpha: Matrix, beta: Matrix):
        d, m = base.dim, base.num_relations
        if alpha.rows != d or alpha.cols != m:
            raise InputError(f"alpha must be {d}x{m}")
        if beta.rows != 1 or beta.cols != m:
            raise InputError(f"beta must be 1x{m}")
        self.base = base
        self.field = base.field
        self.alpha = alpha
        self.beta = beta
        if base.weights is not None:
            self._check_weights()

    @staticmethod
    def from_raw(field, generators, relation_rows: Matrix, alpha_rows=None,
                 beta_entries=None, weights=None) -> "DeformationData":
        """Build from a user relation list with alpha/beta given per raw row.

        The graph subspace P is canonicalized by row reduction, which
        rewrites alpha and beta in terms of the canonical relation basis.
        The quadratic coordinates come first, so a pivot beyond them is a
        relation with no quadratic part.
        """
        f = field
        d = len(generators)
        m = relation_rows.rows
        if alpha_rows is None:
            alpha_rows = Matrix.zero(f, m, d)
        if beta_entries is None:
            beta_entries = [f.zero()] * m
        if alpha_rows.rows != m or alpha_rows.cols != d or len(beta_entries) != m:
            raise InputError("alpha/beta shape must match the raw relation list")
        beta_col = {i: b for i, b in enumerate(beta_entries) if b}
        gm = Matrix(f, m, relation_rows.columns + alpha_rows.columns + [beta_col])
        red, pivots = rref(gm)
        dd, n = d * d, len(pivots)
        if pivots and pivots[-1] >= dd:
            raise InputError("P meets k + V nontrivially: a relation has no quadratic part")
        # the nonzero rref rows are its first n; every pivot is quadratic, so
        # their quadratic parts are already the rref rows of `base.relations`,
        # in the same order as their tails
        base = QuadraticPresentation(f, generators, Matrix(f, n, red.columns[:dd]),
                                     weights=weights)
        alpha = Matrix(f, n, red.columns[dd: dd + d]).transpose()
        beta = Matrix(f, n, red.columns[dd + d:]).transpose()
        return DeformationData(base, alpha, beta)

    @staticmethod
    def trivial(base: QuadraticPresentation) -> "DeformationData":
        f = base.field
        return DeformationData(base, Matrix.zero(f, base.dim, base.num_relations),
                               Matrix.zero(f, 1, base.num_relations))

    # -- invariants ------------------------------------------------------

    def _check_weights(self):
        wts = self.base.weights
        for i in range(self.base.num_relations):
            rw = self.base.relation_weight(i)
            if any(wts[g] != rw for g in self.alpha.columns[i]):
                raise InputError(
                    f"alpha breaks weight homogeneity on relation {i}")
            if self.beta.columns[i] and rw != 0:
                raise InputError(f"beta nonzero on weight-{rw} relation {i}")

    def graph_rows(self) -> Matrix:
        """Rows (r | alpha(r) | beta(r)) over the canonical relation basis."""
        return Matrix(self.field, self.base.num_relations,
                      self.base.relations.columns + self.alpha.transpose().columns
                      + self.beta.transpose().columns)


# -- Braverman-Gaitsgory conditions ---------------------------------------


class PbwReport:
    def __init__(self, cond1: bool, cond2: bool, cond3: bool, overlap_dim: int):
        self.cond1 = cond1
        self.cond2 = cond2
        self.cond3 = cond3
        self.overlap_dim = overlap_dim

    @property
    def all_pass(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3


def pbw_check(data: DeformationData) -> PbwReport:
    """The three PBW conditions, verified exactly on the basis of
    (R⊗V)∩(V⊗R) that the presentation keeps (``overlap()``): each kernel
    vector (x | y) gives an overlap vector's coordinates in both row sets
    R⊗V and V⊗R at once.
    """
    p = data.field.p
    d = data.base.dim
    rel = data.base.relations
    m = rel.rows
    alpha, beta = data.alpha.columns, data.beta.columns  # per relation i
    overlap = data.base.overlap()
    relt = rel.transpose()
    # R is stored as rref rows: an element of R has its R-coordinates at the
    # pivots, the leftmost column of each row
    pivots = [min(row) for row in relt.columns]
    top = m * d

    cond1 = True
    cond2 = True
    cond3 = True
    for vec in overlap.columns:
        # t as sum c r_i ⊗ e_k (key i * d + k) and as sum c e_k ⊗ r_i (key
        # top + k * m + i)
        c_rv = [(divmod(key, d), c) for key, c in vec.items() if key < top]
        c_vr = [(divmod(key - top, m)[::-1], c) for key, c in vec.items() if key >= top]
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


# -- the curved dga (A!, d, c) --------------------------------------------


class CdgAlgebra:
    """Truncated quadratic dual with derivation components and curvature."""

    def __init__(self, data: DeformationData, dual: GradedAlgebraTruncation,
                 derivations, curvature):
        self.data = data
        self.field = data.field
        self.dual = dual
        self.derivations = derivations  # {n: Matrix A!_n -> A!_{n+1}}, n < bound
        self.curvature = curvature      # coordinates in A!_2
        self.bound = dual.bound

    def d(self, n: int) -> Matrix:
        m = self.derivations.get(n)
        if m is None:
            return Matrix.zero(self.field, self.dual.dim_at(n + 1) if n + 1 <= self.bound else 0,
                               self.dual.dim_at(n) if 0 <= n <= self.bound else 0)
        return m

    @property
    def curvature_is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.curvature)

    def verify(self):
        """Return the first violated cdga axiom as a string, or None.

        The axioms are checked up to the truncation bound ``top``, in this
        order: Leibniz d(ab) = d(a) b + (-1)^|a| a d(b) on basis pairs with
        |a| + |b| + 1 <= top, then d(c) = 0, then d^2 = [c, -] on A!_n for
        n + 2 <= top.  A! is generated in degree 1, so the generators
        suffice:

        - Leibniz is checked on (x_a, e_b) with e_b in A!_j, j <= top - 2.
          That implies it on every pair in range, by induction on |a|:
          write a = x a' (the suffix of a standard word is standard), then
          d(x a' b) expands through (x, a'b), (a', b) and (x, a'), all in
          range, and the truncated product is associative.
        - Once Leibniz holds, D = d^2 - [c, -] is an even derivation
          (D(ab) = D(a) b + a D(b)), so it vanishes on A!_n, n + 2 <= top,
          as soon as it vanishes on the generators.

        The string returned is the one the check on every basis pair
        returns.  The unit multiplies as the identity, so pairs with
        |a| = 0 fail exactly when d(1) != 0, and then first on 1 * 1; that
        is checked first.  Otherwise they never fail, nor does d^2 on A!_0.
        A pairwise loop in (i, j, a, b) order then reaches every |a| = 1
        pair, in (j, a, b) order, before any other, and by the induction
        some |a| = 1 pair fails whenever any pair does.  The same holds for
        d^2 and n = 1.

        Products are read off the cached sparse ``mult_columns``: x_a e_b is
        column a * dim A!_j + b of ``mult_columns(1, j)``.  The tables of
        A!_2 times A!_j are read only through a nonzero d(x_a*) or c, so
        they are built only then.
        """
        top = self.bound
        if top < 1:
            return None
        dual = self.dual
        p = self.field.p
        m1 = dual.dim_at(1)
        left = [dual.mult_columns(1, j) for j in range(top)]
        ds = [self.d(n).columns for n in range(top)]
        # with a = 1, Leibniz reads d(1) e_b = 0: it fails first on 1 * 1
        if is_nonzero(ds[0][0], p):
            return "Leibniz fails on basis pair A!_0[0] * A!_0[0]"
        # d(x_a e_b) - d(x_a) e_b + x_a d(e_b) on A!_1 x A!_j
        for j in range(top - 1):
            mj, mj1 = dual.dim_at(j), dual.dim_at(j + 1)
            right = dual.mult_columns(2, j) if any(ds[1]) else None
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
        # d(c) = 0
        curv = {s: c for s, c in enumerate(self.curvature) if c}
        if self.d(2).apply(curv):
            return "d(c) != 0"
        # d^2(x_b) - c x_b + x_b c
        m2 = dual.dim_at(2)
        cx = dual.mult_columns(2, 1) if curv else None
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


def build_cdga(data: DeformationData, bound: int, check=True,
               _sign_debug=False) -> CdgAlgebra:
    """Dualize (alpha, beta) to (d, c) on the quadratic dual, truncated.

    Raises WellDefinednessError if d does not descend to A!, and (when
    ``check``) CdgaInvariantError if any curved-dga axiom fails; both
    signal that the deformation is not of PBW type.  (d, c) on the
    generators are read off the presentation's ``dual_pairing_inverse``,
    shared by every deformation of R and every bound; it raises
    InconsistentDataError when the pairing is degenerate, a fault of the
    program, not of the input.
    """
    if bound < 2:
        raise InputError(f"--degree {bound} is below 2: the cdga reads A!_2")
    f = data.field
    d = data.base.dim
    dual_pres = data.base.dual()
    dual = dual_pres.truncation(bound)

    # <d(x_g*), r_j> = x_g*(alpha(r_j)) = alpha[g][j] and <c, r_j> = beta(r_j):
    # one product with the presentation's inverse of the A!_2 pairing gives
    # the chosen representatives of every d(x_g*) and of c
    rhs = Matrix(f, data.base.num_relations,
                 data.alpha.transpose().columns + data.beta.transpose().columns)
    *lifts, curv_col = data.base.dual_pairing_inverse(bound).mul(rhs).columns
    words = dual.basis_words[2]
    # as {V*⊗V* word: coeff}, keys in increasing basis order (a product's
    # columns come in the order of its sums), so the derivations below are
    # accumulated in one fixed order
    lift = [{words[s]: c for s, c in sorted(col.items())} for col in lifts]
    curv = [curv_col.get(s, f.zero()) for s in range(dual.dim_at(2))]

    # well-definedness: the lifted derivation must kill R-perp in A!_3
    # (the sign-debug hook corrupts only the Leibniz extension below, so a
    # corrupted build fails at the Leibniz axiom, not here)
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

    # extend through the quotient by the (anti-)Leibniz rule on lifted
    # words: d~(g_1 ... g_n) = sum over positions of (+-1) g_1 .. d(g_i) .. g_n
    derivations = {}
    if bound >= 1:
        derivations[0] = Matrix.zero(f, dual.dim_at(1), 1)
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


# -- the filtered algebra U ------------------------------------------------


class FilteredAlgebraTruncation(WordQuotient):
    """U_{<=N} = (⊕_{m<=N} V^m) / span{a p b : deg a + 2 + deg b <= N}.

    The rewriting engine runs on the graph rows (r | alpha(r) | beta(r)).
    A rule found at sugar s rewrites a word of length n only when its
    excess s - |lead| is at most N - n, so the truncation is the span
    above, not the ideal (P) cut at degree N.  The chosen basis is the
    standard words, lex-least in each degree, listed degree by degree as
    one flat basis; for PBW deformations it is the lifted monomial basis of
    the associated graded algebra A.

    An element of U is a sparse column {basis index: raw value}, zeros
    left out, the format of A and A! too: ``reduce_word`` gives a word's
    column and the unit is {position of (): 1}.  U's one product entry
    is ``mult_basis(i, j)``: the product of basis words i and j as a
    cached column.  The functor layer (F, the bimodule delta, (GF)_i) and
    the free side sum over its nonzero entries.

    Products walk the generator table of ``WordQuotient``, one flat row
    per basis word, built one length at a time on first use: u x_g is one
    entry, a longer word one entry per letter per term.  That is exact on
    words of length <= N - e_max, e_max the largest rule excess: all of U
    when every rule has excess 0, as on every PBW input of the examples,
    the benchmark and the tests.  Off PBW a rule of excess e >= 1 rewrites
    only words of length <= N - e, so the rewriting of a prefix may use a
    rule the whole word's length forbids, and the word's class is then no
    product of its prefix's class: those words are reduced on a heap
    (``_heap_column``).
    """

    def __init__(self, data: DeformationData, bound: int):
        super().__init__(data.field, data.base.dim, data.graph_rows(), bound)
        self.data = data
        self.gr_dims = [len(ws) for ws in self._standard]
        self.basis_words = [w for ws in self._standard for w in ws]
        self._basis_pos = {w: i for i, w in enumerate(self.basis_words)}
        self._start_table(self._basis_pos, [0] * (bound + 1))
        self._mult_cache = {}

    # -- queries -----------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return len(self.basis_words)

    def dim_leq(self, n: int) -> int:
        """Dimension of the filtration piece U_{<=n}."""
        n = min(n, self.bound)
        return sum(self.gr_dims[: n + 1]) if n >= 0 else 0

    def _heap_column(self, word):
        """The class of a word longer than N - e_max, reduced greatest word
        first on a heap at the bound; kept with the walked words."""
        col = self._proj.get(word)
        if col is None:
            pos = self._basis_pos
            red = self._reduce({word: self.field.one()}, self.bound)
            col = self._proj[word] = {pos[w]: c for w, c in red.items()}
        return col

    def reduce_word(self, word):
        """The class of a word as the sparse column {basis index: raw
        value}, zeros left out; a new dict on every call."""
        if len(word) > self.bound:
            raise InputError(f"word degree {len(word)} beyond bound {self.bound}")
        if len(word) > self._walk_top:
            return dict(self._heap_column(word))
        return dict(self._walk(word))

    def mult_basis(self, i: int, j: int):
        """basis_word[i] * basis_word[j] as the sparse column {basis index:
        value}, zeros left out, values raw and canonical (over Q an int when
        integral and a ``Fraction`` otherwise, over F_p an int in [0, p));
        cached.  U's product table: u x_g is ``mult_basis(i, pos of (g,))``,
        one generator-table entry, and x_g u is ``mult_basis(pos of (g,),
        i)``, walked from x_g along the letters of u.
        The dict is shared by later calls: callers read it, never change it."""
        key = (i, j)
        got = self._mult_cache.get(key)
        if got is None:
            u, v = self.basis_words[i], self.basis_words[j]
            n = len(u) + len(v)
            if n > self.bound:
                raise InputError(f"word degree {n} beyond bound {self.bound}")
            if n > self._walk_top:
                got = self._heap_column(u + v)
            else:
                self._build_through(n)
                got, k = {i: 1}, len(u)
                for g in v:
                    got = self._times(got, k, g)
                    k += 1
            self._mult_cache[key] = got
        return got


def build_U(data: DeformationData, bound: int) -> FilteredAlgebraTruncation:
    return FilteredAlgebraTruncation(data, bound)


# -- the vanishing lemma ---------------------------------------------------


def vanishing_witness(data: DeformationData, cdga: CdgAlgebra = None,
                      u: FilteredAlgebraTruncation = None) -> bool:
    """Both canonical elements of U⊗A!_2 and A!_2⊗U vanish exactly.

    Evaluates sum x_a x_b ⊗ x_b* x_a* + sum x_a ⊗ d(x_a*) + 1 ⊗ c in
    U_{<=2} ⊗ A!_2 and returns True iff it is zero.  Its mirror in
    A!_2 ⊗ U has the transposed coefficient table, since scalars commute,
    so it vanishes exactly when this one does.
    """
    f = data.field
    d = data.base.dim
    if cdga is None:
        cdga = build_cdga(data, 3, check=False)
    if u is None:
        u = build_U(data, 3)
    dual = cdga.dual
    elem = {}  # {U basis index: A!_2 column}

    def accumulate(ucol, acol):
        for i, x in ucol.items():
            axpy(elem.setdefault(i, {}), x, acol)

    for a in range(d):
        for b in range(d):
            accumulate(u.reduce_word((a, b)), dual.project_word((b, a)))
    d1 = cdga.d(1).columns
    for a in range(d):
        accumulate(u.reduce_word((a,)), d1[a])
    accumulate({u._basis_pos[()]: f.one()}, {s: c for s, c in enumerate(cdga.curvature) if c})
    return not any(is_nonzero(col, f.p) for col in elem.values())
