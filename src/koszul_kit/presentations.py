"""Quadratic presentations, the quadratic dual, and graded truncations.

A presentation stores the span of its relations as a canonical rref
matrix, so presentations that span the same subspace compare equal.
Truncations pick basis monomials for each graded piece A_n: every
relation rewrites its lexicographically greatest word into smaller
ones, so the chosen monomials are the lex-least independent words.
"""

from __future__ import annotations

from .errors import DegreeOverflowError, InputError
from .linalg import EchelonSpan, Matrix, kernel_basis, row_space
from .scalars import Field
from .words import (
    pair_index,
    word_local_index,
    word_weight,
    words_of_length,
)


class QuadraticPresentation:
    """T(V)/(R) data: generators of V and the relation subspace R in V⊗V."""

    def __init__(self, field: Field, generators, relations: Matrix, weights=None):
        self.field = field
        self.generators = tuple(generators)
        d = len(self.generators)
        if relations.cols != d * d:
            raise InputError(f"relation rows must have {d * d} pair coordinates")
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != d:
                raise InputError("one weight per generator required")
            if any(w < 1 for w in weights):
                raise InputError("weights must be >= 1")
        self.weights = weights
        self.relations = row_space(relations)
        if weights is not None:
            self._check_weight_homogeneous()

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def num_relations(self) -> int:
        return self.relations.rows

    def _check_weight_homogeneous(self):
        f, d = self.field, self.dim
        for i in range(self.relations.rows):
            seen = set()
            for a in range(d):
                for b in range(d):
                    if not f.is_zero(self.relations.data[i][pair_index(a, b, d)]):
                        seen.add(self.weights[a] + self.weights[b])
            if len(seen) > 1:
                raise InputError(f"relation {i} is not weight-homogeneous: weights {sorted(seen)}")

    def relation_weight(self, i: int):
        """Weight of canonical relation row i (None when ungraded)."""
        if self.weights is None:
            return None
        f, d = self.field, self.dim
        for a in range(d):
            for b in range(d):
                if not f.is_zero(self.relations.data[i][pair_index(a, b, d)]):
                    return self.weights[a] + self.weights[b]
        return None

    def dual_generator_names(self):
        return tuple(g + "*" for g in self.generators)

    def equal(self, other) -> bool:
        return (self.field == other.field and self.dim == other.dim
                and self.relations.eq(other.relations))

    def __repr__(self):
        return (f"QuadraticPresentation({self.field!r}, dim V={self.dim}, "
                f"dim R={self.num_relations})")


def quadratic_dual(p: QuadraticPresentation) -> QuadraticPresentation:
    """The presentation of A!: relations span the annihilator of R.

    The pairing is contragredient, <f⊗g, v⊗w> = f(w)g(v).  This is the
    convention under which the canonical element sum x_a x_b ⊗ x_b* x_a*
    (plus derivation and curvature terms) vanishes in U ⊗ A! for every
    relation subspace, which the Koszul bimodule differential needs; for
    swap-stable R (symmetric or exterior relations) it agrees with the
    componentwise pairing.
    """
    f, d = p.field, p.dim
    swapped = [[p.relations.data[i][pair_index(b, a, d)] for a in range(d) for b in range(d)]
               for i in range(p.relations.rows)]
    ann = kernel_basis(Matrix(f, swapped, p.relations.rows, d * d))
    rows = ann.transpose()
    return QuadraticPresentation(f, p.dual_generator_names(), rows, weights=p.weights)


def double_dual_check(p: QuadraticPresentation, n_max: int) -> bool:
    """(R⊥)⊥ = R as subspaces, and dims of ((A!)!)_n match A_n for n <= N."""
    dd = quadratic_dual(quadratic_dual(p))
    if not dd.relations.eq(p.relations):
        return False
    a = truncate_algebra(p, n_max)
    b = truncate_algebra(dd, n_max)
    return a.dims == b.dims


class GradedAlgebraTruncation:
    """Graded pieces A_n (n <= bound) with sections and multiplication.

    For each degree: ``basis_words[n]`` lists the chosen monomial
    representatives, ``projections[n]`` maps V^{otimes n} coordinates onto
    basis coordinates, and the section sends basis vector i to the word
    ``basis_words[n][i]``.
    """

    def __init__(self, pres: QuadraticPresentation, bound: int):
        if bound < 0:
            raise InputError("bound must be >= 0")
        self.pres = pres
        self.field = pres.field
        self.bound = bound
        d = pres.dim
        f = self.field

        self.basis_words = {0: [()], 1: words_of_length(d, 1) if bound >= 1 else []}
        self.projections = {0: Matrix.identity(f, 1)}
        if bound >= 1:
            self.projections[1] = Matrix.identity(f, d)

        for n in range(2, bound + 1):
            span_rows = self._relation_span_rows(n)
            self._install_degree(n, span_rows)

        self.dims = tuple(len(self.basis_words.get(n, [])) for n in range(bound + 1))
        self._word_pos = {
            n: {w: i for i, w in enumerate(ws)} for n, ws in self.basis_words.items()
        }
        self._mult = {}

    # -- construction ----------------------------------------------------

    def _relation_span_rows(self, n: int):
        """Sparse rows spanning sum_{i+2+j=n} V^i ⊗ R ⊗ V^j in V^{otimes n}."""
        f, d = self.field, self.pres.dim
        rel = self.pres.relations
        rows = []
        for i in range(n - 1):
            j = n - 2 - i
            for u in words_of_length(d, i):
                for v in words_of_length(d, j):
                    for ridx in range(rel.rows):
                        vec = {}
                        rr = rel.data[ridx]
                        for a in range(d):
                            for b in range(d):
                                c = rr[pair_index(a, b, d)]
                                if not f.is_zero(c):
                                    w = u + (a, b) + v
                                    vec[word_local_index(w, d)] = c
                        rows.append(vec)
        return rows

    def _install_degree(self, n: int, span_rows):
        f, d = self.field, self.pres.dim
        ncols = d ** n
        span = EchelonSpan(f)
        for vec in span_rows:
            span.insert(vec)
        leads = set(span.leads())
        std = [j for j in range(ncols) if j not in leads]
        all_words = words_of_length(d, n)
        self.basis_words[n] = [all_words[j] for j in std]
        std_pos = {j: i for i, j in enumerate(std)}
        proj_cols = []
        for j in range(ncols):
            if j in std_pos:
                col = [f.zero()] * len(std)
                col[std_pos[j]] = f.one()
            else:
                red = span.reduce({j: f.one()})
                col = [f.zero()] * len(std)
                for k, c in red.items():
                    col[std_pos[k]] = c
            proj_cols.append(col)
        self.projections[n] = Matrix.from_columns(f, proj_cols, rows=len(std))

    # -- queries ---------------------------------------------------------

    def dim_at(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.bound:
            raise DegreeOverflowError(f"degree {n} beyond bound {self.bound}")
        return len(self.basis_words[n])

    def project_word(self, word):
        """Coordinates of the class of a word in its degree component."""
        n = len(word)
        if n > self.bound:
            raise DegreeOverflowError(f"degree {n} beyond bound {self.bound}")
        d = self.pres.dim
        return self.projections[n].column(word_local_index(word, d))

    def basis_weight(self, n: int, i: int):
        if self.pres.weights is None:
            return None
        return word_weight(self.basis_words[n][i], self.pres.weights)

    def mult_tensor(self, i: int, j: int) -> Matrix:
        """Matrix of A_i ⊗ A_j -> A_{i+j} in basis coordinates."""
        if i + j > self.bound:
            raise DegreeOverflowError(f"product degree {i + j} beyond bound {self.bound}")
        key = (i, j)
        cached = self._mult.get(key)
        if cached is not None:
            return cached
        f = self.field
        cols = []
        for u in self.basis_words[i]:
            for v in self.basis_words[j]:
                cols.append(self.project_word(u + v))
        m = Matrix.from_columns(f, cols, rows=self.dim_at(i + j))
        self._mult[key] = m
        return m

    def multiply(self, i: int, a, j: int, b):
        """Product of homogeneous elements, given as basis-coordinate lists."""
        f = self.field
        if i + j > self.bound:
            raise DegreeOverflowError(f"product degree {i + j} beyond bound {self.bound}")
        nb = self.dim_at(j)
        vec = [f.zero()] * (self.dim_at(i) * nb)
        for s, x in enumerate(a):
            if f.is_zero(x):
                continue
            for t, y in enumerate(b):
                if not f.is_zero(y):
                    vec[s * nb + t] = f.mul(x, y)
        return self.mult_tensor(i, j).apply(vec)

    def left_mult_matrix(self, g: int, j: int) -> Matrix:
        """Action of generator g: A_j -> A_{1+j}."""
        f = self.field
        cols = []
        for v in self.basis_words[j]:
            cols.append(self.project_word((g,) + v))
        return Matrix.from_columns(f, cols, rows=self.dim_at(1 + j))

    def right_mult_matrix(self, g: int, j: int) -> Matrix:
        """Right multiplication by generator g: A_j -> A_{j+1}."""
        f = self.field
        cols = []
        for v in self.basis_words[j]:
            cols.append(self.project_word(v + (g,)))
        return Matrix.from_columns(f, cols, rows=self.dim_at(j + 1))

    def unit_vector(self):
        return [self.field.one()]

    # -- verification ------------------------------------------------------

    def check_associativity(self, max_total=None):
        """Exact associativity on basis triples with i+j+k within bound."""
        top = self.bound if max_total is None else min(max_total, self.bound)
        f = self.field
        for i in range(1, top + 1):
            for j in range(1, top + 1):
                for k in range(1, top + 1):
                    if i + j + k > top:
                        continue
                    for a in range(self.dim_at(i)):
                        ea = self._unit_coord(i, a)
                        for b in range(self.dim_at(j)):
                            eb = self._unit_coord(j, b)
                            ab = self.multiply(i, ea, j, eb)
                            for c in range(self.dim_at(k)):
                                ec = self._unit_coord(k, c)
                                left = self.multiply(i + j, ab, k, ec)
                                right = self.multiply(i, ea, j + k, self.multiply(j, eb, k, ec))
                                if any(not f.eq(x, y) for x, y in zip(left, right)):
                                    return False
        return True

    def check_weight_blocks(self):
        """Projections only connect words and monomials of equal weight."""
        if self.pres.weights is None:
            return True
        f, d, w = self.field, self.pres.dim, self.pres.weights
        for n in range(2, self.bound + 1):
            all_words = words_of_length(d, n)
            proj = self.projections[n]
            for col, word in enumerate(all_words):
                for row in range(proj.rows):
                    if not f.is_zero(proj.data[row][col]):
                        if word_weight(word, w) != self.basis_weight(n, row):
                            return False
        return True

    def _unit_coord(self, n: int, i: int):
        f = self.field
        v = [f.zero()] * self.dim_at(n)
        v[i] = f.one()
        return v


def truncate_algebra(p: QuadraticPresentation, bound: int) -> GradedAlgebraTruncation:
    return GradedAlgebraTruncation(p, bound)
