"""Quadratic presentations, the quadratic dual, and truncated word quotients.

A presentation stores the span of its relations as a canonical rref
matrix, so presentations that span the same subspace compare equal.
``WordQuotient`` is the one normal-form engine for A, A! and U: it puts
every u p v within the bound into one sparse echelon span, where each row
rewrites its lexicographically greatest word into smaller ones, so the
chosen basis monomials are the lex-least independent words.
``GradedAlgebraTruncation`` reads it degree by degree (A and A!);
``deformations.FilteredAlgebraTruncation`` reads it as one flat basis (U).
"""

from __future__ import annotations

from .errors import DegreeOverflowError, InputError
from .linalg import EchelonSpan, Matrix, kernel_basis, row_space
from .scalars import Field
from .words import (
    degree_offset,
    pair_index,
    word_global_index,
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


class WordQuotient:
    """T(V)_{<=bound} modulo span{u p v : |u| + 2 + |v| <= bound}.

    ``rows`` are the coefficients of each p over V⊗V, then V, then k (a
    quadratic relation row stops after V⊗V): the relations of A and A!,
    or the graph rows (r | alpha(r) | beta(r)) of U.  Every u p v goes into
    one EchelonSpan keyed by ``word_global_index``, degree by degree.  Each
    row is led by its lex-greatest word, so the words off the lead set are
    the lex-least independent ones; they form the chosen basis, and a
    word's normal form is its reduction modulo the span.
    """

    def __init__(self, field: Field, d: int, rows, bound: int):
        self.field = field
        self.bound = bound
        self._d = d
        self.span = EchelonSpan(field)
        middles = words_of_length(d, 2) + words_of_length(d, 1) + [()]
        terms = [[(w, c) for w, c in zip(middles, row) if not field.is_zero(c)]
                 for row in rows]
        for n in range(2, bound + 1):
            for i in range(n - 1):
                for u in words_of_length(d, i):
                    for v in words_of_length(d, n - 2 - i):
                        for p in terms:
                            self.span.insert({word_global_index(u + w + v, d): c
                                              for w, c in p})

    def standard_words(self, n: int):
        """The degree-n words off the lead set, in lex order."""
        leads = self.span.leads()
        start = degree_offset(self._d, n)
        return [w for g, w in enumerate(words_of_length(self._d, n), start)
                if g not in leads]

    def normal_form(self, word) -> dict:
        """{word_global_index: coefficient} of the class of a word."""
        return self.span.reduce({word_global_index(word, self._d): self.field.one()})

    def check_associativity(self, max_total=None) -> bool:
        """(ab)c = a(bc) exactly on standard words of degree >= 1 with
        |a| + |b| + |c| within bound."""
        top = self.bound if max_total is None else min(max_total, self.bound)
        f, d = self.field, self._d
        words = [w for n in range(top + 1) for w in self.standard_words(n)]
        word_of = {word_global_index(w, d): w for w in words}

        def product(x, y):
            out = {}
            for g, a in x.items():
                for h, b in y.items():
                    for k, c in self.normal_form(word_of[g] + word_of[h]).items():
                        out[k] = f.add(out.get(k, f.zero()), f.mul(f.mul(a, b), c))
            return {k: c for k, c in out.items() if not f.is_zero(c)}

        gens = [(len(w), {word_global_index(w, d): f.one()}) for w in words if w]
        for i, a in gens:
            for j, b in gens:
                if i + j >= top:
                    continue
                ab = product(a, b)
                for k, c in gens:
                    if i + j + k <= top and product(ab, c) != product(a, product(b, c)):
                        return False
        return True


class GradedAlgebraTruncation(WordQuotient):
    """Graded pieces A_n (n <= bound) with sections and multiplication.

    ``basis_words[n]`` lists the chosen monomials of A_n: basis vector i is
    the class of ``basis_words[n][i]``.  ``project_word`` gives a word's
    coordinates in its degree, reduced on first use and cached.
    """

    def __init__(self, pres: QuadraticPresentation, bound: int):
        if bound < 0:
            raise InputError("bound must be >= 0")
        super().__init__(pres.field, pres.dim, pres.relations.data, bound)
        self.pres = pres
        self.basis_words = {n: self.standard_words(n) for n in range(bound + 1)}
        self.dims = tuple(len(ws) for ws in self.basis_words.values())
        self._pos = {word_global_index(w, pres.dim): i
                     for ws in self.basis_words.values() for i, w in enumerate(ws)}
        self._proj = {}
        self._mult = {}

    # -- queries ---------------------------------------------------------

    def dim_at(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.bound:
            raise DegreeOverflowError(f"degree {n} beyond bound {self.bound}")
        return len(self.basis_words[n])

    def project_word(self, word):
        """Coordinates of the class of a word in its degree component, as
        a new list; the reduction is done on first use and cached."""
        n = len(word)
        if n > self.bound:
            raise DegreeOverflowError(f"degree {n} beyond bound {self.bound}")
        col = self._proj.get(word)
        if col is None:
            col = [self.field.zero()] * len(self.basis_words[n])
            for g, c in self.normal_form(word).items():
                col[self._pos[g]] = c
            self._proj[word] = col
        return list(col)

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

    def check_weight_blocks(self):
        """Every word reduces onto basis monomials of its own weight."""
        if self.pres.weights is None:
            return True
        f, w = self.field, self.pres.weights
        for n in range(2, self.bound + 1):
            for word in words_of_length(self._d, n):
                for i, c in enumerate(self.project_word(word)):
                    if not f.is_zero(c) and word_weight(word, w) != self.basis_weight(n, i):
                        return False
        return True


def truncate_algebra(p: QuadraticPresentation, bound: int) -> GradedAlgebraTruncation:
    return GradedAlgebraTruncation(p, bound)
