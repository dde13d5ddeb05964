"""Quadratic presentations, the quadratic dual, and truncated word quotients.

A presentation stores the span of its relations as a canonical rref
matrix, so presentations that span the same subspace compare equal.  It
owns what is derived from it: ``dual()`` is the presentation of A! and
``truncation(n)`` is A_{<=n}, each built on its first call (through
``quadratic_dual`` and ``truncate_algebra``) and kept, so every
deformation (R, alpha, beta) of one R dualizes on one shared A!.  It
keeps the two matrices of that correspondence that depend on R alone the
same way: ``overlap()``, a basis of (R⊗V) ∩ (V⊗R), on which
``pbw_check`` tests the PBW conditions of every deformation, and
``dual_pairing_inverse(bound)``, the inverse of the pairing of R with
A!_2, through which ``build_cdga`` dualizes each (alpha, beta) to (d, c)
with one matrix product.  Neither refers back to the presentation.
``WordQuotient`` is the one normal-form engine for A, A! and U: a
degree-truncated Buchberger completion turns the relations into rewriting
rules, each replacing its deg-lex greatest word by smaller ones, and only
within the bound its sugar allows; the chosen basis monomials are the
words no rule rewrites, the lex-least independent words.  Rule tails,
S-polynomials and normal forms hold canonical raw values (``scalars``):
over Q an int when integral, a ``Fraction`` only with a denominator > 1.
It is also the one product engine: a word's class is its prefix's class
times its last letter, read off a generator table whose entry s·x_g, for
a standard word s, is a basis column or one rewriting step away from the
classes of smaller words; no heap, no recursion.  That holds on every
word of length at most ``bound`` minus the largest rule excess: all of A
and A!, whose relations are homogeneous, and all of U on PBW input.
``GradedAlgebraTruncation`` reads the engine degree by degree (A and A!),
``deformations.FilteredAlgebraTruncation`` as one flat basis (U), which
reduces the longer words of non-PBW input on a heap.
"""

from __future__ import annotations

import weakref
from heapq import heapify, heappop, heappush
from itertools import count

from .errors import DegreeOverflowError, InconsistentDataError, InputError
from .linalg import Matrix, axpy, kernel_basis, row_space, solve_matrix, zero_free
from .scalars import Field, canon
from .words import (
    degree_offset,
    pair_index,
    word_global_index,
    word_weight,
    words_of_length,
)


class QuadraticPresentation:
    """T(V)/(R) data: generators of V and the relation subspace R in V⊗V.

    What depends on R alone is built on first use and kept: ``dual()``,
    ``truncation(n)``, ``overlap()`` and ``dual_pairing_inverse(bound)``.
    The presentation owns them; a cached truncation refers back to it
    weakly and the matrices not at all, so no reference cycle forms and
    all of it is freed with the presentation."""

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
        self._dual = None
        self._truncations = {}
        self._overlap = None
        self._pairing_inverse = None

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def num_relations(self) -> int:
        return self.relations.rows

    def _check_weight_homogeneous(self):
        for i, row in enumerate(self.relations.transpose().columns):
            seen = {self._pair_weight(k) for k in row}
            if len(seen) > 1:
                raise InputError(f"relation {i} is not weight-homogeneous: weights {sorted(seen)}")

    def _pair_weight(self, k: int):
        a, b = divmod(k, self.dim)
        return self.weights[a] + self.weights[b]

    def relation_weight(self, i: int):
        """Weight of canonical relation row i (None when ungraded)."""
        if self.weights is None:
            return None
        row = self.relations.transpose().columns[i]
        return self._pair_weight(min(row)) if row else None

    def dual_generator_names(self):
        return tuple(g + "*" for g in self.generators)

    def dual(self) -> "QuadraticPresentation":
        """The presentation of A! (``quadratic_dual``), built on the first
        call and kept: every later call returns the same object."""
        if self._dual is None:
            self._dual = quadratic_dual(self)
        return self._dual

    def truncation(self, bound: int) -> "GradedAlgebraTruncation":
        """A_{<=bound} (``truncate_algebra``), built on the first call at
        this bound and kept.  The truncation's caches only grow, so every
        reader may share it; none changes it.  Its ``pres`` is a weak
        proxy of this presentation, which owns it: read it only while the
        presentation lives."""
        alg = self._truncations.get(bound)
        if alg is None:
            alg = self._truncations[bound] = truncate_algebra(self, bound)
            # a strong reference back would make the pair a cycle, which
            # only the cyclic collector frees, long after the last reader
            alg.pres = weakref.proxy(self)
        return alg

    def overlap(self) -> Matrix:
        """A basis of the overlap space (R⊗V) ∩ (V⊗R), built on the first
        call and kept: the kernel of [R⊗V; −V⊗R]ᵀ, whose rows are
        r_i ⊗ e_k (key i * d + k) and then e_k ⊗ r_i (key m * d + k * m + i).
        A kernel column (x | y) is an overlap vector t given in both row
        sets at once, t = x·(R⊗V) = y·(V⊗R); each row set is independent,
        so x determines t and the kernel dimension is the overlap
        dimension."""
        if self._overlap is None:
            idm = Matrix.identity(self.field, self.dim)
            rv = self.relations.kron(idm)  # rows r_i ⊗ e_k span R ⊗ V
            vr = idm.kron(self.relations)  # rows e_k ⊗ r_i span V ⊗ R
            self._overlap = kernel_basis(rv.vstack(vr.neg()).transpose())
        return self._overlap

    def dual_pairing_inverse(self, bound: int) -> Matrix:
        """The inverse of the pairing of R with A!_2 (``_dual_pairing``):
        column j holds the A!_2 coordinates of the element that pairs to 1
        with relation row j and to 0 with the others, so X·b is the element
        of A!_2 whose pairing with the relations is b.  Its rows follow the
        basis words of ``dual().truncation(bound)`` in degree 2, built on
        the first call and kept.  Those words are the same at every bound
        >= 2 (the degree-2 rules are the relations themselves; every
        ambiguity has sugar >= 3), so the one inverse serves every bound.
        A!_2 ≅ R*, so a degenerate pairing is a fault of the program and
        raises ``InconsistentDataError``."""
        if self._pairing_inverse is None:
            pairing = _dual_pairing(self.dual().truncation(bound), self.relations)
            inverse = solve_matrix(pairing, Matrix.identity(self.field, pairing.rows))
            if inverse is None or pairing.cols != pairing.rows:
                raise InconsistentDataError("degree-2 pairing is degenerate")
            self._pairing_inverse = inverse
        return self._pairing_inverse

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
    d = p.dim
    # column (a, b) of the swapped relations is column (b, a) of R
    rel = p.relations.columns
    swapped = Matrix(p.field, p.relations.rows,
                     [rel[pair_index(b, a, d)] for a in range(d) for b in range(d)])
    rows = kernel_basis(swapped).transpose()
    return QuadraticPresentation(p.field, p.dual_generator_names(), rows, weights=p.weights)


def _dual_pairing(dual: "GradedAlgebraTruncation", rel: Matrix) -> Matrix:
    """Pairing matrix <r_j, section(s)> between relation rows and the A!_2
    basis: column s is the column of R at the pair coordinate of s.

    Contragredient pairing, matching quadratic_dual: the word (a, b) pairs
    against the (b, a) coordinate of the relation.
    """
    d = dual.pres.dim
    return Matrix(dual.field, rel.rows,
                  [rel.columns[pair_index(w[1], w[0], d)] for w in dual.basis_words[2]])


def double_dual_check(p: QuadraticPresentation, n_max: int) -> bool:
    """(R⊥)⊥ = R as subspaces, and dims of ((A!)!)_n match A_n for n <= N."""
    dd = p.dual().dual()
    if not dd.relations.eq(p.relations):
        return False
    return p.truncation(n_max).dims == dd.truncation(n_max).dims


class SpanSize:
    """The dimension of the truncated ideal span S, read as ``span.dim()``:
    the number of words of length <= bound that rewriting moves (the lead
    words of S), that is the ambient count minus the standard words."""

    __slots__ = ("_dim",)

    def __init__(self, dim: int):
        self._dim = dim

    def dim(self) -> int:
        return self._dim


class WordQuotient:
    """T(V)_{<=bound} modulo S = span{u p v : |u| + 2 + |v| <= bound}.

    The rows of ``relations`` are the coefficients of each p over V⊗V,
    then V, then k (a quadratic relation row stops after V⊗V): the
    relations of A and A!, or the graph rows (r | alpha(r) | beta(r)) of U.

    Writing w for w t^(bound - |w|) identifies S with the degree-``bound``
    part of the ideal generated by the homogenised rows p_2 + p_1 t +
    p_0 t^2, t central.  A truncated Buchberger completion (Bergman's
    diamond lemma; Mora's degree-truncated form) finds a Gröbner basis of
    that ideal up to degree ``bound`` in the deg-lex order of
    ``word_global_index``, where longer words are larger and words of one
    length compare lexicographically.  Each rule rewrites its lead word
    into smaller words and carries a sugar s, the degree at which it was
    found: it may rewrite u lead v only when s + |u| + |v| <= bound, that
    is when its excess s - |lead| is at most the word's slack
    bound - |u lead v|.  Candidates are taken in increasing sugar;
    overlap ambiguities (lead1 = a c, lead2 = c b) have sugar
    max(s1 + |b|, s2 + |a|), inclusion ambiguities (lead1 = u lead2 v)
    max(s1, s2 + |u| + |v|), and those above the bound are dropped.  The
    empty word is a legal lead: on non-PBW input 1 can lie in S.

    The standard words, which no rule rewrites, are the lex-least basis
    of the quotient: every element of S has its greatest word among the
    leads.  A word's normal form is its rewriting to standard words, the
    same at every choice of rule.

    Products run on a generator table (Bergman's diamond lemma read a
    letter at a time).  Let e_max be the largest rule excess, 0 for
    homogeneous relations.  On words of length n <= bound - e_max every
    rule applies, and every step rewriting such a word lies in S up to
    degree n + e_max <= bound, so a rewriting of a word u of length
    n - 1 times x_g is a rewriting of u·x_g: the class of a word is the
    class of its prefix times its last letter.  The table entry of a
    standard word s and a generator g is the class of s·x_g: its own
    basis column when s·x_g is standard, and otherwise one ``_rewrite``
    step, to smaller words in deg-lex order, each the class of its prefix
    times its last letter.  Longer words, which only non-PBW U has, may
    rewrite by fewer rules than their prefixes, so the walk stops there.
    A subclass numbers the standard words (``_start_table``): column keys
    ``pos`` and, per length n, the offset ``bases[n]`` of those keys in
    the table, which lists one row of d entries per standard word, words
    shorter first.
    """

    def __init__(self, field: Field, d: int, relations: Matrix, bound: int):
        self.field = field
        self.bound = bound
        self._d = d
        self._p = field.p
        self._rules = {}     # lead -> (excess, ((word, coeff), ...)): lead = sum coeff*word
        self._lengths = []   # lead lengths, ascending
        middles = words_of_length(d, 2) + words_of_length(d, 1) + [()]
        self._complete([{middles[k]: c for k, c in row.items()}
                        for row in relations.transpose().columns])
        self._standard = self._standard_words()
        self.span = SpanSize(degree_offset(d, bound + 1)
                             - sum(len(ws) for ws in self._standard))
        self._walk_top = bound - max((e for e, _ in self._rules.values()), default=0)

    # -- completion --------------------------------------------------------

    def _complete(self, polys):
        """Add rules until every ambiguity of sugar <= bound resolves."""
        tie = count()  # heap order among candidates of one sugar
        heap = [(2, next(tie), p) for p in polys if p] if self.bound >= 2 else []
        while heap:
            sugar, _, poly = heappop(heap)
            red = self._reduce(poly, sugar)
            if not red:
                continue
            lead = max(red, key=lambda w: word_global_index(w, self._d))
            inv = self.field.inv(red.pop(lead))
            p = self._p
            tail = tuple((w, -c * inv % p if p else canon(-c * inv)) for w, c in red.items())
            self._rules[lead] = (sugar - len(lead), tail)
            if len(lead) not in self._lengths:
                self._lengths = sorted(self._lengths + [len(lead)])
            for amb_sugar, s_poly in self._ambiguities(lead):
                heappush(heap, (amb_sugar, next(tie), s_poly))

    def _ambiguities(self, lead):
        """(sugar, S-polynomial) of every overlap and inclusion of ``lead``
        with a rule, itself included, of sugar <= bound."""
        rules = self._rules
        e = rules[lead][0]
        for other, (f, _) in rules.items():
            top = max(e, f)
            pairs = ((lead, other),) if other == lead else ((lead, other), (other, lead))
            for x, y in pairs:
                for k in range(1, min(len(x), len(y))):
                    m = x + y[k:]
                    if x[-k:] == y[:k] and len(m) + top <= self.bound:  # x = a c, y = c b
                        yield len(m) + top, self._s_poly(m, x, 0, y, len(x) - k)
            if len(other) < len(lead):
                big, small = lead, other
            elif len(lead) < len(other):
                big, small = other, lead
            else:
                continue
            if len(big) + top > self.bound:
                continue
            k = len(small)
            for i in range(len(big) - k + 1 if k else 1):
                if big[i:i + k] == small:
                    yield len(big) + top, self._s_poly(big, big, 0, small, i)

    def _s_poly(self, m, x, i, y, j):
        """m rewritten by the rule of x at position i, minus m rewritten by
        the rule of y at position j."""
        p = self._p
        out = {}
        for lead, pos, sign in ((x, i, 1), (y, j, -1)):
            u, v = m[:pos], m[pos + len(lead):]
            for w, c in self._rules[lead][1]:
                w = u + w + v
                out[w] = out.get(w, 0) + sign * c
        return zero_free(out, p)

    # -- rewriting ---------------------------------------------------------

    def _rewrite(self, w, level):
        """One rewriting step of w at ``level``: the (word, coeff) terms w
        equals, or None when no rule of excess <= level - |w| applies."""
        slack = level - len(w)
        rules = self._rules
        for k in self._lengths:
            for i in range(len(w) - k + 1 if k else 1):
                rule = rules.get(w[i:i + k])
                if rule is not None and rule[0] <= slack:
                    u, v = w[:i], w[i + k:]
                    return [(u + x + v, c) for x, c in rule[1]]
        return None

    def _reduce(self, poly, level) -> dict:
        """Normal form at ``level`` of a zero-free {word: coeff} dict, which
        is consumed; words are rewritten greatest first."""
        p, d = self._p, self._d
        heap = [(-word_global_index(w, d), w) for w in poly]
        heapify(heap)
        out = {}
        while heap:
            w = heappop(heap)[1]
            c = poly.pop(w, None)
            if c is None:  # cancelled after it was pushed, or pushed twice
                continue
            step = self._rewrite(w, level)
            if step is None:
                out[w] = c
                continue
            for x, cx in step:
                old = poly.get(x)
                if old is None:
                    poly[x] = c * cx % p if p else canon(c * cx)
                    heappush(heap, (-word_global_index(x, d), x))
                else:
                    new = (old + c * cx) % p if p else canon(old + c * cx)
                    if new:
                        poly[x] = new
                    else:
                        del poly[x]
        return out

    def _standard_words(self):
        """The standard words of each length n <= bound: those no rule of
        excess <= bound - n rewrites.  A word is standard iff it avoids the
        leads of those rules, so its prefixes avoid them too: each distinct
        set of leads is walked once, extending words a letter at a time,
        and every length that bans the same set reads its words off that
        walk (one walk for A and A!, one per excess for U).  With L the
        longest banned lead, the letters a standard word may take next
        depend only on its last L - 1 letters: they are worked out once
        per such suffix, testing the suffixes of each extension."""
        bound, d = self.bound, self._d
        out, banned = [], None
        for n in range(bound + 1):
            now = {lead for lead, (e, _) in self._rules.items() if e <= bound - n}
            if now != banned:
                banned = now
                lengths = sorted({len(lead) for lead in banned if lead})
                keep = lengths[-1] - 1 if lengths else 0
                after = {}  # the last <= keep letters of a word -> its allowed letters
                words, m = ([] if () in banned else [()]), 0
            while m < n:
                m += 1
                longer = []
                for w in words:
                    s = w[-keep:] if keep else ()
                    letters = after.get(s)
                    if letters is None:
                        letters = after[s] = [
                            x for x in range(d)
                            if not any((s + (x,))[-k:] in banned
                                       for k in lengths if k <= len(s) + 1)]
                    longer += [w + (x,) for x in letters]
                words = longer
            out.append(words)
        return out

    # -- the generator table ----------------------------------------------

    def _start_table(self, pos, bases):
        """Number the standard words: ``pos`` maps each to its column key,
        ``bases[n]`` is the table offset of the keys of length n.  The
        empty word's class is the unit, or 0 (its heap class) when 1 lies
        in S."""
        self._pos = pos
        self._bases = bases
        self._table = []   # one row per standard word: row[g] is the column of s·x_g
        self._levels = 0   # lengths whose rows are built
        self._proj = {(): {pos[()]: 1} if () in pos else {}}  # every walked word

    def _build_level(self):
        """Append the rows of the standard words of the next length m, each
        entry filled in increasing deg-lex order of s·x_g.  A standard
        s·x_g is its own basis column; otherwise one rewriting step gives
        smaller words, each the class of its prefix (walked on the rows of
        lengths < m) times its last letter.  That prefix's class lies on
        standard words no greater than the prefix, so the rows it reads
        are filled already."""
        m, d, pos, p, bound = self._levels, self._d, self._pos, self._p, self.bound
        table, bases = self._table, self._bases
        for s in self._standard[m]:
            row = [None] * d
            table.append(row)
            for g in range(d):
                w = s + (g,)
                k = pos.get(w)
                if k is not None:
                    row[g] = {k: 1}
                    continue
                acc = {}
                for x, c in self._rewrite(w, bound):
                    if not x:
                        axpy(acc, c, self._proj[()])
                        continue
                    base, last = bases[len(x) - 1], x[-1]
                    for j, a in self._walk(x[:-1]).items():
                        axpy(acc, c * a, table[base + j][last])
                row[g] = zero_free(acc, p)
        self._levels = m + 1

    def _build_through(self, n):
        """Build the rows of every length < n not built yet, lowest first."""
        while self._levels < n:
            self._build_level()

    def _times(self, col, k, g):
        """col·x_g, for the column of a word of length k < bound - e_max:
        one table entry per term, read from the rows of lengths <= k, which
        the caller has built."""
        table, base = self._table, self._bases[k]
        if len(col) == 1 and 1 in col.values():  # a basis word: read the entry
            (i,) = col
            return table[base + i][g]
        acc = {}
        for i, c in col.items():
            axpy(acc, c, table[base + i][g])
        return zero_free(acc, self._p)

    def _walk(self, word):
        """The class of a word of length <= bound - e_max, as a sparse
        column {basis key: raw value}, zeros left out: the class of its
        longest walked prefix, times one letter at a time.  Every prefix
        is kept; the dict is shared by later calls, so callers read it and
        never change it.  A word past the bound raises
        ``DegreeOverflowError``."""
        proj = self._proj
        col = proj.get(word)
        if col is not None:
            return col
        n = len(word)
        if n > self.bound:
            raise DegreeOverflowError(f"degree {n} beyond bound {self.bound}")
        if self._levels < n:
            self._build_through(n)
        start = n - 1
        while word[:start] not in proj:
            start -= 1
        col = proj[word[:start]]
        for k in range(start, n):
            col = proj[word[:k + 1]] = self._times(col, k, word[k])
        return col


class GradedAlgebraTruncation(WordQuotient):
    """Graded pieces A_n (n <= bound) with sections and multiplication.

    ``basis_words[n]`` lists the chosen monomials of A_n: basis vector i is
    the class of ``basis_words[n][i]``.  An element of A_n is a sparse
    column {basis index: raw value}, zeros left out, values canonical: over
    Q an int when integral and a ``Fraction`` otherwise, over F_p an int in
    [0, p).  ``project_word`` gives a word's column, ``mult_columns`` is
    the product table and ``multiply`` takes and returns columns.

    Up to the bound the truncated span is the ideal (R) degree by degree:
    every rule has excess 0, so every word walks the generator table
    (``WordQuotient``), whose rows for A_m hold e_i x_g in A_{m+1}, and
    ``project_word`` takes one table step per letter past the longest
    prefix it has walked.
    """

    def __init__(self, pres: QuadraticPresentation, bound: int):
        if bound < 0:
            raise InputError("bound must be >= 0")
        super().__init__(pres.field, pres.dim, pres.relations, bound)
        self.pres = pres
        self.basis_words = dict(enumerate(self._standard))
        self.dims = tuple(len(ws) for ws in self.basis_words.values())
        bases = [0]
        for n in self.dims[:-1]:
            bases.append(bases[-1] + n)
        self._start_table({w: i for ws in self.basis_words.values()
                           for i, w in enumerate(ws)}, bases)
        self._mult_cols = {}

    # -- queries ---------------------------------------------------------

    def dim_at(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.bound:
            raise DegreeOverflowError(f"degree {n} beyond bound {self.bound}")
        return len(self.basis_words[n])

    # The class of a word in its degree component, as the sparse column
    # {basis index: raw value}: every word of A walks, so this is the walk
    # itself, with no call around it.  The dict is shared by later calls
    # and by ``mult_columns``: callers read it, never change it.
    project_word = WordQuotient._walk

    def basis_weight(self, n: int, i: int):
        if self.pres.weights is None:
            return None
        return word_weight(self.basis_words[n][i], self.pres.weights)

    def mult_columns(self, i: int, j: int):
        """The product table A_i ⊗ A_j -> A_{i+j}, as sparse columns: the
        product of basis elements a of A_i and b of A_j is the
        ``project_word`` column of the concatenated word, at position
        a * dim A_j + b.  A_1's basis is the generators in order, so x_g e_t
        is column g * dim A_j + t of ``mult_columns(1, j)`` and e_t x_g is
        column t * dim A_1 + g of ``mult_columns(j, 1)``, read off the
        generator table's rows of A_j.  Cached."""
        key = (i, j)
        cached = self._mult_cols.get(key)
        if cached is not None:
            return cached
        if i + j > self.bound:
            raise DegreeOverflowError(f"product degree {i + j} beyond bound {self.bound}")
        if j == 1:
            self._build_through(i + 1)
            base = self._bases[i]
            cols = [col for row in self._table[base:base + self.dims[i]] for col in row]
        else:
            cols = [self.project_word(u + v) for u in self.basis_words[i]
                    for v in self.basis_words[j]]
        self._mult_cols[key] = cols
        return cols

    def multiply(self, i: int, a, j: int, b):
        """Product of homogeneous elements a of A_i and b of A_j, given and
        returned as sparse columns; sums run on raw values."""
        cols = self.mult_columns(i, j)
        nb = self.dim_at(j)
        out = {}
        for s, x in a.items():
            for t, y in b.items():
                axpy(out, x * y, cols[s * nb + t])
        return zero_free(out, self.field.p)


def truncate_algebra(p: QuadraticPresentation, bound: int) -> GradedAlgebraTruncation:
    return GradedAlgebraTruncation(p, bound)
