"""Finite complexes of U-modules, cdg-modules over (A!, d, c), chain maps,
cones, homotopies, and windowed homology.

There is one complex type, ``BaseComplex``: window, per-degree
dimensions, differentials, optional weights and the generator actions
``{p: [Matrix per generator]}``.  The kinds differ in one fact, the
degree of the action: none for a plain complex, 0 for a complex of
U-modules (generators of U), 1 for a cdg-module (dual generators of A!).
Shift, cone, words of the action and brutal truncation read that fact
and are written once; each kind keeps only its axioms (``validate``),
the algebra that acts, and ``rebuild``.  A U-module is a U-complex in
degree 0 (``UComplex.module``, ``UComplex.trivial``), and a complex of
U-modules is assembled from such complexes (``UComplex.of_modules``).

Every certificate (the relations of P or of R-perp, the anti-derivation
and curvature laws, d^2, the U-linearity of d, a chain map commuting
with d and the actions) decides a sum of c * L * R = 0 one column at a
time (``_vanishes``): one sparse sum per column, tested with
``is_nonzero``, with no product or sum stored as a Matrix.  Shapes are
read as the matrix products, sums and comparisons read them, so a
malformed input fails as it would there.  The linear systems whose
unknowns are the entries of maps (the homotopy search, the module-linear
maps of the adjunction) are written by one builder, ``map_equations``.

A weighted complex is also read as the sum of its (degree, weight)
blocks, the bigraded view: per-weight homology, the regrading of
``suite.regrade`` and the position null test of ``cofree`` all read one
split, ``weight_split``.  Its rule is that d keeps weight; an entry of d
that joins two weights is refused, not dropped.
"""

from __future__ import annotations

from .deformations import CdgAlgebra, DeformationData
from .errors import CurvedInputError, InconsistentDataError, InputError
from .linalg import (
    RHS,
    DimensionError,
    Matrix,
    axpy,
    is_nonzero,
    kernel_basis,
    rank,
    solve_matrix,
    solve_sparse,
    zero_free,
)
from .scalars import Field


def _shape(term) -> tuple:
    """(rows, cols) of a term (c, L, R) of ``_vanishes``."""
    _, left, right = term
    return left.rows, (left if right is None else right).cols


def _vanishes(field: Field, terms, lead=None, shape=None) -> bool:
    """Whether ``lead`` plus the sum of c * L * R over ``terms`` (c, L, R;
    R None reads c * L) is zero: each column is one sparse sum, tested on
    its own, and no product is stored.  Shapes are read as Matrix.mul, add
    and eq read them: factors that cannot multiply raise DimensionError,
    and so does a term of the sum whose shape is not ``shape`` (by default
    that of the first term); ``lead``, the other side of an equation, of
    another shape makes the sum nonzero."""
    every = terms if lead is None else [lead, *terms]
    for _, left, right in every:
        if right is not None and left.cols != right.rows:
            raise DimensionError(f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}")
    shape = shape or _shape(terms[0])
    if any(_shape(t) != shape for t in terms):
        raise DimensionError("shape mismatch in add")
    if lead is not None and _shape(lead) != shape:
        return False
    p = field.p
    for j in range(shape[1]):
        acc = {}
        for c, left, right in every:
            if right is None:
                axpy(acc, c, left.columns[j])
            else:
                lcols = left.columns
                for k, v in right.columns[j].items():
                    axpy(acc, c * v, lcols[k])
        if is_nonzero(acc, p):
            return False
    return True


# -- complexes -------------------------------------------------------------


class BaseComplex:
    """The one complex type: window, dimensions, differentials, optional
    weights and generator actions.

    ``action_degree`` is the one fact that tells the kinds apart: None for
    a plain complex (no actions), 0 for a complex of U-modules, 1 for a
    cdg-module over (A!, d, c).  ``actions[p]`` holds one Matrix
    C^p -> C^{p + action_degree} per generator.
    """

    action_degree = None

    def __init__(self, field: Field, window, dims: dict, diffs: dict, weights=None,
                 actions=None, n_gens=0):
        self.field = field
        self.window = (int(window[0]), int(window[1]))
        self.dims = {p: int(n) for p, n in dims.items() if n}
        self.diffs = {p: d for p, d in diffs.items() if d.rows and d.cols}
        self.weights = weights  # {p: [weight per basis vector]} or None
        self.actions = actions or {}  # {p: [Matrix per generator]}
        self.n_gens = n_gens

    def rebuild(self, window, dims, actions, diffs, weights) -> "BaseComplex":
        """A complex of this kind on new data (a plain one here)."""
        return BaseComplex(self.field, window, dims, diffs, weights)

    def dim(self, p: int) -> int:
        return self.dims.get(p, 0)

    def diff(self, p: int) -> Matrix:
        d = self.diffs.get(p)
        if d is None:
            return Matrix.zero(self.field, self.dim(p + 1), self.dim(p))
        return d

    def degrees(self):
        lo, hi = self.window
        return range(lo, hi + 1)

    def check_d_squared(self):
        for p in self.degrees():
            if self.dim(p) and self.dim(p + 2) and not _vanishes(
                    self.field, [(1, self.diff(p + 1), self.diff(p))]):
                return f"d^2 != 0 at degree {p}"
        return None

    def weight_of(self, p: int, i: int):
        if self.weights is None:
            return None
        return self.weights.get(p, [None] * self.dim(p))[i]

    def num_generators(self) -> int:
        return self.n_gens

    def action(self, p: int, g: int) -> Matrix:
        acts = self.actions.get(p)
        if acts is None:
            return Matrix.zero(self.field, self.dim(p + self.action_degree), self.dim(p))
        return acts[g]

    def act_word(self, p: int, word: tuple) -> Matrix:
        """Action of a monomial word on C^p (applied right to left): the
        action of its last letter, then one product per letter before it;
        the empty word is the identity."""
        if not word:
            return Matrix.identity(self.field, self.dim(p))
        m = self.action(p, word[-1])
        for g in reversed(word[:-1]):
            p += self.action_degree
            m = self.action(p, g).mul(m)
        return m

    def shift(self) -> "BaseComplex":
        """[1]: degree p is old p + 1 and the differential is negated; so
        is the action when its degree is odd (the odd generators flip)."""
        lo, hi = self.window
        acts = {p - 1: [a.neg() for a in a_p] if self.action_degree % 2 else a_p
                for p, a_p in self.actions.items()}
        return self.rebuild((lo - 1, hi - 1), {p - 1: n for p, n in self.dims.items()},
                            acts, {p - 1: d.neg() for p, d in self.diffs.items()},
                            None if self.weights is None
                            else {p - 1: w for p, w in self.weights.items()})


class UComplex(BaseComplex):
    """Complex of finite-dimensional left U-modules with U-linear
    differentials; a U-module is the complex in degree 0 (``module``).

    It takes the data of a ``CdgModule``: ``actions[p]`` holds one action
    matrix of C^p per generator of U, and a malformed action is refused
    when the complex is made.
    """

    action_degree = 0

    def __init__(self, data: DeformationData, window, dims: dict, actions: dict,
                 diffs: dict, weights=None):
        self.data = data
        for p in {*actions, *(p for p, n in dims.items() if n)}:
            n, acts = dims.get(p, 0), actions.get(p, ())
            if len(acts) != data.base.dim:
                raise InputError("one action matrix per generator required")
            if any(x.rows != n or x.cols != n for x in acts):
                raise InputError("action matrices must be dim x dim")
        # a complex of no modules carries no weights, as in ``of_modules``
        super().__init__(data.field, window, dims, diffs, weights or None, actions,
                         data.base.dim)

    @staticmethod
    def module(data: DeformationData, dim: int, actions, weights=None) -> "UComplex":
        """The U-module of dimension ``dim``, one action matrix per
        generator, as the complex in degree 0."""
        return UComplex(data, (0, 0), {0: dim}, {0: list(actions)}, {},
                        None if weights is None else {0: list(weights)})

    @staticmethod
    def trivial(data: DeformationData) -> "UComplex":
        """k, on which every generator acts by 0; weight 0 over weighted
        generators."""
        if not data.beta.is_zero():
            raise InputError("trivial module requires beta = 0")
        z = Matrix.zero(data.field, 1, 1)
        return UComplex.module(data, 1, [z] * data.base.dim,
                               [0] if data.base.weights is not None else None)

    @staticmethod
    def of_modules(data: DeformationData, window, modules: dict, diffs: dict) -> "UComplex":
        """The complex with the module ``modules[p]`` (a U-complex in degree
        0) in degree p and the differentials ``diffs``."""
        modules = {p: m for p, m in modules.items() if m.dim(0)}
        weighted = [m.weights is not None for m in modules.values()]
        if any(weighted) and not all(weighted):
            raise InputError("either every module of a complex carries weights or none does")
        return UComplex(data, window, {p: m.dim(0) for p, m in modules.items()},
                        {p: m.actions[0] for p, m in modules.items()}, diffs,
                        {p: m.weights[0] for p, m in modules.items()} if any(weighted) else None)

    def rebuild(self, window, dims, actions, diffs, weights) -> "UComplex":
        return UComplex(self.data, window, dims, actions, diffs, weights)

    def module_axioms(self, p: int):
        """First failure of C^p as a U-module, or None: a relation of P that
        does not annihilate it, or, with weights, a generator's action that
        does not add the generator's weight."""
        d = self.data.base.dim
        n = self.dim(p)
        acts = self.actions[p]
        one = Matrix.identity(self.field, n)
        # row i of the graph rows: r_i over V⊗V, then alpha(r_i), then beta(r_i)
        for i, row in enumerate(self.data.graph_rows().transpose().columns):
            terms = [(c, acts[k // d], acts[k % d]) if k < d * d
                     else (c, acts[k - d * d] if k < d * d + d else one, None)
                     for k, c in row.items()]
            if not _vanishes(self.field, terms, shape=(n, n)):
                return f"relation {i} of P does not annihilate the module"
        ws = None if self.weights is None else self.weights.get(p)
        if ws is not None:
            wts = self.data.base.weights or [1] * d
            for g in range(d):
                for c, col in enumerate(acts[g].columns):
                    if any(ws[r] != ws[c] + wts[g] for r in col):
                        return f"action of generator {g} is not weight-homogeneous"
        return None

    def validate(self):
        for p in self.dims:
            msg = self.module_axioms(p)
            if msg:
                return f"degree {p}: {msg}"
        msg = self.check_d_squared()
        if msg:
            return msg
        for p in self.degrees():
            if self.dim(p) and self.dim(p + 1):
                d = self.diff(p)
                for g in range(self.num_generators()):
                    if not _vanishes(self.field, [(-1, self.action(p + 1, g), d)],
                                     lead=(1, d, self.action(p, g))):
                        return f"differential not U-linear at degree {p}, generator {g}"
        return None


class CdgModule(BaseComplex):
    """Graded A!-module with degree-1 anti-derivation and curvature law."""

    action_degree = 1

    def __init__(self, cdga: CdgAlgebra, window, dims: dict, actions: dict,
                 diffs: dict, weights=None):
        self.cdga = cdga
        super().__init__(cdga.field, window, dims, diffs, weights, actions,
                         cdga.dual.pres.dim)

    def rebuild(self, window, dims, actions, diffs, weights) -> "CdgModule":
        return CdgModule(self.cdga, window, dims, actions, diffs, weights)

    def element_terms(self, p: int, degree: int, col) -> list:
        """The action of an A!_degree element, a sparse column {basis index:
        raw value}, on N^p, as terms (c, word action, None) of
        ``_vanishes``."""
        words = self.cdga.dual.basis_words[degree]
        return [(c, self.act_word(p, words[i]), None) for i, c in col.items()]

    def check_d_squared(self):
        """The curvature law d^2 = c.(-); it reads d^2 = 0 when c = 0."""
        curv = {s: c for s, c in enumerate(self.cdga.curvature) if c}
        for p in self.degrees():
            if self.dim(p) and self.dim(p + 2):
                if not _vanishes(self.field, self.element_terms(p, 2, curv),
                                 lead=(-1, self.diff(p + 1), self.diff(p)),
                                 shape=(self.dim(p + 2), self.dim(p))):
                    return f"curvature law d^2 = c.(-) fails at degree {p}"
        return None

    def validate(self):
        f = self.field
        dual = self.cdga.dual
        d = dual.pres.dim
        rel_rows = dual.pres.relations.transpose().columns
        # relations of R-perp annihilate (composition in increasing degree);
        # a pair (a, b) is summed as x_a* x_b*, column by column, not stored
        for p in self.degrees():
            if not self.dim(p) or not self.dim(p + 2):
                continue
            acts = [self.action(p, g) for g in range(d)]
            acts_next = [self.action(p + 1, g) for g in range(d)]
            shape = (self.dim(p + 2), self.dim(p))
            for i, row in enumerate(rel_rows):
                if not _vanishes(f, [(c, acts_next[ab // d], acts[ab % d])
                                     for ab, c in row.items()], shape=shape):
                    return f"R-perp relation {i} acts nonzero at degree {p}"
        # module anti-derivation: d(x*n) = d_{A!}(x*) n - x* d(n)
        d1 = self.cdga.d(1).columns
        for p in self.degrees():
            if not self.dim(p):
                continue
            before, after = self.diff(p), self.diff(p + 1)
            shape = (self.dim(p + 2), self.dim(p))
            for g in range(d):
                terms = self.element_terms(p, 2, d1[g])
                terms.append((-1, self.action(p + 1, g), before))
                if not _vanishes(f, terms, lead=(-1, after, self.action(p, g)),
                                 shape=shape):
                    return f"anti-derivation law fails at degree {p}, generator {g}"
        msg = self.check_d_squared()
        if msg:
            return msg
        if self.weights is not None:
            wts = self.cdga.dual.pres.weights or [1] * d
            for p in self.degrees():
                for g in range(d):
                    for c, col in enumerate(self.action(p, g).columns):
                        if any(self.weight_of(p + 1, r) != self.weight_of(p, c) + wts[g]
                               for r in col):
                            return f"action not weight-homogeneous at degree {p}"
        return None

    def socle_complex(self):
        """Hom_{A!}(k, -): per-degree socle bases and the socle complex.

        Returns ({p: basis Matrix (columns)}, BaseComplex) on this window:
        the induced differential, and with weights, each socle vector
        weighted by its first coordinate.
        """
        f = self.field
        bases = {}
        for p in self.degrees():
            n = self.dim(p)
            if not n:
                continue
            stacked = None
            for g in range(self.num_generators()):
                a = self.action(p, g)
                stacked = a if stacked is None else stacked.vstack(a)
            if stacked is None or stacked.rows == 0:
                bases[p] = Matrix.identity(f, n)
            else:
                bases[p] = kernel_basis(stacked)
        diffs = {}
        for p, b in bases.items():
            if bases.get(p + 1) is None or b.cols == 0:
                continue
            img = self.diff(p).mul(b)
            expr = solve_matrix(bases[p + 1], img)
            if expr is None:
                raise InconsistentDataError("socle is not preserved by d")
            diffs[p] = expr
        weights = None
        if self.weights is not None:
            weights = {p: [self.weight_of(p, min(col)) for col in b.columns]
                       for p, b in bases.items() if b.cols}
        dims = {p: b.cols for p, b in bases.items()}
        return bases, BaseComplex(f, self.window, dims, diffs, weights)


# -- chain maps, cones, homotopies ----------------------------------------


class ChainMap:
    """Degree-0 morphism: commutes with differentials and module actions."""

    def __init__(self, source, target, maps: dict):
        if source.field != target.field:
            raise InconsistentDataError("field mismatch")
        self.source = source
        self.target = target
        self.maps = {p: m for p, m in maps.items()}
        self.field = source.field

    def map_at(self, p: int) -> Matrix:
        m = self.maps.get(p)
        if m is None:
            return Matrix.zero(self.field, self.target.dim(p), self.source.dim(p))
        return m

    def validate(self, check_actions=True):
        src, tgt = self.source, self.target
        lo = min(src.window[0], tgt.window[0])
        hi = max(src.window[1], tgt.window[1])
        for p in range(lo, hi + 1):
            if not _vanishes(self.field, [(-1, self.map_at(p + 1), src.diff(p))],
                             lead=(1, tgt.diff(p), self.map_at(p))):
                return f"does not commute with d at degree {p}"
        if check_actions:
            shift = src.action_degree
            for p in range(lo, hi + 1):
                for g in range(src.num_generators()):
                    if not _vanishes(self.field, [(-1, tgt.action(p, g), self.map_at(p))],
                                     lead=(1, self.map_at(p + shift), src.action(p, g))):
                        return f"does not commute with action at degree {p}"
        return None

    @staticmethod
    def identity(x) -> "ChainMap":
        return ChainMap(x, x, {p: Matrix.identity(x.field, x.dim(p)) for p in x.dims})

    @staticmethod
    def zero(source, target) -> "ChainMap":
        return ChainMap(source, target, {})

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self after first."""
        maps = {}
        for p in set(self.maps) | set(first.maps):
            maps[p] = self.map_at(p).mul(first.map_at(p))
        return ChainMap(first.source, self.target, maps)


def _block(f: Field, blocks, heights, widths):
    """Assemble a block matrix; None blocks are zero."""
    columns = []
    for j, w in enumerate(widths):
        cols = [{} for _ in range(w)]
        top = 0
        for i, h in enumerate(heights):
            b = blocks[i][j]
            if b is not None and b.rows and b.cols:
                for col, bcol in zip(cols, b.columns):
                    for r, v in bcol.items():
                        col[top + r] = v
            top += h
        columns.extend(cols)
    return Matrix(f, sum(heights), columns)


def cone(fmap: ChainMap):
    """C(f)^p = source^{p+1} ⊕ target^p, d(m, n) = (-d m, f m + d n).

    The actions are block diagonal and the weights concatenated.  A map
    between two kinds of complex has a plain cone.
    """
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
        diffs[p] = _block(
            f,
            [[ssh.diff(p), None],                 # shift already negates d
             [fmap.map_at(p + 1), tgt.diff(p)]],
            heights=[ssh.dim(p + 1), tgt.dim(p + 1)],
            widths=[ssh.dim(p), tgt.dim(p)])

    kind = tgt if src.action_degree == tgt.action_degree else BaseComplex(f, (lo, hi), {}, {})
    actions = {p: [_block(f, [[ssh.action(p, g), None], [None, tgt.action(p, g)]],
                          heights=[ssh.dim(p + kind.action_degree),
                                   tgt.dim(p + kind.action_degree)],
                          widths=[ssh.dim(p), tgt.dim(p)])
                   for g in range(kind.num_generators())]
               for p in dims}
    weights = None
    if ssh.weights is not None and tgt.weights is not None:
        weights = {p: list(ssh.weights.get(p) or []) + list(tgt.weights.get(p) or [])
                   for p in dims}
    return kind.rebuild((lo, hi), dims, actions, diffs, weights)


# -- homology ---------------------------------------------------------------


def weight_split(x: BaseComplex):
    """The (degree, weight) blocks of a weighted complex: ({(p, w): dim},
    {(p, w): the block of d_p from (p, w) to (p + 1, w)}), degrees in the
    order of ``x.dims`` and weights ascending; a block is there whenever
    both its ends are, zero or not.  d must keep weight: an entry of d that
    joins two weights raises InconsistentDataError."""
    dims, local = {}, {}  # local[p][i]: index of basis vector i in its block
    for p in x.dims:
        ws = x.weights.get(p) or []
        for w in sorted(set(ws)):
            dims[(p, w)] = 0
        local[p] = []
        for w in ws:
            local[p].append(dims[(p, w)])
            dims[(p, w)] += 1
    blocks = {}
    for p in x.dims:
        if p + 1 not in local:
            continue
        ws, up = x.weights.get(p) or [], x.weights.get(p + 1) or []
        cols = {w: [] for w in sorted(set(ws)) if (p + 1, w) in dims}
        d = x.diffs.get(p)
        for j, w in enumerate(ws):
            col = {} if d is None else d.columns[j]
            for i in col:
                if up[i] != w:
                    raise InconsistentDataError(
                        f"d does not keep weight at degree {p}: an entry joins "
                        f"weight {w} to weight {up[i]}")
            if w in cols:
                cols[w].append({local[p + 1][i]: v for i, v in col.items()})
        for w, c in cols.items():
            blocks[(p, w)] = Matrix(x.field, dims[(p + 1, w)], c)
    return dims, blocks


def homology_dims(x: BaseComplex, window=None, per_weight=False):
    """Exact homology dimensions per degree (optionally per weight).

    Returns ({p: dim} or {(p, w): dim}, edge_degrees).  Degrees touching
    the window boundary are reported but flagged edge-unreliable.  Per
    weight, a weighted complex is read in the blocks of ``weight_split``;
    an unweighted one is one block per degree, of weight None, reported
    where it is nonzero.  Each rank of a block of d_p is computed once per
    call: it is read as the outgoing map at p and as the incoming map at
    p + 1.
    """
    lo, hi = window if window is not None else x.window
    if isinstance(x, CdgModule) and not x.cdga.curvature_is_zero:
        raise CurvedInputError("homology needs curvature c = 0")
    if per_weight and x.weights is not None:
        dims, blocks = weight_split(x)
    else:
        dims = {(p, None): n for p, n in x.dims.items()}
        blocks = {(p, None): d for p, d in x.diffs.items()}
    ranks = {}

    def rank_of(key):
        got = ranks.get(key)
        if got is None:
            d = blocks.get(key)
            got = ranks[key] = 0 if d is None else rank(d)
        return got

    out = {(p, w): n - rank_of((p, w)) - rank_of((p - 1, w))
           for (p, w), n in sorted(dims.items()) if lo <= p <= hi}
    if not per_weight:
        out = {p: out.get((p, None), 0) for p in range(lo, hi + 1)}
    return out, {p for p in (lo, hi) if lo <= hi}


# -- linear systems in module maps ------------------------------------------


def map_equations(field: Field, terms, var, rows: int, cols: int, rhs=None) -> list:
    """The sparse equations {variable: coeff, RHS: b}, one per entry (i, j)
    of a rows x cols matrix, of sum c * L * s^q + sum c * s^q * R = rhs (0
    when ``rhs`` is None) in the entries of unknown maps s^q.

    A term (c, L, q, None) reads c * L * s^q and (c, None, q, R) reads
    c * s^q * R; ``var(q, i, j)`` is the variable of entry (i, j) of s^q,
    None where that entry is fixed at zero.  L and R are read column by
    column: column k of L puts L[i, k] s^q[k, j] into equation (i, j) for
    every j, and column j of R puts s^q[i, k] R[k, j] into it for every i.
    An entry that reads 0 = 0 gives no equation; one that reads 0 = b, b
    nonzero, is kept.
    """
    eqs = [[{} for _ in range(cols)] for _ in range(rows)]
    for c, left, q, right in terms:
        if right is None:
            for k, lcol in enumerate(left.columns):
                for j in range(cols if lcol else 0):
                    x = var(q, k, j)
                    if x is not None:
                        for i, v in lcol.items():
                            eq = eqs[i][j]
                            eq[x] = eq.get(x, 0) + c * v
        else:
            for j, rcol in enumerate(right.columns):
                for k, v in rcol.items():
                    for i in range(rows):
                        x = var(q, i, k)
                        if x is not None:
                            eq = eqs[i][j]
                            eq[x] = eq.get(x, 0) + c * v
    p = field.p
    out = []
    for i, row in enumerate(eqs):
        for j, eq in enumerate(row):
            eq = zero_free(eq, p)
            b = None if rhs is None else rhs.columns[j].get(i)
            if b:
                eq[RHS] = b
            if eq:
                out.append(eq)
    return out


def nullhomotopy(fmap: ChainMap, gmap: ChainMap):
    """Exact linear search for a module-linear homotopy s, s^p: source^p ->
    target^{p-1}, with f^p - g^p = (-1)^p d s^p + (-1)^{p+1} s^{p+1} d.
    Returns {p: s^p} or None."""
    if fmap.source is not gmap.source or fmap.target is not gmap.target:
        if (fmap.source.dims != gmap.source.dims
                or fmap.target.dims != gmap.target.dims):
            raise InconsistentDataError("nullhomotopy needs parallel maps")
    src, tgt = fmap.source, fmap.target
    f = fmap.field
    lo = min(src.window[0], tgt.window[0])
    hi = max(src.window[1], tgt.window[1]) + 1
    entries = [(p, i, j) for p in range(lo, hi + 1)
               for i in range(tgt.dim(p - 1)) for j in range(src.dim(p))]
    varmap = {entry: v for v, entry in enumerate(entries)}

    def var(q, i, j):
        return varmap.get((q, i, j))

    eqs = []
    for p in range(lo - 1, hi + 1):
        sgn = 1 if p % 2 == 0 else -1
        eqs += map_equations(f, [(sgn, tgt.diff(p - 1), p, None), (-sgn, None, p + 1, src.diff(p))],
                             var, tgt.dim(p), src.dim(p), fmap.map_at(p).sub(gmap.map_at(p)))
    # module linearity: s a = a s
    shift = src.action_degree
    for p in range(lo - 1, hi + 1):
        for g in range(src.num_generators()):
            eqs += map_equations(f, [(1, None, p + shift, src.action(p, g)),
                                     (-1, tgt.action(p - 1, g), p, None)],
                                 var, tgt.dim(p - 1 + shift), src.dim(p))
    sol = solve_sparse(f, eqs, len(varmap))
    if sol is None:
        return None
    return {p: Matrix(f, tgt.dim(p - 1),
                      [zero_free({i: sol[varmap[(p, i, j)]] for i in range(tgt.dim(p - 1))}, f.p)
                       for j in range(src.dim(p))])
            for p in range(lo, hi + 1) if src.dim(p) and tgt.dim(p - 1)}


def homotopy_identity_holds(fmap: ChainMap, gmap: ChainMap, h: dict) -> bool:
    """Whether h = {p: s^p} has f - g - (-1)^p d s^p + (-1)^p s^{p+1} d = 0
    at every degree of the window."""
    src, tgt = fmap.source, fmap.target
    lo = min(src.window[0], tgt.window[0])
    hi = max(src.window[1], tgt.window[1])
    for p in range(lo, hi + 1):
        sgn = 1 if p % 2 == 0 else -1
        terms = [(-1, gmap.map_at(p), None)]
        if p in h:
            terms.append((-sgn, tgt.diff(p - 1), h[p]))
        if p + 1 in h:
            terms.append((sgn, h[p + 1], src.diff(p)))
        if not _vanishes(fmap.field, terms, lead=(1, fmap.map_at(p), None),
                         shape=(tgt.dim(p), src.dim(p))):
            return False
    return True
