"""Exact linear algebra on one elimination core, ``EchelonSpan``.

All operations are exact; there is no tolerance anywhere.  A vector is a
sparse column {index: raw value}, zeros left out: the one element format
of A, A! and U.  ``Matrix`` stores its columns in that format, so every
op (products, sums, stacking, Kronecker products) visits nonzeros only,
and code that makes a matrix writes it one column at a time.  Raw
values are the canonical ones of ``scalars``: over Q an ``int`` when
integral and a ``Fraction`` only with a denominator > 1, over F_p an
``int`` in [0, p).  A zero is falsy, and sums of products are reduced
once per output entry (``% p``, or ``canon`` over Q), with no ``Field``
call per entry.  ``axpy`` adds a multiple of one column to an
accumulator of unreduced sums, which may hold any int or Fraction, and
``zero_free`` reduces the sums and drops the zeros.  Every op that
stores a value (``zero_free``, ``kron``, ``scale``, the row
normalization and reductions of ``EchelonSpan``) stores it canonical, so
the integral values of most inputs stay on int arithmetic.  Dense rows
are made only by ``to_rows()``, for printing and the test oracles.

``EchelonSpan`` keeps sparse dict rows in echelon form, each row led by
its largest coordinate, which is enough for a unique normal form modulo
the span.  ``interreduce()`` turns the rows into the reduced basis for
callers that read ``rows``.  Its inner loops work on the same raw values,
not through ``Field`` methods.

Everything else runs on that core: ``rref`` keys column j of a matrix as
``cols - 1 - j`` so that each lead is the leftmost nonzero column, which
makes the interreduced rows the unique RREF; ``rank`` inserts the columns
(rank M = rank M^T); ``kernel_basis``, ``row_space``, ``solve`` and
``solve_matrix`` read the RREF; ``solve_sparse`` and ``sparse_rank`` feed
it sparse rows directly, and callers extend bases greedily with
``EchelonSpan.insert``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .scalars import Field, canon


class DimensionError(ValueError):
    pass


class Matrix:
    """Matrix over an exact field: ``columns[j]`` is column j as a zero-free
    {row: raw value} dict.  Treated as immutable once built: matrices may
    share column dicts, so no code changes one in place."""

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field: Field, rows: int, columns):
        self.field = field
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field, rows, cols):
        return Matrix(field, rows, [{} for _ in range(cols)])

    @staticmethod
    def identity(field, n):
        one = field.one()
        return Matrix(field, n, [{j: one} for j in range(n)])

    @staticmethod
    def from_rows(field, rows, cols=0):
        """The matrix with the given dense rows of field elements; ``cols``
        is the width when there are no rows."""
        columns = [{} for _ in range(len(rows[0]) if rows else cols)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    columns[j][i] = v
        return Matrix(field, len(rows), columns)

    @staticmethod
    def from_int_rows(field, int_rows):
        return Matrix.from_rows(field, [[field.of_int(x) for x in r] for r in int_rows])

    # -- reads -------------------------------------------------------------

    def entry(self, i, j):
        return self.columns[j].get(i, self.field.zero())

    def to_rows(self):
        """Dense rows, zeros filled with ``field.zero()``: for printing and
        the test oracles."""
        zero = self.field.zero()
        out = [[zero] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def submatrix(self, row_sel, col_sel):
        """The rows ``row_sel`` (distinct indices) and the columns ``col_sel``,
        in the order given."""
        pos = {i: k for k, i in enumerate(row_sel)}
        return Matrix(self.field, len(row_sel),
                      [{pos[i]: v for i, v in self.columns[j].items() if i in pos}
                       for j in col_sel])

    # -- ops (on raw values; see the module docstring) ----------------------

    def transpose(self):
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return Matrix(self.field, self.cols, out)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in add")
        return self._combine(other, 1)

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in sub")
        return self._combine(other, -1)

    def _combine(self, other, sign):
        p = self.field.p
        columns = []
        for a, b in zip(self.columns, other.columns):
            acc = dict(a)
            axpy(acc, sign, b)
            columns.append(zero_free(acc, p))
        return Matrix(self.field, self.rows, columns)

    def scale(self, c):
        f = self.field
        p = f.p
        if p:
            c %= p
        if not c:
            return Matrix.zero(f, self.rows, self.cols)
        if p:
            columns = [{i: c * v % p for i, v in col.items()} for col in self.columns]
        else:
            columns = [{i: canon(c * v) for i, v in col.items()} for col in self.columns]
        return Matrix(f, self.rows, columns)

    def neg(self):
        p = self.field.p
        if p:
            columns = [{i: p - v for i, v in col.items()} for col in self.columns]
        else:
            columns = [{i: -v for i, v in col.items()} for col in self.columns]
        return Matrix(self.field, self.rows, columns)

    def mul(self, other):
        """Column j of self * other is the sum over k of other[k, j] times
        column k of self."""
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p, cols = self.field.p, self.columns
        out = []
        for bcol in other.columns:
            acc = {}
            for k, b in bcol.items():
                axpy(acc, b, cols[k])
            out.append(zero_free(acc, p))
        return Matrix(self.field, self.rows, out)

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column {index: raw value}, as a zero-free
        sparse column."""
        if any(j >= self.cols for j in vec):
            raise DimensionError("vector length mismatch")
        return self.mul(Matrix(self.field, self.cols, [vec])).columns[0]

    def kron(self, other):
        """Kronecker product, row-major pair indexing."""
        p, orows = self.field.p, other.rows
        columns = []
        for a in self.columns:
            for b in other.columns:
                col = {}
                for i1, x in a.items():
                    base = i1 * orows
                    for i2, y in b.items():
                        col[base + i2] = x * y % p if p else canon(x * y)
                columns.append(col)
        return Matrix(self.field, self.rows * orows, columns)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionError("col mismatch in vstack")
        n = self.rows
        columns = []
        for a, b in zip(self.columns, other.columns):
            col = dict(a)
            for i, v in b.items():
                col[n + i] = v
            columns.append(col)
        return Matrix(self.field, n + other.rows, columns)

    def is_zero(self):
        return not any(self.columns)

    def eq(self, other):
        return (self.rows, self.cols) == (other.rows, other.cols) and self.columns == other.columns

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in row) for row in self.to_rows())
        return f"Matrix({self.rows}x{self.cols}: {body})"


def axpy(acc: dict, c, col: dict):
    """acc += c * col on sparse columns, raw values left unreduced: finish
    with ``zero_free`` or test with ``is_nonzero``."""
    for r, v in col.items():
        acc[r] = acc.get(r, 0) + c * v


def is_nonzero(acc: dict, p) -> bool:
    """Whether a column of unreduced sums has a nonzero value (mod p)."""
    return any(v % p for v in acc.values()) if p else any(acc.values())


def zero_free(col: dict, p) -> dict:
    """A {key: raw value} dict of sums with each value reduced (mod p over
    F_p, to its canonical int or Fraction over Q) and the zeros left out:
    the one element format of A, A! and U."""
    if p:
        return {k: v % p for k, v in col.items() if v % p}
    return {k: v if type(v) is int else canon(v) for k, v in col.items() if v}


# -- elimination ---------------------------------------------------------


def rref(m: Matrix):
    """Reduced row echelon form, as (R, pivots).

    The rows, gathered from the columns in one pass, go into an
    ``EchelonSpan`` with column j keyed as ``m.cols - 1 - j``, so each lead
    is the row's leftmost nonzero column, the one Gauss-Jordan picks; after
    ``interreduce()`` the rows are the unique RREF.  R holds them by
    increasing pivot column, followed by zero rows up to ``m.rows``; pivots
    is the strictly increasing list of pivot columns.
    """
    f, ncols = m.field, m.cols
    top = ncols - 1
    rows = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            rows[i][top - j] = v
    span = EchelonSpan(f)
    for row in rows:
        span.insert(row)
    span.interreduce()
    columns = [{} for _ in range(ncols)]
    pivots = []
    for i, lead in enumerate(sorted(span.rows, reverse=True)):
        for k, v in span.rows[lead].items():
            columns[top - k][i] = v
        pivots.append(top - lead)
    return Matrix(f, m.rows, columns), pivots


def rank(m: Matrix) -> int:
    return sparse_rank(m.field, m.columns)


def row_space(m: Matrix) -> Matrix:
    """Canonical basis of the row space (nonzero rows of the rref)."""
    r, pivots = rref(m)
    return Matrix(m.field, len(pivots), r.columns)


def kernel_basis(m: Matrix) -> Matrix:
    """Matrix whose columns form a basis of ker(m): one per free column j,
    with 1 at j and minus column j of the RREF at the pivots."""
    f = m.field
    one, p = f.one(), f.p
    r, pivots = rref(m)
    pivset = set(pivots)
    cols = []
    for j in range(m.cols):
        if j in pivset:
            continue
        # R[i, j] != 0 only for pivots[i] < j: the keys come out ascending
        col = {pivots[i]: (p - v if p else -v) for i, v in r.columns[j].items()}
        col[j] = one
        cols.append(col)
    return Matrix(f, m.cols, cols)


def solve(m: Matrix, b: dict):
    """One exact solution x of m.x = b, both sparse columns, or None if b
    is not in the image."""
    x = solve_matrix(m, Matrix(m.field, m.rows, [b]))
    return None if x is None else x.columns[0]


def solve_matrix(m: Matrix, b: Matrix):
    """One exact solution X of m.X = b, free variables zero; None if some
    column of b is not in the image.  [m | b] is row-reduced once: a pivot
    in the b part is an inconsistent column."""
    if b.rows != m.rows:
        raise DimensionError("rhs row mismatch")
    f, n = m.field, m.cols
    r, pivots = rref(Matrix(f, m.rows, m.columns + b.columns))
    if pivots and pivots[-1] >= n:
        return None
    return Matrix(f, n, [{pivots[i]: v for i, v in col.items()} for col in r.columns[n:]])


# -- sparse incremental echelon (fast path) -------------------------------


def _reduce_q(rows, vec):
    """Normal form of ``vec`` (owned, zero-free) over Q, in place; every
    value it writes is canonical.

    Leads are taken from a max-heap, so each row is used at most once: a row
    only adds coordinates below its lead, and ``row[k] == 1`` cancels the
    lead itself."""
    heap = [-k for k in vec if k in rows]
    heapify(heap)
    while heap:
        k = -heappop(heap)
        c = vec.get(k)
        if c is None:  # cancelled after it was pushed, or pushed twice
            continue
        c = -c
        for j, v in rows[k].items():
            nv = vec.get(j)
            if nv is None:
                nv = c * v
                vec[j] = nv if type(nv) is int else canon(nv)
                if j in rows:
                    heappush(heap, -j)
            else:
                nv += c * v
                if nv:
                    vec[j] = nv if type(nv) is int else canon(nv)
                else:
                    del vec[j]
    return vec


def _reduce_mod(rows, vec, p):
    """``_reduce_q`` over F_p: values are ints in [0, p)."""
    heap = [-k for k in vec if k in rows]
    heapify(heap)
    while heap:
        k = -heappop(heap)
        c = vec.get(k)
        if c is None:
            continue
        c = p - c
        for j, v in rows[k].items():
            nv = vec.get(j)
            if nv is None:
                vec[j] = c * v % p
                if j in rows:
                    heappush(heap, -j)
            else:
                nv = (nv + c * v) % p
                if nv:
                    vec[j] = nv
                else:
                    del vec[j]
    return vec


class EchelonSpan:
    """Incrementally built row space in echelon form with sparse dict rows.

    Each row is keyed by its *largest* nonzero coordinate, its lead, where
    it has coefficient 1.  Rows are in echelon form only: a row is reduced
    against the rows that existed when it was inserted, and may hold the
    lead of a later row.  Every nonzero vector of the span has its largest
    coordinate in the lead set, so the normal form of a vector modulo the
    span, supported off the lead set, is unique; the non-lead coordinates
    index a basis of the quotient.

    Callers that read ``rows`` as a reduced basis (no row holds another
    row's lead) call ``interreduce()`` first.
    """

    __slots__ = ("field", "rows", "_p")

    def __init__(self, field: Field):
        self.field = field
        self.rows = {}  # lead index -> dict {index: coeff} with coeff[lead] == 1
        self._p = field.p

    def dim(self) -> int:
        return len(self.rows)

    def leads(self):
        return self.rows.keys()

    def _reduce(self, vec) -> dict:
        """Normal form of a zero-free copy of vec; ``vec`` is not changed."""
        p = self._p
        vec = zero_free(vec, p)
        return _reduce_mod(self.rows, vec, p) if p else _reduce_q(self.rows, vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span. Returns True if the dimension grew."""
        red = self._reduce(vec)
        if not red:
            return False
        lead = max(red)
        c, p = red[lead], self._p
        if p:
            inv = pow(c, p - 2, p)
            red = {k: v * inv % p for k, v in red.items()}
        elif c != 1:
            inv = self.field.inv(c)
            red = {k: canon(v * inv) for k, v in red.items()}
        self.rows[lead] = red
        return True

    def reduce(self, vec: dict) -> dict:
        """Normal form of vec modulo the span (no insertion)."""
        return self._reduce(vec)

    def interreduce(self):
        """Make the rows the reduced basis: no row holds another row's lead.

        One pass in increasing lead order; each row is reduced against rows
        of smaller lead, which are reduced by then."""
        rows, p = self.rows, self._p
        for lead in sorted(rows):
            row = rows[lead]
            one = row.pop(lead)
            if p:
                _reduce_mod(rows, row, p)
            else:
                _reduce_q(rows, row)
            row[lead] = one


RHS = -1  # reserved coordinate for the affine part of sparse systems


def solve_sparse(field: Field, equations, nvars: int):
    """Solve a sparse linear system exactly.

    ``equations`` is an iterable of dicts {var_index: coeff, RHS: value}
    meaning  sum coeff * x_var = value.  Returns one solution as a dense
    list (free variables set to zero), or None if inconsistent.
    """
    f = field
    span = EchelonSpan(f)
    for eq in equations:
        row = dict(eq)
        if RHS in row:
            row[RHS] = f.neg(row[RHS])  # fold rhs across: sum c x - b = 0
        span.insert(row)
    # RHS is the minimal index, so a row can lead on it only with no
    # variable support: that row reads 0 = b with b nonzero.
    if RHS in span.rows:
        return None
    span.interreduce()
    sol = [f.zero()] * nvars
    # rows are inter-reduced, so no non-lead variable is another row's
    # lead; all non-lead variables are free and set to zero.
    for lead, row in span.rows.items():
        sol[lead] = f.neg(row.get(RHS, f.zero()))
    return sol


def sparse_rank(field: Field, rows) -> int:
    """Rank of a collection of sparse row dicts."""
    span = EchelonSpan(field)
    for r in rows:
        span.insert(r)
    return span.dim()
