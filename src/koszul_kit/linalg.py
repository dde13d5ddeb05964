"""Exact linear algebra on one elimination core, ``EchelonSpan``.

All operations are exact; there is no tolerance anywhere.  ``Matrix`` is
a dense container whose ops skip zeros on raw values: dense lists of rows
with products, stacking and the like, but no elimination of its own.  The
ops rely on the entry invariant, a ``Fraction`` over Q and an ``int`` in
[0, p) over F_p: a zero is then falsy and skipped by truthiness, and over
F_p sums of products are reduced ``% p`` once per output entry, with no
``Field`` call per entry.  ``EchelonSpan`` keeps sparse dict rows in
echelon form, each row led by its largest coordinate, which is enough for
a unique normal form modulo the span.  ``interreduce()`` turns the rows
into the reduced basis for callers that read ``rows``.  Its inner loops
work on the same raw values, not through ``Field`` methods.

Elements of A, A! and U, and many matrix columns, are sparse columns
{index: raw value}: ``axpy`` adds a multiple of one to an accumulator of
unreduced sums, ``zero_free`` reduces the sums and drops the zeros, and
``Matrix.from_sparse_columns`` / ``sparse_columns`` convert to and from the
dense layout.

Everything else runs on that core: ``rref`` keys column j of a matrix as
``cols - 1 - j`` so that each lead is the leftmost nonzero column, which
makes the interreduced rows the unique RREF; ``rank``, ``kernel_basis``,
``row_space``, ``solve`` and ``solve_matrix`` read that RREF or the span's
dimension; ``solve_sparse`` and ``sparse_rank`` feed it sparse rows
directly, and callers extend bases greedily with ``EchelonSpan.insert``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .scalars import Field

_ONE = Fraction(1)


class DimensionError(ValueError):
    pass


class Matrix:
    """Dense matrix over an exact field. Treated as immutable once built."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, rows=None, cols=None):
        self.field = field
        if rows is None:
            rows = len(data)
            cols = len(data[0]) if data else 0
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field, rows, cols):
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero(), field.one()
        data = [[z] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = o
        return Matrix(field, data, n, n)

    @staticmethod
    def from_int_rows(field, int_rows):
        return Matrix(field, [[field.of_int(x) for x in r] for r in int_rows])

    @staticmethod
    def from_columns(field, columns, rows=None):
        if not columns:
            return Matrix(field, [[] for _ in range(rows or 0)], rows or 0, 0)
        n = len(columns[0])
        data = [[columns[j][i] for j in range(len(columns))] for i in range(n)]
        return Matrix(field, data, n, len(columns))

    @staticmethod
    def from_sparse_columns(field, cols, rows):
        """The matrix whose column j is the {row: raw value} dict cols[j]:
        the inverse of ``sparse_columns()``.  Over F_p each value is
        reduced mod p here, so callers may pass unreduced sums."""
        p, zero = field.p, field.zero()
        data = [[zero] * len(cols) for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                data[i][j] = v % p if p else v
        return Matrix(field, data, rows, len(cols))

    # -- basic ops (on raw values; see the module docstring) ----------------

    def copy_data(self):
        return [row[:] for row in self.data]

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def sparse_columns(self):
        """Columns as {row: value} dicts, zeros left out."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = v
        return cols

    def transpose(self):
        data = [list(col) for col in zip(*self.data)] if self.rows else \
            [[] for _ in range(self.cols)]
        return Matrix(self.field, data, self.cols, self.rows)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in add")
        p = self.field.p
        if p:
            data = [[(a + b) % p if b else a for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        else:
            data = [[(a + b if a else b) if b else a for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        return Matrix(self.field, data, self.rows, self.cols)

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in sub")
        p = self.field.p
        if p:
            data = [[(a - b) % p if b else a for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        else:
            data = [[(a - b if a else -b) if b else a for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)]
        return Matrix(self.field, data, self.rows, self.cols)

    def scale(self, c):
        f = self.field
        p = f.p
        if p:
            c %= p
        if not c:
            return Matrix.zero(f, self.rows, self.cols)
        if p:
            data = [[c * a % p if a else 0 for a in r] for r in self.data]
        else:
            data = [[c * a if a else a for a in r] for r in self.data]
        return Matrix(f, data, self.rows, self.cols)

    def neg(self):
        p = self.field.p
        if p:
            data = [[p - a if a else 0 for a in r] for r in self.data]
        else:
            data = [[-a if a else a for a in r] for r in self.data]
        return Matrix(self.field, data, self.rows, self.cols)

    def mul(self, other):
        f = self.field
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p, ncols, zero = f.p, other.cols, f.zero()
        ot = other.data
        right = {}  # k -> nonzero (j, b) of row k of other, built on first use
        out = []
        for ri in self.data:
            acc = {}
            for k, a in enumerate(ri):
                if a:
                    pairs = right.get(k)
                    if pairs is None:
                        pairs = right[k] = [(j, b) for j, b in enumerate(ot[k]) if b]
                    for j, b in pairs:
                        acc[j] = acc[j] + a * b if j in acc else a * b
            orow = [zero] * ncols
            if p:
                for j, v in acc.items():
                    orow[j] = v % p
            else:
                for j, v in acc.items():
                    orow[j] = v
            out.append(orow)
        return Matrix(f, out, self.rows, ncols)

    def apply(self, vec):
        """Matrix times column vector (vec given as a flat list)."""
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        f = self.field
        p, zero = f.p, f.zero()
        nz = [(j, v) for j, v in enumerate(vec) if v]
        if p:
            return [sum(ri[j] * v for j, v in nz) % p for ri in self.data]
        out = []
        for ri in self.data:
            s = zero
            for j, v in nz:
                a = ri[j]
                if a:
                    s += a * v
            out.append(s)
        return out

    def kron(self, other):
        """Kronecker product, row-major pair indexing."""
        f = self.field
        p, zero = f.p, f.zero()
        zeros = [zero] * other.cols
        out = []
        for r1 in self.data:
            for r2 in other.data:
                row = []
                for a in r1:
                    if not a:
                        row.extend(zeros)
                    elif p:
                        row.extend([a * b % p for b in r2])
                    else:
                        row.extend([a * b if b else b for b in r2])
                out.append(row)
        return Matrix(f, out, self.rows * other.rows, self.cols * other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionError("col mismatch in vstack")
        return Matrix(self.field, self.copy_data() + other.copy_data(),
                      self.rows + other.rows, self.cols)

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def eq(self, other):
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in row) for row in self.data)
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
    """A {key: raw value} dict of sums with each value reduced mod p (over
    F_p) and the zeros left out: the one element format of A, A! and U."""
    if p:
        return {k: v % p for k, v in col.items() if v % p}
    return {k: v for k, v in col.items() if v}


# -- elimination ---------------------------------------------------------


def rref(m: Matrix):
    """Reduced row echelon form, as (R, pivots).

    The rows go into an ``EchelonSpan`` with column j keyed as
    ``m.cols - 1 - j``, so each lead is the row's leftmost nonzero column,
    the one Gauss-Jordan picks; after ``interreduce()`` the rows are the
    unique RREF.  R lists them by increasing pivot column, padded with zero
    rows to ``m.rows``; pivots is the strictly increasing list of pivot
    columns.
    """
    f, ncols = m.field, m.cols
    top = ncols - 1
    span = EchelonSpan(f)
    for row in m.data:
        span.insert({top - j: v for j, v in enumerate(row)})
    span.interreduce()
    zero = f.zero()
    data, pivots = [], []
    for lead in sorted(span.rows, reverse=True):
        dense = [zero] * ncols
        for k, v in span.rows[lead].items():
            dense[top - k] = v
        data.append(dense)
        pivots.append(top - lead)
    data.extend([zero] * ncols for _ in range(m.rows - len(data)))
    return Matrix(f, data, m.rows, ncols), pivots


def rank(m: Matrix) -> int:
    return sparse_rank(m.field, [dict(enumerate(row)) for row in m.data])


def row_space(m: Matrix) -> Matrix:
    """Canonical basis of the row space (nonzero rows of the rref)."""
    r, pivots = rref(m)
    return Matrix(m.field, r.data[: len(pivots)], len(pivots), m.cols)


def kernel_basis(m: Matrix) -> Matrix:
    """Matrix whose columns form a basis of ker(m)."""
    f = m.field
    r, pivots = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    cols = []
    for j in free:
        v = [f.zero()] * m.cols
        v[j] = f.one()
        for i, p in enumerate(pivots):
            v[p] = f.neg(r.data[i][j])
        cols.append(v)
    return Matrix.from_columns(f, cols, rows=m.cols)


def solve(m: Matrix, b):
    """One exact solution x of m.x = b, or None if b is not in the image."""
    if len(b) != m.rows:
        raise DimensionError("rhs length mismatch")
    x = solve_matrix(m, Matrix(m.field, [[v] for v in b], m.rows, 1))
    return None if x is None else x.column(0)


def solve_matrix(m: Matrix, b: Matrix):
    """One exact solution X of m.X = b, free variables zero; None if some
    column of b is not in the image.  [m | b] is row-reduced once: a pivot
    in the b part is an inconsistent column."""
    if b.rows != m.rows:
        raise DimensionError("rhs row mismatch")
    f, n = m.field, m.cols
    aug = Matrix(f, [r1 + r2 for r1, r2 in zip(m.data, b.data)], m.rows, n + b.cols)
    r, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    x = [[f.zero()] * b.cols for _ in range(n)]
    for i, p in enumerate(pivots):
        x[p] = r.data[i][n:]
    return Matrix(f, x, n, b.cols)


def intersect_row_spaces(a: Matrix, b: Matrix) -> Matrix:
    """Canonical basis (rref rows) of rowspace(a) ∩ rowspace(b)."""
    f = a.field
    if a.cols != b.cols:
        raise DimensionError("ambient mismatch in intersection")
    # (x, y) with x.a = y.b  <=>  (x, y) in left kernel of [a; -b]
    stacked = a.vstack(b.neg())
    k = kernel_basis(stacked.transpose())  # columns are (x | y)
    vecs = []
    for j in range(k.cols):
        x = [k.data[i][j] for i in range(a.rows)]
        vecs.append(Matrix(f, [x], 1, a.rows).mul(a).data[0])
    if not vecs:
        return Matrix(f, [], 0, a.cols)
    return row_space(Matrix(f, vecs, len(vecs), a.cols))


# -- sparse incremental echelon (fast path) -------------------------------


def _reduce_q(rows, vec):
    """Normal form of ``vec`` (owned, zero-free) over Q, in place.

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
                vec[j] = c * v
                if j in rows:
                    heappush(heap, -j)
            else:
                nv += c * v
                if nv:
                    vec[j] = nv
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
        p = self._p
        if p:
            inv = pow(red[lead], p - 2, p)
            self.rows[lead] = {k: v * inv % p for k, v in red.items()}
        else:
            inv = _ONE / red[lead]
            self.rows[lead] = {k: v * inv for k, v in red.items()}
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
