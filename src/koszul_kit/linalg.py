"""Exact linear algebra: dense rref, rank, kernel and solve, and a sparse
echelon core.

All operations are exact; there is no tolerance anywhere.  Matrices are
dense lists of rows.  ``EchelonSpan`` is the sparse core of the big
quotient constructions and of ``solve_sparse``/``sparse_rank``.  It keeps
its rows in echelon form, each row led by its largest coordinate, which is
enough for a unique normal form modulo the span: the same vector the dense
rref with columns searched in descending order gives.  ``interreduce()``
turns the rows into that rref's rows for callers that read ``rows``.  The
inner loops work on the field's raw values (``Fraction`` over Q, ``int``
with ``% p`` over F_p), not through ``Field`` methods.
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

    # -- basic ops -------------------------------------------------------

    def copy_data(self):
        return [row[:] for row in self.data]

    def row(self, i):
        return self.data[i][:]

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)], self.cols, self.rows)

    def add(self, other):
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in add")
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)], self.rows, self.cols)

    def sub(self, other):
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in sub")
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)], self.rows, self.cols)

    def scale(self, c):
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.data], self.rows, self.cols)

    def neg(self):
        return self.scale(self.field.neg(self.field.one()))

    def mul(self, other):
        f = self.field
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.data
        out = []
        zero = f.zero()
        for i in range(self.rows):
            ri = self.data[i]
            orow = [zero] * other.cols
            for k in range(self.cols):
                a = ri[k]
                if f.is_zero(a):
                    continue
                rk = ot[k]
                for j in range(other.cols):
                    b = rk[j]
                    if not f.is_zero(b):
                        orow[j] = f.add(orow[j], f.mul(a, b))
            out.append(orow)
        return Matrix(f, out, self.rows, other.cols)

    def apply(self, vec):
        """Matrix times column vector (vec given as a flat list)."""
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        f = self.field
        out = []
        for i in range(self.rows):
            s = f.zero()
            ri = self.data[i]
            for j, v in enumerate(vec):
                if not f.is_zero(v):
                    s = f.add(s, f.mul(ri[j], v))
            out.append(s)
        return out

    def kron(self, other):
        """Kronecker product, row-major pair indexing."""
        f = self.field
        out = []
        for i1 in range(self.rows):
            for i2 in range(other.rows):
                row = []
                r1, r2 = self.data[i1], other.data[i2]
                for j1 in range(self.cols):
                    a = r1[j1]
                    if f.is_zero(a):
                        row.extend([f.zero()] * other.cols)
                    else:
                        row.extend([f.mul(a, b) for b in r2])
                out.append(row)
        return Matrix(f, out, self.rows * other.rows, self.cols * other.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionError("row mismatch in hstack")
        return Matrix(self.field, [r1 + r2 for r1, r2 in zip(self.data, other.data)],
                      self.rows, self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionError("col mismatch in vstack")
        return Matrix(self.field, self.copy_data() + other.copy_data(),
                      self.rows + other.rows, self.cols)

    def is_zero(self):
        f = self.field
        return all(f.is_zero(x) for row in self.data for x in row)

    def eq(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        f = self.field
        return all(f.eq(a, b) for r1, r2 in zip(self.data, other.data)
                   for a, b in zip(r1, r2))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


# -- elimination ---------------------------------------------------------


def rref(m: Matrix, col_order=None):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the strictly increasing list of
    pivot columns.  ``col_order`` changes the pivot search order (used to
    pick lexicographically-least quotient bases); the returned matrix is
    reduced with respect to that order but stored in natural column order,
    and pivots are reported sorted.
    """
    f = m.field
    data = m.copy_data()
    nrows, ncols = m.rows, m.cols
    order = list(range(ncols)) if col_order is None else list(col_order)
    pivots = []
    r = 0
    for col in order:
        if r >= nrows:
            break
        # find a pivot row
        sel = -1
        for i in range(r, nrows):
            if not f.is_zero(data[i][col]):
                sel = i
                break
        if sel < 0:
            continue
        data[r], data[sel] = data[sel], data[r]
        inv = f.inv(data[r][col])
        data[r] = [f.mul(inv, x) for x in data[r]]
        for i in range(nrows):
            if i != r and not f.is_zero(data[i][col]):
                c = data[i][col]
                ri, rr = data[i], data[r]
                data[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(ri, rr)]
        pivots.append(col)
        r += 1
    # sort rows by pivot column so the result is a canonical rref
    rows_sorted = [row for _, row in sorted(zip(pivots, data[:r]))]
    data = rows_sorted + data[r:]
    return Matrix(f, data, nrows, ncols), sorted(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


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
    f = m.field
    aug = Matrix(f, [m.data[i][:] + [b[i]] for i in range(m.rows)], m.rows, m.cols + 1)
    r, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][m.cols]
    return x


def solve_matrix(m: Matrix, b: Matrix):
    """Solve m.X = b columnwise; None if any column is unsolvable."""
    cols = []
    for j in range(b.cols):
        x = solve(m, b.column(j))
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_columns(m.field, cols, rows=m.cols)


def in_row_space(rspace_rref: Matrix, pivots, vec) -> bool:
    """Membership test against a precomputed rref row space."""
    f = rspace_rref.field
    v = list(vec)
    for i, p in enumerate(pivots):
        if not f.is_zero(v[p]):
            c = v[p]
            row = rspace_rref.data[i]
            v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
    return all(f.is_zero(x) for x in v)


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
        if p:
            return _reduce_mod(self.rows, {k: v % p for k, v in vec.items() if v % p}, p)
        return _reduce_q(self.rows, {k: v for k, v in vec.items() if v})

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
