"""Minimal graded free resolutions over a truncated graded algebra.

This is the independent route to Ext_A(k, k): build the resolution of k
degree by degree with minimal generator selection, and read the Betti
numbers off the generator degrees.  Exactness fixes each kernel's
dimension in advance, so an exact kernel is computed only at the degrees
where new generators appear; everywhere else the kernel is the span of
A_1 times the kernel one degree lower.  Nothing here touches the
quadratic dual, so the Koszulness and Ext-duality checks compare two
genuinely different computations.
"""

from __future__ import annotations

from .errors import InconsistentDataError, InputError
from .linalg import EchelonSpan, Matrix, kernel_basis, zero_free
from .presentations import GradedAlgebraTruncation


class GradedFreeModule:
    """Free module ⊕ A(-j_i) over one truncated algebra; only the generator
    degrees matter."""

    def __init__(self, alg: GradedAlgebraTruncation, shifts):
        self.alg = alg
        self.shifts = list(shifts)
        self._labels = {}

    def dim_at(self, degree: int) -> int:
        alg = self.alg
        return sum(alg.dim_at(degree - j) if 0 <= degree - j <= alg.bound else 0
                   for j in self.shifts)

    def basis_labels(self, degree):
        """(gi, d, b) per expanded coordinate at ``degree`` (basis element b
        of A_d on generator gi), and {gi: its first coordinate}; cached."""
        got = self._labels.get(degree)
        if got is None:
            alg, labs, start = self.alg, [], {}
            for gi, j in enumerate(self.shifts):
                d = degree - j
                if 0 <= d <= alg.bound:
                    start[gi] = len(labs)
                    labs.extend((gi, d, b) for b in range(alg.dim_at(d)))
            got = self._labels[degree] = (labs, start)
        return got


def minimal_resolution_betti(alg: GradedAlgebraTruncation, steps: int,
                             degree_cap: int):
    """Betti numbers {(homological step, internal degree): rank} of the
    minimal graded free resolution of k, computed within the cap.

    Works entirely with expanded matrices.  Step s walks the degrees
    upward and finds K = ker(d_{s-1}: F_{s-1} -> F_{s-2}) degree by degree
    (ker of the augmentation, A_+, at step 1), splitting minimal generators
    of F_s off modulo A_+ times lower-degree kernel elements.

    The kernel K is a submodule and A is generated in degree 1, so
    A_m K_l lies in A_1 K_{l+m-1}: A_+ times the kernel below degree deg
    is spanned by A_1 K_{deg-1} alone, and only those products are formed.

    The generators of F_{s-1} generate the previous kernel within the cap,
    so im d_{s-1} is that kernel and exactness fixes
    dim K_deg = dim F_{s-1,deg} - dim ker(d_{s-2})_deg before any
    elimination.  Where the span A_1 K_{deg-1} reaches that dimension it
    is K_deg and holds no new generator; only where it falls short is the
    expanded map at deg assembled and its kernel computed, whose dimension
    must then match the count (``InconsistentDataError`` otherwise).
    """
    if degree_cap > alg.bound:
        raise InputError("degree cap beyond the algebra truncation bound")
    f = alg.field
    one = f.one()
    betti = {(0, 0): 1}
    degrees = range(1, degree_cap + 1)
    # F_0 = A -> k: the kernel is A_+, all of A_deg in each degree >= 1
    target, current, gen_cols = None, GradedFreeModule(alg, [0]), None
    known = {deg: alg.dim_at(deg) for deg in degrees}  # dim K_deg by exactness
    step = 1
    while step <= steps:
        kernels = {}  # K_deg as sparse {expanded coordinate: value} rows
        next_shifts = []
        new_gen_cols = []  # sparse expanded vector of each generator, at its shift
        for deg in degrees:
            want = known[deg]
            if not want:
                continue
            # span of A_+ . (kernel elements of lower degree) = A_1 . K_{deg-1},
            # expanded at deg
            span = EchelonSpan(f)
            for vec in kernels.get(deg - 1, ()):
                for mb in range(alg.dim_at(1)):
                    span.insert(_act_on_expanded(current, 1, mb, deg - 1, vec))
            if span.dim() < want:
                if gen_cols is None:
                    kernel = [{i: one} for i in range(want)]
                else:
                    cols = _map_columns(current, target, gen_cols, deg)
                    kernel = kernel_basis(Matrix(f, target.dim_at(deg), cols)).columns
                if len(kernel) != want:
                    raise InconsistentDataError(
                        f"resolution step {step}: kernel of dimension {len(kernel)} "
                        f"at degree {deg}, exactness gives {want}")
                # minimal generators at this degree: kernel columns
                # independent modulo the span
                chosen = [vec for vec in kernel if span.insert(vec)]
                betti[(step, deg)] = len(chosen)
                next_shifts.extend([deg] * len(chosen))
                new_gen_cols.extend(chosen)
            kernels[deg] = list(span.rows.values())
        if not next_shifts:
            break
        nxt = GradedFreeModule(alg, next_shifts)
        known = {deg: nxt.dim_at(deg) - known[deg] for deg in degrees}
        target, current, gen_cols = current, nxt, new_gen_cols
        step += 1
    return betti


def _map_columns(source: GradedFreeModule, target: GradedFreeModule, gen_cols, deg: int):
    """Expanded columns at ``deg`` of the map source -> target that sends
    generator si of ``source`` to ``gen_cols[si]``, a sparse vector of
    target expanded at the generator's shift: basis element b of A_d on
    generator si goes to b times that vector."""
    shifts = source.shifts
    return [_act_on_expanded(target, d, b, shifts[si], gen_cols[si])
            for (si, d, b) in source.basis_labels(deg)[0]]


def _act_on_expanded(free: GradedFreeModule, mdeg: int, mb: int, vdeg: int, vec: dict):
    """Multiply an expanded degree-vdeg element of the free module, a sparse
    {coordinate: value} dict, by the basis element mb of A_mdeg; the result
    is expanded at degree vdeg+mdeg, as a zero-free {coordinate: value} dict.

    The product of mb with basis element b of A_d is column
    mb * dim A_d + b of the cached ``mult_columns(mdeg, d)``; the row of
    mb in that table is looked up once per source degree d."""
    alg = free.alg
    p = alg.field.p
    src_labs = free.basis_labels(vdeg)[0]
    tstart = free.basis_labels(vdeg + mdeg)[1]
    tables = {}  # d -> (mult_columns(mdeg, d), mb * dim A_d)
    out = {}
    for i, c in vec.items():
        gi, d, b = src_labs[i]
        got = tables.get(d)
        if got is None:
            got = tables[d] = (alg.mult_columns(mdeg, d), mb * alg.dim_at(d))
        cols, base = got
        row = tstart[gi]
        for r, v in cols[base + b].items():
            k = row + r
            out[k] = out[k] + c * v if k in out else c * v
    return zero_free(out, p)
