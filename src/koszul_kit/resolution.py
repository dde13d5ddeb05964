"""Minimal graded free resolutions over a truncated graded algebra.

This is the independent route to Ext_A(k, k): build the resolution of k
degree by degree with exact kernels and minimal generator selection, and
read the Betti numbers off the generator degrees.  Nothing here touches
the quadratic dual, so the Koszulness and Ext-duality checks compare two
genuinely different computations.
"""

from __future__ import annotations

from .errors import InputError
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

    Works entirely with expanded matrices: at each step the kernel of the
    previous expanded map is computed per degree, minimal generators are
    split off modulo A_+ times lower-degree kernel elements, and the next
    free module is assembled from their degrees.

    The kernel K is a submodule and A is generated in degree 1, so
    A_m K_l lies in A_1 K_{l+m-1}: A_+ times the kernel below degree deg
    is spanned by A_1 K_{deg-1} alone, and only those products are formed.
    """
    if degree_cap > alg.bound:
        raise InputError("degree cap beyond the algebra truncation bound")
    f = alg.field
    betti = {(0, 0): 1}
    # the augmentation F_0 = A -> k: kernel is A_+ (degrees 1..cap)
    current = GradedFreeModule(alg, [0])
    # kernel bases per degree, as sparse {expanded coordinate: value} columns
    one = f.one()
    kernels = {deg: [{i: one} for i in range(current.dim_at(deg))]  # all of A_deg
               for deg in range(1, degree_cap + 1)}
    step = 1
    while step <= steps:
        next_shifts = []
        gen_cols = []  # sparse expanded vector of each generator, at its shift
        for deg in sorted(kernels):
            if not kernels[deg]:
                continue
            # span of A_+ . (kernel elements of lower degree) = A_1 . K_{deg-1},
            # expanded at deg
            span = EchelonSpan(f)
            for vec in kernels.get(deg - 1, ()):
                for mb in range(alg.dim_at(1)):
                    span.insert(_act_on_expanded(current, 1, mb, deg - 1, vec))
            # minimal generators at this degree: kernel columns independent
            # modulo the span
            chosen = [vec for vec in kernels[deg] if span.insert(vec)]
            if chosen:
                betti[(step, deg)] = len(chosen)
                next_shifts.extend([deg] * len(chosen))
                gen_cols.extend(chosen)
        if not next_shifts:
            break
        # build the expanded maps F_{step} -> F_{step-1} per degree, then kernels
        nxt = GradedFreeModule(alg, next_shifts)
        new_kernels = {}
        for deg in range(1, degree_cap + 1):
            src_labs = nxt.basis_labels(deg)[0]
            if not src_labs:
                continue
            # generator si sits in expanded degree next_shifts[si]; multiply
            # by the basis element b of A_d
            cols = [_act_on_expanded(current, d, b, next_shifts[si], gen_cols[si])
                    for (si, d, b) in src_labs]
            new_kernels[deg] = kernel_basis(Matrix(f, current.dim_at(deg), cols)).columns
        current = nxt
        kernels = new_kernels
        step += 1
    return betti


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
