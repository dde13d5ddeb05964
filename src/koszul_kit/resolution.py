"""Minimal graded free resolutions over a truncated graded algebra.

This is the independent route to Ext_A(k, k): build the resolution of k
degree by degree with exact kernels and minimal generator selection, and
read the Betti numbers off the generator degrees.  Nothing here touches
the quadratic dual, so the Koszulness and Ext-duality checks compare two
genuinely different computations.
"""

from __future__ import annotations

from .errors import InputError
from .linalg import EchelonSpan, Matrix, kernel_basis
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
    """
    if degree_cap > alg.bound:
        raise InputError("degree cap beyond the algebra truncation bound")
    f = alg.field
    betti = {(0, 0): 1}
    # the augmentation F_0 = A -> k: kernel is A_+ (degrees 1..cap)
    current = GradedFreeModule(alg, [0])
    # kernel bases per degree: {degree: Matrix columns in expanded coords}
    kernels = {}
    for deg in range(1, degree_cap + 1):
        n = current.dim_at(deg)
        if n:
            kernels[deg] = Matrix.identity(f, n)  # all of A_deg
    step = 1
    while step <= steps:
        gens = {}   # degree -> list of expanded kernel vectors chosen as generators
        next_shifts = []
        gen_vectors = []  # (shift degree, expanded vector per that degree)
        for deg in sorted(kernels):
            kb = kernels[deg]
            if kb.cols == 0:
                continue
            # span of A_+ . (kernel elements of lower degree), expanded at deg
            span = EchelonSpan(f)
            for ldeg in sorted(kernels):
                if ldeg >= deg:
                    break
                mdeg = deg - ldeg
                if mdeg < 1 or mdeg > alg.bound:
                    continue
                lk = kernels[ldeg]
                for ci in range(lk.cols):
                    vec = lk.column(ci)
                    for mb in range(alg.dim_at(mdeg)):
                        prod = _act_on_expanded(current, mdeg, mb, ldeg, vec)
                        span.insert(dict(enumerate(prod)))
            # minimal generators at this degree: kernel columns independent
            # modulo the span
            chosen = [ci for ci in range(kb.cols)
                      if span.insert(dict(enumerate(kb.column(ci))))]
            if chosen:
                betti[(step, deg)] = len(chosen)
                for ci in chosen:
                    next_shifts.append(deg)
                    gen_vectors.append((deg, kb.column(ci)))
        if not next_shifts:
            break
        # build the expanded maps F_{step} -> F_{step-1} per degree, then kernels
        nxt = GradedFreeModule(alg, next_shifts)
        new_kernels = {}
        for deg in range(1, degree_cap + 1):
            src_labs = nxt.basis_labels(deg)[0]
            if not src_labs:
                continue
            cols = []
            for (si, d, b) in src_labs:
                shift, gvec = next_shifts[si], gen_vectors[si][1]
                # generator gvec sits in expanded degree `shift`; multiply by
                # the basis element b of A_d
                cols.append(_act_on_expanded(current, d, b, shift, gvec))
            expanded = Matrix.from_columns(f, cols, rows=current.dim_at(deg))
            kb = kernel_basis(expanded)
            if kb.cols:
                new_kernels[deg] = kb
        current = nxt
        kernels = new_kernels
        step += 1
    return betti


def _act_on_expanded(free: GradedFreeModule, mdeg: int, mb: int, vdeg: int, vec):
    """Multiply an expanded degree-vdeg element of the free module by the
    basis element mb of A_mdeg; result expanded at degree vdeg+mdeg.

    The product of mb with basis element b of A_d is column
    mb * dim A_d + b of the cached ``mult_tensor(mdeg, d)``."""
    alg = free.alg
    f = alg.field
    src_labs = free.basis_labels(vdeg)[0]
    tgt_labs, tstart = free.basis_labels(vdeg + mdeg)
    out = [f.zero()] * len(tgt_labs)
    for (gi, d, b), c in zip(src_labs, vec):
        if f.is_zero(c):
            continue
        mt = alg.mult_tensor(mdeg, d)
        j = mb * alg.dim_at(d) + b
        row = tstart[gi]
        for prow in mt.data:
            pc = prow[j]
            if not f.is_zero(pc):
                out[row] = f.add(out[row], f.mul(c, pc))
            row += 1
    return out
