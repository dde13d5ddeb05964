"""Headline computations: generalized Koszul/Chevalley-Eilenberg complex,
windowed Koszulness certification, Tor and Ext, brutal and t-truncations,
and the regrading of a weighted complex.
"""

from __future__ import annotations

from .complexes import (
    BaseComplex,
    UComplex,
    _vanishes,
    homology_dims,
    weight_split,
)
from .deformations import CdgAlgebra, FilteredAlgebraTruncation
from .errors import CurvedInputError, InconsistentDataError, InputError, MissingWeightsError
from .functors import FunctorBounds, apply_F, apply_Fprime, apply_G, counit, f_free_complex
from .linalg import Matrix, zero_free
from .presentations import GradedAlgebraTruncation, QuadraticPresentation
from .resolution import minimal_resolution_betti


class HomologyReport:
    """Per (degree, weight) dimensions with window and reliability flags."""

    def __init__(self, entries, window, edge_degrees=None, stabilized=True):
        self.entries = entries  # {(degree, weight or None): dim}
        self.window = window
        self.edge_degrees = set() if edge_degrees is None else edge_degrees
        self.stabilized = stabilized

    def by_degree(self):
        out = {}
        for (p, w), d in self.entries.items():
            out[p] = out.get(p, 0) + d
        return out

    def to_json(self):
        return {
            "entries": [[p, w, d] for (p, w), d in sorted(
                self.entries.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "window": list(self.window),
            "edge_degrees": sorted(self.edge_degrees),
            "stabilized": self.stabilized,
        }


def _report(x, window, per_weight=False) -> HomologyReport:
    dims, edges = homology_dims(x, window, per_weight=per_weight)
    if per_weight:
        entries = dict(dims)
    else:
        entries = {(p, None): d for p, d in dims.items()}
    return HomologyReport(entries, window, edges)


def f_homology_stabilized(n, u, bounds: FunctorBounds):
    """Homology of the filtration pieces F_i(N) with stabilization detection.

    The colimit claim is asserted only through the flag: the report is
    marked stabilized when three consecutive filtration levels agree on
    the interior of the window.  Returns (F_i(N) at the top level i =
    ``bounds.filtration``, report of its homology).
    """
    views = []
    for i in (bounds.filtration - 2, bounds.filtration - 1, bounds.filtration):
        if i < 0:
            continue
        fc = apply_F(n, u, FunctorBounds(bounds.window, i, bounds.internal))
        dims, edges = homology_dims(fc, bounds.window)
        views.append((dims, edges))
    dims, edges = views[-1]
    lo, hi = bounds.window
    interior = [p for p in range(lo + 1, hi) if p not in edges]
    stable = len(views) == 3 and all(
        views[0][0].get(p, 0) == views[1][0].get(p, 0) == views[2][0].get(p, 0)
        for p in interior)
    return fc, HomologyReport({(p, None): d for p, d in dims.items()},
                              bounds.window, edges, stabilized=stable)


# -- generalized Koszul / Chevalley-Eilenberg complex -------------------------


def koszul_ce_complex(m: UComplex, u: FilteredAlgebraTruncation, cdga: CdgAlgebra,
                      bounds: FunctorBounds):
    """FG(M) for a single module M (a U-complex in degree 0), augmented by
    the counit to M.

    Returns (complex, counit ChainMap, report) where the report confirms
    the resolution property: interior homology vanishes away from degree 0
    and the counit induces an isomorphism there.
    """
    if not cdga.curvature_is_zero:
        raise CurvedInputError("the Koszul/CE complex needs c = 0")
    fg, eps = counit(m, u, cdga, bounds)
    rep = _report(fg, bounds.window)
    return fg, eps, rep


# -- Koszulness ----------------------------------------------------------------


def strand_complex(alg: GradedAlgebraTruncation, dual: GradedAlgebraTruncation,
                   n: int) -> BaseComplex:
    """Strand n of A ⊗ (A!)*: A_{n-q} ⊗ (A!_q)* in degree -q, q = n..0,
    with differential u ⊗ a* -> sum_g (u x_g) ⊗ (x_g* a*), where
    (x_g* a*)(b) = a*(b x_g*) is the dual of right multiplication.

    Each differential is summed over the sparse product columns of the
    right multiplications by x_g in A and in A!, on raw values."""
    f = alg.field
    d_gens = alg.pres.dim
    dims, comps = {}, {}
    for q in range(0, n + 1):
        da, dq = alg.dim_at(n - q), dual.dim_at(q)
        if da and dq:
            comps[-q] = (n - q, q)
            dims[-q] = da * dq
    diffs = {}
    for pos in sorted(comps):
        if pos + 1 not in comps:
            continue
        adeg, qdeg = comps[pos]
        dq, dq1 = dual.dim_at(qdeg), dual.dim_at(qdeg - 1)
        aright = alg.mult_columns(adeg, 1)        # e_ai x_g: column ai * d_gens + g
        dright = dual.mult_columns(qdeg - 1, 1)   # e_sj x_g*: column sj * d_gens + g
        cols = [{} for _ in range(dims[pos])]  # column ai * dq + si
        for g in range(d_gens):
            dual_g = [(sj, si, ca) for sj in range(dq1)
                      for si, ca in dright[sj * d_gens + g].items()]
            for ai in range(alg.dim_at(adeg)):
                for aj, cu in aright[ai * d_gens + g].items():
                    for sj, si, ca in dual_g:
                        col, row = cols[ai * dq + si], aj * dq1 + sj
                        col[row] = col.get(row, 0) + cu * ca
        diffs[pos] = Matrix(f, dims[pos + 1], [zero_free(col, f.p) for col in cols])
    return BaseComplex(f, (-n, 0), dims, diffs)


def koszulness_check(p: QuadraticPresentation, n_max: int):
    """Windowed Koszulness certificate.

    (i) strand exactness of A ⊗ (A!)* for internal degrees 1..n_max;
    (ii) Ext^i_A(k,k) concentrated in internal degree i with dimension
    equal to dim A!_i, read off an independently computed minimal graded
    free resolution.
    """
    alg = p.truncation(n_max)
    dual = p.dual().truncation(n_max)
    strand_pass = {}
    for n in range(1, n_max + 1):
        cx = strand_complex(alg, dual, n)
        msg = cx.check_d_squared()
        if msg:
            raise InconsistentDataError(f"strand {n}: {msg}")
        h, _ = homology_dims(cx, (-n, 0))
        strand_pass[n] = all(d == 0 for d in h.values())
    betti = minimal_resolution_betti(alg, n_max, n_max)
    ext_ok = True
    ext_dims = {}
    for i in range(0, n_max + 1):
        for (step, deg), r in betti.items():
            if step == i:
                ext_dims[(i, deg)] = r
        diag = betti.get((i, i), 0)
        offdiag = any(step == i and deg != i and r
                      for (step, deg), r in betti.items())
        if offdiag or diag != dual.dim_at(i):
            ext_ok = False
    return {
        "strands": strand_pass,
        "strands_pass": all(strand_pass.values()),
        "ext_concentrated": ext_ok,
        "ext_betti": ext_dims,
        "koszul_window": all(strand_pass.values()) and ext_ok,
    }


# -- Tor and Ext ----------------------------------------------------------------


def tor(m: UComplex, cdga: CdgAlgebra, bounds: FunctorBounds, cross_check=False,
        u: FilteredAlgebraTruncation = None) -> HomologyReport:
    """Tor_p^U(k, M) = H^{-p} G(M), windowed.

    ``cross_check`` compares it with the homology of k ⊗_U F_i(G(M)), the
    fiber of G(M)'s free complex on the degrees F expands.  That is not a
    second route: the fiber keeps the entries at 1, which are d of G(M),
    so it is G(M) itself wherever filtration + p >= 0."""
    if not cdga.curvature_is_zero:
        raise CurvedInputError("tor needs c = 0")
    g = apply_G(m, cdga, bounds)
    rep = _report(g, bounds.window, per_weight=m.weights is not None)
    if cross_check:
        if u is None:
            raise InputError("cross check needs the U truncation")
        fib = f_free_complex(g, u, bounds)[0].fiber_complex()
        rep2 = _report(fib, bounds.window)
        lo, hi = bounds.window
        for p in range(lo + 1, hi):
            if rep.by_degree().get(p, 0) != rep2.by_degree().get(p, 0):
                raise InconsistentDataError(f"tor cross-check mismatch at degree {p}")
    return rep


def ext(m: UComplex, cdga: CdgAlgebra, bounds: FunctorBounds) -> HomologyReport:
    """Ext_U^p(k, M) = H^p F'(M), windowed."""
    if not cdga.curvature_is_zero:
        raise CurvedInputError("ext needs c = 0")
    fp = apply_Fprime(m, cdga, bounds)
    return _report(fp, bounds.window)


# -- brutal truncation -----------------------------------------------------------


def sigma_truncate(x, p_cut: int):
    """(sigma^{>p} x, sigma^{<=p} x): the subcomplex in degrees > p and the
    quotient in degrees <= p, with the exact sequence verified by shape."""
    lo, hi = x.window

    def part(keep, window):
        """x restricted to the degrees that ``keep``: each map kept when
        both its ends are."""
        return x.rebuild(
            window, {p: n for p, n in x.dims.items() if keep(p)},
            {p: a for p, a in x.actions.items() if keep(p) and keep(p + x.action_degree)},
            {p: d for p, d in x.diffs.items() if keep(p) and keep(p + 1)},
            None if x.weights is None else {p: w for p, w in x.weights.items() if keep(p)})

    above = part(lambda p: p > p_cut, (max(lo, p_cut + 1), hi))
    below = part(lambda p: p <= p_cut, (lo, min(hi, p_cut)))
    for p in x.dims:
        total = above.dim(p) + below.dim(p)
        if total != x.dim(p):
            raise InputError("sigma truncation lost a component")
    return above, below


# -- regrading --------------------------------------------------------------------


def regrade(x, r: int):
    """The regrading of a weighted complex: its (degree, weight) blocks
    (``weight_split``) reindexed (p, w) -> (p + (r-1) w, w), so that d
    stays of bidegree (1, 0).  Returns ({(p', w): dim}, {(p', w): block of
    d}), with d^2 = 0 certified on each block."""
    if x.weights is None:
        raise MissingWeightsError("regrading needs integer weights")
    dims, blocks = weight_split(x)
    shift = r - 1
    for (p, w), d in blocks.items():
        after = blocks.get((p + 1, w))
        if after is not None and not _vanishes(x.field, [(1, after, d)]):
            raise InputError(f"regrade: d^2 != 0 at {(p + shift * w, w)}")
    return ({(p + shift * w, w): n for (p, w), n in dims.items()},
            {(p + shift * w, w): d for (p, w), d in blocks.items()})
