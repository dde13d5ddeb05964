"""Cofree dg-modules: detection, socle machinery, minimal versions of
G(M), t-truncation, and the cofree null-system test.

A cofree object is modelled on labels (r, s, i): dual-degree r, standard
monomial s of A!_r, socle line i of socle degree q, sitting in
cohomological degree q - r.  One perturbation transfer serves
minimization and the t-truncation quotient: it is G applied to the SDR
of the socle complex (``functors.G_blocks``), whose G(d0) carries the sign
(-1)^r of G's d_M term; the rest of the differential lowers the dual
degree, so the geometric series terminates (Crainic, *On the
perturbation lemma, and deformations*, 2004).  Every transfer is
certified.  Cofree coordinates carry the parity twist (-1)^r, so their
action is ``functors.cofree_actions``, as on G's images.

The socle SDR, the t-truncation split and cofree coordinates are one
change of basis per degree (``_complete``, ``_conjugated``): the SDR's
maps are blocks of that basis and its inverse, and the subobject's and
the quotient's maps are blocks of d and the actions in the new basis.

A complex of free A!-modules is merged into one cdg-module, A! ⊗ V on its
generators with the plain action (``functors.free_dual_module``, as F'),
for the position null test.
"""

from __future__ import annotations

from .complexes import (
    BaseComplex,
    CdgModule,
    ChainMap,
    homology_dims,
    nullhomotopy,
)
from .deformations import CdgAlgebra
from .errors import (
    CurvedInputError,
    InconsistentDataError,
    InputError,
    MissingWeightsError,
    NotCofreeError,
)
from .functors import G_blocks, apply_G, cofree_actions, dual_dims, free_dual_module, hom_labels
from .linalg import EchelonSpan, Matrix, kernel_basis, rank, solve_matrix


# -- socle-level strong deformation retract ----------------------------------


def socle_sdr(socle: BaseComplex):
    """SDR of a finite complex (S, d0) onto its homology with zero
    differential: returns (h_dims, i0, p0, h0) per degree, verified.

    Each degree is read in one change of basis P = (B | H | B'): B =
    d0(B'_{q-1}) spans the boundaries, H (kernel vectors) completes it to
    the cycles and B' (standard vectors) to S^q.  i0 is the H columns of
    P, p0 the H rows of P^-1, and h0 = B'_{q-1} (B rows of P^-1) undoes
    d0 on the boundaries."""
    f = socle.field
    dim, diff = socle.dim, socle.diff
    degs = sorted(socle.dims)
    i0, p0, h0, hdims, bp = {}, {}, {}, {}, {}
    for q in degs:
        n = dim(q)
        below = Matrix(f, dim(q - 1), bp.get(q - 1, []))
        b_cols = diff(q - 1).mul(below).columns
        z = kernel_basis(diff(q)) if dim(q + 1) else Matrix.identity(f, n)
        span = EchelonSpan(f)
        _grow(span, b_cols)
        h_cols = _grow(span, z.columns)
        nb, nh = len(b_cols), len(h_cols)
        basis, inv = _complete(f, n, b_cols + h_cols)
        bp[q] = basis.columns[nb + nh:]
        hdims[q] = nh
        i0[q] = Matrix(f, n, h_cols)
        p0[q] = inv.submatrix(range(nb, nb + nh), range(n))
        h0[q] = below.mul(inv.submatrix(range(nb), range(n)))
    # verify the SDR identities exactly
    for q in degs:
        n = dim(q)
        lhs = Matrix.identity(f, n).sub(i0[q].mul(p0[q]))
        rhs = Matrix.zero(f, n, n)
        if dim(q - 1):
            rhs = rhs.add(diff(q - 1).mul(h0[q]))
        if dim(q + 1):
            rhs = rhs.add(h0[q + 1].mul(diff(q)))
        if not lhs.eq(rhs):
            raise InconsistentDataError("SDR identity 1 - ip = dh + hd fails")
        if dim(q + 1) and dim(q - 1):
            if not h0[q].mul(h0[q + 1]).is_zero():
                raise InconsistentDataError("SDR h^2 != 0")
        if not p0[q].mul(i0[q]).eq(Matrix.identity(f, hdims[q])):
            raise InconsistentDataError("SDR p i != 1")
    return hdims, i0, p0, h0


def _grow(span: EchelonSpan, vecs):
    """The sparse columns, in order, whose insertion enlarges ``span``."""
    return [v for v in vecs if span.insert(v)]


def _complete(f, n: int, cols):
    """(P, P^-1): P is ``cols`` followed by the standard vectors of k^n that
    enlarge their span, in order; ``cols`` must be independent."""
    span = EchelonSpan(f)
    if len(_grow(span, cols)) != len(cols):
        raise InconsistentDataError("dependent subobject columns")
    p = Matrix(f, n, cols + _grow(span, Matrix.identity(f, n).columns))
    return p, _invert(p)


def _conjugated(module: CdgModule, into: dict, back: dict):
    """d and the actions of ``module`` in new coordinates: (diffs, actions)
    with into[p + 1] x back[p] for each map x from degree p, wherever both
    changes of basis are given."""
    diffs, actions = {}, {}
    for p, b in back.items():
        a = into.get(p + 1)
        if a is not None:
            diffs[p] = a.mul(module.diff(p)).mul(b)
            actions[p] = [a.mul(module.action(p, g)).mul(b)
                          for g in range(module.num_generators())]
    return diffs, actions


def _invert(m: Matrix) -> Matrix:
    inv = solve_matrix(m, Matrix.identity(m.field, m.rows))
    if inv is None:
        raise InconsistentDataError("matrix not invertible")
    return inv


# -- perturbation transfer ----------------------------------------------------


class TransferResult:
    def __init__(self, minimal, into, onto, socle_dims):
        self.minimal = minimal          # CdgModule on cofree labels
        self.into = into                # ChainMap minimal -> big
        self.onto = onto                # ChainMap big -> minimal
        self.socle_dims = socle_dims


def transfer_minimal(big: CdgModule, labels: dict, socle_diffs: dict,
                     cdga: CdgAlgebra, cap: int) -> TransferResult:
    """Transfer the differential of a labelled cofree complex onto the
    homology of its socle complex by exact homological perturbation, and
    certify the result.

    The socle dimensions are read off the labels, the differential d0 from
    ``socle_diffs``.  G applied to the socle SDR (i0, p0, h0) is an SDR of
    (big, G(d0)), G(d0) carrying G's sign (-1)^r; the rest t of big's
    differential lowers the dual degree, so the geometric series
    terminates.  The lemma is taken in Crainic's convention
    ip - 1 = dh + hd, so its homotopy is h = -G(h0) (``socle_sdr`` gives
    1 - i0 p0 = d0 h0 + h0 d0).  Certified: d^2 of the minimal model,
    p o i = id, a zero socle differential, and both maps chain maps for d
    and the A!-action.
    """
    f = big.field
    lo, hi = big.window
    socle_dims = {}
    for p, labs in labels.items():
        for r, _, line in labs:
            socle_dims[p + r] = max(socle_dims.get(p + r, 0), line + 1)
    socle = BaseComplex(f, big.window, socle_dims, socle_diffs)
    hdims, i0, p0, h0 = socle_sdr(socle)
    hdims = {q: n for q, n in hdims.items() if n}
    hlabels = hom_labels(dual_dims(cdga.dual, cap), big.window, lambda p, q: range(hdims.get(q, 0)))
    # the window with an empty degree on either side, so every block has its shape
    pad = range(lo - 1, hi + 2)
    labs = {p: labels.get(p, []) if lo <= p <= hi else [] for p in pad}
    hlabs = {p: hlabels.get(p, []) for p in pad}
    dhat = G_blocks(f, socle.diffs, labs, labs, 1)
    hhat = {p: m.neg() for p, m in G_blocks(f, h0, labs, labs, -1).items()}
    ihat = G_blocks(f, i0, hlabs, labs)
    phat = G_blocks(f, p0, labs, hlabs)

    # A = t (1 - h t)^{-1} per degree, t = d - G(d0); t lowers r
    amat = {}
    for p in range(lo - 1, hi + 1):
        t = big.diff(p).sub(dhat[p])
        nmat = hhat[p + 1].mul(t)
        acc = term = Matrix.identity(f, len(labs[p]))
        for _ in range(cap + 2):
            term = nmat.mul(term)
            if term.is_zero():
                break
            acc = acc.add(term)
        if not term.is_zero():
            raise InconsistentDataError(
                "perturbation series did not terminate; the input is not "
                "in the supported dual-degree-lowering shape")
        amat[p] = t.mul(acc)

    # transferred data: d_min = p A i, i_inf = i + h A i, p_inf = p + p A h
    window = range(lo, hi + 1)
    ai = {p: amat[p].mul(ihat[p]) for p in window}
    minimal = CdgModule(cdga, big.window,
                        {p: len(labs) for p, labs in hlabels.items()},
                        cofree_actions(cdga.dual, hlabels),
                        {p: phat[p + 1].mul(ai[p]) for p in window})
    minimal.labels = hlabels
    into = ChainMap(minimal, big, {p: ihat[p].add(hhat[p + 1].mul(ai[p])) for p in window})
    onto = ChainMap(big, minimal, {p: phat[p].add(phat[p].mul(amat[p - 1].mul(hhat[p])))
                                   for p in window})
    msg = minimal.check_d_squared()
    if msg:
        raise InconsistentDataError(f"minimal model: {msg}")
    msg = into.validate()
    if msg:
        raise InconsistentDataError(f"minimal model inclusion: {msg}")
    msg = onto.validate()
    if msg:
        raise InconsistentDataError(f"minimal model projection: {msg}")
    comp = onto.compose(into)
    for p, n in minimal.dims.items():
        if not comp.map_at(p).eq(Matrix.identity(f, n)):
            raise InconsistentDataError("p o i != id on the minimal model")
    for p, here in hlabels.items():
        nxt = hlabels.get(p + 1, [])
        for (r, _, _), col in zip(here, minimal.diff(p).columns):
            if r == 0 and any(nxt[row][0] == 0 for row in col):
                raise InconsistentDataError("nonzero socle differential "
                                            "after minimization")
    return TransferResult(minimal, into, onto, hdims)


# -- minimal versions of G(M) --------------------------------------------------


class MinimizeResult:
    def __init__(self, g_of_m, res: TransferResult, witness_onto=None):
        self.g_of_m = g_of_m
        self.minimal = res.minimal
        self.into = res.into
        self.onto = res.onto
        self.socle_dims = res.socle_dims
        self.witness_onto = witness_onto  # i o p ~ id on G(M); p o i is id exactly


def minimize_G(m, cdga: CdgAlgebra, bounds, certify=True) -> MinimizeResult:
    """Homotopy-minimal cofree model of G(M) for bounded-above M.

    The socle complex of G(M) is (M, d_M); the transfer collapses it onto
    its homology, leaving a cofree module whose socle complex has zero
    differential and homology dimensions, with certified chain maps both
    ways; ``certify`` adds the homotopy i o p ~ id on G(M).
    """
    if not cdga.curvature_is_zero:
        raise CurvedInputError("minimization needs c = 0")
    g = apply_G(m, cdga, bounds)
    res = transfer_minimal(g, g.labels, m.diffs, cdga, bounds.internal)
    witness_onto = None
    if certify:
        witness_onto = nullhomotopy(res.into.compose(res.onto), ChainMap.identity(g))
        if witness_onto is None:
            raise InconsistentDataError("no homotopy i o p ~ id on G(M)")
    return MinimizeResult(g, res, witness_onto)


# -- cofree detection ----------------------------------------------------------


class CofreeDecomposition:
    """Of a cofree module I: its socle complex and the coinduction-unit
    isomorphism per degree."""

    def __init__(self, socle: BaseComplex, unit_maps, labels):
        self.socle = socle               # Hom_{A!}(k, I)
        self.unit_maps = unit_maps       # {p: Matrix I^p -> cofree coords}
        self.labels = labels


def cofree_decomposition(i: CdgModule, cdga: CdgAlgebra, cap: int) -> CofreeDecomposition:
    """Detect cofreeness via the coinduction unit.

    Computes the socle per degree, a projection onto it, and the canonical
    map x -> (a -> socle part of a.x).  The module is cofree exactly when
    this map is bijective in every degree of the window, extended down to
    min(cap, A!'s bound) degrees below the lowest socle line; otherwise
    NotCofreeError is raised.  This realizes the Ext^1-vanishing criterion
    constructively: a failure of surjectivity in degree p is a nonzero
    class of Ext^1(k, -) against the socle in that window.
    """
    f = i.field
    dual = cdga.dual
    bases, socle = i.socle_complex()
    # the cofree template on this socle reaches cap degrees below the
    # lowest socle line; a module that is genuinely zero there is not
    # cofree, so the check range includes that support
    lo, hi = i.window
    if socle.dims:
        lo = min(lo, min(socle.dims) - min(cap, dual.bound))

    def socle_lines(p, q):
        return range(socle.dim(q))

    dims = dual_dims(dual, cap)
    labels = hom_labels(dims, (lo, i.window[1]), socle_lines)
    labels.update(hom_labels(dims, i.window, socle_lines))
    # socle projections: the first rows of the inverse of a completed socle basis
    projections = {}
    for q, b in bases.items():
        if b.cols:
            n = i.dim(q)
            projections[q] = _complete(f, n, b.columns)[1].submatrix(range(b.cols), range(n))
    words = dual.basis_words
    unit_maps = {}
    for p in range(lo, hi + 1):
        n = i.dim(p)
        labs = labels.get(p, [])
        if n != len(labs):
            raise NotCofreeError(
                f"degree {p}: dim {n} != cofree count {len(labs)}")
        if not n:
            continue
        cols = [{} for _ in range(n)]
        # the lines (r, s, 0..) of one monomial s are consecutive rows: their
        # block is the socle projection of the action of s on I^p
        for top, (r, s, si) in enumerate(labs):
            if si:
                continue
            proj = projections[p + r]
            block = proj.mul(i.act_word(p, words[r][s])) if r else proj
            for col, bcol in zip(cols, block.columns):
                for row, c in bcol.items():
                    col[top + row] = c
        um = Matrix(f, n, cols)
        if rank(um) != n:
            raise NotCofreeError(f"coinduction unit not bijective at degree {p}")
        unit_maps[p] = um
    return CofreeDecomposition(socle, unit_maps, labels)


# -- t-truncation ---------------------------------------------------------------


def t_truncate(i: CdgModule, cdga: CdgAlgebra, p_cut: int, cap: int):
    """(t^{<=p} I, t_{>p} I) for a cofree I with c = 0.

    The subobject is cofree on socle degrees < p plus the kernel K^p of
    the socle differential; the quotient is cofree and isomorphic to an
    object with socle concentrated in degrees > p (the isomorphic
    restructured form is also returned).
    """
    if not cdga.curvature_is_zero:
        raise CurvedInputError("t-truncation needs c = 0")
    f = i.field
    dec = cofree_decomposition(i, cdga, cap)
    # kernel of the socle differential at p_cut
    k_basis = kernel_basis(dec.socle.diff(p_cut))
    # subobject in cofree coordinates: all lines of socle degree < p_cut,
    # plus the K^p-combinations of the socle-degree-p_cut lines; pull the
    # coordinate vectors back through the unit isomorphism
    sub_cols = {}
    for p, labs in dec.labels.items():
        if p not in dec.unit_maps:
            continue
        um_inv = _invert(dec.unit_maps[p])
        cols = []
        for row, (r, s, si) in enumerate(labs):
            if p + r < p_cut:
                cols.append(um_inv.columns[row])
        if k_basis.cols:
            slots = {}
            for row, (r, s, si) in enumerate(labs):
                if p + r == p_cut:
                    slots.setdefault((r, s), {})[si] = row
            for (r, s), by_line in sorted(slots.items()):
                for kcol in k_basis.columns:
                    e = {row: kcol[si] for si, row in by_line.items() if si in kcol}
                    if e:
                        cols.append(um_inv.apply(e))
        if cols:
            sub_cols[p] = Matrix(f, i.dim(p), cols)
    sub, quot, incl, proj = _sub_quotient(i, sub_cols)
    msg = incl.validate(check_actions=True)
    if msg:
        raise InconsistentDataError(f"t-truncation subobject: {msg}")
    # restructure the quotient as cofree with socle in degrees > p_cut
    try:
        qdec = cofree_decomposition(quot, cdga, cap)
        quot_c = to_cofree_coordinates(quot, qdec)
        # the detected socle basis orders the lines exactly as the labels
        # do, so the socle differentials carry over unchanged
        res = transfer_minimal(quot_c, qdec.labels, qdec.socle.diffs, cdga, cap)
        restructured = res.minimal
    except NotCofreeError:
        restructured = None
    return sub, quot, restructured


def to_cofree_coordinates(module: CdgModule, dec: CofreeDecomposition) -> CdgModule:
    """Conjugate a detected cofree module onto its coordinate model.  The
    coinduction unit has no parity twist; the coordinates take the (-1)^r
    of ``functors.unit`` on each label (r, s, i), so the actions come out
    as ``cofree_actions``, the action of G's images and minimal models."""
    f = module.field
    twisted = {p: Matrix(f, um.rows, [{k: f.neg(c) if dec.labels[p][k][0] % 2 else c
                                       for k, c in col.items()} for col in um.columns])
               for p, um in dec.unit_maps.items()}
    diffs, actions = _conjugated(module, twisted, {p: _invert(um) for p, um in twisted.items()})
    out = CdgModule(module.cdga, module.window,
                    {p: len(labs) for p, labs in dec.labels.items()}, actions, diffs)
    out.labels = dec.labels
    return out


def _sub_quotient(i: CdgModule, sub_cols: dict):
    """Split I into a submodule-subcomplex and its quotient, with maps.

    In the basis P of each degree, the subobject's columns completed
    (``_complete``), d and each action are block upper triangular exactly
    when the subobject is stable under them.  The subobject's maps are the
    top-left blocks and the quotient's the bottom-right ones; the inclusion
    is the first columns of P and the projection the last rows of P^-1.
    """
    f = i.field
    back, into, k = {}, {}, {}
    for p, n in i.dims.items():
        cols = sub_cols[p].columns if p in sub_cols else []
        back[p], into[p] = _complete(f, n, cols)
        k[p] = len(cols)
    diffs, actions = _conjugated(i, into, back)

    def blocks(x, p, what):
        top, left = k[p + 1], k[p]
        if not x.submatrix(range(top, x.rows), range(left)).is_zero():
            raise InconsistentDataError(f"subspace is not {what}-stable")
        return (x.submatrix(range(top), range(left)),
                x.submatrix(range(top, x.rows), range(left, x.cols)))

    sub_d, quot_d, sub_a, quot_a = {}, {}, {}, {}
    for p, x in diffs.items():
        sub_d[p], quot_d[p] = blocks(x, p, "d")
    for p, xs in actions.items():
        pairs = [blocks(x, p, "action") for x in xs]
        sub_a[p], quot_a[p] = [s for s, _ in pairs], [q for _, q in pairs]
    sub = CdgModule(i.cdga, i.window, k, sub_a, sub_d)
    quot = CdgModule(i.cdga, i.window, {p: n - k[p] for p, n in i.dims.items()}, quot_a, quot_d)
    incl = ChainMap(sub, i, {p: Matrix(f, n, back[p].columns[:k[p]]) for p, n in i.dims.items()})
    proj = ChainMap(i, quot, {p: into[p].submatrix(range(k[p], n), range(n))
                              for p, n in i.dims.items()})
    return sub, quot, incl, proj


# -- cofree null test -----------------------------------------------------------


def null_test_cofree(i: CdgModule, cdga: CdgAlgebra, cap: int, interior,
                     by_position=False):
    """Cofree-side null-system criterion: I and Hom_{A!}(k, I) both acyclic.

    With ``by_position`` (for merged complexes of graded modules carrying
    internal weights) the interior is a range of positions p - weight, read
    in the (degree, weight) blocks of ``complexes.weight_split``, so the
    finite position window of a merge is judged honestly.
    """
    if not cdga.curvature_is_zero:
        raise CurvedInputError("null test needs c = 0")
    # the declared window is taken as the true support for the precondition
    socle_cx = cofree_decomposition(i, cdga, cap).socle
    lo, hi = interior
    if by_position:
        if i.weights is None:
            raise MissingWeightsError("position test needs unit weights: a merged "
                                      "complex of free dual modules has weights only "
                                      "when every generator has weight 1")
        h_i, _ = homology_dims(i, i.window, per_weight=True)
        h_s, _ = homology_dims(socle_cx, i.window, per_weight=True)
        acyclic = all(d == 0 for (p, w), d in h_i.items()
                      if w is not None and lo <= p - w <= hi)
        socle_acyclic = all(d == 0 for (p, w), d in h_s.items()
                            if w is not None and lo <= p - w <= hi)
    else:
        h_i, _ = homology_dims(i, i.window)
        h_s, _ = homology_dims(socle_cx, i.window)
        acyclic = all(h_i.get(q, 0) == 0 for q in range(lo, hi + 1))
        socle_acyclic = all(h_s.get(q, 0) == 0 for q in range(lo, hi + 1))
    return {
        "acyclic": acyclic,
        "socle_acyclic": socle_acyclic,
        "in_null_system": acyclic and socle_acyclic,
        "homology": h_i,
        "socle_homology": h_s,
    }

# -- complexes of free A!-modules as cdg-modules -------------------------------


def complex_of_free_dual_modules(cdga: CdgAlgebra, ranks: dict, entries: dict) -> CdgModule:
    """A complex of free graded A!-modules as a single-graded cdg-module.

    ``ranks[P]`` lists the generator shifts of the free module at complex
    position P; ``entries[P][i][j]`` is an A!-element {degree: sparse
    column} with phi(gen_j) = sum_i entry_{ij} gen_i, strictly linear.  The
    merge is ``functors.free_dual_module`` on the generators (P, j) in
    degree P + shift, labels (r, s, (P, j)), with the plain action and each
    entry of A!-degree e scaled by (-1)^{e(P+1)}: the sign (-1)^{rP} on
    the labels takes it to the merge whose action is twisted by (-1)^P and
    whose differential is a ⊗ gen_j -> sum_i a entry_{ij} ⊗ gen_i.  Label
    (r, s, (P, j)) weighs shift + r; the window runs from the lowest to the
    highest occupied cdg-degree.

    The merge needs c = 0, d_{A!} = 0 (d(a) ⊗ v would raise the weight and
    keep the position, which the position null test reads) and a finite
    A!, zero at the truncation bound.
    """
    dual = cdga.dual
    if any(not m.is_zero() for m in cdga.derivations.values()):
        raise InputError("free-module merge needs d_{A!} = 0")
    if not cdga.curvature_is_zero:
        raise CurvedInputError("free-module merge needs c = 0")
    top = dual.dim_at(dual.bound)
    if top:
        raise InputError(f"free-module merge needs a finite A!, zero at the truncation "
                         f"bound, but A!_{dual.bound} has dim {top}")
    gens, d, shifts = {}, {}, {}
    for P in sorted(ranks):
        rows = entries.get(P, ())
        for j, shift in enumerate(ranks[P]):
            gens.setdefault(P + shift, []).append((P, j))
            shifts[(P, j)] = shift
            d[(P + shift, (P, j))] = terms = {}
            for i, row in enumerate(rows):
                e = {deg: {t: -c for t, c in col.items()} if deg * (P + 1) % 2 else col
                     for deg, col in row[j].items() if deg <= dual.bound and col}
                if e:
                    terms[(P + 1, i)] = e
    if dual.pres.weights is not None and any(w != 1 for w in dual.pres.weights):
        shifts = None  # internal degree doubles as a Z-weight only for unit weights
    cx = free_dual_module(cdga, gens, d, dual.bound, gen_weights=shifts)
    msg = cx.validate()
    if msg:
        raise InconsistentDataError(f"free-module merge: {msg}")
    return cx
