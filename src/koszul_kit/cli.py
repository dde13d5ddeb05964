"""Command-line front end: parse problem files, dispatch operations, and
emit human-readable tables or canonical machine-readable JSON.

One self-describing JSON schema covers all inputs; scalars are strings
("3", "-1/2", residues) so golden files are language-portable.  Exit
codes: 0 success, 1 a requested check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

from .complexes import CdgModule, UComplex, UModule, cone, homology_dims
from .deformations import (
    DeformationData,
    build_cdga,
    build_U,
    pbw_check,
    vanishing_witness,
)
from .errors import (
    CdgaInvariantError,
    InputError,
    KoszulKitError,
    NonFreeComponentError,
    WellDefinednessError,
)
from .functors import (
    FunctorBounds,
    adjunction_report,
    apply_F,
    apply_G,
    counit,
    unit,
)
from .cofree import (
    complex_of_free_dual_modules,
    minimize_G,
    null_test_cofree,
    t_truncate,
)
from .freeside import FreeUComplex, null_test_free
from .linalg import Matrix, axpy, zero_free
from .presentations import QuadraticPresentation, quadratic_dual, truncate_algebra
from .scalars import Field
from .suite import (
    bigraded_from_weighted,
    ext,
    f_homology_stabilized,
    koszul_ce_complex,
    koszulness_check,
    regrade,
    regrade_inverse,
    sigma_truncate,
    tor,
)

DEFAULT_DEGREE = 6
DEFAULT_WINDOW = (-8, 2)
DEFAULT_FILTRATION = 8
DEFAULT_INTERNAL = 6


# -- problem file parsing ------------------------------------------------------


class Problem:
    def __init__(self, raw):
        self.raw = raw
        self.field = Field.from_json(raw.get("field", {"type": "Q"}))
        self.generators = list(raw.get("generators", []))
        if not self.generators:
            raise InputError("no generators declared")
        self.weights = raw.get("weights")
        self.gen_index = {g: i for i, g in enumerate(self.generators)}
        self._deformation = None
        self._u = {}
        self._cdga = {}

    def _parse_relation_rows(self):
        f = self.field
        d = len(self.generators)
        rows = []
        for rel in self.raw.get("relations", []):
            row = {}
            for a, b, c in rel:
                k = self.gen_index[a] * d + self.gen_index[b]
                row[k] = row.get(k, 0) + f.parse(c)
            rows.append(zero_free(row, f.p))
        return Matrix(f, d * d, rows).transpose()

    def deformation(self) -> DeformationData:
        if self._deformation is not None:
            return self._deformation
        f = self.field
        d = len(self.generators)
        rel = self._parse_relation_rows()
        m = rel.rows
        alpha_cols = [{} for _ in range(d)]
        for i, terms in enumerate(self.raw.get("alpha", []) or []):
            if terms and i >= m:
                raise InputError("alpha length must not exceed the relation list")
            for (g, c) in terms:
                alpha_cols[self.gen_index[g]][i] = f.parse(c)
        alpha_rows = Matrix(f, m, [zero_free(col, f.p) for col in alpha_cols])
        beta = [f.parse(c) for c in (self.raw.get("beta") or ["0"] * m)]
        if len(beta) != m:
            raise InputError("beta length must match the relation list")
        self._deformation = DeformationData.from_raw(
            f, self.generators, rel, alpha_rows, beta, weights=self.weights)
        return self._deformation

    def presentation(self) -> QuadraticPresentation:
        return self.deformation().base

    def u_truncation(self, bound):
        if bound not in self._u:
            self._u[bound] = build_U(self.deformation(), bound)
        return self._u[bound]

    def cdga(self, bound, check=True):
        key = (bound, check)
        if key not in self._cdga:
            self._cdga[key] = build_cdga(self.deformation(), bound, check=check)
        return self._cdga[key]

    # -- named objects ----------------------------------------------------

    def module(self, name: str) -> UModule:
        data = self.deformation()
        if name == "k":
            spec = (self.raw.get("modules") or {}).get("k")
            if spec is None:
                return UModule.trivial(data)
        spec = (self.raw.get("modules") or {}).get(name)
        if spec is None:
            raise InputError(f"module {name!r} not declared")
        dim = int(spec["dim"])
        acts = []
        for g in self.generators:
            rows = spec["actions"].get(g)
            if rows is None:
                raise InputError(f"module {name!r}: missing action for {g}")
            acts.append(self._matrix(rows, dim, dim))
        return UModule(data, dim, acts, weights=spec.get("weights"))

    def complex(self, name: str) -> UComplex:
        spec = (self.raw.get("complexes") or {}).get(name)
        if spec is None:
            if name == "k" or name in (self.raw.get("modules") or {}):
                m = self.module(name)
                return UComplex(self.deformation(), (0, 0), {0: m}, {})
            raise InputError(f"complex {name!r} not declared")
        lo, hi = spec["window"]
        mods = {}
        names = spec["modules"]
        for off, mname in enumerate(names):
            if mname:
                mods[lo + off] = self.module(mname)
        diffs = {}
        for key, rows in (spec.get("differentials") or {}).items():
            p = int(key)
            diffs[p] = self._matrix(rows, mods[p + 1].dim, mods[p].dim)
        cx = UComplex(self.deformation(), (lo, hi), mods, diffs)
        msg = cx.validate()
        if msg:
            raise InputError(f"complex {name!r}: {msg}")
        return cx

    def cdg_module(self, name: str, bound) -> CdgModule:
        spec = (self.raw.get("cdg_modules") or {}).get(name)
        cdga = self.cdga(bound)
        if spec is None:
            if name == "k":
                return CdgModule(cdga, (0, 0), {0: 1}, {}, {})
            raise InputError(f"cdg module {name!r} not declared")
        lo, hi = spec["window"]
        dims = {int(k): int(v) for k, v in spec["dims"].items()}
        dual_names = list(cdga.dual.pres.generators)
        actions = {}
        for p in dims:
            acts = []
            for g in dual_names:
                rows = (spec.get("actions") or {}).get(g, {}).get(str(p))
                nrows = dims.get(p + 1, 0)
                if rows is None:
                    acts.append(Matrix.zero(self.field, nrows, dims.get(p, 0)))
                else:
                    acts.append(self._matrix(rows, nrows, dims.get(p, 0)))
            actions[p] = acts
        diffs = {}
        for key, rows in (spec.get("differentials") or {}).items():
            p = int(key)
            diffs[p] = self._matrix(rows, dims.get(p + 1, 0), dims.get(p, 0))
        weights = None
        if spec.get("weights"):
            weights = {int(k): list(v) for k, v in spec["weights"].items()}
        cx = CdgModule(cdga, (lo, hi), dims, actions, diffs, weights)
        msg = cx.validate()
        if msg:
            raise InputError(f"cdg module {name!r}: {msg}")
        return cx

    def free_complex(self, name: str, bound) -> FreeUComplex:
        spec = (self.raw.get("free_complexes") or {}).get(name)
        if spec is None:
            if name in (self.raw.get("complexes") or {}) \
                    or name in (self.raw.get("modules") or {}):
                raise NonFreeComponentError(
                    f"{name!r} is not declared as a complex of free modules")
            raise InputError(f"free complex {name!r} not declared")
        u = self.u_truncation(bound)
        lo, hi = spec["window"]
        ranks = {int(k): int(v) for k, v in spec["ranks"].items()}
        entries = {}
        for key, mat in (spec.get("entries") or {}).items():
            p = int(key)
            entries[p] = [[self._u_element(u, e) for e in row] for row in mat]
        return FreeUComplex(u, (lo, hi), ranks, entries)

    def free_dual_complex(self, name: str, bound):
        spec = (self.raw.get("free_dual_complexes") or {}).get(name)
        if spec is None:
            raise InputError(f"free dual complex {name!r} not declared")
        cdga = self.cdga(bound)
        ranks = {int(k): list(v) for k, v in spec["ranks"].items()}
        entries = {}
        for key, mat in (spec.get("entries") or {}).items():
            entries[int(key)] = [[self._dual_element(cdga.dual, e) for e in row]
                                 for row in mat]
        return complex_of_free_dual_modules(cdga, ranks, entries)

    # -- low-level parsing -------------------------------------------------

    def _matrix(self, rows, nrows, ncols) -> Matrix:
        f = self.field
        data = [[f.parse(c) for c in row] for row in rows]
        if len(data) != nrows or any(len(row) != ncols for row in data):
            raise InputError(f"matrix must be {nrows}x{ncols}")
        return Matrix.from_rows(f, data, ncols)

    def _u_element(self, u, terms):
        """A U element as a sparse column: sum of coeff * word."""
        f = self.field
        out = {}
        for (word, coeff) in terms:
            col = u.reduce_word(tuple(self.gen_index[g] for g in word))
            axpy(out, f.parse(coeff), col)
        return zero_free(out, f.p)

    def _dual_element(self, dual, terms):
        """An A! element as {degree: sparse column}."""
        f = self.field
        out = {}
        names = {g: i for i, g in enumerate(dual.pres.generators)}
        for (word, coeff) in terms:
            widx = tuple(names[g] for g in word)
            c = f.parse(coeff)
            axpy(out.setdefault(len(widx), {}), c, dual.project_word(widx))
        return {deg: zero_free(col, f.p) for deg, col in out.items()}


# -- output ---------------------------------------------------------------------


def emit(args, payload, human_lines):
    payload = dict(payload)
    payload.setdefault("command", args.command)
    bounds = {}
    for name in ("degree", "window", "filtration", "internal", "guard", "seed"):
        if hasattr(args, name):
            v = getattr(args, name)
            bounds[name] = list(v) if isinstance(v, tuple) else v
    if bounds:
        payload.setdefault("bounds", bounds)
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")
    return payload


def fmt_poly(field, dual, degree, col):
    """Human form of a homogeneous dual element, a sparse column, e.g.
    '2 x*^2'."""
    names = dual.pres.generators
    terms = []
    for i, c in sorted(col.items()):
        word = dual.basis_words[degree][i]
        factors = []
        for g in word:
            if factors and factors[-1][0] == g:
                factors[-1][1] += 1
            else:
                factors.append([g, 1])
        mono = " ".join(names[g] if k == 1 else f"{names[g]}^{k}"
                        for g, k in factors) if factors else "1"
        cs = field.format(c)
        terms.append(mono if cs == "1" else f"{cs} {mono}")
    return " + ".join(terms) if terms else "0"


def bounds_from(args) -> FunctorBounds:
    lo, hi = args.window
    return FunctorBounds(window=(lo, hi), filtration=args.filtration,
                         internal=args.internal)


# -- command implementations ------------------------------------------------------


def cmd_dual(problem, args):
    p = problem.presentation()
    dual = quadratic_dual(p)
    f = problem.field
    rel = [[f.format(x) for x in row] for row in dual.relations.to_rows()]
    lines = [f"dual generators: {' '.join(dual.generators)}",
             f"dim R = {p.num_relations}, dim Rperp = {dual.relations.rows}"]
    for row in rel:
        lines.append("  " + " ".join(row))
    return 0, {"generators": list(dual.generators), "relations": rel}, lines


def cmd_truncate(problem, args):
    alg = truncate_algebra(problem.presentation(), args.degree)
    dual = truncate_algebra(quadratic_dual(problem.presentation()), args.degree)
    lines = [f"A dims:  {list(alg.dims)}", f"A! dims: {list(dual.dims)}"]
    return 0, {"a_dims": list(alg.dims), "dual_dims": list(dual.dims)}, lines


def cmd_pbw(problem, args):
    rep = pbw_check(problem.deformation())
    lines = [f"condition 1 (image in R):        {'pass' if rep.cond1 else 'FAIL'}",
             f"condition 2 (alpha compatible):  {'pass' if rep.cond2 else 'FAIL'}",
             f"condition 3 (beta compatible):   {'pass' if rep.cond3 else 'FAIL'}",
             f"overlap dim (R.V n V.R): {rep.overlap_dim}",
             f"PBW type: {'yes' if rep.all_pass else 'no'}"]
    code = 0 if rep.all_pass else 1
    return code, {"cond1": rep.cond1, "cond2": rep.cond2, "cond3": rep.cond3,
                  "all_pass": rep.all_pass, "overlap_dim": rep.overlap_dim}, lines


def cmd_cdga(problem, args):
    f = problem.field
    try:
        cdga = problem.cdga(args.degree)
    except (WellDefinednessError, CdgaInvariantError) as e:
        lines = [f"cdga construction failed: {e}",
                 "the deformation is not of PBW type"]
        return 1, {"pbw_type": False, "reason": str(e)}, lines
    dual = cdga.dual
    curv = {s: c for s, c in enumerate(cdga.curvature) if c}
    lines = [f"A! dims: {list(dual.dims)}", f"c = {fmt_poly(f, dual, 2, curv)}"]
    d1 = cdga.d(1)
    dmat = {}
    for g, name in enumerate(dual.pres.generators):
        lines.append(f"d({name}) = {fmt_poly(f, dual, 2, d1.columns[g])}")
        dmat[name] = [f.format(d1.entry(i, g)) for i in range(d1.rows)]
    wit = vanishing_witness(problem.deformation(), cdga=cdga,
                            u=problem.u_truncation(max(2, min(args.degree, 3))))
    lines.append(f"vanishing lemma witness: {'pass' if wit else 'FAIL'}")
    payload = {"dual_dims": list(dual.dims),
               "curvature": [f.format(x) for x in cdga.curvature],
               "d_on_generators": dmat,
               "vanishing_witness": wit}
    return (0 if wit else 1), payload, lines


def cmd_build_u(problem, args):
    u = problem.u_truncation(args.degree)
    alg = truncate_algebra(problem.presentation(), args.degree)
    pbw_levels = [u.gr_dims[n] == alg.dim_at(n) for n in range(args.degree + 1)]
    lines = [f"gr dims: {u.gr_dims}",
             f"A dims:  {list(alg.dims)}",
             f"total dim: {u.total_dim}",
             f"PBW per level: {pbw_levels}"]
    return 0, {"gr_dims": u.gr_dims, "a_dims": list(alg.dims),
               "total_dim": u.total_dim, "pbw_levels": pbw_levels}, lines


def cmd_koszul_check(problem, args):
    rep = koszulness_check(problem.presentation(), args.degree)
    lines = [f"strands exact: {rep['strands']}",
             f"ext concentrated on the diagonal: {rep['ext_concentrated']}",
             f"koszul in window: {rep['koszul_window']}"]
    payload = {"strands": {str(k): v for k, v in rep["strands"].items()},
               "ext_concentrated": rep["ext_concentrated"],
               "ext_betti": [[list(k), v] for k, v in sorted(rep["ext_betti"].items())],
               "koszul_window": rep["koszul_window"]}
    return (0 if rep["koszul_window"] else 1), payload, lines


def cmd_apply_f(problem, args):
    b = bounds_from(args)
    n = problem.cdg_module(args.cdg, args.degree)
    u = problem.u_truncation(max(args.degree, b.filtration + b.window[1] + 1))
    fc = apply_F(n, u, b)
    rep = f_homology_stabilized(n, u, b)
    lines = [f"F_i dims: {dict(sorted(fc.dims.items()))}",
             f"homology by degree: {rep.by_degree()}",
             f"stabilized over three filtration levels: {rep.stabilized}"]
    return 0, {"dims": {str(k): v for k, v in sorted(fc.dims.items())},
               "homology": rep.to_json()}, lines


def cmd_apply_g(problem, args):
    b = bounds_from(args)
    m = problem.complex(args.complex)
    cdga = problem.cdga(args.degree)
    g = apply_G(m, cdga, b)
    lines = [f"G dims: {dict(sorted(g.dims.items()))}", "validate: pass"]
    payload = {"dims": {str(k): v for k, v in sorted(g.dims.items())}}
    if cdga.curvature_is_zero:
        h, edges = homology_dims(g, b.window)
        payload["homology"] = {str(k): v for k, v in sorted(h.items())}
        lines.append(f"homology: {h}")
    return 0, payload, lines


def cmd_adjoint_check(problem, args):
    b = bounds_from(args)
    n = problem.cdg_module(args.cdg, args.degree)
    m = problem.complex(args.complex)
    rep = adjunction_report(n, m, problem.cdga(args.degree), b)
    lines = [f"dims match: {rep['dims_match']}",
             f"differentials match: {rep['differentials_match']}",
             f"canonical map iso: {rep['iso']}",
             f"degree-0 cycles: {rep['cycle_dims']}",
             f"adjunction verified: {rep['ok']}"]
    return (0 if rep["ok"] else 1), rep, lines


def cmd_unit(problem, args):
    b = bounds_from(args)
    n = problem.cdg_module(args.cdg, args.degree)
    u = problem.u_truncation(max(args.degree,
                                 b.filtration + b.window[1] + 1))
    gf, eta = unit(n, u, problem.cdga(args.degree), b)
    cn = cone(eta)
    h, edges = homology_dims(cn, b.window)
    interior = {p: v for p, v in h.items() if p not in edges}
    ok = all(v == 0 for v in interior.values())
    lines = [f"(GF)_i dims: {dict(sorted(gf.dims.items()))}",
             f"cone homology: {h}",
             f"quasi-isomorphism in interior: {ok}"]
    return (0 if ok else 1), {
        "gf_dims": {str(k): v for k, v in sorted(gf.dims.items())},
        "cone_homology": {str(k): v for k, v in sorted(h.items())},
        "interior_qis": ok}, lines


def cmd_counit(problem, args):
    b = bounds_from(args)
    m = problem.complex(args.complex)
    u = problem.u_truncation(max(args.degree, b.filtration + b.window[1] + 1))
    fg, eps = counit(m, u, problem.cdga(args.degree), b)
    cn = cone(eps)
    h, edges = homology_dims(cn, b.window)
    interior = {p: v for p, v in h.items() if p not in edges}
    ok = all(v == 0 for v in interior.values())
    lines = [f"FG dims: {dict(sorted(fg.dims.items()))}",
             f"cone homology: {h}",
             f"quasi-isomorphism in interior: {ok}"]
    return (0 if ok else 1), {
        "fg_dims": {str(k): v for k, v in sorted(fg.dims.items())},
        "cone_homology": {str(k): v for k, v in sorted(h.items())},
        "interior_qis": ok}, lines


def cmd_ce(problem, args):
    b = bounds_from(args)
    m = problem.module(args.module)
    u = problem.u_truncation(max(args.degree, b.filtration + b.window[1] + 1))
    fg, eps, rep = koszul_ce_complex(problem.deformation(), m, u,
                                     problem.cdga(args.degree), b)
    lines = [f"CE dims: {dict(sorted(fg.dims.items()))}",
             f"homology by degree: {rep.by_degree()}"]
    return 0, {"dims": {str(k): v for k, v in sorted(fg.dims.items())},
               "homology": rep.to_json()}, lines


def cmd_tor(problem, args):
    a, bb = args.range
    b = FunctorBounds(window=(-bb - 2, 1), filtration=args.filtration,
                      internal=args.internal)
    m = problem.complex(args.module)
    rep = tor(m, problem.cdga(args.degree), b,
              cross_check=args.cross_check,
              u=problem.u_truncation(args.degree) if args.cross_check else None)
    by_deg = rep.by_degree()
    dims = [by_deg.get(-p, 0) for p in range(a, bb + 1)]
    lines = [f"Tor_p(k, {args.module}) for p = {a}..{bb}: {dims}"]
    return 0, {"range": [a, bb], "dims": dims,
               "homology": rep.to_json()}, lines


def cmd_ext(problem, args):
    a, bb = args.range
    b = FunctorBounds(window=(min(a, 0), bb + 1), filtration=args.filtration,
                      internal=max(args.internal, bb + 1))
    m = problem.complex(args.module)
    rep = ext(m, problem.cdga(max(args.degree, bb + 2)), b)
    by_deg = rep.by_degree()
    dims = [by_deg.get(p, 0) for p in range(a, bb + 1)]
    lines = [f"Ext^p(k, {args.module}) for p = {a}..{bb}: {dims}"]
    return 0, {"range": [a, bb], "dims": dims,
               "homology": rep.to_json()}, lines


def cmd_minimize(problem, args):
    b = bounds_from(args)
    m = problem.complex(args.complex)
    res = minimize_G(m, problem.cdga(args.degree), b)
    h, _ = homology_dims(m, m.window)
    lines = [f"socle dims of the minimal model: {res.socle_dims}",
             f"homology of the input: {h}",
             f"round-trip certificates verified: True"]
    return 0, {"socle_dims": {str(k): v for k, v in sorted(res.socle_dims.items())},
               "input_homology": {str(k): v for k, v in sorted(h.items())},
               "certified": True}, lines


def cmd_null_free(problem, args):
    p = problem.free_complex(args.free, args.degree)
    guard = 0 if p.entry_degree_bound() == 0 else args.guard
    lo, hi = p.window
    rep = null_test_free(p, args.filtration // 2, (lo + guard, hi - guard))
    lines = [f"acyclic (interior): {rep['acyclic']}",
             f"fiber acyclic: {rep['fiber_acyclic']}",
             f"in null system: {rep['in_null_system']}"]
    payload = {k: rep[k] for k in ("acyclic", "fiber_acyclic", "in_null_system")}
    payload["homology"] = {str(k): v for k, v in sorted(rep["homology"].items())}
    payload["fiber_homology"] = {str(k): v
                                 for k, v in sorted(rep["fiber_homology"].items())}
    return 0, payload, lines


def cmd_null_cofree(problem, args):
    if args.free_dual:
        i = problem.free_dual_complex(args.free_dual, args.degree)
        positions = sorted({lab[0] for labs in i.free_labels.values()
                            for lab in labs})
        interior = (positions[0] + args.guard, positions[-1] - args.guard)
        rep = null_test_cofree(i, problem.cdga(args.degree), args.internal,
                               interior, by_position=True)
    else:
        i = problem.cdg_module(args.cdg, args.degree)
        lo, hi = i.window
        interior = (lo + args.guard, hi - args.guard)
        rep = null_test_cofree(i, problem.cdga(args.degree), args.internal,
                               interior)
    lines = [f"acyclic (interior): {rep['acyclic']}",
             f"socle complex acyclic: {rep['socle_acyclic']}",
             f"in null system: {rep['in_null_system']}"]
    payload = {k: rep[k] for k in ("acyclic", "socle_acyclic", "in_null_system")}
    return 0, payload, lines


def cmd_t_trunc(problem, args):
    i = problem.cdg_module(args.cdg, args.degree)
    sub, quot, restr = t_truncate(i, problem.cdga(args.degree), args.at,
                                  args.internal)
    lines = [f"t<=p dims: {dict(sorted(sub.dims.items()))}",
             f"t>p dims:  {dict(sorted(quot.dims.items()))}"]
    payload = {"sub_dims": {str(k): v for k, v in sorted(sub.dims.items())},
               "quot_dims": {str(k): v for k, v in sorted(quot.dims.items())}}
    if restr is not None:
        payload["restructured_dims"] = {str(k): v
                                        for k, v in sorted(restr.dims.items())}
        lines.append(f"restructured quotient dims: {dict(sorted(restr.dims.items()))}")
    return 0, payload, lines


def cmd_sigma_trunc(problem, args):
    if args.cdg:
        x = problem.cdg_module(args.cdg, args.degree)
    else:
        x = problem.complex(args.complex)
    above, below = sigma_truncate(x, args.at)
    lines = [f"sigma>{args.at} dims: {dict(sorted(above.dims.items()))}",
             f"sigma<={args.at} dims: {dict(sorted(below.dims.items()))}"]
    return 0, {"above_dims": {str(k): v for k, v in sorted(above.dims.items())},
               "below_dims": {str(k): v for k, v in sorted(below.dims.items())}}, lines


def cmd_regrade(problem, args):
    x = problem.cdg_module(args.cdg, args.degree)
    bg = bigraded_from_weighted(x)
    out = regrade(bg, args.r)
    back = regrade_inverse(out, args.r)
    ok = back.equal(bg)
    lines = [f"components: {sorted(out.components.items())}",
             f"round trip exact: {ok}"]
    return (0 if ok else 1), {
        "components": [[list(k), v] for k, v in sorted(out.components.items())],
        "round_trip": ok}, lines


def run_selftest(seed: int, corrupt_sign=False, out=sys.stdout):
    """Built-in invariant corpus; returns the number of failures."""
    from . import selftest as st
    return st.run(seed, corrupt_sign=corrupt_sign, out=out)


def cmd_selftest(problem, args):
    import io
    buf = io.StringIO()
    failures, results = run_selftest(args.seed, args.corrupt_sign_debug, out=buf)
    lines = buf.getvalue().rstrip("\n").split("\n") if buf.getvalue() else []
    return (0 if failures == 0 else 1), {
        "seed": args.seed, "failures": failures,
        "results": results}, lines


# -- argument plumbing -------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("file", nargs="?", help="problem file (JSON)")
    sp.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                    help="truncation degree bound")
    sp.add_argument("--window", type=_parse_window, default=DEFAULT_WINDOW,
                    help="cohomological window LO:HI")
    sp.add_argument("--filtration", type=int, default=DEFAULT_FILTRATION)
    sp.add_argument("--internal", type=int, default=DEFAULT_INTERNAL)
    sp.add_argument("--guard", type=int, default=1,
                    help="edge guard band for interior claims")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")


def _parse_window(s):
    lo, hi = s.split(":")
    return (int(lo), int(hi))


def _parse_range(s):
    a, b = s.split("..")
    return (int(a), int(b))


COMMANDS = {
    "dual": (cmd_dual, ()),
    "truncate": (cmd_truncate, ()),
    "pbw": (cmd_pbw, ()),
    "cdga": (cmd_cdga, ()),
    "build-u": (cmd_build_u, ()),
    "koszul-check": (cmd_koszul_check, ()),
    "apply-f": (cmd_apply_f, ("cdg",)),
    "apply-g": (cmd_apply_g, ("complex",)),
    "adjoint-check": (cmd_adjoint_check, ("cdg", "complex")),
    "unit": (cmd_unit, ("cdg",)),
    "counit": (cmd_counit, ("complex",)),
    "ce": (cmd_ce, ("module",)),
    "tor": (cmd_tor, ("module", "range", "cross_check")),
    "ext": (cmd_ext, ("module", "range")),
    "minimize": (cmd_minimize, ("complex",)),
    "null-free": (cmd_null_free, ("free",)),
    "null-cofree": (cmd_null_cofree, ("cdg?", "free_dual?")),
    "t-trunc": (cmd_t_trunc, ("cdg", "at")),
    "sigma-trunc": (cmd_sigma_trunc, ("cdg?", "complex?", "at")),
    "regrade": (cmd_regrade, ("cdg", "r")),
    "selftest": (cmd_selftest, ("seed", "corrupt_sign_debug")),
}


def _add_command(sub, name, formatter):
    """Register ``name`` with its full arguments."""
    extras = COMMANDS[name][1]
    sp = sub.add_parser(name, formatter_class=formatter)
    _add_common(sp)
    if "cdg" in extras:
        sp.add_argument("--cdg", required=True, help="named cdg module (or 'k')")
    if "cdg?" in extras:
        sp.add_argument("--cdg", help="named cdg module (or 'k')")
    if "complex" in extras:
        sp.add_argument("--complex", required=True,
                        help="named U-complex (or module name)")
    if "complex?" in extras:
        sp.add_argument("--complex", help="named U-complex")
    if "module" in extras:
        sp.add_argument("--module", default="k")
    if "range" in extras:
        sp.add_argument("--range", type=_parse_range, default=(0, 4))
    if "cross_check" in extras:
        sp.add_argument("--cross-check", dest="cross_check",
                        action="store_true")
    if "free" in extras:
        sp.add_argument("--free", required=True, help="named free complex")
    if "free_dual?" in extras:
        sp.add_argument("--free-dual", dest="free_dual",
                        help="named complex of free dual modules")
    if "at" in extras:
        sp.add_argument("--at", type=int, required=True)
    if "r" in extras:
        sp.add_argument("--r", type=int, required=True)
    if "seed" in extras:
        # a string default goes through type=int at parse time, so a
        # malformed KOSZUL_SEED is a usage error of selftest alone
        sp.add_argument("--seed", type=int,
                        default=os.environ.get("KOSZUL_SEED") or 0)
    if "corrupt_sign_debug" in extras:
        sp.add_argument("--corrupt-sign-debug", dest="corrupt_sign_debug",
                        action="store_true")


def _add_placeholder(sub, names):
    """Register ``names`` as the aliases of one parser without arguments."""
    if names:
        sub.add_parser(names[0], aliases=names[1:], add_help=False)


def build_parser(argv):
    """The parser for ``argv``: full arguments for the one subcommand
    argparse will dispatch to, bare placeholders for the other names.

    The top level has only ``-h``, so argparse hands the first token that
    does not start with "-" to the subcommand choice; tokens it treats as
    positional although they start with "-" (``-5``, ``-``) are never
    command names and end in the invalid-choice error, which reads only the
    names.  Each run of other names shares one placeholder through
    ``aliases``, which keeps the choices in ``COMMANDS`` order for the
    usage line and the errors; argparse never parses with a placeholder.
    """
    # argparse's default help width, read from the terminal once per build:
    # by default every formatter reads it
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    ap = argparse.ArgumentParser(
        prog="koszul-kit",
        description="Exact Koszul-duality computations for nonhomogeneous "
                    "quadratic algebras and their curved dual dgas.",
        formatter_class=formatter)
    sub = ap.add_subparsers(dest="command", required=True)
    names = list(COMMANDS)
    chosen = next((a for a in argv if not a.startswith("-")), None)
    at = names.index(chosen) if chosen in COMMANDS else len(names)
    _add_placeholder(sub, names[:at])
    if at < len(names):
        _add_command(sub, chosen, formatter)
        _add_placeholder(sub, names[at + 1:])
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    fn, extras = COMMANDS[args.command]
    try:
        problem = None
        if args.command != "selftest":
            if not args.file:
                raise InputError("a problem file is required")
            with open(args.file) as fh:
                raw = json.load(fh)
            problem = Problem(raw)
        code, payload, lines = fn(problem, args)
        payload["exit_code"] = code
        emit(args, payload, lines)
        return code
    except (InputError, FileNotFoundError, json.JSONDecodeError, KeyError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except KoszulKitError as e:
        # preconditions violated by the input data (curved input where c = 0
        # is required, non-free or non-cofree complexes, missing weights)
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
