"""The module and functor layer of the command line, the sixteen commands
of ``COMMANDS``: fifteen that build modules, complexes and cdg-modules and
run F, G and the homological checks on them, and ``selftest``.  A named
U-module is read as the U-complex in degree 0, so every command that takes
a complex takes a module name too.  Each command reads its bounds from the
``cli.Plan`` that ``cli.main`` hands it and derives none from a flag.

``cli.main`` imports this module only when the chosen command is not one
of its five algebra commands, so commands on the algebras alone never
load ``complexes``, ``functors``, ``cofree``, ``freeside``, ``suite`` or
``resolution`` (which ``suite`` imports).  All six are imported here at
the top, so the first command that needs any of them loads them all
together: after it, a tracer that wraps library functions by name in
every loaded namespace finds each binding, none loaded while it patches.
"""

from __future__ import annotations

from .complexes import CdgModule, UComplex, cone, homology_dims
from .errors import InputError, NonFreeComponentError
from .functors import (
    adjunction_report,
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
from .suite import (
    ext,
    f_homology_stabilized,
    koszul_ce_complex,
    koszulness_check,
    regrade,
    sigma_truncate,
    tor,
)


# -- named objects of a problem file ----------------------------------------------
#
# Each reads the named object's entry of a ``cli.Problem``'s raw file.


def named_module(problem, name: str) -> UComplex:
    """The named U-module, as the U-complex in degree 0."""
    data = problem.deformation()
    if name == "k":
        spec = (problem.raw.get("modules") or {}).get("k")
        if spec is None:
            return UComplex.trivial(data)
    spec = (problem.raw.get("modules") or {}).get(name)
    if spec is None:
        raise InputError(f"module {name!r} not declared")
    dim = int(spec["dim"])
    acts = []
    for g in problem.generators:
        rows = spec["actions"].get(g)
        if rows is None:
            raise InputError(f"module {name!r}: missing action for {g}")
        acts.append(_matrix(problem.field, rows, dim, dim, f"module {name!r}: action of {g}"))
    weights = spec.get("weights")
    if weights is not None and len(weights) != dim:
        raise InputError(f"module {name!r}: weights list of length {len(weights)} for dim {dim}")
    m = UComplex.module(data, dim, acts, weights)
    msg = m.module_axioms(0)
    if msg:
        raise InputError(f"module {name!r}: {msg}")
    return m


def named_complex(problem, name: str) -> UComplex:
    spec = (problem.raw.get("complexes") or {}).get(name)
    if spec is None:
        if name == "k" or name in (problem.raw.get("modules") or {}):
            return named_module(problem, name)
        raise InputError(f"complex {name!r} not declared")
    lo, hi = spec["window"]
    mods = {}
    names = spec["modules"]
    for off, mname in enumerate(names):
        if mname:
            if lo + off > hi:
                raise InputError(f"complex {name!r}: module {mname!r} at degree {lo + off} "
                                 f"outside the window [{lo}, {hi}]")
            mods[lo + off] = named_module(problem, mname)
    diffs = {}
    for key, rows in (spec.get("differentials") or {}).items():
        p = int(key)
        for q in (p, p + 1):
            if q not in mods:
                raise InputError(f"complex {name!r}: differential at degree {p} "
                                 f"needs a module at degree {q}")
        diffs[p] = _matrix(problem.field, rows, mods[p + 1].dim(0), mods[p].dim(0),
                           f"complex {name!r}: differential at degree {p}")
    cx = UComplex.of_modules(problem.deformation(), (lo, hi), mods, diffs)
    msg = cx.validate()
    if msg:
        raise InputError(f"complex {name!r}: {msg}")
    return cx


def named_cdg_module(problem, name: str, bound) -> CdgModule:
    spec = (problem.raw.get("cdg_modules") or {}).get(name)
    cdga = problem.cdga(bound)
    if spec is None:
        if name == "k":
            return CdgModule(cdga, (0, 0), {0: 1}, {}, {})
        raise InputError(f"cdg module {name!r} not declared")
    lo, hi = spec["window"]
    dims = {int(k): int(v) for k, v in spec["dims"].items()}
    for p, n in dims.items():
        if n and not lo <= p <= hi:
            raise InputError(f"cdg module {name!r}: dim {n} at degree {p} "
                             f"outside the window [{lo}, {hi}]")
    dual_names = list(cdga.dual.pres.generators)
    actions = {}
    for p in dims:
        acts = []
        for g in dual_names:
            rows = (spec.get("actions") or {}).get(g, {}).get(str(p))
            nrows = dims.get(p + 1, 0)
            if rows is None:
                acts.append(Matrix.zero(problem.field, nrows, dims.get(p, 0)))
            else:
                acts.append(_matrix(problem.field, rows, nrows, dims.get(p, 0),
                                    f"cdg module {name!r}: action of {g} at degree {p}"))
        actions[p] = acts
    diffs = {}
    for key, rows in (spec.get("differentials") or {}).items():
        p = int(key)
        diffs[p] = _matrix(problem.field, rows, dims.get(p + 1, 0), dims.get(p, 0),
                           f"cdg module {name!r}: differential at degree {p}")
    weights = None
    if spec.get("weights"):
        weights = {int(k): list(v) for k, v in spec["weights"].items()}
        for p in [*weights, *(p for p, n in dims.items() if n and p not in weights)]:
            w = weights.get(p, ())
            if len(w) != dims.get(p, 0):
                raise InputError(f"cdg module {name!r}: weights list of length {len(w)} "
                                 f"at degree {p}, dim {dims.get(p, 0)}")
    cx = CdgModule(cdga, (lo, hi), dims, actions, diffs, weights)
    msg = cx.validate()
    if msg:
        raise InputError(f"cdg module {name!r}: {msg}")
    return cx


def named_free_complex(problem, name: str, bound) -> FreeUComplex:
    spec = (problem.raw.get("free_complexes") or {}).get(name)
    if spec is None:
        if name in (problem.raw.get("complexes") or {}) \
                or name in (problem.raw.get("modules") or {}):
            raise NonFreeComponentError(
                f"{name!r} is not declared as a complex of free modules")
        raise InputError(f"free complex {name!r} not declared")
    u = problem.u_truncation(bound)
    lo, hi = spec["window"]
    ranks = {int(k): int(v) for k, v in spec["ranks"].items()}
    entries = {}
    for key, mat in (spec.get("entries") or {}).items():
        p = int(key)
        entries[p] = [[_u_element(problem, u, e) for e in row] for row in mat]
    return FreeUComplex.from_entries(u, (lo, hi), ranks, entries)


def named_free_dual_complex(problem, name: str, bound):
    spec = (problem.raw.get("free_dual_complexes") or {}).get(name)
    if spec is None:
        raise InputError(f"free dual complex {name!r} not declared")
    cdga = problem.cdga(bound)
    ranks = {int(k): list(v) for k, v in spec["ranks"].items()}
    entries = {}
    for key, mat in (spec.get("entries") or {}).items():
        entries[int(key)] = [[_dual_element(problem.field, cdga.dual, e) for e in row]
                             for row in mat]
    return complex_of_free_dual_modules(cdga, ranks, entries)


def _matrix(f, rows, nrows, ncols, label) -> Matrix:
    """The matrix of ``rows``, refused, naming ``label``, unless nrows x ncols."""
    data = [[f.parse(c) for c in row] for row in rows]
    if len(data) != nrows or any(len(row) != ncols for row in data):
        raise InputError(f"{label}: matrix must be {nrows}x{ncols}")
    return Matrix.from_rows(f, data, ncols)


def _u_element(problem, u, terms):
    """A U element as a sparse column: sum of coeff * word."""
    f = problem.field
    out = {}
    for (word, coeff) in terms:
        col = u.reduce_word(tuple(problem.gen_index[g] for g in word))
        axpy(out, f.parse(coeff), col)
    return zero_free(out, f.p)


def _dual_element(f, dual, terms):
    """An A! element as {degree: sparse column}."""
    out = {}
    names = {g: i for i, g in enumerate(dual.pres.generators)}
    for (word, coeff) in terms:
        widx = tuple(names[g] for g in word)
        c = f.parse(coeff)
        axpy(out.setdefault(len(widx), {}), c, dual.project_word(widx))
    return {deg: zero_free(col, f.p) for deg, col in out.items()}


def _cone_report(name, key, out, fmap, window):
    """(code, payload, lines) of ``unit`` and ``counit``: the dims of the
    functor image ``out``, the homology of the cone of ``fmap`` on the
    window, and whether it vanishes off the edge degrees."""
    h, edges = homology_dims(cone(fmap), window)
    ok = all(v == 0 for p, v in h.items() if p not in edges)
    lines = [f"{name} dims: {dict(sorted(out.dims.items()))}",
             f"cone homology: {h}",
             f"quasi-isomorphism in interior: {ok}"]
    return (0 if ok else 1), {
        key: {str(k): v for k, v in sorted(out.dims.items())},
        "cone_homology": {str(k): v for k, v in sorted(h.items())},
        "interior_qis": ok}, lines


# -- command implementations ------------------------------------------------------


def cmd_koszul_check(problem, args, plan):
    rep = koszulness_check(problem.presentation(), plan.algebra)
    lines = [f"strands exact: {rep['strands']}",
             f"ext concentrated on the diagonal: {rep['ext_concentrated']}",
             f"koszul in window: {rep['koszul_window']}"]
    payload = {"strands": {str(k): v for k, v in rep["strands"].items()},
               "ext_concentrated": rep["ext_concentrated"],
               "ext_betti": [[list(k), v] for k, v in sorted(rep["ext_betti"].items())],
               "koszul_window": rep["koszul_window"]}
    return (0 if rep["koszul_window"] else 1), payload, lines


def cmd_apply_f(problem, args, plan):
    n = named_cdg_module(problem, args.cdg, plan.cdga)
    fc, rep = f_homology_stabilized(n, problem.u_truncation(plan.u), plan)
    lines = [f"F_i dims: {dict(sorted(fc.dims.items()))}",
             f"homology by degree: {rep.by_degree()}",
             f"stabilized over three filtration levels: {rep.stabilized}"]
    return 0, {"dims": {str(k): v for k, v in sorted(fc.dims.items())},
               "homology": rep.to_json()}, lines


def cmd_apply_g(problem, args, plan):
    m = named_complex(problem, args.complex)
    cdga = problem.cdga(plan.cdga)
    g = apply_G(m, cdga, plan)
    lines = [f"G dims: {dict(sorted(g.dims.items()))}", "validate: pass"]
    payload = {"dims": {str(k): v for k, v in sorted(g.dims.items())}}
    if cdga.curvature_is_zero:
        h, edges = homology_dims(g, plan.window)
        payload["homology"] = {str(k): v for k, v in sorted(h.items())}
        lines.append(f"homology: {h}")
    return 0, payload, lines


def cmd_adjoint_check(problem, args, plan):
    n = named_cdg_module(problem, args.cdg, plan.cdga)
    m = named_complex(problem, args.complex)
    rep = adjunction_report(n, m, problem.cdga(plan.cdga), plan)
    lines = [f"dims match: {rep['dims_match']}",
             f"differentials match: {rep['differentials_match']}",
             f"canonical map iso: {rep['iso']}",
             f"degree-0 cycles: {rep['cycle_dims']}",
             f"adjunction verified: {rep['ok']}"]
    return (0 if rep["ok"] else 1), rep, lines


def cmd_unit(problem, args, plan):
    n = named_cdg_module(problem, args.cdg, plan.cdga)
    gf, eta = unit(n, problem.u_truncation(plan.u), problem.cdga(plan.cdga), plan)
    return _cone_report("(GF)_i", "gf_dims", gf, eta, plan.window)


def cmd_counit(problem, args, plan):
    m = named_complex(problem, args.complex)
    fg, eps = counit(m, problem.u_truncation(plan.u), problem.cdga(plan.cdga), plan)
    return _cone_report("FG", "fg_dims", fg, eps, plan.window)


def cmd_ce(problem, args, plan):
    m = named_module(problem, args.module)
    fg, eps, rep = koszul_ce_complex(m, problem.u_truncation(plan.u),
                                     problem.cdga(plan.cdga), plan)
    lines = [f"CE dims: {dict(sorted(fg.dims.items()))}",
             f"homology by degree: {rep.by_degree()}"]
    return 0, {"dims": {str(k): v for k, v in sorted(fg.dims.items())},
               "homology": rep.to_json()}, lines


def cmd_tor(problem, args, plan):
    m = named_complex(problem, args.module)
    rep = tor(m, problem.cdga(plan.cdga), plan, cross_check=args.cross_check,
              u=problem.u_truncation(plan.u) if args.cross_check else None)
    a, b = args.range
    by_deg = rep.by_degree()
    dims = [by_deg.get(-p, 0) for p in range(a, b + 1)]
    lines = [f"Tor_p(k, {args.module}) for p = {a}..{b}: {dims}"]
    return 0, {"range": [a, b], "dims": dims,
               "homology": rep.to_json()}, lines


def cmd_ext(problem, args, plan):
    m = named_complex(problem, args.module)
    rep = ext(m, problem.cdga(plan.cdga), plan)
    a, b = args.range
    by_deg = rep.by_degree()
    dims = [by_deg.get(p, 0) for p in range(a, b + 1)]
    lines = [f"Ext^p(k, {args.module}) for p = {a}..{b}: {dims}"]
    return 0, {"range": [a, b], "dims": dims,
               "homology": rep.to_json()}, lines


def cmd_minimize(problem, args, plan):
    m = named_complex(problem, args.complex)
    res = minimize_G(m, problem.cdga(plan.cdga), plan)
    h, _ = homology_dims(m, m.window)
    lines = [f"socle dims of the minimal model: {res.socle_dims}",
             f"homology of the input: {h}",
             f"round-trip certificates verified: True"]
    return 0, {"socle_dims": {str(k): v for k, v in sorted(res.socle_dims.items())},
               "input_homology": {str(k): v for k, v in sorted(h.items())},
               "certified": True}, lines


def cmd_null_free(problem, args, plan):
    p = named_free_complex(problem, args.free, plan.u)
    rep = null_test_free(p, plan.filtration, plan.interior(p.window, p.entry_degree_bound()))
    lines = [f"acyclic (interior): {rep['acyclic']}",
             f"fiber acyclic: {rep['fiber_acyclic']}",
             f"in null system: {rep['in_null_system']}"]
    payload = {k: rep[k] for k in ("acyclic", "fiber_acyclic", "in_null_system")}
    payload["homology"] = {str(k): v for k, v in sorted(rep["homology"].items())}
    payload["fiber_homology"] = {str(k): v
                                 for k, v in sorted(rep["fiber_homology"].items())}
    return 0, payload, lines


def cmd_null_cofree(problem, args, plan):
    if args.free_dual:
        i = named_free_dual_complex(problem, args.free_dual, plan.cdga)
        positions = sorted({v[0] for labs in i.labels.values() for _, _, v in labs})
        window = (positions[0], positions[-1])
    else:
        i = named_cdg_module(problem, args.cdg, plan.cdga)
        window = i.window
    rep = null_test_cofree(i, problem.cdga(plan.cdga), plan.internal, plan.interior(window),
                           by_position=bool(args.free_dual))
    lines = [f"acyclic (interior): {rep['acyclic']}",
             f"socle complex acyclic: {rep['socle_acyclic']}",
             f"in null system: {rep['in_null_system']}"]
    payload = {k: rep[k] for k in ("acyclic", "socle_acyclic", "in_null_system")}
    return 0, payload, lines


def cmd_t_trunc(problem, args, plan):
    i = named_cdg_module(problem, args.cdg, plan.cdga)
    sub, quot, restr = t_truncate(i, problem.cdga(plan.cdga), args.at, plan.internal)
    lines = [f"t<=p dims: {dict(sorted(sub.dims.items()))}",
             f"t>p dims:  {dict(sorted(quot.dims.items()))}"]
    payload = {"sub_dims": {str(k): v for k, v in sorted(sub.dims.items())},
               "quot_dims": {str(k): v for k, v in sorted(quot.dims.items())}}
    if restr is not None:
        payload["restructured_dims"] = {str(k): v
                                        for k, v in sorted(restr.dims.items())}
        lines.append(f"restructured quotient dims: {dict(sorted(restr.dims.items()))}")
    return 0, payload, lines


def cmd_sigma_trunc(problem, args, plan):
    if args.cdg:
        x = named_cdg_module(problem, args.cdg, plan.cdga)
    else:
        x = named_complex(problem, args.complex)
    above, below = sigma_truncate(x, args.at)
    lines = [f"sigma>{args.at} dims: {dict(sorted(above.dims.items()))}",
             f"sigma<={args.at} dims: {dict(sorted(below.dims.items()))}"]
    return 0, {"above_dims": {str(k): v for k, v in sorted(above.dims.items())},
               "below_dims": {str(k): v for k, v in sorted(below.dims.items())}}, lines


def cmd_regrade(problem, args, plan):
    x = named_cdg_module(problem, args.cdg, plan.cdga)
    comps, _ = regrade(x, args.r)
    # (p, w) -> (p + (r - 1) w, w) is a bijection for every r: the round
    # trip is exact by construction
    lines = [f"components: {sorted(comps.items())}",
             "round trip exact: True"]
    return 0, {
        "components": [[list(k), v] for k, v in sorted(comps.items())],
        "round_trip": True}, lines


def cmd_selftest(problem, args, plan):
    import io
    from . import selftest
    buf = io.StringIO()
    failures, results = selftest.run(args.seed, corrupt_sign=args.corrupt_sign_debug, out=buf)
    lines = buf.getvalue().rstrip("\n").split("\n") if buf.getvalue() else []
    return (0 if failures == 0 else 1), {
        "seed": args.seed, "failures": failures,
        "results": results}, lines


COMMANDS = {
    "koszul-check": cmd_koszul_check,
    "apply-f": cmd_apply_f,
    "apply-g": cmd_apply_g,
    "adjoint-check": cmd_adjoint_check,
    "unit": cmd_unit,
    "counit": cmd_counit,
    "ce": cmd_ce,
    "tor": cmd_tor,
    "ext": cmd_ext,
    "minimize": cmd_minimize,
    "null-free": cmd_null_free,
    "null-cofree": cmd_null_cofree,
    "t-trunc": cmd_t_trunc,
    "sigma-trunc": cmd_sigma_trunc,
    "regrade": cmd_regrade,
    "selftest": cmd_selftest,
}
