"""Which koszul_kit functions are traced, and the per-layer metrics they give.

One layer per library module.  Metric names are ``<module>.<function>.<stat>``
or ``<module>.<counter>``; the full list, with units, is ``PER_LAYER`` and
matches ``per_layer`` in BENCHMARK.json.
"""

from __future__ import annotations

import importlib

from tracer import CallCounter, Patcher, SpanRecorder

PACKAGE = "koszul_kit"

# (metric prefix, module, function) for every timed span
SPAN_FUNCTIONS = [
    ("deformations.build_U", "deformations", "build_U"),
    ("deformations.build_cdga", "deformations", "build_cdga"),
    ("deformations.pbw_check", "deformations", "pbw_check"),
    ("deformations.vanishing_witness", "deformations", "vanishing_witness"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.solve_sparse", "linalg", "solve_sparse"),
    ("linalg.sparse_rank", "linalg", "sparse_rank"),
    ("presentations.truncate_algebra", "presentations", "truncate_algebra"),
    ("resolution.minimal_resolution_betti", "resolution", "minimal_resolution_betti"),
    ("functors.apply_F", "functors", "apply_F"),
    ("functors.apply_G", "functors", "apply_G"),
    ("functors.apply_Fprime", "functors", "apply_Fprime"),
    ("functors.gf_composite", "functors", "gf_composite"),
    ("functors.adjunction_report", "functors", "adjunction_report"),
    ("complexes.homology_dims", "complexes", "homology_dims"),
    ("complexes.nullhomotopy", "complexes", "nullhomotopy"),
    ("cofree.minimize_G", "cofree", "minimize_G"),
    ("cofree.null_test_cofree", "cofree", "null_test_cofree"),
    ("cofree.t_truncate", "cofree", "t_truncate"),
    ("freeside.null_test_free", "freeside", "null_test_free"),
    ("freeside.free_nullhomotopy", "freeside", "free_nullhomotopy"),
    ("suite.koszulness_check", "suite", "koszulness_check"),
    ("suite.koszul_ce_complex", "suite", "koszul_ce_complex"),
    ("suite.tor", "suite", "tor"),
    ("suite.ext", "suite", "ext"),
    ("selftest.run", "selftest", "run"),
    ("cli.main", "cli", "main"),
]

# (metric prefix, module, class, method) for timed methods
SPAN_METHODS = [
    ("cli.parse", "cli", "Problem", "__init__"),
    ("cli.parse", "cli", "Problem", "deformation"),
]

FIELD_METHODS = ("zero", "one", "of_int", "parse", "format", "add", "sub",
                 "mul", "neg", "inv", "div", "is_zero", "eq")

_S = ("s", "lower")
_COUNT = ("count", "lower")
_RATIO_UP = ("ratio", "higher")

PER_LAYER = [
    ("deformations.build_U.self_s", *_S),
    ("deformations.build_U.calls", *_COUNT),
    ("deformations.build_U.ambient_words", *_COUNT),
    ("deformations.build_U.basis_dim", *_COUNT),
    ("deformations.build_U.span_dim", *_COUNT),
    ("deformations.build_U.basis_per_ambient", *_RATIO_UP),
    ("deformations.build_cdga.self_s", *_S),
    ("deformations.pbw_check.self_s", *_S),
    ("deformations.vanishing_witness.self_s", *_S),
    ("deformations.mult_basis.calls", *_COUNT),
    ("deformations.mult_basis.hit_ratio", *_RATIO_UP),
    ("linalg.echelon.inserts", *_COUNT),
    ("linalg.echelon.insert_yield", *_RATIO_UP),
    ("linalg.echelon.reduces", *_COUNT),
    ("linalg.rref.self_s", *_S),
    ("linalg.rref.calls", *_COUNT),
    ("linalg.rref.cells", *_COUNT),
    ("linalg.solve_sparse.self_s", *_S),
    ("linalg.sparse_rank.self_s", *_S),
    ("presentations.truncate_algebra.self_s", *_S),
    ("presentations.truncate_algebra.calls", *_COUNT),
    ("presentations.ambient_words", *_COUNT),
    ("presentations.basis_words", *_COUNT),
    ("presentations.basis_per_ambient", *_RATIO_UP),
    ("resolution.minimal_resolution_betti.self_s", *_S),
    ("scalars.ops", *_COUNT),
    ("scalars.is_zero.calls", *_COUNT),
    ("scalars.mul.calls", *_COUNT),
    ("scalars.inv.calls", *_COUNT),
    ("functors.apply_F.self_s", *_S),
    ("functors.apply_G.self_s", *_S),
    ("functors.apply_Fprime.self_s", *_S),
    ("functors.gf_composite.self_s", *_S),
    ("functors.adjunction_report.self_s", *_S),
    ("functors.out_dim", *_COUNT),
    ("complexes.homology_dims.self_s", *_S),
    ("complexes.nullhomotopy.self_s", *_S),
    ("cofree.minimize_G.self_s", *_S),
    ("cofree.null_test_cofree.self_s", *_S),
    ("cofree.t_truncate.self_s", *_S),
    ("freeside.null_test_free.self_s", *_S),
    ("freeside.free_nullhomotopy.self_s", *_S),
    ("suite.koszulness_check.self_s", *_S),
    ("suite.koszul_ce_complex.self_s", *_S),
    ("suite.tor.self_s", *_S),
    ("suite.ext.self_s", *_S),
    ("selftest.run.self_s", *_S),
    ("cli.parse.self_s", *_S),
    ("cli.main.self_s", *_S),
    ("cli.commands", "count", "higher"),
    ("trace.overhead_s", *_S),
]


def _module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _ambient(d, bound):
    """Words of length 0..bound over d letters."""
    return sum(d ** n for n in range(bound + 1))


def _observe_u(rec, args, u):
    rec.add("deformations.build_U.ambient_words", _ambient(u.data.base.dim, u.bound))
    rec.add("deformations.build_U.basis_dim", u.total_dim)
    rec.add("deformations.build_U.span_dim", u.span.dim())


def _observe_alg(rec, args, alg):
    rec.add("presentations.ambient_words", _ambient(alg.pres.dim, alg.bound))
    rec.add("presentations.basis_words", sum(alg.dims))


def _observe_rref(rec, args, result):
    m = args[0]
    rec.add("linalg.rref.cells", m.rows * m.cols)


def _observe_functor(rec, args, out):
    rec.add("functors.out_dim", sum(out.dims.values()))


OBSERVERS = {
    "deformations.build_U": _observe_u,
    "presentations.truncate_algebra": _observe_alg,
    "linalg.rref": _observe_rref,
    "functors.apply_F": _observe_functor,
    "functors.apply_G": _observe_functor,
    "functors.apply_Fprime": _observe_functor,
    "functors.gf_composite": _observe_functor,
}


def install_spans(patcher: Patcher, rec: SpanRecorder):
    for prefix, mod, fn in SPAN_FUNCTIONS:
        patcher.function(_module(mod), fn, rec.span(prefix, OBSERVERS.get(prefix)))
    for prefix, mod, cls, meth in SPAN_METHODS:
        patcher.method(getattr(_module(mod), cls), meth, rec.span(prefix))


def _mult_cache_hit(args):
    u, i, j = args
    return (i, j) in u._mult_cache


def install_counters(patcher: Patcher, counter: CallCounter):
    field = _module("scalars").Field
    for meth in FIELD_METHODS:
        patcher.method(field, meth, counter.calls(f"scalars.{meth}.calls", also="scalars.ops"))
    span = _module("linalg").EchelonSpan
    patcher.method(span, "insert", counter.calls_and_true(
        "linalg.echelon.inserts", "linalg.echelon.grew"))
    patcher.method(span, "reduce", counter.calls("linalg.echelon.reduces"))
    patcher.method(_module("deformations").FilteredAlgebraTruncation, "mult_basis",
                   counter.calls_and_hits("deformations.mult_basis.calls",
                                          "deformations.mult_basis.hits",
                                          _mult_cache_hit))


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(rec: SpanRecorder) -> dict:
    out = {}
    for name, (calls, _total, self_s) in rec.spans.items():
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    out.update(rec.sizes)
    out["deformations.build_U.basis_per_ambient"] = _ratio(
        rec.sizes.get("deformations.build_U.basis_dim", 0),
        rec.sizes.get("deformations.build_U.ambient_words", 0))
    out["presentations.basis_per_ambient"] = _ratio(
        rec.sizes.get("presentations.basis_words", 0),
        rec.sizes.get("presentations.ambient_words", 0))
    return out


def count_metrics(counter: CallCounter) -> dict:
    v = counter.value
    return {
        "scalars.ops": v("scalars.ops"),
        "scalars.is_zero.calls": v("scalars.is_zero.calls"),
        "scalars.mul.calls": v("scalars.mul.calls"),
        "scalars.inv.calls": v("scalars.inv.calls"),
        "linalg.echelon.inserts": v("linalg.echelon.inserts"),
        "linalg.echelon.insert_yield": _ratio(v("linalg.echelon.grew"),
                                              v("linalg.echelon.inserts")),
        "linalg.echelon.reduces": v("linalg.echelon.reduces"),
        "deformations.mult_basis.calls": v("deformations.mult_basis.calls"),
        "deformations.mult_basis.hit_ratio": _ratio(v("deformations.mult_basis.hits"),
                                                    v("deformations.mult_basis.calls")),
    }
