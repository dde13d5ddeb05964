"""Command-line front end: parse problem files, dispatch operations, and
emit human-readable tables or canonical machine-readable JSON.

One self-describing JSON schema covers all inputs; scalars are strings
("3", "-1/2", residues) so golden files are language-portable.  Exit
codes: 0 success, 1 a requested check failed, 2 input or usage error.

This module holds the parser, the problem file's algebra part (A, A!, U
and the curved dga) and the five commands on the algebras alone, and
imports only the algebra layer.  The other commands, with the modules,
complexes and functors they build, are in ``module_commands``, which
``main`` imports only when one of them is chosen.

A command line that starts with a command name is parsed by that
command's parser alone (``parse_args``).  Only help, usage errors,
options before the command and tokens the command leaves over build the
full tree (``build_parser``, every command's parser), and both read the
same.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

from .deformations import (
    DeformationData,
    build_cdga,
    build_U,
    pbw_check,
    vanishing_witness,
)
from .errors import (
    CdgaInvariantError,
    DegreeOverflowError,
    InputError,
    KoszulKitError,
    WellDefinednessError,
)
from .linalg import Matrix, zero_free
from .presentations import QuadraticPresentation
from .scalars import Field

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

    def cdga(self, bound):
        if bound not in self._cdga:
            self._cdga[bound] = build_cdga(self.deformation(), bound)
        return self._cdga[bound]


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


# -- command implementations ------------------------------------------------------


def nonnegative(args, *flags):
    """Refuse a negative value of each named flag, naming the flag and the
    value given."""
    for flag in flags:
        v = getattr(args, flag)
        if v < 0:
            raise InputError(f"--{flag} must be >= 0: got {v}")


def cmd_dual(problem, args):
    p = problem.presentation()
    dual = p.dual()
    f = problem.field
    rel = [[f.format(x) for x in row] for row in dual.relations.to_rows()]
    lines = [f"dual generators: {' '.join(dual.generators)}",
             f"dim R = {p.num_relations}, dim Rperp = {dual.relations.rows}"]
    for row in rel:
        lines.append("  " + " ".join(row))
    return 0, {"generators": list(dual.generators), "relations": rel}, lines


def cmd_truncate(problem, args):
    nonnegative(args, "degree")
    p = problem.presentation()
    alg = p.truncation(args.degree)
    dual = p.dual().truncation(args.degree)
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
    nonnegative(args, "degree")
    u = problem.u_truncation(args.degree)
    alg = problem.presentation().truncation(args.degree)
    pbw_levels = [u.gr_dims[n] == alg.dim_at(n) for n in range(args.degree + 1)]
    lines = [f"gr dims: {u.gr_dims}",
             f"A dims:  {list(alg.dims)}",
             f"total dim: {u.total_dim}",
             f"PBW per level: {pbw_levels}"]
    return 0, {"gr_dims": u.gr_dims, "a_dims": list(alg.dims),
               "total_dim": u.total_dim, "pbw_levels": pbw_levels}, lines


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


# name -> the arguments its parser adds to the common ones
COMMANDS = {
    "dual": (),
    "truncate": (),
    "pbw": (),
    "cdga": (),
    "build-u": (),
    "koszul-check": (),
    "apply-f": ("cdg",),
    "apply-g": ("complex",),
    "adjoint-check": ("cdg", "complex"),
    "unit": ("cdg",),
    "counit": ("complex",),
    "ce": ("module",),
    "tor": ("module", "range", "cross_check"),
    "ext": ("module", "range"),
    "minimize": ("complex",),
    "null-free": ("free",),
    "null-cofree": ("cdg?", "free_dual?"),
    "t-trunc": ("cdg", "at"),
    "sigma-trunc": ("cdg?", "complex?", "at"),
    "regrade": ("cdg", "r"),
    "selftest": ("seed", "corrupt_sign_debug"),
}

# The commands on the algebras alone; the others are in ``module_commands``.
ALGEBRA_COMMANDS = {
    "dual": cmd_dual,
    "truncate": cmd_truncate,
    "pbw": cmd_pbw,
    "cdga": cmd_cdga,
    "build-u": cmd_build_u,
}


def _add_arguments(sp, name):
    """Add the arguments of command ``name`` to its parser ``sp``."""
    extras = COMMANDS[name]
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
        sp.add_argument("--cross-check", dest="cross_check", action="store_true",
                        help="also read Tor off k tensor_U FG(M); that complex is G(M) "
                             "again, so this only re-checks F's unit rows")
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


def _help_formatter():
    """argparse's default help width, read from the terminal once per
    build: by default every formatter reads it."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser():
    """The full parser tree: the top level and one parser per command."""
    formatter = _help_formatter()
    ap = argparse.ArgumentParser(
        prog="koszul-kit",
        description="Exact Koszul-duality computations for nonhomogeneous "
                    "quadratic algebras and their curved dual dgas.",
        formatter_class=formatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_arguments(sub.add_parser(name, formatter_class=formatter), name)
    return ap


def parse_args(argv):
    """The namespace of ``argv``, as ``build_parser().parse_args(argv)``
    gives it.

    When ``argv`` starts with a command name, the top level would hand all
    the rest to that command's parser, so that parser alone is built, as
    argparse's ``add_parser`` builds it (prog "koszul-kit <name>", the same
    formatter and arguments): its help, usage and errors read the same.
    Only tokens left over need the top level, which reports them as
    unrecognized; then, and for every argv not starting with a command
    name (help, usage errors, options before the command), the full tree
    parses ``argv``.
    """
    if argv and argv[0] in COMMANDS:
        sp = argparse.ArgumentParser(prog=f"koszul-kit {argv[0]}",
                                     formatter_class=_help_formatter())
        _add_arguments(sp, argv[0])
        args, rest = sp.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    fn = ALGEBRA_COMMANDS.get(args.command)
    if fn is None:
        # the module and functor layer, with everything it needs, loaded at
        # once: a tracer that wraps functions by name finds all of it bound
        from . import module_commands
        fn = module_commands.COMMANDS[args.command]
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
    except DegreeOverflowError as e:
        # every A and A! truncation a command builds is bounded by --degree
        # or by a value derived from it
        sys.stderr.write(f"input error: {e}; raise --degree\n")
        return 2
    except KoszulKitError as e:
        # every other toolkit error exits 2 as well: preconditions violated
        # by the input data (curved input where c = 0 is required, non-free
        # or non-cofree complexes, missing weights), and also a runtime
        # certificate that failed on a computed result
        # (InconsistentDataError, CdgaInvariantError outside ``cdga``), which
        # is a fault of the program, not of the input; telling the two
        # apart is ROADMAP item 8
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
