"""Built-in invariant corpus for the selftest command.

Runs the worked examples plus seeded randomized property checks and
prints one PASS/FAIL line per invariant.  The sign-corruption debug hook
flips the sign in the derivation extension so the Leibniz invariant is
the first thing to fail, as a negative control of the checker itself.
"""

from __future__ import annotations

import random
import sys

from .complexes import (
    CdgModule,
    UComplex,
    UModule,
    cone,
    homology_dims,
)
from .deformations import (
    DeformationData,
    build_cdga,
    build_U,
    pbw_check,
    vanishing_witness,
)
from .errors import KoszulKitError
from .functors import FunctorBounds, KoszulBimodule, adjunction_report, apply_G, counit, unit
from .linalg import Matrix, kernel_basis, rank, rref, solve
from .presentations import QuadraticPresentation, double_dual_check
from .scalars import Field, QQ


def _sym_presentation(f, dim):
    d = dim
    rows = [{i * d + j: f.one(), j * d + i: f.neg(f.one())}
            for i in range(d) for j in range(i + 1, d)]
    return QuadraticPresentation(f, [f"x{i+1}" for i in range(d)],
                                 Matrix(f, d * d, rows).transpose())


def _heisenberg(f):
    rel = Matrix.from_int_rows(f, [
        [0, 1, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, -1, 0]])
    alpha = Matrix.from_int_rows(f, [[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    return DeformationData.from_raw(f, ["x1", "x2", "x3"], rel, alpha,
                                    [f.zero()] * 3)


def _twopoint(f):
    return DeformationData.from_raw(
        f, ["x"], Matrix.from_int_rows(f, [[1]]),
        Matrix.from_int_rows(f, [[-3]]), [f.of_int(2)])


def _random_matrix(f, rng, rows, cols, span=5):
    return Matrix.from_rows(f, [[f.of_int(rng.randrange(-span, span + 1))
                                 for _ in range(cols)] for _ in range(rows)], cols)


def run(seed: int, corrupt_sign=False, out=sys.stdout):
    rng = random.Random(seed)
    results = []
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        results.append([name, "PASS" if ok else "FAIL"])
        if not ok:
            failures += 1
        out.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")

    f = QQ
    f5 = Field(5)
    f3 = Field(3)

    def rref_idempotent():
        for _ in range(10):
            m = _random_matrix(f, rng, rng.randint(1, 5), rng.randint(1, 5))
            r1, p1 = rref(m)
            r2, p2 = rref(r1)
            if not r1.eq(r2) or p1 != p2:
                return False
        return True
    check("linalg: rref idempotent", rref_idempotent)

    def rank_transpose():
        for _ in range(10):
            m = _random_matrix(f5, rng, rng.randint(1, 5), rng.randint(1, 5))
            if rank(m) != rank(m.transpose()):
                return False
        return True
    check("linalg: rank equals rank of the transpose", rank_transpose)

    def kernel_annihilated():
        for _ in range(10):
            m = _random_matrix(f, rng, rng.randint(1, 4), rng.randint(1, 5))
            k = kernel_basis(m)
            if k.cols and not m.mul(k).is_zero():
                return False
            if k.cols != m.cols - rank(m):
                return False
        return True
    check("linalg: kernel basis is annihilated, dimension matches", kernel_annihilated)

    def solve_roundtrip():
        for _ in range(10):
            m = _random_matrix(f, rng, rng.randint(1, 4), rng.randint(1, 4))
            x0 = [f.of_int(rng.randrange(-3, 4)) for _ in range(m.cols)]
            b = m.apply({j: v for j, v in enumerate(x0) if v})
            x = solve(m, b)
            if x is None or m.apply(x) != b:
                return False
        return True
    check("linalg: solve round-trip", solve_roundtrip)

    def dual_involutive():
        for _ in range(8):
            d = rng.randint(1, 3)
            nrel = rng.randint(0, d * d)
            rel = _random_matrix(f5, rng, nrel, d * d)
            p = QuadraticPresentation(f5, [f"x{i}" for i in range(d)], rel)
            if not double_dual_check(p, 3):
                return False
        return True
    check("quadratic: double dual is the identity (random over F_5)", dual_involutive)

    sym2 = _sym_presentation(f, 2)

    def sv_dual():
        return sym2.dual().truncation(4).dims == (1, 2, 1, 0, 0)
    check("quadratic: dual of S(V) is E(V*)", sv_dual)

    def euler_pairing():
        a = sym2.truncation(6)
        e = sym2.dual().truncation(6)
        for n in range(1, 6):
            s = 0
            for i in range(0, n + 1):
                s += (-1) ** i * a.dim_at(n - i) * e.dim_at(i)
            if s != 0:
                return False
        return True
    check("quadratic: Koszul-pair Euler characteristic vanishes", euler_pairing)

    heis = _heisenberg(f)

    def leibniz_check():
        for data in (_twopoint(f), heis):
            alg = build_cdga(data, 4, check=False, _sign_debug=corrupt_sign)
            if alg.verify() is not None:
                return False
        return True
    check("cdga: Leibniz and curvature axioms (k[x] and Heisenberg)", leibniz_check)

    def pbw_equiv():
        rel3 = Matrix.from_int_rows(f3, [
            [0, 1, 0, 2, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 2, 0]])
        # rel3 is its own rref, so from_raw(f3, gens, rel3, ar, bb) keeps
        # ar and bb as they are: every draw shares one base, and its A!
        base = DeformationData.from_raw(f3, ["x", "y", "z"], rel3).base
        for _ in range(20):
            ar = _random_matrix(f3, rng, 3, 3, span=2)
            bb = [f3.of_int(rng.randrange(3)) for _ in range(3)]
            d3 = DeformationData(base, ar.transpose(), Matrix.from_rows(f3, [bb]))
            bg = pbw_check(d3).all_pass
            try:
                alg = build_cdga(d3, 4)
            except KoszulKitError:
                alg = None
            if bg != (alg is not None):
                return False
            if bg and not vanishing_witness(d3, cdga=alg):
                return False
        return True
    check("deformation: PBW conditions match the cdga construction (random F_3)",
          pbw_equiv)

    twop = _twopoint(f)

    def golden_twopoint():
        alg = build_cdga(twop, 5)
        d1 = alg.d(1).entry(0, 0)
        d2 = alg.d(2).entry(0, 0)
        d3 = alg.d(3).entry(0, 0)
        return (f.eq(alg.curvature[0], f.of_int(2)) and f.eq(d1, f.of_int(-3))
                and f.is_zero(d2) and f.eq(d3, f.of_int(-3)))
    check("deformation: k[x]/(x^2-3x+2) golden values", golden_twopoint)

    def witness_all():
        return (vanishing_witness(heis) and vanishing_witness(twop)
                and vanishing_witness(DeformationData.trivial(sym2)))
    check("deformation: vanishing lemma witness", witness_all)

    def bimodule_curv():
        u2 = build_U(twop, 4)
        alg2 = build_cdga(twop, 5)
        t2 = KoszulBimodule(u2, alg2)
        for r in range(2):
            if not t2.check_delta_squared(1, r):
                return False
        uh = build_U(heis, 4)
        algh = build_cdga(heis, 4)
        th = KoszulBimodule(uh, algh)
        return th.check_delta_squared(1, 0)
    check("bimodule: delta^2 = -(.c) exactly", bimodule_curv)

    def counit_unit_qis():
        s = DeformationData.trivial(sym2)
        u = build_U(s, 7)
        alg = build_cdga(s, 4)
        b = FunctorBounds((-4, 1), 4, 3)
        k = UModule.trivial(s)
        kc = UComplex(s, (0, 0), {0: k}, {})
        fg, eps = counit(kc, u, alg, b)
        h1, e1 = homology_dims(cone(eps), (-3, 1))
        kcdg = CdgModule(alg, (0, 0), {0: 1}, {}, {})
        gf, eta = unit(kcdg, u, alg, b)
        h2, e2 = homology_dims(cone(eta), (-3, 1))
        inner = lambda h, e: all(v == 0 for p, v in h.items() if p not in e)
        return inner(h1, e1) and inner(h2, e2)
    check("functors: counit and unit are quasi-isomorphisms (S(V))", counit_unit_qis)

    def g_images_validate():
        s = DeformationData.trivial(sym2)
        alg = build_cdga(s, 4)
        b = FunctorBounds((-4, 2), 4, 3)
        k = UModule.trivial(s)
        k2 = k.direct_sum(k)
        dmat = _random_matrix(f, rng, 2, 2, span=1)
        # make it U-linear (any scalar matrix works on trivial modules)
        m = UComplex(s, (0, 1), {0: k2, 1: k2}, {0: dmat})
        try:
            apply_G(m, alg, b)
        except KoszulKitError:
            return False
        return True
    check("functors: G images satisfy the cdg-module axioms", g_images_validate)

    def adjunction_random():
        heis5 = _heisenberg(f5)
        alg = build_cdga(heis5, 4)
        for _ in range(5):
            n_dims = {0: rng.randint(1, 2), 1: rng.randint(1, 2)}
            acts = {0: [_random_matrix(f5, rng, n_dims[1], n_dims[0], 2)
                        for _ in range(3)]}
            diffs = {0: _random_matrix(f5, rng, n_dims[1], n_dims[0], 2)}
            n = CdgModule(alg, (0, 1), n_dims, acts, diffs)
            k = UModule.trivial(heis5)
            m = UComplex(heis5, (0, 1), {0: k, 1: k},
                         {0: _random_matrix(f5, rng, 1, 1, 2)})
            if not adjunction_report(n, m, alg, FunctorBounds((-3, 3), 4, 4))["ok"]:
                return False
        return True
    check("functors: tensor-hom adjunction on random pairs (F_5)", adjunction_random)

    def tor_heis():
        from .suite import tor
        algh = build_cdga(heis, 5)
        k = UModule.trivial(heis)
        kc = UComplex(heis, (0, 0), {0: k}, {})
        rep = tor(kc, algh, FunctorBounds((-5, 1), 5, 4))
        by = rep.by_degree()
        return [by.get(-p, 0) for p in range(4)] == [1, 2, 2, 1]
    check("suite: Tor of the Heisenberg enveloping algebra is (1,2,2,1)", tor_heis)

    def ext_duality():
        from .suite import koszulness_check
        rep = koszulness_check(sym2, 4)
        return rep["koszul_window"]
    check("suite: Ext algebra concentrated with dual dimensions (S(V))", ext_duality)

    def determinism():
        r1 = random.Random(seed)
        r2 = random.Random(seed)
        return all(r1.randrange(100) == r2.randrange(100) for _ in range(50))
    check("harness: seeded randomness is reproducible", determinism)

    return failures, results
