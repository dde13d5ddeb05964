"""Seeded problem files for the benchmark workloads.

Each generated problem is presentation-only: a field, generators, quadratic
relations and (for Lie algebras) the linear part alpha.  Seed 0 writes the
presentations as stated below.  A seed s > 0 substitutes x_a -> sum_b M[a][b] x_b
for a seeded invertible integer matrix M (see ``change_of_basis``).  The algebra
is the same up to isomorphism, so every dimension and verdict is kept,
while the density of the relation rows and the fill-in during elimination
change.  The matrix is unimodular, so no new denominators appear over Q.

    python3 perfbench/problems.py OUT_DIR --seed N
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

# name -> (field spec, generator names, relations as {(a, b): c},
#          alpha as {relation index: {generator: c}})
_Q = {"type": "Q"}


def _fp(p):
    return {"type": "Fp", "p": p}


def _symmetric(dim):
    rels = []
    for i in range(dim):
        for j in range(i + 1, dim):
            rels.append({(i, j): 1, (j, i): -1})
    return rels, {}


def _exterior(dim):
    rels = [{(i, i): 1} for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            rels.append({(i, j): 1, (j, i): 1})
    return rels, {}


def _sl2():
    # generators e, f, h:  ef - fe = h,  he - eh = 2e,  hf - fh = -2f
    rels = [{(0, 1): 1, (1, 0): -1},
            {(2, 0): 1, (0, 2): -1},
            {(2, 1): 1, (1, 2): -1}]
    alpha = {0: {2: -1}, 1: {0: -2}, 2: {1: 2}}
    return rels, alpha


def _heisenberg():
    rels = [{(0, 1): 1, (1, 0): -1},
            {(0, 2): 1, (2, 0): -1},
            {(1, 2): 1, (2, 1): -1}]
    return rels, {0: {2: -1}}


SPECS = {
    "sl2": (_Q, ["e", "f", "h"], _sl2),
    "sym3": (_Q, ["x1", "x2", "x3"], lambda: _symmetric(3)),
    "sym4": (_Q, ["x1", "x2", "x3", "x4"], lambda: _symmetric(4)),
    "ext3": (_Q, ["x1", "x2", "x3"], lambda: _exterior(3)),
    "heis_f5": (_fp(5), ["x1", "x2", "x3"], _heisenberg),
    "sl2_f32003": (_fp(32003), ["e", "f", "h"], _sl2),
    "sym3_f7": (_fp(7), ["x1", "x2", "x3"], lambda: _symmetric(3)),
}


def change_of_basis(dim: int, seed: int):
    """Seeded unimodular integer matrix; the identity for seed 0.

    For s > 0 it is P.S.L.U with L and U the all-ones lower and upper
    triangular matrices, S a seeded diagonal of signs and P a seeded
    permutation.  Every entry of L.U is nonzero, so every seed gives fully
    dense relations of the same shape: the work per seed stays within about
    1% (counted in scalar operations), while it differs from seed 0.
    """
    if seed == 0:
        return [[int(a == b) for b in range(dim)] for a in range(dim)]
    rng = random.Random(seed)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    perm = list(range(dim))
    rng.shuffle(perm)
    # (L.U)[a][b] = min(a, b) + 1
    return [[signs[a] * (min(perm[a], b) + 1) for b in range(dim)] for a in range(dim)]


def _fmt(c: Fraction, field) -> str:
    if field["type"] == "Fp":
        return str(c % field["p"])
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def problem(name: str, seed: int) -> dict:
    field, gens, build = SPECS[name]
    rels, alpha = build()
    d = len(gens)
    m = change_of_basis(d, seed)
    out_rels, out_alpha = [], []
    for r, rel in enumerate(rels):
        quad = {}
        for (a, b), c in rel.items():
            for i in range(d):
                for j in range(d):
                    v = c * m[a][i] * m[b][j]
                    if v:
                        quad[(i, j)] = quad.get((i, j), 0) + v
        lin = {}
        for g, c in alpha.get(r, {}).items():
            for i in range(d):
                if m[g][i]:
                    lin[i] = lin.get(i, 0) + c * m[g][i]
        terms = [[gens[i], gens[j], _fmt(Fraction(c), field)]
                 for (i, j), c in sorted(quad.items()) if _nonzero(c, field)]
        out_rels.append(terms)
        out_alpha.append([[gens[i], _fmt(Fraction(c), field)]
                          for i, c in sorted(lin.items()) if _nonzero(c, field)])
    raw = {"field": field, "generators": gens, "relations": out_rels}
    if alpha:
        raw["alpha"] = out_alpha
        raw["beta"] = ["0"] * len(rels)
    return raw


def _nonzero(c, field) -> bool:
    return c % field["p"] != 0 if field["type"] == "Fp" else c != 0


def write_problems(out_dir: str, seed: int) -> dict:
    """Write every generated problem as OUT_DIR/<name>.json; return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name in SPECS:
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(problem(name, seed), fh, indent=1, sort_keys=True)
        paths[name] = path
    return paths


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for name, path in write_problems(args.out_dir, args.seed).items():
        print(name, path)


if __name__ == "__main__":
    main()
