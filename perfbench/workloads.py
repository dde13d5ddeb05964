"""The benchmark's workloads: CLI command lines and the layers they load.

A command is a template: ``{ex}`` is the repository's ``examples_cli``
directory and ``{gen}`` the directory of problem files written by
``problems.py`` for the run's seed.  Every command runs as
``koszul_kit.cli.main(argv + ["--json"])``.

Left out for run time, not for correctness: ``ce heisenberg.json`` at
default bounds (U_{<=11} over a 265,720-word ambient, over 90 s) and the
README ``minimize`` at the default ``--filtration 8`` (U_{<=13}, 11-17 s)
and at ``--filtration 7`` (U_{<=12}, 2-4 s).  A run repeats every command,
so commands are kept below a second each.
"""

# Three-generator algebras run at U_{<=6}: U_{<=7} costs about 5x as much
# (and about 4x more again for sl2 on the dense seeded basis), too long to
# repeat often enough within a run on a host whose speed drifts.
U_SIDE = [
    "ce {ex}/symmetric2.json",
    "ce {ex}/heisenberg.json --window=-4:1 --filtration 4 --degree 6",
    "counit {ex}/heisenberg.json --complex k --window=-4:1 --filtration 4 --degree 6",
    "ce {gen}/sl2.json --window=-4:1 --filtration 4 --degree 6",
    "build-u {ex}/heisenberg.json --degree 6",
    # README example at --filtration 6: U_{<=11}, built and never read
    "minimize {ex}/symmetric2.json --complex two --window=-4:4 --internal 3 --filtration 6",
]

DUAL_SIDE = [
    "koszul-check {ex}/heisenberg.json",
    "koszul-check {gen}/ext3.json --degree 6",
    "tor {gen}/sym4.json --range 0..4",
    "ext {gen}/sym4.json --range 0..4",
    "truncate {gen}/sym4.json --degree 6",
    "tor {ex}/heisenberg.json --module k --range 0..3",
    "apply-g {gen}/ext3.json --complex k --window=-8:2 --internal 8",
    "null-cofree {ex}/symmetric2.json --free-dual spliced --degree 4",
]

SMALL_CORPUS = [
    "selftest --seed 0",
    "selftest --seed 1",
    "selftest --seed 2",
    "selftest --seed 3",
    "ce {gen}/heis_f5.json --window=-5:1 --filtration 5 --degree 7",
    "ce {gen}/sl2_f32003.json --window=-5:1 --filtration 5 --degree 7",
    "koszul-check {gen}/sym3_f7.json",
    "tor {gen}/sl2_f32003.json --range 0..4",
    # every other CLI command once, at the bounds of tests/test_cli.py
    "dual {ex}/symmetric2.json",
    "truncate {ex}/symmetric2.json --degree 4",
    "pbw {ex}/heisenberg.json",
    "cdga {ex}/twopoint.json --degree 5",
    "koszul-check {ex}/symmetric2.json --degree 4",
    "apply-f {ex}/symmetric2.json --cdg gk --window=-5:1 --filtration 4 --degree 6",
    "apply-g {ex}/symmetric2.json --complex two --window=-4:2",
    "adjoint-check {ex}/symmetric2.json --cdg twostep --complex two --window=-3:3 --degree 5",
    "unit {ex}/symmetric2.json --cdg k --window=-4:1 --filtration 4",
    "counit {ex}/symmetric2.json --complex k --window=-4:1 --filtration 4",
    "build-u {ex}/heisenberg.json --degree 5",
    "ext {ex}/heisenberg.json --module k --range 0..3 --degree 6",
    # the test runs minimize at the default --filtration 8 (U_{<=13}, 11-17 s);
    # --filtration 3 keeps the command and cuts U to U_{<=8}
    "minimize {ex}/symmetric2.json --complex two --window=-4:4 --internal 3 --filtration 3",
    "null-free {ex}/symmetric2.json --free cone_id",
    "null-free {ex}/symmetric2.json --free koszul_of_k",
    "null-cofree {ex}/symmetric2.json --free-dual spliced --degree 4",
    "t-trunc {ex}/symmetric2.json --cdg gk --at 0 --degree 5 --internal 3",
    "sigma-trunc {ex}/symmetric2.json --complex two --at 0",
    "regrade {ex}/symmetric2.json --cdg gk --r 2 --degree 5",
    "unit {ex}/twopoint.json --cdg k",
]

WORKLOADS = {
    "u-side": U_SIDE,
    "dual-side": DUAL_SIDE,
    "small-corpus": SMALL_CORPUS,
}

# Commands whose correct result is known but differs from what the program
# prints today.  They are run and counted as failed until fixed; the fields
# given here are what a correct run prints.  ROADMAP item 5a: the unit check
# tests d^2 = 0 on (GF)(k), a curved cdg-module whose law is d^2 = c.(-),
# and exits 2 with "InconsistentDataError: (GF)_i output: d^2 != 0".
KNOWN_DEFECTS = {
    "unit {ex}/twopoint.json --cdg k": {"exit_code": 0, "interior_qis": True},
}

# Errors that mean an internal invariant broke rather than a refused input.
# Every problem the workloads load is of PBW type, so a CdgaInvariantError
# is never a legitimate answer here.
INVARIANT_ERRORS = ("InconsistentDataError", "CdgaInvariantError")

# Spans each workload must fire in a traced run; a span listed here that
# never fires fails the run.  Spans not listed may read 0.
EXPECTED_SPANS = {
    "u-side": [
        "deformations.build_U", "deformations.build_cdga",
        "presentations.truncate_algebra", "linalg.rref",
        "linalg.solve_sparse", "linalg.sparse_rank",
        "functors.apply_F", "functors.apply_G",
        "complexes.homology_dims", "complexes.nullhomotopy",
        "cofree.minimize_G", "suite.koszul_ce_complex", "cli.parse",
    ],
    "dual-side": [
        "deformations.build_cdga", "presentations.truncate_algebra",
        "linalg.rref", "resolution.minimal_resolution_betti",
        "functors.apply_G", "functors.apply_Fprime",
        "complexes.homology_dims", "cofree.null_test_cofree",
        "suite.koszulness_check", "suite.tor", "suite.ext", "cli.parse",
    ],
    "small-corpus": [
        "deformations.build_U", "deformations.build_cdga",
        "deformations.pbw_check", "deformations.vanishing_witness",
        "presentations.truncate_algebra", "linalg.rref",
        "linalg.solve_sparse", "linalg.sparse_rank",
        "resolution.minimal_resolution_betti",
        "functors.apply_F", "functors.apply_G", "functors.apply_Fprime",
        "functors.gf_composite", "functors.adjunction_report",
        "complexes.homology_dims", "complexes.nullhomotopy",
        "cofree.minimize_G", "cofree.null_test_cofree", "cofree.t_truncate",
        "freeside.null_test_free", "suite.koszulness_check",
        "suite.koszul_ce_complex", "suite.tor", "suite.ext",
        "selftest.run", "cli.parse",
    ],
}

# Counters of the count-only pass that each workload must move.
EXPECTED_COUNTS = {
    "u-side": ["scalars.ops", "linalg.echelon.inserts", "deformations.mult_basis.calls"],
    "dual-side": ["scalars.ops", "linalg.echelon.inserts"],
    "small-corpus": ["scalars.ops", "linalg.echelon.inserts",
                     "deformations.mult_basis.calls"],
}
