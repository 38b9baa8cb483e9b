"""Acceptance gate: every primary correctness criterion at its full stated
range, exact arithmetic, zero tolerance.

Each criterion is one test that prints a single line

    criterion-NN <what it checks>: PASS|FAIL

and then asserts.  The tests are ordered and independent; the heavy ones
(route agreement, oracle sweeps) dominate the runtime.
"""

from symvertex.config import CliConfig
from symvertex.cli import main
from symvertex.oracle import (oracle_dual_pi_schur, oracle_pi_schur,
                              oracle_plethysm, oracle_product)
from symvertex.partitions import (conjugate, partitions_of, partitions_up_to,
                                  weight)
from symvertex.plethysm import dual_pi_schur, pi_schur, plethysm
from symvertex.schurring import SymFunc
from symvertex.verifier import (SUITES, verify_clifford,
                                verify_inverse_series, verify_multivertex,
                                verify_reordering, verify_route_agreement,
                                verify_zero_modes)
from symvertex.vertexops import vertex_string


def _report(num, desc, ok, detail=""):
    line = "criterion-%02d %s: %s" % (num, desc, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_01_clifford_relations():
    rep = verify_clifford()
    _report(1, "mode anticommutators reduce to delta pairing "
               "(6 shapes, modes -3..3, states to weight 5, charges -1..1)",
            rep.passed(), "%d failures" % len(rep.failures))


def test_criterion_02_reordering_identities():
    rep = verify_reordering(window=(0, 4), test_degree=5)
    _report(2, "all four adjoint/multiplication reorderings "
               "(shapes to weight 4, exponents 0..4, inputs to weight 5)",
            rep.passed(), "%d failures" % len(rep.failures))


def test_criterion_03_zero_mode_normal_forms():
    rep = verify_zero_modes(charge_range=(-3, 3))
    _report(3, "charge-shift word products match their normal forms "
               "on charges -3..3", rep.passed(),
            "%d failures" % len(rep.failures))


def test_criterion_04_multivertex_normal_ordering():
    rep = verify_multivertex(window=(-3, 3))
    _report(4, "vertex strings equal their normal-ordered products "
               "(shapes [2],[2,1], 2..3 vertices, both kinds, "
               "exponents -3..3)", rep.passed(),
            "%d failures" % len(rep.failures))


def test_criterion_05_four_route_agreement():
    rep = verify_route_agreement(max_weight=6, max_length=3,
                                 include_oracle=True)
    _report(5, "all routes to the deformed Schur functions agree, both "
               "families, with the signed-conjugate identification "
               "(shapes to weight 4, labels to weight 6 length 3)",
            rep.passed(), "%d failures" % len(rep.failures))


def test_criterion_06_classical_recovery():
    bad = []
    for lam in partitions_up_to(6, max_length=3):
        if vertex_string((), lam) != SymFunc.schur(lam):
            bad.append(("create", lam))
        want = SymFunc.schur(conjugate(lam)).scale((-1) ** weight(lam))
        if vertex_string((), lam, dual=True) != want:
            bad.append(("annihilate", lam))
    _report(6, "empty-shape vertex strings recover the classical Schur "
               "functions (labels to weight 6 length 3)",
            not bad, "%d mismatches" % len(bad))


def test_criterion_07_inverse_series_and_hooks():
    rep = verify_inverse_series(max_sigma_weight=3, max_zweight=12)
    _report(7, "row and column series invert to degree 12 and hook skews "
               "telescope (kernel shapes to weight 3, hooks to weight 4)",
            rep.passed(), "%d failures" % len(rep.failures))


def test_criterion_08_oracle_equivalence():
    bad = []

    parts = [p for w in range(1, 10) for p in partitions_of(w)]
    for i, mu in enumerate(parts):
        for nu in parts[i:]:
            if weight(mu) + weight(nu) > 10:
                continue
            if oracle_product(mu, nu) != \
                    SymFunc.schur(mu) * SymFunc.schur(nu):
                bad.append(("product", mu, nu))

    small = [p for w in range(1, 11) for p in partitions_of(w)]
    for mu in small:
        for nu in small:
            if weight(mu) * weight(nu) > 10:
                continue
            if oracle_plethysm(mu, nu) != \
                    plethysm(mu, SymFunc.schur(nu)):
                bad.append(("plethysm", mu, nu))

    pis = [p for w in (1, 2, 3) for p in partitions_of(w)]
    for pi in pis:
        for lam in partitions_up_to(5):
            if oracle_pi_schur(pi, lam) != pi_schur(pi, lam):
                bad.append(("pi-schur", pi, lam))
            if oracle_dual_pi_schur(pi, lam) != dual_pi_schur(pi, lam):
                bad.append(("dual-pi-schur", pi, lam))

    _report(8, "ring, plethysm and deformed-Schur values match the "
               "monomial-expansion oracle (products to combined weight 10, "
               "plethysms to weight product 10, shapes to weight 3 with "
               "labels to weight 5)", not bad, "%d mismatches" % len(bad))


def test_criterion_09_plethysm_conjugation_law():
    bad = []
    small = [p for w in range(1, 11) for p in partitions_of(w)]
    for mu in small:
        for nu in small:
            if weight(mu) * weight(nu) > 10:
                continue
            lhs = plethysm(mu, SymFunc.schur(nu)).omega()
            if weight(nu) % 2 == 0:
                rhs = plethysm(mu, SymFunc.schur(conjugate(nu)))
            else:
                rhs = plethysm(conjugate(mu), SymFunc.schur(conjugate(nu)))
            if lhs != rhs:
                bad.append((mu, nu))
    _report(9, "involution of a plethysm equals the plethysm of conjugated "
               "shapes with the parity rule (weight products to 10)",
            not bad, "%d mismatches" % len(bad))


def test_criterion_10_perturbations_are_caught():
    small = {
        "reordering": dict(cases=("MM", "LL"), pis=[(2,)], window=(0, 2),
                           test_degree=3),
        "zero-modes": dict(charge_range=(-2, 2)),
        "clifford": dict(pis=((2,),), mode_range=(-1, 1), degree_bound=2,
                         charges=(0,)),
        "multivertex": dict(pis=((2,),), ms=(2,), duals=(False,),
                            window=(-2, 2)),
        "theorem2": dict(pis=[(1,), (2,)], max_weight=3, max_length=2,
                         include_oracle=False),
        "inverse-series": dict(max_sigma_weight=2, max_zweight=6,
                               hook_pis=[(2,), (1, 1)]),
    }
    vacuous = [suite for suite, kw in sorted(small.items())
               if SUITES[suite](perturb=True, **kw).passed()]
    _report(10, "every suite's deliberate mutation produces failures",
            not vacuous, "vacuous: %s" % ", ".join(vacuous))


def test_criterion_11_parallel_runs_byte_identical(capsys):
    outs = {}
    for suite, extra in (("zero-modes", []),
                         ("reordering", ["--pi", "[2]", "--window", "0..2",
                                         "--test-degree", "3"])):
        pair = []
        for jobs in ("1", "8"):
            code = main(["verify", suite, "--format", "json",
                         "--timing", "none", "--jobs", jobs] + extra)
            pair.append((code, capsys.readouterr().out))
        outs[suite] = pair
    ok = all(pair[0] == pair[1] and pair[0][0] == 0
             for pair in outs.values())
    with capsys.disabled():
        _report(11, "verification reports are byte-identical under "
                    "--jobs 1 and --jobs 8", ok)
