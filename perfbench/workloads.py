"""The benchmark's workloads: seeded inputs, one round, and the checks.

A workload object holds the inputs made from the seed.  `round()` runs
them once and returns one record per operation; the records of every round
go to `check()` after the timed phase.  An operation record has "ok"
(False when the operation failed: a traceback, a refusal, a crash), "s"
(its latency) and "trace" (the traced child's export, or None).
"""

import functools
import importlib
import io
import json
import math
import random
import time
from contextlib import redirect_stdout

import checker
import child
from checker import (CheckError, conjugate, expansion_from_json,
                     partitions)

CHILD_TIMEOUT = 150


def fmt(p):
    return "[" + ",".join(str(x) for x in p) + "]"


def proper(w, max_len=None):
    """Partitions of w that are neither one row nor one column, so that
    products and skews take the character-table path, not Pieri."""
    return [p for p in partitions(w)
            if len(p) > 1 and p[0] > 1
            and (max_len is None or len(p) <= max_len)]


def contains(outer, inner):
    return len(inner) <= len(outer) and all(
        a <= b for a, b in zip(inner, outer))


def dominated(a, b):
    """a <= b in the dominance order (equal weights)."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


@functools.lru_cache(maxsize=None)
def monomial_count(lam, n):
    """Number of distinct monomials of s_lam in n variables: the
    rearrangements of every partition that lam dominates."""
    total = 0
    for mu in partitions(sum(lam)):
        if len(mu) > n or not dominated(mu, lam):
            continue
        ways, left = 1, n
        for part in set(mu):
            k = mu.count(part)
            ways *= math.comb(left, k)
            left -= k
        total += ways
    return total


def product_work(mu, nu):
    """Cost proxy of a monomial-expansion product: the monomials of every
    Schur polynomial in the dominance interval from mu+nu (rows merged) up
    to mu+nu (rows added), in |mu|+|nu| variables."""
    n = sum(mu) + sum(nu)
    rows = max(len(mu), len(nu))
    top = tuple(sorted(((mu[i] if i < len(mu) else 0)
                        + (nu[i] if i < len(nu) else 0)
                        for i in range(rows)), reverse=True))
    bottom = tuple(sorted(mu + nu, reverse=True))
    return sum(monomial_count(lam, n) for lam in partitions(n)
               if dominated(bottom, lam) and dominated(lam, top))


def omega_forms(kind, args):
    """The forms of a query that the involution omega maps onto each other;
    every form costs the ring the same work."""
    c = conjugate
    if kind == "product":
        mu, nu = args
        return [(kind, p) for p in ((mu, nu), (nu, mu), (c(mu), c(nu)),
                                    (c(nu), c(mu)))]
    if kind == "skew":
        lam, mu = args
        return [(kind, (lam, mu)), (kind, (c(lam), c(mu)))]
    if kind == "plethysm":
        outer, inner = args
        odd = sum(inner) % 2
        return [(kind, args), (kind, (c(outer) if odd else outer, c(inner)))]
    if kind == "series":
        family, shape, r = args
        other = {"M": "L", "L": "M"}[family] if sum(shape) % 2 else family
        return [(kind, args), (kind, (other, c(shape), r))]
    if kind == "branch":
        pi, lam = args
        return ([(kind, args), (kind, (c(pi), c(lam)))] if sum(pi) % 2 == 0
                else [(kind, args)])
    # a deformed Schur value and the companion value at the conjugate
    # label run the same computation
    pi, lam = args
    other = {"pi-schur": "dual-pi-schur", "dual-pi-schur": "pi-schur"}[kind]
    return [(kind, args), (other, (pi, c(lam)))]


def stratified(items, key, strata, picks, rng):
    """Sort items by key, cut them into `strata` runs of near-equal size,
    and take one item from each run listed in `picks`: drawn with rng, or
    the middle one when rng is None."""
    ranked = sorted(items, key=key)
    out = []
    for s in picks:
        lo = s * len(ranked) // strata
        hi = (s + 1) * len(ranked) // strata
        out.append(ranked[rng.randrange(lo, hi) if rng else (lo + hi) // 2])
    return out


def per_operation(rounds):
    """Each operation's latency in every round: one list per operation."""
    return [[ops[i]["s"] for ops in rounds] for i in range(len(rounds[0]))]


def _modules(*names):
    """The package's modules by name (the package namespace rebinds
    `plethysm` to the function of that name)."""
    return [importlib.import_module("symvertex." + n) for n in names]


def _cli_call(argv, tracer, query):
    """One CLI call in this (child) process, stdout captured."""
    from symvertex import cli
    if tracer:
        tracer.reset()
        tracer.query = query
    buf = io.StringIO()
    err = None
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a traceback is a failed operation
        code, err = None, repr(e)
    elapsed = time.perf_counter() - start
    return {"code": code, "out": buf.getvalue(), "err": err, "s": elapsed,
            "trace": tracer.export() if tracer else None}


# #### kernel-cold ####

class KernelCold:
    """Ring queries through the CLI, each in a fresh child (cold memos).

    The batch is fixed by kind and weight.  For each query the seed draws
    one of its forms under the involution omega (conjugate every shape,
    swap the two families where the parity rule says so, swap the factors
    of a product); omega maps one answer to the other and leaves the
    character-table work unchanged, so seeds change the inputs but not the
    amount of work.  Product and skew shapes are never one row or one
    column, so they all pay for character tables.  Twelve queries cost
    within about a quarter of the median query, so that one overtaking
    another moves `query_p50_ms` by a few per cent.
    """

    name = "kernel-cold"
    BATCH = [
        ("product", ((3, 2, 1), (2, 2, 1))),
        ("product", ((4, 2, 1), (3, 2, 2))),
        ("product", ((4, 3, 1), (3, 3, 2))),
        ("product", ((4, 2, 1), (3, 2, 1))),
        ("product", ((4, 3), (3, 2, 1))),
        ("product", ((4, 2, 2), (3, 2, 1))),
        ("skew", ((5, 4, 3, 2), (3, 2, 1))),
        ("skew", ((6, 4, 3, 2, 1), (3, 2))),
        ("skew", ((6, 5, 3, 2), (2, 2))),
        ("skew", ((6, 4, 3, 2, 1), (2, 2))),
        ("plethysm", ((2, 1), (2, 2))),
        ("plethysm", ((2, 2), (3,))),
        ("series", ("L", (2, 2), 4)),
        ("series", ("M", (2, 1), 5)),
        ("series", ("M", (2, 1), 4)),
        ("pi-schur", ((2, 1), (4, 3, 3, 2))),
        ("pi-schur", ((2,), (4, 3, 2, 1))),
        ("pi-schur", ((1, 1), (4, 3, 2, 1))),
        ("pi-schur", ((2,), (4, 4, 2))),
        ("dual-pi-schur", ((2, 1), (4, 3, 2, 1))),
        ("branch", ((2,), (4, 3, 2, 1))),
        ("branch", ((2, 1), (5, 4, 3))),
        ("branch", ((2,), (5, 4, 3))),
        ("branch", ((2,), (5, 3, 3, 1))),
    ]

    def __init__(self, seed):
        rng = random.Random("kernel-cold-%d" % seed)
        self.queries = []

        def add(kind, argv, weight, **params):
            budget = ["--degree-budget", str(weight)] if weight > 14 else []
            self.queries.append({"kind": kind,
                                 "argv": [kind] + argv + budget
                                 + ["--format", "json", "--jobs", "1"],
                                 **params})

        for kind, args in self.BATCH:
            kind, args = rng.choice(omega_forms(kind, args))
            if kind == "product":
                mu, nu = args
                add(kind, ["--mu", fmt(mu), "--nu", fmt(nu)],
                    sum(mu) + sum(nu), mu=mu, nu=nu)
            elif kind == "skew":
                lam, mu = args
                add(kind, ["--lambda", fmt(lam), "--mu", fmt(mu)], sum(lam),
                    lam=lam, mu=mu)
            elif kind == "plethysm":
                outer, inner = args
                add(kind, ["--outer", fmt(outer), "--inner", fmt(inner)],
                    sum(outer) * sum(inner), outer=outer, inner=inner)
            elif kind == "series":
                family, shape, r = args
                add(kind, ["--family", family, "--shape", fmt(shape),
                           "--max-r", str(r)], r * sum(shape),
                    family=family, shape=shape, max_r=r)
            elif kind == "branch":
                pi, lam = args
                add(kind, ["--pi", fmt(pi), "--lambda", fmt(lam)], sum(lam),
                    pi=pi, lam=lam)
            else:
                pi, lam = args
                for route in ("perp", "cauchy"):
                    add(kind, ["--pi", fmt(pi), "--lambda", fmt(lam),
                               "--route", route], sum(lam),
                        pi=pi, lam=lam, route=route)
        rng.shuffle(self.queries)
        # deformed Schur values checked against the oracle, outside the
        # timed phase: one label of weight 4 per shape in the batch
        self.oracle_cases = sorted({
            (q["pi"], rng.choice(partitions(4)))
            for q in self.queries if q["kind"].endswith("pi-schur")})

    def round(self, k, tracer):
        out = []
        for i, q in enumerate(self.queries):
            res = child.run(
                lambda: _cli_call(q["argv"], tracer, "r%d.q%d" % (k, i)),
                CHILD_TIMEOUT)
            res["ok"] = res["code"] == 0
            out.append(res)
        return out

    def latencies(self, rounds):
        return per_operation(rounds)

    def check(self, rounds):
        first = rounds[0]
        for ops in rounds[1:]:
            for q, a, b in zip(self.queries, first, ops):
                if a["ok"] and b["ok"] and a["out"] != b["out"]:
                    raise CheckError("%s: output differs between rounds"
                                     % " ".join(q["argv"]))
        values = {}
        for q, op in zip(self.queries, first):
            if not op["ok"]:
                continue
            obj = json.loads(op["out"])
            kind = q["kind"]
            if kind == "product":
                checker.check_product(q["mu"], q["nu"],
                                      expansion_from_json(obj))
            elif kind == "skew":
                checker.check_skew(q["lam"], q["mu"],
                                   expansion_from_json(obj))
            elif kind == "plethysm":
                checker.check_plethysm(q["outer"], q["inner"],
                                       expansion_from_json(obj))
            elif kind == "series":
                if len(obj["terms"]) != q["max_r"] + 1:
                    raise CheckError("series: %d terms for max_r=%d"
                                     % (len(obj["terms"]), q["max_r"]))
                for r, terms in enumerate(obj["terms"]):
                    checker.check_series_term(q["family"], q["shape"], r,
                                              expansion_from_json(terms))
            else:
                key = (kind, q["pi"], q["lam"])
                values.setdefault(key, {})[q.get("route")] = obj
        for (kind, pi, lam), by_route in values.items():
            if len({json.dumps(v) for v in by_route.values()}) != 1:
                raise CheckError("%s pi=%s lambda=%s: perp and cauchy differ"
                                 % (kind, fmt(pi), fmt(lam)))
        cases = [(kind, pi, lam, next(iter(by_route.values())))
                 for (kind, pi, lam), by_route in sorted(values.items())]
        problems = child.run(
            lambda: _library_checks(cases, self.oracle_cases), CHILD_TIMEOUT)
        if problems:
            raise CheckError("; ".join(problems))


def _library_checks(cases, oracle_cases):
    """Round trips and oracle agreement for deformed Schur values (runs in
    a child, after the timed phase)."""
    oracle, plethysm = _modules("oracle", "plethysm")
    from symvertex.jsonform import symfunc_from_obj
    from symvertex.schurring import SymFunc
    problems = []
    for kind, pi, lam, obj in cases:
        pi, lam = tuple(pi), tuple(lam)
        value = symfunc_from_obj(obj)
        if kind == "pi-schur":
            back, want = plethysm.pi_branch(pi, value), SymFunc.schur(lam)
        elif kind == "dual-pi-schur":
            back = plethysm.pi_branch(pi, value.scale((-1) ** sum(lam)))
            want = SymFunc.schur(conjugate(lam))
        else:
            back, want = plethysm.pi_unbranch(pi, value), SymFunc.schur(lam)
        if back != want:
            problems.append("%s pi=%s lambda=%s: round trip gives %r"
                            % (kind, fmt(pi), fmt(lam), back))
    for pi, lam in oracle_cases:
        pi, lam = tuple(pi), tuple(lam)
        for label, ring, cauchy, orc in (
                ("pi-schur", plethysm.pi_schur, plethysm.cauchy_pi_schur,
                 oracle.oracle_pi_schur),
                ("dual-pi-schur", plethysm.dual_pi_schur,
                 plethysm.cauchy_dual_pi_schur, oracle.oracle_dual_pi_schur)):
            a, b, c = ring(pi, lam), cauchy(pi, lam), orc(pi, lam)
            if not a == b == c:
                problems.append("%s pi=%s lambda=%s: perp, cauchy and the "
                                "oracle disagree" % (label, fmt(pi), fmt(lam)))
    return problems


# #### oracle-crosscheck ####

class OracleCrosscheck:
    """Oracle against ring on the criterion-08 and theorem2 ranges, in gate
    order, one fresh child per round.

    Every pair at the cheap weights is compared: products and plethysms to
    weight 7, deformed Schur labels to weight 4.  The heavier classes are
    sampled, so that a round takes seconds and a run holds several.  The
    seed draws the samples of products of weight 8 (one from each stratum
    of the class ranked by a cost proxy), plethysms of weight 8 and labels
    of weight 5.  The heaviest pairs -- products of weight 9 and 10, one
    label of weight 6 -- are fixed: a seeded draw there moved the round
    time by up to 15 % and its peak memory by up to 10 % between seeds.
    The label of weight 6 is compared in the row family only: the column
    family's kernel took 2.5 s more and left a round too long for a run to
    hold the four rounds whose median steadies `wall_s`.
    """

    name = "oracle-crosscheck"
    CHEAP = 7
    CHEAP_LABELS = 4
    # combined weight -> (strata, the strata used, drawn by the seed);
    # weight 10 uses the middle of one narrow stratum, as its pairs cost
    # the oracle anything from 0.1 s to 7 s cold
    PRODUCT_STRATA = {8: (4, (0, 1, 2, 3), True), 9: (3, (0, 1, 2), False),
                      10: (20, (7,), False)}
    PLETHYSM_SAMPLE = {8: 2}
    LABEL_SAMPLE = {5: ((1, 2, 3), 3)}
    HEAVY_LABEL = ((2,), (3, 2, 1))

    def __init__(self, seed):
        rng = random.Random("oracle-crosscheck-%d" % seed)
        parts = [p for w in range(1, 10) for p in partitions(w)]
        prods = [(mu, nu) for i, mu in enumerate(parts) for nu in parts[i:]
                 if sum(mu) + sum(nu) <= 10]
        sampled = {"product": set(), "plethysm": set()}
        for w, (strata, picks, seeded) in self.PRODUCT_STRATA.items():
            cls = [p for p in prods if sum(p[0]) + sum(p[1]) == w]
            sampled["product"].update(stratified(
                cls, lambda p: product_work(*p), strata, picks,
                rng if seeded else None))
        small = [p for w in range(1, 11) for p in partitions(w)]
        pleths = [(mu, nu) for mu in small for nu in small
                  if sum(mu) * sum(nu) <= max(self.PLETHYSM_SAMPLE)]
        for w, k in self.PLETHYSM_SAMPLE.items():
            sampled["plethysm"].update(rng.sample(
                [p for p in pleths if sum(p[0]) * sum(p[1]) == w], k))
        self.comparisons = []
        for kind, pairs, size in (("product", prods, lambda a, b: a + b),
                                  ("plethysm", pleths, lambda a, b: a * b)):
            for mu, nu in pairs:
                w = size(sum(mu), sum(nu))
                if w <= self.CHEAP or (mu, nu) in sampled[kind]:
                    self.comparisons.append(
                        (kind, mu, nu, w, (mu, nu) in sampled[kind]))
        pis = [p for w in (1, 2, 3) for p in partitions(w)]
        labels = [p for w in range(self.CHEAP_LABELS + 1)
                  for p in partitions(w)]
        deformed = [(pi, lam, False) for pi in pis for lam in labels]
        for w, (pi_weights, k) in self.LABEL_SAMPLE.items():
            shapes = [p for pw in pi_weights for p in partitions(pw)]
            cls = [(pi, lam) for pi in shapes for lam in partitions(w)
                   if len(lam) <= 3]
            deformed.extend((pi, lam, True) for pi, lam in rng.sample(cls, k))
        for pi, lam, is_sampled in deformed:
            for kind in ("pi-schur", "dual-pi-schur"):
                self.comparisons.append((kind, pi, lam, sum(lam), is_sampled))
        pi, lam = self.HEAVY_LABEL
        self.comparisons.append(("pi-schur", pi, lam, sum(lam), True))

    def round(self, k, tracer):
        res = child.run(lambda: _compare_all(self.comparisons, tracer, k),
                        CHILD_TIMEOUT)
        ops = res["ops"]
        ops[0]["trace"] = res["trace"]
        return ops

    def latencies(self, rounds):
        """Time of each kind's sweep (all its comparisons) in every round.
        A single comparison at the cheap weights takes well under a
        millisecond; classes of one kind and one weight put the median in
        a gap between 4.7 ms and 8 ms, where one class crossing it moved
        the median by a third."""
        kinds = {}
        for ops in rounds:
            per_round = {}
            for (kind, _, _, _, _), op in zip(self.comparisons, ops):
                per_round[kind] = per_round.get(kind, 0.0) + op["s"]
            for key, s in per_round.items():
                kinds.setdefault(key, []).append(s)
        return list(kinds.values())

    def check(self, rounds):
        for ops in rounds:
            for (kind, a, b, _, _), op in zip(self.comparisons, ops):
                if op["ok"] and not op["equal"]:
                    raise CheckError("%s %s %s: ring and oracle differ"
                                     % (kind, fmt(a), fmt(b)))
        for (kind, a, b, _, sampled), op in zip(self.comparisons, rounds[0]):
            if not (sampled and op["ok"]):
                continue
            value = expansion_from_json(op["value"])
            if kind == "product":
                checker.check_product(a, b, value)
            elif kind == "plethysm":
                checker.check_plethysm(a, b, value)


def _compare_all(comparisons, tracer, k):
    """Every comparison in order, in this (child) process."""
    oracle, plethysm = _modules("oracle", "plethysm")
    from symvertex.jsonform import symfunc_to_obj
    from symvertex.schurring import SymFunc
    if tracer:
        tracer.reset()
    ops = []
    for i, (kind, a, b, _, sampled) in enumerate(comparisons):
        if tracer:
            tracer.query = "r%d.c%d" % (k, i)
        rec = {"ok": True, "trace": None}
        start = time.perf_counter()
        try:
            if kind == "product":
                got = oracle.oracle_product(a, b)
                ring = SymFunc.schur(a) * SymFunc.schur(b)
            elif kind == "plethysm":
                got = oracle.oracle_plethysm(a, b)
                ring = plethysm.plethysm(a, SymFunc.schur(b))
            elif kind == "pi-schur":
                got = oracle.oracle_pi_schur(a, b)
                ring = plethysm.pi_schur(a, b)
            else:
                got = oracle.oracle_dual_pi_schur(a, b)
                ring = plethysm.dual_pi_schur(a, b)
            rec["equal"] = got == ring
        except Exception as e:  # an exception is a failed operation
            rec.update(ok=False, err=repr(e))
        rec["s"] = time.perf_counter() - start
        if sampled and rec["ok"]:
            rec["value"] = symfunc_to_obj(ring)
        ops.append(rec)
    return {"ops": ops, "trace": tracer.export() if tracer else None}


# #### verify-suites ####

SUITES = ("reordering", "zero-modes", "clifford", "multivertex", "theorem2",
          "inverse-series")

# small ranges on which each suite's deliberate mutation must be caught
PERTURBED = {
    "reordering": ["--cases", "MM,LL", "--pi", "[2]", "--window", "0..2",
                   "--test-degree", "3"],
    "zero-modes": ["--charge-range", "-2..2"],
    "clifford": ["--pi", "[2]", "--mode-range", "-1..1", "--degree-bound",
                 "2", "--charges", "0"],
    "multivertex": ["--pi", "[2]", "--m", "2", "--dual", "false",
                    "--window", "-2..2"],
    "theorem2": ["--pi", "[1]", "--pi", "[2]", "--max-weight", "3",
                 "--max-length", "2", "--skip-oracle"],
    "inverse-series": ["--max-sigma-weight", "2", "--max-zweight", "6",
                       "--pi", "[2]", "--pi", "[1,1]"],
}


def expected_cases():
    """Case count of each suite at the `symvertex verify` defaults, derived
    from the ranges, not from the package."""
    def up_to(w, max_len=99):
        return [p for n in range(w + 1) for p in partitions(n)
                if len(p) <= max_len]

    pis = [p for w in range(1, 5) for p in partitions(w)]
    modes = range(-3, 4)
    mode_pairs = (2 * sum(1 for m in modes for n in modes if n >= m)
                  + len(modes) ** 2)
    hooks = [(a,) + (1,) * b for pi in pis for a in range(1, pi[0] + 1)
             for b in range(len(pi)) if contains(pi, (a,) + (1,) * b)]
    return {
        "reordering": 4 * len(pis) * len(up_to(5)),
        "zero-modes": 4 * (1 + len(range(-3, 4))),
        "clifford": 6 * mode_pairs * len(up_to(5)) * 3,
        "multivertex": 2 * 2 * 2 * 2,
        "theorem2": len(pis) * len(up_to(6, 3)) * 4,
        "inverse-series": (sum(12 // max(sum(s), 1) for s in up_to(3))
                           + sum(12 // sum(h) for h in hooks)),
    }


class VerifySuites:
    """The six suites at their acceptance ranges, each in a fresh child as
    `symvertex verify <suite>` runs.  The inputs are the fixed ranges; the
    seed only orders the suites."""

    name = "verify-suites"

    def __init__(self, seed):
        self.suites = list(SUITES)
        random.Random("verify-suites-%d" % seed).shuffle(self.suites)
        self.expected = expected_cases()

    def argv(self, suite):
        extra = ["--skip-oracle"] if suite == "theorem2" else []
        return ["verify", suite, "--format", "json", "--jobs", "1"] + extra

    def round(self, k, tracer):
        out = []
        for suite in self.suites:
            res = child.run(lambda: _cli_call(self.argv(suite), tracer,
                                              "r%d.%s" % (k, suite)),
                            CHILD_TIMEOUT)
            res["ok"] = res["code"] in (0, 1) and res["err"] is None
            out.append(res)
        return out

    def latencies(self, rounds):
        return per_operation(rounds)

    def cases(self, rounds):
        return sum(json.loads(op["out"])["cases_run"]
                   for ops in rounds for op in ops if op["ok"])

    def check(self, rounds):
        for ops in rounds:
            for suite, op in zip(self.suites, ops):
                if not op["ok"]:
                    continue
                report = json.loads(op["out"])
                if op["code"] != 0 or report["failures"]:
                    raise CheckError("suite %s failed %d cases"
                                     % (suite, len(report["failures"])))
                if report["cases_run"] != self.expected[suite]:
                    raise CheckError("suite %s ran %d cases, the ranges give "
                                     "%d" % (suite, report["cases_run"],
                                             self.expected[suite]))
        for suite in self.suites:
            argv = ["verify", suite, "--perturb", "--format", "json",
                    "--jobs", "1"] + PERTURBED[suite]
            res = child.run(lambda: _cli_call(argv, None, None),
                            CHILD_TIMEOUT)
            if res["code"] != 1 or not json.loads(res["out"])["failures"]:
                raise CheckError("suite %s passed with its mutation wired in"
                                 % suite)


WORKLOADS = {w.name: w for w in (KernelCold, OracleCrosscheck, VerifySuites)}
