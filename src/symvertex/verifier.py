"""Exhaustive machine checks of the operator identities within finite ranges.

Each suite enumerates a deterministic case list, evaluates every case with
exact arithmetic in enumeration order, and returns a VerificationReport.
Each suite's defaults live in its signature alone; callers override them
by keyword.  Every suite takes perturb=True, which wires in one
deliberate mutation that must produce failures — a guard against vacuous
passes.  inverse-series keys power-sum monomials by integer codes: a
product of two is one addition.
"""

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .jsonform import laurent_to_obj, state_to_obj, symfunc_to_obj
from .oracle import oracle_dual_pi_schur, oracle_pi_schur
from .partitions import (conjugate, format_partition, hooks_inside, partition,
                         partitions_of, partitions_up_to, weight)
from .plethysm import (cauchy_dual_pi_schur, cauchy_pi_schur, dual_pi_schur,
                       pi_branch, pi_schur, pi_unbranch, power_substitute,
                       series_term)
from .schurring import SymFunc, _norm_coeff, to_power
from .vertexops import (FactorChain, NormalProduct, _anticommutator_into,
                        _wrap_sectors, annihilation_zero_word, apply_chain,
                        creation_zero_word, make_factor,
                        normal_ordered_string, string_chain, vertex_string,
                        vertex_strings, zero_mode_normal_form,
                        ZeroModeNormalForm)


# #### reports ####

@dataclass
class VerificationReport:
    """Outcome of one suite run; failures empty iff the suite passed."""

    suite: str
    config: dict
    cases_run: int
    failures: list
    elapsed_ms: int

    def passed(self):
        return not self.failures

    def to_obj(self):
        return asdict(self)

    def summary_lines(self):
        """The verdict line and the inputs of the first five failures."""
        lines = ["suite %s: %d cases, %d failures, %d ms -> %s"
                 % (self.suite, self.cases_run, len(self.failures),
                    self.elapsed_ms, "PASS" if self.passed() else "FAIL")]
        lines += ["  FAIL %s" % (rec["inputs"],) for rec in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append("  ... and %d more failures"
                         % (len(self.failures) - 5))
        return lines


def _execute(suite, config_obj, keys, case_fn, t0=None):
    t0 = time.perf_counter() if t0 is None else t0  # the suite's start
    failures = [r for r in map(case_fn, keys) if r is not None]
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(suite, config_obj, len(keys), failures, elapsed)


def _laurent_diff(a, b):
    """Restrict two chain results {exps: SymFunc} to the exponents where
    they disagree."""
    keys = [e for e in set(a) | set(b) if a.get(e) != b.get(e)]
    return ({e: a[e] for e in keys if e in a},
            {e: b[e] for e in keys if e in b})


# the shapes of weight 1 to 4, a default of three suites
DEFAULT_PIS = tuple(p for w in range(1, 5) for p in partitions_of(w))


# #### suite: reordering ####

REORDERING_CASES = ("MM", "LM", "ML", "LL")


def _reordering_sides(case, pi, perturb=False):
    """LHS and RHS chains of one adjoint-past-multiplication identity.

    Case 'XY' moves the adjoint X-series of shape pi in z across the
    multiplication Y-series in w.  Moving across a row series re-indexes by
    row skews of the same family; moving across a column series re-indexes
    by column skews whose family alternates with the column height.
    """
    vs = ("z", "w")
    perp, mul = case[0], case[1]
    spi = SymFunc.schur(pi)
    s1 = SymFunc.schur((1,))
    lhs = FactorChain(vs, [make_factor("skew", perp, spi, (1, 0), vs),
                           make_factor("multiply", mul, s1, (0, 1), vs)])
    rfacts = [make_factor("multiply", mul, s1, (0, 1), vs)]
    tops = range((max(pi, default=0) if mul == "M" else len(pi)) + 1)
    for k in tops:
        if mul == "M":
            shape = spi if k == 0 else spi.skew_by((k,))
            fam = perp
        else:
            shape = spi if k == 0 else spi.skew_by((1,) * k)
            fam = perp if k % 2 == 0 else ("L" if perp == "M" else "M")
        if shape:
            rfacts.append(make_factor("skew", fam, shape, (1, k), vs))
    if perturb:
        f = rfacts[-1]
        flipped = "L" if f.family == "M" else "M"
        rfacts[-1] = make_factor(f.action, flipped, f.shape, f.exps, vs)
    return lhs, FactorChain(vs, rfacts)


def verify_reordering(cases=REORDERING_CASES, pis=DEFAULT_PIS, window=(0, 4),
                      test_degree=5, perturb=False):
    """Coefficientwise equality of the four adjoint/multiplication
    reorderings on every Schur input up to test_degree."""
    pis = [partition(p) for p in pis]
    lams = partitions_up_to(test_degree)
    win = {"z": tuple(window), "w": tuple(window)}
    keys = [(case, pi, lam) for case in cases for pi in pis for lam in lams]
    sides = {(case, pi): _reordering_sides(case, pi, perturb)
             for case in cases for pi in pis}

    def case_fn(key):
        case, pi, lam = key
        lhs_chain, rhs_chain = sides[case, pi]
        f = SymFunc.schur(lam)
        lhs = apply_chain(lhs_chain, f, win)
        rhs = apply_chain(rhs_chain, f, win)
        if lhs == rhs:
            return None
        dl, dr = _laurent_diff(lhs, rhs)
        return {"inputs": {"case": case, "pi": format_partition(pi),
                           "lambda": format_partition(lam),
                           "window": list(window)},
                "lhs": laurent_to_obj(lhs_chain.vars, dl),
                "rhs": laurent_to_obj(lhs_chain.vars, dr)}

    cfg = {"cases": list(cases), "pis": [format_partition(p) for p in pis],
           "window": list(window), "test_degree": test_degree,
           "perturb": perturb}
    return _execute("reordering", cfg, keys, case_fn)


# #### suite: zero modes ####

ZERO_MODE_IDENTITIES = (
    ("create-create",
     ("create", "z", "create", "w"),
     ZeroModeNormalForm(prefactor=(("w", -2), ("z", -1)),
                        alpha=(("w", 1), ("z", 1)), shift=2)),
    ("annihilate-annihilate",
     ("annihilate", "z", "annihilate", "w"),
     ZeroModeNormalForm(prefactor=(("w", -1),),
                        alpha=(("w", -1), ("z", -1)), shift=-2)),
    ("create-annihilate",
     ("create", "z", "annihilate", "w"),
     ZeroModeNormalForm(prefactor=(("w", 1), ("z", -1)),
                        alpha=(("w", -1), ("z", 1)), shift=0)),
    ("annihilate-create",
     ("annihilate", "w", "create", "z"),
     ZeroModeNormalForm(prefactor=(),
                        alpha=(("w", -1), ("z", 1)), shift=0)),
)


def _zero_word(spec):
    kind_a, var_a, kind_b, var_b = spec
    mk = {"create": creation_zero_word, "annihilate": annihilation_zero_word}
    return mk[kind_a](var_a) + mk[kind_b](var_b)


def _word_action(word, c):
    """Direct effect of a zero-mode word on a sector of charge c:
    (monomial exponents, final charge)."""
    exps = {}
    cur = c
    for op in reversed(word):
        if op[0] == "shift":
            cur += op[1]
        else:
            _, v, const, alpha = op
            exps[v] = exps.get(v, 0) + const + alpha * cur
    return {v: e for v, e in exps.items() if e}, cur


def _form_obj(nf):
    return {"prefactor": {v: e for v, e in nf.prefactor},
            "alpha": {v: e for v, e in nf.alpha},
            "shift": nf.shift}


def verify_zero_modes(charge_range=(-3, 3), perturb=False):
    """The four ordered forms of products of charge-shift words, checked
    symbolically and on every concrete charge in the range."""
    lo, hi = charge_range
    keys = [(name, which) for name, _, _ in ZERO_MODE_IDENTITIES
            for which in ("form", *range(lo, hi + 1))]
    by_name = {name: (spec, expected)
               for name, spec, expected in ZERO_MODE_IDENTITIES}

    def case_fn(key):
        name, which = key
        spec, expected = by_name[name]
        word = _zero_word(spec)
        if which == "form":
            got = zero_mode_normal_form(word)
            if got == expected:
                return None
            return {"inputs": {"identity": name, "check": "normal-form"},
                    "lhs": _form_obj(got), "rhs": _form_obj(expected)}
        c = which
        lhs = _word_action(word, c)
        if perturb:
            # deliberately read the charge before the shift
            e = dict(expected.prefactor)
            for v, a in expected.alpha:
                e[v] = e.get(v, 0) + a * c
            rhs = ({v: x for v, x in e.items() if x}, c + expected.shift)
        else:
            rhs = expected.exponents_at(c)
        if lhs == rhs:
            return None
        return {"inputs": {"identity": name, "charge": c},
                "lhs": {"exponents": lhs[0], "charge": lhs[1]},
                "rhs": {"exponents": rhs[0], "charge": rhs[1]}}

    cfg = {"charge_range": [lo, hi], "perturb": perturb}
    return _execute("zero-modes", cfg, keys, case_fn)


# #### suite: clifford ####

DEFAULT_CLIFFORD_PIS = ((), (2,), (1, 1), (3,), (2, 1), (4,))

# relation -> whether each of its two modes is an annihilation mode
_CLIFFORD_RELATIONS = {"create-create": (False, False),
                       "annihilate-annihilate": (True, True),
                       "mixed": (False, True)}


def verify_clifford(pis=DEFAULT_CLIFFORD_PIS, mode_range=(-3, 3),
                    degree_bound=5, charges=(-1, 0, 1), perturb=False):
    """Anticommutators of the mode families: like kinds vanish, mixed kinds
    give the identity exactly when the mode indices cancel."""
    pis = [partition(p) for p in pis]
    lo, hi = mode_range
    lams = partitions_up_to(degree_bound)
    keys = [(pi, rel, m, n, lam, c) for pi in pis
            for rel in _CLIFFORD_RELATIONS for m in range(lo, hi + 1)
            for n in range(m if rel != "mixed" else lo, hi + 1)
            for lam in lams for c in charges]
    # the deliberate mutation reads the extraction index off the shifted
    # charge, which is the mode one index up
    s = 1 if perturb else 0

    def case_fn(key):
        pi, rel, m, n, lam, c = key
        da, db = _CLIFFORD_RELATIONS[rel]
        state = {c: {lam: 1}}
        got = _anticommutator_into(pi, da, m + s, db, n + s, state)
        expected = state if (rel == "mixed" and m + n == 0) else {}
        if got == expected:
            return None
        return {"inputs": {"pi": format_partition(pi), "relation": rel,
                           "m": m, "n": n, "lambda": format_partition(lam),
                           "charge": c},
                "lhs": state_to_obj(_wrap_sectors(got)),
                "rhs": state_to_obj(_wrap_sectors(expected))}

    cfg = {"pis": [format_partition(p) for p in pis],
           "mode_range": [lo, hi], "degree_bound": degree_bound,
           "charges": list(charges), "perturb": perturb}
    return _execute("clifford", cfg, keys, case_fn)


# #### suite: multivertex ####

def verify_multivertex(pis=((2,), (2, 1)), ms=(2, 3), duals=(False, True),
                       window=(-3, 3), perturb=False):
    """Sequential strings of like vertex operators against their
    normal-ordered form, coefficientwise on a window, applied to the
    states 1 and s[1]."""
    pis = [partition(p) for p in pis]
    # built first, so a string past the bound is refused before any case
    chains = {(pi, m, dual): string_chain(pi, (dual,) * m)
              for pi in pis for m in ms for dual in duals}
    inputs = {"1": SymFunc.one(), "s[1]": SymFunc.schur((1,))}
    keys = [(pi, m, dual, label) for pi in pis for m in ms
            for dual in duals for label in inputs]

    def case_fn(key):
        pi, m, dual, label = key
        f = inputs[label]
        chain = chains[pi, m, dual]
        win = {v: tuple(window) for v in chain.vars}
        lhs = apply_chain(chain, f, win)
        np = normal_ordered_string(pi, (dual,) * m)
        if perturb:
            # deliberately drop the first scalar prefactor
            np = NormalProduct(np.vars, np.prefactors[1:], np.chain)
        rhs = np.apply(f, win)
        if lhs == rhs:
            return None
        dl, dr = _laurent_diff(lhs, rhs)
        return {"inputs": {"pi": format_partition(pi), "m": m, "dual": dual,
                           "state": label, "window": list(window)},
                "lhs": laurent_to_obj(chain.vars, dl),
                "rhs": laurent_to_obj(chain.vars, dr)}

    cfg = {"pis": [format_partition(p) for p in pis], "ms": list(ms),
           "duals": list(duals), "inputs": list(inputs),
           "window": list(window), "perturb": perturb}
    return _execute("multivertex", cfg, keys, case_fn)


# #### suite: route agreement (CLI name: theorem2) ####

# route -> (plain family, companion family) of the deformed Schur functions
ROUTES = {
    "perp": (pi_schur, dual_pi_schur),
    "cauchy": (cauchy_pi_schur, cauchy_dual_pi_schur),
    "vertex": (vertex_string,
               lambda pi, lam: vertex_string(pi, lam, dual=True)),
    "oracle": (oracle_pi_schur, oracle_dual_pi_schur),
}

_ROUTE_CHECKS = ("routes", "dual-routes", "conjugate-pairing",
                 "branch-roundtrip")


def verify_route_agreement(pis=DEFAULT_PIS, max_weight=6, max_length=3,
                           include_oracle=True, include_vertex=True,
                           perturb=False):
    """All independent constructions of the deformed Schur functions agree:
    adjoint series, coefficient-extraction, vertex strings, and the literal
    monomial oracle; plus the conjugate pairing between the two families and
    the branching round trip."""
    pis = [partition(p) for p in pis]
    lams = partitions_up_to(max_weight, max_length=max_length)
    keys = [(pi, lam, check) for pi in pis for lam in lams
            for check in _ROUTE_CHECKS]

    names = [name for name in ROUTES
             if (name != "vertex" or include_vertex)
             and (name != "oracle" or include_oracle)]
    t0 = time.perf_counter()
    # one vertex batch per (pi, dual) before any case: a long string fails
    vertex = {(pi, dual): vertex_strings(pi, lams, dual)
              for pi in pis for dual in (False, True) if include_vertex}

    def route(name, pi, lam, dual):
        if name == "vertex":
            return vertex[pi, dual][lam]
        try:
            return ROUTES[name][dual](pi, lam)
        except ValueError as e:
            # a fault the oracle detects in itself fails the case; it is
            # not a bad request
            if name != "oracle":
                raise
            return {"error": str(e)}

    def case_fn(key):
        pi, lam, check = key
        inputs = {"pi": format_partition(pi), "lambda": format_partition(lam),
                  "check": check}
        if check in ("routes", "dual-routes"):
            dual = check == "dual-routes"
            vals = [(name, route(name, pi, lam, dual)) for name in names]
            base_name, base = vals[0]
            for name, val in vals[1:]:
                if val != base:
                    inputs["routes"] = "%s vs %s" % (base_name, name)
                    return {"inputs": inputs, "lhs": symfunc_to_obj(base),
                            "rhs": val if isinstance(val, dict)
                            else symfunc_to_obj(val)}
            return None
        if check == "conjugate-pairing":
            sign = (-1) ** (weight(lam) + (1 if perturb else 0))
            lhs = cauchy_dual_pi_schur(pi, lam)
            rhs = pi_schur(pi, conjugate(lam)).scale(sign)
            if lhs == rhs:
                return None
            return {"inputs": inputs, "lhs": symfunc_to_obj(lhs),
                    "rhs": symfunc_to_obj(rhs)}
        s = SymFunc.schur(lam)
        back = pi_branch(pi, pi_schur(pi, lam))
        there = pi_unbranch(pi, pi_branch(pi, s))
        if back == s and there == s:
            return None
        bad = back if back != s else there
        return {"inputs": inputs, "lhs": symfunc_to_obj(bad),
                "rhs": symfunc_to_obj(s)}

    cfg = {"pis": [format_partition(p) for p in pis],
           "max_weight": max_weight, "max_length": max_length,
           "include_oracle": include_oracle,
           "include_vertex": include_vertex, "perturb": perturb}
    return _execute("theorem2", cfg, keys, case_fn, t0)


# #### suite: inverse series ####

def _pack(rho, bits):
    """The code of the power-sum monomial p_rho: the multiplicity of part x
    in the bits-wide field x-1.  With every multiplicity below 2^bits,
    codes are distinct and p_rho p_tau has code _pack(rho) + _pack(tau)."""
    return sum(1 << bits * (x - 1) for x in rho)


def _unpack(code, bits):
    """The partition rho with _pack(rho, bits) == code."""
    mask = (1 << bits) - 1
    return tuple(x for x in range(code.bit_length() // bits + 1, 0, -1)
                 for _ in range(code >> bits * (x - 1) & mask))


def _mul_into(d, x, y, c):
    """Add c*x*y into d and return d, for {_pack code: value} dicts."""
    for u, a in x.items():
        a *= c
        for v, b in y.items():
            d[u + v] = d.get(u + v, 0) + a * b
    return d


def _series_power_terms(shape, rmax):
    """(row, col, den, bits): the degree-r terms of the row series and of
    the signed column series of the shape, r <= rmax, in the power-sum
    basis, scaled to integers and keyed by _pack codes of width bits.  den
    is the LCM of the denominators of to_power(shape), and

        row[r] = r! den^r h_r[shape],   col[r] = r! den^r (-1)^r e_r[shape].

    The Newton recurrence h_r = (1/r) sum_k p_k[shape] h_{r-k} becomes, with
    the integral Q_k = p_k[den*shape] (power_substitute of the scaled
    shape),

        row[r] = sum_{k=1..r} (r-1)!/(r-k)! den^(k-1) Q_k row[r-k],

    and col[r] is the same sum over col with the sign flipped.  No part or
    multiplicity of a monomial of degree r <= rmax exceeds rmax*deg(shape),
    which fixes bits."""
    gp = to_power(shape)
    den = lcm(*(a.denominator for a in gp.c.values()))
    bits = (rmax * max(gp.degree(), 1)).bit_length()
    gq = gp.scale(den)
    qs = [None] + [{_pack(rho, bits): a
                    for rho, a in power_substitute(k, gq).c.items()}
                   for k in range(1, rmax + 1)]
    row, col = [{0: 1}], [{0: 1}]
    for r in range(1, rmax + 1):
        row.append({})
        col.append({})
        for k in range(1, r + 1):
            s = factorial(r - 1) // factorial(r - k) * den ** (k - 1)
            _mul_into(row[r], qs[k], row[r - k], s)
            _mul_into(col[r], qs[k], col[r - k], -s)
    return row, col, den, bits


def _power_obj(d, bits, scale):
    """A failure record's view of the {code: value} dict d over scale:
    {"rho": "coefficient"}, largest code, and so largest rho, first."""
    return {",".join(map(str, _unpack(u, bits))):
            str(_norm_coeff(Fraction(v) / scale))
            for u, v in sorted(d.items(), reverse=True) if v}


def verify_inverse_series(max_sigma_weight=3, max_zweight=12,
                          hook_pis=DEFAULT_PIS, perturb=False):
    """The row and signed-column series of any shape are mutually inverse:
    plain shapes up to max_sigma_weight, and the hook-indexed skew shapes
    paired on the diagonal of the mixed two-vertex product, with the formal
    weight of each pair capped at max_zweight.  The check runs on the
    integer-scaled Newton terms of _series_power_terms: sum_a M_a L_{r-a}
    = 0 times r! den^r is sum_a C(r,a) row[a] col[r-a] = 0 (_mul_into).
    As that holds for any sequence Q_k, the Newton terms are also checked
    against plethysm.series_term, the kernel's own series: on the plain
    shapes at every degree, on the hook shapes up to degree 2."""
    hook_pis = [partition(p) for p in hook_pis]
    keys = []
    shapes = {}  # skey -> (shape, largest rmax of its cases)
    terms = {}   # skey -> _series_power_terms(shape, rmax)

    def add_shape(tag, label, shape, grade):
        skey = frozenset(shape.c.items())
        rmax = max_zweight // grade
        shapes[skey] = (shape, max(rmax, shapes.get(skey, (0, 0))[1]))
        keys.extend((tag, label, skey, r) for r in range(1, rmax + 1))

    for sigma in partitions_up_to(max_sigma_weight):
        add_shape("series", format_partition(sigma), SymFunc.schur(sigma),
                  max(weight(sigma), 1))
    for pi in hook_pis:
        for hook in hooks_inside(pi):
            shape = SymFunc.schur(pi).skew_by(hook)
            if shape:
                add_shape("hooks", "%s/%s" % (format_partition(pi),
                                              format_partition(hook)),
                          shape, weight(hook))

    # perturb: deliberately strip the sign off the column terms
    sign = -1 if perturb else 1

    def case_fn(key):
        tag, label, skey, r = key
        if skey not in terms:
            terms[skey] = _series_power_terms(*shapes[skey])
        row, col, den, bits = terms[skey]
        scale = factorial(r) * den ** r
        inputs = {"part": tag, "shape": label, "r": r}
        if tag == "series" or r <= 2:
            for family, newton in (("M", row[r]), ("L", col[r])):
                want = to_power(series_term(family, shapes[skey][0], r))
                # lhs: series_term, scaled, less the Newton term
                diff = _mul_into({u: -v for u, v in newton.items()}, {0: 1},
                                 {_pack(rho, bits): v
                                  for rho, v in want.c.items()}, scale)
                if any(diff.values()):
                    return {"inputs": dict(inputs, family=family),
                            "lhs": _power_obj(diff, bits, scale), "rhs": {}}
        total = {}
        for a in range(r + 1):
            _mul_into(total, row[a], col[r - a], comb(r, a) * sign ** (r - a))
        if any(total.values()):
            return {"inputs": inputs, "lhs": _power_obj(total, bits, scale),
                    "rhs": {}}

    cfg = {"max_sigma_weight": max_sigma_weight, "max_zweight": max_zweight,
           "hook_pis": [format_partition(p) for p in hook_pis],
           "perturb": perturb}
    return _execute("inverse-series", cfg, keys, case_fn)


SUITES = {
    "reordering": verify_reordering,
    "zero-modes": verify_zero_modes,
    "clifford": verify_clifford,
    "multivertex": verify_multivertex,
    "theorem2": verify_route_agreement,
    "inverse-series": verify_inverse_series,
}
