"""Vertex operator chains acting on (charged) symmetric-function states.

A chain is a product of factors, each either multiplication by a graded
series or the adjoint (skew) of one, with a monomial in formal variables
tracking the grade: e.g. the basic creation family

    V_pi(z)  = M(z) . Madj/Ladj factors in powers of z

is a FactorChain whose factors carry shapes (SymFunc values) and integer
exponent vectors.  Chains act on SymFunc values and return a dict: finitely
many exponent vectors inside a requested window, each with an exact
SymFunc value.  Termination over mixed-sign exponents comes from a small
fixpoint plan bounding how far any factor can still move an exponent back
into the window.  Modes, not chains, act on charged states.

Charge bookkeeping: a ChargedState is a finite sum of sectors |c, f>.  The
creation modes raise the charge by one and read the coefficient whose index
is shifted by the charge of the sector they act on; annihilation modes
lower it.  The zero-mode calculus at the bottom of the module normalizes
words of charge shifts and charge-reading monomials symbolically and is
what fixes those index conventions.

Modes read one z-coefficient without running the chain.  Its first two
factors are Bernstein's operator sum_n z^n B_n, B_n = sum_i (-1)^i
h_(n+i) e_i-adj, where B_n s_mu = s_(n, mu) is straightened by Jacobi-Trudi
(Macdonald I.5 Ex. 29); the dual pair is (-1)^n omega B_n omega.  On s_lam
the z^j coefficient is sum_e B_(j-e) S_e, S_e the z^e coefficient of the
other (skew) factors; a stage infinite in e is cut at e <= j + |lam|,
exactly, since B_n s_mu = 0 for n < -len(mu).

Inner loops accumulate into plain {key: coeff} dicts -- {exps: {lam:
coeff}} in apply_chain, {charge: {nu: coeff}} in modes and anticommutators
-- and wrap a SymFunc or ChargedState once per result at the public
boundary.  The suites work in batches below it: clifford compares the raw
sectors of _anticommutator_into, and vertex_strings runs one apply_chain
per label length over the box of the labels' parts (a box the labels fill
sparsely, as at high weights, is split).  In apply_chain each series term
acts on a Schur function s_k through _term_action, memoized on (action,
family, shape key, r, k), so a state key costs one lookup and one merge;
the termination plan and the per-stage boxes are memoized on the factors'
data (never the Factor objects), the state degree and the window, so a
chain mutated after a call is planned afresh.
"""

import sys
from dataclasses import dataclass
from itertools import product
from math import prod
from types import MappingProxyType

from .partitions import conjugate, partition, weight
from .plethysm import _shape_key, series_term
from .schurring import (SymFunc, _LinComb, format_symfunc, product_schur_pair,
                         skew_schur_pair)


# #### charged states ####

class ChargedState(_LinComb):
    """Finite sum of charge sectors: a _LinComb keyed by charge whose
    values are SymFunc, no zero sectors.  Addition, negation and scaling
    act sector by sector; only shift_charge and the modes move charge."""

    __slots__ = ()

    _key = staticmethod(int)
    _coerce = staticmethod(lambda f: f if isinstance(f, SymFunc)
                           else SymFunc(f))

    def degree(self):
        return max((f.degree() for f in self.c.values()), default=0)

    def shift_charge(self, k):
        return self._new({c + k: f for c, f in self.c.items()})

    def __repr__(self):
        return " + ".join("|%d, %s>" % (c, format_symfunc(f))
                          for c, f in sorted(self.c.items())) or "0"


# #### windows ####

def normalize_window(window, varnames):
    """Check a window {var: (lo, hi)} (inclusive int ends) against the
    chain's variables; return it in variable order."""
    out = {}
    for v in varnames:
        if v not in window:
            raise ValueError("window is missing variable %r" % v)
        lo, hi = window[v]
        if any(isinstance(x, bool) or not isinstance(x, int)
               for x in (lo, hi)):
            raise ValueError("window ends for %r must be integers" % v)
        if lo > hi:
            raise ValueError("empty window for %r" % v)
        out[v] = (lo, hi)
    return out


# #### factor chains ####

@dataclass(eq=False)
class Factor:
    """One series factor of a chain.

    action: 'multiply' or 'skew' (adjoint); family: 'M' (row series) or 'L'
    (column series); shape: the SymFunc fed to the series; exps: exponent
    vector of the tracking monomial, aligned with the chain variables.
    """

    action: str
    family: str
    shape: SymFunc
    exps: tuple
    label: str = ""

    def __repr__(self):
        return "Factor(%s)" % (self.label or
                               "%s %s %s" % (self.action, self.family, self.exps))


@dataclass(eq=False)
class FactorChain:
    """A product of factors in display order: factors[0] is leftmost and is
    applied last."""

    vars: tuple
    factors: list

    def __repr__(self):
        return " . ".join(f.label or repr(f) for f in self.factors) or "1"


def _var_power_label(varnames, exps):
    return "*".join(v if e == 1 else "%s^%d" % (v, e)
                    for v, e in zip(varnames, exps) if e) or "1"


def _shape_label(shape):
    if shape == SymFunc.one():
        return "[0]"
    terms = shape.terms()
    if len(terms) == 1 and terms[0][1] == 1:
        return "[%s]" % ",".join(str(x) for x in terms[0][0])
    return "(%s)" % format_symfunc(shape)


def make_factor(action, family, shape, exps, varnames):
    mark = "" if action == "multiply" else "adj"
    label = "%s%s%s(%s)" % (family, mark,
                            "" if (action == "multiply" and shape == SymFunc.schur((1,)))
                            else _shape_label(shape),
                            _var_power_label(varnames, exps))
    return Factor(action, family, shape, tuple(exps), label)


def _self_bound(factor):
    """How a factor bounds its own expansion, as (step, cap); (0, None)
    when only the window bounds it.  An adjoint whose shape has no
    constant term lowers the degree by at least step per term, so on a
    state of degree d at most d // step terms act.  An alternating-sign
    series on a constant shape c, an integer >= 0, has coefficients
    (-1)^r e_r[c], zero beyond r = cap = c."""
    if factor.action == "skew":
        step = min((weight(lam) for lam in factor.shape.c), default=0)
        if step >= 1:
            return step, None
    if factor.family == "L" and factor.shape.degree() == 0:
        c = factor.shape.coeff(())
        if c == int(c) and c >= 0:
            return 0, int(c)
    return 0, None


_PLAN_CEILING = 400


def _termination_plan(chain, state_degree, window):
    """Per-factor expansion bounds making a windowed application finite.

    Returns (rbounds, down, up) indexed by application order (reverse of
    display order); down[u][v] / up[u][v] bound how much later factors can
    still lower / raise the exponent of variable v once factor u has been
    applied.
    """
    app = list(reversed(chain.factors))
    T = len(app)
    nv = len(chain.vars)
    lo = [window[v][0] for v in chain.vars]
    hi = [window[v][1] for v in chain.vars]
    rb = [0] * T
    bounds = [_self_bound(f) for f in app]

    def reach():
        down = [[0] * nv for _ in range(T + 1)]
        up = [[0] * nv for _ in range(T + 1)]
        for u in range(T - 1, -1, -1):
            for v in range(nv):
                e = app[u].exps[v]
                down[u][v] = down[u + 1][v] + rb[u] * max(0, -e)
                up[u][v] = up[u + 1][v] + rb[u] * max(0, e)
        return down, up

    for _ in range(T + 4):
        changed = False
        down, up = reach()
        drop = [0] * nv
        rise = [0] * nv
        deg = state_degree
        for u in range(T):
            f = app[u]
            step, cap = bounds[u]
            if step:
                new = max(0, deg) // step
            elif cap is not None:
                new = cap
            else:
                # expansion bounded only by the window box
                caps = []
                for v in range(nv):
                    e = f.exps[v]
                    if e > 0:
                        caps.append((hi[v] + down[u + 1][v] + drop[v]) // e)
                    elif e < 0:
                        caps.append((rise[v] - lo[v] + up[u + 1][v]) // (-e))
                if not caps:
                    raise ValueError(
                        "factor %r expands without moving any exponent; the "
                        "window cannot bound it" % f)
                new = max(0, min(caps))
            if new > _PLAN_CEILING:
                raise ValueError("window too large to bound factor %r" % f)
            if new > rb[u]:
                rb[u] = new
                changed = True
            for v in range(nv):
                e = f.exps[v]
                drop[v] += rb[u] * max(0, -e)
                rise[v] += rb[u] * max(0, e)
            if f.action == "multiply":
                deg += rb[u] * f.shape.degree()
        if not changed:
            break
    else:
        raise ValueError("factor chain termination plan did not stabilize")
    return (rb,) + reach()


_action_memo = {}  # (action, family, shape key, r, k) -> ((nu, coeff), ...)
_plan_memo = {}  # (factor keys, state degree, window) -> stages


def _term_action(action, family, shape, skey, r, k):
    """The degree-r term of the family's series of shape (skey its
    _shape_key) acting on s_k: multiplying it, or its adjoint skewing it.
    Returns the (nu, coeff) pairs, no zero coefficient; memoized."""
    key = (action, family, skey, r, k)
    found = _action_memo.get(key)
    if found is None:
        acc = {}
        for j, b in series_term(family, shape, r).c.items():
            for nu, m in (product_schur_pair(k, j) if action == "multiply"
                          else skew_schur_pair(j, k)).items():
                acc[nu] = acc.get(nu, 0) + b * m
        found = _action_memo[key] = tuple(
            (nu, c) for nu, c in acc.items() if c)
    return found


def _nonzero(nested):
    """{key: {k: coeff}} without its zero coefficients and empty entries."""
    out = {}
    for key, d in nested.items():
        d = {k: v for k, v in d.items() if v}
        if d:
            out[key] = d
    return out


def apply_chain(chain, state, window):
    """Apply a factor chain to a SymFunc and collect the exact coefficient
    of every monomial inside the window (inclusive on both ends).  Returns
    {exponent tuple: SymFunc}.

    The factors run on plain {exps: {lam: coeff}} dicts, and each value is
    wrapped once at the end."""
    w = normalize_window(window, chain.vars)
    nv = len(chain.vars)
    if not isinstance(state, SymFunc):
        raise TypeError("state must be a SymFunc")
    if not state:
        return {}
    app = list(reversed(chain.factors))
    keys = [(f.action, f.family, _shape_key(f.shape), tuple(f.exps))
            for f in app]
    lo = [w[v][0] for v in chain.vars]
    hi = [w[v][1] for v in chain.vars]
    deg = state.degree()
    plan_key = (tuple(keys), deg, tuple(w.values()))
    stages = _plan_memo.get(plan_key)
    if stages is None:
        rb, down, up = _termination_plan(chain, deg, w)
        # per factor in application order: its self bound, its plan bound
        # and the box of exponents that later factors can still bring
        # back into the window
        stages = _plan_memo[plan_key] = tuple(
            (_self_bound(f), rb[u],
             tuple(lo[v] - up[u + 1][v] for v in range(nv)),
             tuple(hi[v] + down[u + 1][v] for v in range(nv)))
            for u, f in enumerate(app))
    cur = {(0,) * nv: state.c}
    for f, (action, family, skey, fexps), ((step, cap), rmax, lo_u, hi_u) \
            in zip(app, keys, stages):
        nxt = {}
        for exps, val in cur.items():
            # the r whose exponent x + r*e stays inside the box
            rlo = 0
            rhi = (max(map(sum, val)) // step if step
                   else cap if cap is not None else rmax)
            for x, e, low, high in zip(exps, fexps, lo_u, hi_u):
                if e > 0:
                    rlo = max(rlo, -((x - low) // e))
                    rhi = min(rhi, (high - x) // e)
                elif e < 0:
                    rlo = max(rlo, -((high - x) // -e))
                    rhi = min(rhi, (x - low) // -e)
                elif not low <= x <= high:
                    rhi = -1
            for r in range(rlo, rhi + 1):
                acc = nxt.setdefault(
                    tuple(x + r * e for x, e in zip(exps, fexps)), {})
                for k, a in val.items():
                    pairs = _action_memo.get((action, family, skey, r, k))
                    if pairs is None:
                        pairs = _term_action(action, family, f.shape, skey,
                                             r, k)
                    for nu, m in pairs:
                        acc[nu] = acc.get(nu, 0) + a * m
        cur = _nonzero(nxt)
        if not cur:
            break
    return {e: SymFunc._new(d) for e, d in cur.items()
            if all(a <= x <= b for a, x, b in zip(lo, e, hi))}


# #### vertex operators and their products ####

def _vertex_factors(pi, duals, varnames):
    """Factors of the normal-ordered product of vertex operators of shape
    pi, one per variable: creation where duals[i] is False, annihilation
    where it is True, none where it is None.

    First one multiplication per operator, by the row series in z_i
    (creation) or the column series (annihilation); then one adjoint per
    operator, of the other family, in 1/z_i; then, for every nonzero index
    tuple k with k_i up to the first row (creation) or the length
    (annihilation) of pi, the adjoint series of pi skewed by a k_i-row for
    each creation and a k_i-column for each annihilation, in prod z_i^k_i:
    the row series when the column boxes are odd, else the column
    series."""
    pi = partition(pi)
    nv = len(varnames)
    s1 = SymFunc.schur((1,))
    ops = [i for i, d in enumerate(duals) if d is not None]

    def unit(i, e):
        return tuple(e if v == i else 0 for v in range(nv))

    factors = [make_factor("multiply", "L" if duals[i] else "M", s1,
                           unit(i, 1), varnames) for i in ops]
    factors += [make_factor("skew", "M" if duals[i] else "L", s1,
                            unit(i, -1), varnames) for i in ops]
    tops = [0 if d is None else len(pi) if d else (pi[0] if pi else 0)
            for d in duals]
    for tup in product(*(range(t + 1) for t in tops)):
        if not any(tup):
            continue
        shape = SymFunc.schur(pi)
        for k, d in zip(tup, duals):
            if k and shape:
                shape = shape.skew_by((1,) * k if d else (k,))
        if shape:
            odd = sum(k for k, d in zip(tup, duals) if d) % 2
            factors.append(make_factor("skew", "M" if odd else "L", shape,
                                       tup, varnames))
    return factors


DEFAULT_STRING_BOUND = 4


def string_chain(pi, duals):
    """The literal left-to-right product of vertex operators of shape pi,
    one per variable z1..zm (annihilation where duals[i] is true), as a
    single chain.  Strings longer than DEFAULT_STRING_BOUND are refused."""
    m = len(duals)
    if m > DEFAULT_STRING_BOUND:
        raise ValueError("string of %d vertices exceeds the bound %d"
                         % (m, DEFAULT_STRING_BOUND))
    varnames = tuple("z%d" % (i + 1) for i in range(m))
    factors = []
    for i, d in enumerate(duals):
        factors += _vertex_factors(
            pi, tuple(d if v == i else None for v in range(m)), varnames)
    return FactorChain(varnames, factors)


def vertex_strings(pi, lams, dual=False):
    """vertex_string of every label in lams, as {label: SymFunc}: one
    apply_chain per batch of labels of one length, exact on the box of their
    parts, longest first (so a string past the bound is refused at once).  A
    box of more than 3 points per label is split by parts, last part first."""
    groups = {}
    for lam in map(partition, lams):
        groups.setdefault(len(lam), set()).add(lam)
    out = {}
    for m, group in sorted(groups.items(), reverse=True):
        chain = string_chain(pi, (dual,) * m)
        todo = [(group, m)]
        while todo:
            group, i = todo.pop()
            box = list(zip(*group))
            if i and prod(max(p) - min(p) + 1 for p in box) > 3 * len(group):
                todo += [({lam for lam in group if lam[i - 1] == x}, i - 1)
                         for x in {lam[i - 1] for lam in group}]
                continue
            window = {v: (min(p), max(p)) for v, p in zip(chain.vars, box)}
            vals = apply_chain(chain, SymFunc.one(), window)
            out.update((lam, vals.get(lam, SymFunc.zero())) for lam in group)
    return out


def vertex_string(pi, lam, dual=False):
    """Coefficient route to the deformed Schur functions: apply one vertex
    operator per part of lam to the constant 1 and read off the monomial
    z1^lam1 ... zm^lamm.  With dual=True uses annihilation operators and
    yields the companion family."""
    lam = partition(lam)
    return vertex_strings(pi, (lam,), dual)[lam]


# #### modes and anticommutators ####

_mode_memo = {}
_stage_memo = {}  # (pi, dual, lam) -> _skew_stage
_stage_chain_memo = {}  # (pi, dual) -> (skew chain, period)


def _straighten(n, mu):
    """B_n s_mu = s_(n, mu) straightened by Jacobi-Trudi, as (sign, nu), or
    None for 0.  The new row's beta-number n + l (l = len(mu)) passes the a
    larger beta-numbers mu_i + l - i, whose rows lose a box each; row a
    gets n + a boxes, and the sign is (-1)^a.  A collision or n + l < 0
    gives 0."""
    a = 0
    for x in mu:  # mu_i - i strictly decreases: the larger ones lead
        if x - a <= n + 1:
            break
        a += 1
    if n + a < 0 or mu[a:a + 1] == (n + a + 1,):
        return None
    nu = tuple(x - 1 for x in mu[:a]) + (n + a,) + mu[a:]
    return (-1) ** a, tuple(x for x in nu if x)


def _skew_stage(pi, dual, lam):
    """The factors of the (pi, dual) vertex operator after its first two,
    applied to s_lam, as ({e: {mu: coeff}}, period) over the z^e
    coefficients; memoized.  For the dual kind every mu is conjugated, as
    it is straightened in that form.  The row series on 1, for a dual odd
    column of height k, is sum_r z^(kr) times the identity, infinite in e:
    it is left to the caller as period k.  Every other factor is bounded
    by degree or by a finite series, so the window never cuts them."""
    key = (pi, dual, lam)
    if key not in _stage_memo:
        if (pi, dual) not in _stage_chain_memo:
            factors = _vertex_factors(pi, (dual,), ("z",))[2:]
            ones = [f for f in factors
                    if f.family == "M" and f.shape == SymFunc.one()]
            _stage_chain_memo[pi, dual] = (
                FactorChain(("z",), [f for f in factors if f not in ones]),
                ones[0].exps[0] if ones else 0)
        chain, period = _stage_chain_memo[pi, dual]
        res = apply_chain(chain, SymFunc.schur(lam), {"z": (0, sys.maxsize)})
        _stage_memo[key] = {
            e: {(conjugate(mu) if dual else mu): c for mu, c in v.c.items()}
            for (e,), v in res.items()}, period
    return _stage_memo[key]


def _vertex_coefficient(pi, dual, j, lam):
    """Coefficient of z^j in (vertex operator of shape pi) applied to the
    Schur function of lam.  Memoized; modes act linearly over these.  The
    result's coefficient map is a read-only view of the memo entry.

    It is sum_e B_(j-e) S_e over the z^e coefficients S_e of _skew_stage,
    each B_n s_mu one _straighten term (dual: (-1)^n omega B_n omega, the
    inner omega held by the stage, the outer applied once to the sum); a
    periodic stage is cut at e <= j + |lam|: B_n s_mu = 0 for n < -len(mu)."""
    key = (pi, dual, j, lam)
    found = _mode_memo.get(key)
    if found is not None:
        return found
    d = weight(lam)
    stage, period = _skew_stage(pi, dual, lam)
    acc = {}
    for e0, val in stage.items():
        for e in range(e0, j + d + 1, period) if period else (e0,):
            flip = -1 if dual and (j - e) % 2 else 1
            for mu, c in val.items():
                t = _straighten(j - e, mu)
                if t:
                    acc[t[1]] = acc.get(t[1], 0) + flip * t[0] * c
    if dual:
        acc = {conjugate(nu): c for nu, c in acc.items()}
    val = SymFunc._new(acc)
    val.c = MappingProxyType(val.c)
    _mode_memo[key] = val
    return val


def _kind_is_dual(kind):
    if kind not in ("X", "Xstar"):
        raise ValueError("kind must be 'X' or 'Xstar'")
    return kind == "Xstar"


def _mode_into(out, pi, dual, m, sectors):
    """Add mode m of the (pi, dual) family, applied to sectors {charge:
    {lam: coeff}}, into out {charge: {nu: coeff}}; returns out.  Zero
    coefficients are skipped, so an unwrapped result can be fed back."""
    for c, f in sectors.items():
        j = (c - 1 - m) if dual else (-m - c)
        acc = out.setdefault((c - 1) if dual else (c + 1), {})
        for lam, co in f.items():
            if co:
                for nu, v in _vertex_coefficient(pi, dual, j, lam).c.items():
                    acc[nu] = acc.get(nu, 0) + co * v
    return out


def _state_sectors(state):
    if not isinstance(state, ChargedState):
        raise TypeError("mode acts on a ChargedState")
    return {c: f.c for c, f in state.c.items()}


def _wrap_sectors(sectors):
    return ChargedState._new({c: SymFunc._new(d) for c, d in sectors.items()})


def mode(pi, kind, m, state):
    """Mode m of the creation ('X') or annihilation ('Xstar') operator
    family of shape pi, acting on a ChargedState.

    On a sector of charge c the creation mode reads the z-coefficient of
    index -m-c and raises the charge, the annihilation mode reads index
    c-1-m and lowers it; the offsets are the zero-mode calculus absorbed
    into the extraction (see zero_mode_normal_form).
    """
    return _wrap_sectors(_mode_into({}, partition(pi), _kind_is_dual(kind),
                                    m, _state_sectors(state)))


def _anticommutator_into(pi, dual_a, m, dual_b, n, sectors):
    """{mode_a, mode_b} on sectors {charge: {lam: coeff}}, zeros dropped."""
    out = _mode_into({}, pi, dual_a, m,
                     _mode_into({}, pi, dual_b, n, sectors))
    _mode_into(out, pi, dual_b, n, _mode_into({}, pi, dual_a, m, sectors))
    return _nonzero(out)


def anticommutator(pi, kind_a, m, kind_b, n, state):
    """{mode_a, mode_b} applied to a ChargedState.  Both modes have the
    shape pi: the Clifford relations hold for one shape at a time."""
    return _wrap_sectors(_anticommutator_into(
        partition(pi), _kind_is_dual(kind_a), m, _kind_is_dual(kind_b), n,
        _state_sectors(state)))


# #### normal-ordered products ####

@dataclass(eq=False)
class NormalProduct:
    """A normal-ordered multi-vertex product: rational prefactors
    (1 - x^exps)^power and a factor chain.  A prefactor with power p >= 0
    is the column series of the constant p, sum_r (-1)^r C(p, r) x^(r
    exps), so apply() runs it as one more chain factor.  Prefactors with
    power -1 are kept symbolic; apply() refuses them (verification
    cross-multiplies instead)."""

    vars: tuple
    prefactors: list  # of (exps tuple, power int)
    chain: FactorChain

    def apply(self, state, window):
        """Apply the product to a SymFunc on a window, as apply_chain: the
        prefactors are leftmost factors, applied last."""
        if any(power < 0 for _, power in self.prefactors):
            raise ValueError("inverse prefactor cannot be expanded on a "
                             "window; cross-multiply instead")
        pre = [make_factor("multiply", "L", SymFunc({(): power}), exps,
                           self.vars)
               for exps, power in self.prefactors]
        return apply_chain(FactorChain(self.vars, pre + self.chain.factors),
                           state, window)

    def __repr__(self):
        bits = []
        for exps, power in self.prefactors:
            base = "(1 - %s)" % _var_power_label(self.vars, exps)
            bits.append(base if power == 1 else "%s^%d" % (base, power))
        bits.append(repr(self.chain))
        return " ".join(bits)


def normal_ordered_string(pi, duals):
    """Normal-ordered form of the product of vertex operators of shape pi,
    one per variable z1..zm (annihilation where duals[i] is true):
    prefactors (1 - zi^-1 zj) for i < j, all multiplications left of all
    adjoints, and one cross-variable adjoint per nonzero index tuple (see
    _vertex_factors).  Like kinds give the polynomial prefactors; mixed
    kinds carry their inverse, kept symbolic, and are only verified for two
    operators, so more are refused."""
    duals = tuple(duals)
    m = len(duals)
    varnames = tuple("z%d" % (i + 1) for i in range(m))
    mixed = len(set(duals)) > 1
    if mixed and m > 2:
        raise ValueError("normal ordering of mixed kinds is only verified "
                         "for two operators, got %d" % m)
    prefactors = [(tuple(-1 if v == i else 1 if v == j else 0
                         for v in range(m)), -1 if mixed else 1)
                  for i in range(m) for j in range(i + 1, m)]
    return NormalProduct(varnames, prefactors, FactorChain(
        varnames, _vertex_factors(pi, duals, varnames)))


# #### zero-mode calculus ####

@dataclass(frozen=True)
class ZeroModeNormalForm:
    """Canonical form of a word of charge shifts and charge-reading
    monomials: acting on a sector of charge c it contributes the monomial
    prod_v v^(prefactor[v] + alpha[v]*(c + shift)) and moves the sector to
    charge c + shift.  The charge-reading exponent alpha is referred to the
    charge AFTER the shift."""

    prefactor: tuple  # sorted ((var, int), ...)
    alpha: tuple      # sorted ((var, int), ...)
    shift: int

    def exponents_at(self, c):
        """Concrete monomial exponents on a sector of charge c."""
        e = dict(self.prefactor)
        for v, a in self.alpha:
            e[v] = e.get(v, 0) + a * (c + self.shift)
        return {v: x for v, x in e.items() if x}, c + self.shift


def creation_zero_word(var):
    """Zero-mode part of a creation vertex operator: raise the charge and
    read var^charge (in display order; the word applies right to left)."""
    return [("shift", 1), ("mono", var, 0, 1)]


def annihilation_zero_word(var):
    """Zero-mode part of an annihilation vertex operator: lower the charge
    and read var^(1 - charge)."""
    return [("shift", -1), ("mono", var, 1, -1)]


def zero_mode_normal_form(word):
    """Normalize a word (display order, rightmost element applied first) of
    charge shifts ("shift", k), which move the charge by k, and
    charge-reading monomials ("mono", var, const, alpha), which read
    var^(const + alpha * charge) at the charge of their own position."""
    shift = 0
    const = {}
    coef = {}
    for op in reversed(word):
        if op[0] == "shift":
            shift += op[1]
        elif op[0] == "mono":
            _, v, a, b = op
            # the monomial sees charge c + (shifts applied so far)
            const[v] = const.get(v, 0) + a + b * shift
            coef[v] = coef.get(v, 0) + b
        else:
            raise ValueError("unknown zero-mode element %r" % (op,))
    pref = {v: const.get(v, 0) - coef.get(v, 0) * shift
            for v in set(const) | set(coef)}
    return ZeroModeNormalForm(
        prefactor=tuple(sorted((v, x) for v, x in pref.items() if x)),
        alpha=tuple(sorted((v, x) for v, x in coef.items() if x)),
        shift=shift)
