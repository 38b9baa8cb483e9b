"""Vertex operator chains acting on (charged) symmetric-function states.

A chain is a product of factors, each either multiplication by a graded
series or the adjoint (skew) of one, with a monomial in formal variables
tracking the grade: e.g. the basic creation family

    V_pi(z)  = M(z) . Madj/Ladj factors in powers of z

is a FactorChain whose factors carry shapes (SymFunc values) and integer
exponent vectors.  Chains act on SymFunc or ChargedState values and return a
LaurentMap: finitely many exponent vectors inside a requested window, each
with an exact value.  Termination over mixed-sign exponents comes from a
small fixpoint plan bounding how far any factor can still move an exponent
back into the window.

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
"""

import sys
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType

from .partitions import conjugate, partition, weight
from .plethysm import series_term
from .schurring import SymFunc, _LinComb, format_symfunc


# #### charged states ####

class ChargedState(_LinComb):
    """Finite sum of charge sectors: a _LinComb keyed by charge whose
    values are SymFunc, no zero sectors.  Supports the same linear
    operations as SymFunc, applied sector by sector (none of them move
    charge)."""

    __slots__ = ()

    _key = staticmethod(int)
    _coerce = staticmethod(lambda f: f if isinstance(f, SymFunc)
                           else SymFunc(f))

    @property
    def sectors(self):
        """The {charge: SymFunc} map (read-only alias of c)."""
        return self.c

    @classmethod
    def vacuum(cls, charge=0, value=None):
        return cls({charge: value if value is not None else SymFunc.one()})

    one = vacuum

    def __mul__(self, term):
        return self._new({c: f * term for c, f in self.c.items()})

    def skew_by(self, term):
        return self._new({c: f.skew_by(term) for c, f in self.c.items()})

    def degree(self):
        return max((f.degree() for f in self.c.values()), default=0)

    def shift_charge(self, k):
        return self._new({c + k: f for c, f in self.c.items()})

    def __repr__(self):
        bits = ["|%d, %s>" % (c, format_symfunc(f))
                for c, f in sorted(self.c.items())]
        return " + ".join(bits) if bits else "0"


# #### Laurent coefficient maps and windows ####

def normalize_window(window, varnames):
    """Accept {var: (lo, hi)}, a single (lo, hi), or a single int w meaning
    (-w, w) for every variable; return {var: (lo, hi)} (inclusive ends)."""
    if isinstance(window, int):
        window = (-window, window)
    if isinstance(window, tuple) and len(window) == 2 and all(
            isinstance(x, int) for x in window):
        window = {v: window for v in varnames}
    out = {}
    for v in varnames:
        if v not in window:
            raise ValueError("window is missing variable %r" % v)
        lo, hi = window[v]
        if lo > hi:
            raise ValueError("empty window for %r" % v)
        out[v] = (int(lo), int(hi))
    return out


class LaurentMap:
    """Finitely many exponent vectors with exact values (SymFunc or
    ChargedState), tagged with the variable names."""

    __slots__ = ("vars", "data")

    def __init__(self, varnames, data=None):
        self.vars = tuple(varnames)
        self.data = {tuple(int(x) for x in e): v
                     for e, v in (data or {}).items() if v}

    def get(self, exps):
        return self.data.get(tuple(exps))

    def items(self):
        return sorted(self.data.items())

    def restrict(self, window):
        w = normalize_window(window, self.vars)
        out = LaurentMap(self.vars)
        for e, v in self.data.items():
            if all(w[self.vars[i]][0] <= e[i] <= w[self.vars[i]][1]
                   for i in range(len(self.vars))):
                out.data[e] = v
        return out

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        if isinstance(other, LaurentMap):
            return self.vars == other.vars and self.data == other.data
        return NotImplemented

    def __repr__(self):
        bits = []
        for e, v in self.items():
            mono = "*".join("%s^%d" % (self.vars[i], e[i])
                            for i in range(len(self.vars)))
            bits.append("%s: %r" % (mono or "1", v))
        return "LaurentMap{%s}" % ", ".join(bits)


def multiply_one_minus_monomial(lmap, exps, times=1):
    """Multiply a LaurentMap by (1 - x^exps)^times for times >= 1."""
    out = lmap
    for _ in range(times):
        data = {}
        for e, v in out.data.items():
            data[e] = data.get(e, 0) + v
            shifted = tuple(x + y for x, y in zip(e, exps))
            data[shifted] = data.get(shifted, 0) + (-v)
        out = LaurentMap(out.vars, data)
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

    def term(self, r):
        return series_term(self.family, self.shape, r)

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
    bits = []
    for v, e in zip(varnames, exps):
        if e == 1:
            bits.append(v)
        elif e:
            bits.append("%s^%d" % (v, e))
    return "*".join(bits) or "1"


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


def _min_degree(shape):
    return min((weight(lam) for lam in shape.c), default=0)


def _finite_series_bound(factor):
    """Highest nonzero term index of the factor's series, when that is
    finite a priori: an alternating-sign series on a constant shape c has
    coefficients (-1)^r * e_r[c], zero beyond r = c for integer c >= 0."""
    if factor.family != "L" or factor.shape.degree() != 0:
        return None
    c = factor.shape.coeff(())
    if c == int(c) and c >= 0:
        return int(c)
    return None


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
            dmin = _min_degree(f.shape)
            fin = _finite_series_bound(f)
            if f.action == "skew" and dmin >= 1:
                new = max(0, deg) // dmin
            elif fin is not None:
                new = fin
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


def apply_chain(chain, state, window):
    """Apply a factor chain to a SymFunc or ChargedState and collect the
    exact coefficient of every monomial inside the window (inclusive on
    both ends).  Returns a LaurentMap."""
    w = normalize_window(window, chain.vars)
    nv = len(chain.vars)
    if not isinstance(state, (SymFunc, ChargedState)):
        raise TypeError("state must be a SymFunc or ChargedState")
    out = LaurentMap(chain.vars)
    if not state:
        return out
    rb, down, up = _termination_plan(chain, state.degree(), w)
    lo = [w[v][0] for v in chain.vars]
    hi = [w[v][1] for v in chain.vars]
    app = list(reversed(chain.factors))
    cur = {(0,) * nv: state}
    for u, f in enumerate(app):
        dmin = _min_degree(f.shape)
        fin = _finite_series_bound(f)
        # the box of exponents that later factors can still bring back
        # into the window
        lo_u = [lo[v] - up[u + 1][v] for v in range(nv)]
        hi_u = [hi[v] + down[u + 1][v] for v in range(nv)]
        nxt = {}
        for exps, val in cur.items():
            if f.action == "skew" and dmin >= 1:
                rmax = val.degree() // dmin
            elif fin is not None:
                rmax = fin
            else:
                rmax = rb[u]
                for v, e in enumerate(f.exps):
                    if e > 0:
                        rmax = min(rmax, (hi_u[v] - exps[v]) // e)
                    elif e < 0:
                        rmax = min(rmax, (exps[v] - lo_u[v]) // (-e))
            for r in range(rmax + 1):
                term = f.term(r)
                if not term:
                    continue
                ne = tuple(x + r * e for x, e in zip(exps, f.exps))
                if not all(a <= x <= b for a, x, b in zip(lo_u, ne, hi_u)):
                    continue
                if f.action == "multiply":
                    nv_val = val * term
                else:
                    nv_val = val.skew_by(term)
                if nv_val:
                    nxt[ne] = nxt.get(ne, 0) + nv_val
        cur = {e: v for e, v in nxt.items() if v}
        if not cur:
            break
    out.data = {e: val for e, val in cur.items()
                if all(a <= x <= b for a, x, b in zip(lo, e, hi))}
    return out


# #### the two vertex operator families ####

def build_vertex(pi, var="z", dual=False):
    """Creation vertex operator of shape pi in one variable: multiplication
    by the row series in z, the adjoint column series in 1/z, and one
    adjoint column series of the k-row skew of pi in z^k for each k up to
    the first row of pi.

    With dual=True, the annihilation operator: multiplication by the
    column series in z, the adjoint row series in 1/z, and for each column
    depth k up to the length of pi an adjoint series of the k-column skew
    of pi in z^k -- row series for odd k, column series for even k."""
    pi = partition(pi)
    vs = (var,)
    s1 = SymFunc.schur((1,))
    mult, adj = ("L", "M") if dual else ("M", "L")
    factors = [make_factor("multiply", mult, s1, (1,), vs),
               make_factor("skew", adj, s1, (-1,), vs)]
    top = len(pi) if dual else (pi[0] if pi else 0)
    for k in range(1, top + 1):
        shape = SymFunc.schur(pi).skew_by((1,) * k if dual else (k,))
        if shape:
            fam = "M" if dual and k % 2 == 1 else "L"
            factors.append(make_factor("skew", fam, shape, (k,), vs))
    return FactorChain(vs, factors)


def build_dual_vertex(pi, var="z"):
    """Annihilation vertex operator of shape pi (build_vertex, dual=True)."""
    return build_vertex(pi, var, dual=True)


def _embed_chain(chain1, position, varnames):
    """Re-index a one-variable chain into a multi-variable space."""
    nv = len(varnames)
    factors = []
    for f in chain1.factors:
        exps = [0] * nv
        exps[position] = f.exps[0]
        factors.append(make_factor(f.action, f.family, f.shape, exps, varnames))
    return factors


def string_chain(pi, m, dual=False, varnames=None):
    """The literal left-to-right product of m vertex operators of shape pi
    in variables z1..zm as a single chain."""
    if varnames is None:
        varnames = tuple("z%d" % (i + 1) for i in range(m))
    factors = []
    for i in range(m):
        factors.extend(_embed_chain(build_vertex(pi, dual=dual), i,
                                    varnames))
    return FactorChain(tuple(varnames), factors)


DEFAULT_STRING_BOUND = 4


def vertex_string(pi, lam, dual=False, max_vertices=DEFAULT_STRING_BOUND):
    """Coefficient route to the deformed Schur functions: apply one vertex
    operator per part of lam to the constant 1 and read off the monomial
    z1^lam1 ... zm^lamm.  With dual=True uses annihilation operators and
    yields the companion family."""
    pi = partition(pi)
    lam = partition(lam)
    m = len(lam)
    if m == 0:
        return SymFunc.one()
    if m > max_vertices:
        raise ValueError("string of %d vertices exceeds the bound %d"
                         % (m, max_vertices))
    chain = string_chain(pi, m, dual=dual)
    window = {chain.vars[i]: (lam[i], lam[i]) for i in range(m)}
    res = apply_chain(chain, SymFunc.one(), window)
    val = res.get(lam)
    return val if val is not None else SymFunc.zero()


# #### modes and anticommutators ####

_mode_memo = {}
_stage_memo = {}  # (pi, dual, lam) -> _skew_stage
_plan_checked = set()  # (pi, dual, |lam|, j) whose chain plan did not refuse


def _straighten(n, mu):
    """B_n s_mu = s_(n, mu) straightened by Jacobi-Trudi, as (sign, nu), or
    None for 0.  The new row's beta-number n + l (l = len(mu)) passes the a
    larger beta-numbers mu_i + l - i, whose rows lose a box each; row a
    gets n + a boxes, and the sign is (-1)^a.  A collision or n + l < 0
    gives 0."""
    a = sum(x - i > n + 1 for i, x in enumerate(mu))
    if n + a < 0 or mu[a:a + 1] == (n + a + 1,):
        return None
    nu = tuple(x - 1 for x in mu[:a]) + (n + a,) + mu[a:]
    return (-1) ** a, tuple(x for x in nu if x)


def _skew_stage(pi, dual, lam):
    """build_vertex(pi, dual).factors[2:] applied to s_lam, as ({e: z^e
    coefficient}, period); memoized.  The row series on 1, for a dual odd
    column of height k, is sum_r z^(kr) times the identity, infinite in e:
    it is left to the caller as period k.  Every other factor is bounded by
    degree or by a finite series, so the window never cuts them."""
    key = (pi, dual, lam)
    if key not in _stage_memo:
        chain = build_vertex(pi, dual=dual)
        ones = [f for f in chain.factors[2:]
                if f.family == "M" and f.shape == SymFunc.one()]
        skews = [f for f in chain.factors[2:] if f not in ones]
        period = ones[0].exps[0] if ones else 0
        res = apply_chain(FactorChain(chain.vars, skews), SymFunc.schur(lam),
                          (0, sys.maxsize))
        _stage_memo[key] = {e: v for (e,), v in res.data.items()}, period
    return _stage_memo[key]


def _vertex_coefficient(pi, dual, j, lam):
    """Coefficient of z^j in (vertex operator of shape pi) applied to the
    Schur function of lam.  Memoized; modes act linearly over these.  The
    result's coefficient map is a read-only view of the memo entry.

    It is sum_e B_(j-e) S_e over the z^e coefficients S_e of _skew_stage,
    each B_n s_mu one _straighten term (dual: (-1)^n omega B_n omega); a
    periodic stage is cut at e <= j + |lam|: B_n s_mu = 0 for n < -len(mu).
    The chain's plan runs once per (pi, dual, |lam|, j) for its refusals."""
    key = (pi, dual, j, lam)
    found = _mode_memo.get(key)
    if found is not None:
        return found
    d = weight(lam)
    if (pi, dual, d, j) not in _plan_checked:
        _termination_plan(build_vertex(pi, dual=dual), d, {"z": (j, j)})
        _plan_checked.add((pi, dual, d, j))
    stage, period = _skew_stage(pi, dual, lam)
    acc = {}
    for e0, val in stage.items():
        for e in range(e0, j + d + 1, period) if period else (e0,):
            for mu, c in val.c.items():
                t = _straighten(j - e, conjugate(mu) if dual else mu)
                if t:
                    sign, nu = t
                    if dual:
                        sign, nu = sign * (-1) ** ((j - e) % 2), conjugate(nu)
                    acc[nu] = acc.get(nu, 0) + sign * c
    val = SymFunc._new(acc)
    val.c = MappingProxyType(val.c)
    _mode_memo[key] = val
    return val


def _kind_is_dual(kind):
    if kind in ("X", "create", "creation"):
        return False
    if kind in ("X*", "Xstar", "annihilate", "annihilation"):
        return True
    raise ValueError("kind must be 'X' or 'Xstar'")


def mode(pi, kind, m, state):
    """Mode m of the creation ('X') or annihilation ('Xstar') operator
    family of shape pi, acting on a ChargedState.

    On a sector of charge c the creation mode reads the z-coefficient of
    index -m-c and raises the charge, the annihilation mode reads index
    c-1-m and lowers it; the offsets are the zero-mode calculus absorbed
    into the extraction (see zero_mode_normal_form).
    """
    pi = partition(pi)
    dual = _kind_is_dual(kind)
    if not isinstance(state, ChargedState):
        raise TypeError("mode acts on a ChargedState")
    out = {}
    for c, f in state.c.items():
        j = (c - 1 - m) if dual else (-m - c)
        acc = {}
        for lam, co in f.c.items():
            for nu, v in _vertex_coefficient(pi, dual, j, lam).c.items():
                acc[nu] = acc.get(nu, 0) + co * v
        out[(c - 1) if dual else (c + 1)] = SymFunc._new(acc)
    return ChargedState._new(out)


def anticommutator(pi, kind_a, m, kind_b, n, state, pi_b=None):
    """{mode_a, mode_b} applied to a ChargedState.

    Both modes must share one shape: products of modes built from two
    different shapes have no stated relations and are rejected."""
    if pi_b is not None and partition(pi_b) != partition(pi):
        raise ValueError("anticommutator needs matching shapes, got %r / %r"
                         % (pi, pi_b))
    first = mode(pi, kind_a, m, mode(pi, kind_b, n, state))
    second = mode(pi, kind_b, n, mode(pi, kind_a, m, state))
    return first + second


# #### normal-ordered products ####

@dataclass(eq=False)
class NormalProduct:
    """A normal-ordered multi-vertex product: rational prefactors
    (1 - x^exps)^power and a factor chain.  Prefactors with power -1 are
    kept symbolic; apply() refuses them (verification cross-multiplies
    instead)."""

    vars: tuple
    prefactors: list  # of (exps tuple, power int)
    chain: FactorChain

    def apply(self, state, window):
        w = normalize_window(window, self.vars)
        pad_lo = {v: 0 for v in self.vars}
        pad_hi = {v: 0 for v in self.vars}
        for exps, power in self.prefactors:
            if power < 0:
                raise ValueError("inverse prefactor cannot be expanded on a "
                                 "window; cross-multiply instead")
            for v, e in zip(self.vars, exps):
                if e > 0:
                    pad_lo[v] += power * e
                else:
                    pad_hi[v] += power * (-e)
        wide = {v: (w[v][0] - pad_lo[v], w[v][1] + pad_hi[v]) for v in self.vars}
        res = apply_chain(self.chain, state, wide)
        for exps, power in self.prefactors:
            res = multiply_one_minus_monomial(res, exps, power)
        return res.restrict(w)

    def __repr__(self):
        bits = []
        for exps, power in self.prefactors:
            base = "(1 - %s)" % _var_power_label(self.vars, exps)
            bits.append(base if power == 1 else "%s^%d" % (base, power))
        bits.append(repr(self.chain))
        return " ".join(bits)


def _skew_by_rows_cols(pi, rows, cols):
    """Skew the Schur function of pi by a product of one-row pieces (sizes
    in `rows`) and one-column pieces (sizes in `cols`)."""
    shape = SymFunc.schur(pi)
    for part in [(k,) for k in rows if k] + [(1,) * k for k in cols if k]:
        if not shape:
            break
        shape = shape.skew_by(part)
    return shape


def normal_ordered_string(pi, m, dual=False, varnames=None):
    """Normal-ordered form of a product of m like vertex operators of
    shape pi: polynomial prefactors (1 - zi^-1 zj) for i < j, all
    multiplications moved left of all adjoints, and one cross-variable
    adjoint factor per nonzero index tuple."""
    pi = partition(pi)
    if varnames is None:
        varnames = tuple("z%d" % (i + 1) for i in range(m))
    nv = len(varnames)
    prefactors = []
    for i in range(nv):
        for j in range(i + 1, nv):
            exps = [0] * nv
            exps[i] = -1
            exps[j] = 1
            prefactors.append((tuple(exps), 1))
    s1 = SymFunc.schur((1,))
    factors = []
    for i in range(nv):
        exps = [0] * nv
        exps[i] = 1
        factors.append(make_factor("multiply", "L" if dual else "M",
                                   s1, exps, varnames))
    for i in range(nv):
        exps = [0] * nv
        exps[i] = -1
        factors.append(make_factor("skew", "M" if dual else "L",
                                   s1, exps, varnames))
    top = (len(pi) if dual else (pi[0] if pi else 0))
    for tup in product(range(top + 1), repeat=nv):
        if not any(tup):
            continue
        if dual:
            shape = _skew_by_rows_cols(pi, (), tup)
            fam = "M" if sum(tup) % 2 == 1 else "L"
        else:
            shape = _skew_by_rows_cols(pi, tup, ())
            fam = "L"
        if shape:
            factors.append(make_factor("skew", fam, shape, tup, varnames))
    return NormalProduct(tuple(varnames), prefactors,
                         FactorChain(tuple(varnames), factors))


def normal_ordered_pair(pi, kinds, varnames=("z", "w")):
    """Normal-ordered form of a two-vertex product; kinds is a pair drawn
    from 'X' (creation) and 'Xstar' (annihilation).  Like kinds give the
    polynomial prefactor (1 - z^-1 w); mixed kinds carry its inverse, kept
    symbolic."""
    pi = partition(pi)
    a, b = (_kind_is_dual(k) for k in kinds)
    if a == b:
        return normal_ordered_string(pi, 2, dual=a, varnames=varnames)
    s1 = SymFunc.schur((1,))
    vs = tuple(varnames)
    prefactors = [((-1, 1), -1)]
    factors = [
        make_factor("multiply", "L" if a else "M", s1, (1, 0), vs),
        make_factor("multiply", "M" if a else "L", s1, (0, 1), vs),
        make_factor("skew", "M" if a else "L", s1, (-1, 0), vs),
        make_factor("skew", "L" if a else "M", s1, (0, -1), vs),
    ]
    # creation(z) * annihilation(w) grades rows by z and columns by w;
    # annihilation(z) * creation(w) grades columns by z and rows by w
    row_top, col_top = (pi[0] if pi else 0), len(pi)
    z_top, w_top = (col_top, row_top) if a else (row_top, col_top)
    for x in range(z_top + 1):
        for y in range(w_top + 1):
            if not (x or y):
                continue
            rows, cols = (y, x) if a else (x, y)
            shape = _skew_by_rows_cols(pi, (rows,), (cols,))
            if shape:
                fam = "M" if cols % 2 == 1 else "L"
                factors.append(make_factor("skew", fam, shape, (x, y), vs))
    return NormalProduct(vs, prefactors, FactorChain(vs, factors))


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


def raise_charge():
    """Primitive word element: shift the charge up by one."""
    return ("shift", 1)


def lower_charge():
    """Primitive word element: shift the charge down by one."""
    return ("shift", -1)


def charge_monomial(var, const=0, alpha=0):
    """Primitive word element: the monomial var^(const + alpha * charge),
    reading the charge at its own position in the word."""
    return ("mono", var, const, alpha)


def creation_zero_word(var="z"):
    """Zero-mode part of a creation vertex operator: raise the charge and
    read var^charge (in display order; the word applies right to left)."""
    return [raise_charge(), charge_monomial(var, 0, 1)]


def annihilation_zero_word(var="z"):
    """Zero-mode part of an annihilation vertex operator: lower the charge
    and read var^(1 - charge)."""
    return [lower_charge(), charge_monomial(var, 1, -1)]


def zero_mode_normal_form(word):
    """Normalize a word (display order, rightmost element applied first) of
    charge shifts and charge-reading monomials."""
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
