"""Plethysm and the two inverse generating series built from it.

Everything runs through the power-sum basis: substitution by a power sum
p_k is the ring map sending p_j to p_{jk}, an arbitrary plethysm expands
both sides in power sums and substitutes, and the result returns to the
Schur basis by adding border strips (schurring.from_power), with no
character table on the way back.  Constant inner shapes need no
special casing -- substituting into the empty power-sum monomial leaves it
fixed, which reproduces the usual evaluation-at-a-scalar rules.

Two graded series appear all over the vertex-operator layer:

  row series    M_g(z) = sum_r z^r  h_r[g]
  column series L_g(z) = sum_r z^r (-1)^r e_r[g]

for an arbitrary (possibly inhomogeneous, possibly constant) shape g.  They
are mutually inverse: M_g(z) L_g(z) = 1.
"""

from types import MappingProxyType

from . import schurring
from .partitions import conjugate, contains, partition, partitions_of, weight
from .schurring import (SymFunc, PowerExpr, from_power, product_schur_pair,
                        to_power)


def power_substitute(k, expr):
    """Apply the ring map p_j -> p_{j*k}, the plethysm p_k[expr], to a
    power-sum expression (constants are fixed points)."""
    return PowerExpr._new({tuple(k * x for x in rho): a
                           for rho, a in expr.c.items()})


def plethysm(outer, inner):
    """Plethysm outer[inner] of two SymFunc values (outer may be given as a
    partition, meaning the corresponding Schur function)."""
    if not isinstance(outer, SymFunc):
        outer = SymFunc.schur(partition(outer))
    gp = to_power(inner)
    sub = {}
    out = PowerExpr()
    for rho, b in to_power(outer).c.items():
        term = PowerExpr.one()
        for k in rho:
            if k not in sub:
                sub[k] = power_substitute(k, gp)
            term = term * sub[k]
        out = out + term.scale(b)
    return from_power(out)


# #### graded inverse series ####

_series_memo = {}


def _shape_key(shape):
    return tuple(sorted(shape.c.items()))


def series_term(family, shape, r):
    """Degree-r term of the row series ('M') or column series ('L') of the
    given shape: h_r[shape] resp. (-1)^r e_r[shape].  Memoized; the
    result's coefficient map is a read-only view of the memo entry."""
    if family not in ("M", "L"):
        raise ValueError("series family must be 'M' or 'L'")
    if r < 0:
        return SymFunc.zero()
    if r == 0:
        return SymFunc.one()
    key = (family, _shape_key(shape), r)
    found = _series_memo.get(key)
    if found is not None:
        return found
    if family == "M":
        val = plethysm((r,), shape)
    else:
        val = plethysm((1,) * r, shape).scale((-1) ** r)
    val.c = MappingProxyType(val.c)
    _series_memo[key] = val
    return val


# #### deformed Schur functions and branching ####

def _require_nonempty(pi):
    pi = partition(pi)
    if not pi:
        raise ValueError("shape must be a nonempty partition")
    return pi


def pi_schur(pi, lam):
    """Deformed Schur function: the full adjoint column series of shape pi
    applied to the Schur function of lam.  Generally inhomogeneous."""
    pi = _require_nonempty(pi)
    lam = partition(lam)
    return pi_unbranch(pi, SymFunc.schur(lam))


def dual_pi_schur(pi, lam):
    """Companion family: (-1)^|lam| times the deformed Schur function of the
    conjugate of lam."""
    pi = _require_nonempty(pi)
    lam = partition(lam)
    return pi_schur(pi, conjugate(lam)).scale((-1) ** weight(lam))


def _adjoint_series(family, pi, f):
    """Adjoint of the row ('M') or column ('L') series of shape pi applied
    to f, all grades summed."""
    pi = _require_nonempty(pi)
    shape = SymFunc.schur(pi)
    out = SymFunc.zero()
    for r in range(f.degree() // weight(pi) + 1):
        out = out + f.skew_by(series_term(family, shape, r))
    return out


def pi_branch(pi, f):
    """Adjoint row series of shape pi applied to f (all grades summed).
    Inverse of pi_unbranch."""
    return _adjoint_series("M", pi, f)


def pi_unbranch(pi, f):
    """Adjoint column series of shape pi applied to f (all grades summed).
    Inverse of pi_branch."""
    return _adjoint_series("L", pi, f)


def _cauchy(pi, lam, dual):
    """Deformed Schur function (dual: its companion) assembled from explicit
    series coefficients and Littlewood-Richardson numbers computed on the
    product side, with no skewing: the sum over nu of coefficient(nu) times
    c^lam_{mu,nu} s_mu.  The plain family takes column-series coefficients
    of pi.  The companion takes those of the conjugate shape -- column
    series when |pi| is even, row series when it is odd -- with the sign
    (-1)^|mu| and a conjugate on the output label.  Pairs with mu or nu
    outside lam are skipped; a Pieri pair (a shape empty, one row or one
    column) reads the product, and any other counts c^lam_{mu,nu} alone."""
    pi = _require_nonempty(pi)
    lam = partition(lam)
    if dual:
        family = "L" if weight(pi) % 2 == 0 else "M"
        shape = SymFunc.schur(conjugate(pi))
    else:
        family, shape = "L", SymFunc.schur(pi)
    out = {}
    for r in range(weight(lam) // weight(pi) + 1):
        for nu, co in series_term(family, shape, r).c.items():
            for mu in partitions_of(weight(lam) - weight(nu)):
                if not (contains(lam, nu) and contains(lam, mu)):
                    continue
                lr = min(len(mu), len(nu)) > 1 and min(mu[0], nu[0]) > 1
                c = (schurring._lr_tableaux(max(mu, nu), min(mu, nu), lam)
                     if lr else product_schur_pair(mu, nu)).get(lam, 0)
                if not c:
                    continue
                if dual:
                    mu = conjugate(mu)
                    c *= (-1) ** weight(mu)
                out[mu] = out.get(mu, 0) + co * c
    return SymFunc._new(out)


def cauchy_pi_schur(pi, lam):
    """Deformed Schur function by the Cauchy route (see _cauchy)."""
    return _cauchy(pi, lam, False)


def cauchy_dual_pi_schur(pi, lam):
    """Companion family by the Cauchy route (see _cauchy)."""
    return _cauchy(pi, lam, True)
