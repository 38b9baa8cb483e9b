"""Checks of symvertex outputs that do not use symvertex.

Nothing here imports the package.  A Schur expansion {partition: coefficient}
is checked by evaluating it at integer points and comparing with a value
computed another way, in plain integers:

* principal specialisations x = (1, ..., 1) of several lengths n, where
  s_lam(1^n) is the hook-content product, a plethysm s_mu[s_nu](1^n) is
  s_mu(1^N) with N = s_nu(1^n), and the series terms are
  h_r[s_sig](1^n) = C(N + r - 1, r) and e_r[s_sig](1^n) = C(N, r);
* pseudo-random points with large entries, where s_lam(x) is the
  Jacobi-Trudi determinant in the complete symmetric functions of x, and
  plethysms and series terms go through the power sums
  p_k(s_nu(x)) = s_nu(x_1^k, ..., x_n^k) and Newton's identities.

Every point has at least as many coordinates as the longest partition that
can occur in the true expansion or does occur in the claimed one, so no term
is invisible.  At the random points a wrong expansion passes only if the
point is a root of a nonzero polynomial of degree at most the weight, which
for entries drawn from 10^6 values happens with probability below 1e-4.
"""

import functools
import math
import random
from fractions import Fraction

_POINT_RANGE = 10 ** 6
_RANDOM_POINTS = 2
_ONES_LENGTHS = 3


class CheckError(Exception):
    """An output failed an independent check."""


# #### partitions ####

@functools.lru_cache(maxsize=None)
def partitions(n, max_part=None):
    """All partitions of n as tuples, largest parts first (a shared list:
    do not mutate)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, max_part), 0, -1):
        out.extend((k,) + rest for rest in partitions(n - k, k))
    return out


def conjugate(p):
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


# #### evaluation at integer points ####

def complete(x, kmax):
    """[h_0(x), ..., h_kmax(x)] for a list of integers x."""
    h = [1] + [0] * kmax
    for xi in x:
        for k in range(1, kmax + 1):
            h[k] += xi * h[k - 1]
    return h


def det(rows):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def schur_from_h(lam, h):
    """Jacobi-Trudi: s_lam = det(h_{lam_i - i + j}), h a list from h_0."""
    n = len(lam)
    return det([[h[lam[i] - i + j] if 0 <= lam[i] - i + j < len(h) else 0
                 for j in range(n)] for i in range(n)])


def skew_from_h(lam, mu, h):
    """Skew Jacobi-Trudi: s_{lam/mu} = det(h_{lam_i - mu_j - i + j})."""
    n = len(lam)
    mu = tuple(mu) + (0,) * (n - len(mu))
    return det([[h[lam[i] - mu[j] - i + j]
                 if 0 <= lam[i] - mu[j] - i + j < len(h) else 0
                 for j in range(n)] for i in range(n)])


def hook_content(lam, n):
    """s_lam(1^n) by the hook-content formula."""
    num, den = 1, 1
    lamc = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j) + (lamc[j] - i) - 1
    return num // den


def alphabet_h_e(p, kmax):
    """h_0..h_kmax and e_0..e_kmax of an alphabet from its power sums
    p[1..kmax] by Newton's identities; exact integers."""
    h, e = [1], [1]
    for k in range(1, kmax + 1):
        hk = sum(p[i] * h[k - i] for i in range(1, k + 1))
        ek = sum((-1) ** (i - 1) * p[i] * e[k - i] for i in range(1, k + 1))
        if hk % k or ek % k:
            raise CheckError("Newton identity gave a non-integer")
        h.append(hk // k)
        e.append(ek // k)
    return h, e


def _random_point(n, salt):
    rng = random.Random("perfbench-%d-%s" % (n, salt))
    return [rng.randrange(1, _POINT_RANGE) for _ in range(n)]


def _points(n, salt):
    """Integer points with n or more coordinates: all-ones points of a few
    lengths, then pseudo-random points of length n."""
    pts = [[1] * (n + i) for i in range(_ONES_LENGTHS)]
    pts.extend(_random_point(n, "%s-%d" % (salt, i))
               for i in range(_RANDOM_POINTS))
    return pts


def _is_ones(x):
    return all(v == 1 for v in x)


def expansion_at(expansion, x):
    """Value of a Schur expansion at the point x."""
    if not expansion:
        return 0
    top = max(sum(lam) for lam in expansion)
    h = None if _is_ones(x) else complete(x, top)
    total = 0
    for lam, c in expansion.items():
        if len(lam) > len(x):
            continue
        total += c * (hook_content(lam, len(x)) if h is None
                      else schur_from_h(lam, h))
    return total


def _require_integral(expansion, what):
    for lam, c in expansion.items():
        if Fraction(c).denominator != 1:
            raise CheckError("%s: coefficient %s of %s is not an integer"
                             % (what, c, lam))


def _require_weight(expansion, w, what):
    for lam in expansion:
        if sum(lam) != w:
            raise CheckError("%s: term %s has weight %d, expected %d"
                             % (what, lam, sum(lam), w))


def _require_positive(expansion, what):
    for lam, c in expansion.items():
        if c <= 0:
            raise CheckError("%s: coefficient %s of %s is not positive"
                             % (what, c, lam))


def _length(expansion):
    return max((len(lam) for lam in expansion), default=0)


def _compare(expansion, expected_at, n, what):
    for x in _points(n, what):
        got = expansion_at(expansion, x)
        want = expected_at(x)
        if got != want:
            raise CheckError("%s: value %d at a point with %d coordinates, "
                             "expected %d" % (what, got, len(x), want))


# #### the checks ####

def check_product(mu, nu, expansion):
    """s_mu * s_nu."""
    what = "product %s*%s" % (mu, nu)
    _require_integral(expansion, what)
    _require_weight(expansion, sum(mu) + sum(nu), what)
    _require_positive(expansion, what)
    n = max(len(mu) + len(nu), _length(expansion), 1)

    def want(x):
        if _is_ones(x):
            return hook_content(mu, len(x)) * hook_content(nu, len(x))
        h = complete(x, max(sum(mu), sum(nu)))
        return schur_from_h(mu, h) * schur_from_h(nu, h)

    _compare(expansion, want, n, what)


def check_skew(lam, mu, expansion):
    """s_lam skewed by s_mu, that is s_{lam/mu}."""
    what = "skew %s/%s" % (lam, mu)
    _require_integral(expansion, what)
    _require_weight(expansion, sum(lam) - sum(mu), what)
    _require_positive(expansion, what)
    n = max(len(lam), _length(expansion), 1)

    def want(x):
        contained = len(mu) <= len(lam) and all(
            m <= l for m, l in zip(mu, lam))
        if not contained:
            return 0
        return skew_from_h(lam, mu, complete(x, sum(lam)))

    _compare(expansion, want, n, what)


def _power_sums_of_schur(nu, x, kmax):
    """[None, p_1, ..., p_kmax] of the alphabet of monomials of s_nu(x):
    p_k = s_nu(x_1^k, ..., x_n^k)."""
    p = [None]
    for k in range(1, kmax + 1):
        xk = [v ** k for v in x]
        p.append(hook_content(nu, len(x)) if _is_ones(x)
                 else schur_from_h(nu, complete(xk, sum(nu))))
    return p


def check_plethysm(mu, nu, expansion):
    """s_mu[s_nu]."""
    what = "plethysm %s[%s]" % (mu, nu)
    _require_integral(expansion, what)
    _require_weight(expansion, sum(mu) * sum(nu), what)
    _require_positive(expansion, what)
    n = max(sum(mu) * len(nu), _length(expansion), 1)

    def want(x):
        if _is_ones(x):
            return hook_content(mu, hook_content(nu, len(x)))
        h, _ = alphabet_h_e(_power_sums_of_schur(nu, x, sum(mu)), sum(mu))
        return schur_from_h(mu, h)

    _compare(expansion, want, n, what)


def check_series_term(family, sigma, r, expansion):
    """Term r of the row series h_r[s_sigma] ('M') or the column series
    (-1)^r e_r[s_sigma] ('L')."""
    what = "series %s[%s] r=%d" % (family, sigma, r)
    _require_integral(expansion, what)
    _require_weight(expansion, r * sum(sigma), what)
    sign = (-1) ** r if family == "L" else 1
    _require_positive({lam: sign * c for lam, c in expansion.items()}, what)
    n = max(r * len(sigma), len(sigma), _length(expansion), 1)

    def want(x):
        if _is_ones(x):
            big_n = hook_content(sigma, len(x))
            val = (math.comb(big_n + r - 1, r) if family == "M"
                   else math.comb(big_n, r))
            return sign * val
        h, e = alphabet_h_e(_power_sums_of_schur(sigma, x, r), r)
        return sign * (h[r] if family == "M" else e[r])

    _compare(expansion, want, n, what)


# #### JSON forms of the command-line output ####

def expansion_from_json(terms):
    """{partition tuple: int or Fraction} from the package's JSON form of a
    symmetric function: a list of {"partition", "num", "den"} records."""
    out = {}
    for rec in terms:
        lam = tuple(int(v) for v in rec["partition"])
        if lam in out:
            raise CheckError("partition %s appears twice" % (lam,))
        c = Fraction(int(rec["num"]), int(rec["den"]))
        if c == 0:
            raise CheckError("explicit zero coefficient on %s" % (lam,))
        out[lam] = int(c) if c.denominator == 1 else c
    return out
