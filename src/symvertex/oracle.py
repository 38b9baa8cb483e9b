"""Independent cross-check path: brute-force symmetric polynomials in a
finite alphabet.

Everything here works on explicit monomials.  A polynomial is a dict mapping
a packed exponent key to an int coefficient: 4 bits per variable, variable 0
in the most significant nibble, so integer comparison of keys is
lexicographic comparison of monomials.  That limits this module to at most
15 variables and per-variable exponents below 16, enforced loudly.

Each value is expanded in only as many variables as its Schur terms can have
rows.  In n variables s_kappa vanishes exactly when l(kappa) > n, and the
s_kappa with l(kappa) <= n stay linearly independent (Macdonald, Symmetric
Functions and Hall Polynomials, I.3), so a symmetric function whose terms
all have at most n rows is recovered exactly from its image in n variables.
Each entry point states its width and why it suffices.

Schur polynomials and plethysms come from one tableau sum, a
one-letter-at-a-time horizontal-strip dynamic program over semistandard
tableaux.  Decomposition reads only the dominant monomials (weakly
decreasing exponents) and peels them by Kostka numbers counted with the
same strips.  Every full polynomial is checked to be exactly symmetric; the
plethysm sum, pruned to dominant monomials, is checked by its dimension.
The deformed Schur functions are read off literally from the product of a
two-alphabet Cauchy kernel and the series of a shape, each a truncated
product built by one routine.  None of the character/power-sum machinery
of schurring is used here; only the partitions module is shared.
"""

import math

from .partitions import (conjugate, format_partition, partition,
                          partitions_of, subpartitions, weight)
from .schurring import SymFunc

_MAXVARS = 15


def _degree(key, nvars):
    d = 0
    for _ in range(nvars):
        d += key & 15
        key >>= 4
    return d


def poly_add_scaled(acc, other, c=1, offset=0):
    """acc += c * other shifted by the monomial `offset` (packed key).
    Mutates and returns acc."""
    for k, v in other.items():
        nk = k + offset
        nv = acc.get(nk, 0) + c * v
        if nv:
            acc[nk] = nv
        else:
            acc.pop(nk, None)
    return acc


def poly_mul(A, B):
    """Product of two packed polynomials (caller guarantees nibbles cannot
    overflow, i.e. combined per-variable exponents stay below 16)."""
    if len(A) * len(B) > 1_500_000:
        return _poly_mul_big(A, B)
    out = {}
    if len(A) < len(B):
        A, B = B, A
    for kb, vb in B.items():
        poly_add_scaled(out, A, vb, kb)
    return out


def _poly_mul_big(A, B):
    """Blocked numpy path for large products: outer-add the packed keys,
    reduce each block with unique+bincount, then reduce the concatenation.
    Exactness: block sums stay far below 2**52, so float64 accumulation is
    exact; asserted anyway.  numpy is imported here, on first use, so that
    importing the package does not load it."""
    import numpy as np

    ak = np.fromiter(A.keys(), np.int64, len(A))
    av = np.fromiter(A.values(), np.int64, len(A))
    bk = np.fromiter(B.keys(), np.int64, len(B))
    bv = np.fromiter(B.values(), np.int64, len(B))
    block = max(1, 2_000_000 // max(1, len(B)))
    ks, ws = [], []
    for i in range(0, len(A), block):
        kk = (ak[i:i + block, None] + bk[None, :]).ravel()
        vv = (av[i:i + block, None] * bv[None, :]).ravel().astype(np.float64)
        u, inv = np.unique(kk, return_inverse=True)
        w = np.bincount(inv, weights=vv)
        ks.append(u)
        ws.append(w)
    u, inv = np.unique(np.concatenate(ks), return_inverse=True)
    w = np.bincount(inv, weights=np.concatenate(ws))
    if w.size and np.abs(w).max() >= 2.0 ** 52:
        raise OverflowError("coefficient too large for the numpy fast path")
    out = {}
    for k, v in zip(u.tolist(), np.rint(w).astype(np.int64).tolist()):
        if v:
            out[k] = v
    return out


# #### Schur polynomials by the semistandard-tableau dynamic program ####

_horiz_memo = {}


def _horiz_preds(nu):
    """Proper subshapes nu' of nu with nu/nu' a horizontal strip, as
    (nu', strip size) pairs."""
    found = _horiz_memo.get(nu)
    if found is not None:
        return found
    n = len(nu)
    out = []

    def rec(i, prefix):
        if i == n:
            cand = partition(prefix)
            if cand != nu:
                out.append((cand, sum(nu) - sum(cand)))
            return
        low = nu[i + 1] if i + 1 < n else 0
        for v in range(nu[i], low - 1, -1):
            rec(i + 1, prefix + [v])

    rec(0, [])
    _horiz_memo[nu] = out
    return out


_schur_poly_memo = {}


def _tableau_sum(shape, groups, pruned):
    """Sum over the semistandard tableaux of `shape` with entries from an
    alphabet of packed monomials (a monomial listed m times is m letters)
    of the product of their entries: one horizontal strip per letter.
    groups[k] holds the letters whose highest variable is k, run highest
    first.  Each pass runs in place, visiting states by decreasing weight,
    so an update reads only smaller states not yet updated in this pass.
    When `pruned`, a monomial whose exponent in k is below that in k+1 is
    dropped after the group of k: no later letter touches either variable,
    so it cannot end dominant."""
    n = len(groups)
    subs = subpartitions(shape)
    states = {nu: {} for nu in subs}
    states[()] = {0: 1}
    order = [nu for nu in sorted(subs, key=weight, reverse=True) if nu]
    for k in range(n - 1, -1, -1):
        for letter in groups[k]:
            for nu in order:
                tgt = states[nu]
                for nup, size in _horiz_preds(nu):
                    src = states[nup]
                    if src:
                        poly_add_scaled(tgt, src, 1, size * letter)
        if pruned and k < n - 1:
            s = 4 * (n - 2 - k)  # the nibble of variable k+1
            for nu in order:
                states[nu] = {key: v for key, v in states[nu].items()
                              if key >> s + 4 & 15 >= key >> s & 15}
    return states[shape]


def schur_poly(lam, nvars):
    """The Schur polynomial of lam in nvars variables as a packed dict."""
    lam = partition(lam)
    if nvars > _MAXVARS:
        raise OverflowError("at most %d packed variables" % _MAXVARS)
    if len(lam) > nvars:
        return {}
    key = (lam, nvars)
    found = _schur_poly_memo.get(key)
    if found is None:
        found = _schur_poly_memo[key] = _tableau_sum(
            lam, [[1 << 4 * (nvars - 1 - k)] for k in range(nvars)], False)
    return found


_kostka_memo = {}


def kostka(kappa, alpha):
    """The Kostka number K_{kappa alpha}: chains of horizontal strips of
    sizes alpha_1, alpha_2, ... that fill kappa, counted from the last."""
    if not alpha:
        return int(not kappa)
    found = _kostka_memo.get((kappa, alpha))
    if found is None:
        found = _kostka_memo[kappa, alpha] = sum(
            kostka(nup, alpha[:-1]) for nup, size in _horiz_preds(kappa)
            if size == alpha[-1])
    return found


def _is_symmetric(poly, n):
    """Exact test that a packed polynomial is invariant under permuting
    its low n nibbles: the swap of the two leading ones and the cyclic
    shift generate S_n, so one pass looks up both images of each key."""
    top, low = 4 * (n - 1), (1 << 4 * n) - 1
    for k, v in poly.items() if n > 1 else ():
        a, b, z = k >> top & 15, k >> top - 4 & 15, k & low
        if (poly.get(k + ((b - a) << top) + ((a - b) << top - 4)) != v
                or poly.get(k - z + (z >> 4) + ((z & 15) << top)) != v):
            return False
    return True


_peel_memo = {}


def _peel(d, n):
    """The Kostka peel at degree d in n variables on symbolic coefficients:
    {kappa: row}, the coefficient of s_kappa in a symmetric p being the sum
    of row[key] * p[key].  On dominant monomials s_kappa = sum_alpha
    K_{kappa alpha} m_alpha is unitriangular (Macdonald I.6), so in
    decreasing lexicographic order the row of alpha is x^alpha less the
    Kostka multiples of the rows before it."""
    found = _peel_memo.get((d, n))
    if found is None:
        found = {}
        for alpha in partitions_of(d, max_part=15, max_length=n):
            row = {sum(a << 4 * (n - 1 - i) for i, a in enumerate(alpha)): 1}
            for kappa, r in found.items():
                k = kostka(kappa, alpha)
                if k:
                    poly_add_scaled(row, r, -k)
            found[alpha] = row
        _peel_memo[d, n] = found
    return found


def _schur_terms(poly, nvars):
    """The Schur combination whose dominant coefficients are poly's."""
    return SymFunc({kappa: sum(v * poly.get(key, 0) for key, v in row.items())
                    for d in {_degree(k, nvars) for k in poly}
                    for kappa, row in _peel(d, nvars).items()})


def decompose(poly, nvars):
    """Write a packed polynomial, checked to be symmetric (ValueError if
    not), as a Schur combination."""
    if not _is_symmetric(poly, nvars):
        raise ValueError("polynomial is not symmetric in its variables")
    return _schur_terms(poly, nvars)


def _dim(lam, n):
    """s_lam(1^n) by the hook-content formula (Macdonald I.3 Ex. 4)."""
    cols, cells = conjugate(lam), [(i, j) for i, r in enumerate(lam)
                                   for j in range(r)]
    return (math.prod(n + j - i for i, j in cells)
            // math.prod(lam[i] - j + cols[j] - i - 1 for i, j in cells))


# #### cross-check entry points ####

def _check_packed(what, nibbles, exponent):
    """Refuse a computation whose keys would need more than 15 nibbles or
    a per-variable exponent above 15."""
    if nibbles > _MAXVARS:
        raise OverflowError("%s needs %d packed variables, over the %d "
                            "the oracle can hold" % (what, nibbles, _MAXVARS))
    if exponent > 15:
        raise OverflowError("%s reaches exponent %d in one variable, over "
                            "the 15 a nibble can hold" % (what, exponent))


def oracle_product(mu, nu):
    """Product of two Schur functions, by multiplying explicit Schur
    polynomials in l(mu)+l(nu) variables and decomposing.

    Every constituent s_kappa of s_mu s_nu has l(kappa) <= l(mu)+l(nu)
    (Littlewood-Richardson), so that width loses nothing; no variable's
    exponent exceeds mu_1+nu_1."""
    mu, nu = partition(mu), partition(nu)
    n = len(mu) + len(nu)
    if n == 0:
        return SymFunc.one()
    _check_packed("product of %s and %s"
                  % (format_partition(mu), format_partition(nu)),
                  n, max(mu, default=0) + max(nu, default=0))
    return decompose(poly_mul(schur_poly(mu, n), schur_poly(nu, n)), n)


def oracle_plethysm(mu, nu):
    """Plethysm mu[nu] by running the tableau dynamic program, pruned to
    dominant monomials, whose letters are the explicit monomials of the
    inner Schur polynomial (with multiplicity), then peeling.  The result
    must have the dimension s_mu(1^N) at N letters (ValueError if not).

    Works in |mu|*l(nu) variables: s_mu[s_nu] is a summand of
    h_mu[s_nu] = prod_i h_{mu_i}[s_nu], and h_m[s_nu] is a summand of
    s_nu^m, whose constituents have at most m*l(nu) rows.  For nu = (1)
    each factor h_m[s_1] = h_m has one row, so l(mu) variables suffice.
    No variable's exponent exceeds |mu|*nu_1."""
    mu, nu = partition(mu), partition(nu)
    n = len(mu) if nu == (1,) else weight(mu) * len(nu)
    _check_packed("plethysm outer=%s inner=%s"
                  % (format_partition(mu), format_partition(nu)),
                  n, weight(mu) * max(nu, default=0))
    n = max(n, 1)
    inner = schur_poly(nu, n)
    groups = [[] for _ in range(n)]
    for key, mult in inner.items():
        k = n - 1  # the constant letter (nu = ()) stops at variable 0
        while k > 0 and not key >> 4 * (n - 1 - k) & 15:
            k -= 1
        groups[k] += [key] * mult
    out = _schur_terms(_tableau_sum(mu, groups, True), n)
    if sum(c * _dim(kappa, n) for kappa, c in out.c.items()) != \
            _dim(mu, sum(inner.values())):
        raise ValueError("plethysm %s[%s] fails its dimension check"
                         % (format_partition(mu), format_partition(nu)))
    return out


# ---- literal generating kernels for the deformed Schur functions ----
#
# Two alphabets share one packed key: X in the high n_x nibbles, Z in the
# low n_z nibbles.  Keys add like monomials as long as no nibble overflows,
# which the guard in _kernel_coefficient ensures.  Both kernels and the
# series of a shape are truncated products over the monomials T of a base
# polynomial, built by _series_factor_layers: the row kernel
# 1/prod(1 - x_k z_l) and the column kernel prod(1 - x_k z_l) (Macdonald
# I.4) over the base sum_{k,l} x_k z_l, the series over the Schur
# polynomial of the shape in Z.

def _series_factor_layers(base, n, cap, inverted):
    """Truncated product over the monomials T (with multiplicity m) of the
    packed polynomial `base`: of (1 - T)^m, or its inverse when `inverted`,
    to degree cap, the degree of a key read in its low n nibbles.  Built
    and returned layered by that degree: {d: {key: coeff}} for d <= cap."""
    layers = {d: {} for d in range(cap + 1)}
    layers[0][0] = 1
    for t, m in sorted(base.items(), reverse=True):
        dt = _degree(t, n)
        if dt == 0:
            raise ValueError("constant monomial in a series kernel")
        new = {d: dict(layer) for d, layer in layers.items()}
        for j in range(1, cap // dt + 1):
            c = (math.comb(m + j - 1, j) if inverted
                 else (-1) ** j * math.comb(m, j))
            for d in range(cap - j * dt + 1):
                if c and layers[d]:
                    poly_add_scaled(new[d + j * dt], layers[d], c, j * t)
        layers = new
    return layers


def _extract_schur_z(kernel_layers, zfactor_layers, n_z, lam):
    """Coefficient of the Z-side Schur polynomial of lam in the product of
    two layered two-alphabet polynomials, which must be symmetric in Z
    (ValueError if not), as an X-side packed polynomial."""
    w = weight(lam)
    zmap = {}
    for za, A in kernel_layers.items():
        B = zfactor_layers.get(w - za)
        for ka, va in A.items() if B else ():
            poly_add_scaled(zmap, B, va, ka)
    shift, zmask = 4 * n_z, (1 << 4 * n_z) - 1
    grouped = {}  # by Z-monomial
    for kk, vv in zmap.items():
        grouped.setdefault(kk & zmask, {})[kk >> shift] = vv
    if not _is_symmetric(grouped, n_z):
        raise ValueError("kernel at lambda=%s is not symmetric in Z"
                         % format_partition(lam))
    target = {}
    for key, v in _peel(w, n_z).get(lam, {}).items():
        poly_add_scaled(target, grouped.get(key, {}), v)
    return target


_kernel_memo = {}


def _kernel_coefficient(row, n_x, shape, inverted, lam):
    """Coefficient of s_lam(Z) in (two-alphabet kernel in X and Z: the row
    kernel when `row`, else the column kernel) * (the series of `shape` in
    Z, inverted or not), decomposed in X.

    Z takes l(lam) variables: there s_lam(Z) survives and stays independent
    of the other Schur polynomials with at most l(lam) rows, while every
    s_kappa(Z) with more rows is zero, so the coefficient is read exactly.
    The caller picks n_x to cover every X-side Schur term the coefficient
    can have.  All exponents stay within |lam|, the Z-degree cap."""
    if not shape:
        raise ValueError("shape must be a nonempty partition")
    w, n_z = weight(lam), len(lam)
    _check_packed("deformed Schur at lambda=%s" % format_partition(lam),
                  n_x + n_z, w)
    key = (n_x, n_z, w, row)
    kernel = _kernel_memo.get(key)
    if kernel is None:
        base = {1 << 4 * (n_x + n_z - 1 - k) | 1 << 4 * (n_z - 1 - l): 1
                for k in range(n_x) for l in range(n_z)}
        kernel = _kernel_memo[key] = _series_factor_layers(base, n_z, w, row)
    # a shape heavier than lam contributes only the constant term
    base = schur_poly(shape, n_z) if weight(shape) <= w else {}
    zfac = _series_factor_layers(base, n_z, w, inverted)
    return decompose(_extract_schur_z(kernel, zfac, n_z, lam), n_x)


def oracle_pi_schur(pi, lam):
    """Deformed Schur function read literally from its generating kernel:
    the coefficient of the Z-side Schur polynomial of lam in
    (row kernel of XZ) * (column series of pi in Z).

    X takes l(lam) variables: the row kernel is sum_kappa s_kappa(X)
    s_kappa(Z), and only kappa contained in lam reach the coefficient of
    s_lam(Z)."""
    pi, lam = partition(pi), partition(lam)
    return _kernel_coefficient(True, len(lam), pi, False, lam)


def oracle_dual_pi_schur(pi, lam):
    """Companion family read literally from its generating kernel: the
    coefficient of the Z-side Schur polynomial of lam in (column kernel of
    XZ) * (series of the conjugate shape in Z) -- the row series when |pi|
    is odd, the column series when it is even.

    X takes lam_1 variables: the column kernel is sum_kappa (-1)^|kappa|
    s_kappa(X) s_kappa'(Z), and only kappa' contained in lam reach the
    coefficient of s_lam(Z), so l(kappa) <= lam_1."""
    pi, lam = partition(pi), partition(lam)
    return _kernel_coefficient(False, max(lam, default=0), conjugate(pi),
                               weight(pi) % 2 == 1, lam)
