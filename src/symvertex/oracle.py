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
tableaux, and decomposition back into Schur terms peels the
lexicographically greatest monomial.  The deformed Schur functions are read
off literally from the product of a two-alphabet Cauchy kernel and the
series of a shape, each a truncated product built by one routine.  None of
the character/power-sum machinery of schurring is used here; only the
partitions module is shared.
"""

import math

from .partitions import (conjugate, format_partition, partition,
                          subpartitions, weight)
from .schurring import SymFunc

_MAXVARS = 15


def _unpack(key, nvars):
    return tuple((key >> (4 * (nvars - 1 - i))) & 15 for i in range(nvars))


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


def _tableau_sum(shape, letters):
    """Sum over the semistandard tableaux of `shape` with entries from the
    alphabet `letters` (packed monomials in the alphabet's order; a monomial
    listed m times is m letters) of the product of their entries: one
    horizontal strip per letter.  Each pass runs in place, visiting states
    by decreasing weight, so an update reads only smaller states not yet
    updated in this pass."""
    subs = subpartitions(shape)
    states = {nu: {} for nu in subs}
    states[()] = {0: 1}
    order = [nu for nu in sorted(subs, key=weight, reverse=True) if nu]
    for letter in letters:
        for nu in order:
            tgt = states[nu]
            for nup, k in _horiz_preds(nu):
                src = states[nup]
                if src:
                    poly_add_scaled(tgt, src, 1, k * letter)
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
            lam, [1 << (4 * (nvars - 1 - j)) for j in range(nvars)])
    return found


def is_symmetric_sampled(poly, nvars):
    """Spot-check symmetry under a few adjacent variable transpositions."""
    if nvars < 2 or not poly:
        return True
    pairs = {(0, 1), (nvars - 2, nvars - 1), (0, nvars - 1)}
    for i, j in pairs:
        si, sj = 4 * (nvars - 1 - i), 4 * (nvars - 1 - j)
        swapped = {}
        for k, v in poly.items():
            a, b = (k >> si) & 15, (k >> sj) & 15
            nk = k - (a << si) - (b << sj) + (a << sj) + (b << si)
            swapped[nk] = v
        if swapped != poly:
            return False
    return True


def decompose(poly, nvars):
    """Write a symmetric packed polynomial as a Schur combination.

    Peels the lexicographically greatest monomial (whose exponents must be
    weakly decreasing, or the input was not symmetric) until nothing is
    left.  Symmetry itself is spot-checked by sampled transpositions first.
    A peel that leaves its own leading monomial raises ValueError rather
    than loop forever.
    """
    poly = dict(poly)
    if not is_symmetric_sampled(poly, nvars):
        raise ValueError("polynomial is not symmetric in its variables")
    out = {}
    while poly:
        top = max(poly)
        exps = _unpack(top, nvars)
        lead = partition(exps)  # raises when not weakly decreasing
        c = poly[top]
        out[lead] = c
        poly_add_scaled(poly, schur_poly(lead, nvars), -c)
        if top in poly:
            raise ValueError("peeling s_%s left its leading monomial"
                             % format_partition(lead))
    return SymFunc(out)


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
    """Plethysm mu[nu] by running the tableau dynamic program whose letters
    are the explicit monomials of the inner Schur polynomial (with
    multiplicity), then decomposing.

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
    letters = [key for key, mult in sorted(schur_poly(nu, n).items(),
                                           reverse=True)
               for _ in range(mult)]
    return decompose(_tableau_sum(mu, letters), n)


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


def _extract_schur_z(kernel_layers, zfactor_layers, n_x, n_z, lam):
    """Coefficient of the Z-side Schur polynomial of lam in the product of
    two layered two-alphabet polynomials, as an X-side packed polynomial in
    n_x variables."""
    w = weight(lam)
    zmap = {}
    for za, A in kernel_layers.items():
        B = zfactor_layers.get(w - za)
        if not B or not A:
            continue
        for ka, va in A.items():
            poly_add_scaled(zmap, B, va, ka)
    # regroup by Z-monomial
    shift = 4 * n_z
    zmask = (1 << shift) - 1
    grouped = {}
    for kk, vv in zmap.items():
        grouped.setdefault(kk & zmask, {})[kk >> shift] = vv
    target = {}
    while grouped:
        ztop = max(grouped)
        kappa = partition(_unpack(ztop, n_z))
        xc = grouped.pop(ztop)
        if kappa == lam:
            target = xc
        zschur = schur_poly(kappa, n_z)
        for zk, mz in zschur.items():
            if zk == ztop:
                continue
            cell = poly_add_scaled(grouped.setdefault(zk, {}), xc, -mz)
            if not cell:
                grouped.pop(zk, None)
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
    return decompose(_extract_schur_z(kernel, zfac, n_x, n_z, lam), n_x)


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
