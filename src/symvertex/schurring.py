"""Exact symmetric function arithmetic in the Schur and power-sum bases.

Coefficients are ints or fractions.Fraction; nothing here ever rounds.
Partitions index both bases and are plain tuples from the partitions module.

Products and skews stay in the Schur basis: single-row and single-column
shapes take Pieri shortcuts, which keeps the long factor chains built by
vertexops cheap, and every other pair counts Littlewood-Richardson
tableaux.  Plethysm needs the power-sum basis: the way back to Schur
functions adds Murnaghan-Nakayama border strips one power sum at a time,
and memoized characters, built from the same strip step, serve only the
way there (to_power).  The oracle module deliberately shares none of this
machinery.

Every value is a _LinComb, the one linear-combination core: SymFunc and
PowerExpr here, vertexops.ChargedState over charge sectors.  Public
construction validates each key; dicts the kernel built itself go through
the trusted _new, which only drops zeros and normalizes coefficients.
"""

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .partitions import conjugate, contains, partition, partitions_of


# #### Murnaghan-Nakayama border strips and characters ####

def border_strips(lam, k):
    """[(nu, sign)] over the partitions nu obtained from lam by adding a
    border strip of size k (by removing one of size -k when k < 0).

    On the beta-numbers (first-column hook lengths) of lam, padded with k
    zero rows when adding, a strip moves one bead from row j by k onto a
    free position, where it lands in row i; the sign is (-1) to the number
    |i - j| of beads jumped, the strip's height.  The strip fills rows
    i..j (j..i when removing), so nu is read off lam without sorting.
    """
    n = len(lam) + max(k, 0)
    pad = lam + (0,) * (n - len(lam))
    beta = [x + n - 1 - t for t, x in enumerate(pad)]
    occupied = set(beta)
    out = []
    for j, b in enumerate(beta):
        p = b + k
        if p < 0 or p in occupied:
            continue
        i = j
        if k > 0:
            while i and beta[i - 1] < p:
                i -= 1
            nu = (lam[:i] + (p - n + 1 + i,)
                  + tuple(x + 1 for x in pad[i:j]) + lam[j + 1:])
        else:
            while i + 1 < n and beta[i + 1] > p:
                i += 1
            nu = (lam[:j] + tuple(x - 1 for x in lam[j + 1:i + 1])
                  + (p - n + 1 + i,) + lam[i + 1:])
        while nu and not nu[-1]:
            nu = nu[:-1]
        out.append((nu, -1 if (i - j) % 2 else 1))
    return out


_char_memo = {}


def charvalue(lam, rho):
    """Character of the symmetric group: Schur label lam, class label rho.

    Computed by removing a border strip of size rho[0] in all possible ways.
    """
    if sum(lam) != sum(rho):
        raise ValueError("character needs |lam| == |rho|")
    if not lam:
        return 1
    key = (lam, rho)
    val = _char_memo.get(key)
    if val is not None:
        return val
    rest = rho[1:]
    total = sum(sign * charvalue(nu, rest)
                for nu, sign in border_strips(lam, -rho[0]))
    _char_memo[key] = total
    return total


def part_mults(p):
    """Multiplicity map {part value: count} of a partition."""
    m = {}
    for x in p:
        m[x] = m.get(x, 0) + 1
    return m


def centralizer_order(rho):
    """Order of the centralizer of a permutation of cycle type rho
    (the inner-product normalizer of the power-sum basis)."""
    z = 1
    for k, m in part_mults(rho).items():
        z *= k ** m
        for i in range(1, m + 1):
            z *= i
    return z


# #### Pieri rules ####

def pieri_row(lam, k):
    """Partitions obtained from lam by adding a horizontal strip of size k
    (by removing one of size -k when k < 0), in decreasing lexicographic
    order.

    A horizontal strip has at most one box per column, so row i moves by at
    most its room: the gap to the row above when adding (k for row 0, and
    one new row may open below lam), the gap to the row below when
    removing.
    """
    gaps = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
    if k > 0:
        pad, room, step = lam + (0,), (k,) + gaps, 1
    else:
        pad, room, step = lam, gaps, -1
    out = []

    def rec(i, rem, prefix):
        if not rem:
            out.append(partition(prefix + list(pad[i:])))
        elif i < len(pad):
            moves = range(min(room[i], rem) + 1)
            for d in reversed(moves) if k > 0 else moves:
                rec(i + 1, rem - d, prefix + [pad[i] + step * d])

    rec(0, abs(k), [])
    return out


def pieri_col(lam, k):
    """Partitions obtained from lam by adding a vertical strip of size k
    (by removing one of size -k when k < 0): the conjugates of the
    horizontal strips of the conjugate."""
    return [conjugate(nu) for nu in pieri_row(conjugate(lam), k)]


def _is_column(p):
    return all(x == 1 for x in p)


# #### Schur-basis product and skew via Littlewood-Richardson tableaux ####

def _lr_tableaux(mu, nu=None, lam=None):
    """Count Littlewood-Richardson tableaux on inner shape mu (Macdonald I.9).

    Product mode (content nu, outer shape free) returns {outer: count};
    skew mode (outer shape lam, content free) returns {content: count}.
    Given both nu and lam, product mode holds the outer shape at lam: every
    label is capped by lam's row and a row ending short of it is dropped,
    so the count at key lam is c^lam_{mu,nu} (lrcalc's lrcoef).
    Rows are filled top to bottom; a row is stored as the cumulative ends
    of its labels 0 (the inner cells), 1, 2, ..., and row r holds labels
    at most r + 1.  Column strictness: labels <= j in row r end no further
    right than labels <= j - 1 in row r - 1.  Lattice word (read right to
    left, top to bottom): the j's of the rows above plus this row's j's do
    not exceed the (j - 1)'s of the rows above.
    """
    skew, outer = nu is None, lam is not None
    rows = len(lam) if outer else len(mu) + len(nu)
    inner = mu + (0,) * (rows - len(mu))
    total = sum(lam) - sum(mu) if skew else sum(nu)
    top = len(lam) if skew else len(nu)
    content = [0] * (top + 1)
    out = {}

    def fill_row(r, above, shape, placed):
        if not skew and placed == total:
            key = partition(shape + list(inner[r:]))
        elif r == rows:
            if not skew:
                return
            key = partition(content[1:])
        else:
            fill_label(r, 1, [inner[r]], tuple(content), above, shape, placed)
            return
        out[key] = out.get(key, 0) + 1

    def fill_label(r, j, ends, before, above, shape, placed):
        e = ends[-1]
        if j > min(r + 1, top):
            if skew and e != lam[r]:
                return
            if outer and not skew and e < lam[r]:
                return
            fill_row(r + 1, ends + [e] * (r + 2 - len(ends)), shape + [e],
                     placed)
            return
        cap = above[j - 1] - e
        if j > 1:
            cap = min(cap, before[j - 1] - content[j])
        cap = min(cap, lam[r] - e if skew else nu[j - 1] - content[j])
        if outer and not skew:
            cap = min(cap, lam[r] - e)
        for k in range(cap + 1):
            content[j] += k
            fill_label(r, j + 1, ends + [e + k], before, above, shape,
                       placed + k)
            content[j] -= k

    fill_row(0, [inner[0] + total], [], 0)
    return out


_product_memo = {}
_skew_memo = {}


def product_schur_pair(mu, nu):
    """Read-only expansion {lam: int} of the product of two Schur
    functions."""
    if not mu or not nu:
        return MappingProxyType({mu or nu: 1})
    pieri = len(nu) == 1 or _is_column(nu)
    if not pieri and (len(mu) == 1 or _is_column(mu)):
        mu, nu, pieri = nu, mu, True
    key = (mu, nu) if pieri or mu >= nu else (nu, mu)
    found = _product_memo.get(key)
    if found is not None:
        return found
    if not pieri:
        res = _lr_tableaux(*key)
    elif len(nu) == 1:
        res = {lam: 1 for lam in pieri_row(mu, nu[0])}
    else:
        res = {lam: 1 for lam in pieri_col(mu, len(nu))}
    res = _product_memo[key] = MappingProxyType(res)
    return res


def skew_schur_pair(mu, lam):
    """Read-only expansion {nu: int} of skewing a Schur function lam by mu
    (the adjoint of multiplication by mu)."""
    if not mu:
        return MappingProxyType({lam: 1})
    if sum(mu) > sum(lam) or not contains(lam, mu):
        return MappingProxyType({})
    key = (mu, lam)
    found = _skew_memo.get(key)
    if found is not None:
        return found
    if len(mu) == 1:
        res = {nu: 1 for nu in pieri_row(lam, -mu[0])}
    elif _is_column(mu):
        res = {nu: 1 for nu in pieri_col(lam, -len(mu))}
    else:
        res = _lr_tableaux(mu, lam=lam)
    res = _skew_memo[key] = MappingProxyType(res)
    return res


# #### linear combinations: the SymFunc and PowerExpr types ####

def _norm_coeff(c):
    # the type test first: isinstance(int, Fraction) is a slow ABC check
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class _LinComb:
    """The one linear-combination core: a finite combination of basis
    elements, held as a dict {key: value} with no zero values.  SymFunc
    (Schur basis), PowerExpr (power sums) and vertexops.ChargedState
    (charge sectors, valued in SymFunc) are its subclasses.

    Two constructors fill the dict.  The public one, cls(coeffs), runs
    every key through the subclass's _key (partition() for the partition
    bases) and every value through _coerce.  The trusted one, cls._new(d),
    is for dicts the kernel built itself: it skips the key check and only
    drops zero values and turns integral Fractions into ints.  Kernel
    sums accumulate as d[k] = d.get(k, 0) + v, which __radd__ allows."""

    __slots__ = ("c",)

    _key = staticmethod(partition)
    _coerce = staticmethod(_norm_coeff)

    def __init__(self, coeffs=None):
        self.c = {}
        for k, v in (coeffs or {}).items():
            v = self._coerce(v)
            if v:
                self.c[self._key(k)] = v

    @classmethod
    def _new(cls, d):
        out = cls.__new__(cls)
        out.c = {k: _norm_coeff(v) for k, v in d.items() if v}
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls._new({(): 1})

    def terms(self):
        """Items sorted by key in reverse-lexicographic order."""
        return sorted(self.c.items(), key=lambda kv: kv[0], reverse=True)

    def degree(self):
        """Largest weight in the support (0 for the zero element)."""
        return max((sum(lam) for lam in self.c), default=0)

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.c == other.c
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        d = dict(self.c)
        for k, v in other.c.items():
            d[k] = d.get(k, 0) + v
        return self._new(d)

    def __radd__(self, other):
        if other == 0:
            return self
        return NotImplemented

    def __neg__(self):
        return self._new({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        return self._new({k: v * a for k, v in self.c.items()} if a else {})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def _bilinear(self, other, pair):
        """Sum of a*b*pair(k, j) over the terms a of key k in self and b of
        key j in other, where pair(k, j) is a read-only {key: int}."""
        d = {}
        for k, a in self.c.items():
            for j, b in other.c.items():
                ab = a * b
                for key, m in pair(k, j).items():
                    d[key] = d.get(key, 0) + ab * m
        return self._new(d)


class SymFunc(_LinComb):
    """A finite linear combination of Schur functions with exact coefficients.

    Supports ring arithmetic, the degree-lowering skew action, the omega
    involution and the Hall inner product.
    """

    __slots__ = ()

    @classmethod
    def schur(cls, lam):
        return cls._new({partition(lam): 1})

    def coeff(self, lam):
        return self.c.get(partition(lam), 0)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._bilinear(other, product_schur_pair)

    def skew_by(self, other):
        """Apply the adjoint of multiplication by `other` (partition or
        SymFunc) to self."""
        if not isinstance(other, SymFunc):
            other = SymFunc.schur(other)
        return other._bilinear(self, skew_schur_pair)

    def omega(self):
        """The involution transposing every indexing partition."""
        return SymFunc._new({conjugate(lam): c for lam, c in self.c.items()})

    def inner(self, other):
        """Hall inner product (Schur functions are orthonormal)."""
        tot = 0
        for lam, a in self.c.items():
            b = other.c.get(lam)
            if b:
                tot += a * b
        return _norm_coeff(tot)

    def __repr__(self):
        return "SymFunc(%s)" % format_symfunc(self)


def format_symfunc(f):
    """Human-readable form like 's[2,1] - 2*s[1]' ('0' when zero)."""
    if not f:
        return "0"
    bits = []
    for lam, c in f.terms():
        mono = "s[%s]" % ",".join(str(x) for x in lam)
        if c == 1:
            piece = mono
        elif c == -1:
            piece = "-" + mono
        elif isinstance(c, Fraction):
            piece = "(%s)*%s" % (c, mono)
        else:
            piece = "%d*%s" % (c, mono)
        if not bits:
            bits.append(piece)
        elif piece.startswith("-"):
            bits.append("- " + piece[1:])
        else:
            bits.append("+ " + piece)
    return " ".join(bits)


# #### the power-sum basis ####

class PowerExpr(_LinComb):
    """A finite linear combination of power-sum monomials.  Multiplication
    just merges indexing partitions."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PowerExpr):
            return NotImplemented
        d = {}
        for rho, a in self.c.items():
            for tau, b in other.c.items():
                kappa = tuple(sorted(rho + tau, reverse=True))
                d[kappa] = d.get(kappa, 0) + a * b
        return self._new(d)

    def __repr__(self):
        if not self.c:
            return "PowerExpr(0)"
        bits = []
        for rho, c in self.terms():
            bits.append("%s*p[%s]" % (c, ",".join(str(x) for x in rho)))
        return "PowerExpr(%s)" % " + ".join(bits)


def to_power(f):
    """Schur basis -> power-sum basis."""
    d = {}
    for lam, a in f.c.items():
        for rho in partitions_of(sum(lam)):
            ch = charvalue(lam, rho)
            if ch:
                v = a * Fraction(ch, centralizer_order(rho))
                d[rho] = d.get(rho, 0) + v
    return PowerExpr._new(d)


def from_power(expr):
    """Power-sum basis -> Schur basis, in Horner form over the largest part:
    p_rho = p_k p_(rho minus k), and multiplying by p_k adds the border
    strips of size k.  Runs in integers: the expression is scaled once by
    the LCM of its denominators and divided once at the end."""
    den = lcm(*(a.denominator for a in expr.c.values()))
    d = _from_power_int({rho: int(a * den) for rho, a in expr.c.items()},
                        {})
    return SymFunc._new(d if den == 1 else
                        {lam: Fraction(c, den) for lam, c in d.items()})


def _from_power_int(terms, strips):
    """{lam: int} Schur expansion of sum a_rho p_rho, {rho: int a_rho};
    strips caches border_strips across the recursion."""
    groups = {}
    out = {}
    for rho, a in terms.items():
        if rho:
            groups.setdefault(rho[0], {})[rho[1:]] = a
        else:
            out[()] = a
    for k, rest in groups.items():
        for lam, c in _from_power_int(rest, strips).items():
            added = strips.get((lam, k))
            if added is None:
                added = strips[lam, k] = border_strips(lam, k)
            for nu, sign in added:
                out[nu] = out.get(nu, 0) + sign * c
    return {lam: c for lam, c in out.items() if c}
