"""Stable JSON forms and text shorthand for the library's value types.

JSON is the machine interface: every emitter here fixes field order and
sorting so that identical values always serialize to identical bytes.  Big
integers travel as decimal strings.
"""

import json
import re
from fractions import Fraction

from .partitions import partition
from .schurring import SymFunc
from .vertexops import ChargedState, LaurentMap


def _field(rec, name, convert):
    """convert(rec[name]); a ValueError names the field when rec is not an
    object holding it or convert rejects its value."""
    if not isinstance(rec, dict) or name not in rec:
        raise ValueError("expected an object with a %r field, got %s"
                         % (name, json.dumps(rec)))
    try:
        return convert(rec[name])
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError("field %r: %s" % (name, e))


# #### SymFunc ####

def symfunc_to_obj(f):
    """[{"partition": [...], "num": "...", "den": "..."}] in reverse-lex
    partition order, den > 0, gcd(num, den) = 1."""
    out = []
    for lam, c in f.terms():
        frac = Fraction(c)
        out.append({"partition": list(lam),
                    "num": str(frac.numerator),
                    "den": str(frac.denominator)})
    return out


def symfunc_from_obj(obj):
    if not isinstance(obj, list):
        raise ValueError("a symmetric function serializes as a list of terms")
    d = {}
    for rec in obj:
        lam = _field(rec, "partition", partition)
        num = _field(rec, "num", int)
        c = _field(rec, "den", lambda den: Fraction(num, int(den)))
        if lam in d:
            raise ValueError("duplicate partition %r in input" % (lam,))
        d[lam] = c
    return SymFunc(d)


# #### ChargedState ####

def state_to_obj(state):
    return {"sectors": [{"charge": c, "value": symfunc_to_obj(state.sectors[c])}
                        for c in sorted(state.sectors)]}


def state_from_obj(obj):
    sectors = {}
    for rec in _field(obj, "sectors", list):
        c = _field(rec, "charge", int)
        if c in sectors:
            raise ValueError("duplicate charge %d in input" % c)
        sectors[c] = _field(rec, "value", symfunc_from_obj)
    return ChargedState(sectors)


# #### LaurentMap ####

def _value_to_obj(val):
    if isinstance(val, ChargedState):
        return state_to_obj(val)
    return symfunc_to_obj(val)


def _value_from_obj(obj):
    if isinstance(obj, dict):
        return state_from_obj(obj)
    return symfunc_from_obj(obj)


def laurent_to_obj(lmap):
    return {"vars": list(lmap.vars),
            "coeffs": [{"exp": list(e), "value": _value_to_obj(v)}
                       for e, v in sorted(lmap.data.items())]}


def laurent_from_obj(obj):
    lm = LaurentMap(tuple(obj["vars"]))
    for rec in obj["coeffs"]:
        lm.data[tuple(int(x) for x in rec["exp"])] = _value_from_obj(rec["value"])
    return lm


# #### text shorthand ####

_TERM = re.compile(r"""\s*
    (?P<op>[+-])?\s*
    (?:
        \(?\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*\)?\s*
        (?:\*\s*)?(?P<mono1>s\[[\d,\s]*\])?
      | (?P<mono2>s\[[\d,\s]*\])
    )\s*""", re.X)


def parse_symfunc_text(text):
    """Parse 's[2,1] - 2*s[1] + 1/2' into a SymFunc.

    Terms are coefficient-times-Schur pieces; a bare coefficient is a
    multiple of s[]; a bare s[...] has coefficient 1.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty symmetric-function expression")
    if s == "0":
        return SymFunc.zero()
    total = SymFunc.zero()
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse %r at position %d" % (text, pos))
        op = m.group("op")
        if not first and op is None:
            raise ValueError("missing +/- before position %d in %r"
                             % (pos, text))
        coeff = Fraction(1)
        if m.group("num") is not None:
            coeff = Fraction(int(m.group("num")),
                             int(m.group("den") or 1))
        if op == "-":
            coeff = -coeff
        mono = m.group("mono1") or m.group("mono2")
        lam = ()
        if mono is not None:
            inner = mono[2:-1].strip()
            lam = partition(int(tok) for tok in inner.split(",")) if inner else ()
        total = total + SymFunc({lam: coeff})
        pos = m.end()
        first = False
    return total


def parse_symfunc(text):
    """Accept either the JSON list form or the text shorthand."""
    s = text.strip()
    if s.startswith("[") or s.startswith("{"):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, list):
            return symfunc_from_obj(obj)
    return parse_symfunc_text(s)


def dumps(obj):
    """Canonical JSON text used by every CLI emitter."""
    return json.dumps(obj, indent=2)
