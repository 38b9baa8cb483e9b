"""Command-line surface: ring operations, deformed Schur functions by any
route, series tables, mode actions, and the verification suites.

Exit codes: 0 success / suite passed; 1 a verification or cross-check
failed; 2 unusable flags or configuration (the diagnostic names the
offending flag), or a request outside a library bound (ValueError);
3 the computation exceeds the degree budget or the oracle's packed range
(OverflowError).
"""

import argparse
import inspect
import json
import sys

from .config import ENV_CONFIG, ConfigError, load_config
from .jsonform import dumps, parse_symfunc, state_from_obj, state_to_obj, \
    symfunc_to_obj
from .oracle import oracle_plethysm, oracle_product
from .partitions import format_partition, parse_partition, weight
from .plethysm import pi_branch, plethysm, series_term
from .schurring import SymFunc, format_symfunc
from .vertexops import ChargedState, mode as apply_mode
from .verifier import REORDERING_CASES, ROUTES, SUITES


class CliError(Exception):
    """A flag value that parsed but cannot be used; carries the flag name."""

    def __init__(self, flag, message):
        super().__init__(message)
        self.flag = flag


class BudgetError(Exception):
    """The requested computation exceeds the configured degree budget."""


def _t_partition(text):
    try:
        return parse_partition(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _t_range(text):
    """'a..b' or 'a:b' or '[a,b]' -> (a, b) with a <= b."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    for sep in ("..", ":", ","):
        if sep in s:
            a, b = s.split(sep, 1)
            try:
                lo, hi = int(a), int(b)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    "range %r has non-integer endpoints" % text)
            if lo > hi:
                raise argparse.ArgumentTypeError("range %r has lo > hi"
                                                 % text)
            return (lo, hi)
    raise argparse.ArgumentTypeError("cannot parse range %r (use lo..hi)"
                                     % text)


def _t_int_at_least(lo):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < lo:
            raise argparse.ArgumentTypeError("must be >= %d, got %d"
                                             % (lo, value))
        return value
    return parse


_t_count = _t_int_at_least(0)


def _t_int_list(text):
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers, got %r" % text)
    return values


def _check_budget(config, value, what):
    if value > config.degree_budget:
        raise BudgetError(
            "%s needs degree %d, over the budget %d "
            "(raise --degree-budget to allow it)"
            % (what, value, config.degree_budget))


def _emit(config, text_fn, obj_fn):
    if config.format == "json":
        print(dumps(obj_fn()))
    else:
        print(text_fn())


# #### computation subcommands ####

def _run_pi_schur(args, config):
    pi, lam, dual = args.pi, args.lam, args.command == "dual-pi-schur"
    _check_budget(config, weight(lam), "pi-schur at lambda=%s"
                  % format_partition(lam))
    routes = list(args.route or [])
    if not routes:
        routes = ["perp"]
    if args.check_oracle and "oracle" not in routes:
        routes.append("oracle")
    if "oracle" in routes and not pi:
        raise CliError("--route", "the oracle route needs a nonempty --pi")
    values = [(name, ROUTES[name][dual](pi, lam)) for name in routes]
    agree = all(v == values[0][1] for _, v in values)

    def text():
        if len(values) == 1:
            return format_symfunc(values[0][1])
        lines = ["route %s: %s" % (n, format_symfunc(v)) for n, v in values]
        lines.append("routes agree" if agree else "ROUTES DISAGREE")
        return "\n".join(lines)

    def obj():
        if len(values) == 1:
            return symfunc_to_obj(values[0][1])
        return {"routes": {n: symfunc_to_obj(v) for n, v in values},
                "agree": agree}

    _emit(config, text, obj)
    return 0 if agree else 1


def _run_branch(args, config):
    _check_budget(config, weight(args.lam), "branch at lambda=%s"
                  % format_partition(args.lam))
    value = pi_branch(args.pi, SymFunc.schur(args.lam))
    _emit(config, lambda: format_symfunc(value),
          lambda: symfunc_to_obj(value))
    return 0


def _run_checked(config, value, oracle_value):
    agree = oracle_value is None or value == oracle_value

    def text():
        out = format_symfunc(value)
        if oracle_value is None:
            return out
        if agree:
            return out + "\noracle agrees"
        return "%s\nORACLE DISAGREES: %s" % (out,
                                             format_symfunc(oracle_value))

    def obj():
        if oracle_value is None:
            return symfunc_to_obj(value)
        return {"value": symfunc_to_obj(value),
                "oracle": symfunc_to_obj(oracle_value), "agree": agree}

    _emit(config, text, obj)
    return 0 if agree else 1


def _run_product(args, config):
    _check_budget(config, weight(args.mu) + weight(args.nu),
                  "product of mu=%s and nu=%s"
                  % (format_partition(args.mu), format_partition(args.nu)))
    value = SymFunc.schur(args.mu) * SymFunc.schur(args.nu)
    oracle_value = (oracle_product(args.mu, args.nu)
                    if args.check_oracle else None)
    return _run_checked(config, value, oracle_value)


def _run_skew(args, config):
    _check_budget(config, weight(args.lam), "skew at lambda=%s"
                  % format_partition(args.lam))
    value = SymFunc.schur(args.lam).skew_by(args.mu)
    _emit(config, lambda: format_symfunc(value),
          lambda: symfunc_to_obj(value))
    return 0


def _run_plethysm(args, config):
    _check_budget(config, weight(args.outer) * max(weight(args.inner), 1),
                  "plethysm outer=%s inner=%s"
                  % (format_partition(args.outer),
                     format_partition(args.inner)))
    value = plethysm(args.outer, SymFunc.schur(args.inner))
    oracle_value = (oracle_plethysm(args.outer, args.inner)
                    if args.check_oracle else None)
    return _run_checked(config, value, oracle_value)


def _run_series(args, config):
    shape = SymFunc.schur(args.shape)
    label = args.family + format_partition(args.shape)
    if args.skew is not None:
        shape = shape.skew_by(args.skew)
        if not shape:
            raise CliError("--skew", "shape %s skewed by %s is zero"
                           % (format_partition(args.shape),
                              format_partition(args.skew)))
        label += "/" + format_partition(args.skew)
    _check_budget(config, args.max_r * max(shape.degree(), 1),
                  "series table to r=%d on a degree-%d shape"
                  % (args.max_r, shape.degree()))
    terms = [series_term(args.family, shape, r)
             for r in range(args.max_r + 1)]

    def text():
        head = "%s-series of %s" % (args.family, label)
        rows = ["r=%d: %s" % (r, format_symfunc(t))
                for r, t in enumerate(terms)]
        return "\n".join([head] + rows)

    def obj():
        return {"family": args.family, "shape": label,
                "max_r": args.max_r,
                "terms": [symfunc_to_obj(t) for t in terms]}

    _emit(config, text, obj)
    return 0


def _parse_state(text):
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if isinstance(obj, dict):
        return state_from_obj(obj)
    f = parse_symfunc(text)
    return ChargedState.vacuum(0, f)


def _run_mode(args, config):
    try:
        state = _parse_state(args.state)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError("--state", str(e))
    if args.charge:
        state = state.shift_charge(args.charge)
    top = state.degree()
    _check_budget(config, weight(args.pi) + top + abs(args.m),
                  "mode m=%d on a degree-%d state" % (args.m, top))
    out = apply_mode(args.pi, args.kind, args.m, state)
    _emit(config, lambda: repr(out), lambda: state_to_obj(out))
    return 0


# #### verify subcommand ####

_DUALS = {"false": (False,), "true": (True,), "both": (False, True)}

# flag -> (argparse options, {suite: keyword the flag sets}).  A flag that
# is not given is not passed, so the suite function's own default applies.
VERIFY_FLAGS = {
    "--cases": ({"type": lambda t: t.split(",")}, {"reordering": "cases"}),
    "--pi": ({"type": _t_partition, "action": "append"},
             {"reordering": "pis", "clifford": "pis", "multivertex": "pis",
              "theorem2": "pis", "inverse-series": "hook_pis"}),
    "--window": ({"type": _t_range},
                 {"reordering": "window", "multivertex": "window"}),
    "--test-degree": ({"type": _t_count}, {"reordering": "test_degree"}),
    "--charge-range": ({"type": _t_range}, {"zero-modes": "charge_range"}),
    "--mode-range": ({"type": _t_range}, {"clifford": "mode_range"}),
    "--degree-bound": ({"type": _t_count}, {"clifford": "degree_bound"}),
    "--charges": ({"type": _t_int_list}, {"clifford": "charges"}),
    "--m": ({"type": _t_int_at_least(1), "action": "append"},
            {"multivertex": "ms"}),
    "--dual": ({"choices": tuple(_DUALS)}, {"multivertex": "duals"}),
    "--max-weight": ({"type": _t_count}, {"theorem2": "max_weight"}),
    "--max-length": ({"type": _t_count}, {"theorem2": "max_length"}),
    "--skip-oracle": ({"action": "store_const", "const": False},
                      {"theorem2": "include_oracle"}),
    "--skip-vertex": ({"action": "store_const", "const": False},
                      {"theorem2": "include_vertex"}),
    "--max-sigma-weight": ({"type": _t_count},
                           {"inverse-series": "max_sigma_weight"}),
    "--max-zweight": ({"type": _t_count}, {"inverse-series": "max_zweight"}),
}

# suite -> (keyword held to the degree budget, what the budget error names)
_BUDGETED = {
    "reordering": ("test_degree", "reordering to degree %d"),
    "clifford": ("degree_bound", "clifford to degree %d"),
    "theorem2": ("max_weight", "route agreement to weight %d"),
    "inverse-series": ("max_zweight", "inverse series to weight %d"),
}


def _run_verify(args, config):
    suite = args.suite
    kwargs = {}
    for flag, (_, keywords) in VERIFY_FLAGS.items():
        val = getattr(args, flag[2:].replace("-", "_"))
        if val is None:
            continue
        if suite not in keywords:
            raise CliError(flag, "%s does not apply to suite %r"
                           % (flag, suite))
        kwargs[keywords[suite]] = val
    if "duals" in kwargs:
        kwargs["duals"] = _DUALS[kwargs["duals"]]
    for c in kwargs.get("cases", ()):
        if c not in REORDERING_CASES:
            raise CliError("--cases", "unknown case %r (choose from %s)"
                           % (c, ", ".join(REORDERING_CASES)))
    fn = SUITES[suite]
    if suite in _BUDGETED:
        key, what = _BUDGETED[suite]
        value = kwargs.get(key, inspect.signature(fn).parameters[key].default)
        _check_budget(config, value, what % value)
    report = fn(perturb=args.perturb, **kwargs)

    if args.timing == "none":
        report.elapsed_ms = 0
    _emit(config, lambda: "\n".join(report.summary_lines()),
          lambda: report.to_obj())
    return 0 if report.passed() else 1


# #### parser ####

class _Parser(argparse.ArgumentParser):
    """Reports a parse error as the one line `symvertex: error: ...` and
    exits 2, for the main parser and (by inheritance) every subparser."""

    def error(self, message):
        self.exit(2, "symvertex: error: %s\n" % message)


def _add_common(q):
    q.add_argument("--config", metavar="PATH",
                   help="config file (key = value lines); default from "
                        "$%s" % ENV_CONFIG)
    q.add_argument("--format", choices=("text", "json"))
    q.add_argument("--jobs", type=_t_int_at_least(1),
                   help="accepted for compatibility; suites run serially")
    q.add_argument("--degree-budget", type=_t_count, dest="degree_budget")


def _add_pi_schur(q):
    q.add_argument("--pi", type=_t_partition, required=True)
    q.add_argument("--lambda", dest="lam", type=_t_partition, required=True)
    q.add_argument("--route", action="append", choices=sorted(ROUTES))
    q.add_argument("--check-oracle", action="store_true",
                   dest="check_oracle")
    q.set_defaults(run=_run_pi_schur)


def _add_branch(q):
    q.add_argument("--pi", type=_t_partition, required=True)
    q.add_argument("--lambda", dest="lam", type=_t_partition, required=True)
    q.set_defaults(run=_run_branch)


def _add_product(q):
    q.add_argument("--mu", type=_t_partition, required=True)
    q.add_argument("--nu", type=_t_partition, required=True)
    q.add_argument("--check-oracle", action="store_true",
                   dest="check_oracle")
    q.set_defaults(run=_run_product)


def _add_skew(q):
    q.add_argument("--lambda", dest="lam", type=_t_partition, required=True)
    q.add_argument("--mu", type=_t_partition, required=True)
    q.set_defaults(run=_run_skew)


def _add_plethysm(q):
    q.add_argument("--outer", type=_t_partition, required=True)
    q.add_argument("--inner", type=_t_partition, required=True)
    q.add_argument("--check-oracle", action="store_true",
                   dest="check_oracle")
    q.set_defaults(run=_run_plethysm)


def _add_series(q):
    q.add_argument("--family", choices=("M", "L"), required=True)
    q.add_argument("--shape", type=_t_partition, required=True)
    q.add_argument("--skew", type=_t_partition)
    q.add_argument("--max-r", dest="max_r", type=_t_count, required=True)
    q.set_defaults(run=_run_series)


def _add_mode(q):
    q.add_argument("--pi", type=_t_partition, required=True)
    q.add_argument("--kind", choices=("X", "Xstar"), required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--state", required=True,
                   help="charged-state JSON, a SymFunc JSON list, or "
                        "shorthand like 's[2,1] - s[]'")
    q.add_argument("--charge", type=int, default=0)
    q.set_defaults(run=_run_mode)


def _add_verify(q):
    q.add_argument("suite", choices=sorted(SUITES))
    q.add_argument("--perturb", action="store_true",
                   help="wire in the suite's deliberate mutation (must fail)")
    q.add_argument("--timing", choices=("wall", "none"), default="wall",
                   help="'none' zeroes elapsed_ms for reproducible output")
    for flag, (options, _) in VERIFY_FLAGS.items():
        q.add_argument(flag, **options)
    q.set_defaults(run=_run_verify)


# subcommand -> function adding its own flags, in the order of the help
_SUBCOMMANDS = {
    "pi-schur": _add_pi_schur, "dual-pi-schur": _add_pi_schur,
    "branch": _add_branch, "product": _add_product, "skew": _add_skew,
    "plethysm": _add_plethysm, "series": _add_series, "mode": _add_mode,
    "verify": _add_verify,
}


def build_parser(command=None):
    """The argument parser.  A known subcommand name builds the top parser
    and that subcommand's parser only, which is all a call that runs it
    needs (`main` passes the first argument).  With no name, or with any
    other text (`-h`, `--help`, an unknown name), it builds all nine, so
    the top-level help and the invalid-choice error list every name."""
    p = _Parser(
        prog="symvertex",
        description="Exact symmetric-function computations, deformed Schur "
                    "functions by independent routes, and verification "
                    "suites for the operator identities.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        q = sub.add_parser(name)
        _add_common(q)
        _SUBCOMMANDS[name](q)
    return p


# the verify flags whose values may start with "-": the ranges and lists
_DASH_VALUE_FLAGS = tuple(flag for flag, (options, _) in VERIFY_FLAGS.items()
                          if options.get("type") in (_t_range, _t_int_list))


def _merge_dash_values(argv):
    """Join `--flag -3..3` into `--flag=-3..3`: argparse only waves through
    dash-leading values that look like plain negative numbers."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) \
                and argv[i + 1][:1] == "-":
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(
        _merge_dash_values(argv))
    try:
        config = load_config(args.config)
        for attr in ("format", "jobs", "degree_budget"):
            val = getattr(args, attr)
            if val is not None:
                setattr(config, attr, val)
        config.validate()
    except ConfigError as e:
        print("symvertex: error: --config: %s" % e, file=sys.stderr)
        return 2
    try:
        return args.run(args, config)
    except CliError as e:
        print("symvertex: error: argument %s: %s" % (e.flag, e),
              file=sys.stderr)
        return 2
    except (BudgetError, OverflowError) as e:
        print("symvertex: error: %s" % e, file=sys.stderr)
        return 3
    except ValueError as e:
        print("symvertex: error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
