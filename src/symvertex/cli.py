"""Command-line surface: ring operations, deformed Schur functions by any
route, series tables, mode actions, and the verification suites.

Exit codes: 0 success / suite passed; 1 a verification or cross-check
failed; 2 unusable flags or configuration (the diagnostic names the
offending flag), or a request outside a library bound (ValueError);
3 the computation exceeds the degree budget or the oracle's packed range
(OverflowError).
"""

import argparse
import json
import sys

from .config import ENV_CONFIG, CliConfig, ConfigError, load_config
from .jsonform import dumps, parse_symfunc, state_from_obj, state_to_obj, \
    symfunc_to_obj
from .oracle import (oracle_dual_pi_schur, oracle_pi_schur, oracle_plethysm,
                     oracle_product)
from .partitions import format_partition, parse_partition, weight
from .plethysm import (SeriesSpec, cauchy_dual_pi_schur, cauchy_pi_schur,
                       dual_pi_schur, pi_branch, pi_schur, plethysm)
from .schurring import SymFunc, format_symfunc
from .vertexops import ChargedState, mode as apply_mode, vertex_string
from .verifier import (DEFAULT_CLIFFORD_PIS, REORDERING_CASES, SUITES,
                       verify_clifford, verify_inverse_series,
                       verify_multivertex, verify_reordering,
                       verify_route_agreement, verify_zero_modes)


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
    from .config import _parse_range
    try:
        return _parse_range(text)
    except ConfigError as e:
        raise argparse.ArgumentTypeError(str(e))


def _t_int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers, got %r" % text)


def _t_symfunc(text):
    try:
        return parse_symfunc(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


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

_ROUTES = {
    "perp": (pi_schur, dual_pi_schur),
    "cauchy": (cauchy_pi_schur, cauchy_dual_pi_schur),
    "vertex": (lambda pi, lam: vertex_string(pi, lam),
               lambda pi, lam: vertex_string(pi, lam, dual=True)),
    "oracle": (oracle_pi_schur, oracle_dual_pi_schur),
}


def _run_pi_schur(args, config, dual):
    pi, lam = args.pi, args.lam
    _check_budget(config, weight(lam), "pi-schur at lambda=%s"
                  % format_partition(lam))
    routes = list(args.route or [])
    if not routes:
        routes = ["perp"]
    if args.check_oracle and "oracle" not in routes:
        routes.append("oracle")
    if "oracle" in routes and not pi:
        raise CliError("--route", "the oracle route needs a nonempty --pi")
    values = []
    for name in routes:
        fn = _ROUTES[name][1 if dual else 0]
        values.append((name, fn(pi, lam)))
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
    value = plethysm(args.outer, SymFunc.schur(args.inner), budget=None)
    oracle_value = (oracle_plethysm(args.outer, args.inner)
                    if args.check_oracle else None)
    return _run_checked(config, value, oracle_value)


def _run_series(args, config):
    shape = SymFunc.schur(args.shape)
    if args.skew is not None:
        spec = SeriesSpec.skew(args.family, args.shape, args.skew)
        if not spec.shape:
            raise CliError("--skew", "shape %s skewed by %s is zero"
                           % (format_partition(args.shape),
                              format_partition(args.skew)))
        shape = spec.shape
    else:
        spec = SeriesSpec.plain(args.family, args.shape)
    _check_budget(config, args.max_r * max(shape.degree(), 1),
                  "series table to r=%d on a degree-%d shape"
                  % (args.max_r, shape.degree()))
    terms = [spec.term(r) for r in range(args.max_r + 1)]

    def text():
        head = "%s-series of %s" % (args.family, spec.label)
        rows = ["r=%d: %s" % (r, format_symfunc(t))
                for r, t in enumerate(terms)]
        return "\n".join([head] + rows)

    def obj():
        return {"family": args.family, "shape": spec.label,
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
    top = max([f.degree() for f in state.sectors.values()] or [0])
    _check_budget(config, weight(args.pi) + top + abs(args.m),
                  "mode m=%d on a degree-%d state" % (args.m, top))
    out = apply_mode(args.pi, args.kind, args.m, state)
    _emit(config, lambda: repr(out), lambda: state_to_obj(out))
    return 0


# #### verify subcommand ####

_SUITE_FLAGS = {
    "reordering": ("cases", "pi", "window", "test_degree"),
    "zero-modes": ("charge_range",),
    "clifford": ("pi", "mode_range", "degree_bound", "charges"),
    "multivertex": ("pi", "m", "dual", "window"),
    "theorem2": ("pi", "max_weight", "max_length", "skip_oracle",
                 "skip_vertex"),
    "inverse-series": ("pi", "max_sigma_weight", "max_zweight"),
}

_FLAG_NAMES = {
    "cases": "--cases", "pi": "--pi", "window": "--window",
    "test_degree": "--test-degree", "charge_range": "--charge-range",
    "mode_range": "--mode-range", "degree_bound": "--degree-bound",
    "charges": "--charges", "m": "--m", "dual": "--dual",
    "max_weight": "--max-weight", "max_length": "--max-length",
    "skip_oracle": "--skip-oracle", "skip_vertex": "--skip-vertex",
    "max_sigma_weight": "--max-sigma-weight", "max_zweight": "--max-zweight",
}


def _run_verify(args, config):
    suite = args.suite
    allowed = _SUITE_FLAGS[suite]
    for attr, flag in _FLAG_NAMES.items():
        val = getattr(args, attr)
        explicit = not (val is None or val is False)
        if explicit and attr not in allowed:
            raise CliError(flag, "%s does not apply to suite %r"
                           % (flag, suite))

    if suite == "reordering":
        cases = tuple(args.cases) if args.cases else REORDERING_CASES
        for c in cases:
            if c not in REORDERING_CASES:
                raise CliError("--cases", "unknown case %r (choose from %s)"
                               % (c, ", ".join(REORDERING_CASES)))
        deg = args.test_degree if args.test_degree is not None else 5
        _check_budget(config, deg, "reordering to degree %d" % deg)
        report = verify_reordering(config, cases=cases, pis=args.pi,
                                   window=args.window or (0, 4),
                                   test_degree=deg, perturb=args.perturb)
    elif suite == "zero-modes":
        report = verify_zero_modes(config, charge_range=args.charge_range,
                                   perturb=args.perturb)
    elif suite == "clifford":
        deg = args.degree_bound if args.degree_bound is not None else 5
        _check_budget(config, deg, "clifford to degree %d" % deg)
        report = verify_clifford(
            config, pis=args.pi or DEFAULT_CLIFFORD_PIS,
            mode_range=args.mode_range, degree_bound=deg,
            charges=args.charges or (-1, 0, 1), perturb=args.perturb)
    elif suite == "multivertex":
        duals = {"false": (False,), "true": (True,),
                 "both": (False, True)}[args.dual or "both"]
        report = verify_multivertex(
            config, pis=args.pi or ((2,), (2, 1)), ms=args.m or (2, 3),
            duals=duals, window=args.window, perturb=args.perturb)
    elif suite == "theorem2":
        mw = args.max_weight if args.max_weight is not None else 6
        _check_budget(config, mw, "route agreement to weight %d" % mw)
        report = verify_route_agreement(
            config, pis=args.pi, max_weight=mw,
            max_length=args.max_length if args.max_length is not None else 3,
            include_oracle=not args.skip_oracle,
            include_vertex=not args.skip_vertex, perturb=args.perturb)
    else:
        zw = args.max_zweight if args.max_zweight is not None else 12
        _check_budget(config, zw, "inverse series to weight %d" % zw)
        msw = (args.max_sigma_weight
               if args.max_sigma_weight is not None else 3)
        report = verify_inverse_series(config, max_sigma_weight=msw,
                                       max_zweight=zw, hook_pis=args.pi,
                                       perturb=args.perturb)

    if args.timing == "none":
        report.elapsed_ms = 0
    _emit(config, lambda: "\n".join(report.summary_lines()),
          lambda: report.to_obj())
    return 0 if report.passed() else 1


# #### parser ####

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="config file (key = value lines); default from "
                             "$%s" % ENV_CONFIG)
    common.add_argument("--format", choices=("text", "json"))
    common.add_argument("--jobs", type=int,
                        help="accepted for compatibility; suites run "
                             "serially")
    common.add_argument("--degree-budget", type=int, dest="degree_budget")

    p = argparse.ArgumentParser(
        prog="symvertex",
        description="Exact symmetric-function computations, deformed Schur "
                    "functions by independent routes, and verification "
                    "suites for the operator identities.")
    sub = p.add_subparsers(dest="command", required=True)

    for name, dual in (("pi-schur", False), ("dual-pi-schur", True)):
        q = sub.add_parser(name, parents=[common])
        q.add_argument("--pi", type=_t_partition, required=True)
        q.add_argument("--lambda", dest="lam", type=_t_partition,
                       required=True)
        q.add_argument("--route", action="append",
                       choices=sorted(_ROUTES))
        q.add_argument("--check-oracle", action="store_true",
                       dest="check_oracle")
        q.set_defaults(run=lambda a, c, d=dual: _run_pi_schur(a, c, d))

    q = sub.add_parser("branch", parents=[common])
    q.add_argument("--pi", type=_t_partition, required=True)
    q.add_argument("--lambda", dest="lam", type=_t_partition, required=True)
    q.set_defaults(run=_run_branch)

    q = sub.add_parser("product", parents=[common])
    q.add_argument("--mu", type=_t_partition, required=True)
    q.add_argument("--nu", type=_t_partition, required=True)
    q.add_argument("--check-oracle", action="store_true",
                   dest="check_oracle")
    q.set_defaults(run=_run_product)

    q = sub.add_parser("skew", parents=[common])
    q.add_argument("--lambda", dest="lam", type=_t_partition, required=True)
    q.add_argument("--mu", type=_t_partition, required=True)
    q.set_defaults(run=_run_skew)

    q = sub.add_parser("plethysm", parents=[common])
    q.add_argument("--outer", type=_t_partition, required=True)
    q.add_argument("--inner", type=_t_partition, required=True)
    q.add_argument("--check-oracle", action="store_true",
                   dest="check_oracle")
    q.set_defaults(run=_run_plethysm)

    q = sub.add_parser("series", parents=[common])
    q.add_argument("--family", choices=("M", "L"), required=True)
    q.add_argument("--shape", type=_t_partition, required=True)
    q.add_argument("--skew", type=_t_partition)
    q.add_argument("--max-r", dest="max_r", type=int, required=True)
    q.set_defaults(run=_run_series)

    q = sub.add_parser("mode", parents=[common])
    q.add_argument("--pi", type=_t_partition, required=True)
    q.add_argument("--kind", choices=("X", "Xstar"), required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--state", required=True,
                   help="charged-state JSON, a SymFunc JSON list, or "
                        "shorthand like 's[2,1] - s[]'")
    q.add_argument("--charge", type=int, default=0)
    q.set_defaults(run=_run_mode)

    q = sub.add_parser("verify", parents=[common])
    q.add_argument("suite", choices=sorted(SUITES))
    q.add_argument("--perturb", action="store_true",
                   help="wire in the suite's deliberate mutation (must fail)")
    q.add_argument("--timing", choices=("wall", "none"), default="wall",
                   help="'none' zeroes elapsed_ms for reproducible output")
    q.add_argument("--cases", type=lambda t: t.split(","))
    q.add_argument("--pi", type=_t_partition, action="append")
    q.add_argument("--window", type=_t_range)
    q.add_argument("--test-degree", dest="test_degree", type=int)
    q.add_argument("--charge-range", dest="charge_range", type=_t_range)
    q.add_argument("--mode-range", dest="mode_range", type=_t_range)
    q.add_argument("--degree-bound", dest="degree_bound", type=int)
    q.add_argument("--charges", type=_t_int_list)
    q.add_argument("--m", type=int, action="append")
    q.add_argument("--dual", choices=("false", "true", "both"))
    q.add_argument("--max-weight", dest="max_weight", type=int)
    q.add_argument("--max-length", dest="max_length", type=int)
    q.add_argument("--skip-oracle", dest="skip_oracle", action="store_true")
    q.add_argument("--skip-vertex", dest="skip_vertex", action="store_true")
    q.add_argument("--max-sigma-weight", dest="max_sigma_weight", type=int)
    q.add_argument("--max-zweight", dest="max_zweight", type=int)
    q.set_defaults(run=_run_verify)

    return p


_DASH_VALUE_FLAGS = ("--mode-range", "--charge-range", "--charges",
                     "--window")


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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_merge_dash_values(argv))
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
