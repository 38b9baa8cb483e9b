"""Tabulate the deformed Schur functions over a range of shapes and labels.

For every shape pi up to --max-pi-weight and every label lambda up to
--max-lambda-weight, print the expansion of the deformed Schur function
(or the dual family with --dual) in the Schur basis, computed by every
route named with --route and cross-checked for agreement.

    python scripts/pi_schur_table.py --max-pi-weight 2 --max-lambda-weight 3
    python scripts/pi_schur_table.py --dual --route perp --route cauchy
    python scripts/pi_schur_table.py --out table.json --format json
"""

import argparse
import json
import sys

from symvertex.jsonform import symfunc_to_obj
from symvertex.partitions import format_partition, partitions_up_to
from symvertex.schurring import format_symfunc
from symvertex.verifier import ROUTES


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-pi-weight", type=int, default=2)
    ap.add_argument("--max-lambda-weight", type=int, default=4)
    ap.add_argument("--max-lambda-length", type=int, default=3)
    ap.add_argument("--dual", action="store_true")
    ap.add_argument("--route", action="append", dest="routes",
                    choices=sorted(ROUTES))
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--out", default="", help="also write the table here")
    a = ap.parse_args(argv)
    a.routes = a.routes or ["perp"]
    return a


def build_table(cfg):
    """List of row dicts; raises RuntimeError on any route disagreement."""
    pis = [p for p in partitions_up_to(cfg.max_pi_weight) if p]
    lams = partitions_up_to(cfg.max_lambda_weight,
                            max_length=cfg.max_lambda_length)
    rows = []
    for pi in pis:
        for lam in lams:
            values = [ROUTES[name][1 if cfg.dual else 0](pi, lam)
                      for name in cfg.routes]
            if any(v != values[0] for v in values[1:]):
                raise RuntimeError("routes disagree at pi=%s lambda=%s"
                                   % (format_partition(pi),
                                      format_partition(lam)))
            rows.append({"pi": format_partition(pi),
                         "lambda": format_partition(lam),
                         "value": values[0]})
    return rows


def main(argv=None):
    cfg = parse_args(argv)
    try:
        rows = build_table(cfg)
    except RuntimeError as e:
        print("ERROR: %s" % e, file=sys.stderr)
        return 1
    family = "dual " if cfg.dual else ""
    if cfg.format == "json":
        obj = {"family": "dual" if cfg.dual else "primary",
               "routes": cfg.routes,
               "rows": [{"pi": r["pi"], "lambda": r["lambda"],
                         "value": symfunc_to_obj(r["value"])}
                        for r in rows]}
        text = json.dumps(obj, indent=2)
    else:
        width = max((len(r["pi"]) + len(r["lambda"]) for r in rows),
                    default=0) + 4
        lines = ["%s Schur table via %s (%d rows)"
                 % (family + "deformed", "+".join(cfg.routes), len(rows))]
        for r in rows:
            head = "%s %s" % (r["pi"], r["lambda"])
            lines.append("%-*s %s" % (width, head,
                                      format_symfunc(r["value"])))
        text = "\n".join(lines)
    print(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print("wrote %s" % cfg.out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
