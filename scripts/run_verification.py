"""Run the verification suites and summarize the reports.

Two scales are wired in: `quick` keeps every suite under a second or two
(useful while hacking), `full` passes no parameters, so each suite runs at
its own defaults, which are the ranges the acceptance tests use.  The
suites run one after another in this process.  Exit status is 0 only if
every selected suite passes.

    python scripts/run_verification.py
    python scripts/run_verification.py --scale full --out report.json
    python scripts/run_verification.py --suite clifford --suite zero-modes
"""

import argparse
import json
import sys

from symvertex.verifier import SUITES

QUICK = {
    "reordering": dict(pis=[(2,), (1, 1)], window=(0, 3), test_degree=4),
    "zero-modes": dict(charge_range=(-3, 3)),
    "clifford": dict(pis=((), (2,)), mode_range=(-2, 2), degree_bound=3),
    "multivertex": dict(pis=((2,),), ms=(2,), window=(-2, 2)),
    "theorem2": dict(max_weight=4, max_length=2),
    "inverse-series": dict(max_sigma_weight=2, max_zweight=8),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", action="append", choices=sorted(SUITES),
                    help="repeatable; default is every suite")
    ap.add_argument("--scale", choices=("quick", "full"), default="quick")
    ap.add_argument("--perturb", action="store_true",
                    help="run the deliberate mutations (suites must FAIL)")
    ap.add_argument("--out", default="", help="write the reports as JSON")
    return ap.parse_args(argv)


def main(argv=None):
    cfg = parse_args(argv)
    reports = []
    for suite in cfg.suite or sorted(SUITES):
        params = QUICK[suite] if cfg.scale == "quick" else {}
        rep = SUITES[suite](perturb=cfg.perturb, **params)
        reports.append(rep)
        for line in rep.summary_lines():
            print(line)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump([r.to_obj() for r in reports], fh, indent=2)
        print("wrote %s" % cfg.out)
    if cfg.perturb:
        # a mutated run is vacuous unless every suite caught it
        caught = all(not r.passed() for r in reports)
        print("mutations caught by every suite" if caught
              else "VACUOUS: some suite passed despite the mutation")
        return 0 if caught else 1
    return 0 if all(r.passed() for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
