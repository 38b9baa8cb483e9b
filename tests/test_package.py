import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import symvertex


def test_public_names_resolve():
    # a name deleted from a module but left in __all__ breaks
    # `from symvertex import *` only when someone runs it
    missing = [name for name in symvertex.__all__
               if not hasattr(symvertex, name)]
    assert not missing
    assert len(set(symvertex.__all__)) == len(symvertex.__all__)


def test_tracer_targets_resolve():
    # perfbench/tracing.py wraps these names by string; a rename would
    # only show when someone runs the benchmark with --trace 1.  The
    # tracer is loaded, not installed.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for modname, attr, _, memo in tracing.TARGETS:
        mod = importlib.import_module("symvertex." + modname)
        obj = mod
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("%s.%s" % (modname, attr))
        if memo is not None and not isinstance(getattr(mod, memo, None),
                                               dict):
            missing.append("%s.%s" % (modname, memo))
    assert not missing
    assert {t[0] for t in tracing.TARGETS} <= set(tracing.MODULES)


def test_import_loads_no_cli_argparse_or_numpy():
    # the README promises no numpy, and whatever `import symvertex` loads is
    # paid by every program and by the benchmark's set-up; the CLI and its
    # argparse are loaded only by a program that parses a command line
    src = os.path.dirname(os.path.dirname(symvertex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, symvertex; print(sorted(m for m in sys.modules if m "
            "in ('symvertex.cli', 'argparse', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
