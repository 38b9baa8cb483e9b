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


def _fresh_stdout(code):
    # the output of `code` in a fresh interpreter importing this package
    src = os.path.dirname(os.path.dirname(symvertex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_import_loads_no_cli_argparse_or_numpy():
    # the README promises no numpy, and whatever `import symvertex` loads is
    # paid by every program and by the benchmark's set-up; the CLI and its
    # argparse are loaded only by a program that parses a command line
    out = _fresh_stdout(
        "import sys, symvertex; print(sorted(m for m in sys.modules if m "
        "in ('symvertex.cli', 'argparse', 'numpy')))")
    assert out.strip() == "[]"


def test_package_stays_under_the_line_ceiling():
    # ROADMAP's convention: src/ stays at most 3,370 lines, so a change that
    # adds lines deletes others
    pkg = Path(symvertex.__file__).resolve().parent
    lines = sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py"))
    assert lines <= 3370


def test_import_fills_no_memo():
    # work done at import is paid by every program and by the benchmark's
    # set-up; the memos fill on first use
    out = _fresh_stdout(
        "import sys, symvertex, symvertex.cli\n"
        "memos = {'%s.%s' % (n, a): len(v) for n, m in sys.modules.items()"
        " if n.startswith('symvertex') for a, v in vars(m).items()"
        " if a.endswith('_memo') and isinstance(v, dict)}\n"
        "print(len(memos), sorted(k for k, n in memos.items() if n))")
    count, filled = out.split(" ", 1)
    assert int(count) >= 5
    assert filled.strip() == "[]"
