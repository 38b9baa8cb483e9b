"""Run a function in a forked child and bring its JSON result back.

A child forked from a process that has imported the package, but has not
computed anything, starts with every memo empty, as a new CLI call does,
without the benchmark having to know the memos.  One child runs at a time.
"""

import json
import os
import select
import signal
import sys
import time
import traceback


class ChildError(Exception):
    """The child raised, died, or ran past its deadline."""


def run(fn, timeout):
    """fn() in a forked child; returns its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                data = json.dumps({"ok": fn()})
            except Exception:
                data = json.dumps({"error": traceback.format_exc()})
            with os.fdopen(w, "w") as fh:
                fh.write(data)
        finally:
            # never return into the caller's frames; an interrupt leaves no
            # result, which the parent reports
            os._exit(0)
    os.close(w)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                raise ChildError("child ran past %d s" % timeout)
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    if not chunks:
        raise ChildError("child exited without a result")
    res = json.loads(b"".join(chunks))
    if "error" in res:
        raise ChildError(res["error"])
    return res["ok"]
