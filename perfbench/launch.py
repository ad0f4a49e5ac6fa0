"""Run ``python -m repro ARGS`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/launch.py SPANS_JSON ROLE_ARGS...

The first repro argument (``serve``, ``dispatch`` or ``worker``) picks
the wrapper set.  The import of the package is itself a span
(``import.repro``).  Spans are written to ``SPANS_JSON`` when the entry
point returns, which ``serve`` and ``dispatch`` do after their SIGTERM
drain and ``worker`` does once the queue drained.
"""

from __future__ import annotations

import runpy
import sys

from tracing import Recorder, install_role


def main() -> None:
    spans_path, args = sys.argv[1], sys.argv[2:]
    rec = Recorder(role=args[0])
    rec.wrap(lambda: __import__("repro.cli"), "import.repro")()
    install_role(rec, args[0])
    sys.argv = ["repro", *args]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        rec.write(spans_path)


if __name__ == "__main__":
    main()
