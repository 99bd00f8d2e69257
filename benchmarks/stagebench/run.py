"""Entry point by path: ``python3 benchmarks/stagebench/run.py ...``.

This is the command ``BENCHMARK.json`` declares.  It needs no
``PYTHONPATH``: it puts the repo root (for this package) and ``src/``
(for ``repro``) on ``sys.path`` itself, and drops its own directory so
the benchmark's modules are importable under one name only.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def main(argv: list[str] | None = None) -> int:
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    for path in (os.path.join(_ROOT, "src"), _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.stagebench.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
