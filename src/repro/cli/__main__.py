"""``python -m repro.cli``: the same entry point as the ``repro-mr`` script."""

from repro.cli import main

raise SystemExit(main())
