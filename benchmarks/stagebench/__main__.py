"""``python -m benchmarks.stagebench`` — same command line as ``run.py``."""

import sys

from benchmarks.stagebench.run import main

sys.exit(main())
