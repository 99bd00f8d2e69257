"""stagebench: the repo's benchmark (see README.md in this directory).

Four workloads, the end-to-end metrics a user of the engines sees, and a
layer walk that attributes seconds and bytes to the modules a record
crosses.  Declared to the driver by ``BENCHMARK.json`` at the repo root.
"""
