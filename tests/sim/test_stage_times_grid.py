"""The simulator's stage times, pinned over a grid of completed runs.

``SimJobResult.stage_times`` is read off the run's span tree.  The
digest below was taken while the simulator still stamped each boundary
by hand from its reducer traces, so a mismatch means a stage boundary
moved: fix the code, never the constant.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

from repro.analysis.sweeps import FIGURE6_PANELS, figure6_reducers
from repro.core.types import ExecutionMode
from repro.sim import HadoopSimulator, NodeFailure, ReducerFailure
from repro.sim.cluster import ClusterSpec

FAILURES = {
    "none": {},
    "node": {"failure": NodeFailure(1, 30.0)},
    "reducer": {"reducer_failure": ReducerFailure(0, 40.0)},
}

#: sha256 over one line per run: app, mode, failure, speculation, then
#: ``repr`` of the seven ``StageTimes`` fields.
GRID_SHA256 = (
    "d05b6c06698fb3e0267d76129f5d3434c04344b2c1cbcb832122736b9e95a363"
)


def grid_lines() -> list[str]:
    """Each Figure 6 profile at its largest x (so the map stage runs in
    several waves and speculation has stragglers to race), under both
    modes, every failure and speculation off and on."""
    lines = []
    for speculative in (False, True):
        sim = HadoopSimulator(ClusterSpec(speculative_execution=speculative))
        for app, (build, xs) in FIGURE6_PANELS.items():
            profile = build(xs[-1])
            for mode in ExecutionMode:
                for failure, kwargs in FAILURES.items():
                    result = sim.run(
                        profile, figure6_reducers(app), mode, **kwargs
                    )
                    assert not result.failed, (app, mode, failure)
                    values = " ".join(
                        repr(value) for value in astuple(result.stage_times)
                    )
                    lines.append(
                        f"{app} {mode.value} {failure} {speculative} {values}"
                    )
    return lines


def test_stage_times_grid_is_pinned():
    lines = grid_lines()
    assert len(lines) == 72
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GRID_SHA256
