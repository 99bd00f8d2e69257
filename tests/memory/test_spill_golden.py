"""Same spill points, same bytes: the spill-merge store's golden runs.

The store may get faster; *when* it spills and *what* it writes may not
move. Every number below was computed at the commit before the
hash-buffer store (red-black tree buffer, ``Record`` round trip on the
run path) by running this file's own ``observe`` there: per reduce task
the spill accounting and heap peak, the sha256 of every run file in the
order it was cut, and the sha256 of a checkpoint of the merged view. The
bytes written and the digests were re-pinned once, when store files
gained columnar frames; spill counts, spilled entries and heap peaks
were not touched. A change that spills on a different ``put``, orders a
run differently, frames it differently or snapshots different bytes
fails here — the way ``tests/dfs/test_wire_golden.py`` pins the frames
themselves. Never update a constant to make a speed-up pass.
"""

from __future__ import annotations

import hashlib
import tempfile

import pytest

from repro.apps.demo import demo_job_and_input
from repro.core.types import ExecutionMode
from repro.engine.local import LocalEngine
from repro.memory.spill import SpillMergeStore


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def observe(app: str, records: int, reducers: int, threshold: int | None):
    """Run ``app`` on ``LocalEngine`` and report what each store did.

    One tuple per reduce task, in task order: ``(spill_count,
    spilled_entries, spill_bytes_written, peak_memory, run digests,
    checkpoint digest)``, taken when the engine closes the store.
    """
    job, pairs = demo_job_and_input(
        app,
        ExecutionMode.BARRIERLESS,
        records=records,
        num_reducers=reducers,
        store="spillmerge",
        seed=1,
    )
    if threshold is not None:
        job.memory.spill_threshold_bytes = threshold
    seen: list[tuple] = []

    class Observed(SpillMergeStore):
        def close(self) -> None:
            with tempfile.TemporaryDirectory() as directory:
                stats = self.checkpoint(directory, meta={"task": len(seen)})
                snapshot = _sha256(stats.path)
            seen.append(
                (
                    self.spill_count,
                    self.spilled_entries,
                    self.spill_bytes_written,
                    self.peak_memory,
                    tuple(_sha256(path)[:16] for path in self._spill_paths),
                    snapshot[:16],
                )
            )
            super().close()

    job.store_factory = lambda: Observed(
        merge_fn=job.merge_fn,
        spill_threshold_bytes=job.memory.spill_threshold_bytes,
    )
    LocalEngine().run(job, pairs)
    return seen


#: The ``sort`` demo job stagebench's ``sort_spill`` runs: 20,000 records,
#: 4 reducers, the demo's 256 KiB threshold, seed 1.
SORT_GOLDEN: list[tuple] = [
    (2, 4366, 10904, 262080, ("8c1dbe75b27c76e6", "2bd0cf9068aef371"), "7e613b72f549aa8d"),
    (2, 4365, 10963, 262080, ("1d7541020e01d2b4", "1d07104ac43b81a4"), "62680e866fed0f8d"),
    (2, 4366, 10958, 262080, ("42448f31bd2d3b2d", "0acd8583d8143c7e"), "ea6a92b454df5444"),
    (2, 4365, 10929, 262080, ("3ecb9930246dc422", "604cec175cb0652a"), "99068b918cc5d6dd"),
]

#: ``wc`` with a 16 KiB threshold: ~500 hot keys, so the same key lands in
#: many runs and every spill is triggered by a replacement or a new key
#: in the middle of a write-back.
WC_GOLDEN: list[tuple] = [
    (
        20, 1969, 6413, 16280,
        (
            "70334a73ba4f9eba", "2fdeb94863148ed4", "fd49b3f229c7fbf2", "31133b92fd2c90cd",
            "69efaec4689eb479", "28bd33ea89c7d22a", "90de03127e199d7e", "5e617281971782a4",
            "e9cf6c4be72136a3", "2bacd4c1a11118fc", "ce877d2a149ec622", "2c52906e6f53ecb6",
            "ae680002de57c9cc", "fc8565299ab0dedd", "e76cee6739de39d0", "158287d62ef5ff90",
            "c0b42d486daf0c06", "c0afb73a33d8405e", "918922549a6132a3", "53a3a897ef2b6ab4",
        ),
        "cc23a09b23397336",
    ),
    (
        20, 1900, 6338, 16280,
        (
            "0c83dfcb5b5e1172", "8e230e875e8d3a34", "8e34801c427f04d9", "88c779d0df5594c0",
            "fc0a1ebe243f3ccc", "14d7552d66bdc735", "613ec233958b7fdf", "34252e422b68c1aa",
            "eb163d035d26d1ab", "55c2da4dae17070d", "adddf958ad697fca", "51ceb83bdc0e63d2",
            "12d7a5a4701fd29f", "79d248948f2ec29a", "c29b6756304a59b5", "f3ec5cc55bd1fc3b",
            "572df7eb63a94913", "472ab9ab396f157c", "f77b748ae9f2e343", "bc1b16ceeeeb2287",
        ),
        "902a1a70c489f828",
    ),
]


@pytest.mark.parametrize(
    "app, records, reducers, threshold, golden",
    [
        ("sort", 20_000, 4, None, SORT_GOLDEN),
        ("wc", 20_000, 2, 16 << 10, WC_GOLDEN),
    ],
    ids=["sort", "wc"],
)
def test_spill_points_and_bytes_match_the_parent(
    app, records, reducers, threshold, golden
):
    assert observe(app, records, reducers, threshold) == golden


def test_the_golden_jobs_do_spill():
    # A golden that never cut a run would pin nothing.
    assert sum(task[0] for task in SORT_GOLDEN) == 8
    assert all(task[0] >= 4 for task in WC_GOLDEN)


if __name__ == "__main__":  # regenerate: run at the *parent* commit only
    import pprint

    pprint.pprint(observe("sort", 20_000, 4, None), width=100)
    pprint.pprint(observe("wc", 20_000, 2, 16 << 10), width=100)
