"""Same spill points, same bytes: the spill-merge store's golden runs.

The store may get faster; *when* it spills and *what* it writes may not
move.  Every number and digest below was computed at the commit before
the hash-buffer store (PR 23's parent, red-black tree buffer, ``Record``
round trip on the run path) by running this file's own ``observe`` there:
per reduce task the spill accounting and heap peak, the sha256 of every
run file in the order it was cut, and the sha256 of a checkpoint of the
merged view.  A change that spills on a different ``put``, orders a run
differently, frames it differently or snapshots different bytes fails
here — the way ``tests/dfs/test_wire_golden.py`` pins the frames
themselves.  Never update a constant to make a speed-up pass.
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
    (2, 4366, 10855, 262080, ("c112a9b193f23183", "96275845791516d8"), "724f136be19ced0f"),
    (2, 4365, 10776, 262080, ("c723b86f5a53e259", "6326f2251c14fef5"), "ac90b729430c6b00"),
    (2, 4366, 10772, 262080, ("9668791f2efaeea2", "66995c9552695fdb"), "b428422a266c60a9"),
    (2, 4365, 10765, 262080, ("74838e427c98df44", "37653e4283d64b26"), "22e1246fd3bdeb45"),
]

#: ``wc`` with a 16 KiB threshold: ~500 hot keys, so the same key lands in
#: many runs and every spill is triggered by a replacement or a new key
#: in the middle of a write-back.
WC_GOLDEN: list[tuple] = [
    (
        20, 1969, 5870, 16280,
        (
            "6d6fe2a804699e18", "1982c0da57f3eda6", "4da4509d73f35814", "d32640643070a9ee",
            "2cca514e76ea81a9", "fe53ed4113eb5691", "7f7c9de4dc2ea88b", "58b319cfee17310a",
            "5bf7f196b89765b2", "045c228b61577e6b", "babe833691452d94", "aec5d41484b82dfb",
            "7d5c827d45d86f56", "788da349cc2b57fa", "04ca2af99a2f61c5", "408a1c132bfce39d",
            "634ca700216fd4d9", "ee74dca4cdaf9df8", "17c116839d2d0786", "5bc004587a3fb270",
        ),
        "d14d6e002f7033fa",
    ),
    (
        20, 1900, 5751, 16280,
        (
            "2f2ef19e6319343e", "78d1ef2451fafb64", "ae57d9d635a7e872", "648d770dcdb1eb98",
            "e080e717a12e3784", "6978e3691ad7dfdf", "00e515604e41c86b", "75dde4a16c1c4323",
            "2131cdccfffed7a5", "650694cf2ce5b1d8", "f189d6a597d62689", "f2768dd4813bbd23",
            "a455d95da7b9320b", "6e98f88ea1506c79", "56d86f263b9bd004", "e4b9cc9cf9dac556",
            "8c097c4bd06f16fc", "6d6dba7a6b273a2b", "ef562cd6af58fb1e", "59a13799eac24e4a",
        ),
        "ee59ca838bf02e35",
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
