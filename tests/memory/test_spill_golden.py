"""Same spill points, same bytes: the spill-merge store's golden runs.

The store may get faster; *when* it spills and *what* it writes may not
move. Every number below was computed at the commit before the
hash-buffer store (red-black tree buffer, ``Record`` round trip on the
run path) by running this file's own ``observe`` there: per reduce task
the spill accounting and heap peak, the sha256 of every run file in the
order it was cut, and the sha256 of a checkpoint of the merged view. The
bytes written and the run digests were re-pinned three times, when store
files gained columnar frames, when int columns became narrow byte planes
and when spill runs stopped being deflated (the checkpoint digests did
not move that time); spill counts, spilled entries and heap peaks were
not touched. A change that spills on a different ``put``, orders a
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
from repro.dfs.wire import FLAG_COMPRESSED, frame_size
from repro.engine.local import LocalEngine
from repro.memory.checkpoint import checkpoint_path
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
    (2, 4366, 21040, 262080, ("6e3876038aa77871", "8df4f158b5f6479b"), "1e87308d7b65cea6"),
    (2, 4365, 22059, 262080, ("850f0743564b0256", "4ea5b55ebbbaca83"), "0ec70efde45220e5"),
    (2, 4366, 22064, 262080, ("127c74cd9f436408", "23fa780a97a6c168"), "c0fa6c4a1d8e6d42"),
    (2, 4365, 22059, 262080, ("b008c3a10034b7dd", "b87a1f5d6fc79c29"), "8059f8d995ba01c0"),
]

#: ``wc`` with a 16 KiB threshold: ~500 hot keys, so the same key lands in
#: many runs and every spill is triggered by a replacement or a new key
#: in the middle of a write-back.
WC_GOLDEN: list[tuple] = [
    (
        20, 1969, 19800, 16280,
        (
            "fe3704e23412b7f8", "52916e7b9886f2c9", "5965fc4ab011353e", "2a67b5b217d15073",
            "4b1f811291eced6d", "88d93b9d99823d5c", "fa2cfbee1263f17a", "3378840b5f385bec",
            "1e65ffe7ed8407b9", "cc00998b9f5a3cba", "1fbf15b7c425b16f", "33d9986ea73284e9",
            "14ee85d90493aae8", "706c8d879f20b8cb", "9b19af4f4bd45daa", "afc2684af7f201fa",
            "2b37aff496fbb4fb", "107cf24c78123812", "69d4828fdee49105", "c4333030a5b0c89b",
        ),
        "c8a19548f4ad7b0b",
    ),
    (
        20, 1900, 17320, 16280,
        (
            "bfd39234b868b5eb", "4f84fb64fcbaa802", "c310df976ffa50d4", "fafa94d226854ea8",
            "d70eda1c2fc7e741", "78b161106b42e61d", "51df5e1e56d30920", "eade6b99e8b2a2fa",
            "683b1138ab05af2b", "8d63d9dc1b374d66", "91e1570dcfaa3429", "e366877433549a87",
            "d5acbe2d25a4b07a", "d85796c4d649c0d8", "5d04871b44a2250c", "80ac6fba31069107",
            "f6cdc84c67dde77b", "8de09325351a6f77", "37a51e8198db9d2d", "553e3f5fd1cd0bbc",
        ),
        "e84c742c74d07fb0",
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


def _frame_flags(path: str) -> list[int]:
    with open(path, "rb") as fh:
        data = fh.read()
    flags, offset = [], 0
    while offset < len(data):
        flags.append(data[offset])
        offset += frame_size(data, offset)
    return flags


@pytest.mark.parametrize(
    "threshold, puts", [(2_000, 400), (1, 80)], ids=["spills", "compaction"]
)
def test_runs_are_raw_and_checkpoints_deflated(tmp_path, threshold, puts):
    """Spill and compaction runs are read back only by the process that
    cut them, so they are sealed raw; a checkpoint outlives the attempt
    and keeps deflate wherever it makes a frame smaller."""
    store = SpillMergeStore(lambda a, b: a + b, spill_threshold_bytes=threshold)
    for i in range(puts):
        store.put(f"word-{i:05d}", "payload " * 4)
    assert store.spill_count >= 4
    if threshold == 1:
        assert store.compactions >= 1
    run_flags = [flags for path in store._spill_paths for flags in _frame_flags(path)]
    assert run_flags and not any(flags & FLAG_COMPRESSED for flags in run_flags)
    store.checkpoint(str(tmp_path))
    body = _frame_flags(checkpoint_path(str(tmp_path)))[1:-1]  # meta, trailer
    assert body and all(flags & FLAG_COMPRESSED for flags in body)
    store.close()


if __name__ == "__main__":  # regenerate: run at the *parent* commit only
    import pprint

    pprint.pprint(observe("sort", 20_000, 4, None), width=100)
    pprint.pprint(observe("wc", 20_000, 2, 16 << 10), width=100)
