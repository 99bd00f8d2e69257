"""Same spill points, same bytes: the spill-merge store's golden runs.

The store may get faster; *when* it spills and *what* it writes may not
move. Every number below was computed at the commit before the
hash-buffer store (red-black tree buffer, ``Record`` round trip on the
run path) by running this file's own ``observe`` there: per reduce task
the spill accounting and heap peak, the sha256 of every run file in the
order it was cut, and the sha256 of a checkpoint of the merged view. The
bytes written and the digests were re-pinned twice, when store files
gained columnar frames and when int columns became narrow byte planes;
spill counts, spilled entries and heap peaks were not touched. A change that spills on a different ``put``, orders a
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
    (2, 4366, 9018, 262080, ("640472b69753e08d", "12db54ec11376d07"), "1e87308d7b65cea6"),
    (2, 4365, 8983, 262080, ("c2b7db1d0a419288", "0c678f25065f419c"), "0ec70efde45220e5"),
    (2, 4366, 9041, 262080, ("10a9695af67f8217", "7d2a51766073968a"), "c0fa6c4a1d8e6d42"),
    (2, 4365, 9027, 262080, ("141ae77d1aa27113", "2afa51de79468b6d"), "8059f8d995ba01c0"),
]

#: ``wc`` with a 16 KiB threshold: ~500 hot keys, so the same key lands in
#: many runs and every spill is triggered by a replacement or a new key
#: in the middle of a write-back.
WC_GOLDEN: list[tuple] = [
    (
        20, 1969, 5902, 16280,
        (
            "6642b72982548e20", "c89110653e04ea5a", "abeecd2f68af5ab7", "394b0fe88fe9997e",
            "756520a6814f423e", "5cbd9f90c0295bee", "9a3c8fd42044c388", "153303722d7a3239",
            "dbf999ccad1edac1", "6a70b492db099af3", "c842c99bde154011", "6e3933c8bba6ba5f",
            "30cff5424ced1b12", "e509199af3568bf0", "43e9962403736d47", "c2da6b607bc2535b",
            "7153cb1ee5b97bd2", "ce3df3a290966bb2", "55047b6f63570d93", "b3d0a25869906116",
        ),
        "c8a19548f4ad7b0b",
    ),
    (
        20, 1900, 5709, 16280,
        (
            "8f31e3d542ade49e", "15142659d8112305", "b546686975424735", "5292bf8c82d579b4",
            "5444012104402db6", "17c1f1f8cfcb1869", "378b7b4202c5f6b4", "f802c024c6c628a0",
            "7a01769a1d609860", "30a0a8166c45cd26", "bd0610a85d482118", "cf8f22c7e89fb2f7",
            "0c59ca6965d632b9", "c2f97585de734074", "a9c0c2d23e2949c1", "741039a1053569da",
            "e0e273ad90b34d08", "398013269bd03547", "65be9eb781e32eb6", "2346bc416f357711",
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


if __name__ == "__main__":  # regenerate: run at the *parent* commit only
    import pprint

    pprint.pprint(observe("sort", 20_000, 4, None), width=100)
    pprint.pprint(observe("wc", 20_000, 2, 16 << 10), width=100)
