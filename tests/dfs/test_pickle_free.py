"""One codec: nothing that writes or reads intermediate data imports pickle.

Shuffled batches, streaming journals, map-side spill runs, store spill
runs, kvstore logs and checkpoints are all typed wire frames
(:mod:`repro.dfs.wire`); a value the typed codec cannot express fails
where it is written.  This guard keeps it that way: no module under
``repro.dfs``, ``repro.memory`` or ``repro.engine`` may import a module
that can unpickle.  ``make codec`` runs it.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro.dfs
import repro.engine
import repro.memory
from tests.cluster.test_dispatch import imported_modules

#: Modules that can turn bytes back into arbitrary objects.
UNPICKLERS = {"pickle", "_pickle", "shelve"}


def _modules() -> list[str]:
    names = []
    for package in (repro.dfs, repro.memory, repro.engine):
        names.append(package.__name__)
        names.extend(
            info.name
            for info in pkgutil.walk_packages(
                package.__path__, package.__name__ + "."
            )
        )
    return names


MODULES = _modules()


def test_the_guard_sees_the_store_and_shuffle_modules():
    assert {
        "repro.dfs.wire",
        "repro.memory.checkpoint",
        "repro.memory.kvstore",
        "repro.memory.spill",
        "repro.engine.mapside",
        "repro.engine.streaming",
    } <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_unpickler(module):
    imported = imported_modules(module)
    assert not imported & UNPICKLERS, sorted(imported & UNPICKLERS)
