"""Benchmark-suite helpers.

Every bench regenerates one table or figure from the paper and prints its
rows/series through :func:`emit`, which suspends pytest's output capture
so the tables appear inline in ``pytest benchmarks/ --benchmark-only``
runs (and in bench_output.txt) even though all benches pass.
"""

from __future__ import annotations

import pytest

_capture_manager = None


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(pytestconfig):
    """Stash the capture manager so :func:`emit` can bypass capture."""
    global _capture_manager
    _capture_manager = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield
    _capture_manager = None


def emit(text: str) -> None:
    """Print bench output past pytest's capture."""
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            print("\n" + text, flush=True)
    else:  # pragma: no cover - direct invocation outside pytest
        print("\n" + text, flush=True)


def emit_timed(benchmark, render) -> None:
    """``emit(render(mean seconds per round))`` when the bench was timed.

    Under ``--benchmark-disable`` each bench body runs once untimed and
    ``benchmark.stats`` is ``None``, so there is nothing to report; the
    bench's own asserts still run.
    """
    if benchmark.stats is not None:
        emit(render(benchmark.stats.stats.mean))


@pytest.fixture(scope="session")
def testbed():
    """The paper's simulated cluster (shared across benches)."""
    from repro.sim import paper_testbed

    return paper_testbed()
