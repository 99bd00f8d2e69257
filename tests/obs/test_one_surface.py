"""One instrumentation surface: counters, spans and series, nothing else.

Every occurrence an engine, the simulator, the cluster or the job server
observes is a counter increment, a span (or a span attribute) or a
sampled series.  A structured event log beside them only repeated what
those already recorded, so this guard keeps a second surface from coming
back: no module under ``repro`` may import ``repro.obs.events``, name an
``EventLog``, or call ``.events.emit`` / ``.events.record``.  ``make
obs`` runs it.
"""

from __future__ import annotations

import ast
import importlib.util
import pkgutil

import repro
from repro.obs import JobObservability


def _modules() -> list[str]:
    return [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
    ]


MODULES = _modules()


def _offences(module: str) -> list[str]:
    with open(importlib.util.find_spec(module).origin) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if node.module == "repro.obs.events" or (
                node.module == "repro.obs" and "events" in names
            ):
                found.append(f"{where} imports repro.obs.events")
        elif isinstance(node, ast.Import):
            if any(a.name == "repro.obs.events" for a in node.names):
                found.append(f"{where} imports repro.obs.events")
        if (
            isinstance(node, ast.Name) and node.id == "EventLog"
            or isinstance(node, ast.Attribute) and node.attr == "EventLog"
            or isinstance(node, ast.alias) and node.name == "EventLog"
        ):
            found.append(f"{where} names EventLog")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("emit", "record")
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "events"
        ):
            found.append(f"{where} calls .events.{node.func.attr}")
    return found


def test_the_guard_sees_every_instrumented_layer():
    assert {
        "repro.engine.threaded",
        "repro.engine.fold",
        "repro.cluster.dispatch",
        "repro.cluster.worker",
        "repro.server.server",
        "repro.sim.hadoop",
        "repro.obs.session",
    } <= set(MODULES)


def test_no_module_records_into_an_event_log():
    found = [offence for module in MODULES for offence in _offences(module)]
    assert found == []


def test_the_bundle_is_counters_spans_and_series():
    assert JobObservability.__slots__ == (
        "enabled", "counters", "tracer", "metrics", "epoch"
    )
