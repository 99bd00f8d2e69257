"""Cross-engine counter consistency: one semantics, two executions.

The local and threaded engines must report *identical* counter totals
for the same job over the same input — concurrency changes timing,
never counts.
"""

from __future__ import annotations

import pytest

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.apps.registry import REGISTRY
from repro.core.types import ExecutionMode
from repro.engine.local import LocalEngine
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability, validate_span_nesting

APPS = [descriptor.short_name for descriptor in REGISTRY]
MODES = [ExecutionMode.BARRIER, ExecutionMode.BARRIERLESS]


def engines_for(obs_by_name):
    return {
        "local": LocalEngine(obs=obs_by_name["local"]),
        "threaded": ThreadedEngine(map_slots=2, obs=obs_by_name["threaded"]),
    }


@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
@pytest.mark.parametrize("app", APPS)
def test_counter_totals_identical_across_engines(app, mode):
    obs_by_name = {name: JobObservability() for name in ("local", "threaded")}
    outputs = {}
    counters = {}
    for name, engine in engines_for(obs_by_name).items():
        job, pairs = demo_job_and_input(app, mode, records=400, seed=5)
        result = engine.run(job, pairs, num_maps=3)
        outputs[name] = normalized_output(app, result)
        counters[name] = obs_by_name[name].counters.as_dict()
    assert counters["local"] == counters["threaded"], (
        f"{app}/{mode.value}: local vs threaded counters diverged"
    )
    assert outputs["local"] == outputs["threaded"]


@pytest.mark.parametrize("engine_name", ["local", "threaded"])
def test_every_engine_emits_well_nested_spans(engine_name):
    obs = JobObservability()
    obs_by_name = {"local": obs, "threaded": obs}
    engine = engines_for(obs_by_name)[engine_name]
    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=400, seed=5
    )
    engine.run(job, pairs, num_maps=3)
    spans = obs.tracer.spans()
    assert validate_span_nesting(spans) == []
    (job_span,) = [span for span in spans if span.kind == "job"]
    assert job_span.attrs["engine"] in ("local", "threaded")
    stage_names = {span.name for span in spans if span.kind == "stage"}
    assert stage_names == {"map", "reduce"}
    assert len([span for span in spans if span.kind == "task"]) >= 7
