"""Tests for Black-Scholes Monte Carlo (Single reducer aggregation)."""

from __future__ import annotations

import math

import pytest

from repro.apps.blackscholes import (
    MeanStdReducer,
    MonteCarloMapper,
    make_job,
    reference_statistics,
)
from repro.core.api import BatchReduceContext, MapContext, ReduceContext
from repro.core.types import ExecutionMode, Record
from repro.engine.local import LocalEngine
from repro.workloads.options import (
    OptionParams,
    black_scholes_closed_form,
    generate_mc_batches,
)


class TestMapper:
    def test_emits_value_and_square(self):
        ctx = MapContext()
        MonteCarloMapper().map(0, (OptionParams(), 100, 42), ctx)
        records = ctx.drain()
        assert len(records) == 100
        for record in records:
            value, square = record.value
            assert record.key == 0
            assert square == pytest.approx(value * value)
            assert value >= 0.0  # discounted payoffs are non-negative


class TestMeanStdReducer:
    def test_paper_identity(self):
        # sigma = sqrt(mean(x^2) - mean(x)^2), computed incrementally.
        values = [1.0, 2.0, 3.0, 4.0]
        reducer = MeanStdReducer()
        records = [Record(0, (v, v * v)) for v in values]
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        out = {r.key: r.value for r in ctx.drain()}
        mean = sum(values) / len(values)
        var = sum(v * v for v in values) / len(values) - mean * mean
        assert out["mean"] == pytest.approx(mean)
        assert out["stddev"] == pytest.approx(math.sqrt(var))
        assert out["count"] == 4

    def test_empty_input_emits_nothing(self):
        reducer = MeanStdReducer()
        ctx = ReduceContext([])
        reducer.run(ctx)
        assert ctx.drain() == []

    def test_constant_values_zero_stddev(self):
        reducer = MeanStdReducer()
        records = [Record(0, (5.0, 25.0))] * 10
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        out = {r.key: r.value for r in ctx.drain()}
        assert out["stddev"] == pytest.approx(0.0, abs=1e-12)


class TestEndToEnd:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_matches_reference_statistics(self, mode):
        batches = generate_mc_batches(4, 800, seed=1)
        result = LocalEngine().run(make_job(mode), batches, num_maps=4)
        out = result.output_as_dict()
        mean, stddev, count = reference_statistics(OptionParams(), batches)
        assert out["mean"] == pytest.approx(mean, rel=1e-9)
        assert out["stddev"] == pytest.approx(stddev, rel=1e-9)
        assert out["count"] == count

    def test_monte_carlo_converges_to_closed_form(self):
        params = OptionParams()
        batches = generate_mc_batches(8, 20_000, params=params, seed=7)
        result = LocalEngine().run(
            make_job(ExecutionMode.BARRIERLESS), batches, num_maps=4
        )
        out = result.output_as_dict()
        analytic = black_scholes_closed_form(params)
        standard_error = out["stddev"] / math.sqrt(out["count"])
        assert abs(out["mean"] - analytic) < 4 * standard_error

    def test_single_reducer_enforced(self):
        assert make_job(ExecutionMode.BARRIER).num_reducers == 1

    def test_result_independent_of_map_distribution(self):
        batches = generate_mc_batches(6, 300, seed=3)
        engine = LocalEngine()
        job = make_job(ExecutionMode.BARRIERLESS)
        one = engine.run(job, batches, num_maps=1).output_as_dict()
        many = engine.run(job, batches, num_maps=6).output_as_dict()
        assert one["mean"] == pytest.approx(many["mean"], rel=1e-12)
        assert one["count"] == many["count"]
