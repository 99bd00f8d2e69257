"""Tests for the genetic algorithm (Cross-key operations class)."""

from __future__ import annotations

import pytest

from repro.apps.genetic import (
    FitnessMapper,
    SelectionCrossoverReducer,
    make_job,
)
from repro.core.api import BatchReduceContext, MapContext
from repro.core.types import ExecutionMode, Record
from repro.engine.local import LocalEngine
from repro.workloads.population import (
    generate_population,
    mean_fitness,
    onemax_fitness,
)


class TestFitnessMapper:
    def test_emits_genome_fitness(self):
        ctx = MapContext()
        FitnessMapper().map(0, 0b1011, ctx)
        assert ctx.drain() == [Record(0b1011, 3)]


class TestSelectionCrossoverReducer:
    def _run(self, genomes, window=4):
        reducer = SelectionCrossoverReducer(window_size=window, genome_bits=8)
        records = [Record(g, onemax_fitness(g)) for g in genomes]
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        return ctx.drain()

    def test_population_size_conserved(self):
        out = self._run([0b11110000, 0b00001111, 0b10101010, 0b11111111])
        assert len(out) == 4

    def test_residual_window_flushed(self):
        out = self._run([0b1, 0b11, 0b111], window=4)
        assert len(out) == 3

    def test_output_carries_fitness(self):
        out = self._run([0b11000000, 0b00000011, 0b11100000, 0b00000111])
        for record in out:
            assert record.value == onemax_fitness(record.key)

    def test_selection_pressure_improves_fitness(self):
        # Selection keeps the fitter half; offspring of fit parents can't
        # be worse on OneMax-average than the original population.
        genomes = [0b11111111, 0b11111110, 0b00000001, 0b00000000]
        out = self._run(genomes)
        before = sum(onemax_fitness(g) for g in genomes) / len(genomes)
        after = sum(r.value for r in out) / len(out)
        assert after >= before


class TestEndToEnd:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_generation_conserves_population(self, mode):
        population = generate_population(60, genome_bits=16, seed=1)
        job = make_job(mode, window_size=10, genome_bits=16, num_reducers=3)
        result = LocalEngine().run(job, population, num_maps=4)
        assert len(result.all_output()) == len(population)

    def test_mean_fitness_does_not_degrade(self):
        population = generate_population(100, genome_bits=32, seed=2)
        job = make_job(ExecutionMode.BARRIERLESS, window_size=16, num_reducers=2)
        result = LocalEngine().run(job, population, num_maps=4)
        next_generation = [(r.key, r.key) for r in result.all_output()]
        assert mean_fitness(next_generation) >= mean_fitness(population)

    def test_multi_generation_convergence(self):
        # Iterating the GA job must increase OneMax fitness monotonically
        # (selection is elitist within every window).
        population = generate_population(64, genome_bits=16, seed=3)
        engine = LocalEngine()
        fitness_history = [mean_fitness(population)]
        current = population
        for _generation in range(4):
            job = make_job(
                ExecutionMode.BARRIERLESS, window_size=8, genome_bits=16,
                num_reducers=2,
            )
            result = engine.run(job, current, num_maps=4)
            current = [(i, r.key) for i, r in enumerate(result.all_output())]
            fitness_history.append(mean_fitness(current))
        assert fitness_history[-1] > fitness_history[0]
        assert all(
            later >= earlier - 1e-9
            for earlier, later in zip(fitness_history, fitness_history[1:])
        )

    def test_same_reducer_class_both_modes(self):
        # Table 2's "0% increase": the identical reducer serves both modes.
        barrier = make_job(ExecutionMode.BARRIER)
        barrierless = make_job(ExecutionMode.BARRIERLESS)
        assert type(barrier.reducer_factory()) is type(
            barrierless.reducer_factory()
        )
