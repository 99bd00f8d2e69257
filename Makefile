# Convenience targets for the reproduction workflow.

.PHONY: install test codec store mapside stagebench-smoke bench-figures chaos cluster \
	cluster-trace netchaos server preempt figures csv scoreboard examples \
	trace-demo all clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# The codec's contract in one command: unit tests, the byte-identity
# digest and the fuzz suite, as CI's wire-fuzz job runs them.  Run it
# before and after any change to dfs/serialization.py or dfs/wire.py.
codec:
	pytest tests/dfs/test_serialization.py tests/dfs/test_wire_golden.py \
		tests/dfs/test_wire_fuzz.py -q -p no:cacheprovider \
		--hypothesis-profile=ci

# The partial-result stores' contract in one command: tests/memory with
# the spill store's golden runs (same spill points, same bytes as the
# tree-buffer store they were computed on) and the write-back-over-spill
# state machine, as CI's store job runs them.  Run it before and after
# any change to memory/spill.py, memory/writeback.py or memory/checkpoint.py.
store:
	pytest tests/memory -q -p no:cacheprovider --hypothesis-profile=ci

# The map side's contract in one command: the sort-and-spill buffer, the
# collector against the three-pass composition LocalEngine keeps (frames,
# cut points, counters, what the partition memo may remember) and the
# wire golden digest, as CI's mapside job runs them.  Run it before and
# after any change to engine/mapside.py or run_map_task_encoded.
mapside:
	pytest tests/engine/test_mapside.py tests/engine/test_collector.py \
		tests/dfs/test_wire_golden.py -q -p no:cacheprovider \
		--hypothesis-profile=ci

stagebench-smoke:
	python -m benchmarks.stagebench --seed 1 --smoke

bench-figures:
	pytest benchmarks/ --benchmark-only

chaos:
	python -m repro.cli chaos all
	python -m repro.cli chaos all --lose-map-output --seed 2
	python -m repro.cli chaos all --checkpoint --crash-reducer-after 100 --seed 3
	pytest tests/engine/test_recovery.py tests/obs/test_recovery_counters.py \
		tests/engine/test_checkpoint_recovery.py tests/engine/test_fold.py \
		tests/memory/test_checkpoint.py \
		tests/test_chaos.py tests/sim/test_failures.py tests/sim/test_checkpoint_sim.py -q

cluster:
	pytest tests/cluster/test_dispatch.py tests/cluster/test_worker_core.py -q
	python -m repro.cli cluster all --workers 2
	python -m repro.cli cluster wc --workers 2 --chaos --checkpoint
	pytest tests/cluster -q

cluster-trace:
	python -m repro.cli cluster wc --workers 2 \
		--trace results/cluster.trace.json \
		--metrics-out results/cluster.metrics.json \
		--status-json results/cluster.status.json
	python -m repro.cli top --once --file results/cluster.status.json
	python -m repro.cli metrics --file results/cluster.metrics.json
	pytest tests/cluster/test_telemetry.py -q

netchaos:
	python -m repro.cli cluster all --workers 2 --chaos net
	pytest tests/cluster/test_netchaos.py tests/cluster/test_coordinator_recovery.py -q

server:
	pytest tests/server/test_kernel.py tests/server/test_props.py -q
	REPRO_SERVER_SOAK_JOBS=80 pytest tests/server/test_soak.py \
		tests/server/test_server.py tests/server/test_differential.py \
		tests/cluster/test_multijob.py -q

preempt:
	pytest tests/server/test_preempt_kernel.py -q
	REPRO_SERVER_SOAK_JOBS=8 pytest tests/cluster/test_preempt.py \
		tests/cluster/test_quarantine.py -q

figures:
	python -m repro.cli figure fig4 fig5 fig6 fig7 fig8 fig9 fig10

csv:
	python -m repro.cli export results/

scoreboard:
	python -c "from repro.analysis import verify_paper_claims, format_scoreboard; print(format_scoreboard(verify_paper_claims()))"

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script || exit 1; done

trace-demo:
	python -m repro.cli trace wc --records 2000 --engine threaded \
		-o results/wc.trace.json --summary
	python -m repro.cli counters wc --records 2000 --diff

all: test stagebench-smoke

clean:
	rm -rf results/ .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
