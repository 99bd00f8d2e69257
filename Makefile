# Convenience targets for the reproduction workflow.

.PHONY: install test cli codec store mapside fold obs timeline stagebench-smoke bench-figures chaos cluster \
	cluster-trace netchaos server preempt figures csv scoreboard examples \
	trace-demo all clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# The CLI end to end, as CI's cli job runs it: the command rows (every
# subcommand's --help, bad input as a usage error, chaos, top, submit and
# jobs against an in-process server), then a real `repro serve` on
# CLI_PORT: submit --wait, jobs, and a SIGTERM that must drain and exit 0.
CLI_PORT ?= 7391

cli:
	pytest tests/test_cli.py tests/obs/test_cli_trace.py -q -p no:cacheprovider
	set -e; log=$$(mktemp); \
	python -u -m repro.cli serve --port $(CLI_PORT) > $$log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f $$log' EXIT; \
	for _ in $$(seq 100); do grep -q '^job server on' $$log && break; sleep 0.1; done; \
	python -m repro.cli submit wc --server 127.0.0.1:$(CLI_PORT) --records 200 --wait; \
	python -m repro.cli jobs --server 127.0.0.1:$(CLI_PORT); \
	kill -TERM $$pid; status=0; wait $$pid || status=$$?; cat $$log; \
	test $$status -eq 0; grep -q '^drained: ' $$log

# The codec's contract in one command: unit tests, the byte-identity
# digest, the fuzz suite, the no-pickle import guard and every app's
# framed shuffle against the codec-free reference, as CI's wire-fuzz job
# runs them.  Run it before and after any change to dfs/serialization.py
# or dfs/wire.py.
codec:
	pytest tests/dfs/test_serialization.py tests/dfs/test_wire_golden.py \
		tests/dfs/test_wire_fuzz.py tests/dfs/test_pickle_free.py \
		tests/engine/test_wire_equivalence.py -q -p no:cacheprovider \
		--hypothesis-profile=ci

# The partial-result stores' contract in one command: tests/memory with
# the spill store's golden runs (same spill points as when its buffer
# was a red-black tree; raw runs, deflated checkpoints), the in-memory
# store's pinned wc checkpoint digest (taken on the tree it replaced),
# the put_many property (one call per batch leaves the state a put per
# entry would, for both stores, thresholds and heap limits crossed
# mid-batch), the batch write-back's tests and the write-back over the
# spill store as a state machine, as CI's store job runs them.  Run it before and after any
# change to memory/spill.py, memory/store.py, memory/writeback.py or
# memory/checkpoint.py.
store:
	pytest tests/memory -q -p no:cacheprovider --hypothesis-profile=ci

# The map side's contract in one command: the collector every engine
# maps through against the codec-free three-pass composition (frames,
# cut points, counters, what the partition memo may remember), the row
# codec its frames fall back to and the wire golden digests (rows and
# columns), as CI's mapside job runs them.  Run it before and after any
# change to engine/mapside.py, run_map_task_encoded, wire.cut_frames or
# the pair encoder in dfs/serialization.py.
mapside:
	pytest tests/engine/test_collector.py \
		tests/dfs/test_serialization.py tests/dfs/test_wire_golden.py -q \
		-p no:cacheprovider --hypothesis-profile=ci

# The barrier-less fold's contract in one command: the fold ledger
# killed at every batch boundary, grouped input against the ungrouped
# run (all seven apps x three stores x local, threaded, streaming: same
# output, puts, entries and spill files), the grouping property and the
# no-Record guard, and the wire and spill golden digests, as CI's fold
# job runs them.  Run it before and after any change to
# BatchReduceContext, make_reduce_context or engine/fold.py.
fold:
	pytest tests/engine/test_fold.py tests/core/test_api.py \
		tests/dfs/test_wire_golden.py tests/memory/test_spill_golden.py \
		-q -p no:cacheprovider --hypothesis-profile=ci

# The instrumentation contract in one command: tests/obs (counters,
# spans, series, exporters, and the guard that keeps a second surface
# such as an event log out of src/), the cluster telemetry plane, and
# the dispatcher's malformed-frame row, whose error is read from status,
# as CI's test job runs them.  Run it before and after any change to
# repro/obs, cluster/telemetry.py or what an engine records.
obs:
	pytest tests/obs tests/cluster/test_telemetry.py \
		tests/cluster/test_dispatch.py::test_malformed_frame_does_not_kill_dispatcher \
		-q -p no:cacheprovider

# Figure 4 in one command: the stage-concurrency series read from the
# simulator's spans (with the CSV golden digests), the simulator's stage
# times pinned over a grid of runs, the simulator's own suite and the
# Figure 4 claims, as CI's timeline job runs them.  Run it before and
# after any change to sim/hadoop.py, analysis/timeline.py or
# repro.obs.stage_times.
timeline:
	pytest tests/analysis/test_timeline.py tests/sim/test_stage_times_grid.py \
		tests/sim/test_hadoop.py benchmarks/test_fig4_timeline.py \
		--benchmark-disable -q -p no:cacheprovider

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
	pytest tests/core/test_types.py -q --hypothesis-profile=ci
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
	pytest tests/cluster/test_shuffle.py tests/cluster/test_netchaos.py \
		tests/cluster/test_coordinator_recovery.py -q

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
