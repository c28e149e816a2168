METRICS := /tmp/e2e_sched_metrics.jsonl
PAR_METRICS := /tmp/e2e_sched_metrics_par.jsonl
PAR_A := /tmp/e2e_sched_fig9a_j1.txt
PAR_B := /tmp/e2e_sched_fig9a_j4.txt
FUZZ_A := /tmp/e2e_sched_fuzz_j1.txt
FUZZ_B := /tmp/e2e_sched_fuzz_j4.txt
SERVE_A := /tmp/e2e_sched_serve_j1.txt
SERVE_B := /tmp/e2e_sched_serve_j4.txt
SERVE_P := /tmp/e2e_sched_serve_pipe.txt
CONC_A := /tmp/e2e_sched_conc_j1
CONC_B := /tmp/e2e_sched_conc_j4
CONC_D := /tmp/e2e_sched_conc_d4
CONC_CONNS := 4
CLUS_A := /tmp/e2e_sched_clus_j1
CLUS_B := /tmp/e2e_sched_clus_j4
CLUS_C := /tmp/e2e_sched_clus_k2
CLUS_CONNS := 4
SOAK_A := /tmp/e2e_sched_soak_self.txt
SOAK_B := /tmp/e2e_sched_soak_cluster.txt
CORE_SMOKE := /tmp/e2e_sched_bench_core_small.json
TRACE_A := /tmp/e2e_sched_trace_j1.jsonl
TRACE_B := /tmp/e2e_sched_trace_j4.jsonl
TRACE_SUM := /tmp/e2e_sched_trace_summary.txt
TRACE_LG := /tmp/e2e_sched_trace_loadgen.json
JOBS ?= 4
# full = sizes 10..5000 with 7 trimmed trials; small = the CI smoke
# configuration (sizes 10 and 100 only).
BENCH_TRIALS ?= full

.PHONY: all build test bench bench-par bench-serve bench-core bench-cluster \
  fuzz-smoke fuzz-inc serve-smoke serve-conc-smoke cluster-smoke trace-smoke \
  check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Sequential-vs-parallel wall-clock on the fig9/fig10 Monte Carlo
# sweeps, written to BENCH_parallel.json (speedup > 1 needs real cores).
bench-par:
	dune exec bench/main.exe -- --parallel BENCH_parallel.json --jobs $(JOBS)

# Fixed-seed load-generator run against the in-process admission
# service: requests/sec, latency percentiles, the solver cache hit
# rate, a full-transport saturation sweep (connections x batch over
# the concurrent TCP server), and a drainer-stripe scaling sweep (the
# seed-then-resubmit workload over a working set ~3x one stripe's
# solver cache: striping the queue by shop multiplies aggregate cache
# capacity, so 4 drainers hold the working set while 1 thrashes),
# written to BENCH_serve.json.
bench-serve:
	dune exec bin/loadgen.exe -- --requests 8000 --seed 42 -j $(JOBS) \
	  --cache-sweep 128,512,4096 \
	  --sat-connections 1,2,4,8 --sat-batch 16,64 \
	  --drainer-sweep 1,2,4 --connections 4 --pipeline 8 \
	  --cluster-shops 96 --cache 128 \
	  --out BENCH_serve.json

# Tracked hot-path micro-benchmarks: the indexed single-machine engine
# against the retained scan-based reference (the speedup ratio is part
# of the output), Algorithms A and H, and the admission request path,
# written to BENCH_core.json.
bench-core:
	dune exec bench/core_bench.exe -- --trials $(BENCH_TRIALS) \
	  --out BENCH_core.json

# Shard-count scaling sweep over the cluster transport: 1, 2 and 4
# in-process shards behind the dispatcher on the seed-then-resubmit
# workload (permuted resubmissions over a working set ~3x one shard's
# solver cache), written to tracked BENCH_cluster.json.  The headline
# number is the 1 -> 4 shard aggregate-throughput ratio: sticky routing
# gives each shard only its own shops, so four shards hold the whole
# working set in cache while one shard thrashes and re-solves.
# The upstream sweep rides along: a 1-shard cluster on a cache-resident
# workload at 1, 2 and 4 pipelined upstream connections per shard,
# recorded in the same file (lanes relieve head-of-line blocking on the
# dispatcher<->shard hop, not shard compute, so no ratio is asserted).
bench-cluster:
	dune exec bin/loadgen.exe -- --cluster-sweep 1,2,4 --connections 4 \
	  --pipeline 8 --requests 8000 --cluster-shops 96 --cache 128 --seed 42 \
	  --upstream-sweep 1,2,4 \
	  --out BENCH_cluster.json
	dune exec bin/jsonl_check.exe -- --bench-cluster BENCH_cluster.json

# Replay the full-grammar request fixture through the stdio transport on
# 1 and 4 domains, and once more through a pipe (the co-process path):
# every reply log must match the committed golden replies byte for
# byte (so a codec that drifts from the pinned reply bytes fails, not
# only one that differs across -j) and contain admitted verdicts.  The
# pipe replay cuts the file replay's chunks only if the whole fixture is
# in the pipe before the reader drains it: keep the fixture under
# PIPE_BUF (4 KiB), so cat's one write is atomic.
serve-smoke:
	rm -f $(SERVE_A) $(SERVE_B) $(SERVE_P)
	dune exec bin/serve.exe -- --stdio -j 1 \
	  < test/serve_smoke_requests.txt > $(SERVE_A)
	dune exec bin/serve.exe -- --stdio -j 4 \
	  < test/serve_smoke_requests.txt > $(SERVE_B)
	cat test/serve_smoke_requests.txt | dune exec bin/serve.exe -- --stdio > $(SERVE_P)
	cmp $(SERVE_A) test/golden/serve_smoke_replies.txt
	cmp $(SERVE_A) $(SERVE_B)
	cmp $(SERVE_P) test/golden/serve_smoke_replies.txt
	grep -q '^pong ' $(SERVE_A)
	grep -q '^admitted ' $(SERVE_A)
	grep -q '^rejected ' $(SERVE_A)
	grep -q '^metrics ' $(SERVE_A)

# The concurrent transport determinism smoke: $(CONC_CONNS) pipelined
# client domains against an embedded multi-domain TCP server on 1 and 4
# worker domains, then again with the queue striped over 4 drainer
# domains.  Every connection's reply log must be byte-identical across
# domain counts AND stripe counts (disjoint per-connection shop
# namespaces) and contain admitted verdicts.  A one-second soak run
# (--duration) against the same embedded server must exit cleanly and
# print at least one latency snapshot.
serve-conc-smoke:
	rm -f $(CONC_A).conn* $(CONC_B).conn* $(CONC_D).conn* $(SOAK_A)
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 \
	  --reply-log $(CONC_A) > /dev/null
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 4 \
	  --reply-log $(CONC_B) > /dev/null
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 --drainers 4 \
	  --reply-log $(CONC_D) > /dev/null
	for i in $$(seq 0 $$(( $(CONC_CONNS) - 1 ))); do \
	  cmp $(CONC_A).conn$$i $(CONC_B).conn$$i || exit 1; \
	  cmp $(CONC_A).conn$$i $(CONC_D).conn$$i || exit 1; \
	  grep -q '^admitted ' $(CONC_A).conn$$i || exit 1; \
	done
	dune exec bin/loadgen.exe -- --self-serve --connections $(CONC_CONNS) \
	  --pipeline 16 --seed 42 --duration 1 > $(SOAK_A)
	grep -q '^soak +' $(SOAK_A)

# The cluster transport smoke: 2 in-process shards behind the
# dispatcher, $(CLUS_CONNS) pipelined clients.  Every connection's
# reply log must be byte-identical across shard worker-domain counts
# AND across upstream lane counts (sticky routing keeps each shop's
# history on one shard, sticky lanes keep each client's shard traffic
# on one upstream connection, and the dispatcher preserves
# per-connection reply order across shards), then the failover check —
# single-lane and widened — kills a shard mid-burst and asserts every
# request is answered, traffic re-routes to the survivor, and the
# restarted shard is re-admitted by the status checker.  A one-second
# soak run against 2 embedded shards must exit cleanly and print at
# least one latency snapshot.
cluster-smoke:
	rm -f $(CLUS_A).conn* $(CLUS_B).conn* $(CLUS_C).conn* $(SOAK_B)
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 \
	  --reply-log $(CLUS_A) > /dev/null
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 4 \
	  --reply-log $(CLUS_B) > /dev/null
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --requests 800 --seed 42 -j 1 --upstream-conns 2 \
	  --reply-log $(CLUS_C) > /dev/null
	for i in $$(seq 0 $$(( $(CLUS_CONNS) - 1 ))); do \
	  cmp $(CLUS_A).conn$$i $(CLUS_B).conn$$i || exit 1; \
	  cmp $(CLUS_A).conn$$i $(CLUS_C).conn$$i || exit 1; \
	  grep -q '^admitted ' $(CLUS_A).conn$$i || exit 1; \
	done
	dune exec bin/loadgen.exe -- --failover-check --seed 42
	dune exec bin/loadgen.exe -- --failover-check --seed 42 --upstream-conns 2
	dune exec bin/loadgen.exe -- --spawn-shards 2 --connections $(CLUS_CONNS) \
	  --pipeline 16 --seed 42 --duration 1 > $(SOAK_B)
	grep -q '^soak +' $(SOAK_B)

# Fixed-seed traced load-generator run under the deterministic clock on
# 1 and 4 domains: the request-trace JSONL must be byte-identical across
# domain counts, pass schema validation (stage order, non-negative
# durations, stage sums tiling end-to-end), and its e2e-trace analysis
# must match the committed golden summary byte-for-byte.
trace-smoke:
	rm -f $(TRACE_A) $(TRACE_B) $(TRACE_SUM)
	dune exec bin/loadgen.exe -- --requests 200 --seed 42 -j 1 \
	  --det-clock --trace $(TRACE_A) --out $(TRACE_LG) > /dev/null
	dune exec bin/loadgen.exe -- --requests 200 --seed 42 -j 4 \
	  --det-clock --trace $(TRACE_B) --out $(TRACE_LG) > /dev/null
	cmp $(TRACE_A) $(TRACE_B)
	dune exec bin/jsonl_check.exe -- --trace $(TRACE_A)
	dune exec bin/trace.exe -- analyze $(TRACE_A) > $(TRACE_SUM)
	cmp $(TRACE_SUM) test/golden/trace_summary.txt

# Short differential-fuzzing campaign over every model class (including
# eedf-fast, which pits the indexed single-machine engine against the
# retained scan-based reference on larger instances, eedf-inc, which
# grows shops through the warm solver handle and re-solves with the
# reference after every extension, and codec, which pits the
# protocol's single-pass scanner and buffer renderer against the
# retained Format/Printf reference codec): each solver
# against its oracle and the independent checker, on a fixed seed, run
# on 1 and 4 domains — any disagreement or any scheduling
# nondeterminism (output not byte-identical) fails the target.  Full
# campaigns: dune exec bin/fuzz.exe -- --trials 2000.
fuzz-smoke:
	rm -f $(FUZZ_A) $(FUZZ_B)
	dune exec bin/fuzz.exe -- --class all --trials 300 --seed 42 -j 1 > $(FUZZ_A)
	dune exec bin/fuzz.exe -- --class all --trials 300 --seed 42 -j 4 > $(FUZZ_B)
	cmp $(FUZZ_A) $(FUZZ_B)

# Deep campaign on the warm-handle differential alone: every trial
# grows a shop from one instance by deterministic extensions, comparing
# regions, schedules and feasibility verdicts after every extension
# with the scan-based reference (they must agree exactly).
fuzz-inc:
	dune exec bin/fuzz.exe -- --class eedf-inc --trials 2000 --seed 7 -j 4

# Build, run the test suite, then smoke-test the telemetry pipeline
# (regenerate one paper artifact with --metrics and validate the file as
# JSONL), the parallel engine (the same sweep on 1 and 4 domains must
# be byte-identical, and metrics collected under -j 4 must still be
# well-formed JSONL), the differential fuzzer and the admission service
# (stdio transport, -j 1 vs -j 4 byte-compare).
check:
	dune build
	dune runtest
	rm -f $(METRICS) $(PAR_METRICS) $(PAR_A) $(PAR_B)
	dune exec bin/experiments.exe -- table1 --metrics $(METRICS)
	dune exec bin/jsonl_check.exe $(METRICS)
	dune exec bin/experiments.exe -- fig9a --trials 120 -j 1 > $(PAR_A)
	dune exec bin/experiments.exe -- fig9a --trials 120 -j 4 > $(PAR_B)
	cmp $(PAR_A) $(PAR_B)
	dune exec bin/experiments.exe -- fig9a --trials 120 -j 4 --metrics $(PAR_METRICS) > /dev/null
	dune exec bin/jsonl_check.exe $(PAR_METRICS)
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-inc
	$(MAKE) serve-smoke
	$(MAKE) serve-conc-smoke
	$(MAKE) cluster-smoke
	$(MAKE) trace-smoke
	dune exec bench/core_bench.exe -- --trials small --out $(CORE_SMOKE)
	dune exec bin/jsonl_check.exe $(CORE_SMOKE)
	dune exec bin/jsonl_check.exe -- --bench-cluster BENCH_cluster.json

clean:
	dune clean
	rm -f $(METRICS) $(PAR_METRICS) $(PAR_A) $(PAR_B) $(FUZZ_A) $(FUZZ_B) \
	  $(SERVE_A) $(SERVE_B) $(SERVE_P) $(CONC_A).conn* $(CONC_B).conn* $(CONC_D).conn* \
	  $(CORE_SMOKE) $(CLUS_A).conn* $(CLUS_B).conn* $(CLUS_C).conn* \
	  $(TRACE_A) $(TRACE_B) $(TRACE_SUM) \
	  $(TRACE_LG) $(SOAK_A) $(SOAK_B) BENCH_parallel.json
