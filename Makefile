# Convenience entry points; everything is plain dune underneath.

.PHONY: all build check fmt test bench bench-place bench-place-smoke \
	bench-model-smoke bench-faults bench-trace \
	bench-sched bench-sim bench-sim-smoke \
	bench-scale bench-watch \
	bench-diff perfbench clean

all: build

# Smoke benchmarks write their JSON here, never over the committed
# BENCH_*_smoke.json references in the repository root, which
# bench-diff compares them against.  To refresh a reference, copy the
# smoke output over it.
SMOKE_DIR ?= /tmp

build:
	dune build @all

# Gate on ocamlformat being installed: CI images without it still get
# a meaningful `make check` (build + tests).
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

test:
	dune runtest

# The one-stop pre-commit gate.  `test` is tier-1.  It diffs every
# cell of the paper's tables (Tables 2-4, Figs. 11-12, MLP, isolation)
# against the committed test/paper.expected: a change that moves the
# model shows the moved cells as a diff, `dune promote` accepts them,
# and the diff goes in the change's description.  test_paper checks
# EXPERIMENTS.md's tables against the same rows.  It also carries
# every property check of the runtime and serving stack: among them
# test_sysim's "closed accounting" (zero lost tasks under a
# single-crash plan, trace counts closing), test_sched's "autoscaled
# tail vs static", "datacenter shape at 1k nodes" (the pinned serving
# digest and fair-share isolation) and "preemption vs shed-only",
# test_core's defrag "churn week", test_watch's telemetry scenarios
# (bit-identical results, outage detection, burn-rate firing) and
# test_serve's front-door scenarios (trace round-trip and replay,
# mapping cache, sessions, predictive vs reactive autoscaling).
# test_sysim's "serving run allocation" gates the exact minor words
# of a warm set-8 serving run and of a serve_steady-shaped one (the
# serving hot path's allocation), its "registry build allocation"
# bounds one registry build at 4.0 M words (3.76 M since one compile
# session shares the tile-independent modules across the ten
# instances) and requires a second build in the process to allocate
# within 3% of the first, so a compile cache that outlives its build
# fails, and "moved replicas serve again"
# pins runs whose moved replicas serve again.  The
# three smoke benchmarks are speed checks: bench-place-smoke keeps the
# indexed placement engine no slower than the test-side snapshot-scan
# oracle (test/oracle/placement.ml), bench-sim-smoke keeps the
# timing wheel no slower than the heap reference engine
# (test/oracle/heap_sim.ml) on a dense backlog, and runs a sparse one,
# and bench-model-smoke keeps the scale-out service model's kernels no
# slower than the reference reorderer and timing interpreter
# (test/oracle/reorder_oracle.ml, test/oracle/perf_oracle.ml);
# their differential correctness parts are also tier-1 (test_place
# "differential", test_sim_engine "random stream differential" and
# "sparse and edge-case streams", test_scale_out "reorder" and
# test_accel's interpreter property).  bench-diff compares the smoke
# outputs against the committed smoke artifacts to catch
# order-of-magnitude throughput cliffs, the sparse engine's included.
check: build fmt test bench-place-smoke bench-sim-smoke bench-model-smoke bench-diff

# Regenerates every table/figure; writes no observability dump.
# `dune exec bench/main.exe -- --obs-out FILE` also writes the run's
# observability registry (counters, histograms, spans) as JSON.
bench:
	dune exec bench/main.exe

# Placement-churn microbenchmark (paper §2.3 system controller at
# fleet scale): 1k-node heterogeneous cluster, asserts the indexed
# engine's deploy throughput is ≥5× the search of the snapshot-scan
# placement oracle (test/oracle/placement.ml), replayed over the same
# churn, and that the two place every deploy identically.
bench-place:
	dune exec bench/place.exe -- --nodes 1000 --ops 4000 --assert-speedup 5

# Small, fast configuration for `make check`: same differential churn,
# only asserts the index is not slower than the oracle's scan.
bench-place-smoke:
	dune exec bench/place.exe -- --nodes 64 --ops 400 \
	  --out $(SMOKE_DIR)/BENCH_place_smoke.json --assert-speedup 1

# Scale-out service-model kernels: Scale_out.plan plus the timing
# interpreter over the 30 (point, parts) plans the Fig. 12 open
# loop reaches, timed against the reference reorderer and timing
# interpreter; exits 1 unless every reordered program is byte-equal
# and every latency bit-equal to the references, and asserts the
# kernels are not slower.  About two seconds, nearly all of it the
# references.
bench-model-smoke:
	dune exec bench/model.exe -- --out $(SMOKE_DIR)/BENCH_model_smoke.json \
	  --assert-speedup 1

# Availability sweep under injected node faults; writes
# BENCH_faults.json (per-scenario completed/retried/rejected/lost and
# fault-free throughput).
bench-faults:
	dune exec bench/main.exe -- faults

# Faulted run with lifecycle tracing on: writes BENCH_trace.json (a
# Chrome/Perfetto trace) and asserts tracing does not perturb the
# simulated results.
bench-trace:
	dune exec bench/main.exe -- trace

# Elastic serving comparison on a bursty trace: static provisioning vs
# the closed autoscaler loop; writes BENCH_sched.json (p99 sojourn,
# goodput, sheds and scaling activity per mode).
bench-sched:
	dune exec bench/main.exe -- sched

# Discrete-event engine microbenchmark: 1M events through the
# timing-wheel engine (Sim) and the binary-heap reference engine
# (test/oracle/heap_sim.ml) behind the same interface; asserts the
# order digests are bit-identical and the wheel is ≥10× faster, and
# writes BENCH_sim.json (events/s, allocation words/event, gap
# percentiles).
bench-sim:
	dune exec bench/sim.exe -- --assert-speedup 10

# Fast variant for `make check`: same bit-identity assertion, only
# requires the wheel not be slower than the heap (wall-clock ratios on
# a shared machine are too noisy for a tight bound at this size).  A
# second, sparse run (8 pending events, 5 ms mean delay: most 1 µs
# buckets empty, as in the serving workloads) checks the same
# bit-identity; the wheel is only at parity with the heap there, so
# its speed is left to bench-diff.
bench-sim-smoke:
	dune exec bench/sim.exe -- --events 100000 --pending 20000 --reps 2 \
	  --out $(SMOKE_DIR)/BENCH_sim_smoke.json --assert-speedup 1
	dune exec bench/sim.exe -- --events 100000 --pending 8 \
	  --mean-delay-us 5000 --reps 2 \
	  --out $(SMOKE_DIR)/BENCH_sim_sparse_smoke.json

# Datacenter-scale serving benchmark: ~1M tasks from three tenants at
# 10k nodes (serving-loop throughput), a 100k-node run (sub-quadratic
# scaling), and the calm/bursty tenant-isolation pair behind the
# weighted fair-share pool; writes BENCH_scale.json.
bench-scale:
	dune exec bench/scale.exe -- --out BENCH_scale.json

# Streaming-telemetry overhead: the scrape loop's wall cost on a dense
# serving workload (asserted ≤5%, median of paired off/on runs);
# writes BENCH_watch.json.  Detection latency, false positives and
# burn-rate firing are tier-1 (test_watch "sysim").
bench-watch:
	dune exec bench/watch.exe -- --out BENCH_watch.json

# Regression guard: compare the smoke outputs' throughput-like keys
# against the committed smoke artifacts (the smoke targets run first,
# once each).  Wall-clock keys (deploys/s, events/s, instrs/s) get a 75% budget —
# short runs on a shared machine, especially back-to-back inside
# `make check`, routinely swing 2×; the guard is for
# order-of-magnitude cliffs (an accidentally quadratic path), not
# percent-level noise.  The speedups (indexed over oracle, wheel over
# heap, service-model kernels over their references) are ratios of two engines timed on the same host, so a slow
# host moves them far less than a code regression does; they get a
# 50% budget.
bench-diff: bench-place-smoke bench-sim-smoke bench-model-smoke
	dune exec bench/benchdiff.exe -- --ref BENCH_place_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_place_smoke.json --key indexed.deploys_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_place_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_place_smoke.json --key speedup --max-regress 50
	dune exec bench/benchdiff.exe -- --ref BENCH_sim_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_sim_smoke.json --key wheel.events_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_sim_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_sim_smoke.json --key speedup --max-regress 50
	dune exec bench/benchdiff.exe -- --ref BENCH_sim_sparse_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_sim_sparse_smoke.json --key wheel.events_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_sim_sparse_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_sim_sparse_smoke.json --key speedup \
	  --max-regress 50
	dune exec bench/benchdiff.exe -- --ref BENCH_model_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_model_smoke.json --key production.instrs_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_model_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_model_smoke.json --key speedup --max-regress 50

# The repository benchmark (perfbench/README.md): every workload in
# BENCHMARK.json, seed 1, 20 s of fresh processes each; prints each
# workload's metrics as one JSON line.  A few minutes; not part of
# `make check`.
perfbench:
	for w in fig12_open serve_steady serve_contended; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 \
	    || exit 1; \
	done

clean:
	dune clean
