# Convenience entry points; everything is plain dune underneath.

.PHONY: all build check fmt test bench bench-place bench-place-smoke \
	bench-faults bench-faults-smoke bench-trace bench-trace-smoke \
	bench-sched bench-sched-smoke bench-sim bench-sim-smoke \
	bench-scale bench-scale-smoke bench-defrag bench-defrag-smoke \
	bench-watch bench-watch-smoke bench-serve bench-serve-smoke \
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

# The one-stop pre-commit gate.  bench-place-smoke keeps the indexed
# placement engine honest (it must never regress below the naive scan)
# without the cost of the full 1k-node run; bench-faults-smoke asserts
# zero lost tasks under a single-crash fault plan; bench-trace-smoke
# asserts the lifecycle-trace export is valid JSON whose event counts
# close against the run's own accounting; bench-sched-smoke asserts the
# autoscaled serving loop never regresses the static p99 and that every
# request is accounted for; bench-sim-smoke asserts the timing-wheel
# engine fires events in the same order as the heap reference engine
# (test/oracle/heap_sim.ml) and is at least as fast; bench-scale-smoke
# asserts the serving run reproduces its pinned result digest, that
# the fair-share pool preserves a calm tenant's SLO-met completions
# under a bursty neighbour, and that the incremental router/batcher
# counters are allocation-free; bench-defrag-smoke asserts the defragmenter lowers
# the fragmentation index and raises large-deployment admission on a
# churn trace, that the bitstream cache hits, and that priority
# preemption does not lower the priority tenant's goodput;
# bench-watch-smoke asserts telemetry leaves every simulated result
# bit-identical, detects each injected outage within two scrape
# intervals with zero false positives on the fault-free run, and that
# a burn-rate rule fires on a tenant burning its SLO budget;
# bench-serve-smoke asserts the front door round-trips recorded traces
# bit-exactly, that a neutral front door and a zero-cost mapping cache
# leave results bit-identical, that the cache clears 90% hits on a
# repeat-heavy trace, that session accounting closes, and that the
# predictive autoscaler beats the reactive one on the same replayed
# flash-crowd trace (with a determinism re-run); bench-diff compares
# the smoke outputs against the committed smoke artifacts to catch
# order-of-magnitude throughput cliffs.
check: build fmt test bench-place-smoke bench-faults-smoke bench-trace-smoke \
	bench-sched-smoke bench-sim-smoke bench-scale-smoke bench-defrag-smoke \
	bench-watch-smoke bench-serve-smoke bench-diff

# Regenerates every table/figure and leaves BENCH_obs.json (the
# observability registry of the run) next to the console output.
bench:
	dune exec bench/main.exe

# Placement-churn microbenchmark (paper §2.3 system controller at
# fleet scale): 1k-node heterogeneous cluster, asserts the indexed
# engine's deploy throughput is ≥5× the naive snapshot scan.
bench-place:
	dune exec bench/place.exe -- --nodes 1000 --ops 4000 --assert-speedup 5

# Small, fast configuration for `make check`: same differential churn,
# only asserts the index is not slower than the scan.
bench-place-smoke:
	dune exec bench/place.exe -- --nodes 64 --ops 400 \
	  --out $(SMOKE_DIR)/BENCH_place_smoke.json --assert-speedup 1

# Availability sweep under injected node faults; writes
# BENCH_faults.json (per-scenario completed/retried/rejected/lost and
# fault-free throughput).
bench-faults:
	dune exec bench/main.exe -- faults

# Fast single-crash variant for `make check`: exits non-zero if any
# task is lost or the availability accounting does not add up.
bench-faults-smoke:
	dune exec bench/main.exe -- faults-smoke

# Faulted run with lifecycle tracing on: writes BENCH_trace.json (a
# Chrome/Perfetto trace) and asserts tracing does not perturb the
# simulated results.
bench-trace:
	dune exec bench/main.exe -- trace

# Fast variant for `make check`: valid-JSON export + closed lifecycle
# accounting (arrive/complete/reject/retry deltas match the run).
bench-trace-smoke:
	dune exec bench/main.exe -- trace-smoke

# Elastic serving comparison on a bursty trace: static provisioning vs
# the closed autoscaler loop; writes BENCH_sched.json (p99 sojourn,
# goodput, sheds and scaling activity per mode).
bench-sched:
	dune exec bench/main.exe -- sched

# Fast variant for `make check`: accounting closes, the run is
# deterministic, and the autoscaled p99 does not exceed the static p99.
bench-sched-smoke:
	dune exec bench/main.exe -- sched-smoke

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
# a shared machine are too noisy for a tight bound at this size).
bench-sim-smoke:
	dune exec bench/sim.exe -- --events 100000 --pending 20000 --reps 2 \
	  --out $(SMOKE_DIR)/BENCH_sim_smoke.json --assert-speedup 1

# Datacenter-scale serving benchmark: ~1M tasks from three tenants at
# 10k nodes (serving-loop throughput), a 100k-node run (sub-quadratic
# scaling), and the calm/bursty tenant-isolation pair behind the
# weighted fair-share pool; writes BENCH_scale.json.
bench-scale:
	dune exec bench/scale.exe -- --out BENCH_scale.json

# Fast variant for `make check`: 1k nodes / 24k tasks; asserts the
# serving run's pinned result digest, the tenant-isolation invariant,
# and allocation-free counters — no wall-clock floor at this size.
bench-scale-smoke:
	dune exec bench/scale.exe -- --smoke --out $(SMOKE_DIR)/BENCH_scale_smoke.json

# Defragmentation / preemption / bitstream-cache benchmark: a one-week
# deploy/undeploy churn trace with and without the background
# defragmenter (fragmentation index + whole-device admission rate +
# cache hit rate), plus a contended serving trace comparing priority
# preemption against shed-only; writes BENCH_defrag.json.  All
# acceptance inequalities are asserted, plus a determinism re-run.
bench-defrag:
	dune exec bench/defrag.exe -- --out BENCH_defrag.json

# Fast variant for `make check`: 2k churn steps / 30 tasks per tenant,
# same assertions.
bench-defrag-smoke:
	dune exec bench/defrag.exe -- --smoke --out $(SMOKE_DIR)/BENCH_defrag_smoke.json

# Streaming-telemetry benchmark: alert detection latency on injected
# outage windows, false positives on a fault-free trace, burn-rate
# firing on an overloaded tenant, and the scrape loop's wall overhead
# on a dense serving workload (asserted ≤5%, median of paired off/on
# runs); writes BENCH_watch.json.
bench-watch:
	dune exec bench/watch.exe -- --out BENCH_watch.json

# Fast variant for `make check`: same bit-identity, detection-latency
# and false-positive assertions; reports overhead without asserting it
# (short runs are wall-clock noise).
bench-watch-smoke:
	dune exec bench/watch.exe -- --smoke --out $(SMOKE_DIR)/BENCH_watch_smoke.json

# Serving front-door benchmark: trace record/replay round-trip
# fidelity, mapping-cache hit rate and latency economics, session
# stickiness/expiry accounting, and reactive-vs-predictive
# autoscaling on one replayed flash-crowd trace; writes
# BENCH_serve.json.  All acceptance inequalities are asserted, plus a
# determinism re-run.
bench-serve:
	dune exec bench/serve.exe -- --out BENCH_serve.json

# Fast variant for `make check`: 400 tasks, same assertions.
bench-serve-smoke:
	dune exec bench/serve.exe -- --smoke --out $(SMOKE_DIR)/BENCH_serve_smoke.json

# Regression guard: compare the smoke outputs' throughput-like keys
# against the committed smoke artifacts (the smoke targets run first,
# once each).  Wall-clock keys (deploys/s, events/s, tasks/s) get a 75% budget —
# short runs on a shared machine, especially back-to-back inside
# `make check`, routinely swing 2×; the guard is for
# order-of-magnitude cliffs (an accidentally quadratic path), not
# percent-level noise.  The serve key is goodput on the *sim* clock,
# fully deterministic, so it gets a tight 1% budget.
bench-diff: bench-place-smoke bench-sim-smoke bench-scale-smoke \
	bench-serve-smoke
	dune exec bench/benchdiff.exe -- --ref BENCH_place_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_place_smoke.json --key indexed.deploys_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_sim_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_sim_smoke.json --key wheel.events_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_scale_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_scale_smoke.json --key indexed.tasks_per_s \
	  --max-regress 75
	dune exec bench/benchdiff.exe -- --ref BENCH_serve_smoke.json \
	  --new $(SMOKE_DIR)/BENCH_serve_smoke.json --key predictive.goodput_per_s \
	  --max-regress 1

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
