# Development targets. `make quick` is the fast pre-commit gate; `make
# verify` is the full tier-1 gate (ROADMAP.md) plus static analysis, the
# gofmt gate, the race-enabled concurrency tests guarding the parallel
# experiment engine, and the uarch dispatch gate. `make profile`,
# `make profile-mcm` and `make profile-mrc` print CPU profiles of a
# monolithic cell, a multi-chip-module cell and two miss-rate sweeps.

GO ?= go

.PHONY: build vet fmt short test race quick verify noalloc uarch-gate smoke bench profile profile-mcm profile-mrc microbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The formatting gate: gofmt must have nothing to rewrite in any Go file git
# tracks or would track (ignored build and benchmark leftovers are skipped).
fmt:
	@bad=$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go')); \
	if [ -n "$$bad" ]; then \
		echo "gofmt would rewrite (run gofmt -w on them):"; echo "$$bad"; exit 1; \
	fi
	@echo "fmt: ok"

short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# The concurrency gate: race-enabled tests of every code path that runs on
# or feeds the worker-pool engine, plus the intra-simulation shard runner
# (internal/parallel's fork-join pool — its wait-ladder tests at GOMAXPROCS=1
# and with two pools oversubscribing two processors run here — and the
# sharded loop's randomized cross-shard stress cells, over SM groups and
# over chiplets, each with phase A always forked, forked by the production
# rule and always run inline on the coordinator, so shard state handed
# between worker and coordinator is raced too — see docs/PARALLELISM.md).
# The harness run is restricted to
# its concurrency tests (singleflight, pre-warm, progress) and the gpu run to
# the sharded stress/abort cells because the rest of those suites is
# sequential simulation that the race detector slows ~7x for no extra
# coverage; `go test -race ./internal/harness/ ./internal/gpu/` still passes
# if you want the whole packages raced. AllocsPerRun is unreliable under
# -race, so the zero-allocation guard for the disabled observability path
# runs as a separate non-race step (noalloc).
race: noalloc
	$(GO) test -race -short ./internal/engine/... ./internal/mrc/... ./internal/obs/... ./internal/parallel/... ./internal/server/... ./internal/uarch/...
	$(GO) test -race -short -run 'Singleflight|Prewarm|Parallel|ResultStore' ./internal/harness/
	$(GO) test -race -short -run 'TestGPUShardedRandomCrossTrafficStress|TestGPUShardedMaxCyclesAborts' ./internal/gpu/

# The zero-cost-when-disabled guard: with a nil observer the simulator hot
# path must not allocate — neither the observability hooks themselves nor a
# post-warm-up steady-state kernel run on a GPU or a multi-chiplet package
# (warp ticks, CTA launches, cache and MSHR traffic, first-touch page
# lookups, event-skip bookkeeping) — and a sharded run loop's phase, forked
# (Pool.Run) or inline (Pool.RunInline), must not either. Run without -race
# (see above).
noalloc:
	$(GO) test -run 'TestNilObserverNoAllocs' .
	$(GO) test -run 'TestNilHooksNoAllocs' ./internal/obs/
	$(GO) test -run 'TestPoolRunNoAllocs' ./internal/parallel/
	$(GO) test -run 'TestSteadyStateNoAllocs' ./internal/gpu/

# The repository benchmark (contract in BENCHMARK.json, method in
# bench/README.md): five workloads from SM tick to gpuscaled response bytes.
# Its own output checks fail the run; compare two result sets written with
# -out using `go run ./bench -compare old.json new.json`. Needs an idle
# host — do not build or test while it runs.
bench:
	$(GO) run ./bench

# Where the sequential loop spends host time: CPU-profile one cycle-mono
# cell (dct on the 128-SM target, a few seconds) and print the top of the
# profile — the starting point of a throughput PR. Binary and profile go to
# a temporary directory that is removed afterwards.
profile:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/gpusim ./cmd/gpusim && \
	$$d/gpusim -bench dct -sms 128 -cpuprofile $$d/cpu.prof >/dev/null && \
	$(GO) tool pprof -top -nodecount 30 $$d/gpusim $$d/cpu.prof

# The same for a multi-chip-module cell (cycle-mcm's chiplet/bfs/2c): MCM
# runs carry costs monolithic ones lack — the first-touch page map and
# remote hops — and park more wake-ups beyond the SM wake wheel.
profile-mcm:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/gpusim ./cmd/gpusim && \
	$$d/gpusim -bench bfs -chiplets 2 -cpuprofile $$d/cpu.prof >/dev/null && \
	$(GO) tool pprof -top -nodecount 30 $$d/gpusim $$d/cpu.prof

# Where a miss-rate-curve sweep spends host time: CPU-profile cmd/mrc on
# the suite's largest trace (bfs, 1.8 M accesses) and on a compute-bound one
# (ht) and print the top of each. The cache model (findWay, Access, touch)
# is expected to lead both; memTrace.replay's own share is the gather of
# the issue order, mrc.extract the one walk over the warp programs.
profile-mrc:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/mrc ./cmd/mrc && \
	for b in bfs ht; do \
		$$d/mrc -bench $$b -cpuprofile $$d/$$b.prof >/dev/null && \
		$(GO) tool pprof -top -nodecount 30 $$d/mrc $$d/$$b.prof || exit 1; \
	done

# The per-structure micro-benchmarks of the hot-path packages (sm: the
# pending-warp wake; cache: L1 access and the MSHR file; timing: the
# kernel's Step; sched: the wake wheel the SM and the kernel share), once
# each at a fixed iteration count, and one whole miss-rate curve per
# BenchmarkFunctionalSweep case (ht, bfs, dct; replays sequential and at the
# default bound): the nightly run keeps them compiling and running. For
# numbers, raise -benchtime and compare against a parent checkout. The
# shard pool's fork-join and the host's bare cross-core round trip run long
# enough to print a real ns/op: the second is the input internal/gpu's
# forkMinWork was derived from, so the nightly log tracks it.
# BenchmarkHandleCachedAnalytic is the daemon's cheapest answer (a stored
# analytic body through Handler, no loopback) and BenchmarkAnalyticPredict
# the analytic tier's model call (gpuscale.PredictAnalytic; each case also
# runs its cycle pipeline once for the speedup), both long enough for a
# real ns/op and allocs/op.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/sm/ ./internal/cache/ ./internal/timing/ ./internal/sched/
	$(GO) test -run '^$$' -bench 'PoolRun|CrossCoreRoundTrip' -benchtime 200000x ./internal/parallel/
	$(GO) test -run '^$$' -bench FunctionalSweep -benchtime 1x ./internal/mrc/
	$(GO) test -run '^$$' -bench HandleCachedAnalytic -benchtime 20000x ./internal/server/
	$(GO) test -run '^$$' -bench AnalyticPredict -benchtime 2000x .

# Every switch dispatching over uarch variant values ("case uarch.X") must
# carry a panicking default, so adding a new variant axis value fails loudly
# at every dispatch site instead of silently simulating the baseline.
# Validation lives in internal/uarch (whose own unqualified switches return
# errors and are exempt); dispatch sites validate first and treat an
# unmatched value as unreachable.
uarch-gate:
	@bad=$$(grep -rlE 'case uarch\.' cmd/ examples/ internal/ *.go 2>/dev/null \
	| grep -v '^internal/uarch/' | sort | xargs -r awk ' \
		FNR == 1 { sp = 0 } \
		{ n = 0; while (substr($$0, n + 1, 1) == "\t") n++ } \
		$$0 ~ /^\t*switch[ {]/ { sp++; ind[sp] = n; swline[sp] = FNR; swfile[sp] = FILENAME; hasuarch[sp] = hasdef[sp] = haspanic[sp] = 0; next } \
		sp > 0 && $$0 ~ /^\t*case uarch\./ && n == ind[sp] { hasuarch[sp] = 1 } \
		sp > 0 && $$0 ~ /^\t*default:/ && n == ind[sp] { hasdef[sp] = 1 } \
		sp > 0 && /panic\(/ { haspanic[sp] = 1 } \
		sp > 0 && $$0 ~ /^\t*}$$/ && n == ind[sp] { \
			if (hasuarch[sp] && !(hasdef[sp] && haspanic[sp])) printf "%s:%d: switch over uarch variant values without a panicking default\n", swfile[sp], swline[sp]; \
			sp-- } \
	'); \
	if [ -n "$$bad" ]; then \
		echo "uarch dispatch switches must panic in default (validate first; see docs/UARCH.md):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "uarch-gate: ok"

# The daemon smoke test: boots an in-process gpuscaled, round-trips a
# /v1/predict twice, and asserts the byte-identical cache hit, the
# /metrics counters, and a clean shutdown (see docs/SERVICE.md).
smoke:
	$(GO) run ./cmd/gpuscaled -smoke

quick: build vet fmt race short uarch-gate smoke

verify: build vet fmt race test uarch-gate smoke
