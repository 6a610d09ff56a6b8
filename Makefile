GO ?= go

.PHONY: build test race fuzz cover bench smoke serve sweep motion strategies \
	parallel vet fmt doclint observability benchgate benchgate-quick bench-baseline ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails the build on any file gofmt would rewrite.
fmt:
	test -z "$$(gofmt -l .)"

# doclint fails the build on any exported identifier without a godoc
# comment (see cmd/doclint).
doclint:
	$(GO) run ./cmd/doclint .

# race runs the concurrency-sensitive suites (parallel sweeps, shared
# world state, golden serial-vs-parallel determinism, per-trial observers
# under concurrent sweeps, mid-run cancellation) under the race detector,
# plus the full service suite — the daemon's queue/pool/cache interlock
# is the most concurrent code in the repo.
race:
	$(GO) test -race . ./internal/... -run 'Race|Determinism'
	$(GO) test -race ./internal/serve/...
	$(GO) test -race ./internal/dsweep/
	$(GO) test -race ./internal/motion/
	$(GO) test -race ./internal/mobility/ ./internal/routing/

# fuzz gives each fuzzer a short budget; go test accepts one -fuzz
# target per invocation, hence one run per target.
fuzz:
	$(GO) test -fuzz=FuzzScenarioJSON -fuzztime=5s ./internal/scenario/
	$(GO) test -fuzz=FuzzScenarioFingerprint -fuzztime=5s ./internal/scenario/
	$(GO) test -fuzz=FuzzSeedDerive -fuzztime=5s ./internal/sweep/
	$(GO) test -fuzz=FuzzSchedulerOps -fuzztime=5s ./internal/sim/
	$(GO) test -fuzz=FuzzCheckpointManifest -fuzztime=5s ./internal/dsweep/
	$(GO) test -fuzz=FuzzGridOps -fuzztime=5s ./internal/spatial/
	$(GO) test -fuzz=FuzzRows -fuzztime=5s ./internal/spatial/
	$(GO) test -fuzz=FuzzSeenSet -fuzztime=5s ./internal/netsim/

# cover enforces per-package coverage floors on the packages whose
# correctness burden is a test suite rather than a golden run: the seed
# derivation, the service HTTP surface, and the distributed sweep
# fabric. Floors sit just below current coverage so any substantial
# untested addition fails here. The scheduler and world floors guard the
# event queue and the struct-of-arrays and data-parallel round paths:
# they are exercised almost entirely by tests (the determinism battery),
# so a coverage drop there means an unpinned path. The radio floor guards
# the medium's broadcast paths, pinned against Broadcast by its
# differential tests. The scenario floor guards submit-time validation:
# Load must reject whatever Build would. The experiments floor guards the
# trial engine every Monte-Carlo driver runs through, pinned by the
# per-driver output digests and the interrupt-and-resume table. The
# figures floor guards the CLI's table renderer and CSV writer, pinned by
# the per-file CSV digests.
COVER_FLOORS = repro/internal/sweep:88 repro/internal/serve:83 repro/internal/dsweep:80 \
	repro/internal/sim:97 repro/internal/netsim:82 repro/internal/radio:95.5 \
	repro/internal/scenario:92.1 repro/internal/experiments:89 repro/cmd/imobif-figures:65

cover:
	@for spec in $(COVER_FLOORS); do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; exit 1; fi; \
		if [ "$$(echo "$$pct $$floor" | awk '{print ($$1 >= $$2)}')" != 1 ]; then \
			echo "cover: $$pkg coverage $$pct% below floor $$floor%"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
	done

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The benchmarks gated against bench_baseline.txt. Three samples absorb
# scheduler jitter; benchgate compares best-vs-best per metric. Only the
# disabled MotionOverhead rungs are gated — they pin the
# zero-cost-when-off contract; the active rungs run to the horizon and
# are too slow (and too scenario-dependent) for a ratchet. The retry
# FaultOverhead rungs pin the allocation-free retry/ack transport; the
# SpatialRows rung pins the allocation-free rebuild of neighbor rows. The
# ServedJob rung pins a served-shaped job and its beacon-scans/op work
# count, which benchgate gates exactly.
GATED_BENCH = BenchmarkSimulationRun$$|BenchmarkSchedulerSteadyState$$|BenchmarkSweep/|BenchmarkServeSubmit$$|BenchmarkMotionOverhead/(off|stationary)$$|BenchmarkStrategyOverhead/|BenchmarkWorld100k/n5k|BenchmarkServedJob$$|BenchmarkFaultOverhead/(retry|lossy-retry)$$|BenchmarkSpatialRows/n100k$$
GATE_FLAGS  = -run '^$$' -benchmem -count=3

# GATE_BENCH_RUN emits the full gated corpus: the multi-count gated set
# plus a single sample of the headline 100k-node rung, which is too slow
# for count=3 but must stay pinned in the baseline — benchgate fails on baseline entries missing from a run, so
# every gate invocation reruns it once.
define GATE_BENCH_RUN
( $(GO) test $(GATE_FLAGS) -bench '$(GATED_BENCH)' -benchtime $(1) . ./internal/sim/ ./internal/serve/ ./internal/netsim/ ./internal/spatial/ \
	&& $(GO) test -run '^$$' -benchmem -count=1 -bench 'BenchmarkWorld100k/n100k' -benchtime 1x ./internal/netsim/ )
endef

# benchgate is the performance ratchet: rerun the gated benchmarks and
# fail if any metric is >25% worse than the committed baseline (generous
# enough for shared-runner noise, far tighter than the 2x+ wins the
# baseline records).
benchgate:
	$(call GATE_BENCH_RUN,10x) \
		| $(GO) run ./cmd/benchgate -baseline bench_baseline.txt -threshold 0.25

# benchgate-quick is the short-iteration gate wired into ci: same
# benchmarks and baseline at minimal iteration counts. It gates the exact
# work counts, B/op and allocs/op (a lost zero-alloc property, an
# accidental O(n^2) in the counts) and prints ns/op without gating it:
# best-of-three at 3x moved from 15.6 to 27.2 ms on unchanged code as the
# shared host changed phase. benchgate keeps the ns/op ratchet.
benchgate-quick:
	$(call GATE_BENCH_RUN,3x) \
		| $(GO) run ./cmd/benchgate -baseline bench_baseline.txt -threshold 0.6 -report-only ns/op

# bench-baseline refreshes the committed baseline after an intentional
# performance change. Review the diff before committing.
bench-baseline:
	$(call GATE_BENCH_RUN,10x) \
		| tee bench_baseline.txt

# observability pins the observability layer's two contracts: the JSONL
# trace schema golden (any wire-format drift fails here) and the
# pay-for-what-you-use benchmark ladder (a zero-option simulation must
# not regress toward the observed rungs). Five samples per rung: a single
# sample cannot rank the rungs against scheduler jitter.
observability:
	$(GO) test -run 'TestJSONLSchemaGolden|TestJSONLRoundTrip' ./internal/trace/
	$(GO) test -run xxx -bench BenchmarkObserverOverhead -benchtime 1x -count 5 .

# smoke drives the CLI end-to-end through the faulty regime — lossy
# bursty channel, node churn, retry transport, route repair — over a
# small Monte-Carlo batch, built with the race detector enabled.
smoke:
	$(GO) run -race ./cmd/imobif-sim -nodes 40 -field 800 -flow-kb 256 \
		-trials 4 -loss 0.15 -burst 3 -retry 5 -retry-timeout 0.2 \
		-repair -fault-seed 7 -seed 1
	$(GO) run -race ./cmd/imobif-sim -nodes 40 -field 800 -flow-kb 512 \
		-crash 2 -retry 3 -retry-timeout 0.25 -repair -fault-seed 11 -seed 1

# serve is the daemon's end-to-end smoke: start imobif-served on a
# loopback port, submit a scenario through the real HTTP stack, poll to
# completion, and assert every flow delivered.
serve:
	$(GO) run ./cmd/imobif-served -smoke examples/scenarios/chain.json

# sweep drives the distributed sweep fabric end-to-end: checkpoint a
# multi-trial document on a local pool with -verify asserting
# byte-identity against the serial reference, then resume the completed
# checkpoint (zero trials re-run) and verify again. A multi-trial
# ambient-motion document then runs the per-trial motion seeds through
# the coordinator, again verified against the serial reference.
SWEEP_CKPT = /tmp/imobif-sweep-ci.ckpt

sweep:
	rm -f $(SWEEP_CKPT)
	$(GO) run -race ./cmd/imobif-sweep -scenario examples/scenarios/sweep.json \
		-workers local:2 -checkpoint $(SWEEP_CKPT) -verify
	$(GO) run ./cmd/imobif-sweep -scenario examples/scenarios/sweep.json \
		-workers local:2 -checkpoint $(SWEEP_CKPT) -resume -verify
	rm -f $(SWEEP_CKPT)
	$(GO) run ./cmd/imobif-sweep -scenario examples/scenarios/motion-sweep.json \
		-workers local:2 -verify

# strategies smokes the plug-in registry end-to-end: list the registered
# set, reject an unknown name (naming the set in the error), and drive
# each competitor baseline through a small race-built CLI run — the
# rolling-horizon mover, the LEACH-style rotation, and the no-movement
# max-lifetime-routing baseline whose planner must take effect.
strategies:
	$(GO) run ./cmd/imobif-sim -strategy list
	! $(GO) run ./cmd/imobif-sim -nodes 10 -flow-kb 1 -strategy warp-drive 2>/dev/null
	$(GO) run -race ./cmd/imobif-sim -nodes 30 -field 700 -flow-kb 64 \
		-strategy rolling-horizon -mode cost-unaware -seed 1
	$(GO) run -race ./cmd/imobif-sim -nodes 30 -field 700 -flow-kb 64 \
		-strategy cluster-rotation -mode cost-unaware -seed 1
	$(GO) run -race ./cmd/imobif-sim -nodes 30 -field 700 -flow-kb 64 \
		-strategy max-lifetime-routing -mode no-mobility -seed 1

# motion pins the ambient-mobility layer's contracts: the golden
# stationary fingerprints (a disabled layer is bit-identical to the
# pre-motion seed), the active-motion goldens (result and full trace
# digests of drifting worlds under every model, battery charging,
# stop-on-first-death and a lossy channel), the grid-vs-brute
# differential under active motion, and a race-built CLI run with every
# model knob exercised.
motion:
	$(GO) test -run 'TestGoldenStationaryMotion|TestGoldenActiveMotion|TestGridBruteEquivalenceUnderMotion' ./internal/netsim/
	$(GO) run -race ./cmd/imobif-sim -nodes 40 -field 800 -flow-kb 64 \
		-trials 2 -motion random-waypoint -motion-speed-lo 1 -motion-speed-hi 3 \
		-motion-pause 10 -motion-seed 5 -seed 1
	$(GO) run -race ./cmd/imobif-sim -nodes 40 -field 800 -flow-kb 64 \
		-motion rpgm -motion-groups 4 -motion-radius 60 -motion-seed 5 -seed 1

# parallel runs the cross-worker determinism battery: the faulty scene,
# each ambient-motion model and each registered strategy must produce
# byte-identical results with HELLO rounds on the default split and
# forced onto two round workers, rounds split across {1,2,3,8} workers
# must match the per-message round, and the data-parallel rounds —
# drifting worlds and a 2000-node world with forced round workers — must
# be race-clean with real worker counts.
parallel:
	$(GO) test -run 'TestDeterminism|TestScaleWorldSmoke' ./internal/netsim/
	$(GO) test -race -run 'TestDeterminismRaceRoundWorkers|TestScaleWorldSmoke' ./internal/netsim/

ci: vet fmt doclint build test race fuzz cover smoke serve sweep motion strategies parallel observability benchgate-quick
