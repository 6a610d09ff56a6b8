package netsim

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/motion"
	"repro/internal/radio"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
)

// roundPathRun is everything a HELLO round may influence, as observed by
// the round-path differential tests: every node's table digest after
// every round, the medium counters, the neighbor-row builds, and the
// Result.
type roundPathRun struct {
	tables     []string
	maxDeliver uint64 // most deliveries in one round
	medium     radio.Stats
	rowBuilds  uint64
	result     []byte
	batched    bool   // the two-phase round's buffers were used
	split      uint64 // rounds that took the data-parallel split
}

// runRoundPath builds the 80-node differential scene under cfg, with the
// per-message round forced on or off, the apply threshold at maxPairs,
// the round split at split and, when positive, the neighbor-row margin
// at margin, and runs it to completion.
func runRoundPath(t *testing.T, cfg Config, perMessage bool, maxPairs int, split roundSplit, margin float64) roundPathRun {
	t.Helper()
	src := stats.NewSource(77)
	pts := topo.PlaceUniform(src, 80, 700, 700)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(2000, 6000)
	}
	w, err := newWorld(cfg, pts, energies, split)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	for j := 1; j < len(pts) && added < 3; j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 3 {
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: j, LengthBits: 1e6}); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if added == 0 {
		t.Fatal("no routable flows in the round-path scene")
	}
	w.perMessageHello = perMessage
	w.beacons.maxPairs = maxPairs
	if margin > 0 {
		w.rows.setMargin(w.cfg.Radio.Range, margin)
	}
	var run roundPathRun
	var delivered uint64
	w.afterRound = func() {
		run.tables = append(run.tables, tableDigest(w))
		d := w.medium.Stats().Delivered
		run.maxDeliver = max(run.maxDeliver, d-delivered)
		delivered = d
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	run.medium = w.medium.Stats()
	run.rowBuilds = w.rows.builds
	run.batched = cap(w.beacons.recv) > 0
	run.split = w.splitRounds
	return run
}

// forcedSplit splits every round and the seeding across workers, and
// resolves senders in windows of 16, so the 80-node scene crosses
// several windows per round.
func forcedSplit(workers int) roundSplit {
	return roundSplit{workers: workers, minSenders: 1, window: 16}
}

// roundScene is one configuration of the round-path differential scene.
// maxPairs is the apply threshold; workers, when positive, forces the
// data-parallel split with that many workers; margin, when positive,
// forces the neighbor-row margin.
type roundScene struct {
	name     string
	mutate   func(*Config)
	maxPairs int
	workers  int
	margin   float64
}

// roundScenes are the scenes both differential tests run: drift with
// loss, retry, route repair and expiring tables; crashes and recoveries
// in informed mode, where relays read the tables; rounds split across two
// workers; an apply threshold low enough that rounds are applied in
// several chunks; a neighbor-row margin so tiny that the rows are rebuilt
// almost every round; and the brute-force row builder.
func roundScenes() []roundScene {
	drift := &motion.Config{Model: motion.ModelGaussMarkov, Seed: 11, FieldW: 700, FieldH: 700, SpeedLo: 0.5, SpeedHi: 2}
	return []roundScene{
		{"drift-loss-ttl", func(cfg *Config) {
			cfg.Mode = ModeCostUnaware
			cfg.Motion = drift
			cfg.NeighborTTL = 3
			cfg.Faults = &fault.Config{LossP: 0.1, Seed: 3, RetryLimit: 3, RetryTimeout: 0.25, RouteRepair: true}
		}, beaconBatchPairs, 0, 0},
		{"crash-recovery-informed", func(cfg *Config) {
			cfg.Motion = drift
			cfg.Faults = &fault.Config{
				LossP: 0.05, Seed: 5, RetryLimit: 2, RetryTimeout: 0.3, RouteRepair: true,
				Crashes: []fault.Crash{{Node: 3, At: 20, RecoverAt: 90}, {Node: 17, At: 35}, {Node: 41, At: 5, RecoverAt: 60}},
			}
		}, beaconBatchPairs, 0, 0},
		{"split-2", func(cfg *Config) {
			cfg.Motion = drift
		}, beaconBatchPairs, 2, 0},
		{"chunked-apply", func(cfg *Config) {
			cfg.Motion = drift
			cfg.NeighborTTL = 2
		}, 40, 0, 0},
		{"tiny-margin", func(cfg *Config) {
			cfg.Motion = drift
		}, beaconBatchPairs, 0, 1e-3},
		{"brute-index", func(cfg *Config) {
			cfg.Motion = drift
			cfg.NeighborIndex = spatial.KindBrute
		}, beaconBatchPairs, 0, 0},
	}
}

// config is the scene's configuration on top of the shared base.
func (sc roundScene) config() Config {
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	cfg.Horizon = 300
	sc.mutate(&cfg)
	return cfg
}

// sameRun fails t unless got agrees with the per-message reference on
// every table after every round, the medium counters, the neighbor-row
// builds and the whole Result.
func sameRun(t *testing.T, got, want roundPathRun) {
	t.Helper()
	if len(got.tables) != len(want.tables) {
		t.Fatalf("%d rounds vs %d per-message", len(got.tables), len(want.tables))
	}
	for i := range got.tables {
		if got.tables[i] != want.tables[i] {
			t.Fatalf("tables diverge after round %d: %s, per-message %s", i, got.tables[i], want.tables[i])
		}
	}
	if got.medium != want.medium {
		t.Errorf("medium stats: %+v, per-message %+v", got.medium, want.medium)
	}
	if got.rowBuilds != want.rowBuilds {
		t.Errorf("neighbor-row builds: %d, per-message %d", got.rowBuilds, want.rowBuilds)
	}
	if string(got.result) != string(want.result) {
		t.Errorf("results diverge:\ngot         %s\nper-message %s", got.result, want.result)
	}
}

// TestHelloRoundPathsAgree is the differential test of the two HELLO
// round paths: the same worlds run with batched (two-phase) rounds and
// with per-message rounds must agree on every table after every round,
// on the medium counters and on the whole Result, over roundScenes. The
// split-2 scene runs its rounds split across two workers.
func TestHelloRoundPathsAgree(t *testing.T) {
	for _, sc := range roundScenes() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			split := defaultRoundSplit()
			if sc.workers > 0 {
				split = forcedSplit(sc.workers)
			}
			batched := runRoundPath(t, cfg, false, sc.maxPairs, split, sc.margin)
			perMsg := runRoundPath(t, cfg, true, sc.maxPairs, split, sc.margin)
			if !batched.batched || perMsg.batched {
				t.Fatalf("round paths not as forced: batched used buffers %v, per-message %v", batched.batched, perMsg.batched)
			}
			if (batched.split > 0) != (sc.workers > 0) {
				t.Fatalf("%d split rounds with %d forced workers", batched.split, sc.workers)
			}
			if batched.medium.Delivered == 0 {
				t.Fatal("no deliveries: the scene exercises nothing")
			}
			if sc.maxPairs < beaconBatchPairs && batched.maxDeliver <= uint64(sc.maxPairs) {
				t.Fatalf("largest round delivered %d beacons, not above the %d-pair threshold", batched.maxDeliver, sc.maxPairs)
			}
			if sc.margin > 0 && batched.rowBuilds < uint64(len(batched.tables))/2 {
				t.Fatalf("%d row builds over %d rounds: the tiny margin forced too few rebuilds", batched.rowBuilds, len(batched.tables))
			}
			sameRun(t, batched, perMsg)
		})
	}
}

// TestDeterminismHelloRoundWorkers pins the data-parallel round: with
// every round and the seeding forced onto the split, at 1, 2, 3 and 8
// workers, each of roundScenes must match the per-message round on
// every table after every round, the medium counters, the neighbor-row
// builds and the Result. The Makefile's race and parallel targets
// select it by name.
func TestDeterminismHelloRoundWorkers(t *testing.T) {
	for _, sc := range roundScenes() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			want := runRoundPath(t, cfg, true, sc.maxPairs, defaultRoundSplit(), sc.margin)
			for _, workers := range []int{1, 2, 3, 8} {
				got := runRoundPath(t, cfg, false, sc.maxPairs, forcedSplit(workers), sc.margin)
				if (got.split > 0) != (workers > 1) {
					t.Fatalf("workers=%d: %d rounds split", workers, got.split)
				}
				if sc.maxPairs < beaconBatchPairs && got.maxDeliver <= uint64(sc.maxPairs) {
					t.Fatalf("workers=%d: largest round delivered %d beacons, not above the %d-pair threshold", workers, got.maxDeliver, sc.maxPairs)
				}
				sameRun(t, got, want)
			}
		})
	}
}
