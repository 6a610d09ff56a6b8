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
	tables    []string
	medium    radio.Stats
	rowBuilds uint64
	result    []byte
	batched   bool   // the batched round's buffers were used
	split     uint64 // rounds that took the data-parallel split
	// compactions counts the table log's compactions, and lateJoins the
	// rounds after which a node had joined a flow with rounds logged.
	compactions uint64
	lateJoins   int
}

// roundPath selects how a round-path run writes neighbor tables and
// runs its rounds.
type roundPath int

const (
	pathLazy       roundPath = iota // batched rounds, non-readers' tables deferred to the log
	pathEager                       // batched rounds, every node a reader
	pathPerMessage                  // per-message rounds, every node a reader
)

// runRoundPath builds the 80-node differential scene under cfg, on the
// given round path, with the table log's bound at logLimit when positive,
// the round split at split and, when positive, the neighbor-row margin at
// margin, and runs it to completion with the touched-set oracle and the
// log bound checked after every round.
func runRoundPath(t *testing.T, cfg Config, path roundPath, logLimit int, split roundSplit, margin float64) roundPathRun {
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
	if path != pathLazy {
		w.perMessageHello = path == pathPerMessage
		w.eagerTables()
	}
	w.log.maxBytes = logLimit
	if margin > 0 {
		w.rows.setMargin(w.cfg.Radio.Range, margin)
	}
	var run roundPathRun
	readers, logged := countReaders(w), false
	w.afterRound = touchedOracle(t, w, func() {
		run.tables = append(run.tables, tableDigest(w))
		if b, lim := w.log.bytes(), w.log.bound(); b > lim {
			t.Fatalf("t=%v: table log holds %d bytes, above its %d-byte bound", w.sched.Now(), b, lim)
		}
		r := countReaders(w)
		if r > readers && logged {
			run.lateJoins++
		}
		readers, logged = r, w.log.senders.n > 0
	})
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	run.medium = w.medium.Stats()
	run.rowBuilds = w.rows.builds
	run.batched = cap(w.beacons.senders) > 0
	run.split = w.splitRounds
	run.compactions = w.log.compactions
	return run
}

// countReaders counts the nodes whose tables are written eagerly.
func countReaders(w *World) int {
	n := 0
	for _, r := range w.store.reader {
		if r {
			n++
		}
	}
	return n
}

// forcedSplit splits every round across workers, and resolves senders
// in windows of 16, so the 80-node scene crosses several windows per
// round.
func forcedSplit(workers int) roundSplit {
	return roundSplit{workers: workers, minSenders: 1, window: 16}
}

// roundScene is one configuration of the round-path differential scene.
// logLimit, when positive, forces the table log's bound in bytes;
// workers, when positive, forces the data-parallel split with that many
// workers; margin, when positive, forces the neighbor-row margin.
type roundScene struct {
	name     string
	mutate   func(*Config)
	logLimit int
	workers  int
	margin   float64
}

// roundScenes are the scenes the differential tests run: drift with
// loss, retry, route repair and expiring tables; crashes and recoveries
// in informed mode, where relays read the tables and route repair detours
// around a crashed relay two flows share; rounds split across two
// workers; a table-log bound low enough that the log is compacted many
// times over, mid-round included; a neighbor-row margin so tiny that the
// rows are rebuilt almost every round; and the brute-force row builder.
func roundScenes() []roundScene {
	drift := &motion.Config{Model: motion.ModelGaussMarkov, Seed: 11, FieldW: 700, FieldH: 700, SpeedLo: 0.5, SpeedHi: 2}
	return []roundScene{
		{"drift-loss-ttl", func(cfg *Config) {
			cfg.Mode = ModeCostUnaware
			cfg.Motion = drift
			cfg.NeighborTTL = 3
			cfg.Faults = &fault.Config{LossP: 0.1, Seed: 3, RetryLimit: 3, RetryTimeout: 0.25, RouteRepair: true}
		}, 0, 0, 0},
		{"crash-recovery-informed", func(cfg *Config) {
			cfg.Motion = drift
			cfg.Faults = &fault.Config{
				LossP: 0.05, Seed: 5, RetryLimit: 2, RetryTimeout: 0.3, RouteRepair: true,
				Crashes: []fault.Crash{{Node: 45, At: 20, RecoverAt: 90}, {Node: 17, At: 35}, {Node: 41, At: 5, RecoverAt: 60}},
			}
		}, 0, 0, 0},
		{"split-2", func(cfg *Config) {
			cfg.Motion = drift
		}, 0, 2, 0},
		{"chunked-apply", func(cfg *Config) {
			cfg.Motion = drift
			cfg.NeighborTTL = 2
		}, 1024, 0, 0},
		{"tiny-margin", func(cfg *Config) {
			cfg.Motion = drift
		}, 0, 0, 1e-3},
		{"brute-index", func(cfg *Config) {
			cfg.Motion = drift
			cfg.NeighborIndex = spatial.KindBrute
		}, 0, 0, 0},
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
// round paths: the same worlds run with batched rounds and lazy tables,
// and with per-message rounds and every table eager, must agree on every
// table after every round, on the medium counters and on the whole
// Result, over roundScenes. The split-2 scene runs its rounds
// split across two workers.
func TestHelloRoundPathsAgree(t *testing.T) {
	for _, sc := range roundScenes() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			split := defaultRoundSplit()
			if sc.workers > 0 {
				split = forcedSplit(sc.workers)
			}
			batched := runRoundPath(t, cfg, pathLazy, sc.logLimit, split, sc.margin)
			perMsg := runRoundPath(t, cfg, pathPerMessage, sc.logLimit, split, sc.margin)
			if !batched.batched || perMsg.batched {
				t.Fatalf("round paths not as forced: batched used buffers %v, per-message %v", batched.batched, perMsg.batched)
			}
			if (batched.split > 0) != (sc.workers > 0) {
				t.Fatalf("%d split rounds with %d forced workers", batched.split, sc.workers)
			}
			if batched.medium.Delivered == 0 {
				t.Fatal("no deliveries: the scene exercises nothing")
			}
			checkCompactions(t, sc, batched)
			if sc.margin > 0 && batched.rowBuilds < uint64(len(batched.tables))/2 {
				t.Fatalf("%d row builds over %d rounds: the tiny margin forced too few rebuilds", batched.rowBuilds, len(batched.tables))
			}
			sameRun(t, batched, perMsg)
		})
	}
}

// checkCompactions fails t unless a lazy run of a scene with a forced
// log bound compacted the log at least once per round on average.
func checkCompactions(t *testing.T, sc roundScene, run roundPathRun) {
	t.Helper()
	if sc.logLimit > 0 && run.compactions < uint64(len(run.tables)) {
		t.Fatalf("%d compactions over %d rounds under a %d-byte log bound", run.compactions, len(run.tables), sc.logLimit)
	}
}

// TestLazyTablesAgree is the differential test of deferred tables: each
// of roundScenes run with non-readers' tables deferred to the log must
// match the same run with every node a reader, on every table after
// every round (tableDigest replays the log into scratch copies, so every
// digest covers every round logged so far), the medium counters and the
// Result. In the crash-recovery scene a route repair around a crashed
// relay must make a node join a flow with rounds logged, so that its
// table is built by a multi-round replay.
func TestLazyTablesAgree(t *testing.T) {
	for _, sc := range roundScenes() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			split := defaultRoundSplit()
			if sc.workers > 0 {
				split = forcedSplit(sc.workers)
			}
			lazy := runRoundPath(t, cfg, pathLazy, sc.logLimit, split, sc.margin)
			eager := runRoundPath(t, cfg, pathEager, sc.logLimit, split, sc.margin)
			if eager.compactions != 0 {
				t.Fatalf("every node a reader, yet the log was compacted %d times", eager.compactions)
			}
			if sc.name == "crash-recovery-informed" && lazy.lateJoins == 0 {
				t.Fatal("no node joined a flow with rounds logged")
			}
			checkCompactions(t, sc, lazy)
			sameRun(t, lazy, eager)
		})
	}
}

// TestDeterminismHelloRoundWorkers pins the data-parallel round: with
// every round forced onto the split, at 1, 2, 3 and 8 workers, each of
// roundScenes must match the per-message round on every table after
// every round, the medium counters, the neighbor-row builds and the
// Result. The Makefile's race and parallel targets select it by name.
func TestDeterminismHelloRoundWorkers(t *testing.T) {
	for _, sc := range roundScenes() {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.config()
			want := runRoundPath(t, cfg, pathPerMessage, sc.logLimit, defaultRoundSplit(), sc.margin)
			for _, workers := range []int{1, 2, 3, 8} {
				got := runRoundPath(t, cfg, pathLazy, sc.logLimit, forcedSplit(workers), sc.margin)
				if (got.split > 0) != (workers > 1) {
					t.Fatalf("workers=%d: %d rounds split", workers, got.split)
				}
				checkCompactions(t, sc, got)
				sameRun(t, got, want)
			}
		})
	}
}
