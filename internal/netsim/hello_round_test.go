package netsim

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/motion"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/topo"
)

// roundPathRun is everything a HELLO round may influence, as observed by
// TestHelloRoundPathsAgree: every node's table digest after every round,
// the medium counters, and the Result.
type roundPathRun struct {
	tables     []string
	maxDeliver uint64 // most deliveries in one round
	medium     radio.Stats
	result     []byte
	batched    bool // the two-phase round's buffers were used
}

// runRoundPath builds the 80-node differential scene under cfg, with the
// per-message round forced on or off and the apply threshold at maxPairs,
// and runs it to completion.
func runRoundPath(t *testing.T, cfg Config, perMessage bool, maxPairs int) roundPathRun {
	t.Helper()
	src := stats.NewSource(77)
	pts := topo.PlaceUniform(src, 80, 700, 700)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(2000, 6000)
	}
	w, err := NewWorld(cfg, pts, energies)
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
	run.batched = cap(w.beacons.recv) > 0
	return run
}

// TestHelloRoundPathsAgree is the differential test of the two HELLO
// round paths: the same worlds run with batched (two-phase) rounds and
// with per-message rounds must agree on every table after every round,
// on the medium counters and on the whole Result. The scenes cover
// drift with loss, retry, route repair and expiring tables; crashes and
// recoveries in informed mode, where relays read the tables; the
// parallel drift pre-scan; and an apply threshold low enough that rounds
// are applied in several chunks.
func TestHelloRoundPathsAgree(t *testing.T) {
	drift := &motion.Config{Model: motion.ModelGaussMarkov, Seed: 11, FieldW: 700, FieldH: 700, SpeedLo: 0.5, SpeedHi: 2}
	scenes := []struct {
		name     string
		mutate   func(*Config)
		maxPairs int
	}{
		{"drift-loss-ttl", func(cfg *Config) {
			cfg.Mode = ModeCostUnaware
			cfg.Motion = drift
			cfg.NeighborTTL = 3
			cfg.Faults = &fault.Config{LossP: 0.1, Seed: 3, RetryLimit: 3, RetryTimeout: 0.25, RouteRepair: true}
		}, beaconBatchPairs},
		{"crash-recovery-informed", func(cfg *Config) {
			cfg.Motion = drift
			cfg.Faults = &fault.Config{
				LossP: 0.05, Seed: 5, RetryLimit: 2, RetryTimeout: 0.3, RouteRepair: true,
				Crashes: []fault.Crash{{Node: 3, At: 20, RecoverAt: 90}, {Node: 17, At: 35}, {Node: 41, At: 5, RecoverAt: 60}},
			}
		}, beaconBatchPairs},
		{"parallel-prescan", func(cfg *Config) {
			cfg.Motion = drift
			cfg.Parallel = true
			cfg.Shards = 2
		}, beaconBatchPairs},
		{"chunked-apply", func(cfg *Config) {
			cfg.Motion = drift
			cfg.NeighborTTL = 2
		}, 40},
	}
	for _, sc := range scenes {
		t.Run(sc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = ModeInformed
			cfg.Horizon = 300
			sc.mutate(&cfg)
			batched := runRoundPath(t, cfg, false, sc.maxPairs)
			perMsg := runRoundPath(t, cfg, true, sc.maxPairs)
			if !batched.batched || perMsg.batched {
				t.Fatalf("round paths not as forced: batched used buffers %v, per-message %v", batched.batched, perMsg.batched)
			}
			if batched.medium.Delivered == 0 {
				t.Fatal("no deliveries: the scene exercises nothing")
			}
			if sc.maxPairs < beaconBatchPairs && batched.maxDeliver <= uint64(sc.maxPairs) {
				t.Fatalf("largest round delivered %d beacons, not above the %d-pair threshold", batched.maxDeliver, sc.maxPairs)
			}
			if len(batched.tables) != len(perMsg.tables) {
				t.Fatalf("%d rounds batched vs %d per-message", len(batched.tables), len(perMsg.tables))
			}
			for i := range batched.tables {
				if batched.tables[i] != perMsg.tables[i] {
					t.Fatalf("tables diverge after round %d: batched %s, per-message %s", i, batched.tables[i], perMsg.tables[i])
				}
			}
			if batched.medium != perMsg.medium {
				t.Errorf("medium stats: batched %+v, per-message %+v", batched.medium, perMsg.medium)
			}
			if string(batched.result) != string(perMsg.result) {
				t.Errorf("results diverge:\nbatched     %s\nper-message %s", batched.result, perMsg.result)
			}
		})
	}
}

// TestPositiveBandwidthWorldSmoke runs a world whose radio has a finite
// link rate, so every message — beacons included — arrives through a
// scheduled delivery event after its serialization delay and HELLO
// rounds stay on the per-message path. The run must complete its flows,
// and beacons delivered after t=0 must have refreshed the tables.
func TestPositiveBandwidthWorldSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	cfg.Horizon = 300
	cfg.Radio.Bandwidth = 2e6
	run := runRoundPath(t, cfg, false, beaconBatchPairs)
	if run.batched {
		t.Fatal("positive-bandwidth rounds took the batched path")
	}
	var res Result
	if err := json.Unmarshal(run.result, &res); err != nil {
		t.Fatal(err)
	}
	for i, fo := range res.Flows {
		if !fo.Completed {
			t.Errorf("flow %d did not complete: %+v", i, fo)
		}
	}
	if run.medium.Delivered <= run.medium.Unicasts {
		t.Errorf("no broadcast deliveries: %+v", run.medium)
	}
	if run.tables[0] == run.tables[len(run.tables)-1] {
		t.Error("tables never changed after the first round")
	}
}
