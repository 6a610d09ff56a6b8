package netsim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The cross-scheduler determinism battery: every golden scenario the
// repository pins — zero-fault, faulty, ambient motion, and each
// registered strategy — must produce byte-identical results under the
// conservative-lookahead parallel scheduler at every shard count. This is
// the gate the 100k scaling work rides behind: Parallel is only usable
// because these tests prove it is not observable in the results.

var crossShards = []int{1, 2, 8}

// TestDeterminismGoldenCrossScheduler re-runs the canonical golden
// scenarios with the windowed parallel scheduler and asserts the exact
// golden constants of the serial seed — not merely serial-vs-parallel
// agreement, so a bug that shifted both schedulers together would still
// be caught.
func TestDeterminismGoldenCrossScheduler(t *testing.T) {
	golden := map[Mode]uint64{
		ModeInformed:    goldenInformedFingerprint,
		ModeCostUnaware: goldenCostUnawareFingerprint,
	}
	for mode, want := range golden {
		for _, shards := range crossShards {
			got := goldenWorldFingerprint(t, mode, func(cfg *Config) {
				cfg.Parallel = true
				cfg.Shards = shards
			})
			if got != want {
				t.Errorf("mode=%v shards=%d: parallel fingerprint %#x, want golden %#x",
					mode, shards, got, want)
			}
		}
	}
}

// TestDeterminismFaultyCrossScheduler covers the fault layer: lossy
// channel, retry/ack transport, crash/recovery schedule, and route
// repair, serial vs parallel at each shard count.
func TestDeterminismFaultyCrossScheduler(t *testing.T) {
	faulty := func(cfg *Config) {
		cfg.Faults = &fault.Config{
			LossP: 0.05, Seed: 7,
			RetryLimit: 3, RetryTimeout: 0.25,
			RouteRepair: true,
			Crashes:     []fault.Crash{{Node: 3, At: 40, RecoverAt: 200}},
		}
	}
	want := goldenWorldFingerprint(t, ModeInformed, faulty)
	for _, shards := range crossShards {
		got := goldenWorldFingerprint(t, ModeInformed, faulty, func(cfg *Config) {
			cfg.Parallel = true
			cfg.Shards = shards
		})
		if got != want {
			t.Errorf("faulty shards=%d: parallel fingerprint %#x, serial %#x", shards, got, want)
		}
	}
}

// motionScenario runs one ambient-motion world and returns its Result
// for whole-struct comparison.
func motionScenario(t *testing.T, model string, parallel bool, shards int) Result {
	t.Helper()
	src := stats.NewSource(1234)
	pts := topo.PlaceUniform(src, 48, 700, 700)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(2000, 6000)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	cfg.Horizon = 600
	cfg.Motion = &motion.Config{
		Model: model, Seed: 5, FieldW: 700, FieldH: 700,
		SpeedLo: 0.5, SpeedHi: 2,
	}
	cfg.Parallel = parallel
	cfg.Shards = shards
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
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: j, LengthBits: 2e6}); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if added == 0 {
		t.Fatal("no routable flows in motion scenario")
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismMotionCrossScheduler drives every ambient-mobility model
// through the windowed scheduler and requires results identical to the
// serial run, including the group-mobility model whose members share a
// random stream.
func TestDeterminismMotionCrossScheduler(t *testing.T) {
	models := []string{motion.ModelRandomWaypoint, motion.ModelGaussMarkov, motion.ModelRPGM}
	for _, model := range models {
		want := motionScenario(t, model, false, 0)
		for _, shards := range crossShards {
			got := motionScenario(t, model, true, shards)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("model=%s shards=%d: parallel result differs from serial", model, shards)
			}
		}
	}
}

// TestDeterminismStrategiesCrossScheduler runs every registered strategy
// serial vs parallel. Strategies differ in how relays move and how routes
// are planned, so together they cover the movement/notification paths the
// fixed golden scenario reaches only for one strategy.
func TestDeterminismStrategiesCrossScheduler(t *testing.T) {
	src := stats.NewSource(77)
	pts := topo.PlaceUniform(src, 40, 600, 600)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(1000, 4000)
	}
	table, err := energy.NewPowerTable(energy.DefaultTxModel(), 200, 64)
	if err != nil {
		t.Fatal(err)
	}
	env := mobility.Env{
		Tx: energy.DefaultTxModel(), Range: 200,
		Table:    table,
		Mobility: energy.MobilityModel{K: 0.5},
	}
	run := func(t *testing.T, name string, parallel bool, shards int) (Result, bool) {
		strat, err := mobility.New(name, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Mode = ModeInformed
		cfg.Strategy = strat
		cfg.Horizon = 2000
		cfg.NeighborIndex = spatial.KindGrid
		cfg.Parallel = parallel
		cfg.Shards = shards
		return runScenario(t, cfg, spatial.KindGrid, pts, 0, 1, 8e5)
	}
	for _, name := range mobility.Names() {
		t.Run(name, func(t *testing.T) {
			want, ok := run(t, name, false, 0)
			if !ok {
				t.Skip("placement not routable for this scenario")
			}
			for _, shards := range crossShards {
				got, ok := run(t, name, true, shards)
				if !ok {
					t.Fatalf("shards=%d: flow rejected under parallel but not serial", shards)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("strategy=%s shards=%d: parallel result differs from serial", name, shards)
				}
			}
		})
	}
}

// TestDeterminismNeighborRows pins the Verlet neighbor rows:
//
//   - a stationary world builds its rows exactly once, at NewWorld, however
//     many rounds it beacons;
//   - under drift with a margin so tiny that the rows go stale every
//     motion step, every round's receiver sets still equal brute-force
//     range queries over the current positions (checked after every
//     round, while the rows the round used are still current), the rows
//     are rebuilt many times, and the Result is byte-identical to the
//     default margin's.
func TestDeterminismNeighborRows(t *testing.T) {
	t.Run("stationary-builds-once", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Mode = ModeNoMobility
		cfg.BeaconMoveEps = 0 // every node beacons every round
		pts := []geom.Point{geom.Pt(0, 0), geom.Pt(150, 0), geom.Pt(300, 0), geom.Pt(450, 0)}
		w, err := NewWorld(cfg, pts, []float64{500, 500, 500, 500})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 5e5}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.medium.Stats().Broadcasts <= uint64(len(pts)) {
			t.Fatalf("only %d broadcasts, too few rounds to rebuild anything", w.medium.Stats().Broadcasts)
		}
		if w.rows.builds != 1 {
			t.Errorf("stationary world built its rows %d times, want 1", w.rows.builds)
		}
	})

	t.Run("drift-tiny-margin", func(t *testing.T) {
		run := func(margin float64) (*World, []byte) {
			w := buildScaleWorld(t, 2000, 20, false, 0)
			// One long flow keeps the world drifting for 30 s.
			long := w.flows[0].spec
			long.LengthBits = 30 * w.cfg.PacketBits
			if _, err := w.AddFlow(long); err != nil {
				t.Fatal(err)
			}
			checked := 0
			if margin > 0 {
				w.rows.setMargin(w.cfg.Radio.Range, margin)
			}
			r := w.cfg.Radio.Range
			w.afterRound = func() {
				if len(w.beacons.senders) == 0 {
					return
				}
				if w.rows.stale {
					t.Fatalf("t=%v: rows went stale within a round", w.sched.Now())
				}
				for _, s := range w.beacons.senders {
					got := w.appendInRange(nil, s)
					var want []NodeID
					for j, q := range w.store.pos {
						if j != s && q.Dist2(w.store.pos[s]) <= r*r {
							want = append(want, j)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("t=%v: node %d receivers %v, brute %v", w.sched.Now(), s, got, want)
					}
				}
				checked++
			}
			res, err := w.Run()
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Fatal("no round had senders")
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return w, raw
		}
		def, want := run(0)
		tiny, got := run(1e-3)
		t.Logf("row builds: %d at the tiny margin, %d at the default", tiny.rows.builds, def.rows.builds)
		if tiny.rows.builds <= 1 || tiny.rows.builds <= def.rows.builds {
			t.Errorf("tiny margin built rows %d times, default %d: the margin forced no rebuilds", tiny.rows.builds, def.rows.builds)
		}
		if string(got) != string(want) {
			t.Errorf("tiny-margin result differs from the default margin's:\n%s\n%s", got, want)
		}
	})
}

// TestDeterminismRaceParallelShards exists to run the windowed scheduler
// with drifting nodes under the race detector (the Makefile race target
// selects tests by this name).
func TestDeterminismRaceParallelShards(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			_ = motionScenario(t, motion.ModelRPGM, true, shards)
			_ = motionScenario(t, motion.ModelGaussMarkov, true, shards)
		})
	}
}
