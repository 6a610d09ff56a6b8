package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/sim"
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

// motionScenario runs one ambient-motion world (the configuration that
// actually exercises the parallel motion precompute) and returns its
// Result for whole-struct comparison.
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
// through the windowed scheduler — the path where motion steps are
// precomputed in parallel — and requires results identical to the serial
// run, including the group-mobility model whose members share a random
// stream.
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

// TestDeterminismStaleNeighborBudget pins the budget-mode semantics of the
// stale-tolerant receiver cache (satellite 3):
//
//   - a node crossing a grid cell boundary is seen by HELLO receivers
//     within one staleness budget (the crossing invalidates the sender's
//     snapshot immediately, and neighbors' snapshots age out);
//   - a dead node never lingers in refreshed snapshots past the budget;
//   - a fully stationary world recomputes zero snapshots after seeding,
//     counter-asserted via World.recvRefreshes like spatial.Rebuckets.
func TestDeterminismStaleNeighborBudget(t *testing.T) {
	t.Run("stationary-zero-recomputes", func(t *testing.T) {
		// Budget mode with an endless budget, and exact mode, where an
		// unmoved sender revalidates its snapshot by region stamp.
		for _, staleness := range []sim.Time{1e9, 0} {
			cfg := DefaultConfig()
			cfg.Mode = ModeNoMobility
			cfg.NeighborIndex = spatial.KindGrid
			cfg.NeighborStaleness = staleness
			cfg.BeaconMoveEps = 0 // every node beacons every round
			pts := []geom.Point{geom.Pt(0, 0), geom.Pt(150, 0), geom.Pt(300, 0), geom.Pt(450, 0)}
			energies := []float64{500, 500, 500, 500}
			w, err := NewWorld(cfg, pts, energies)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 5e5}); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(); err != nil {
				t.Fatal(err)
			}
			// Each sender computes its snapshot once; nothing moves, so no
			// snapshot is ever recomputed.
			if w.medium.Stats().Broadcasts <= uint64(len(pts)) {
				t.Fatalf("staleness %v: only %d broadcasts, too few to recompute anything", staleness, w.medium.Stats().Broadcasts)
			}
			if w.recvRefreshes > uint64(len(pts)) {
				t.Errorf("staleness %v: stationary world recomputed receiver snapshots: %d refreshes for %d nodes",
					staleness, w.recvRefreshes, len(pts))
			}
		}
	})

	t.Run("cell-crossing-within-budget", func(t *testing.T) {
		// Node 1 sits just left of the x=200 cell boundary and drifts
		// right across it. Its own snapshot must be invalidated by the
		// crossing itself, and node 0 must relearn node 1's advertised
		// position within one staleness budget of the crossing.
		const budget = 4
		cfg := DefaultConfig()
		cfg.Mode = ModeCostUnaware
		cfg.NeighborIndex = spatial.KindGrid
		cfg.NeighborStaleness = budget
		cfg.BeaconMoveEps = 0.5 // beacon every round while moving
		cfg.Motion = &motion.Config{
			Model: motion.ModelGaussMarkov, Seed: 3,
			FieldW: 500, FieldH: 100, SpeedLo: 2, SpeedHi: 4,
		}
		cfg.Horizon = 120
		pts := []geom.Point{geom.Pt(120, 50), geom.Pt(195, 50), geom.Pt(320, 50)}
		energies := []float64{5000, 5000, 5000}
		w, err := NewWorld(cfg, pts, energies)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 4e6}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		crossed := false
		if cellX, _ := cellCoords(w.store.pos[1], w.cellSize); cellX != 0 {
			crossed = true
		}
		if !crossed && w.grid.Rebuckets() == 0 {
			t.Skip("no cell crossing happened in this run; scenario needs adjusting")
		}
		// Node 0's view of node 1 must match a recently advertised
		// position: within (budget + HelloInterval) of current truth at
		// the configured speeds.
		entry, ok := w.nodes[0].neighbors.Get(1, w.sched.Now())
		if !ok {
			t.Fatal("node 0 lost its HELLO entry for node 1")
		}
		maxLag := (float64(budget) + float64(cfg.HelloInterval)) * 4 // budget × top speed
		if d := entry.Position.Dist(w.store.pos[1]); d > maxLag {
			t.Errorf("node 0 sees node 1 at %v, actual %v: lag %.1f m exceeds one staleness budget (%.1f m)",
				entry.Position, w.store.pos[1], d, maxLag)
		}
	})

	t.Run("dead-node-purged-after-budget", func(t *testing.T) {
		const budget = 2
		cfg := DefaultConfig()
		cfg.Mode = ModeCostUnaware
		cfg.NeighborIndex = spatial.KindGrid
		cfg.NeighborStaleness = budget
		cfg.BeaconMoveEps = 0 // every node beacons every round
		cfg.Horizon = 60
		pts := []geom.Point{geom.Pt(0, 0), geom.Pt(150, 0), geom.Pt(300, 0)}
		energies := []float64{5000, 5000, 5000}
		w, err := NewWorld(cfg, pts, energies)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 1e7}); err != nil {
			t.Fatal(err)
		}
		if err := w.ScheduleNodeFailure(1, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		// After the budget expired every live sender refreshed its
		// snapshot, and refreshes filter dead nodes: no live node's cached
		// receiver set may still contain node 1. (A dead sender's own
		// snapshot is exempt: it stops broadcasting, so its cache is
		// frozen — and never consulted.)
		for i := range w.recv {
			if !w.recv[i].valid || w.store.dead[i] {
				continue
			}
			if w.sched.Now()-w.recv[i].at <= budget {
				continue // within budget, allowed to be stale
			}
			for _, id := range w.recv[i].ids {
				if id == 1 {
					t.Errorf("node %d's receiver snapshot still lists dead node 1 past the staleness budget", i)
				}
			}
		}
	})
}

// TestDeterminismRaceParallelShards exists to run the windowed scheduler
// and the sharded motion precompute under the race detector (the
// Makefile race target selects tests by this name).
func TestDeterminismRaceParallelShards(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			_ = motionScenario(t, motion.ModelRPGM, true, shards)
			_ = motionScenario(t, motion.ModelGaussMarkov, true, shards)
		})
	}
}
