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

// The cross-worker determinism battery: the faulty, ambient-motion and
// every-strategy scenes must produce byte-identical results whether their
// HELLO rounds run on the host's default split (which leaves rounds this
// small on one worker) or on crossSplit, which splits every round and the
// seeding across two workers. Every scene runs the touched-set oracle
// after every round (checkTouched). The zero-fault goldens are not repeated
// here; TestHelloRoundPathsAgree and TestDeterminismHelloRoundWorkers pin
// split rounds on their own scenes.

// crossSplit is the forced round split the battery compares against the
// default one.
var crossSplit = forcedSplit(2)

// everyRound makes every live node beacon every round. The informed-mode
// scenes below barely move or drain their relays, so without it their
// rounds would have no senders and only the seeding would split.
func everyRound(cfg *Config) { cfg.BeaconMoveEps = 0 }

// TestDeterminismFaultyCrossScheduler covers the fault layer: lossy
// channel, retry/ack transport, crash/recovery schedule, and route
// repair, default vs forced two-worker rounds.
func TestDeterminismFaultyCrossScheduler(t *testing.T) {
	faulty := func(cfg *Config) {
		cfg.Faults = &fault.Config{
			LossP: 0.05, Seed: 7,
			RetryLimit: 3, RetryTimeout: 0.25,
			RouteRepair: true,
			Crashes:     []fault.Crash{{Node: 3, At: 40, RecoverAt: 200}},
		}
	}
	want := goldenWorldFingerprint(t, ModeInformed, faulty, everyRound)
	got, split := splitWorldFingerprint(t, ModeInformed, crossSplit, faulty, everyRound)
	if split == 0 {
		t.Fatal("forced split took no split rounds")
	}
	if got != want {
		t.Errorf("faulty: two-worker fingerprint %#x, default %#x", got, want)
	}
}

// motionScenario runs one ambient-motion world with its HELLO rounds
// sized by split and returns its Result, for whole-struct comparison,
// and the number of rounds that took the data-parallel split.
func motionScenario(t *testing.T, model string, split roundSplit) (Result, uint64) {
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
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: j, LengthBits: 2e6}); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if added == 0 {
		t.Fatal("no routable flows in motion scenario")
	}
	w.afterRound = touchedOracle(t, w, nil)
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, w.splitRounds
}

// TestDeterminismMotionCrossScheduler drives every ambient-mobility model
// through forced two-worker rounds and requires results identical to the
// default split, including the group-mobility model whose members share a
// random stream.
func TestDeterminismMotionCrossScheduler(t *testing.T) {
	models := []string{motion.ModelRandomWaypoint, motion.ModelGaussMarkov, motion.ModelRPGM}
	for _, model := range models {
		want, _ := motionScenario(t, model, defaultRoundSplit())
		got, split := motionScenario(t, model, crossSplit)
		if split == 0 {
			t.Fatalf("model=%s: forced split took no split rounds", model)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("model=%s: two-worker result differs from the default split", model)
		}
	}
}

// TestDeterminismStrategiesCrossScheduler runs every registered strategy
// under the default split vs forced two-worker rounds. Strategies differ
// in how relays move and how routes are planned, so together they cover
// the movement/notification paths the fixed golden scenario reaches only
// for one strategy.
func TestDeterminismStrategiesCrossScheduler(t *testing.T) {
	src := stats.NewSource(77)
	pts := topo.PlaceUniform(src, 40, 600, 600)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = 500
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
	run := func(t *testing.T, name string, split roundSplit) (Result, uint64, bool) {
		strat, err := mobility.New(name, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Mode = ModeInformed
		cfg.Strategy = strat
		cfg.Horizon = 2000
		cfg.NeighborIndex = spatial.KindGrid
		everyRound(&cfg)
		w, err := newWorld(cfg, pts, energies, split)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 1, LengthBits: 8e5}); err != nil {
			return Result{}, 0, false
		}
		w.afterRound = touchedOracle(t, w, nil)
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, w.splitRounds, true
	}
	for _, name := range mobility.Names() {
		t.Run(name, func(t *testing.T) {
			want, _, ok := run(t, name, defaultRoundSplit())
			if !ok {
				t.Skip("placement not routable for this scenario")
			}
			got, split, ok := run(t, name, crossSplit)
			if !ok {
				t.Fatal("flow rejected under forced two-worker rounds but not the default split")
			}
			if split == 0 {
				t.Fatal("forced split took no split rounds")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("strategy=%s: two-worker result differs from the default split", name)
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
			w := buildScaleWorld(t, 2000, 20)
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

// TestDeterminismRaceRoundWorkers runs drifting worlds with every HELLO
// round split across two and four workers under the race detector (the
// Makefile race and parallel targets select tests by this name).
func TestDeterminismRaceRoundWorkers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			motionScenario(t, motion.ModelRPGM, forcedSplit(workers))
			motionScenario(t, motion.ModelGaussMarkov, forcedSplit(workers))
		})
	}
}
