package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/motion"
)

// isTouched reports whether node id is in the world's touched set.
func isTouched(w *World, id NodeID) bool {
	return w.store.touched[id>>6]&(1<<(id&63)) != 0
}

// checkTouched asserts the drift scan's invariant at the end of a HELLO
// round (see hello_round.go). With positive thresholds, every live node
// whose shouldBeacon holds is in the touched set, so the next round
// visits it. Otherwise every node beacons unchanged, and the round must
// have scanned at least every node still live: scanned is the scan count
// before the round.
func checkTouched(t testing.TB, w *World, scanned uint64) {
	t.Helper()
	positive := w.cfg.BeaconMoveEps > 0 && w.cfg.BeaconEnergyFrac > 0
	live := uint64(0)
	for id, n := range w.nodes {
		if w.store.dead[id] {
			continue
		}
		live++
		if positive && n.shouldBeacon() && !isTouched(w, id) {
			t.Fatalf("t=%v: node %d should beacon but is not touched", w.sched.Now(), id)
		}
	}
	if !positive && w.beaconScans-scanned < live {
		t.Fatalf("t=%v: zero threshold, yet the round scanned %d of %d live nodes", w.sched.Now(), w.beaconScans-scanned, live)
	}
}

// touchedOracle returns an afterRound hook that runs checkTouched after
// every round, then next (when not nil).
func touchedOracle(t testing.TB, w *World, next func()) func() {
	scanned := w.beaconScans
	return func() {
		checkTouched(t, w, scanned)
		scanned = w.beaconScans
		if next != nil {
			next()
		}
	}
}

// TestTouchSites pins every path that can change what shouldBeacon reads
// to the touched set: each must mark the node it changed.
func TestTouchSites(t *testing.T) {
	// chain is a bent three-node chain with a flow pinned 0 → 1 → 2,
	// every touched mark cleared.
	chain := func(t *testing.T, mutate func(*Config)) *World {
		cfg := DefaultConfig()
		cfg.Mode = ModeCostUnaware
		if mutate != nil {
			mutate(&cfg)
		}
		w := chainWorld(t, cfg, 3, 40, 500)
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 1e5, Path: []NodeID{0, 1, 2}}); err != nil {
			t.Fatal(err)
		}
		clear(w.store.touched)
		return w
	}
	spent := func(w *World, id NodeID, cat energy.Category) float64 {
		return w.store.batteries[id].Spent(cat)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		// do changes node id's position or battery and reports what
		// shows that it did.
		do func(t *testing.T, w *World) (id NodeID, changed bool)
	}{
		{"move", nil, func(t *testing.T, w *World) (NodeID, bool) {
			w.moveNode(1, geom.Pt(100, 5))
			return 1, w.store.pos[1] == geom.Pt(100, 5)
		}},
		{"tx-charge", nil, func(t *testing.T, w *World) (NodeID, bool) {
			if err := w.medium.Unicast(0, 1, 8192, energy.CatTx, struct{}{}); err != nil {
				t.Fatal(err)
			}
			return 0, spent(w, 0, energy.CatTx) > 0
		}},
		{"rx-charge", func(cfg *Config) { cfg.Radio.RxPerBit = 1e-7 }, func(t *testing.T, w *World) (NodeID, bool) {
			if err := w.medium.Unicast(0, 1, 8192, energy.CatTx, struct{}{}); err != nil {
				t.Fatal(err)
			}
			return 1, spent(w, 1, energy.CatRx) > 0
		}},
		{"relay-locomotion", nil, func(t *testing.T, w *World) (NodeID, bool) {
			e, err := w.nodes[1].flows.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			e.Enabled, e.HasTarget, e.Target = true, true, geom.Pt(100, 0)
			w.nodes[1].move()
			return 1, spent(w, 1, energy.CatMove) > 0
		}},
		{"ambient-locomotion", func(cfg *Config) {
			cfg.Motion = &motion.Config{Model: motion.ModelGaussMarkov, Seed: 3, FieldW: 400, FieldH: 400,
				SpeedLo: 1, SpeedHi: 2, ChargeBattery: true}
		}, func(t *testing.T, w *World) (NodeID, bool) {
			w.ambientStep(w.nodes[2], 1)
			return 2, spent(w, 2, energy.CatMove) > 0
		}},
		{"charged-aodv-control", func(cfg *Config) { cfg.Radio.ChargeControl = true }, func(t *testing.T, w *World) (NodeID, bool) {
			if _, err := w.DiscoverPath(0, 2); err != nil {
				t.Fatal(err)
			}
			return 0, spent(w, 0, energy.CatControl) > 0
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := chain(t, tc.mutate)
			id, changed := tc.do(t, w)
			if !changed {
				t.Fatalf("node %d: the site changed nothing", id)
			}
			if !isTouched(w, id) {
				t.Errorf("node %d changed but is not touched", id)
			}
		})
	}
}

// TestZeroThresholdBroadcasts pins the zero-threshold rule on a
// stationary six-node chain, 150 m apart, with one 500 kbit flow end to
// end: with BeaconMoveEps or BeaconEnergyFrac zero, a node beacons every
// round although nothing touched it, so every live node is scanned every
// round. 378 broadcasts (six nodes over 63 rounds) is the count of the
// full every-node scan; a walk over touched nodes alone makes 305.
func TestZeroThresholdBroadcasts(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"move-eps":    func(cfg *Config) { cfg.BeaconMoveEps = 0 },
		"energy-frac": func(cfg *Config) { cfg.BeaconEnergyFrac = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = ModeNoMobility
			mutate(&cfg)
			pts := make([]geom.Point, 6)
			energies := make([]float64, len(pts))
			for i := range pts {
				pts[i], energies[i] = geom.Pt(float64(i)*150, 0), 500
			}
			w, err := NewWorld(cfg, pts, energies)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 5, LengthBits: 5e5}); err != nil {
				t.Fatal(err)
			}
			w.afterRound = touchedOracle(t, w, nil)
			if _, err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if got := w.medium.Stats().Broadcasts; got != 378 {
				t.Errorf("%d broadcasts, want 378", got)
			}
			if w.beaconScans != 378 {
				t.Errorf("%d beacon scans, want 378", w.beaconScans)
			}
		})
	}
}

// TestChargedRoundsPinned pins the per-message round under charged
// control traffic, where a round's own sends touch nodes: the drifting
// 80-node round-path scene with receive costs (rx draws touch every
// receiver mid-round), with receive costs high enough that nodes die
// mid-round from t=4 on, and with every node beaconing every round.
// Each digest was captured from the every-node scan; the touched-set
// oracle runs after every round.
func TestChargedRoundsPinned(t *testing.T) {
	drift := &motion.Config{Model: motion.ModelGaussMarkov, Seed: 11, FieldW: 700, FieldH: 700, SpeedLo: 0.5, SpeedHi: 2}
	scenes := []struct {
		sc             roundScene
		rounds         int
		broadcasts     uint64
		result, tables string
	}{
		{roundScene{name: "charged-rx", mutate: func(cfg *Config) {
			cfg.Motion, cfg.Radio.ChargeControl, cfg.Radio.RxPerBit = drift, true, 1e-4
		}}, 125, 6808, "a8bc3cc886b8f8b1", "14648db1d2f523fa"},
		{roundScene{name: "charged-deaths", mutate: func(cfg *Config) {
			cfg.Motion, cfg.Radio.ChargeControl, cfg.Radio.RxPerBit = drift, true, 0.05
		}}, 77, 2763, "a05f3b589fdfc8f2", "a19bed9f5c8ea79c"},
		{roundScene{name: "charged-every-round", mutate: func(cfg *Config) {
			cfg.Motion, cfg.Radio.ChargeControl, cfg.Radio.RxPerBit = drift, true, 1e-4
			cfg.BeaconMoveEps = 0
		}}, 125, 10000, "5c39533fa1d94c21", "89188c90d7fe4eba"},
	}
	for _, s := range scenes {
		t.Run(s.sc.name, func(t *testing.T) {
			run := runRoundPath(t, s.sc.config(), pathLazy, 0, defaultRoundSplit(), 0)
			if run.batched {
				t.Fatal("a charged round took the batched path")
			}
			rs := sha256.Sum256(run.result)
			ts := sha256.Sum256([]byte(strings.Join(run.tables, ",")))
			got := []any{len(run.tables), run.medium.Broadcasts, hex.EncodeToString(rs[:8]), hex.EncodeToString(ts[:8])}
			want := []any{s.rounds, s.broadcasts, s.result, s.tables}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("rounds, broadcasts, result and table digests = %v, want %v", got, want)
					break
				}
			}
		})
	}
}
