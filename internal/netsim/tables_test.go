package netsim

import (
	"testing"

	"repro/internal/geom"
)

// TestTableLogBound runs the zero-threshold chain of
// TestZeroThresholdBroadcasts, where every node beacons every round, for
// a flow ten times as long, with only its first three nodes in the flow:
// the other three nodes' tables are deferred, and the log gains a few
// entries every round. The log must stay within its bound after every
// round, must have been compacted, and every table must equal the eager
// reference's after every round.
func TestTableLogBound(t *testing.T) {
	run := func(eager bool) (*World, []string) {
		cfg := DefaultConfig()
		cfg.Mode = ModeNoMobility
		cfg.BeaconMoveEps = 0
		pts := make([]geom.Point, 6)
		energies := make([]float64, len(pts))
		for i := range pts {
			pts[i], energies[i] = geom.Pt(float64(i)*150, 0), 500
		}
		w, err := NewWorld(cfg, pts, energies)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 5e6}); err != nil {
			t.Fatal(err)
		}
		if eager {
			w.eagerTables()
		}
		var tables []string
		w.afterRound = func() {
			if b, lim := w.log.bytes(), w.log.bound(); b > lim {
				t.Fatalf("t=%v: table log holds %d bytes, above its %d-byte bound", w.sched.Now(), b, lim)
			}
			tables = append(tables, tableDigest(w))
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w, tables
	}
	lazy, got := run(false)
	eager, want := run(true)
	if n := countReaders(lazy); n != 3 {
		t.Fatalf("%d readers, want the flow's 3", n)
	}
	if len(got) < 300 {
		t.Fatalf("only %d rounds: the run is not long", len(got))
	}
	if lazy.log.compactions == 0 || eager.log.compactions != 0 {
		t.Fatalf("compactions: lazy %d, eager %d; want some and none", lazy.log.compactions, eager.log.compactions)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rounds vs %d eager", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tables diverge from the eager reference after round %d", i)
		}
	}
}
