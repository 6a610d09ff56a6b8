package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/spatial"
)

// runScenario builds and runs one world over the given placement with the
// requested neighbor index, returning the Result (or ok=false when no
// flow path exists on the initial topology — a property of the placement,
// not of the index, so both kinds must agree on it too).
func runScenario(t *testing.T, cfg Config, kind spatial.Kind, pts []geom.Point, src, dst int, bits float64) (Result, bool) {
	t.Helper()
	cfg.NeighborIndex = kind
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = 500
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{Src: src, Dst: dst, LengthBits: bits}); err != nil {
		return Result{}, false
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, true
}

// TestGridBruteWorldEquivalence is the end-to-end differential test for
// the spatial index: full simulation runs (HELLO seeding, beacon rounds,
// packet-triggered movement, notifications) must be bit-for-bit identical
// under the grid and the brute-force reference, across random placements
// and both mobility-active modes.
func TestGridBruteWorldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51D))
	for _, mode := range []Mode{ModeCostUnaware, ModeInformed} {
		for trial := 0; trial < 8; trial++ {
			n := 10 + rng.Intn(30)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			src, dst := 0, 1
			cfg := DefaultConfig()
			cfg.Mode = mode
			grid, okG := runScenario(t, cfg, spatial.KindGrid, pts, src, dst, 4e5)
			brute, okB := runScenario(t, cfg, spatial.KindBrute, pts, src, dst, 4e5)
			if okG != okB {
				t.Fatalf("mode=%v trial=%d: grid routable=%v brute routable=%v", mode, trial, okG, okB)
			}
			if !okG {
				continue
			}
			if !reflect.DeepEqual(grid, brute) {
				t.Errorf("mode=%v trial=%d: grid and brute results diverge\ngrid:  %+v\nbrute: %+v",
					mode, trial, grid, brute)
			}
		}
	}
}

// TestWorldIndexTracksMovement drives a world whose relays migrate across
// 200 m boundaries, well past the neighbor rows' margin, and then checks
// the rows against a brute-force recompute from final positions: every
// node's in-range neighbor set must match exactly. This guards the
// staleness hook in moveNode — a missed rebuild would surface here as a
// missing or phantom neighbor.
func TestWorldIndexTracksMovement(t *testing.T) {
	// An unevenly spaced zigzag chain: straightening pulls the relays
	// toward even spacing on the src–dst line (equilibria x ≈ 110, 210,
	// 310, 410), which carries node 2 (x=190) across the x=200 cell
	// boundary and node 4 (x=380) across x=400. The path is pinned so the
	// crossing geometry does not depend on the greedy planner.
	pts := []geom.Point{
		geom.Pt(10, 0),
		geom.Pt(120, 70),
		geom.Pt(190, -70),
		geom.Pt(310, 70),
		geom.Pt(380, -70),
		geom.Pt(510, 0),
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = 2000
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{
		Src: 0, Dst: 5, LengthBits: 4e6,
		Path: []NodeID{0, 1, 2, 3, 4, 5},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Move == 0 {
		t.Fatal("scenario produced no movement; boundary crossing not exercised")
	}
	moved := false
	for i, n := range w.nodes {
		if int(n.pos().X/200) != int(pts[i].X/200) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no node crossed a 200 m cell boundary; test topology needs adjusting")
	}
	if w.rows.builds < 2 {
		t.Fatalf("rows built %d times: the relays' moves never made them stale", w.rows.builds)
	}
	w.freshRows()
	r := w.cfg.Radio.Range
	for _, n := range w.nodes {
		got := w.appendInRange(nil, n.id)
		var want []int
		for _, m := range w.nodes {
			if m.id != n.id && m.pos().Dist2(n.pos()) <= r*r {
				want = append(want, m.id)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("node %d at %v: row neighbors %v, brute recompute %v", n.id, n.pos(), got, want)
		}
	}
}

// TestDiscoveryBroadcastSkipsDeadNodes is the regression test for the
// AODV flood fan-out: a dead node inside radio range must not receive the
// RREQ, so discovery has to route around it. Diamond topology — the dead
// node 1 sits on the short path, node 2 offers the detour.
func TestDiscoveryBroadcastSkipsDeadNodes(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0),     // 0: source
		geom.Pt(150, 0),   // 1: short-path relay, dead
		geom.Pt(150, 120), // 2: detour relay
		geom.Pt(300, 0),   // 3: destination
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	energies := []float64{500, 500, 500, 500}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	w.store.dead[1] = true
	path, err := w.DiscoverPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 2, 3}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("DiscoverPath(0,3) = %v, want %v (dead node 1 must be bypassed)", path, want)
	}
	if _, err := w.nodes[1].aodv.NextHop(3); err == nil {
		t.Error("dead node 1 learned a route from the flood; broadcast delivered to a dead node")
	}
}
