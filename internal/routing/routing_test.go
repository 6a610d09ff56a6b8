package routing

import (
	"errors"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/topo"
)

func lineGraph(t *testing.T, n int, gap, radius float64) *topo.Graph {
	t.Helper()
	pts := topo.PlaceLine(n, geom.Pt(0, 0), geom.Pt(gap*float64(n-1), 0))
	g, err := topo.NewGraph(pts, radius)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGreedyPlanner(t *testing.T) {
	g := lineGraph(t, 5, 100, 150)
	path, err := (GreedyPlanner{}).PlanRoute(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRoute(g, path, 0, 4); err != nil {
		t.Errorf("invalid route: %v", err)
	}
	if (GreedyPlanner{}).Name() != "greedy" {
		t.Error("name mismatch")
	}
}

func TestMinHopPlanner(t *testing.T) {
	g := lineGraph(t, 5, 100, 250)
	path, err := (MinHopPlanner{}).PlanRoute(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 { // 0 -> 2 -> 4 with radius 250
		t.Errorf("path = %v, want 3 nodes", path)
	}
	if err := ValidateRoute(g, path, 0, 4); err != nil {
		t.Errorf("invalid route: %v", err)
	}
}

func TestMinEnergyPlannerPrefersShortHops(t *testing.T) {
	// With superlinear tx cost (alpha=2 and tiny A), many short hops beat
	// one long hop.
	g := lineGraph(t, 5, 100, 450)
	p := MinEnergyPlanner{Tx: energy.TxModel{A: 1e-12, B: 1e-10, Alpha: 2}}
	path, err := p.PlanRoute(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 { // every intermediate hop used
		t.Errorf("path = %v, want all 5 nodes", path)
	}
	if p.Name() != "minenergy" {
		t.Error("name mismatch")
	}
}

func TestMinEnergyPlannerLargeABalancesHops(t *testing.T) {
	// A huge per-bit electronics cost A makes extra hops expensive; the
	// planner should then take the direct route.
	g := lineGraph(t, 5, 100, 450)
	p := MinEnergyPlanner{Tx: energy.TxModel{A: 1, B: 1e-10, Alpha: 2}}
	path, err := p.PlanRoute(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Errorf("path = %v, want direct hop", path)
	}
}

func TestMinEnergyPlannerInvalidModel(t *testing.T) {
	g := lineGraph(t, 3, 100, 150)
	p := MinEnergyPlanner{Tx: energy.TxModel{A: -1, B: 1, Alpha: 2}}
	if _, err := p.PlanRoute(g, 0, 2); err == nil {
		t.Error("invalid model should error")
	}
}

func TestValidateRoute(t *testing.T) {
	g := lineGraph(t, 4, 100, 150)
	tests := []struct {
		name    string
		path    []NodeID
		src     NodeID
		dst     NodeID
		wantErr bool
	}{
		{"valid", []NodeID{0, 1, 2, 3}, 0, 3, false},
		{"empty", nil, 0, 3, true},
		{"wrong start", []NodeID{1, 2, 3}, 0, 3, true},
		{"wrong end", []NodeID{0, 1, 2}, 0, 3, true},
		{"repeat", []NodeID{0, 1, 0, 1, 2, 3}, 0, 3, true},
		{"out of range hop", []NodeID{0, 3}, 0, 3, true},
		{"single node", []NodeID{2}, 2, 2, false},
		{"node not in graph", []NodeID{0, 7, 3}, 0, 3, true},
		{"negative node", []NodeID{0, -1, 3}, 0, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := ValidateRoute(g, tt.path, tt.src, tt.dst)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// graphTransport delivers AODV control messages over a topology snapshot
// with a FIFO queue, emulating a synchronous flood deterministically.
type graphTransport struct {
	g         *topo.Graph
	instances map[NodeID]*Instance
	queue     []func() error
	pumping   bool
	// broadcasts counts flood transmissions for overhead assertions.
	broadcasts int
}

func newGraphTransport(g *topo.Graph) *graphTransport {
	return &graphTransport{g: g, instances: make(map[NodeID]*Instance)}
}

func (tr *graphTransport) add(t *testing.T, id NodeID) *Instance {
	t.Helper()
	inst, err := NewInstance(id, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.instances[id] = inst
	return inst
}

func (tr *graphTransport) Broadcast(from NodeID, msg any) error {
	tr.broadcasts++
	for _, nb := range tr.g.Neighbors(from) {
		nb := nb
		if inst, ok := tr.instances[nb]; ok {
			tr.queue = append(tr.queue, func() error { return inst.Receive(from, msg) })
		}
	}
	return tr.pump()
}

func (tr *graphTransport) Unicast(from, to NodeID, msg any) error {
	if !tr.g.Connected(from, to) {
		return errors.New("test transport: out of range")
	}
	if inst, ok := tr.instances[to]; ok {
		tr.queue = append(tr.queue, func() error { return inst.Receive(from, msg) })
	}
	return tr.pump()
}

func (tr *graphTransport) pump() error {
	if tr.pumping {
		return nil
	}
	tr.pumping = true
	defer func() { tr.pumping = false }()
	for len(tr.queue) > 0 {
		fn := tr.queue[0]
		tr.queue = tr.queue[1:]
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

func aodvNetwork(t *testing.T, g *topo.Graph) (*graphTransport, []*Instance) {
	t.Helper()
	tr := newGraphTransport(g)
	insts := make([]*Instance, g.Len())
	for i := 0; i < g.Len(); i++ {
		insts[i] = tr.add(t, i)
	}
	return tr, insts
}

func TestAODVDiscoversChainRoute(t *testing.T) {
	g := lineGraph(t, 5, 100, 150)
	_, insts := aodvNetwork(t, g)
	var got []NodeID
	insts[0].OnRouteDiscovered(func(target NodeID) { got = append(got, target) })
	if err := insts[0].RequestRoute(4); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("discovered = %v, want [4]", got)
	}
	// Walk the route hop by hop.
	path := []NodeID{0}
	cur := 0
	for cur != 4 {
		next, err := insts[cur].NextHop(4)
		if err != nil {
			t.Fatalf("NextHop at %d: %v", cur, err)
		}
		path = append(path, next)
		cur = next
		if len(path) > g.Len() {
			t.Fatalf("routing loop: %v", path)
		}
	}
	if err := ValidateRoute(g, path, 0, 4); err != nil {
		t.Errorf("AODV route invalid: %v (path %v)", err, path)
	}
	if len(path) != 5 {
		t.Errorf("path = %v, want 5 nodes on a radius-150 chain", path)
	}
}

func TestAODVReversePathInstalled(t *testing.T) {
	g := lineGraph(t, 4, 100, 150)
	_, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(3); err != nil {
		t.Fatal(err)
	}
	// The flood should have taught everyone a route back to node 0.
	for i := 1; i < 4; i++ {
		if _, err := insts[i].NextHop(0); err != nil {
			t.Errorf("node %d has no reverse route to 0: %v", i, err)
		}
	}
}

func TestAODVNoRouteWhenPartitioned(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(5000, 0)}
	g, err := topo.NewGraph(pts, 150)
	if err != nil {
		t.Fatal(err)
	}
	_, insts := aodvNetwork(t, g)
	fired := false
	insts[0].OnRouteDiscovered(func(NodeID) { fired = true })
	if err := insts[0].RequestRoute(2); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("route to a partitioned node should not resolve")
	}
	if _, err := insts[0].NextHop(2); !errors.Is(err, ErrNoTableRoute) {
		t.Errorf("NextHop err = %v, want ErrNoTableRoute", err)
	}
}

func TestAODVDuplicateSuppression(t *testing.T) {
	// In a dense clique the flood must not explode: each node rebroadcasts
	// a given RREQ at most once.
	pts := topo.PlaceGrid(9, 100, 100) // all within range of each other
	g, err := topo.NewGraph(pts, 500)
	if err != nil {
		t.Fatal(err)
	}
	tr, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(8); err != nil {
		t.Fatal(err)
	}
	// Origin broadcast + at most one rebroadcast per non-target node.
	if tr.broadcasts > 9 {
		t.Errorf("flood used %d broadcasts, want <= 9", tr.broadcasts)
	}
}

func TestAODVKnownRouteShortCircuits(t *testing.T) {
	g := lineGraph(t, 3, 100, 150)
	tr, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(2); err != nil {
		t.Fatal(err)
	}
	before := tr.broadcasts
	fired := false
	insts[0].OnRouteDiscovered(func(NodeID) { fired = true })
	if err := insts[0].RequestRoute(2); err != nil {
		t.Fatal(err)
	}
	if tr.broadcasts != before {
		t.Error("second request should not re-flood")
	}
	if !fired {
		t.Error("callback should fire immediately for a known route")
	}
}

func TestAODVSelfRoute(t *testing.T) {
	g := lineGraph(t, 2, 100, 150)
	_, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(0); err == nil {
		t.Error("requesting a route to self should error")
	}
}

func TestAODVInvalidate(t *testing.T) {
	g := lineGraph(t, 3, 100, 150)
	_, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(2); err != nil {
		t.Fatal(err)
	}
	if _, err := insts[0].NextHop(2); err != nil {
		t.Fatal(err)
	}
	insts[0].Invalidate(2)
	if _, err := insts[0].NextHop(2); !errors.Is(err, ErrNoTableRoute) {
		t.Errorf("invalidated route err = %v, want ErrNoTableRoute", err)
	}
}

func TestAODVKnownDestinations(t *testing.T) {
	g := lineGraph(t, 4, 100, 150)
	_, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(3); err != nil {
		t.Fatal(err)
	}
	dests := insts[0].KnownDestinations()
	// Must know at least the target; intermediate reverse learning gives 1.
	found := false
	for _, d := range dests {
		if d == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("KnownDestinations = %v, want to include 3", dests)
	}
}

func TestAODVHopsTo(t *testing.T) {
	g := lineGraph(t, 5, 100, 150)
	_, insts := aodvNetwork(t, g)
	if err := insts[0].RequestRoute(4); err != nil {
		t.Fatal(err)
	}
	hops, err := insts[0].HopsTo(4)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 4 {
		t.Errorf("HopsTo = %d, want 4", hops)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(0, nil); err == nil {
		t.Error("nil transport should error")
	}
}

func TestAODVIgnoresUnknownMessages(t *testing.T) {
	g := lineGraph(t, 2, 100, 150)
	_, insts := aodvNetwork(t, g)
	if err := insts[0].Receive(1, "not an aodv message"); err != nil {
		t.Errorf("unknown message type should be ignored, got %v", err)
	}
}
