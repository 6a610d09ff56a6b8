package imobif

import (
	"math"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad strategy", func(c *Config) { c.Strategy = Strategy("warp-drive") }},
		{"bad mode", func(c *Config) { c.Mode = "yolo" }},
		{"zero range", func(c *Config) { c.Range = 0 }},
		{"negative k", func(c *Config) { c.MobilityCost = -1 }},
		{"zero packet", func(c *Config) { c.PacketBytes = 0 }},
		{"zero rate", func(c *Config) { c.FlowRateBytesPerSec = 0 }},
		{"zero estimate", func(c *Config) { c.EstimateScale = 0 }},
		{"bad tx", func(c *Config) { c.TxB = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

// TestConfigRejectsNonFinite sets each physical parameter to NaN (and the
// range to +Inf): every validator the compiled config runs must reject it.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"TxA NaN", func(c *Config) { c.TxA = nan }},
		{"TxB NaN", func(c *Config) { c.TxB = nan }},
		{"PathLossExp NaN", func(c *Config) { c.PathLossExp = nan }},
		{"MobilityCost NaN", func(c *Config) { c.MobilityCost = nan }},
		{"MaxStepMeters NaN", func(c *Config) { c.MaxStepMeters = nan }},
		{"EstimateScale NaN", func(c *Config) { c.EstimateScale = nan }},
		{"FlowRateBytesPerSec NaN", func(c *Config) { c.FlowRateBytesPerSec = nan }},
		{"Range NaN", func(c *Config) { c.Range = nan }},
		{"Range +Inf", func(c *Config) { c.Range = inf }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestNewRandomNetworkDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := NewRandomNetwork(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomNetwork(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != cfg.Nodes {
		t.Fatalf("Len = %d, want %d", a.Len(), cfg.Nodes)
	}
	na, nb := a.Nodes(), b.Nodes()
	for i := range na {
		if na[i] != nb[i] {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork([]Node{{}}, 100); err == nil {
		t.Error("single node should error")
	}
	if _, err := NewNetwork([]Node{{}, {X: 1}}, 0); err == nil {
		t.Error("zero range should error")
	}
	if _, err := NewNetwork([]Node{{Joules: -1}, {X: 1}}, 100); err == nil {
		t.Error("negative energy should error")
	}
}

func lineNetwork(t *testing.T, n int, gap float64, joules float64) *Network {
	t.Helper()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i, X: float64(i) * gap, Y: 0, Joules: joules}
	}
	net, err := NewNetwork(nodes, 200)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSimulationEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	net := lineNetwork(t, 4, 100, 1000)
	sim, err := NewSimulation(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sim.AddFlow(0, 3, 100*1024) // 100 KB
	if err != nil {
		t.Fatal(err)
	}
	path, err := sim.FlowPath(id)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 3 {
		t.Errorf("path = %v", path)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	f := res.Flows[0]
	if !f.Completed {
		t.Errorf("flow incomplete: %+v", f)
	}
	if math.Abs(f.DeliveredBytes-100*1024) > 1e-6 {
		t.Errorf("delivered %v bytes", f.DeliveredBytes)
	}
	if res.TxJoules <= 0 {
		t.Error("no transmission energy recorded")
	}
	if res.MoveJoules != 0 {
		t.Error("no-mobility run recorded movement energy")
	}
	if res.FirstDeathSeconds >= 0 {
		t.Error("unexpected node death")
	}
	if len(res.Before) != 4 || len(res.After) != 4 {
		t.Error("snapshots missing")
	}
}

func TestSimulationInformedBeatsBaselineOnLongFlow(t *testing.T) {
	// The headline result through the public API: a long flow on a bent
	// relay chain consumes less total energy under informed mobility.
	nodes := []Node{
		{ID: 0, X: 0, Y: 0, Joules: 1e6},
		{ID: 1, X: 100, Y: 42, Joules: 1e6},
		{ID: 2, X: 200, Y: 60, Joules: 1e6},
		{ID: 3, X: 300, Y: 42, Joules: 1e6},
		{ID: 4, X: 400, Y: 0, Joules: 1e6},
	}
	run := func(mode Mode) *Result {
		cfg := DefaultConfig()
		cfg.Mode = mode
		net, err := NewNetwork(nodes, 200)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulation(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.AddFlow(0, 4, 100<<20); err != nil { // 100 MB
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(ModeNoMobility)
	informed := run(ModeInformed)
	if informed.TotalJoules() >= base.TotalJoules() {
		t.Errorf("informed %.1f J should beat baseline %.1f J",
			informed.TotalJoules(), base.TotalJoules())
	}
	if informed.MoveJoules == 0 {
		t.Error("informed run should have moved relays")
	}
}

func TestAddFlowPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	net := lineNetwork(t, 5, 100, 1e6)
	sim, err := NewSimulation(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddFlowPath([]int{0, 1, 2, 3, 4}, 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddFlowPath([]int{0}, 1024); err == nil {
		t.Error("single-node path should error")
	}
	if _, err := sim.AddFlowPath([]int{0, 9, 4}, 1024); err == nil {
		t.Error("path through a node not in the network should error")
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[0].Completed {
		t.Error("flow incomplete")
	}
	if res.Flows[0].PathNodes != 5 {
		t.Errorf("path nodes = %d, want 5", res.Flows[0].PathNodes)
	}
}

func TestPickFlowEndpoints(t *testing.T) {
	cfg := DefaultConfig()
	net, err := NewRandomNetwork(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, dst, err := net.PickFlowEndpoints(3)
	if err != nil {
		t.Fatal(err)
	}
	if src == dst {
		t.Error("src == dst")
	}
	route, err := net.PlanGreedyRoute(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) < 3 {
		t.Errorf("route = %v, want at least one relay", route)
	}
}

func TestPickFlowEndpointsSparseFails(t *testing.T) {
	// Two isolated clusters: no routable pair with a relay.
	nodes := []Node{
		{ID: 0, X: 0, Y: 0, Joules: 1},
		{ID: 1, X: 5000, Y: 5000, Joules: 1},
	}
	net, err := NewNetwork(nodes, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.PickFlowEndpoints(1); err == nil {
		t.Error("want error on unroutable network")
	}
}

func TestLifetimeThroughPublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = StrategyMaxLifetime
	cfg.Mode = ModeInformed
	cfg.StopOnFirstDeath = true
	nodes := []Node{
		{ID: 0, X: 0, Y: 0, Joules: 1e4},
		{ID: 1, X: 50, Y: 0, Joules: 100},
		{ID: 2, X: 250, Y: 0, Joules: 1e4},
	}
	net, err := NewNetwork(nodes, 200)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddFlowPath([]int{0, 1, 2}, 100<<20); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDeathSeconds < 0 {
		t.Fatal("expected the relay to die")
	}
	if res.Flows[0].LifetimeSeconds != res.FirstDeathSeconds {
		t.Error("flow lifetime should equal first death time")
	}
	// The relay should have relocated downstream before dying.
	if res.After[1].X <= nodes[1].X {
		t.Errorf("relay did not move downstream: x = %v", res.After[1].X)
	}
}

func TestNetworkReuse(t *testing.T) {
	// The same Network can seed multiple simulations; runs must not
	// contaminate each other.
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	net := lineNetwork(t, 4, 100, 1e6)
	for i := 0; i < 2; i++ {
		sim, err := NewSimulation(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.AddFlow(0, 3, 1024*100); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range net.Nodes() {
		if n.Joules != 1e6 {
			t.Errorf("network mutated: node %d has %v J", n.ID, n.Joules)
		}
	}
}

func TestSimulationNilNetwork(t *testing.T) {
	if _, err := NewSimulation(DefaultConfig(), nil); err == nil {
		t.Error("nil network should error")
	}
}
