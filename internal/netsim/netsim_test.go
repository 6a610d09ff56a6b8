package netsim

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/topo"
	"repro/internal/trace"
)

// chainWorld builds a world over an n-node zigzag relay chain with the
// given per-node energy.
func chainWorld(t *testing.T, cfg Config, n int, bend, nodeEnergy float64) *World {
	t.Helper()
	pts := topo.PlaceArc(n, geom.Pt(0, 0), geom.Pt(float64(n-1)*100, 0), bend)
	energies := make([]float64, n)
	for i := range energies {
		energies[i] = nodeEnergy
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runChainFlow(t *testing.T, cfg Config, n int, bend, nodeEnergy, flowBits float64) Result {
	t.Helper()
	w := chainWorld(t, cfg, n, bend, nodeEnergy)
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: n - 1, LengthBits: flowBits}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoMobilityFlowCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	res := runChainFlow(t, cfg, 5, 40, 1000, 8e5) // 100 KB
	out := res.Outcome()
	if !out.Completed {
		t.Fatalf("flow did not complete: %+v", out)
	}
	if math.Abs(out.DeliveredBits-8e5) > 1e-6 {
		t.Errorf("delivered %v bits, want 8e5", out.DeliveredBits)
	}
	if res.Energy.Move != 0 {
		t.Errorf("no-mobility mode consumed %v J moving", res.Energy.Move)
	}
	// Positions unchanged.
	for i := range res.Initial.Nodes {
		if !res.Initial.Nodes[i].Pos.Eq(res.Final.Nodes[i].Pos) {
			t.Errorf("node %d moved in no-mobility mode", i)
		}
	}
	if res.FirstDeath >= 0 {
		t.Errorf("unexpected death at %v", res.FirstDeath)
	}
}

func TestEnergyConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	res := runChainFlow(t, cfg, 5, 40, 1000, 8e5)
	initial := res.Initial.TotalResidual()
	final := res.Final.TotalResidual()
	if math.Abs(initial-(final+res.Energy.Total())) > 1e-6 {
		t.Errorf("energy not conserved: initial %v, final %v + consumed %v",
			initial, final, res.Energy.Total())
	}
}

func TestCostUnawareStraightensChain(t *testing.T) {
	// Paper Fig 5(b): relays converge onto the line, evenly spaced.
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	w := chainWorld(t, cfg, 5, 40, 1e6)
	id, err := w.AddFlow(FlowSpec{Src: 0, Dst: 4, LengthBits: 8e6}) // 1 MB
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	path, err := w.PathSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if c := geom.Collinearity(path); c > 2 {
		t.Errorf("path not straightened: collinearity %v m (path %v)", c, path)
	}
	if v := geom.SpacingVariation(path); v > 0.05 {
		t.Errorf("spacing uneven: cv = %v (path %v)", v, path)
	}
}

func TestMoveEnergyMatchesDistance(t *testing.T) {
	// Total movement energy must equal K times total distance moved.
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	w := chainWorld(t, cfg, 5, 40, 1e6)
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 4, LengthBits: 8e6}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: each relay moved at least from its start to its final
	// position (straight-line displacement <= path traveled).
	var minDist float64
	for i := range res.Initial.Nodes {
		minDist += res.Initial.Nodes[i].Pos.Dist(res.Final.Nodes[i].Pos)
	}
	if res.Energy.Move < cfg.Mobility.K*minDist-1e-6 {
		t.Errorf("move energy %v below K*displacement %v", res.Energy.Move, cfg.Mobility.K*minDist)
	}
}

func TestInformedShortFlowKeepsMobilityOff(t *testing.T) {
	// Paper Fig 6(a): on short flows iMobif must not pay the movement
	// cost; its total energy should match the no-mobility baseline.
	base := DefaultConfig()
	base.Mode = ModeNoMobility
	baseline := runChainFlow(t, base, 5, 40, 1000, 8e4) // 10 KB

	inf := DefaultConfig()
	inf.Mode = ModeInformed
	informed := runChainFlow(t, inf, 5, 40, 1000, 8e4)

	if informed.Energy.Move > 1e-9 {
		t.Errorf("informed mode moved on a short flow: %v J", informed.Energy.Move)
	}
	ratio := informed.Energy.Total() / baseline.Energy.Total()
	if ratio > 1.001 {
		t.Errorf("short-flow energy ratio = %v, want <= 1", ratio)
	}
}

func TestInformedLongFlowEnablesMobilityAndWins(t *testing.T) {
	// Paper Fig 6 long-flow regime: when the flow is long enough that the
	// Fig 1 estimate favors relocation, iMobif enables mobility and beats
	// the baseline. (The estimate is deliberately myopic — each relay
	// evaluates its strategy target against neighbors' current positions
	// — so the enable threshold sits well above the break-even length;
	// 100 MB on this bent chain clears it.)
	base := DefaultConfig()
	base.Mode = ModeNoMobility
	baseline := runChainFlow(t, base, 5, 60, 1e6, 8e8) // 100 MB

	inf := DefaultConfig()
	inf.Mode = ModeInformed
	informed := runChainFlow(t, inf, 5, 60, 1e6, 8e8)

	if informed.Energy.Move == 0 {
		t.Error("informed mode never moved on a long flow")
	}
	ratio := informed.Energy.Total() / baseline.Energy.Total()
	if ratio >= 1 {
		t.Errorf("long-flow energy ratio = %v, want < 1", ratio)
	}
	if informed.Outcome().StatusFlips == 0 {
		t.Error("expected at least one enable notification to reach the source")
	}
}

func TestCostUnawareWastesEnergyOnShortFlows(t *testing.T) {
	// Paper Fig 6(a)/(b): cost-unaware mobility costs more than it saves
	// on short flows.
	base := DefaultConfig()
	base.Mode = ModeNoMobility
	baseline := runChainFlow(t, base, 5, 40, 1e6, 8e4)

	cu := DefaultConfig()
	cu.Mode = ModeCostUnaware
	unaware := runChainFlow(t, cu, 5, 40, 1e6, 8e4)

	ratio := unaware.Energy.Total() / baseline.Energy.Total()
	if ratio <= 1 {
		t.Errorf("cost-unaware short-flow ratio = %v, want > 1", ratio)
	}
	if unaware.Energy.Move <= unaware.Energy.Tx {
		t.Errorf("on short flows mobility cost (%v) should dominate transmission (%v)",
			unaware.Energy.Move, unaware.Energy.Tx)
	}
}

func TestNotificationCountSmall(t *testing.T) {
	// Paper Fig 7: only a few notifications per flow.
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	res := runChainFlow(t, cfg, 5, 60, 1e6, 8e6)
	out := res.Outcome()
	if out.Notifications > 10 {
		t.Errorf("notifications = %d, want single digits", out.Notifications)
	}
}

func TestMaxLifetimeSpacingTracksEnergy(t *testing.T) {
	// Paper Fig 5(c): under the lifetime strategy, hop length correlates
	// with transmitter residual energy.
	tx := energy.DefaultTxModel()
	table, err := energy.NewPowerTable(tx, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := table.FitAlphaPrime()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware // always move: isolate the placement rule
	cfg.Strategy = mobility.MaxLifetime{AlphaPrime: alpha}

	pts := topo.PlaceLine(5, geom.Pt(0, 0), geom.Pt(400, 0))
	energies := []float64{4000, 1000, 4000, 1000, 4000}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.AddFlow(FlowSpec{Src: 0, Dst: 4, LengthBits: 8e6, Path: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	path, err := w.PathSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	// Transmitters: 0 (4000 J), 1 (~1000 J), 2 (~4000 J), 3 (~1000 J).
	// Hops of high-energy transmitters must be longer than their
	// low-energy successors'.
	d0 := path[0].Dist(path[1])
	d1 := path[1].Dist(path[2])
	d2 := path[2].Dist(path[3])
	d3 := path[3].Dist(path[4])
	if !(d0 > d1 && d2 > d3) {
		t.Errorf("hop lengths %v do not track energies 4000/1000/4000/1000", []float64{d0, d1, d2, d3})
	}
}

func TestLifetimeStopsAtFirstDeath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	cfg.StopOnFirstDeath = true
	// Tiny batteries: a long flow must kill a relay.
	res := runChainFlow(t, cfg, 5, 40, 3, 8e7)
	if res.FirstDeath < 0 {
		t.Fatal("expected a node death")
	}
	out := res.Outcome()
	if out.Completed {
		t.Error("flow should not complete after a relay dies")
	}
	if out.Lifetime() != res.FirstDeath {
		t.Errorf("Lifetime = %v, want first death %v", out.Lifetime(), res.FirstDeath)
	}
}

func TestInformedLifetimeBeatsBaseline(t *testing.T) {
	// Paper Fig 8 direction: with the lifetime strategy, informed
	// mobility extends time-to-first-death on a bent chain with
	// heterogeneous energy.
	tx := energy.DefaultTxModel()
	table, err := energy.NewPowerTable(tx, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := table.FitAlphaPrime()
	if err != nil {
		t.Fatal(err)
	}
	build := func(mode Mode) Result {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Strategy = mobility.MaxLifetime{AlphaPrime: alpha}
		cfg.StopOnFirstDeath = true
		// A rich source, a poor relay stuck near the source with a long
		// hop ahead: Theorem 1 wants the relay far downstream, where its
		// tiny battery lasts an order of magnitude longer even after
		// paying the locomotion cost.
		pts := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(250, 0)}
		energies := []float64{1e4, 100, 1e4}
		w, err := NewWorld(cfg, pts, energies)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 8e8, Path: []int{0, 1, 2}}); err != nil {
			t.Fatal(err)
		}
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := build(ModeNoMobility)
	informed := build(ModeInformed)
	if baseline.FirstDeath < 0 {
		t.Fatal("baseline should see a death")
	}
	ratio := float64(informed.Outcome().Lifetime()) / float64(baseline.Outcome().Lifetime())
	if ratio <= 1 {
		t.Errorf("lifetime ratio = %v, want > 1", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := DefaultConfig()
		cfg.Mode = ModeInformed
		return runChainFlow(t, cfg, 6, 50, 1e5, 8e6)
	}
	a, b := run(), run()
	if a.Energy != b.Energy {
		t.Errorf("energy differs across identical runs: %+v vs %+v", a.Energy, b.Energy)
	}
	if a.Duration != b.Duration {
		t.Errorf("duration differs: %v vs %v", a.Duration, b.Duration)
	}
	for i := range a.Final.Nodes {
		if !a.Final.Nodes[i].Pos.Eq(b.Final.Nodes[i].Pos) {
			t.Fatalf("node %d final position differs", i)
		}
	}
}

func TestMultiFlowSharedRelay(t *testing.T) {
	// Two flows crossing at a shared relay (tech-report extension): both
	// must complete, and the relay moves toward a weighted compromise.
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	pts := []geom.Point{
		geom.Pt(0, 0),     // 0: src A
		geom.Pt(0, 200),   // 1: src B
		geom.Pt(150, 100), // 2: shared relay
		geom.Pt(300, 0),   // 3: dst A
		geom.Pt(300, 200), // 4: dst B
	}
	energies := []float64{1e6, 1e6, 1e6, 1e6, 1e6}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 8e5, Path: []int{0, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{Src: 1, Dst: 4, LengthBits: 8e5, Path: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("got %d flow outcomes", len(res.Flows))
	}
	for i, out := range res.Flows {
		if !out.Completed {
			t.Errorf("flow %d incomplete: %+v", i, out)
		}
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	tracer := trace.New(100000)
	cfg.Sink = tracer
	runChainFlow(t, cfg, 5, 40, 1e6, 8e5)
	if tracer.CountKind(trace.KindPacketSent) == 0 {
		t.Error("no packet-sent events traced")
	}
	if tracer.CountKind(trace.KindNodeMoved) == 0 {
		t.Error("no movement events traced")
	}
}

func TestAddFlowValidation(t *testing.T) {
	cfg := DefaultConfig()
	w := chainWorld(t, cfg, 4, 0, 100)
	tests := []struct {
		name string
		spec FlowSpec
	}{
		{"self flow", FlowSpec{Src: 1, Dst: 1, LengthBits: 100}},
		{"bad src", FlowSpec{Src: -1, Dst: 1, LengthBits: 100}},
		{"bad dst", FlowSpec{Src: 0, Dst: 99, LengthBits: 100}},
		{"zero length", FlowSpec{Src: 0, Dst: 3, LengthBits: 0}},
		{"infinite length", FlowSpec{Src: 0, Dst: 3, LengthBits: math.Inf(1)}},
		{"NaN length", FlowSpec{Src: 0, Dst: 3, LengthBits: math.NaN()}},
		{"broken path", FlowSpec{Src: 0, Dst: 3, LengthBits: 100, Path: []int{0, 3}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := w.AddFlow(tt.spec); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestWorldValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewWorld(cfg, []geom.Point{geom.Pt(0, 0)}, []float64{1}); err == nil {
		t.Error("single node should error")
	}
	if _, err := NewWorld(cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := NewWorld(cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, []float64{1, -1}); err == nil {
		t.Error("negative energy should error")
	}
	bad := cfg
	bad.Strategy = nil
	if _, err := NewWorld(bad, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, []float64{1, 1}); err == nil {
		t.Error("nil strategy should error")
	}
}

func TestRunRequiresFlows(t *testing.T) {
	w := chainWorld(t, DefaultConfig(), 3, 0, 100)
	if _, err := w.Run(); err == nil {
		t.Error("Run without flows should error")
	}
}

func TestWorldSingleUse(t *testing.T) {
	w := chainWorld(t, DefaultConfig(), 3, 0, 1e6)
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 8e4}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err == nil {
		t.Error("second Run should error")
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 8e4}); err == nil {
		t.Error("AddFlow after Run should error")
	}
}

func TestConfigModeString(t *testing.T) {
	if ModeNoMobility.String() != "no-mobility" ||
		ModeCostUnaware.String() != "cost-unaware" ||
		ModeInformed.String() != "informed" {
		t.Error("mode names wrong")
	}
	if Mode(0).String() != "Mode(0)" {
		t.Error("unknown mode name wrong")
	}
}

func TestHelloDisabled(t *testing.T) {
	// With beaconing off, the seeded tables must still allow a flow on a
	// static (no-mobility) network.
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	cfg.HelloInterval = 0
	cfg.NeighborTTL = 0
	res := runChainFlow(t, cfg, 4, 30, 1000, 8e4)
	if !res.Outcome().Completed {
		t.Error("flow should complete without beaconing on a static network")
	}
}

func TestControlChargingAblation(t *testing.T) {
	// Cost-unaware mode keeps nodes moving, so triggered-update HELLOs
	// actually fire and the charging difference is observable.
	free := DefaultConfig()
	free.Mode = ModeCostUnaware
	resFree := runChainFlow(t, free, 5, 40, 1e6, 8e5)

	charged := DefaultConfig()
	charged.Mode = ModeCostUnaware
	charged.Radio.ChargeControl = true
	resCharged := runChainFlow(t, charged, 5, 40, 1e6, 8e5)

	if resFree.Energy.Control != 0 {
		t.Errorf("free control traffic cost %v J", resFree.Energy.Control)
	}
	if resCharged.Energy.Control <= 0 {
		t.Error("charged control traffic should consume energy")
	}
}
