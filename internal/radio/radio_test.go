package radio

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// testNode is a minimal Endpoint for medium tests.
type testNode struct {
	pos      geom.Point
	battery  *energy.Battery
	received []receipt
}

type receipt struct {
	from NodeID
	msg  any
}

func (n *testNode) Position() geom.Point      { return n.pos }
func (n *testNode) Battery() *energy.Battery  { return n.battery }
func (n *testNode) Receive(from int, msg any) { n.received = append(n.received, receipt{from, msg}) }

var _ Endpoint = (*testNode)(nil)

func defaultConfig() Config {
	return Config{Tx: energy.DefaultTxModel(), Range: 200}
}

func setup(t *testing.T, cfg Config, positions ...geom.Point) (*sim.Scheduler, *Medium, []*testNode) {
	t.Helper()
	sched := sim.NewScheduler()
	m, err := NewMedium(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testNode, len(positions))
	for i, p := range positions {
		nodes[i] = &testNode{pos: p, battery: energy.NewBattery(100)}
		if err := m.Register(i, nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sched, m, nodes
}

func TestUnicastDeliversAndCharges(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	const bits = 8000.0
	if err := m.Unicast(0, 1, bits, energy.CatTx, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Fatalf("received %d messages, want 1", len(nodes[1].received))
	}
	if nodes[1].received[0].from != 0 || nodes[1].received[0].msg != "hello" {
		t.Errorf("receipt = %+v", nodes[1].received[0])
	}
	want := energy.DefaultTxModel().TxEnergy(100, bits)
	if got := nodes[0].battery.Spent(energy.CatTx); math.Abs(got-want) > 1e-12 {
		t.Errorf("sender spent %v, want %v", got, want)
	}
	if got := nodes[1].battery.TotalSpent(); got != 0 {
		t.Errorf("receiver spent %v, want 0 (tx-only model)", got)
	}
}

func TestUnicastPowerControl(t *testing.T) {
	// Energy scales with actual distance, not with range.
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 190))
	if err := m.Unicast(0, 1, 1000, energy.CatTx, 1); err != nil {
		t.Fatal(err)
	}
	near := nodes[0].battery.Spent(energy.CatTx)
	if err := m.Unicast(0, 2, 1000, energy.CatTx, 2); err != nil {
		t.Fatal(err)
	}
	far := nodes[0].battery.Spent(energy.CatTx) - near
	if far <= near {
		t.Errorf("far hop (%v J) should cost more than near hop (%v J)", far, near)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(201, 0))
	err := m.Unicast(0, 1, 1000, energy.CatTx, nil)
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if nodes[0].battery.TotalSpent() != 0 {
		t.Error("failed transmission should not consume energy")
	}
	if m.Stats().RangeDrops != 1 {
		t.Errorf("RangeDrops = %d, want 1", m.Stats().RangeDrops)
	}
}

func TestUnicastExactRange(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(200, 0))
	if err := m.Unicast(0, 1, 100, energy.CatTx, nil); err != nil {
		t.Fatalf("distance == range should work, got %v", err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Error("message not delivered at exact range")
	}
}

func TestUnicastUnknownNodes(t *testing.T) {
	_, m, _ := setup(t, defaultConfig(), geom.Pt(0, 0))
	if err := m.Unicast(0, 99, 10, energy.CatTx, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown receiver err = %v", err)
	}
	if err := m.Unicast(99, 0, 10, energy.CatTx, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown sender err = %v", err)
	}
}

func TestUnicastSenderDies(t *testing.T) {
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	nodes[0].battery = energy.NewBattery(1e-9) // nearly empty
	err := m.Unicast(0, 1, 1e9, energy.CatTx, nil)
	if !errors.Is(err, energy.ErrDepleted) {
		t.Fatalf("err = %v, want ErrDepleted", err)
	}
	if !nodes[0].battery.Depleted() {
		t.Error("sender should be depleted")
	}
	if len(nodes[1].received) != 0 {
		t.Error("dying sender should not deliver")
	}
	if m.Stats().DeadDrops != 1 {
		t.Errorf("DeadDrops = %d, want 1", m.Stats().DeadDrops)
	}
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(),
		geom.Pt(0, 0),   // sender
		geom.Pt(100, 0), // in range
		geom.Pt(0, 150), // in range
		geom.Pt(500, 0), // out of range
	)
	n, err := m.Broadcast(0, 800, energy.CatControl, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("reached %d receivers, want 2", n)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 || len(nodes[2].received) != 1 {
		t.Error("in-range nodes should receive the broadcast")
	}
	if len(nodes[3].received) != 0 {
		t.Error("out-of-range node should not receive")
	}
	if len(nodes[0].received) != 0 {
		t.Error("sender should not hear its own broadcast")
	}
}

func TestControlTrafficFreeByDefault(t *testing.T) {
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m.Broadcast(0, 800, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Unicast(0, 1, 800, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].battery.TotalSpent(); got != 0 {
		t.Errorf("control traffic cost %v J, want 0 (paper default)", got)
	}
}

func TestControlTrafficChargedWhenConfigured(t *testing.T) {
	cfg := defaultConfig()
	cfg.ChargeControl = true
	_, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m.Broadcast(0, 800, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	want := energy.DefaultTxModel().TxEnergy(200, 800) // full-range power
	if got := nodes[0].battery.Spent(energy.CatControl); math.Abs(got-want) > 1e-12 {
		t.Errorf("control broadcast cost %v, want %v", got, want)
	}
}

func TestBandwidthDelay(t *testing.T) {
	cfg := defaultConfig()
	cfg.Bandwidth = 8000 // bits/sec
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if err := m.Unicast(0, 1, 8000, energy.CatTx, nil); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 0 {
		t.Fatal("delivery should not be synchronous with positive bandwidth delay")
	}
	if err := sched.RunUntil(0.999); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 0 {
		t.Error("delivered before serialization delay elapsed")
	}
	if err := sched.RunUntil(1.0); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Error("not delivered after serialization delay")
	}
}

func TestInRange(t *testing.T) {
	_, m, _ := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(999, 0))
	if !m.InRange(0, 1) {
		t.Error("0-1 should be in range")
	}
	if m.InRange(0, 2) {
		t.Error("0-2 should be out of range")
	}
	if m.InRange(0, 42) {
		t.Error("unknown node is never in range")
	}
}

func TestMediumConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	if _, err := NewMedium(sched, Config{Tx: energy.DefaultTxModel(), Range: 0}); err == nil {
		t.Error("zero range should error")
	}
	if _, err := NewMedium(sched, Config{Tx: energy.DefaultTxModel(), Range: 100, Bandwidth: -1}); err == nil {
		t.Error("negative bandwidth should error")
	}
	if _, err := NewMedium(sched, Config{Tx: energy.TxModel{A: -1, B: 1, Alpha: 2}, Range: 100}); err == nil {
		t.Error("invalid tx model should error")
	}
	if _, err := NewMedium(nil, defaultConfig()); err == nil {
		t.Error("nil scheduler should error")
	}
	m, err := NewMedium(sched, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(1, nil); err == nil {
		t.Error("nil endpoint should error")
	}
}

func TestStatsCounts(t *testing.T) {
	sched, m, _ := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	for i := 0; i < 3; i++ {
		if err := m.Unicast(0, 1, 10, energy.CatTx, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Broadcast(1, 10, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Unicasts != 3 || s.Broadcasts != 1 || s.Delivered != 4 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPositionConsultedAtSendTime(t *testing.T) {
	// A node that moved out of range since registration must not be
	// reachable: the medium reads positions lazily.
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	nodes[1].pos = geom.Pt(5000, 0)
	if err := m.Unicast(0, 1, 10, energy.CatTx, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v, want ErrOutOfRange after move", err)
	}
}

func TestRxCostChargedWhenConfigured(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = 1e-7
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if err := m.Unicast(0, 1, 8000, energy.CatTx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1e-7 * 8000
	if got := nodes[1].battery.Spent(energy.CatRx); math.Abs(got-want) > 1e-12 {
		t.Errorf("receiver spent %v on rx, want %v", got, want)
	}
	if len(nodes[1].received) != 1 {
		t.Error("message should still be delivered")
	}
}

func TestRxCostOffByDefault(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	if err := m.Unicast(0, 1, 8000, energy.CatTx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].battery.Spent(energy.CatRx); got != 0 {
		t.Errorf("rx charged %v with RxPerBit=0", got)
	}
}

func TestRxCostKillsReceiverAndDropsMessage(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = 1
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	nodes[1].battery = energy.NewBattery(10) // can't afford 8000 J of rx
	if err := m.Unicast(0, 1, 8000, energy.CatTx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 0 {
		t.Error("a receiver that died mid-reception must not get the message")
	}
	if !nodes[1].battery.Depleted() {
		t.Error("receiver should be depleted")
	}
	if m.Stats().DeadDrops != 1 {
		t.Errorf("DeadDrops = %d, want 1", m.Stats().DeadDrops)
	}
}

func TestRxCostControlFreeUnlessCharged(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = 1e-7
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m.Broadcast(0, 800, energy.CatControl, "beacon"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].battery.Spent(energy.CatRx); got != 0 {
		t.Errorf("control rx charged %v without ChargeControl", got)
	}
	cfg.ChargeControl = true
	sched2, m2, nodes2 := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m2.Broadcast(0, 800, energy.CatControl, "beacon"); err != nil {
		t.Fatal(err)
	}
	if err := sched2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes2[1].battery.Spent(energy.CatRx); got <= 0 {
		t.Error("control rx should be charged with ChargeControl")
	}
}

func TestNegativeRxCostRejected(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = -1
	if _, err := NewMedium(sim.NewScheduler(), cfg); err == nil {
		t.Error("negative rx cost should fail validation")
	}
}

// alternateDrops is a scripted fault hook that logs every delivery it is
// asked about and loses every other one.
type alternateDrops struct{ calls [][2]NodeID }

func (a *alternateDrops) Drop(from, to NodeID, _, _ float64) bool {
	a.calls = append(a.calls, [2]NodeID{from, to})
	return len(a.calls)%2 == 1
}

// scanLocator is a brute-force Locator over a fixed endpoint set.
type scanLocator []*testNode

func (l scanLocator) AppendInRange(dst []int, p geom.Point, r float64) []int {
	for id, n := range l {
		if n.pos.Dist(p) <= r {
			dst = append(dst, id)
		}
	}
	return dst
}

// TestAppendBroadcastMatchesBroadcast checks that AppendBroadcast reports
// exactly the receivers Broadcast hands the message to, asks the fault
// hook about the same deliveries in the same order, and leaves the same
// counters — with and without a locator, and with a receiver that dies
// paying its receive-side energy.
func TestAppendBroadcastMatchesBroadcast(t *testing.T) {
	positions := []geom.Point{
		geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(0, 60), geom.Pt(-70, 10),
		geom.Pt(20, -90), geom.Pt(400, 0), geom.Pt(120, 120), geom.Pt(-30, -30),
	}
	for _, withLocator := range []bool{false, true} {
		run := func(appendOnly bool) ([]NodeID, []*testNode, *alternateDrops, Stats) {
			hook := &alternateDrops{}
			cfg := defaultConfig()
			cfg.Faults = hook
			cfg.ChargeControl = true
			cfg.RxPerBit = 1e-3
			sched, m, nodes := setup(t, cfg, positions...)
			nodes[7].battery = energy.NewBattery(0.1) // dies receiving 800 bits
			if withLocator {
				m.UseLocator(scanLocator(nodes))
			}
			var reached []NodeID
			for _, from := range []NodeID{0, 2, 6} {
				if appendOnly {
					var err error
					if reached, err = m.AppendBroadcast(reached, from, 800, energy.CatControl); err != nil {
						t.Fatal(err)
					}
				} else if _, err := m.Broadcast(from, 800, energy.CatControl, from); err != nil {
					t.Fatal(err)
				}
			}
			if err := sched.Run(); err != nil {
				t.Fatal(err)
			}
			return reached, nodes, hook, m.Stats()
		}
		reached, _, appendHook, appendStats := run(true)
		_, nodes, hook, stats := run(false)
		var received []NodeID
		for _, from := range []NodeID{0, 2, 6} {
			for id, n := range nodes {
				for _, r := range n.received {
					if r.from == from {
						received = append(received, id)
					}
				}
			}
		}
		if !slices.Equal(reached, received) {
			t.Errorf("locator %v: AppendBroadcast reached %v, Broadcast delivered to %v", withLocator, reached, received)
		}
		if !slices.Equal(appendHook.calls, hook.calls) {
			t.Errorf("locator %v: fault hook calls %v, want %v", withLocator, appendHook.calls, hook.calls)
		}
		if appendStats != stats {
			t.Errorf("locator %v: stats %+v, want %+v", withLocator, appendStats, stats)
		}
		if stats.FaultDrops == 0 || stats.DeadDrops == 0 {
			t.Errorf("locator %v: scene lost nothing (%+v)", withLocator, stats)
		}
	}
}

// TestAppendBroadcastToMatchesAppendBroadcast checks that a broadcast
// whose receivers the caller resolved ahead of time is accounted exactly
// like one the medium locates itself: the same reached IDs, counters,
// fault-hook calls in the same order and battery charges, on an ideal
// channel, a lossy one with a scripted hook, and one that charges
// receivers (where a receiver dies paying and a sender dies keying up).
func TestAppendBroadcastToMatchesAppendBroadcast(t *testing.T) {
	positions := []geom.Point{
		geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(0, 60), geom.Pt(-70, 10),
		geom.Pt(20, -90), geom.Pt(400, 0), geom.Pt(120, 120), geom.Pt(-30, -30),
	}
	senders := []NodeID{0, 2, 6, 5, 3}
	scenes := []struct {
		name   string
		lossy  bool
		charge bool
	}{
		{"ideal", false, false},
		{"lossy", true, false},
		{"rx-charged", false, true},
	}
	for _, sc := range scenes {
		t.Run(sc.name, func(t *testing.T) {
			run := func(resolved bool) ([]NodeID, []error, [][2]NodeID, Stats, []float64) {
				hook := &alternateDrops{}
				cfg := defaultConfig()
				if sc.lossy {
					cfg.Faults = hook
				}
				if sc.charge {
					cfg.ChargeControl = true
					cfg.RxPerBit = 1e-3
				}
				_, m, nodes := setup(t, cfg, positions...)
				nodes[7].battery = energy.NewBattery(0.1) // dies receiving 800 bits
				nodes[3].battery = energy.NewBattery(0)   // dies keying up, if charged
				loc := scanLocator(nodes)
				m.UseLocator(loc)
				var reached []NodeID
				var errs []error
				for _, from := range senders {
					var err error
					if resolved {
						ids := loc.AppendInRange(nil, nodes[from].pos, cfg.Range)
						reached, err = m.AppendBroadcastTo(reached, from, ids, 800, energy.CatControl)
					} else {
						reached, err = m.AppendBroadcast(reached, from, 800, energy.CatControl)
					}
					errs = append(errs, err)
				}
				spent := make([]float64, len(nodes))
				for i, n := range nodes {
					spent[i] = n.battery.TotalSpent()
				}
				return reached, errs, hook.calls, m.Stats(), spent
			}
			reached, errs, calls, stats, spent := run(true)
			wantReached, wantErrs, wantCalls, wantStats, wantSpent := run(false)
			if !slices.Equal(reached, wantReached) {
				t.Errorf("reached %v, want %v", reached, wantReached)
			}
			for i := range errs {
				if (errs[i] == nil) != (wantErrs[i] == nil) || errs[i] != nil && errs[i].Error() != wantErrs[i].Error() {
					t.Errorf("sender %d: error %v, want %v", senders[i], errs[i], wantErrs[i])
				}
			}
			if !slices.Equal(calls, wantCalls) {
				t.Errorf("fault hook calls %v, want %v", calls, wantCalls)
			}
			if stats != wantStats {
				t.Errorf("stats %+v, want %+v", stats, wantStats)
			}
			if !slices.Equal(spent, wantSpent) {
				t.Errorf("battery draw %v, want %v", spent, wantSpent)
			}
			if stats.Delivered == 0 {
				t.Fatal("nothing delivered: the scene exercises nothing")
			}
			if sc.lossy && stats.FaultDrops == 0 || sc.charge && stats.DeadDrops < 2 {
				t.Errorf("scene lost less than it should (%+v)", stats)
			}
		})
	}
}
