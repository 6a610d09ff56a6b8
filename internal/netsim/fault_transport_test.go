package netsim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// faultChainCfg returns a no-mobility chain configuration with the given
// fault layer installed.
func faultChainCfg(fc *fault.Config) Config {
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	cfg.Faults = fc
	return cfg
}

func TestValidateRejectsDirectRadioFaults(t *testing.T) {
	cfg := DefaultConfig()
	in, err := fault.NewInjector(&fault.Config{LossP: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Radio.Faults = in
	if err := cfg.Validate(); err == nil {
		t.Error("Config with Radio.Faults set directly should fail validation")
	}
}

// TestSilentLossReducesDelivery covers the no-retry path: scripted loss
// drops exactly one data packet, the watchdog ends the otherwise-stuck
// run, and the delivery ratio reflects the loss.
func TestSilentLossReducesDelivery(t *testing.T) {
	// Drop only the 3rd data transmission on the first hop. Evaluations
	// are per-unicast, and a 3-node chain relays each packet twice, so
	// the script targets evaluation index 4 (packets 0,1 clean, packet
	// 2's first hop dropped).
	script := []bool{false, false, false, false, true}
	cfg := faultChainCfg(&fault.Config{Script: script})
	res := runChainFlow(t, cfg, 3, 0, 1e6, 8192*10) // 10 packets
	out := res.Outcome()

	if out.PacketsEmitted != 10 {
		t.Fatalf("emitted %d packets, want 10", out.PacketsEmitted)
	}
	if out.PacketsDropped != 1 {
		t.Fatalf("dropped %d packets, want 1", out.PacketsDropped)
	}
	if want := 0.9; math.Abs(out.DeliveryRatio()-want) > 1e-9 {
		t.Errorf("delivery ratio %v, want %v", out.DeliveryRatio(), want)
	}
	if out.Completed {
		t.Error("flow with a lost packet reported complete")
	}
	if res.Faults.Dropped != 1 {
		t.Errorf("injector dropped %d, want 1", res.Faults.Dropped)
	}
	// No retry transport: all its counters must stay zero.
	if res.Transport != (metrics.TransportStats{}) {
		t.Errorf("transport counters %+v on a retry-less run, want zeros", res.Transport)
	}
	if res.Medium.FaultDrops != 1 {
		t.Errorf("medium fault drops = %d, want 1", res.Medium.FaultDrops)
	}
}

// TestRetryRecoversLoss covers the transport's happy path: a scripted
// data loss is repaired by one retransmission and the flow completes.
func TestRetryRecoversLoss(t *testing.T) {
	// Drop the very first data transmission; the retransmission and
	// everything after it go through clean.
	script := []bool{true}
	cfg := faultChainCfg(&fault.Config{
		Script: script, RetryLimit: 3, RetryTimeout: 0.25,
	})
	res := runChainFlow(t, cfg, 3, 0, 1e6, 8192*5) // 5 packets
	out := res.Outcome()

	if !out.Completed {
		t.Fatalf("flow did not complete: %+v", out)
	}
	if out.PacketsDropped != 0 {
		t.Errorf("dropped %d packets, want 0", out.PacketsDropped)
	}
	if out.DeliveryRatio() != 1 {
		t.Errorf("delivery ratio %v, want 1", out.DeliveryRatio())
	}
	if res.Transport.Retransmits != 1 {
		t.Errorf("retransmits = %d, want 1", res.Transport.Retransmits)
	}
	// Every data reception on every hop is acked, and none are lost after
	// the script is consumed.
	wantAcks := uint64(out.PacketsEmitted) * uint64(out.PathLen-1)
	if res.Transport.Acks != wantAcks {
		t.Errorf("acks = %d, want %d (%d packets over %d hops)",
			res.Transport.Acks, wantAcks, out.PacketsEmitted, out.PathLen-1)
	}
	if res.Transport.LinkBreaks != 0 {
		t.Errorf("link breaks = %d, want 0", res.Transport.LinkBreaks)
	}
}

// TestRetryExhaustionDropsPacket covers the failure path: a hop that
// loses the data retryLimit+1 times declares the link broken and, with
// repair disabled, accounts the packet dropped. Later packets are clean.
func TestRetryExhaustionDropsPacket(t *testing.T) {
	const limit = 2
	// First packet's first hop: initial tx + 2 retries, all dropped.
	script := []bool{true, true, true}
	cfg := faultChainCfg(&fault.Config{
		Script: script, RetryLimit: limit, RetryTimeout: 0.25,
	})
	tracer := trace.New(1 << 12)
	cfg.Sink = tracer
	res := runChainFlow(t, cfg, 3, 0, 1e6, 8192*4) // 4 packets
	out := res.Outcome()

	if out.PacketsDropped != 1 {
		t.Fatalf("dropped %d packets, want 1: %+v", out.PacketsDropped, out)
	}
	if res.Transport.Retransmits != limit {
		t.Errorf("retransmits = %d, want %d", res.Transport.Retransmits, limit)
	}
	if res.Transport.LinkBreaks != 1 {
		t.Errorf("link breaks = %d, want 1", res.Transport.LinkBreaks)
	}
	if res.Transport.RouteRepairs != 0 {
		t.Errorf("route repairs = %d, want 0 with repair disabled", res.Transport.RouteRepairs)
	}
	if got := tracer.CountKind(trace.KindLinkBreak); got != 1 {
		t.Errorf("link-break trace events = %d, want 1", got)
	}
	if out.Completed {
		t.Error("flow with an exhausted packet reported complete")
	}
}

// TestDuplicateDataSuppressed covers ack loss: the data arrives, the ack
// is lost, the sender retransmits, and the receiver suppresses (and
// re-acks) the duplicate instead of processing it twice.
func TestDuplicateDataSuppressed(t *testing.T) {
	// data(0→1) clean, ack(1→0) dropped; the retransmitted data is a
	// duplicate at node 1, whose re-ack goes through.
	script := []bool{false, true}
	cfg := faultChainCfg(&fault.Config{
		Script: script, RetryLimit: 3, RetryTimeout: 0.25,
	})
	res := runChainFlow(t, cfg, 3, 0, 1e6, 8192*3) // 3 packets
	out := res.Outcome()

	if !out.Completed {
		t.Fatalf("flow did not complete: %+v", out)
	}
	if out.PacketsEmitted != 3 || out.PacketsDropped != 0 {
		t.Fatalf("emitted/dropped = %d/%d, want 3/0", out.PacketsEmitted, out.PacketsDropped)
	}
	if res.Transport.DupData != 1 {
		t.Errorf("dup data = %d, want 1", res.Transport.DupData)
	}
	if res.Transport.Retransmits != 1 {
		t.Errorf("retransmits = %d, want 1", res.Transport.Retransmits)
	}
	// The duplicate must not be double-delivered or double-forwarded:
	// exactly 3 packets' worth of payload arrives.
	if math.Abs(out.DeliveredBits-3*8192) > 1e-6 {
		t.Errorf("delivered %v bits, want %v", out.DeliveredBits, 3*8192.0)
	}
}

// TestStrayAckCounted covers the dup-ack counter: an ack that matches no
// pending transmission is counted and otherwise ignored.
func TestStrayAckCounted(t *testing.T) {
	cfg := faultChainCfg(&fault.Config{RetryLimit: 1, RetryTimeout: 0.25})
	w := chainWorld(t, cfg, 3, 0, 1e6)
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 2, LengthBits: 8192}); err != nil {
		t.Fatal(err)
	}
	w.nodes[0].Receive(1, &ackPacket{flow: 1, seq: 99})
	if w.transport.DupAcks != 1 {
		t.Errorf("dup acks = %d, want 1", w.transport.DupAcks)
	}
}

// TestCrashMidFlowReroutes covers route repair: the active relay of a
// diamond topology crashes mid-flow and the world re-plans the path
// through the surviving relay, letting the flow finish.
func TestCrashMidFlowReroutes(t *testing.T) {
	// Diamond: 0 at the origin, relays 1 and 2, destination 3. Only
	// adjacent pairs are in the 150 m range.
	pts := []geom.Point{
		geom.Pt(0, 0),
		geom.Pt(100, 80),
		geom.Pt(100, -80),
		geom.Pt(200, 0),
	}
	cfg := faultChainCfg(&fault.Config{
		RetryLimit: 3, RetryTimeout: 0.25, RouteRepair: true,
		Crashes: []fault.Crash{{Node: 1, At: 5}},
	})
	cfg.Radio.Range = 150
	tracer := trace.New(1 << 12)
	cfg.Sink = tracer
	energies := []float64{1e6, 1e6, 1e6, 1e6}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 8192 * 20}); err != nil {
		t.Fatal(err)
	}
	path, err := w.FlowPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("initial path %v, want 3 nodes", path)
	}
	usedRelay := path[1]

	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome()
	if !out.Completed {
		t.Fatalf("flow did not complete after reroute: %+v (transport %+v)", out, res.Transport)
	}
	if res.Transport.RouteRepairs == 0 {
		t.Fatal("no route repair recorded")
	}
	newPath, err := w.FlowPath(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, nid := range newPath {
		if nid == usedRelay {
			t.Fatalf("repaired path %v still uses crashed relay %d", newPath, usedRelay)
		}
	}
	if got := tracer.CountKind(trace.KindRouteRepair); got == 0 {
		t.Error("no route-repair trace event recorded")
	}
	// The crash did not repair on a retry exhaustion, so at most the
	// in-flight packet at crash time is lost; everything re-planned.
	if out.DeliveryRatio() < 0.9 {
		t.Errorf("delivery ratio %v after repair, want >= 0.9", out.DeliveryRatio())
	}
}

// TestCrashRecoveryResumesFlow covers node recovery: a chain relay
// crashes (no alternate path, so packets drop) and later recovers, after
// which delivery resumes.
func TestCrashRecoveryResumesFlow(t *testing.T) {
	cfg := faultChainCfg(&fault.Config{RetryLimit: 1, RetryTimeout: 0.25})
	tracer := trace.New(1 << 12)
	cfg.Sink = tracer
	// A bent 5-node arc forces a multi-hop path; crash the flow's first
	// relay through the world-level scheduling API.
	w := chainWorld(t, cfg, 5, 40, 1e6)
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 4, LengthBits: 8192 * 15}); err != nil {
		t.Fatal(err)
	}
	path, err := w.FlowPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 3 {
		t.Fatalf("path %v has no relay to crash", path)
	}
	if err := w.ScheduleNodeFailure(path[1], 3); err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleNodeRecovery(path[1], 8); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome()

	if out.PacketsDropped == 0 {
		t.Error("no packets dropped during the outage")
	}
	if out.PacketsDropped >= out.PacketsEmitted {
		t.Errorf("all %d packets dropped; recovery never resumed delivery", out.PacketsEmitted)
	}
	if got := tracer.CountKind(trace.KindNodeRecovered); got != 1 {
		t.Errorf("node-recovered trace events = %d, want 1", got)
	}
	// Packets emitted after t=8 must have been delivered: the last
	// delivery happens near the end of the flow, not before the crash.
	if out.Duration < 8 {
		t.Errorf("last delivery at %v, want after the recovery at t=8", out.Duration)
	}
}

// TestLossyDeliveryOnPaperScenario is the issue's acceptance criterion:
// on the paper-scale 100-node uniform scenario with 10% per-link loss,
// the retry/ack transport sustains at least 99% delivery.
func TestLossyDeliveryOnPaperScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	cfg.Faults = &fault.Config{
		LossP: 0.1, Seed: 7,
		RetryLimit: 5, RetryTimeout: 0.2,
	}
	src := stats.NewSource(42)
	pts := topo.PlaceUniform(src, 100, 1000, 1000)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(5000, 10000)
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	dst := -1
	for j := 1; j < len(pts); j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 4 {
			dst = j
			break
		}
	}
	if dst < 0 {
		t.Fatal("no routable flow endpoint found")
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: dst, LengthBits: 4e6}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome()
	if ratio := out.DeliveryRatio(); ratio < 0.99 {
		t.Errorf("delivery ratio %v at 10%% loss with retries, want >= 0.99 (transport %+v)", ratio, res.Transport)
	}
	if res.Faults.Dropped == 0 {
		t.Error("injector dropped nothing at p=0.1")
	}
	if res.Transport.Retransmits == 0 {
		t.Error("no retransmissions at p=0.1")
	}
	if got := res.Faults.LossRate(); math.Abs(got-0.1) > 0.03 {
		t.Errorf("observed channel loss rate %v, want ~0.1", got)
	}
}

// TestFaultRunsAreDeterministic reruns an identical lossy crash scenario
// and requires identical observable results.
func TestFaultRunsAreDeterministic(t *testing.T) {
	run := func() Result {
		cfg := faultChainCfg(&fault.Config{
			LossP: 0.2, Seed: 99, MeanBurst: 3,
			RetryLimit: 3, RetryTimeout: 0.25, RouteRepair: true,
			Crashes: []fault.Crash{{Node: 2, At: 4, RecoverAt: 9}},
		})
		return runChainFlow(t, cfg, 5, 40, 1e6, 8192*12)
	}
	a, b := run(), run()
	if a.Transport != b.Transport {
		t.Errorf("transport counters differ: %+v vs %+v", a.Transport, b.Transport)
	}
	if a.Faults != b.Faults {
		t.Errorf("fault counters differ: %+v vs %+v", a.Faults, b.Faults)
	}
	ao, bo := a.Outcome(), b.Outcome()
	if ao.PacketsEmitted != bo.PacketsEmitted || ao.PacketsDropped != bo.PacketsDropped {
		t.Errorf("packet accounting differs: %+v vs %+v", ao, bo)
	}
	if math.Abs(ao.DeliveredBits-bo.DeliveredBits) > 0 {
		t.Errorf("delivered bits differ: %v vs %v", ao.DeliveredBits, bo.DeliveredBits)
	}
	if a.Duration != b.Duration {
		t.Errorf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Event)

func (f sinkFunc) Record(e trace.Event) { f(e) }

// TestCrashedSenderStopsRetransmitting crashes a relay while it holds an
// unacked packet: when the retry timer fires, the dead relay must drop the
// packet once instead of retransmitting it, so its tx ledger stops growing
// at the crash and it declares no link break.
func TestCrashedSenderStopsRetransmitting(t *testing.T) {
	const limit = 2
	// Per-unicast evaluations of packet 1 on the chain 0-1-2-3: data 0→1,
	// ack 1→0, data 1→2, ack 2→1 (lost), data 2→3, ack 3→2. Relay 1 keeps
	// packet 1 pending although it was delivered.
	cfg := faultChainCfg(&fault.Config{
		Script: []bool{false, false, false, true}, RetryLimit: limit, RetryTimeout: 0.5,
		Crashes: []fault.Crash{{Node: 1, At: 0.25}},
	})
	var w *World
	txAtCrash, breaks := -1.0, 0
	cfg.Sink = sinkFunc(func(e trace.Event) {
		switch {
		case e.Kind == trace.KindNodeDied && e.Node == 1:
			txAtCrash = w.nodes[1].battery().Spent(energy.CatTx)
		case e.Kind == trace.KindLinkBreak:
			breaks++
			if e.Node == 1 {
				t.Errorf("crashed relay 1 declared a link break at t=%v", e.At)
			}
		}
	})
	w = chainWorld(t, cfg, 4, 0, 1e6)
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 8192 * 2, Path: []NodeID{0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if txAtCrash < 0 {
		t.Fatal("relay 1 never crashed")
	}
	if tx := w.nodes[1].battery().Spent(energy.CatTx); tx != txAtCrash {
		t.Errorf("crashed relay 1 spent %v J tx after the crash", tx-txAtCrash)
	}
	// Packet 1 is dropped once by the dead relay; packet 2 once by the
	// source, whose retries toward the dead relay exhaust.
	if got := w.flows[0].drops; got != 2 {
		t.Errorf("drops = %d, want 2 (one per packet)", got)
	}
	if breaks != 1 || res.Transport.LinkBreaks != 1 {
		t.Errorf("link breaks = %d traced / %d counted, want 1 (the source's)", breaks, res.Transport.LinkBreaks)
	}
	if res.Transport.Retransmits != limit {
		t.Errorf("retransmits = %d, want %d (the source's only)", res.Transport.Retransmits, limit)
	}
}

// TestRetryTransportMemoryBounded runs long lossless retry flows over a
// 3-hop chain: relay memory must not grow with the flow's length. Every
// duplicate-suppression set stays one window with no holes, every pending
// entry is back on the free list after the run, and a flow ten times
// longer allocates no more.
func TestRetryTransportMemoryBounded(t *testing.T) {
	run := func(packets int) (*World, uint64) {
		cfg := faultChainCfg(&fault.Config{RetryLimit: 3, RetryTimeout: 0.25})
		w := chainWorld(t, cfg, 4, 0, 1e9)
		if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 8192 * float64(packets), Path: []NodeID{0, 1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := w.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if out := res.Outcome(); !out.Completed || out.PathLen != 4 {
			t.Fatalf("%d-packet flow: %+v, want completed over 4 nodes", packets, out)
		}
		if res.Transport.Acks != uint64(3*packets) {
			t.Fatalf("acks = %d, want %d", res.Transport.Acks, 3*packets)
		}
		return w, after.Mallocs - before.Mallocs
	}
	const short, long = 5000, 50000
	_, shortAllocs := run(short)
	w, longAllocs := run(long)
	for _, n := range w.nodes {
		x := n.xport
		if len(x.pending) != 0 {
			t.Errorf("node %d holds %d pending entries after the run", n.id, len(x.pending))
		}
		if n.id == 0 {
			continue // the source never receives its own data
		}
		if len(x.seen) != 1 {
			t.Fatalf("node %d has %d dedup sets, want 1", n.id, len(x.seen))
		}
		if s := x.seen[0]; s.top != long || len(s.holes) != 0 || cap(s.holes) != 0 {
			t.Errorf("node %d dedup set: top %d, %d holes (cap %d); want top %d and none",
				n.id, s.top, len(s.holes), cap(s.holes), long)
		}
	}
	if got := len(w.pendingTxs.free); got == 0 || got > 3 {
		t.Errorf("free list holds %d entries, want 1..3 (at most one per hop)", got)
	}
	if longAllocs > shortAllocs+16 {
		t.Errorf("Run allocated %d times for %d packets vs %d for %d: allocations grow with flow length",
			longAllocs, long, shortAllocs, short)
	}
}
