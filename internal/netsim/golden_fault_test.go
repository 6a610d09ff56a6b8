package netsim

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// goldenWorldFingerprint runs a canonical 60-node random scenario under the
// given mode and folds every observable outcome — per-node final positions
// and energy ledgers, flow outcomes, medium counters, and per-kind trace
// event counts — into one FNV-1a fingerprint. The golden constants below
// were captured before the fault-injection layer existed; the tests assert
// that a world with Config.Faults == nil still produces bit-identical runs,
// so the fault hooks provably cost nothing when disabled. Optional
// mutators tweak the config before the run (the ambient-motion golden
// test asserts a disabled motion layer hashes identically).
func goldenWorldFingerprint(t *testing.T, mode Mode, mutate ...func(*Config)) uint64 {
	t.Helper()
	fp, _ := splitWorldFingerprint(t, mode, defaultRoundSplit(), mutate...)
	return fp
}

// splitWorldFingerprint is goldenWorldFingerprint with the HELLO rounds
// sized by split; it also returns how many rounds took the data-parallel
// split.
func splitWorldFingerprint(t *testing.T, mode Mode, split roundSplit, mutate ...func(*Config)) (uint64, uint64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	tracer := trace.New(1 << 20)
	cfg.Sink = tracer
	for _, m := range mutate {
		m(&cfg)
	}

	src := stats.NewSource(42)
	pts := topo.PlaceUniform(src, 60, 800, 800)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(5000, 10000)
	}
	w, err := newWorld(cfg, pts, energies, split)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic endpoint selection: the first destination that greedy
	// routing reaches from node 0 with at least one relay in between.
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

	h := fnv.New64a()
	f64 := func(v float64) {
		b := math.Float64bits(v)
		h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24),
			byte(b >> 32), byte(b >> 40), byte(b >> 48), byte(b >> 56)})
	}
	u64 := func(v uint64) { f64(math.Float64frombits(v)) }

	for _, n := range res.Final.Nodes {
		f64(n.Pos.X)
		f64(n.Pos.Y)
		f64(n.Residual)
	}
	f64(res.Energy.Tx)
	f64(res.Energy.Move)
	f64(res.Energy.Control)
	f64(res.Energy.Rx)
	f64(float64(res.Duration))
	f64(float64(res.FirstDeath))
	u64(res.Medium.Unicasts)
	u64(res.Medium.Broadcasts)
	u64(res.Medium.Delivered)
	u64(res.Medium.RangeDrops)
	u64(res.Medium.DeadDrops)
	for _, fo := range res.Flows {
		f64(fo.DeliveredBits)
		f64(float64(fo.Duration))
		u64(uint64(fo.Notifications))
		u64(uint64(fo.StatusFlips))
		u64(uint64(fo.PathLen))
	}
	// Trace event counts per kind pin the event sequence shape.
	counts := make(map[trace.Kind]uint64)
	for _, e := range tracer.Events() {
		counts[e.Kind]++
	}
	for k := trace.KindPacketSent; k <= trace.KindFlowDone; k++ {
		u64(counts[k])
	}
	return h.Sum64(), w.splitRounds
}

// Golden fingerprints of the canonical scenario captured on the pre-fault
// ideal-channel simulator. A change here means zero-fault behavior drifted.
// The informed run sends no HELLO after seeding, so it pins no HELLO
// round; TestGoldenActiveMotion's informed scenes do.
const (
	goldenInformedFingerprint    uint64 = 0x6b113cbbced240d3
	goldenCostUnawareFingerprint uint64 = 0x1e76bc6d4d6c30b7
)

func TestGoldenZeroFaultInformed(t *testing.T) {
	got := goldenWorldFingerprint(t, ModeInformed)
	if got != goldenInformedFingerprint {
		t.Fatalf("zero-fault informed run fingerprint = %#x, want %#x (behavior drifted from the ideal-channel seed)",
			got, goldenInformedFingerprint)
	}
}

func TestGoldenZeroFaultCostUnaware(t *testing.T) {
	got := goldenWorldFingerprint(t, ModeCostUnaware)
	if got != goldenCostUnawareFingerprint {
		t.Fatalf("zero-fault cost-unaware run fingerprint = %#x, want %#x (behavior drifted from the ideal-channel seed)",
			got, goldenCostUnawareFingerprint)
	}
}
