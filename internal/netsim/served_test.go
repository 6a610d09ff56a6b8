package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/mobility"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topo"
)

// servedFlowHops is the shortest-path length of a served-shaped job's
// flow, as in perfbench's served-mixed documents.
const servedFlowHops = 4

// buildServedWorld builds one served-shaped job from the parameters of
// the documents perfbench's served-mixed workload submits, fixed at the
// middle of their ranges: 100 nodes (they draw 90–110) uniform on a
// 1000 m field with 5–10 kJ each, one 16 MB flow (12–20 MB) between
// the first node pair (in ID order) whose shortest path has four hops
// and which the greedy planner routes, discovered by AODV, over a 10%
// lossy channel with the retry transport (5 retries, 0.5 s timeout) and
// route repair, sampled every 60 s. Only the flow's few nodes move or
// spend energy; the rest sit still through ~16,000 HELLO rounds.
func buildServedWorld(tb testing.TB, seed int64) *World {
	tb.Helper()
	const nodes, field = 100, 1000.0
	src := stats.NewSource(seed)
	pts := topo.PlaceUniform(src, nodes, field, field)
	energies := make([]float64, nodes)
	for i := range energies {
		energies[i] = src.Uniform(5000, 10000)
	}
	cfg, err := DefaultConfig().WithStrategy(mobility.MinEnergy{}.Name(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Faults = &fault.Config{LossP: 0.1, Seed: seed + 1, RetryLimit: 5, RetryTimeout: 0.5, RouteRepair: true}
	cfg.SampleInterval = 60
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	for s := range nodes {
		for d := range nodes {
			if hops, err := g.HopPath(s, d); err != nil || len(hops) != servedFlowHops+1 {
				continue
			}
			if _, err := (routing.GreedyPlanner{}).PlanRoute(g, s, d); err != nil {
				continue
			}
			path, err := w.DiscoverPath(s, d)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := w.AddFlow(FlowSpec{Src: s, Dst: d, LengthBits: 16000 * 1024 * 8, Path: path}); err != nil {
				tb.Fatal(err)
			}
			return w
		}
	}
	tb.Fatalf("seed %d: no %d-hop greedy-routable pair", seed, servedFlowHops)
	return nil
}

// Golden values of the served-shaped job of seed 1. The Result digest,
// broadcasts and rounds were captured from the every-node drift scan,
// which made servedFullScans shouldBeacon evaluations (100 live nodes
// every round); the touched-set walk makes servedScans.
const (
	goldenServedDigest     = "64a42e0af0daa6f4"
	goldenServedBroadcasts = 312
	goldenServedRounds     = 16383
	servedFullScans        = 1638300
	servedScans            = 38634
)

// TestServedScanCount pins the drift scan's work on a served-shaped job:
// the shouldBeacon evaluations of the whole run, exactly, and below a
// tenth of live nodes × rounds, with the Result unchanged.
func TestServedScanCount(t *testing.T) {
	w := buildServedWorld(t, 1)
	rounds, liveRounds := 0, uint64(0)
	w.afterRound = touchedOracle(t, w, func() {
		rounds++
		for _, dead := range w.store.dead {
			if !dead {
				liveRounds++
			}
		}
	})
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:8]); got != goldenServedDigest {
		t.Errorf("result digest %s, want %s", got, goldenServedDigest)
	}
	if res.Medium.Broadcasts != goldenServedBroadcasts || rounds != goldenServedRounds || liveRounds != servedFullScans {
		t.Errorf("broadcasts/rounds/live node-rounds = %d/%d/%d, want %d/%d/%d", res.Medium.Broadcasts, rounds, liveRounds,
			goldenServedBroadcasts, goldenServedRounds, servedFullScans)
	}
	if w.beaconScans != servedScans || w.beaconScans*10 >= liveRounds {
		t.Errorf("%d beacon scans, want %d (and below a tenth of the %d live node-rounds)", w.beaconScans, servedScans, liveRounds)
	}
}

// BenchmarkServedJob runs the served-shaped job of seed 1 per op, set-up
// (placement, seeding, AODV discovery) untimed, and reports the drift
// scan's shouldBeacon evaluations as beacon-scans/op: a deterministic
// count, which benchgate fails on any change.
func BenchmarkServedJob(b *testing.B) {
	var scans uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := buildServedWorld(b, 1)
		b.StartTimer()
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
		scans += w.beaconScans
	}
	b.ReportMetric(float64(scans)/float64(b.N), "beacon-scans/op")
}
