package netsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/motion"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The BenchmarkWorld100k family pins the scaling target of the
// struct-of-arrays store and data-parallel HELLO rounds: a 100k-node,
// 1000-flow world with ambient mobility must complete in minutes, not
// hours. The smaller rungs are cheap enough for the benchgate ratchet;
// the n100k rung runs once per gate invocation (see the Makefile's
// benchgate targets) so the headline number stays pinned in
// bench_baseline.txt.

// buildScaleWorld places n nodes uniformly at ~15 expected radio
// neighbors, arms ambient Gauss-Markov drift, and adds `flows` short
// flows between endpoints a few hops apart (found by bounded BFS, so
// setup stays linear in n instead of planning cross-field routes).
func buildScaleWorld(tb testing.TB, nodes, flows int) *World {
	tb.Helper()
	const targetDegree = 15
	side := math.Sqrt(float64(nodes) * math.Pi * 200 * 200 / targetDegree)
	src := stats.NewSource(9001)
	pts := topo.PlaceUniform(src, nodes, side, side)
	energies := make([]float64, nodes)
	for i := range energies {
		energies[i] = 1e6
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	cfg.NeighborIndex = spatial.KindGrid
	cfg.Motion = &motion.Config{
		Model: motion.ModelGaussMarkov, Seed: 7,
		FieldW: side, FieldH: side,
		SpeedLo: 0.5, SpeedHi: 1.5,
	}
	cfg.Horizon = 1e5
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	// Deterministic endpoints: BFS four hops out from a rotating start
	// node and pick the last node discovered — a genuine multi-hop flow
	// whose path length is independent of the field size.
	visited := make([]int, nodes)
	for i := range visited {
		visited[i] = -1
	}
	var queue []NodeID
	added := 0
	for start := 0; start < nodes && added < flows; start += nodes/flows + 1 {
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = start
		dst, depth := -1, 0
		frontierEnd := 1
		for i := 0; i < len(queue) && depth < 4; i++ {
			if i == frontierEnd {
				depth++
				frontierEnd = len(queue)
				if depth == 4 {
					break
				}
			}
			for _, nb := range g.Neighbors(queue[i]) {
				if visited[nb] == start {
					continue
				}
				visited[nb] = start
				queue = append(queue, nb)
				dst = nb
			}
		}
		if dst < 0 || dst == start {
			continue
		}
		if _, err := w.AddFlow(FlowSpec{Src: start, Dst: dst, LengthBits: 4 * cfg.PacketBits}); err != nil {
			continue // unroutable corner placement; density makes this rare
		}
		added++
	}
	if added < flows/2 {
		tb.Fatalf("only %d of %d flows routable; placement density off", added, flows)
	}
	return w
}

// BenchmarkWorld100k measures full-world runs across node-count rungs.
// Setup (placement, seeding, flow planning) is untimed;
// the measured region is the event-loop run itself.
func BenchmarkWorld100k(b *testing.B) {
	rungs := []struct {
		name         string
		nodes, flows int
	}{
		{"n5k", 5000, 50},
		{"n20k", 20000, 200},
		{"n100k", 100000, 1000},
	}
	for _, r := range rungs {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := buildScaleWorld(b, r.nodes, r.flows)
				b.StartTimer()
				res, err := w.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Flows) == 0 {
					b.Fatal("no flow outcomes")
				}
			}
		})
	}
}

// TestScaleWorldSmoke keeps the benchmark scenario builder honest in the
// ordinary test run: a scaled-down rung must complete with most flows
// delivered, with identical results when its rounds are forced onto four
// round workers in small windows, which the Makefile's parallel target
// runs under the race detector.
func TestScaleWorldSmoke(t *testing.T) {
	run := func(split *roundSplit) Result {
		w := buildScaleWorld(t, 2000, 20)
		if split != nil {
			w.round = *split
		}
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		if split != nil && w.splitRounds == 0 {
			t.Error("no HELLO round took the forced split")
		}
		return res
	}
	def := run(nil)
	if split := run(&roundSplit{workers: 4, minSenders: 1, window: 256}); !reflect.DeepEqual(split, def) {
		t.Errorf("scale scenario diverged with forced round workers: %+v vs default %+v", split.Energy, def.Energy)
	}
	completed := 0
	for _, fo := range def.Flows {
		if fo.Completed {
			completed++
		}
	}
	if completed < len(def.Flows)/2 {
		t.Errorf("only %d/%d flows completed in scale scenario", completed, len(def.Flows))
	}
}
