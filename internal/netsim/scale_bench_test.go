package netsim

import (
	"reflect"
	"testing"
)

// The BenchmarkWorld100k family pins the scaling target of the
// struct-of-arrays store and data-parallel HELLO rounds: a 100k-node,
// 1000-flow world with ambient mobility must complete in minutes, not
// hours. The smaller rungs are cheap enough for the benchgate ratchet;
// the n100k rung runs once per gate invocation (see the Makefile's
// benchgate targets) so the headline number stays pinned in
// bench_baseline.txt.

// buildScaleWorld builds the scale scene at the benchmark's placement
// seed (9001) and horizon.
func buildScaleWorld(tb testing.TB, nodes, flows int) *World {
	tb.Helper()
	w, err := NewScaleWorld(nodes, flows, 9001, 1e5)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkWorld100k measures full-world runs across node-count rungs.
// Setup (placement, seeding, flow planning) is untimed;
// the measured region is the event-loop run itself. It reports the rows
// written into neighbor tables, set-up included, as table-writes/op, a
// deterministic count.
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
			var writes uint64
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
				writes += w.tableWrites
			}
			b.ReportMetric(float64(writes)/float64(b.N), "table-writes/op")
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
