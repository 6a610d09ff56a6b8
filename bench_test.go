package imobif

// One benchmark per table/figure of the paper's evaluation (§4), plus the
// DESIGN.md ablations and microbenchmarks of the hot paths. Figure benches
// run reduced Monte-Carlo sweeps (the full 100-flow sweeps live behind
// cmd/imobif-figures) and report the figure's headline metrics alongside
// timing, so `go test -bench=.` doubles as a compact results table.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
)

const benchFlows = 8

func benchParamsFig6(b *testing.B, variant string) experiments.Params {
	b.Helper()
	p, err := experiments.ParamsFig6(variant)
	if err != nil {
		b.Fatal(err)
	}
	p.Flows = benchFlows
	p.MaxFlowBits = 4 * p.MeanFlowBits
	return p
}

// BenchmarkFig5Convergence drives a single long flow to steady state under
// both strategies and reports the convergence quality metrics of the
// paper's Figure 5 snapshots.
func BenchmarkFig5Convergence(b *testing.B) {
	p, err := experiments.ParamsFig6("c")
	if err != nil {
		b.Fatal(err)
	}
	var last experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunFig5(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.MinECollinearity, "minE-offline-m")
	b.ReportMetric(last.MinESpacingCV, "minE-spacing-cv")
	b.ReportMetric(last.PowerEnergyRatioCV, "thm1-ratio-cv")
}

func benchFig6(b *testing.B, variant string) {
	p := benchParamsFig6(b, variant)
	var last experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunFig6Ctx(context.Background(), p, variant)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.AvgRatioCostUnaware, "cost-unaware-ratio")
	b.ReportMetric(last.AvgRatioInformed, "imobif-ratio")
}

// BenchmarkFig6a reproduces Figure 6(a): short flows, k=0.5, α=2.
func BenchmarkFig6a(b *testing.B) { benchFig6(b, "a") }

// BenchmarkFig6b reproduces Figure 6(b): mobility vs transmission energy
// of the cost-unaware approach on short flows.
func BenchmarkFig6b(b *testing.B) {
	p := benchParamsFig6(b, "a")
	var last experiments.Fig6bResult
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunFig6bCtx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.AvgMobility, "mobility-J")
	b.ReportMetric(last.AvgTransmission, "transmission-J")
}

// BenchmarkFig6c reproduces Figure 6(c): long flows, k=0.5, α=2.
func BenchmarkFig6c(b *testing.B) { benchFig6(b, "c") }

// BenchmarkFig6d reproduces Figure 6(d): long flows, k=1.0.
func BenchmarkFig6d(b *testing.B) { benchFig6(b, "d") }

// BenchmarkFig6e reproduces Figure 6(e): long flows, k=0.1.
func BenchmarkFig6e(b *testing.B) { benchFig6(b, "e") }

// BenchmarkFig6f reproduces Figure 6(f): long flows, α=3.
func BenchmarkFig6f(b *testing.B) { benchFig6(b, "f") }

// BenchmarkSweep runs the Figure 6(c) Monte-Carlo sweep once per explicit
// worker count. Results are bit-identical at every concurrency (see the
// determinism tests), so the sub-benchmarks measure scaling alone. The
// counts are pinned rather than derived from GOMAXPROCS — the old
// Serial/Parallel pair both resolved to one worker on a single-core
// machine and measured nothing — and the "workers" gauge reports the
// count the sweep engine actually used so a misconfigured run is visible
// in the output.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := benchParamsFig6(b, "c")
			p.Flows = 16
			p.Concurrency = workers
			var last experiments.Fig6Result
			var err error
			for i := 0; i < b.N; i++ {
				last, err = experiments.RunFig6Ctx(context.Background(), p, "c")
				if err != nil {
					b.Fatal(err)
				}
			}
			if last.Sweep.Workers != workers {
				b.Fatalf("sweep ran with %d workers, want %d", last.Sweep.Workers, workers)
			}
			b.ReportMetric(last.Sweep.TrialsPerSec(), "trials/s")
			b.ReportMetric(float64(last.Sweep.Workers), "workers")
		})
	}
}

// BenchmarkFig7 reproduces Figure 7: notification packets per flow.
func BenchmarkFig7(b *testing.B) {
	p := experiments.ParamsFig7()
	p.Flows = benchFlows
	p.MaxFlowBits = 4 * p.MeanFlowBits
	var last experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunFig7Ctx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Avg, "avg-notifications")
}

// BenchmarkFig8 reproduces Figure 8: the CDF of the system lifetime ratio
// under the max-lifetime strategy.
func BenchmarkFig8(b *testing.B) {
	p := experiments.ParamsFig8()
	p.Flows = benchFlows
	p.MaxFlowBits = 4 * p.MeanFlowBits
	var last experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunFig8Ctx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.AvgRatioCostUnaware, "cost-unaware-lifetime")
	b.ReportMetric(last.AvgRatioInformed, "imobif-lifetime")
}

// BenchmarkAblationFlowLength sweeps flow-length estimation error (A1).
func BenchmarkAblationFlowLength(b *testing.B) {
	p := benchParamsFig6(b, "a")
	p.Flows = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFlowLengthSensitivityCtx(context.Background(), p, []float64{0.5, 1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRelaySelection compares route planners (A2).
func BenchmarkAblationRelaySelection(b *testing.B) {
	p := benchParamsFig6(b, "a")
	p.Flows = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRelaySelectionCtx(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMultiFlow runs concurrent flows per world (A3).
func BenchmarkAblationMultiFlow(b *testing.B) {
	p := benchParamsFig6(b, "a")
	p.Flows = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMultiFlowCtx(context.Background(), p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationControlOverhead charges control traffic (A4).
func BenchmarkAblationControlOverhead(b *testing.B) {
	p := benchParamsFig6(b, "a")
	p.Flows = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunControlOverheadCtx(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStepSweep sweeps the per-packet movement cap (A5).
func BenchmarkAblationStepSweep(b *testing.B) {
	p := benchParamsFig6(b, "a")
	p.Flows = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStepSweepCtx(context.Background(), p, []float64{1, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlphaPrime compares the α′ approximation with the exact
// Theorem 1 solve (A6).
func BenchmarkAblationAlphaPrime(b *testing.B) {
	p := experiments.ParamsFig8()
	p.Flows = 4
	p.MaxFlowBits = 2 * p.MeanFlowBits
	var last experiments.AlphaPrimeQualityResult
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunAlphaPrimeQualityCtx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.AvgRatioApprox, "approx-lifetime")
	b.ReportMetric(last.AvgRatioExact, "exact-lifetime")
}

// BenchmarkSimulationRun measures end-to-end simulator throughput on a
// single 10 MB informed flow over the public API.
func BenchmarkSimulationRun(b *testing.B) {
	cfg := DefaultConfig()
	net, err := NewRandomNetwork(cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	src, dst, err := net.PickFlowEndpoints(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulation(cfg, net)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.AddFlow(src, dst, 10<<20); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultOverhead quantifies what the fault layer costs along the
// packet hot path, one sub-benchmark per rung of the ladder:
//
//   - ideal: Config.Faults nil — the pre-fault fast path; the radio never
//     consults an injector and nodes never track pending packets.
//   - hook: injector installed with p=0 — every unicast pays one Drop()
//     call that never fires. This is the "zero-fault hook overhead" the
//     ideal path must not silently regress toward.
//   - retry: lossless channel with the retry/ack transport on — adds a
//     per-hop ack packet and pending-table bookkeeping per data packet.
//   - lossy-retry: p=0.1 with retries — the realistic faulty regime.
func BenchmarkFaultOverhead(b *testing.B) {
	variants := []struct {
		name   string
		faults *FaultConfig
	}{
		{"ideal", nil},
		{"hook", &FaultConfig{LossP: 0, Seed: 1}},
		{"retry", &FaultConfig{RetryLimit: 5, RetryTimeoutSec: 0.2, Seed: 1}},
		{"lossy-retry", &FaultConfig{LossP: 0.1, RetryLimit: 5, RetryTimeoutSec: 0.2, Seed: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Faults = v.faults
			net, err := NewRandomNetwork(cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			src, dst, err := net.PickFlowEndpoints(3)
			if err != nil {
				b.Fatal(err)
			}
			var last *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulation(cfg, net)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.AddFlow(src, dst, 10<<20); err != nil {
					b.Fatal(err)
				}
				if last, err = sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			if !last.Flows[0].Completed {
				b.Fatalf("flow did not complete under %s", v.name)
			}
			b.ReportMetric(last.Flows[0].DeliveryRatio, "delivery-ratio")
		})
	}
}

// BenchmarkMotionOverhead quantifies what the ambient-motion layer costs
// on an end-to-end run, one sub-benchmark per rung of the ladder:
//
//   - off: Config.Motion nil — the pre-motion fast path; the world arms
//     zero movement events.
//   - stationary: an explicit stationary model — must cost the same as
//     off (motion.New returns nil; goldens prove bit-identity).
//   - rwp: random-waypoint at pedestrian speed — every node pays one
//     movement event per simulated second plus the grid's
//     cell-crossing re-bucketing.
//   - rpgm: group mobility — adds the lazy group-reference advance on
//     top of per-node stepping.
func BenchmarkMotionOverhead(b *testing.B) {
	variants := []struct {
		name   string
		motion *MotionConfig
	}{
		{"off", nil},
		{"stationary", &MotionConfig{Model: MotionStationary}},
		{"rwp", &MotionConfig{Model: MotionRandomWaypoint, Seed: 1}},
		{"rpgm", &MotionConfig{Model: MotionRPGM, Seed: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Motion = v.motion
			net, err := NewRandomNetwork(cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			src, dst, err := net.PickFlowEndpoints(3)
			if err != nil {
				b.Fatal(err)
			}
			var last *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulation(cfg, net)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.AddFlow(src, dst, 10<<20); err != nil {
					b.Fatal(err)
				}
				if last, err = sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			// Ambient motion legitimately breaks the pinned path, so only
			// the disabled rungs must complete; all report delivery.
			if v.motion == nil && !last.Flows[0].Completed {
				b.Fatal("flow did not complete with motion off")
			}
			b.ReportMetric(last.Flows[0].DeliveryRatio, "delivery-ratio")
		})
	}
}

// BenchmarkObserverOverhead quantifies what the observability layer costs
// along the hot path, one sub-benchmark per rung:
//
//   - none: zero options — the pay-for-what-you-use baseline; the world's
//     single cached `observing` branch is the entire cost, so this rung
//     must stay within noise of the pre-observability simulator.
//   - observer: a no-op Observer attached — every event pays typed-struct
//     construction and one dynamic dispatch.
//   - timeseries: per-second metrics sampling, no event dispatch.
//   - trace-jsonl: every event JSON-encoded to an in-memory buffer — the
//     full export path minus the disk.
func BenchmarkObserverOverhead(b *testing.B) {
	variants := []struct {
		name string
		opts func() []Option
	}{
		{"none", func() []Option { return nil }},
		{"observer", func() []Option { return []Option{WithObserver(BaseObserver{})} }},
		{"timeseries", func() []Option { return []Option{WithTimeSeries(1)} }},
		{"trace-jsonl", func() []Option {
			var sink bytes.Buffer
			return []Option{WithTraceWriter(&sink)}
		}},
	}
	cfg := DefaultConfig()
	net, err := NewRandomNetwork(cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	src, dst, err := net.PickFlowEndpoints(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var last *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulation(cfg, net, v.opts()...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.AddFlow(src, dst, 10<<20); err != nil {
					b.Fatal(err)
				}
				if last, err = sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			if !last.Flows[0].Completed {
				b.Fatalf("flow did not complete under %s", v.name)
			}
		})
	}
}

// BenchmarkNeighborRecompute measures a full neighbor-table recomputation
// (one InRange query per node — what netsim's initial HELLO seeding and
// the discovery flood fan-out do) under the grid index versus the
// brute-force scan, at the paper's node density (100 nodes per km²) so
// the field grows with n and per-query neighborhood size stays constant.
// The grid's O(k)-per-query behaviour versus brute's O(n) is the whole
// point of internal/spatial; see EXPERIMENTS.md "Scaling" for recorded
// ratios.
func BenchmarkNeighborRecompute(b *testing.B) {
	const rangeM = 200
	for _, kind := range []spatial.Kind{spatial.KindGrid, spatial.KindBrute} {
		for _, n := range []int{100, 1000, 5000} {
			b.Run(fmt.Sprintf("%s-n%d", kind, n), func(b *testing.B) {
				side := 1000 * math.Sqrt(float64(n)/100)
				pts := topo.PlaceUniform(stats.NewSource(7), n, side, side)
				idx, err := spatial.FromPoints(kind, rangeM, pts)
				if err != nil {
					b.Fatal(err)
				}
				var buf []int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j, p := range pts {
						buf = idx.AppendInRange(buf[:0], p, rangeM)
						_ = j
					}
				}
			})
		}
	}
}

// BenchmarkWorldSeeding measures netsim.NewWorld on large placements —
// dominated by the initial HELLO-table seeding, the first beneficiary of
// the spatial index.
func BenchmarkWorldSeeding(b *testing.B) {
	for _, kind := range []spatial.Kind{spatial.KindGrid, spatial.KindBrute} {
		for _, n := range []int{100, 1000} {
			b.Run(fmt.Sprintf("%s-n%d", kind, n), func(b *testing.B) {
				side := 1000 * math.Sqrt(float64(n)/100)
				cfg := DefaultConfig()
				cfg.Nodes = n
				cfg.FieldWidth, cfg.FieldHeight = side, side
				cfg.NeighborIndex = string(kind)
				net, err := NewRandomNetwork(cfg, 7)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := NewSimulation(cfg, net); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGreedyRouting measures route planning on a 100-node network.
func BenchmarkGreedyRouting(b *testing.B) {
	src := stats.NewSource(1)
	pts := topo.PlaceUniform(src, 100, 1000, 1000)
	g, err := topo.NewGraph(pts, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate over node pairs; ignore unroutable ones.
		a := i % 100
		c := (i*37 + 13) % 100
		if a == c {
			continue
		}
		_, _ = g.GreedyPath(a, c)
	}
}

// BenchmarkStrategyMinEnergy measures the midpoint strategy's per-packet
// target computation.
func BenchmarkStrategyMinEnergy(b *testing.B) {
	v := mobility.View{
		Prev:         mobility.Peer{Pos: geom.Pt(0, 0), Residual: 100},
		Self:         mobility.Peer{Pos: geom.Pt(90, 40), Residual: 80},
		Next:         mobility.Peer{Pos: geom.Pt(200, 0), Residual: 60},
		ResidualBits: 8e6,
	}
	s := mobility.MinEnergy{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NextPosition(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrategyMaxLifetime measures the α′ split computation.
func BenchmarkStrategyMaxLifetime(b *testing.B) {
	v := mobility.View{
		Prev:         mobility.Peer{Pos: geom.Pt(0, 0), Residual: 100},
		Self:         mobility.Peer{Pos: geom.Pt(90, 40), Residual: 80},
		Next:         mobility.Peer{Pos: geom.Pt(200, 0), Residual: 60},
		ResidualBits: 8e6,
	}
	s := mobility.MaxLifetime{AlphaPrime: 1.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NextPosition(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrategyMaxLifetimeExact measures the bisection solve.
func BenchmarkStrategyMaxLifetimeExact(b *testing.B) {
	v := mobility.View{
		Prev:         mobility.Peer{Pos: geom.Pt(0, 0), Residual: 100},
		Self:         mobility.Peer{Pos: geom.Pt(90, 40), Residual: 80},
		Next:         mobility.Peer{Pos: geom.Pt(200, 0), Residual: 60},
		ResidualBits: 8e6,
	}
	s := mobility.MaxLifetimeExact{Tx: energy.DefaultTxModel()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NextPosition(v); err != nil {
			b.Fatal(err)
		}
	}
}

// strategySink keeps BenchmarkStrategyOverhead's strategy calls live.
var strategySink float64

// BenchmarkStrategyOverhead pins the plug-in registry's cost contract:
// a registry-built strategy dispatches at the same per-packet price as a
// directly constructed one (construction is the only extra work, and it
// happens once per run, not per packet). The resolve rung measures that
// one-time mobility.New lookup.
func BenchmarkStrategyOverhead(b *testing.B) {
	v := mobility.View{
		Prev:         mobility.Peer{Pos: geom.Pt(0, 0), Residual: 100},
		Self:         mobility.Peer{Pos: geom.Pt(90, 40), Residual: 80},
		Next:         mobility.Peer{Pos: geom.Pt(200, 0), Residual: 60},
		ResidualBits: 8e6,
	}
	env := mobility.Env{Tx: energy.DefaultTxModel(), Range: 200}
	// Each op is a 1000-call batch: single calls are ~20 ns, below timer
	// resolution at the gate's low iteration counts.
	const batch = 1000
	// dispatch sinks the target into strategySink so the compiler cannot
	// eliminate the devirtualized concrete call.
	dispatch := func(b *testing.B, s mobility.Strategy) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var acc float64
			for j := 0; j < batch; j++ {
				p, err := s.NextPosition(v)
				if err != nil {
					b.Fatal(err)
				}
				acc += p.X
			}
			strategySink = acc
		}
	}
	b.Run("direct", func(b *testing.B) {
		// Held as the interface, exactly as netsim.Config stores it.
		dispatch(b, mobility.MinEnergy{})
	})
	b.Run("registry", func(b *testing.B) {
		s, err := mobility.New("min-energy", env, nil)
		if err != nil {
			b.Fatal(err)
		}
		dispatch(b, s)
	})
	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := mobility.New("min-energy", env, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPowerTableLookup measures the Assumption-4 table lookup.
func BenchmarkPowerTableLookup(b *testing.B) {
	table, err := energy.NewPowerTable(energy.DefaultTxModel(), 200, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table.Lookup(float64(i%200) + 0.5)
	}
}

// BenchmarkExtensionRecruitment runs the relay-recruitment study
// (optimal slots + Hungarian assignment + deployment).
func BenchmarkExtensionRecruitment(b *testing.B) {
	p := benchParamsFig6(b, "c")
	p.Flows = 4
	var last experiments.RecruitmentResult
	var err error
	for i := 0; i < b.N; i++ {
		last, err = experiments.RunRelayRecruitmentCtx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.AvgRatioRecruited, "recruited-ratio")
	b.ReportMetric(last.AvgRatioInformedGreedy, "imobif-ratio")
}

// BenchmarkExtensionThresholdSweep traces the break-even crossover.
func BenchmarkExtensionThresholdSweep(b *testing.B) {
	p := benchParamsFig6(b, "c")
	p.Flows = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunThresholdSweepCtx(context.Background(), p, []float64{8e4, 8e7}); err != nil {
			b.Fatal(err)
		}
	}
}
