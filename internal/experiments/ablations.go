package experiments

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Ablations: the paper's §5 future-work studies and the design-choice
// sweeps listed in DESIGN.md §5.

// SensitivityPoint is one sweep sample of ablation A1 (inaccurate
// flow-length estimates).
type SensitivityPoint struct {
	// EstimateScale is the multiplicative error on the advertised
	// residual length (1 = perfect; 0.5 = halved; 2 = doubled).
	EstimateScale float64
	// AvgRatioInformed is the mean informed/baseline energy ratio.
	AvgRatioInformed float64
}

// RunFlowLengthSensitivity sweeps the flow-length estimation error and
// reports how the informed approach's energy ratio degrades — the paper's
// §5: "we will study the impact of inaccurate estimates of flow length on
// the energy performance of the framework."
func RunFlowLengthSensitivity(p Params, scales []float64) ([]SensitivityPoint, error) {
	if len(scales) == 0 {
		scales = []float64{0.25, 0.5, 1, 2, 4}
	}
	out := make([]SensitivityPoint, 0, len(scales))
	for _, s := range scales {
		if s <= 0 {
			return nil, fmt.Errorf("experiments: non-positive estimate scale %v", s)
		}
		q := p
		q.EstimateScale = s
		res, err := RunFig6(q, fmt.Sprintf("A1 scale=%v", s))
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityPoint{EstimateScale: s, AvgRatioInformed: res.AvgRatioInformed})
	}
	return out, nil
}

// RelaySelectionResult compares route planners under informed mobility —
// the relay-*selection* half of the paper's §5 future work ("optimize both
// the selection and positions of the intermediate flow nodes").
type RelaySelectionResult struct {
	// PlannerName -> average informed/baseline energy ratio and average
	// absolute informed energy.
	Planners []PlannerOutcome
}

// PlannerOutcome is one planner's aggregate under ablation A2.
type PlannerOutcome struct {
	Name             string
	AvgRatioInformed float64
	AvgInformedTotal float64
	AvgPathLen       float64
}

// RunRelaySelection evaluates greedy (the paper's), minimum-hop, and
// minimum-energy route planners under the informed framework on the given
// configuration.
func RunRelaySelection(p Params) (RelaySelectionResult, error) {
	planners := []routing.Planner{
		routing.GreedyPlanner{},
		routing.MinHopPlanner{},
		routing.MinEnergyPlanner{Tx: p.Tx},
	}
	var res RelaySelectionResult
	for _, pl := range planners {
		q := p
		q.Planner = pl
		fig, err := RunFig6(q, "A2 "+pl.Name())
		if err != nil {
			return RelaySelectionResult{}, err
		}
		var lens, totals []float64
		for _, row := range fig.Rows {
			lens = append(lens, float64(row.PathLen))
			totals = append(totals, row.Informed.Total())
		}
		res.Planners = append(res.Planners, PlannerOutcome{
			Name:             pl.Name(),
			AvgRatioInformed: fig.AvgRatioInformed,
			AvgInformedTotal: stats.Mean(totals),
			AvgPathLen:       stats.Mean(lens),
		})
	}
	return res, nil
}

// ControlOverheadResult is ablation A4: what charging control traffic
// (HELLO beacons and notifications) does to the informed approach.
type ControlOverheadResult struct {
	FreeAvgRatio    float64
	ChargedAvgRatio float64
	// AvgControlJoules is the mean per-flow control energy when charged.
	AvgControlJoules float64
}

// RunControlOverhead compares the informed approach with free versus
// charged control traffic.
func RunControlOverhead(p Params) (ControlOverheadResult, error) {
	free := p
	free.ChargeControl = false
	freeRes, err := RunFig6(free, "A4 free")
	if err != nil {
		return ControlOverheadResult{}, err
	}
	charged := p
	charged.ChargeControl = true
	chargedRes, err := RunFig6(charged, "A4 charged")
	if err != nil {
		return ControlOverheadResult{}, err
	}
	var ctrl []float64
	for _, row := range chargedRes.Rows {
		ctrl = append(ctrl, row.Informed.Control)
	}
	return ControlOverheadResult{
		FreeAvgRatio:     freeRes.AvgRatioInformed,
		ChargedAvgRatio:  chargedRes.AvgRatioInformed,
		AvgControlJoules: stats.Mean(ctrl),
	}, nil
}

// StepSweepPoint is one sample of ablation A5 (max movement per packet).
type StepSweepPoint struct {
	MaxStep          float64
	AvgRatioInformed float64
	AvgFlips         float64
}

// RunStepSweep sweeps the per-packet movement cap: small steps converge
// slowly (less benefit captured), large steps approach teleportation.
func RunStepSweep(p Params, steps []float64) ([]StepSweepPoint, error) {
	if len(steps) == 0 {
		steps = []float64{1, 5, 10, 25, 50}
	}
	out := make([]StepSweepPoint, 0, len(steps))
	for _, s := range steps {
		if s <= 0 {
			return nil, fmt.Errorf("experiments: non-positive max step %v", s)
		}
		q := p
		q.MaxStep = s
		res, err := RunFig6(q, fmt.Sprintf("A5 step=%v", s))
		if err != nil {
			return nil, err
		}
		var flips []float64
		for _, row := range res.Rows {
			flips = append(flips, float64(row.InformedFlips))
		}
		out = append(out, StepSweepPoint{
			MaxStep:          s,
			AvgRatioInformed: res.AvgRatioInformed,
			AvgFlips:         stats.Mean(flips),
		})
	}
	return out, nil
}

// AlphaPrimeQualityResult is ablation A6: the regression-fit α′
// approximation versus the exact bisection solve of the Theorem 1 split.
type AlphaPrimeQualityResult struct {
	AlphaPrime float64
	// AvgRatioApprox and AvgRatioExact are mean informed lifetime ratios
	// under each placement rule.
	AvgRatioApprox float64
	AvgRatioExact  float64
}

// RunAlphaPrimeQuality runs the Figure 8 lifetime experiment with the α′
// approximation and with the exact numeric split, quantifying what the
// paper's "simple approximation" costs.
func RunAlphaPrimeQuality(p Params) (AlphaPrimeQualityResult, error) {
	table, err := energy.NewPowerTable(p.Tx, p.Range, 256)
	if err != nil {
		return AlphaPrimeQualityResult{}, err
	}
	alpha, err := table.FitAlphaPrime()
	if err != nil {
		return AlphaPrimeQualityResult{}, err
	}
	approx := p
	approx.StrategyName = mobility.MaxLifetime{}.Name()
	approxRes, err := RunFig8(approx)
	if err != nil {
		return AlphaPrimeQualityResult{}, err
	}
	exact := p
	exact.StrategyName = mobility.MaxLifetimeExact{}.Name()
	exactRes, err := RunFig8(exact)
	if err != nil {
		return AlphaPrimeQualityResult{}, err
	}
	return AlphaPrimeQualityResult{
		AlphaPrime:     alpha,
		AvgRatioApprox: approxRes.AvgRatioInformed,
		AvgRatioExact:  exactRes.AvgRatioInformed,
	}, nil
}

// MultiFlowResult is ablation A3: several concurrent flows sharing relays
// (the technical-report extension).
type MultiFlowResult struct {
	FlowsPerWorld int
	// Completed counts flows that delivered all bits.
	Completed int
	Total     int
	// AvgRatioInformed is the energy ratio of the informed world over
	// the no-mobility world (whole-network energy).
	AvgRatioInformed float64
}

// multiFlowWorld is one world's outcome in the A3 study; worlds where
// greedy routing could not place a single flow are invalid.
type multiFlowWorld struct {
	valid     bool
	completed int
	total     int
	ratio     float64
}

// RunMultiFlow places several simultaneous flows in each world and
// compares network-wide energy between informed and no-mobility modes.
func RunMultiFlow(p Params, flowsPerWorld int) (MultiFlowResult, error) {
	return RunMultiFlowCtx(context.Background(), p, flowsPerWorld)
}

// RunMultiFlowCtx is RunMultiFlow with cancellation; worlds run as
// parallel sweep trials.
func RunMultiFlowCtx(ctx context.Context, p Params, flowsPerWorld int) (MultiFlowResult, error) {
	if flowsPerWorld < 1 {
		return MultiFlowResult{}, fmt.Errorf("experiments: flowsPerWorld %d below 1", flowsPerWorld)
	}
	cfg, err := p.config()
	if err != nil {
		return MultiFlowResult{}, err
	}
	// Reuse the instance generator for endpoints: each "world" takes
	// flowsPerWorld consecutive instances re-planned on one shared
	// placement.
	q := p
	q.Flows = p.Flows * flowsPerWorld
	instances, err := GenInstancesCtx(ctx, q)
	if err != nil {
		return MultiFlowResult{}, err
	}
	worlds, _, err := sweep.Map(ctx, p.runner(), len(instances)/flowsPerWorld, func(_ context.Context, trial int) (multiFlowWorld, error) {
		i := trial * flowsPerWorld
		// One placement hosts all flows of this world.
		host := instances[i]
		runWorld := func(mode netsim.Mode) (netsim.Result, int, error) {
			run := cfg
			run.Mode = mode
			w, err := netsim.NewWorld(run, host.Positions, host.Energies)
			if err != nil {
				return netsim.Result{}, 0, err
			}
			added := 0
			for j := 0; j < flowsPerWorld; j++ {
				inst := instances[i+j]
				// Re-plan endpoints on the host placement; skip pairs
				// greedy cannot route here.
				g, err := w.Graph()
				if err != nil {
					return netsim.Result{}, 0, err
				}
				path, err := (routing.GreedyPlanner{}).PlanRoute(g, inst.Src, inst.Dst)
				if err != nil || len(path) < p.MinPathLen {
					continue
				}
				if _, err := w.AddFlow(netsim.FlowSpec{
					Src: inst.Src, Dst: inst.Dst, LengthBits: inst.FlowBits, Path: path,
				}); err != nil {
					return netsim.Result{}, 0, err
				}
				added++
			}
			if added == 0 {
				return netsim.Result{}, 0, nil
			}
			r, err := w.Run()
			return r, added, err
		}
		base, nb, err := runWorld(netsim.ModeNoMobility)
		if err != nil {
			return multiFlowWorld{}, err
		}
		inf, ni, err := runWorld(netsim.ModeInformed)
		if err != nil {
			return multiFlowWorld{}, err
		}
		if nb == 0 || ni == 0 {
			return multiFlowWorld{}, nil
		}
		out := multiFlowWorld{valid: true, ratio: stats.Ratio(inf.Energy.Total(), base.Energy.Total())}
		for _, f := range inf.Flows {
			out.total++
			if f.Completed {
				out.completed++
			}
		}
		return out, nil
	})
	if err != nil {
		return MultiFlowResult{}, err
	}
	res := MultiFlowResult{FlowsPerWorld: flowsPerWorld}
	var ratios []float64
	for _, w := range worlds {
		if !w.valid {
			continue
		}
		res.Completed += w.completed
		res.Total += w.total
		ratios = append(ratios, w.ratio)
	}
	res.AvgRatioInformed = stats.Mean(ratios)
	return res, nil
}
