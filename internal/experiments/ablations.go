package experiments

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/stats"
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

// RunFlowLengthSensitivityCtx sweeps the flow-length estimation error and
// reports how the informed approach's energy ratio degrades — the paper's
// §5: "we will study the impact of inaccurate estimates of flow length on
// the energy performance of the framework."
func RunFlowLengthSensitivityCtx(ctx context.Context, p Params, scales []float64) ([]SensitivityPoint, error) {
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
		res, err := RunFig6Ctx(ctx, q, fmt.Sprintf("A1 scale=%v", s))
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

// RunRelaySelectionCtx evaluates greedy (the paper's), minimum-hop, and
// minimum-energy route planners under the informed framework on the given
// configuration.
func RunRelaySelectionCtx(ctx context.Context, p Params) (RelaySelectionResult, error) {
	planners := []routing.Planner{
		routing.GreedyPlanner{},
		routing.MinHopPlanner{},
		routing.MinEnergyPlanner{Tx: p.Tx},
	}
	var res RelaySelectionResult
	for _, pl := range planners {
		q := p
		q.Planner = pl
		fig, err := RunFig6Ctx(ctx, q, "A2 "+pl.Name())
		if err != nil {
			return RelaySelectionResult{}, err
		}
		res.Planners = append(res.Planners, PlannerOutcome{
			Name:             pl.Name(),
			AvgRatioInformed: fig.AvgRatioInformed,
			AvgInformedTotal: meanOf(fig.Rows, func(r EnergyRow) float64 { return r.Informed.Total() }),
			AvgPathLen:       meanOf(fig.Rows, func(r EnergyRow) float64 { return float64(r.PathLen) }),
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

// RunControlOverheadCtx compares the informed approach with free versus
// charged control traffic.
func RunControlOverheadCtx(ctx context.Context, p Params) (ControlOverheadResult, error) {
	free := p
	free.ChargeControl = false
	freeRes, err := RunFig6Ctx(ctx, free, "A4 free")
	if err != nil {
		return ControlOverheadResult{}, err
	}
	charged := p
	charged.ChargeControl = true
	chargedRes, err := RunFig6Ctx(ctx, charged, "A4 charged")
	if err != nil {
		return ControlOverheadResult{}, err
	}
	return ControlOverheadResult{
		FreeAvgRatio:     freeRes.AvgRatioInformed,
		ChargedAvgRatio:  chargedRes.AvgRatioInformed,
		AvgControlJoules: meanOf(chargedRes.Rows, func(r EnergyRow) float64 { return r.Informed.Control }),
	}, nil
}

// StepSweepPoint is one sample of ablation A5 (max movement per packet).
type StepSweepPoint struct {
	MaxStep          float64
	AvgRatioInformed float64
	AvgFlips         float64
}

// RunStepSweepCtx sweeps the per-packet movement cap: small steps converge
// slowly (less benefit captured), large steps approach teleportation.
func RunStepSweepCtx(ctx context.Context, p Params, steps []float64) ([]StepSweepPoint, error) {
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
		res, err := RunFig6Ctx(ctx, q, fmt.Sprintf("A5 step=%v", s))
		if err != nil {
			return nil, err
		}
		out = append(out, StepSweepPoint{
			MaxStep:          s,
			AvgRatioInformed: res.AvgRatioInformed,
			AvgFlips:         meanOf(res.Rows, func(r EnergyRow) float64 { return float64(r.InformedFlips) }),
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

// RunAlphaPrimeQualityCtx runs the Figure 8 lifetime experiment with the
// α′ approximation and with the exact numeric split, quantifying what the
// paper's "simple approximation" costs. Each run journals as its own cell,
// "fig8 A6 " plus the strategy name.
func RunAlphaPrimeQualityCtx(ctx context.Context, p Params) (AlphaPrimeQualityResult, error) {
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
	approxRes, err := runFig8(ctx, approx, "fig8 A6 "+approx.StrategyName)
	if err != nil {
		return AlphaPrimeQualityResult{}, err
	}
	exact := p
	exact.StrategyName = mobility.MaxLifetimeExact{}.Name()
	exactRes, err := runFig8(ctx, exact, "fig8 A6 "+exact.StrategyName)
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
	Valid     bool
	Completed int
	Total     int
	Ratio     float64
}

// RunMultiFlowCtx places several simultaneous flows in each world and
// compares network-wide energy between informed and no-mobility modes.
// World i hosts instances i·flowsPerWorld … i·flowsPerWorld+flowsPerWorld−1
// of the seed's instance stream, re-planned on the placement of the
// first; worlds run as sweep trials, journaled as cell "multiflow N".
func RunMultiFlowCtx(ctx context.Context, p Params, flowsPerWorld int) (MultiFlowResult, error) {
	if flowsPerWorld < 1 {
		return MultiFlowResult{}, fmt.Errorf("experiments: flowsPerWorld %d below 1", flowsPerWorld)
	}
	cell := fmt.Sprintf("multiflow %d", flowsPerWorld)
	worlds, err := runTrials(ctx, p, cell, nil, func(cfg netsim.Config, trial int) (multiFlowWorld, error) {
		instances := make([]Instance, flowsPerWorld)
		for j := range instances {
			var err error
			if instances[j], err = GenInstance(p, trial*flowsPerWorld+j); err != nil {
				return multiFlowWorld{}, err
			}
		}
		// One placement hosts all flows of this world.
		host := instances[0]
		runWorld := func(mode netsim.Mode) (netsim.Result, int, error) {
			run := cfg
			run.Mode = mode
			w, err := netsim.NewWorld(run, host.Positions, host.Energies)
			if err != nil {
				return netsim.Result{}, 0, err
			}
			added := 0
			for _, inst := range instances {
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
		out := multiFlowWorld{Valid: true, Ratio: stats.Ratio(inf.Energy.Total(), base.Energy.Total())}
		for _, f := range inf.Flows {
			out.Total++
			if f.Completed {
				out.Completed++
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
		if !w.Valid {
			continue
		}
		res.Completed += w.Completed
		res.Total += w.Total
		ratios = append(ratios, w.Ratio)
	}
	res.AvgRatioInformed = stats.Mean(ratios)
	return res, nil
}
