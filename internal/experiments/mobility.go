package experiments

// The mobility-models experiment: the paper evaluates iMobif on a static
// deployment, so the natural follow-up question is how the two strategies
// hold up when the *environment* moves — every node drifting under an
// ambient-mobility model while relays still reposition along the flow
// path. This driver sweeps the internal/motion model library against the
// min-energy and max-lifetime strategies on the Figure 8 lifetime setting
// and reports per-cell delivery ratio, system lifetime, and mean residual
// energy (EXPERIMENTS.md "Mobility models").

import (
	"context"

	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// MobilityModels lists the ambient-mobility models the experiment
// compares, stationary first (the paper's own static setting, the
// baseline row of the table).
func MobilityModels() []string {
	return []string{
		motion.ModelStationary,
		motion.ModelRandomWaypoint,
		motion.ModelGaussMarkov,
		motion.ModelRPGM,
	}
}

// MobilityStrategies lists the strategies each model is run under.
func MobilityStrategies() []string {
	return []string{"min-energy", "max-lifetime"}
}

// ParamsMobility returns the configuration for the mobility-models
// comparison: the Figure 8 lifetime setting (deliberately low node
// energy, StopOnFirstDeath) plus a pedestrian-speed ambient-motion layer
// whose model the driver swaps per cell. Ambient motion is free-carrier
// (nodes are carried, so drifting draws no battery); lifetime differences
// therefore reflect communication energy, as in the paper.
func ParamsMobility() Params {
	p := ParamsFig8()
	p.Motion = &motion.Config{Seed: 7, SpeedLo: 0.5, SpeedHi: 1.5}
	return p
}

// MobilityCell aggregates one (model × strategy) cell of the comparison:
// trial means over the shared Monte-Carlo flow instances.
type MobilityCell struct {
	Model    string
	Strategy string
	// DeliveryRatio is the mean per-flow packet delivery ratio. Ambient
	// motion breaks pinned paths mid-flow, so this is where the models
	// separate.
	DeliveryRatio float64
	// Completed is the fraction of flows that delivered every bit.
	Completed float64
	// Lifetime is the mean system lifetime in virtual seconds (first
	// node death, or the flow duration when nothing died).
	Lifetime float64
	// MeanResidual is the mean per-node residual energy at the end of a
	// run, averaged over trials.
	MeanResidual float64
}

// MobilityResult is the full model × strategy table.
type MobilityResult struct {
	Params Params
	Cells  []MobilityCell
	// Sweep is execution metadata accumulated across all cells; excluded
	// from marshaled output so serial and parallel runs stay
	// byte-identical.
	Sweep metrics.SweepStats `json:"-"`
}

// Cell returns the named cell, or a zero cell if absent.
func (r MobilityResult) Cell(model, strategy string) MobilityCell {
	for _, c := range r.Cells {
		if c.Model == model && c.Strategy == strategy {
			return c
		}
	}
	return MobilityCell{}
}

// mobilityRow is one trial's contribution to a cell.
type mobilityRow struct {
	delivery  float64
	completed float64
	lifetime  float64
	residual  float64
}

// mobilityTrial runs trial's shared instance under one (model, strategy)
// cell. The instance depends only on (p.Seed, trial) — not on the cell —
// so every cell sees identical placements, energies, and flows: a paired
// comparison. The ambient-motion layer gets its own per-trial stream
// derived from the cell config's motion seed, never from the instance
// stream.
func mobilityTrial(p Params, cfg netsim.Config, trial int) (mobilityRow, error) {
	inst, err := GenInstance(p, trial)
	if err != nil {
		return mobilityRow{}, err
	}
	if cfg.Motion.Enabled() {
		mc := *cfg.Motion
		mc.Seed = int64(sweep.DeriveSeed(mc.Seed, uint64(trial)))
		cfg.Motion = &mc
	}
	res, err := runMode(cfg, inst, netsim.ModeInformed)
	if err != nil {
		return mobilityRow{}, err
	}
	out := res.Outcome()
	row := mobilityRow{
		delivery: out.DeliveryRatio(),
		lifetime: float64(out.Lifetime()),
	}
	if out.Completed {
		row.completed = 1
	}
	if n := len(res.Final.Nodes); n > 0 {
		row.residual = res.Final.TotalResidual() / float64(n)
	}
	return row, nil
}

// RunMobilityModels sweeps every ambient-mobility model against both
// strategies on identical flow instances.
func RunMobilityModels(p Params) (MobilityResult, error) {
	return RunMobilityModelsCtx(context.Background(), p)
}

// RunMobilityModelsCtx is RunMobilityModels with cancellation.
func RunMobilityModelsCtx(ctx context.Context, p Params) (MobilityResult, error) {
	if err := p.Validate(); err != nil {
		return MobilityResult{}, err
	}
	res := MobilityResult{Params: p}
	for _, model := range MobilityModels() {
		pm := p
		mc := motion.Config{}
		if p.Motion != nil {
			mc = *p.Motion
		}
		mc.Model = model
		mc.FieldW, mc.FieldH = p.FieldW, p.FieldH
		pm.Motion = &mc
		for _, name := range MobilityStrategies() {
			pm.StrategyName = name
			cfg, err := pm.config()
			if err != nil {
				return MobilityResult{}, err
			}
			rows, sw, err := sweep.Map(ctx, pm.runner(), pm.Flows, func(_ context.Context, trial int) (mobilityRow, error) {
				return mobilityTrial(pm, cfg, trial)
			})
			if err != nil {
				return MobilityResult{}, err
			}
			cell := MobilityCell{Model: model, Strategy: name}
			var delivery, completed, lifetime, residual []float64
			for _, row := range rows {
				delivery = append(delivery, row.delivery)
				completed = append(completed, row.completed)
				lifetime = append(lifetime, row.lifetime)
				residual = append(residual, row.residual)
			}
			cell.DeliveryRatio = stats.Mean(delivery)
			cell.Completed = stats.Mean(completed)
			cell.Lifetime = stats.Mean(lifetime)
			cell.MeanResidual = stats.Mean(residual)
			res.Cells = append(res.Cells, cell)
			res.Sweep.Trials += sw.Trials
			res.Sweep.Workers = sw.Workers
			res.Sweep.Elapsed += sw.Elapsed
		}
	}
	return res, nil
}
