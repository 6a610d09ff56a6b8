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

// informedRow is one informed run's contribution to a cell of the
// mobility or strategy table; it is journaled, so its fields are
// exported.
type informedRow struct {
	TotalJ, TxJ, MoveJ float64
	Delivery           float64
	Completed          float64
	Lifetime           float64
	Residual           float64
}

// informedTrial runs trial's shared instance once in informed mode. The
// instance depends only on (p.Seed, trial), never on the cell, so every
// cell of a table sees identical placements, energies, and flows: a
// paired comparison. The ambient-motion and fault layers draw from
// per-trial streams the engine derives from the cell config's seeds.
// replan drops the instance's greedy-planned path, so the world plans
// with the planner its strategy provides.
func informedTrial(p Params, cfg netsim.Config, trial int, replan bool) (informedRow, error) {
	inst, err := GenInstance(p, trial)
	if err != nil {
		return informedRow{}, err
	}
	if replan {
		inst.Path = nil
	}
	rs, err := runModes(cfg, inst, netsim.ModeInformed)
	if err != nil {
		return informedRow{}, err
	}
	res, out := rs[0], rs[0].Outcome()
	row := informedRow{
		TotalJ:   res.Energy.Total(),
		TxJ:      res.Energy.Tx,
		MoveJ:    res.Energy.Move,
		Delivery: out.DeliveryRatio(),
		Lifetime: float64(out.Lifetime()),
	}
	if out.Completed {
		row.Completed = 1
	}
	if n := len(res.Final.Nodes); n > 0 {
		row.Residual = res.Final.TotalResidual() / float64(n)
	}
	return row, nil
}

// RunMobilityModelsCtx sweeps every ambient-mobility model against both
// strategies on identical flow instances; each (model, strategy) cell
// journals as "mobility <model> <strategy>".
func RunMobilityModelsCtx(ctx context.Context, p Params) (MobilityResult, error) {
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
			rows, err := runTrials(ctx, pm, "mobility "+model+" "+name, &res.Sweep, func(cfg netsim.Config, trial int) (informedRow, error) {
				return informedTrial(pm, cfg, trial, false)
			})
			if err != nil {
				return MobilityResult{}, err
			}
			res.Cells = append(res.Cells, MobilityCell{
				Model:         model,
				Strategy:      name,
				DeliveryRatio: meanOf(rows, func(r informedRow) float64 { return r.Delivery }),
				Completed:     meanOf(rows, func(r informedRow) float64 { return r.Completed }),
				Lifetime:      meanOf(rows, func(r informedRow) float64 { return r.Lifetime }),
				MeanResidual:  meanOf(rows, func(r informedRow) float64 { return r.Residual }),
			})
		}
	}
	return res, nil
}
