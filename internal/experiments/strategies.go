package experiments

// The cross-strategy comparison: every strategy registered with the
// mobility plug-in registry — the paper's two, the exact-solve variant,
// the stationary null, and the competitor baselines — run on identical
// Monte-Carlo flow instances under two channel regimes (ideal, and
// p=0.1 loss with hop-by-hop retry and route repair). This is the
// experiment the registry exists for: a new strategy registered by any
// package automatically appears as rows of this table
// (EXPERIMENTS.md "Strategy comparison").

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// StrategyRegime is one channel condition of the comparison.
type StrategyRegime struct {
	// Name labels the regime in output rows.
	Name string
	// Faults configures the fault layer; nil is the ideal channel.
	Faults *fault.Config
}

// StrategyRegimes returns the comparison's two channel regimes:
// zero-fault (the paper's ideal channel) and p=0.1 independent loss
// with the retry/ack transport and route repair enabled, so routes can
// chase the energy landscape when relays die.
func StrategyRegimes() []StrategyRegime {
	return []StrategyRegime{
		{Name: "zero-fault"},
		{Name: "loss-0.1", Faults: &fault.Config{
			LossP:        0.1,
			Seed:         99,
			RetryLimit:   3,
			RetryTimeout: 0.5,
			RouteRepair:  true,
		}},
	}
}

// ParamsStrategies returns the comparison configuration: the Figure 8
// lifetime setting (low node energy, StopOnFirstDeath, so strategies
// separate on both energy and lifetime) with initial energies quantized
// into 4 heterogeneous tiers — the LEACH-style advanced/normal node
// population the cluster-rotation baseline is built for, applied
// identically to every strategy so the comparison stays paired.
func ParamsStrategies() Params {
	p := ParamsFig8()
	p.EnergyTiers = 4
	return p
}

// StrategyCell aggregates one (strategy × regime) cell: trial means
// over the shared Monte-Carlo flow instances.
type StrategyCell struct {
	Strategy string
	Regime   string
	// TotalJ, TxJ, MoveJ decompose the mean per-trial network energy
	// spend in joules.
	TotalJ float64
	TxJ    float64
	MoveJ  float64
	// DeliveryRatio is the mean per-flow packet delivery ratio;
	// Completed the fraction of flows that delivered every bit.
	DeliveryRatio float64
	Completed     float64
	// Lifetime is the mean system lifetime in virtual seconds (first
	// node death, or flow duration when nothing died).
	Lifetime float64
	// MeanResidual is the mean per-node residual energy at run end.
	MeanResidual float64
}

// StrategyResult is the full strategy × regime table.
type StrategyResult struct {
	Params     Params
	Strategies []string
	Regimes    []string
	Cells      []StrategyCell
	// Sweep is execution metadata accumulated across all cells; excluded
	// from marshaled output so serial and parallel runs stay
	// byte-identical.
	Sweep metrics.SweepStats `json:"-"`
}

// Cell returns the named cell, or a zero cell if absent.
func (r StrategyResult) Cell(strategy, regime string) StrategyCell {
	for _, c := range r.Cells {
		if c.Strategy == strategy && c.Regime == regime {
			return c
		}
	}
	return StrategyCell{}
}

// CSV renders the table as CSV rows (header first), the EXPERIMENTS.md
// artifact.
func (r StrategyResult) CSV() [][]string {
	rows := [][]string{{
		"strategy", "regime", "total_j", "tx_j", "move_j",
		"delivery_ratio", "completed", "lifetime_s", "mean_residual_j",
	}}
	f := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Strategy, c.Regime, f(c.TotalJ), f(c.TxJ), f(c.MoveJ),
			f(c.DeliveryRatio), f(c.Completed), f(c.Lifetime), f(c.MeanResidual),
		})
	}
	return rows
}

// strategyRow is one trial's contribution to a cell.
type strategyRow struct {
	totalJ    float64
	txJ       float64
	moveJ     float64
	delivery  float64
	completed float64
	lifetime  float64
	residual  float64
}

// strategyTrial runs trial's shared instance under one (strategy,
// regime) cell. The instance depends only on (p.Seed, trial) — never on
// the cell — so every strategy and regime sees identical placements,
// tiered energies, and flows: a fully paired comparison. The fault
// injector gets its own per-trial stream derived from the regime's
// fault seed, never from the instance stream.
func strategyTrial(p Params, cfg netsim.Config, trial int) (strategyRow, error) {
	inst, err := GenInstance(p, trial)
	if err != nil {
		return strategyRow{}, err
	}
	if cfg.Faults != nil {
		fc := *cfg.Faults
		fc.Seed = int64(sweep.DeriveSeed(fc.Seed, uint64(trial)))
		cfg.Faults = &fc
	}
	// Route selection is part of the strategy under comparison (the
	// max-lifetime-routing baseline is *only* route selection), so drop
	// the instance's greedy-planned path and let each world plan with the
	// planner its strategy provides. Endpoints, placements, and energies
	// stay shared, so the comparison remains paired.
	inst.Path = nil
	res, err := runMode(cfg, inst, netsim.ModeInformed)
	if err != nil {
		return strategyRow{}, err
	}
	out := res.Outcome()
	row := strategyRow{
		totalJ:   res.Energy.Total(),
		txJ:      res.Energy.Tx,
		moveJ:    res.Energy.Move,
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

// RunStrategyComparison sweeps every registered strategy under every
// channel regime on identical flow instances.
func RunStrategyComparison(p Params) (StrategyResult, error) {
	return RunStrategyComparisonCtx(context.Background(), p)
}

// RunStrategyComparisonCtx is RunStrategyComparison with cancellation.
func RunStrategyComparisonCtx(ctx context.Context, p Params) (StrategyResult, error) {
	if err := p.Validate(); err != nil {
		return StrategyResult{}, err
	}
	names := mobility.Names()
	sort.Strings(names)
	regimes := StrategyRegimes()
	res := StrategyResult{Params: p, Strategies: names}
	for _, reg := range regimes {
		res.Regimes = append(res.Regimes, reg.Name)
	}
	for _, reg := range regimes {
		for _, name := range names {
			pc := p
			pc.StrategyName = name
			pc.StrategyParams = nil
			pc.Faults = reg.Faults
			cfg, err := pc.config()
			if err != nil {
				return StrategyResult{}, err
			}
			rows, sw, err := sweep.Map(ctx, pc.runner(), pc.Flows, func(_ context.Context, trial int) (strategyRow, error) {
				return strategyTrial(pc, cfg, trial)
			})
			if err != nil {
				return StrategyResult{}, err
			}
			cell := StrategyCell{Strategy: name, Regime: reg.Name}
			var totalJ, txJ, moveJ, delivery, completed, lifetime, residual []float64
			for _, row := range rows {
				totalJ = append(totalJ, row.totalJ)
				txJ = append(txJ, row.txJ)
				moveJ = append(moveJ, row.moveJ)
				delivery = append(delivery, row.delivery)
				completed = append(completed, row.completed)
				lifetime = append(lifetime, row.lifetime)
				residual = append(residual, row.residual)
			}
			cell.TotalJ = stats.Mean(totalJ)
			cell.TxJ = stats.Mean(txJ)
			cell.MoveJ = stats.Mean(moveJ)
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
