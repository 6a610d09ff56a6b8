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
	"sort"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
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

// RunStrategyComparisonCtx sweeps every registered strategy under every
// channel regime on identical flow instances; each (strategy, regime)
// cell journals as "strategies <regime> <strategy>".
func RunStrategyComparisonCtx(ctx context.Context, p Params) (StrategyResult, error) {
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
			// Route selection is part of the strategy under comparison
			// (the max-lifetime-routing baseline is *only* route
			// selection), so each world replans with the planner its
			// strategy provides. Endpoints, placements, and tiered
			// energies stay shared, so the comparison remains paired.
			rows, err := runTrials(ctx, pc, "strategies "+reg.Name+" "+name, &res.Sweep, func(cfg netsim.Config, trial int) (informedRow, error) {
				return informedTrial(pc, cfg, trial, true)
			})
			if err != nil {
				return StrategyResult{}, err
			}
			res.Cells = append(res.Cells, StrategyCell{
				Strategy:      name,
				Regime:        reg.Name,
				TotalJ:        meanOf(rows, func(r informedRow) float64 { return r.TotalJ }),
				TxJ:           meanOf(rows, func(r informedRow) float64 { return r.TxJ }),
				MoveJ:         meanOf(rows, func(r informedRow) float64 { return r.MoveJ }),
				DeliveryRatio: meanOf(rows, func(r informedRow) float64 { return r.Delivery }),
				Completed:     meanOf(rows, func(r informedRow) float64 { return r.Completed }),
				Lifetime:      meanOf(rows, func(r informedRow) float64 { return r.Lifetime }),
				MeanResidual:  meanOf(rows, func(r informedRow) float64 { return r.Residual }),
			})
		}
	}
	return res, nil
}
