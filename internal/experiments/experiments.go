// Package experiments implements the paper's evaluation (§4): one driver
// per figure, each regenerating the same rows/series the paper reports,
// plus the ablations listed in DESIGN.md. Every driver is deterministic in
// its Params.Seed and compares the three approaches of the paper on
// identical flow instances: no mobility (baseline), cost-unaware mobility,
// and informed (iMobif) mobility.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topo"
)

// Params is the sweep-level experiment setup. ParamsFig6* and ParamsFig8
// return the paper's configurations.
type Params struct {
	// Seed drives all randomness (placement, endpoints, lengths,
	// energies).
	Seed int64
	// Flows is the number of Monte-Carlo flow instances.
	Flows int
	// Nodes, FieldW, FieldH, Range describe the network.
	Nodes          int
	FieldW, FieldH float64
	Range          float64
	// Tx is the radio model; K the mobility cost.
	Tx energy.TxModel
	K  float64
	// MeanFlowBits is the mean of the exponential flow-length
	// distribution.
	MeanFlowBits float64
	// MaxFlowBits clamps the exponential tail (0 = 20× mean) to bound
	// simulation time.
	MaxFlowBits float64
	// EnergyLo/EnergyHi bound the uniform initial node energy.
	EnergyLo, EnergyHi float64
	// StrategyName selects the mobility strategy by registered name
	// (mobility.Names lists the full set).
	StrategyName string
	// StrategyParams tunes the selected strategy's registry parameters;
	// nil means all defaults. Omitted from the checkpoint manifest when
	// empty, so pre-existing checkpoints stay valid.
	StrategyParams mobility.Params `json:",omitempty"`
	// EnergyTiers, when >= 2, quantizes each node's initial energy down
	// to the floor of its tier band within [EnergyLo, EnergyHi] — the
	// heterogeneous initial-energy setup of LEACH-style protocols
	// (normal/advanced node classes). Applied in GenInstance, so every
	// compared cell sees identical tiered energies. Zero disables it.
	EnergyTiers int `json:",omitempty"`
	// Faults, when non-nil, runs every trial under the fault-injection
	// layer (per-trial derived injector seeds keep trials independent).
	// Nil keeps the ideal channel.
	Faults *fault.Config `json:",omitempty"`
	// StopOnFirstDeath ends runs at the first depletion (lifetime runs).
	StopOnFirstDeath bool
	// EstimateScale models inaccurate flow-length estimates (ablation
	// A1); 1 = perfect.
	EstimateScale float64
	// MaxStep is the per-packet movement cap in meters.
	MaxStep float64
	// ChargeControl charges HELLO/notification traffic (ablation A4).
	ChargeControl bool
	// Planner overrides the route planner (ablation A2); nil = greedy.
	Planner routing.Planner
	// MinPathLen rejects flow instances with fewer nodes on the path
	// (need at least one relay for mobility to matter).
	MinPathLen int
	// Motion attaches an ambient-mobility model (see internal/motion):
	// every node drifts under it, independent of the iMobif strategy's
	// informed relay movement, with a per-trial derived seed. Nil or
	// stationary is the classic static deployment of the paper's own
	// evaluation.
	Motion *motion.Config
	// Concurrency is the number of parallel sweep workers (0 = all
	// CPUs, 1 = serial). Every trial draws its randomness from an
	// independent (Seed, trialIndex)-derived stream, so results are
	// bit-identical at any concurrency; like the sweep stats, it is
	// execution metadata and excluded from marshaled results.
	Concurrency int `json:"-"`
	// Checkpoint, when non-empty, is a directory in which every
	// Monte-Carlo driver journals completed trials through the
	// distributed-sweep fabric (internal/dsweep), one JSONL file per
	// sweep cell, so an interrupted run resumes re-running only the
	// missing trials.
	// Execution metadata, like Concurrency: checkpointed and plain runs
	// produce bit-identical results.
	Checkpoint string `json:"-"`
	// Resume loads existing checkpoint files under Checkpoint instead of
	// failing on them.
	Resume bool `json:"-"`
}

func baseParams() Params {
	return Params{
		Seed:          1,
		Flows:         100,
		Nodes:         100,
		FieldW:        1000,
		FieldH:        1000,
		Range:         200,
		Tx:            energy.DefaultTxModel(),
		K:             0.5,
		MeanFlowBits:  8e7, // 10 MB
		EnergyLo:      5e3,
		EnergyHi:      1e4,
		StrategyName:  "min-energy",
		EstimateScale: 1,
		MaxStep:       1,
		MinPathLen:    3,
	}
}

// ParamsFig6 returns the configuration for one Figure 6 panel:
// variant "a" (k=0.5, α=2, short flows, mean 10 KB), "c" (k=0.5, α=2, long
// flows, mean 10 MB), "d" (k=1), "e" (k=0.1), "f" (α=3). Panel (b) is
// derived from panel (a) via RunFig6b. See DESIGN.md §1 for the flow-mean
// reconstruction.
func ParamsFig6(variant string) (Params, error) {
	p := baseParams()
	switch variant {
	case "a":
		p.MeanFlowBits = 8e4 // 10 KB
	case "c":
		// base: k=0.5, alpha=2, mean 10 MB
	case "d":
		p.K = 1.0
	case "e":
		p.K = 0.1
	case "f":
		p.Tx.Alpha = 3
	default:
		return Params{}, fmt.Errorf("experiments: unknown Fig 6 variant %q", variant)
	}
	return p, nil
}

// ParamsFig7 returns the configuration for Figure 7 (notification counts;
// the paper uses the long-flow setting).
func ParamsFig7() Params {
	return baseParams()
}

// ParamsFig8 returns the configuration for Figure 8 (system lifetime):
// max-lifetime strategy, deliberately low node energy, flows long enough
// that bottleneck relays die. The OCR-damaged text loses the exact energy
// range ("between 5 and Joules"). U[100, 200] J was chosen to land the
// cost-unaware lifetime-ratio average at the paper's reported ≈0.55, but
// it measures 0.753 at 100 flows, seed 1 (EXPERIMENTS.md), so the range
// is still an open calibration.
func ParamsFig8() Params {
	p := baseParams()
	p.StrategyName = "max-lifetime"
	p.EnergyLo = 100
	p.EnergyHi = 200
	p.StopOnFirstDeath = true
	return p
}

// Validate checks the parameters, including compiling the world
// configuration they describe.
func (p Params) Validate() error {
	_, err := p.config()
	return err
}

// config validates the parameters and compiles them into the world
// configuration every run of a sweep starts from, through netsim's one
// compile path (WithStrategy). The drivers set Mode (and, where a run
// compares strategies, Strategy) per run; packet size and rate stay at
// the netsim defaults.
func (p Params) config() (netsim.Config, error) {
	switch {
	case p.Flows < 1:
		return netsim.Config{}, fmt.Errorf("experiments: need at least one flow, got %d", p.Flows)
	case p.Nodes < 2:
		return netsim.Config{}, fmt.Errorf("experiments: need at least two nodes, got %d", p.Nodes)
	case p.FieldW <= 0 || p.FieldH <= 0:
		return netsim.Config{}, fmt.Errorf("experiments: empty field %vx%v", p.FieldW, p.FieldH)
	case p.MeanFlowBits <= 0:
		return netsim.Config{}, fmt.Errorf("experiments: non-positive mean flow length %v", p.MeanFlowBits)
	case p.EnergyLo <= 0 || p.EnergyHi < p.EnergyLo:
		return netsim.Config{}, fmt.Errorf("experiments: bad energy range [%v, %v]", p.EnergyLo, p.EnergyHi)
	case p.MinPathLen < 2:
		return netsim.Config{}, fmt.Errorf("experiments: MinPathLen %d below 2", p.MinPathLen)
	}
	cfg := netsim.DefaultConfig()
	cfg.Radio = radio.Config{Tx: p.Tx, Range: p.Range, ChargeControl: p.ChargeControl}
	cfg.Mobility = energy.MobilityModel{K: p.K}
	cfg.MaxStep = p.MaxStep
	cfg.EstimateScale = p.EstimateScale
	cfg.StopOnFirstDeath = p.StopOnFirstDeath
	cfg.Motion = p.Motion
	cfg.Faults = p.Faults
	if p.Planner != nil {
		cfg.Planner = p.Planner
	}
	return cfg.WithStrategy(p.StrategyName, p.StrategyParams)
}

// Instance is one Monte-Carlo flow instance: a placement, initial
// energies, endpoints, and a flow length — identical across the compared
// modes.
type Instance struct {
	Positions []geom.Point
	Energies  []float64
	Src, Dst  int
	FlowBits  float64
	// Path is the planned route on the initial topology.
	Path []int
}

// GenInstance draws trial's Monte-Carlo instance. All randomness comes
// from the stream derived from (p.Seed, trial), so instance i depends on
// nothing but the seed and its own index — never on other trials — and
// trials can be generated in any order or in parallel. Draws whose
// endpoints greedy routing cannot connect (or whose path is shorter than
// MinPathLen) are redrawn from the trial's stream, as in the paper's
// setup.
func GenInstance(p Params, trial int) (Instance, error) {
	planner := p.Planner
	if planner == nil {
		planner = routing.GreedyPlanner{}
	}
	maxBits := p.MaxFlowBits
	if maxBits <= 0 {
		maxBits = 20 * p.MeanFlowBits
	}
	src := stats.NewSourceOf(sweep.NewStream(p.Seed, uint64(trial)))
	const maxAttempts = 10000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pos := topo.PlaceUniform(src, p.Nodes, p.FieldW, p.FieldH)
		g, err := topo.NewGraph(pos, p.Range)
		if err != nil {
			return Instance{}, err
		}
		a := src.Intn(p.Nodes)
		b := src.Intn(p.Nodes)
		if a == b {
			continue
		}
		path, err := planner.PlanRoute(g, a, b)
		if err != nil || len(path) < p.MinPathLen {
			continue
		}
		bits := src.Exp(p.MeanFlowBits)
		if bits < 8192 {
			bits = 8192 // at least one packet
		}
		if bits > maxBits {
			bits = maxBits
		}
		energies := make([]float64, p.Nodes)
		for i := range energies {
			energies[i] = src.Uniform(p.EnergyLo, p.EnergyHi)
		}
		if p.EnergyTiers >= 2 {
			quantizeTiers(energies, p.EnergyLo, p.EnergyHi, p.EnergyTiers)
		}
		return Instance{
			Positions: pos,
			Energies:  energies,
			Src:       a,
			Dst:       b,
			FlowBits:  bits,
			Path:      path,
		}, nil
	}
	return Instance{}, errors.New("experiments: could not generate a routable instance (network too sparse?)")
}

// quantizeTiers snaps each energy down to the floor of its tier band
// within [lo, hi]: tiers discrete initial-energy classes, the
// heterogeneous node population of LEACH-style protocols.
func quantizeTiers(energies []float64, lo, hi float64, tiers int) {
	width := (hi - lo) / float64(tiers)
	if width <= 0 {
		return
	}
	for i, e := range energies {
		t := int((e - lo) / width)
		if t >= tiers {
			t = tiers - 1
		}
		energies[i] = lo + float64(t)*width
	}
}

// GenInstancesCtx draws the p.Flows Monte-Carlo instances on the sweep
// runner, one independent trial stream per instance; canceling ctx
// aborts the draw.
func GenInstancesCtx(ctx context.Context, p Params) ([]Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	instances, _, err := sweep.Map(ctx, p.runner(), p.Flows, func(_ context.Context, trial int) (Instance, error) {
		return GenInstance(p, trial)
	})
	return instances, err
}

// EnergyRow is one Figure 6 scatter point: per-approach energy and the
// paper's energy consumption ratio (approach / no-mobility baseline).
type EnergyRow struct {
	FlowBits         float64
	PathLen          int
	Baseline         metrics.EnergyBreakdown
	CostUnaware      metrics.EnergyBreakdown
	Informed         metrics.EnergyBreakdown
	RatioCostUnaware float64
	RatioInformed    float64
	// InformedFlips counts mobility status changes applied by the source
	// (feeds Figure 7).
	InformedFlips int
	// InformedNotifications counts destination feedback packets.
	InformedNotifications int
}

// Fig6Result aggregates one Figure 6 panel.
type Fig6Result struct {
	Variant string
	Params  Params
	Rows    []EnergyRow
	// AvgRatioCostUnaware / AvgRatioInformed are the panel averages the
	// paper prints in each subfigure legend.
	AvgRatioCostUnaware float64
	AvgRatioInformed    float64
	// Sweep is execution metadata (wall clock, workers); excluded from
	// marshaled output so serial and parallel runs stay byte-identical.
	Sweep metrics.SweepStats `json:"-"`
}

// RunFig6Ctx reproduces one panel of the paper's Figure 6: for each flow
// instance, total energy under cost-unaware and informed mobility relative
// to the no-mobility baseline. Canceling ctx aborts the sweep, as does the
// first trial error. The panel journals as cell "fig6"+variant.
func RunFig6Ctx(ctx context.Context, p Params, variant string) (Fig6Result, error) {
	res := Fig6Result{Variant: variant, Params: p}
	rows, err := runTrials(ctx, p, "fig6"+variant, &res.Sweep, func(cfg netsim.Config, trial int) (EnergyRow, error) {
		inst, err := GenInstance(p, trial)
		if err != nil {
			return EnergyRow{}, err
		}
		r, err := runModes(cfg, inst, paperModes...)
		if err != nil {
			return EnergyRow{}, err
		}
		base, cu, inf := r[0], r[1], r[2]
		return EnergyRow{
			FlowBits:              inst.FlowBits,
			PathLen:               len(inst.Path),
			Baseline:              base.Energy,
			CostUnaware:           cu.Energy,
			Informed:              inf.Energy,
			RatioCostUnaware:      stats.Ratio(cu.Energy.Total(), base.Energy.Total()),
			RatioInformed:         stats.Ratio(inf.Energy.Total(), base.Energy.Total()),
			InformedFlips:         inf.Outcome().StatusFlips,
			InformedNotifications: inf.Outcome().Notifications,
		}, nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	res.Rows = rows
	res.AvgRatioCostUnaware = meanOf(rows, func(r EnergyRow) float64 { return r.RatioCostUnaware })
	res.AvgRatioInformed = meanOf(rows, func(r EnergyRow) float64 { return r.RatioInformed })
	return res, nil
}

// Fig6bResult reproduces Figure 6(b): for the cost-unaware approach on
// short flows, mobility energy dwarfs transmission energy.
type Fig6bResult struct {
	Rows []EnergyRow
	// AvgMobility and AvgTransmission are the panel averages. The paper
	// reports 9.7 J of mobility energy; the 10 KB flow mean measures
	// 16.2 J at 100 flows, seed 1 (EXPERIMENTS.md).
	AvgMobility     float64
	AvgTransmission float64
	Sweep           metrics.SweepStats `json:"-"`
}

// RunFig6bCtx derives the Figure 6(b) comparison from a Figure
// 6(a)-style run (journaled as cell "fig6b").
func RunFig6bCtx(ctx context.Context, p Params) (Fig6bResult, error) {
	fig6, err := RunFig6Ctx(ctx, p, "b")
	if err != nil {
		return Fig6bResult{}, err
	}
	return Fig6bResult{
		Rows:            fig6.Rows,
		AvgMobility:     meanOf(fig6.Rows, func(r EnergyRow) float64 { return r.CostUnaware.Move }),
		AvgTransmission: meanOf(fig6.Rows, func(r EnergyRow) float64 { return r.CostUnaware.Tx }),
		Sweep:           fig6.Sweep,
	}, nil
}

// Fig7Result reproduces Figure 7: the number of notification packets per
// flow under iMobif ("only a few notification packets are sent for most
// flows").
type Fig7Result struct {
	Counts []int
	Avg    float64
	Max    int
	Sweep  metrics.SweepStats `json:"-"`
}

// RunFig7Ctx runs the informed mode over the Figure 7 configuration and
// collects notification counts.
func RunFig7Ctx(ctx context.Context, p Params) (Fig7Result, error) {
	var res Fig7Result
	counts, err := runTrials(ctx, p, "fig7", &res.Sweep, func(cfg netsim.Config, trial int) (int, error) {
		inst, err := GenInstance(p, trial)
		if err != nil {
			return 0, err
		}
		r, err := runModes(cfg, inst, netsim.ModeInformed)
		if err != nil {
			return 0, err
		}
		return r[0].Outcome().Notifications, nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	res.Counts = counts
	var sum int
	for _, n := range counts {
		sum += n
		if n > res.Max {
			res.Max = n
		}
	}
	res.Avg = float64(sum) / float64(len(counts))
	return res, nil
}

// LifetimeRow is one Figure 8 sample: system lifetime under each approach
// and the lifetime ratios over the baseline.
type LifetimeRow struct {
	FlowBits         float64
	Baseline         float64
	CostUnaware      float64
	Informed         float64
	RatioCostUnaware float64
	RatioInformed    float64
}

// Fig8Result reproduces Figure 8: the CDF of the system lifetime ratio for
// cost-unaware and informed mobility.
type Fig8Result struct {
	Params Params
	Rows   []LifetimeRow
	// CDFCostUnaware and CDFInformed are (ratio, cumulative fraction)
	// series — the curves of Figure 8.
	CDFCostUnaware [][2]float64
	CDFInformed    [][2]float64
	// Panel averages (the paper reports cost-unaware ≈ 0.55 and informed
	// > 1).
	AvgRatioCostUnaware float64
	AvgRatioInformed    float64
	MaxRatioInformed    float64
	Sweep               metrics.SweepStats `json:"-"`
}

// RunFig8Ctx reproduces the system-lifetime experiment.
func RunFig8Ctx(ctx context.Context, p Params) (Fig8Result, error) {
	return runFig8(ctx, p, "fig8")
}

// runFig8 runs the lifetime experiment journaled as cell.
func runFig8(ctx context.Context, p Params, cell string) (Fig8Result, error) {
	res := Fig8Result{Params: p}
	rows, err := runTrials(ctx, p, cell, &res.Sweep, func(cfg netsim.Config, trial int) (LifetimeRow, error) {
		inst, err := GenInstance(p, trial)
		if err != nil {
			return LifetimeRow{}, err
		}
		r, err := runModes(cfg, inst, paperModes...)
		if err != nil {
			return LifetimeRow{}, err
		}
		row := LifetimeRow{
			FlowBits:    inst.FlowBits,
			Baseline:    float64(r[0].Outcome().Lifetime()),
			CostUnaware: float64(r[1].Outcome().Lifetime()),
			Informed:    float64(r[2].Outcome().Lifetime()),
		}
		row.RatioCostUnaware = stats.Ratio(row.CostUnaware, row.Baseline)
		row.RatioInformed = stats.Ratio(row.Informed, row.Baseline)
		return row, nil
	})
	if err != nil {
		return Fig8Result{}, err
	}
	res.Rows = rows
	var ratiosCU, ratiosInf []float64
	for _, row := range rows {
		ratiosCU = append(ratiosCU, row.RatioCostUnaware)
		ratiosInf = append(ratiosInf, row.RatioInformed)
		if row.RatioInformed > res.MaxRatioInformed {
			res.MaxRatioInformed = row.RatioInformed
		}
	}
	res.AvgRatioCostUnaware = stats.Mean(ratiosCU)
	res.AvgRatioInformed = stats.Mean(ratiosInf)
	res.CDFCostUnaware = stats.NewCDF(ratiosCU).Points()
	res.CDFInformed = stats.NewCDF(ratiosInf).Points()
	return res, nil
}

// Fig5Result reproduces Figure 5: a flow path before mobility, at the
// min-energy steady state, and at the max-lifetime steady state, plus the
// structural metrics the paper's plots convey visually.
type Fig5Result struct {
	// Energies are the residual energies of the path nodes (node size in
	// the paper's plots).
	Energies []float64
	// Original, MinEnergy, MaxLifetime are the path-node positions in
	// path order.
	Original    []geom.Point
	MinEnergy   []geom.Point
	MaxLifetime []geom.Point
	// Collinearity and spacing metrics quantify "on the line" and
	// "evenly spaced" (min-energy) / "energy-proportionally spaced"
	// (max-lifetime).
	OrigCollinearity   float64
	MinECollinearity   float64
	MaxLCollinearity   float64
	MinESpacingCV      float64
	OrigSpacingCV      float64
	PowerEnergyRatioCV float64
}

// RunFig5 drives a single long flow to steady state under both strategies
// (cost-unaware mode isolates placement from the enable/disable logic, as
// the paper's snapshots do) and returns the three topology views.
func RunFig5(p Params) (Fig5Result, error) {
	cfg, err := p.config()
	if err != nil {
		return Fig5Result{}, err
	}
	cfg.Mode = netsim.ModeCostUnaware
	cfg.StopOnFirstDeath = false
	p.Flows = 1
	p.MeanFlowBits = 8e7 // long enough to converge
	p.MaxFlowBits = 8e7
	p.EnergyLo, p.EnergyHi = 5e3, 1e4
	inst, err := GenInstance(p, 0)
	if err != nil {
		return Fig5Result{}, err
	}
	inst.FlowBits = 8e7

	var res Fig5Result
	res.Original = make([]geom.Point, len(inst.Path))
	for i, id := range inst.Path {
		res.Original[i] = inst.Positions[id]
		res.Energies = append(res.Energies, inst.Energies[id])
	}
	res.OrigCollinearity = geom.Collinearity(res.Original)
	res.OrigSpacingCV = geom.SpacingVariation(res.Original)

	runWith := func(strategy string) ([]geom.Point, error) {
		run, err := cfg.WithStrategy(strategy, nil)
		if err != nil {
			return nil, err
		}
		w, err := netsim.NewWorld(run, inst.Positions, inst.Energies)
		if err != nil {
			return nil, err
		}
		id, err := w.AddFlow(netsim.FlowSpec{
			Src: inst.Src, Dst: inst.Dst, LengthBits: inst.FlowBits,
			Path: append([]int(nil), inst.Path...),
		})
		if err != nil {
			return nil, err
		}
		if _, err := w.Run(); err != nil {
			return nil, err
		}
		return w.PathSnapshot(id)
	}

	if res.MinEnergy, err = runWith(mobility.MinEnergy{}.Name()); err != nil {
		return Fig5Result{}, err
	}
	if res.MaxLifetime, err = runWith(mobility.MaxLifetime{}.Name()); err != nil {
		return Fig5Result{}, err
	}
	res.MinECollinearity = geom.Collinearity(res.MinEnergy)
	res.MaxLCollinearity = geom.Collinearity(res.MaxLifetime)
	res.MinESpacingCV = geom.SpacingVariation(res.MinEnergy)

	// Theorem 1 check on the max-lifetime steady state: the coefficient
	// of variation of P(d_i)/e_i across transmitters (0 at the optimum).
	var ratios []float64
	for i := 0; i+1 < len(res.MaxLifetime); i++ {
		d := res.MaxLifetime[i].Dist(res.MaxLifetime[i+1])
		e := res.Energies[i]
		if e > 0 {
			ratios = append(ratios, p.Tx.Power(d)/e)
		}
	}
	if m := stats.Mean(ratios); m > 0 {
		res.PowerEnergyRatioCV = stats.StdDev(ratios) / m
	}
	return res, nil
}
