// Command imobif-figures regenerates every table and figure of the
// paper's evaluation section (Figures 5–8) plus the ablations listed in
// DESIGN.md, printing the same rows/series the paper reports and
// optionally writing CSV files for plotting.
//
// Usage:
//
//	imobif-figures -fig all -flows 100 -seed 1 [-csv outdir]
//	imobif-figures -fig 6a
//	imobif-figures -fig ablations
//	imobif-figures -fig mobility -flows 40
//
// The "mobility" extension sweeps the ambient-mobility model library
// (internal/motion) against the min-energy and max-lifetime strategies
// and tabulates delivery ratio, system lifetime, and mean residual
// energy per model (EXPERIMENTS.md "Mobility models").
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/prof"
	"repro/internal/stats"
)

// runOpts carries the sweep-level settings into each figure runner.
type runOpts struct {
	flows       int
	seed        int64
	concurrency int
	csvDir      string
	// nodes and field override the figure's network size and square
	// field side when positive; zero keeps the paper's values. A field
	// override of 0 with a nodes override auto-scales the field to the
	// paper's density (100 nodes/km²).
	nodes int
	field float64
	// checkpoint journals every Monte-Carlo sweep through the distributed
	// sweep fabric (one JSONL file per sweep cell in this directory);
	// resume loads existing checkpoints and re-runs only missing trials.
	checkpoint string
	resume     bool
}

// params applies the sweep-level settings to a figure configuration.
func (o runOpts) params(p experiments.Params) experiments.Params {
	p.Flows = o.flows
	p.Seed = o.seed
	p.Concurrency = o.concurrency
	p.Checkpoint = o.checkpoint
	p.Resume = o.resume
	if o.nodes > 0 {
		p.Nodes = o.nodes
		side := o.field
		if side <= 0 {
			side = 1000 * math.Sqrt(float64(o.nodes)/100)
		}
		p.FieldW, p.FieldH = side, side
	} else if o.field > 0 {
		p.FieldW, p.FieldH = o.field, o.field
	}
	return p
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6a, 6b, 6c, 6d, 6e, 6f, 7, 8, mobility, strategies, ablations, scaling, all")
	flows := flag.Int("flows", 100, "Monte-Carlo flow instances per figure")
	seed := flag.Int64("seed", 1, "random seed")
	concurrency := flag.Int("concurrency", 0, "parallel sweep workers (0 = all CPUs, 1 = serial; results are identical either way)")
	csvDir := flag.String("csv", "", "directory to write CSV series into (optional)")
	nodes := flag.Int("nodes", 0, "override network size (0 = paper's value; pairs with -field)")
	field := flag.Float64("field", 0, "override square field side in meters (0 with -nodes = auto-scale to the paper's 100 nodes/km²)")
	checkpoint := flag.String("checkpoint", "", "directory for per-sweep checkpoints (crash recovery)")
	resume := flag.Bool("resume", false, "resume from existing checkpoints, re-running only missing trials")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imobif-figures: %v\n", err)
		os.Exit(1)
	}
	opts := runOpts{
		flows: *flows, seed: *seed, concurrency: *concurrency, csvDir: *csvDir,
		nodes: *nodes, field: *field, checkpoint: *checkpoint, resume: *resume,
	}
	err = run(*fig, opts)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "imobif-figures: %v\n", err)
		os.Exit(1)
	}
}

func run(fig string, opts runOpts) error {
	if opts.csvDir != "" {
		if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
			return err
		}
	}
	if opts.checkpoint != "" {
		if err := os.MkdirAll(opts.checkpoint, 0o755); err != nil {
			return err
		}
	}
	all := fig == "all"
	ran := false
	dispatch := []struct {
		name string
		fn   func(runOpts) error
	}{
		{"5", runFig5},
		{"6a", fig6Runner("a")},
		{"6b", runFig6b},
		{"6c", fig6Runner("c")},
		{"6d", fig6Runner("d")},
		{"6e", fig6Runner("e")},
		{"6f", fig6Runner("f")},
		{"7", runFig7},
		{"8", runFig8},
		{"mobility", runMobility},
		{"strategies", runStrategies},
		{"ablations", runAblations},
		{"scaling", runScaling},
	}
	start := time.Now()
	for _, d := range dispatch {
		if all && (d.name == "ablations" || d.name == "mobility" || d.name == "strategies" || d.name == "scaling") {
			continue // extensions only on request; they multiply runtime
		}
		if all || fig == d.name {
			figStart := time.Now()
			if err := d.fn(opts); err != nil {
				return fmt.Errorf("figure %s: %w", d.name, err)
			}
			fmt.Printf("[figure %s done in %v]\n\n", d.name, time.Since(figStart).Round(time.Millisecond))
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	fmt.Printf("total wall-clock %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// reportSweep prints a sweep's wall-clock and throughput line.
func reportSweep(s metrics.SweepStats) {
	fmt.Printf("sweep: %s\n", s)
}

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f2s(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func runFig5(opts runOpts) error {
	csvDir := opts.csvDir
	p := experiments.ParamsFig7() // base parameters
	p.Seed = opts.seed
	p.Concurrency = opts.concurrency
	res, err := experiments.RunFig5(p)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 5: effect of controlled mobility on a flow path ===")
	fmt.Println("(node size in the paper's plot ∝ residual energy; shown here as J)")
	fmt.Printf("%-5s %-10s %-22s %-22s %-22s\n", "node", "energy(J)", "(a) original", "(b) min-energy", "(c) max-lifetime")
	var rows [][]string
	for i := range res.Original {
		fmt.Printf("%-5d %-10.1f %-22s %-22s %-22s\n",
			i, res.Energies[i], res.Original[i], res.MinEnergy[i], res.MaxLifetime[i])
		rows = append(rows, []string{
			strconv.Itoa(i), f2s(res.Energies[i]),
			f2s(res.Original[i].X), f2s(res.Original[i].Y),
			f2s(res.MinEnergy[i].X), f2s(res.MinEnergy[i].Y),
			f2s(res.MaxLifetime[i].X), f2s(res.MaxLifetime[i].Y),
		})
	}
	fmt.Printf("collinearity (max off-line distance, m): original %.1f  min-energy %.2f  max-lifetime %.2f\n",
		res.OrigCollinearity, res.MinECollinearity, res.MaxLCollinearity)
	fmt.Printf("spacing cv: original %.3f  min-energy %.4f (even spacing)\n",
		res.OrigSpacingCV, res.MinESpacingCV)
	fmt.Printf("Theorem 1 check, cv of P(d_i)/e_i at max-lifetime steady state: %.3f (0 = optimal)\n\n",
		res.PowerEnergyRatioCV)
	return writeCSV(csvDir, "fig5.csv",
		[]string{"node", "energy", "orig_x", "orig_y", "minE_x", "minE_y", "maxL_x", "maxL_y"}, rows)
}

func fig6Runner(variant string) func(runOpts) error {
	return func(opts runOpts) error {
		csvDir := opts.csvDir
		p, err := experiments.ParamsFig6(variant)
		if err != nil {
			return err
		}
		p = opts.params(p)
		res, err := experiments.RunFig6Ctx(context.Background(), p, variant)
		if err != nil {
			return err
		}
		fmt.Printf("=== Figure 6(%s): energy consumption ratio (k=%v, α=%v, mean flow %.0f KB, %d flows) ===\n",
			variant, p.K, p.Tx.Alpha, p.MeanFlowBits/8/1024, len(res.Rows))
		fmt.Printf("%-10s %-12s %-14s %-12s\n", "flow(KB)", "baseline(J)", "cost-unaware", "imobif")
		var rows [][]string
		for _, r := range res.Rows {
			fmt.Printf("%-10.0f %-12.2f %-14.3f %-12.3f\n",
				r.FlowBits/8/1024, r.Baseline.Total(), r.RatioCostUnaware, r.RatioInformed)
			rows = append(rows, []string{
				f2s(r.FlowBits), f2s(r.Baseline.Total()),
				f2s(r.RatioCostUnaware), f2s(r.RatioInformed),
			})
		}
		fmt.Printf("Cost-Unaware: Average: %.3f   iMobif: Average: %.3f\n",
			res.AvgRatioCostUnaware, res.AvgRatioInformed)
		reportSweep(res.Sweep)
		return writeCSV(csvDir, "fig6"+variant+".csv",
			[]string{"flow_bits", "baseline_joules", "ratio_cost_unaware", "ratio_imobif"}, rows)
	}
}

func runFig6b(opts runOpts) error {
	csvDir := opts.csvDir
	p, err := experiments.ParamsFig6("a")
	if err != nil {
		return err
	}
	p = opts.params(p)
	res, err := experiments.RunFig6bCtx(context.Background(), p)
	if err != nil {
		return err
	}
	fmt.Printf("=== Figure 6(b): mobility vs transmission energy, cost-unaware, short flows (%d flows) ===\n", len(res.Rows))
	fmt.Printf("%-10s %-14s %-16s\n", "flow(KB)", "mobility(J)", "transmission(J)")
	var rows [][]string
	for _, r := range res.Rows {
		fmt.Printf("%-10.0f %-14.2f %-16.3f\n", r.FlowBits/8/1024, r.CostUnaware.Move, r.CostUnaware.Tx)
		rows = append(rows, []string{f2s(r.FlowBits), f2s(r.CostUnaware.Move), f2s(r.CostUnaware.Tx)})
	}
	fmt.Printf("Mobility Energy Consumption: Average: %.2f J   Transmission: Average: %.3f J\n",
		res.AvgMobility, res.AvgTransmission)
	reportSweep(res.Sweep)
	return writeCSV(csvDir, "fig6b.csv",
		[]string{"flow_bits", "mobility_joules", "transmission_joules"}, rows)
}

func runFig7(opts runOpts) error {
	csvDir := opts.csvDir
	p := opts.params(experiments.ParamsFig7())
	res, err := experiments.RunFig7Ctx(context.Background(), p)
	if err != nil {
		return err
	}
	fmt.Printf("=== Figure 7: notification packets per flow (%d flows) ===\n", len(res.Counts))
	var rows [][]string
	for i, c := range res.Counts {
		fmt.Printf("flow %-4d notifications %d\n", i, c)
		rows = append(rows, []string{strconv.Itoa(i), strconv.Itoa(c)})
	}
	fmt.Printf("Number of Notifications: Average: %.2f  Max: %d\n", res.Avg, res.Max)
	reportSweep(res.Sweep)
	return writeCSV(csvDir, "fig7.csv", []string{"flow", "notifications"}, rows)
}

func runFig8(opts runOpts) error {
	csvDir := opts.csvDir
	p := opts.params(experiments.ParamsFig8())
	res, err := experiments.RunFig8Ctx(context.Background(), p)
	if err != nil {
		return err
	}
	fmt.Printf("=== Figure 8: CDF of system lifetime ratio (k=%v, α=%v, energy U[%v,%v] J, %d flows) ===\n",
		p.K, p.Tx.Alpha, p.EnergyLo, p.EnergyHi, len(res.Rows))
	fmt.Printf("%-20s %-16s %-16s\n", "ratio", "CDF cost-unaware", "CDF informed")
	var rows [][]string
	for i := range res.CDFInformed {
		cu := res.CDFCostUnaware[i]
		inf := res.CDFInformed[i]
		fmt.Printf("cu: %-7.3f @ %-6.2f  inf: %-7.3f @ %-6.2f\n", cu[0], cu[1], inf[0], inf[1])
		rows = append(rows, []string{f2s(cu[0]), f2s(cu[1]), f2s(inf[0]), f2s(inf[1])})
	}
	fmt.Printf("Cost-Unaware: Average %.3f   Informed: Average %.3f (max %.2f)\n",
		res.AvgRatioCostUnaware, res.AvgRatioInformed, res.MaxRatioInformed)
	reportSweep(res.Sweep)
	return writeCSV(csvDir, "fig8.csv",
		[]string{"cu_ratio", "cu_cdf", "inf_ratio", "inf_cdf"}, rows)
}

func runMobility(opts runOpts) error {
	p := opts.params(experiments.ParamsMobility())
	res, err := experiments.RunMobilityModelsCtx(context.Background(), p)
	if err != nil {
		return err
	}
	fmt.Printf("=== Extension: ambient mobility models × strategies (k=%v, energy U[%v,%v] J, %d flows/cell) ===\n",
		p.K, p.EnergyLo, p.EnergyHi, p.Flows)
	fmt.Printf("(speeds U[%v,%v] m/s; ambient motion is free-carrier — see EXPERIMENTS.md)\n",
		p.Motion.SpeedLo, p.Motion.SpeedHi)
	fmt.Printf("%-16s %-14s %-10s %-10s %-13s %-13s\n",
		"model", "strategy", "delivery", "completed", "lifetime(s)", "residual(J)")
	var rows [][]string
	for _, c := range res.Cells {
		fmt.Printf("%-16s %-14s %-10.3f %-10.2f %-13.1f %-13.1f\n",
			c.Model, c.Strategy, c.DeliveryRatio, c.Completed, c.Lifetime, c.MeanResidual)
		rows = append(rows, []string{
			c.Model, c.Strategy, f2s(c.DeliveryRatio), f2s(c.Completed),
			f2s(c.Lifetime), f2s(c.MeanResidual),
		})
	}
	reportSweep(res.Sweep)
	return writeCSV(opts.csvDir, "mobility.csv",
		[]string{"model", "strategy", "delivery_ratio", "completed", "lifetime_s", "mean_residual_j"}, rows)
}

func runStrategies(opts runOpts) error {
	p := opts.params(experiments.ParamsStrategies())
	res, err := experiments.RunStrategyComparisonCtx(context.Background(), p)
	if err != nil {
		return err
	}
	fmt.Printf("=== Extension: registered strategies × channel regimes (k=%v, energy U[%v,%v] J in %d tiers, %d flows/cell) ===\n",
		p.K, p.EnergyLo, p.EnergyHi, p.EnergyTiers, p.Flows)
	fmt.Printf("(strategies: %s; regimes: %s — see EXPERIMENTS.md)\n",
		strings.Join(res.Strategies, ", "), strings.Join(res.Regimes, ", "))
	fmt.Printf("%-22s %-11s %-10s %-9s %-9s %-9s %-10s %-12s %-12s\n",
		"strategy", "regime", "total(J)", "tx(J)", "move(J)", "delivery", "completed", "lifetime(s)", "residual(J)")
	for _, c := range res.Cells {
		fmt.Printf("%-22s %-11s %-10.1f %-9.1f %-9.1f %-9.3f %-10.2f %-12.1f %-12.1f\n",
			c.Strategy, c.Regime, c.TotalJ, c.TxJ, c.MoveJ, c.DeliveryRatio, c.Completed, c.Lifetime, c.MeanResidual)
	}
	reportSweep(res.Sweep)
	csvRows := res.CSV()
	return writeCSV(opts.csvDir, "strategies.csv", csvRows[0], csvRows[1:])
}

func runAblations(opts runOpts) error {
	ctx := context.Background()
	csvDir := opts.csvDir
	if opts.flows > 30 {
		opts.flows = 30 // ablations sweep many configurations
	}
	// Ablations run on the long-flow configuration, where the enable
	// decision is actually in play (on short flows iMobif simply never
	// moves and every knob reads 1.000).
	base, err := experiments.ParamsFig6("c")
	if err != nil {
		return err
	}
	base = opts.params(base)
	base.MaxFlowBits = 4 * base.MeanFlowBits
	// The multi-flow and threshold studies run half as many trials.
	half := base
	half.Flows = max(base.Flows/2, 2)

	fmt.Println("=== Ablation A1: inaccurate flow-length estimates ===")
	sens, err := experiments.RunFlowLengthSensitivityCtx(ctx, base, nil)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, pt := range sens {
		fmt.Printf("estimate scale %-5v -> informed avg ratio %.3f\n", pt.EstimateScale, pt.AvgRatioInformed)
		rows = append(rows, []string{f2s(pt.EstimateScale), f2s(pt.AvgRatioInformed)})
	}
	if err := writeCSV(csvDir, "ablation_a1.csv", []string{"estimate_scale", "informed_ratio"}, rows); err != nil {
		return err
	}

	fmt.Println("\n=== Ablation A2: relay selection (route planner) ===")
	rel, err := experiments.RunRelaySelectionCtx(ctx, base)
	if err != nil {
		return err
	}
	for _, pl := range rel.Planners {
		fmt.Printf("%-10s informed avg ratio %.3f  avg energy %.2f J  avg path len %.1f\n",
			pl.Name, pl.AvgRatioInformed, pl.AvgInformedTotal, pl.AvgPathLen)
	}

	fmt.Println("\n=== Ablation A3: multiple concurrent flows ===")
	multi, err := experiments.RunMultiFlowCtx(ctx, half, 3)
	if err != nil {
		return err
	}
	fmt.Printf("3 flows/world: completed %d/%d, informed network-energy ratio %.3f\n",
		multi.Completed, multi.Total, multi.AvgRatioInformed)

	fmt.Println("\n=== Ablation A4: control-traffic cost ===")
	ctrl, err := experiments.RunControlOverheadCtx(ctx, base)
	if err != nil {
		return err
	}
	fmt.Printf("free control: ratio %.3f   charged control: ratio %.3f (avg %.3f J control/flow)\n",
		ctrl.FreeAvgRatio, ctrl.ChargedAvgRatio, ctrl.AvgControlJoules)

	fmt.Println("\n=== Ablation A5: max movement per packet ===")
	steps, err := experiments.RunStepSweepCtx(ctx, base, nil)
	if err != nil {
		return err
	}
	for _, pt := range steps {
		fmt.Printf("max step %-4v m -> informed avg ratio %.3f, avg status flips %.2f\n",
			pt.MaxStep, pt.AvgRatioInformed, pt.AvgFlips)
	}

	fmt.Println("\n=== Extension: relay recruitment (selection + positioning, paper §5) ===")
	rec, err := experiments.RunRelayRecruitmentCtx(ctx, base)
	if err != nil {
		return err
	}
	fmt.Printf("informed-on-greedy avg ratio %.3f vs recruited-optimal-chain avg ratio %.3f (avg deploy %.0f J, %d skipped)\n",
		rec.AvgRatioInformedGreedy, rec.AvgRatioRecruited, rec.AvgDeployCost, rec.Skipped)
	// Deployment amortizes only on long flows; split the summary there.
	var longR, shortR []float64
	for _, row := range rec.Rows {
		r := row.Recruited / row.Baseline
		if row.FlowBits >= 1.5e8 {
			longR = append(longR, r)
		} else {
			shortR = append(shortR, r)
		}
	}
	fmt.Printf("  flows >= 150 Mbit: avg ratio %.3f over %d  |  shorter: avg ratio %.3f over %d\n",
		stats.Mean(longR), len(longR), stats.Mean(shortR), len(shortR))

	fmt.Println("\n=== Extension: flow-length threshold sweep (break-even crossover) ===")
	points, err := experiments.RunThresholdSweepCtx(ctx, half, []float64{8e4, 8e6, 8e7, 4e8})
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Printf("flow %-10.0f KB: cost-unaware %.3f  imobif %.3f  activation %.0f%%\n",
			pt.FlowBits/8/1024, pt.AvgRatioCostUnaware, pt.AvgRatioInformed, 100*pt.ActivationRate)
	}

	fmt.Println("\n=== Ablation A6: α′ approximation vs exact Theorem 1 solve ===")
	a6, err := experiments.RunAlphaPrimeQualityCtx(ctx, opts.params(experiments.ParamsFig8()))
	if err != nil {
		return err
	}
	fmt.Printf("α′ = %.3f; lifetime ratio: approx %.3f vs exact %.3f\n\n",
		a6.AlphaPrime, a6.AvgRatioApprox, a6.AvgRatioExact)
	return nil
}

// runScaling measures the nodes × procs throughput table (the scaling
// extension, EXPERIMENTS.md "Scaling to 100k"). -nodes caps the rungs so
// quick runs can skip the 100k row.
func runScaling(opts runOpts) error {
	p := experiments.ParamsScaling()
	p.Seed = opts.seed
	if opts.nodes > 0 {
		var rungs []int
		for _, n := range p.Nodes {
			if n <= opts.nodes {
				rungs = append(rungs, n)
			}
		}
		if len(rungs) == 0 {
			rungs = []int{opts.nodes}
		}
		p.Nodes = rungs
	}
	res, err := experiments.RunScaling(p)
	if err != nil {
		return err
	}
	fmt.Printf("=== Extension: scaling — wall-clock throughput across nodes × procs (degree %.0f, horizon %.0fs) ===\n",
		float64(netsim.ScaleTargetDegree), float64(p.Horizon))
	fmt.Println("(procs = GOMAXPROCS, HELLO rounds split over min(procs, 8) workers; node-sim/s = simulated node-seconds per wall second)")
	fmt.Printf("%-9s %-8s %-8s %-10s %-13s %-10s\n",
		"nodes", "procs", "flows", "wall(s)", "node-sim/s", "completed")
	var rows [][]string
	for _, c := range res.Cells {
		fmt.Printf("%-9d %-8d %-8d %-10.2f %-13.3g %-10.2f\n",
			c.Nodes, c.Procs, c.Flows, c.WallSeconds, c.NodeSimPerWall, c.Completed)
		rows = append(rows, []string{
			strconv.Itoa(c.Nodes), strconv.Itoa(c.Procs), strconv.Itoa(c.Flows),
			f2s(c.WallSeconds), f2s(c.NodeSimPerWall), f2s(c.Completed), f2s(c.TotalJ),
		})
	}
	return writeCSV(opts.csvDir, "scaling.csv",
		[]string{"nodes", "procs", "flows", "wall_s", "node_sim_per_wall", "completed", "total_j"}, rows)
}
