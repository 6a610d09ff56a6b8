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
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
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
	var opts runOpts
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6a, 6b, 6c, 6d, 6e, 6f, 7, 8, mobility, strategies, ablations, scaling, all")
	flag.IntVar(&opts.flows, "flows", 100, "Monte-Carlo flow instances per figure")
	flag.Int64Var(&opts.seed, "seed", 1, "random seed")
	flag.IntVar(&opts.concurrency, "concurrency", 0, "parallel sweep workers (0 = all CPUs, 1 = serial; results are identical either way)")
	flag.StringVar(&opts.csvDir, "csv", "", "directory to write CSV series into (optional)")
	flag.IntVar(&opts.nodes, "nodes", 0, "override network size (0 = paper's value; pairs with -field)")
	flag.Float64Var(&opts.field, "field", 0, "override square field side in meters (0 with -nodes = auto-scale to the paper's 100 nodes/km²)")
	flag.StringVar(&opts.checkpoint, "checkpoint", "", "directory for per-sweep checkpoints (crash recovery)")
	flag.BoolVar(&opts.resume, "resume", false, "resume from existing checkpoints, re-running only missing trials")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imobif-figures: %v\n", err)
		os.Exit(1)
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

// figure is one entry of the dispatch table: a driver that returns the
// tables it reports.
type figure struct {
	name string
	// extension marks the drivers -fig all skips: they run only on
	// request, since they multiply runtime.
	extension bool
	run       func(runOpts) ([]experiments.Table, error)
}

var figures = []figure{
	{name: "5", run: runFig5},
	{name: "6a", run: fig6("a")},
	{name: "6b", run: runFig6b},
	{name: "6c", run: fig6("c")},
	{name: "6d", run: fig6("d")},
	{name: "6e", run: fig6("e")},
	{name: "6f", run: fig6("f")},
	{name: "7", run: func(o runOpts) ([]experiments.Table, error) {
		return tables(experiments.RunFig7Ctx(context.Background(), o.params(experiments.ParamsFig7())))
	}},
	{name: "8", run: func(o runOpts) ([]experiments.Table, error) {
		return tables(experiments.RunFig8Ctx(context.Background(), o.params(experiments.ParamsFig8())))
	}},
	{name: "mobility", extension: true, run: func(o runOpts) ([]experiments.Table, error) {
		return tables(experiments.RunMobilityModelsCtx(context.Background(), o.params(experiments.ParamsMobility())))
	}},
	{name: "strategies", extension: true, run: func(o runOpts) ([]experiments.Table, error) {
		return tables(experiments.RunStrategyComparisonCtx(context.Background(), o.params(experiments.ParamsStrategies())))
	}},
	{name: "ablations", extension: true, run: runAblations},
	{name: "scaling", extension: true, run: runScaling},
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
	ran := false
	start := time.Now()
	for _, f := range figures {
		if fig != f.name && (fig != "all" || f.extension) {
			continue
		}
		figStart := time.Now()
		ts, err := f.run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		for _, t := range ts {
			printTable(t)
			if err := writeCSV(opts.csvDir, t); err != nil {
				return err
			}
		}
		fmt.Printf("[figure %s done in %v]\n\n", f.name, time.Since(figStart).Round(time.Millisecond))
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	fmt.Printf("total wall-clock %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// printTable renders t on stdout as aligned text: title, header and
// rows, summary lines, and the sweep's wall-clock line.
func printTable(t experiments.Table) {
	fmt.Printf("=== %s ===\n", t.Title)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, row := range t.Text() {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, line := range t.Summary {
		fmt.Println(line)
	}
	if t.Sweep.Trials > 0 {
		fmt.Printf("sweep: %s\n", t.Sweep)
	}
	fmt.Println()
}

// writeCSV writes t to <dir>/<t.Name>.csv; an empty dir writes nothing.
func writeCSV(dir string, t experiments.Table) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(t.CSV()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tables adapts a driver's (result, error) pair to the dispatch table.
func tables[R interface{ Table() experiments.Table }](res R, err error) ([]experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return []experiments.Table{res.Table()}, nil
}

func runFig5(opts runOpts) ([]experiments.Table, error) {
	// Fig 7's parameters are the base; RunFig5 sets its one flow itself.
	return tables(experiments.RunFig5(opts.params(experiments.ParamsFig7())))
}

func fig6(variant string) func(runOpts) ([]experiments.Table, error) {
	return func(opts runOpts) ([]experiments.Table, error) {
		p, err := experiments.ParamsFig6(variant)
		if err != nil {
			return nil, err
		}
		return tables(experiments.RunFig6Ctx(context.Background(), opts.params(p), variant))
	}
}

func runFig6b(opts runOpts) ([]experiments.Table, error) {
	p, err := experiments.ParamsFig6("a")
	if err != nil {
		return nil, err
	}
	return tables(experiments.RunFig6bCtx(context.Background(), opts.params(p)))
}

func runAblations(opts runOpts) ([]experiments.Table, error) {
	ctx := context.Background()
	opts.flows = min(opts.flows, 30) // ablations sweep many configurations
	// Ablations run on the long-flow configuration, where the enable
	// decision is actually in play (on short flows iMobif simply never
	// moves and every knob reads 1.000).
	base, err := experiments.ParamsFig6("c")
	if err != nil {
		return nil, err
	}
	base = opts.params(base)
	base.MaxFlowBits = 4 * base.MeanFlowBits
	// The multi-flow and threshold studies run half as many trials.
	half := base
	half.Flows = max(base.Flows/2, 2)

	a1, err := experiments.RunFlowLengthSensitivityCtx(ctx, base, nil)
	if err != nil {
		return nil, err
	}
	a2, err := experiments.RunRelaySelectionCtx(ctx, base)
	if err != nil {
		return nil, err
	}
	a3, err := experiments.RunMultiFlowCtx(ctx, half, 3)
	if err != nil {
		return nil, err
	}
	a4, err := experiments.RunControlOverheadCtx(ctx, base)
	if err != nil {
		return nil, err
	}
	a5, err := experiments.RunStepSweepCtx(ctx, base, nil)
	if err != nil {
		return nil, err
	}
	recruit, err := experiments.RunRelayRecruitmentCtx(ctx, base)
	if err != nil {
		return nil, err
	}
	threshold, err := experiments.RunThresholdSweepCtx(ctx, half, []float64{8e4, 8e6, 8e7, 4e8})
	if err != nil {
		return nil, err
	}
	a6, err := experiments.RunAlphaPrimeQualityCtx(ctx, opts.params(experiments.ParamsFig8()))
	if err != nil {
		return nil, err
	}
	return []experiments.Table{
		a1.Table(), a2.Table(), a3.Table(), a4.Table(), a5.Table(), recruit.Table(), threshold.Table(), a6.Table(),
	}, nil
}

// runScaling measures the nodes × procs throughput table (the scaling
// extension, EXPERIMENTS.md "Scaling to 100k"). -nodes caps the rungs so
// quick runs can skip the 100k row.
func runScaling(opts runOpts) ([]experiments.Table, error) {
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
	return tables(experiments.RunScaling(p))
}
