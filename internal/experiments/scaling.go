package experiments

// The scaling experiment: wall-clock throughput of the full world across
// node-count rungs and core counts. The paper's evaluation stops at tens
// of nodes; the struct-of-arrays store, Verlet neighbor rows, and
// data-parallel HELLO rounds exist to push the same simulation to 100k
// nodes, and this driver measures what that buys — a nodes × procs table
// of wall-clock seconds and simulated node-seconds per wall second
// (EXPERIMENTS.md "Scaling to 100k"). The procs axis is the cell's
// GOMAXPROCS, which sets the HELLO round worker count (min(GOMAXPROCS,
// 8), read when the world is built) and the cores those workers may use.
// Every rung is netsim.NewScaleWorld, the scene BenchmarkWorld100k runs;
// the benchmark pins placement seed 9001, while the figure places nodes
// from the ScalingParams seed (imobif-figures -seed, default 1), so only
// a run with -seed 9001 measures the benchmark's exact worlds.
//
// Unlike the other drivers this one measures wall time, so its numbers
// are machine-dependent by design; the *simulation results* per cell stay
// deterministic, and every procs setting of a rung is asserted to agree
// on them.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// ScalingParams configures the scaling sweep.
type ScalingParams struct {
	// Nodes lists the node-count rungs, each run once per procs setting.
	Nodes []int
	// FlowsPerK is the flow count per thousand nodes (rounded up to at
	// least one), keeping offered load proportional to network size.
	FlowsPerK int
	// Procs lists the GOMAXPROCS settings each rung runs under; the
	// world's HELLO rounds split across min(procs, 8) workers.
	Procs []int
	// Seed seeds node placement.
	Seed int64
	// Horizon is the virtual-time stop per run.
	Horizon sim.Time
}

// ParamsScaling returns the default sweep: the benchmark rungs up to 100k
// nodes, one versus two cores, ~15 expected radio neighbors, Gauss-Markov
// ambient drift.
func ParamsScaling() ScalingParams {
	return ScalingParams{
		Nodes:     []int{5000, 20000, 100000},
		FlowsPerK: 10,
		Procs:     []int{1, 2},
		Seed:      9001,
		Horizon:   1e5,
	}
}

// ScalingCell is one (nodes × procs) measurement.
type ScalingCell struct {
	Nodes int
	Flows int
	// Procs is the GOMAXPROCS setting the cell was built and run under.
	Procs int
	// WallSeconds is the wall-clock duration of the Run call (world
	// construction and flow planning are excluded, as in the benchmark).
	WallSeconds float64
	// SimSeconds is the virtual time the run covered.
	SimSeconds float64
	// NodeSimPerWall is the throughput figure: simulated node-seconds
	// advanced per wall-clock second (nodes × SimSeconds / WallSeconds).
	NodeSimPerWall float64
	// Completed is the fraction of flows that delivered every bit — a
	// sanity check that the workload is a real traffic scenario, not an
	// idle world.
	Completed float64
	// TotalJ is the network-wide energy spend, asserted identical across
	// the procs settings of a rung (the determinism cross-check).
	TotalJ float64
}

// ScalingResult is the full nodes × procs table.
type ScalingResult struct {
	Params ScalingParams
	Cells  []ScalingCell
}

// RunScaling measures every rung under every procs setting, serially (the
// cells time wall clock, so they must not compete for cores). Within a
// rung, all procs settings must produce identical simulation results;
// divergence is an error, not a data point.
func RunScaling(p ScalingParams) (*ScalingResult, error) {
	if len(p.Nodes) == 0 || len(p.Procs) == 0 {
		return nil, fmt.Errorf("experiments: empty scaling sweep %v × %v", p.Nodes, p.Procs)
	}
	for _, procs := range p.Procs {
		if procs < 1 {
			return nil, fmt.Errorf("experiments: scaling procs %d, want >= 1", procs)
		}
	}
	res := &ScalingResult{Params: p}
	for _, n := range p.Nodes {
		flows := (n*p.FlowsPerK + 999) / 1000
		if flows < 1 {
			flows = 1
		}
		var ref *ScalingCell
		for _, procs := range p.Procs {
			cell, err := runScalingCell(p, n, flows, procs)
			if err != nil {
				return nil, err
			}
			if ref == nil {
				ref = &cell
			} else if cell.TotalJ != ref.TotalJ || cell.SimSeconds != ref.SimSeconds {
				return nil, fmt.Errorf(
					"experiments: scaling rung n=%d diverged across procs: procs=%d got (%.6g J, %v s), procs=%d got (%.6g J, %v s)",
					n, cell.Procs, cell.TotalJ, cell.SimSeconds, ref.Procs, ref.TotalJ, ref.SimSeconds)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// runScalingCell builds and runs one rung under GOMAXPROCS = procs,
// restoring the previous setting when it returns. The world reads the
// setting at construction to size its HELLO round workers.
func runScalingCell(p ScalingParams, n, flows, procs int) (ScalingCell, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w, err := netsim.NewScaleWorld(n, flows, p.Seed, p.Horizon)
	if err != nil {
		return ScalingCell{}, err
	}
	start := time.Now()
	r, err := w.Run()
	if err != nil {
		return ScalingCell{}, err
	}
	wall := time.Since(start).Seconds()
	completed := 0
	for _, fo := range r.Flows {
		if fo.Completed {
			completed++
		}
	}
	cell := ScalingCell{
		Nodes:       n,
		Flows:       len(r.Flows),
		Procs:       procs,
		WallSeconds: wall,
		SimSeconds:  float64(r.Duration),
		Completed:   float64(completed) / float64(len(r.Flows)),
		TotalJ:      r.Energy.Total(),
	}
	if wall > 0 {
		cell.NodeSimPerWall = float64(n) * cell.SimSeconds / wall
	}
	return cell, nil
}
