package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// runJob executes a job's scenario under ctx and returns the wire result
// plus the captured trace bytes (nil unless the scenario set
// output.trace). Trials run sequentially on the calling worker — the
// pool is the source of parallelism — so a canceled job's partial
// result is the deterministic prefix of the full one. Errors mean the
// job failed (bad build, trace write failure); cancellation is not an
// error.
func runJob(ctx context.Context, spec *scenario.Scenario) (*Result, []byte, error) {
	trials := max(spec.Trials, 1)
	runs := []RunResult{}
	var traceBuf bytes.Buffer
	var traceTo io.Writer
	if spec.Output != nil && spec.Output.Trace {
		traceTo = &traceBuf
	}
	canceled := false
	for i := 0; i < trials && !canceled; i++ {
		// Trial 0 runs even when ctx is already canceled: RunContext's
		// precanceled path yields the deterministic initial-state partial
		// result, which is more useful than an empty run list.
		if i > 0 && ctx.Err() != nil {
			canceled = true
			break
		}
		run, err := RunTrial(ctx, TrialSpec(spec, i, trials), traceTo)
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d: %w", i, err)
		}
		runs = append(runs, run)
		canceled = run.Canceled
	}
	out := Merge(spec, runs)
	out.Canceled = canceled
	return out, traceBuf.Bytes(), nil
}

// RunTrial runs one trial document under ctx and converts the run to the
// wire form. It is the one path from a document to a RunResult: the
// service's multi-trial loop and the sweep fabric's local workers
// (internal/dsweep) both call it, so the two execution styles stay
// bit-comparable. The document's output options select the metrics
// sample interval; traceTo, when non-nil, receives the run's JSONL event
// trace. A canceled run is not an error: it comes back with Canceled set,
// holding the deterministic partial state at the stop point.
func RunTrial(ctx context.Context, doc *scenario.Scenario, traceTo io.Writer) (RunResult, error) {
	var opts []scenario.BuildOption
	var jw *trace.JSONLWriter
	if traceTo != nil {
		jw = trace.NewJSONLWriter(traceTo)
		opts = append(opts, scenario.WithSink(jw))
	}
	if doc.Output != nil && doc.Output.SampleIntervalS > 0 {
		opts = append(opts, scenario.WithSampleInterval(doc.Output.SampleIntervalS))
	}
	world, _, err := doc.Build(opts...)
	if err != nil {
		return RunResult{}, err
	}
	res, err := world.RunContext(ctx)
	if err != nil {
		return RunResult{}, err
	}
	if jw != nil {
		if err := jw.Err(); err != nil {
			return RunResult{}, fmt.Errorf("trace export: %w", err)
		}
	}
	return RunResultFrom(doc.Seed, res), nil
}

// Merge aggregates the per-trial runs of spec into its result: Completed
// counts the runs whose every flow completed, MeanTotalJoules averages
// total energy over the runs. It is the one merge — service jobs and the
// sweep fabric's coordinator and serial reference all call it — so a
// distributed sweep marshals to the bytes a single-process service run
// of the same document produces.
func Merge(spec *scenario.Scenario, runs []RunResult) *Result {
	out := &Result{Scenario: spec.Name, Trials: max(spec.Trials, 1), Runs: runs}
	var total float64
	for _, r := range runs {
		total += r.TotalJoules
		completed := len(r.Flows) > 0
		for _, f := range r.Flows {
			completed = completed && f.Completed
		}
		if completed {
			out.Completed++
		}
	}
	if len(runs) > 0 {
		out.MeanTotalJoules = total / float64(len(runs))
	}
	return out
}

// TrialSpec returns the scenario trial i runs: the document itself for
// single-trial jobs, a copy with SplitMix64-derived placement, fault and
// motion seeds for trial i of a multi-trial job (so trials are
// independent yet fully determined by the document). It is exported
// because the distributed sweep fabric (internal/dsweep) must derive
// exactly the same per-trial documents the service's own multi-trial
// path runs — that shared derivation is what makes distributed merges
// byte-identical to a serial run.
func TrialSpec(s *scenario.Scenario, i, trials int) *scenario.Scenario {
	if trials <= 1 {
		return s
	}
	c := *s
	c.Seed = int64(sweep.DeriveSeed(s.Seed, uint64(i)))
	if s.Faults != nil {
		f := *s.Faults
		f.Seed = int64(sweep.DeriveSeed(s.Faults.Seed, uint64(i)))
		c.Faults = &f
	}
	if s.Motion != nil {
		m := *s.Motion
		m.Seed = int64(sweep.DeriveSeed(s.Motion.Seed, uint64(i)))
		c.Motion = &m
	}
	return &c
}

// RunResultFrom maps one netsim run onto the wire form, mirroring the
// public imobif.Result conversion field-for-field. RunTrial converts
// through it; it is exported so the perfbench harness can check served
// results against direct runs.
func RunResultFrom(seed int64, res netsim.Result) RunResult {
	rr := RunResult{
		Seed:          seed,
		Flows:         []FlowResult{},
		TxJoules:      res.Energy.Tx,
		MoveJoules:    res.Energy.Move,
		ControlJoules: res.Energy.Control,
		TotalJoules:   res.Energy.Tx + res.Energy.Move + res.Energy.Control,

		FirstDeathSeconds: float64(res.FirstDeath),
		DurationSeconds:   float64(res.Duration),
		Channel: ChannelStats{
			Unicasts:   res.Medium.Unicasts,
			Broadcasts: res.Medium.Broadcasts,
			Delivered:  res.Medium.Delivered,
			RangeDrops: res.Medium.RangeDrops,
			DeadDrops:  res.Medium.DeadDrops,
			FaultDrops: res.Medium.FaultDrops,
		},
		Transport: TransportStats{
			Retransmits:  res.Transport.Retransmits,
			Acks:         res.Transport.Acks,
			DupAcks:      res.Transport.DupAcks,
			DupData:      res.Transport.DupData,
			LinkBreaks:   res.Transport.LinkBreaks,
			RouteRepairs: res.Transport.RouteRepairs,
		},
		ChannelLossRate: res.Faults.LossRate(),
		Canceled:        res.Canceled,
	}
	for _, f := range res.Flows {
		rr.Flows = append(rr.Flows, FlowResult{
			Completed:       f.Completed,
			DeliveredBytes:  f.DeliveredBits / 8,
			Notifications:   f.Notifications,
			StatusFlips:     f.StatusFlips,
			DurationSeconds: float64(f.Duration),
			LifetimeSeconds: float64(f.Lifetime()),
			PathNodes:       f.PathLen,
			PacketsEmitted:  f.PacketsEmitted,
			PacketsDropped:  f.PacketsDropped,
			DeliveryRatio:   f.DeliveryRatio(),
		})
	}
	if res.Series != nil {
		for _, s := range res.Series.Samples {
			rr.Samples = append(rr.Samples, sampleFrom(s))
		}
	}
	return rr
}

// sampleFrom maps one internal metrics sample onto the wire form.
func sampleFrom(s metrics.Sample) MetricsSample {
	return MetricsSample{
		AtSeconds:     float64(s.At),
		TxJoules:      s.Energy.Tx,
		MoveJoules:    s.Energy.Move,
		ControlJoules: s.Energy.Control,
		RxJoules:      s.Energy.Rx,

		ResidualMinJoules:  s.ResidualMin,
		ResidualMeanJoules: s.ResidualMean,
		AliveNodes:         s.AliveNodes,
		DeliveredPackets:   s.DeliveredPackets,
		DroppedPackets:     s.DroppedPackets,
		Retransmits:        s.Retransmits,
	}
}
