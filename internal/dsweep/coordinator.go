// Package dsweep is the distributed sweep fabric: it fans the trials of
// a multi-trial scenario document out over workers — in-process pool
// slots or remote imobif-served instances speaking the internal/serve
// HTTP API — with an append-only, fsync'd JSONL checkpoint so a crashed
// or killed sweep resumes by re-running only the missing trials.
//
// There is one engine, MapJSON: sweep.Map plus the checkpoint. The
// experiment drivers journal their figure sweeps through it, and the
// scenario Coordinator runs on it, striping the trials over its
// workers. A trial document becomes a run through serve.RunTrial on a
// local worker or inside the remote service's job, and runs merge
// through serve.Merge, the service's own merge.
//
// The contract is the repo-wide determinism invariant extended across
// processes and crashes: every trial derives its randomness from
// (document seeds, trial index) via serve.TrialSpec, exactly as the
// service's multi-trial path does, so the merged aggregates are
// byte-identical to an uninterrupted serial run no matter how many
// workers ran, which worker ran which trial, how often the sweep
// crashed, or where the checkpoint file was truncated. The
// crash-and-resume test harness in this package proves that contract by
// kill -9ing workers and coordinators mid-sweep and diffing the merged
// bytes against the serial reference.
package dsweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// Coordinator drives one distributed sweep on MapJSON: deterministic
// trial assignment over Workers, per-trial checkpointing, and the final
// index-ordered merge.
type Coordinator struct {
	// Workers are the execution slots; the trial at position p of the
	// list of trials to run goes to Workers[p mod len(Workers)], and up
	// to len(Workers) trials run at once.
	Workers []Worker
	// Checkpoint is the JSONL checkpoint path; empty disables
	// checkpointing (the sweep then only completes or fails whole).
	Checkpoint string
	// Resume allows loading an existing checkpoint at Checkpoint and
	// re-running only the missing trials. Without it an existing
	// checkpoint file is an error, never silently overwritten.
	Resume bool
	// OnProgress, when non-nil, is called after each trial is accounted
	// for (resumed trials included, in one initial call) with the number
	// accounted so far and the total. Calls are serialized.
	OnProgress func(done, total int)
}

// Stats describes one coordinator run for reporting.
type Stats struct {
	// Trials is the sweep's total trial count; Resumed the trials
	// recovered from the checkpoint; Ran the trials executed this run
	// (set when the sweep completes).
	Trials  int
	Resumed int
	Ran     int
	// Workers is the number of execution slots; Elapsed the wall clock of
	// this run (excluding resumed trials' original cost).
	Workers int
	Elapsed time.Duration
}

// String implements fmt.Stringer in the style of metrics.SweepStats.
func (s Stats) String() string {
	rate := 0.0
	if s.Elapsed > 0 {
		rate = float64(s.Ran) / s.Elapsed.Seconds()
	}
	return fmt.Sprintf("%d trial(s) (%d resumed, %d run) on %d worker(s) in %v (%.1f trials/s)",
		s.Trials, s.Resumed, s.Ran, s.Workers, s.Elapsed.Round(time.Millisecond), rate)
}

// Run executes the sweep the scenario document describes and returns the
// merged result — byte-identical (after JSON marshaling) to what
// internal/serve's jobs or this package's Serial produce for the same
// document. The first trial error cancels outstanding work and is
// returned; trials already checkpointed stay durable, so a subsequent
// Run with Resume set re-runs only what is missing.
func (c *Coordinator) Run(ctx context.Context, spec *scenario.Scenario) (*serve.Result, Stats, error) {
	start := time.Now()
	stats := Stats{Workers: len(c.Workers)}
	if len(c.Workers) == 0 {
		return nil, stats, fmt.Errorf("dsweep: no workers")
	}
	if err := spec.Validate(); err != nil {
		return nil, stats, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, stats, err
	}
	trials := max(spec.Trials, 1)
	stats.Trials = trials
	r := sweep.Runner{Concurrency: len(c.Workers)}
	if c.OnProgress != nil {
		// MapJSON counts the trials it runs; add the resumed ones.
		r.OnProgress = func(done, missing int) { c.OnProgress(trials-missing+done, trials) }
	}
	m := Manifest{Fingerprint: fp, Trials: trials, Name: spec.Name}
	runs, resumed, _, err := mapJSON(ctx, r, trials, m, c.Checkpoint, c.Resume, func(ctx context.Context, trial, pos int) (serve.RunResult, error) {
		w := c.Workers[pos%len(c.Workers)]
		run, err := w.RunTrial(ctx, trialDoc(spec, trial, trials))
		if err != nil {
			return run, fmt.Errorf("worker %s: %w", w.Name(), err)
		}
		return run, nil
	})
	stats.Resumed, stats.Elapsed = resumed, time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	stats.Ran = trials - resumed
	return serve.Merge(spec, runs), stats, nil
}

// trialDoc derives the single-trial document trial i of the sweep runs:
// serve.TrialSpec's seed derivation with the trial count cleared, so a
// remote worker runs it once under the derived seeds. The result is
// identical whether the trial executes here, on a remote server, or
// inside serve's own multi-trial loop.
func trialDoc(spec *scenario.Scenario, trial, trials int) *scenario.Scenario {
	doc := serve.TrialSpec(spec, trial, trials)
	if doc == spec {
		// Single-trial sweep: TrialSpec returned the document itself; copy
		// before clearing the trial count.
		cp := *spec
		doc = &cp
	}
	doc.Trials = 0
	return doc
}

// Serial is the reference run: the same document executed trial-by-trial
// on the serial sweep.Runner and merged by serve.Merge. The distributed
// fabric's correctness criterion is byte-identity of json.Marshal'd
// results against this function.
func Serial(ctx context.Context, spec *scenario.Scenario) (*serve.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	trials := max(spec.Trials, 1)
	w := &LocalWorker{}
	runs, _, err := sweep.Map(ctx, sweep.Runner{Concurrency: 1}, trials, func(ctx context.Context, trial int) (serve.RunResult, error) {
		return w.RunTrial(ctx, trialDoc(spec, trial, trials))
	})
	if err != nil {
		return nil, err
	}
	return serve.Merge(spec, runs), nil
}
