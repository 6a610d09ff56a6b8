package experiments

// The trial engine: every Monte-Carlo driver (Figures 6–8, the mobility,
// strategy, recruitment, threshold and multi-flow studies, and the
// ablations built on them) runs its cells through runTrials, so config
// compilation, per-trial seed derivation, checkpoint journaling and sweep
// accounting happen in one place.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/dsweep"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sweep"
)

// runner returns the sweep runner for these parameters.
func (p Params) runner() sweep.Runner {
	return sweep.Runner{Concurrency: p.Concurrency}
}

// sweepManifest derives the checkpoint identity of one cell's sweep: the
// SHA-256 of the cell label plus the canonical (execution-metadata free)
// JSON of the parameters, so a checkpoint can never feed trials from one
// parameterization or cell into another's aggregates.
func (p Params) sweepManifest(cell string) (dsweep.Manifest, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return dsweep.Manifest{}, fmt.Errorf("experiments: fingerprinting params: %w", err)
	}
	sum := sha256.Sum256(append([]byte(cell+"\n"), b...))
	return dsweep.Manifest{
		Fingerprint: hex.EncodeToString(sum[:]),
		Trials:      p.Flows,
		Name:        cell,
	}, nil
}

// runTrials is the trial engine. It compiles p once and sweeps p.Flows
// trials, handing each the config with its fault-injector and
// ambient-motion seeds derived from the trial index, so trials draw
// independent channel and drift streams that never touch the instance
// stream. With p.Checkpoint set, the sweep is journaled through
// dsweep.MapJSON to <cell>.jsonl under that directory: cell names one
// sweep among all those that may share the directory, and every input of
// the trials that is not in p (a panel variant, a fixed flow length)
// belongs in it. The cell's sweep stats are added into total when it is
// non-nil.
func runTrials[T any](ctx context.Context, p Params, cell string, total *metrics.SweepStats, trial func(cfg netsim.Config, trial int) (T, error)) ([]T, error) {
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	var (
		m    dsweep.Manifest
		path string
	)
	if p.Checkpoint != "" {
		if m, err = p.sweepManifest(cell); err != nil {
			return nil, err
		}
		path = filepath.Join(p.Checkpoint, cell+".jsonl")
	}
	rows, sw, err := dsweep.MapJSON(ctx, p.runner(), p.Flows, m, path, p.Resume, func(_ context.Context, i int) (T, error) {
		c := cfg
		if c.Faults != nil {
			fc := *c.Faults
			fc.Seed = int64(sweep.DeriveSeed(fc.Seed, uint64(i)))
			c.Faults = &fc
		}
		if c.Motion.Enabled() {
			mc := *c.Motion
			mc.Seed = int64(sweep.DeriveSeed(mc.Seed, uint64(i)))
			c.Motion = &mc
		}
		return trial(c, i)
	})
	if total != nil {
		total.Trials += sw.Trials
		total.Workers = sw.Workers
		total.Elapsed += sw.Elapsed
	}
	return rows, err
}

// paperModes are the three approaches the paper compares on every
// instance: the no-mobility baseline, cost-unaware and informed mobility.
var paperModes = []netsim.Mode{netsim.ModeNoMobility, netsim.ModeCostUnaware, netsim.ModeInformed}

// runModes executes one instance under each of modes on the sweep's
// config, returning the results in mode order.
func runModes(cfg netsim.Config, inst Instance, modes ...netsim.Mode) ([]netsim.Result, error) {
	out := make([]netsim.Result, len(modes))
	for i, mode := range modes {
		cfg.Mode = mode
		w, err := netsim.NewWorld(cfg, inst.Positions, inst.Energies)
		if err != nil {
			return nil, err
		}
		if _, err := w.AddFlow(netsim.FlowSpec{
			Src: inst.Src, Dst: inst.Dst, LengthBits: inst.FlowBits,
			Path: append([]int(nil), inst.Path...),
		}); err != nil {
			return nil, err
		}
		if out[i], err = w.Run(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// meanOf is the mean of field over rows (0 for no rows), summed in row
// order like stats.Mean so aggregates stay bit-identical.
func meanOf[T any](rows []T, field func(T) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += field(r)
	}
	return sum / float64(len(rows))
}
