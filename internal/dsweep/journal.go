package dsweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// MapJSON is the fabric's engine: sweep.Map with checkpoint/resume, for
// any JSON-serializable per-trial result. The experiment drivers run
// their figure sweeps through it and the scenario Coordinator runs on
// it, so an interrupted imobif-figures or imobif-sweep run resumes by
// re-running only the missing trials.
//
// m identifies the sweep (the caller fingerprints its parameters into
// m.Fingerprint; m.Trials must equal trials). path is the checkpoint
// file; empty path runs without one. With resume set an existing
// checkpoint is loaded (a missing file starts fresh); without it an
// existing file is an error. Results recovered from the checkpoint pass
// through a JSON round-trip, which is exact for Go's float64 encoding,
// so a resumed sweep's results stay bit-identical to an uninterrupted
// one. r.OnProgress counts the trials that run this time; a resumed
// sweep first reports its starting point with one (0, missing) call. A
// failed trial's error names its real index as "dsweep: trial <n>:".
func MapJSON[T any](ctx context.Context, r sweep.Runner, trials int, m Manifest, path string, resume bool, fn func(ctx context.Context, trial int) (T, error)) ([]T, metrics.SweepStats, error) {
	results, _, stats, err := mapJSON(ctx, r, trials, m, path, resume, func(ctx context.Context, trial, _ int) (T, error) {
		return fn(ctx, trial)
	})
	return results, stats, err
}

// mapJSON is MapJSON that also hands fn each trial's position in the
// list of trials this run executes (the Coordinator stripes workers by
// it) and returns how many trials the checkpoint supplied.
func mapJSON[T any](ctx context.Context, r sweep.Runner, trials int, m Manifest, path string, resume bool, fn func(ctx context.Context, trial, pos int) (T, error)) ([]T, int, metrics.SweepStats, error) {
	var (
		ckpt    *Checkpoint
		resumed map[int]json.RawMessage
		results []T
		err     error
	)
	if path != "" {
		if m.Trials != trials {
			return nil, 0, metrics.SweepStats{}, fmt.Errorf("dsweep: manifest trials %d != sweep trials %d", m.Trials, trials)
		}
		if resume {
			ckpt, resumed, err = OpenCheckpoint(path, m)
		} else {
			ckpt, err = CreateCheckpoint(path, m)
		}
		if err != nil {
			return nil, 0, metrics.SweepStats{}, err
		}
		defer ckpt.Close()
	}
	if len(resumed) > 0 {
		results = make([]T, trials)
		for trial, raw := range resumed {
			if err := json.Unmarshal(raw, &results[trial]); err != nil {
				return nil, 0, metrics.SweepStats{}, fmt.Errorf("dsweep: checkpointed trial %d does not decode: %w", trial, err)
			}
		}
	}
	var missing []int
	for i := 0; i < trials; i++ {
		if _, ok := resumed[i]; !ok {
			missing = append(missing, i)
		}
	}
	if len(resumed) > 0 && r.OnProgress != nil {
		r.OnProgress(0, len(missing))
	}
	// Run only the missing trials; fn sees real trial indices, so its
	// derived randomness is position-independent. Each completed trial is
	// checkpointed before sweep.Map counts it done.
	fresh, stats, err := sweep.Map(ctx, r, len(missing), func(ctx context.Context, pos int) (T, error) {
		trial := missing[pos]
		v, err := fn(ctx, trial, pos)
		if err == nil && ckpt != nil {
			err = ckpt.Append(trial, v)
		}
		if err != nil {
			return v, &trialError{trial: trial, err: err}
		}
		return v, nil
	})
	stats.Trials = trials
	if te := (*trialError)(nil); errors.As(err, &te) {
		return nil, len(resumed), stats, te
	}
	if err != nil {
		return nil, len(resumed), stats, err
	}
	if results == nil {
		// Nothing resumed: positions are trial indices.
		return fresh, 0, stats, nil
	}
	for pos, trial := range missing {
		results[trial] = fresh[pos]
	}
	return results, len(resumed), stats, nil
}

// trialError carries a failed trial's real index through sweep.Map,
// which indexes the trials it runs by their position among the missing
// ones.
type trialError struct {
	trial int
	err   error
}

func (e *trialError) Error() string { return fmt.Sprintf("dsweep: trial %d: %v", e.trial, e.err) }

func (e *trialError) Unwrap() error { return e.err }
