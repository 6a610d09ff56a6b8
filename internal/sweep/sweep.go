// Package sweep provides the parallel Monte-Carlo sweep engine used by
// the experiment harness: a worker pool that fans trial indices out over
// goroutines and merges per-trial results back in trial-index order.
//
// Determinism is the design constraint. Every trial derives an
// independent RNG stream from (masterSeed, trialIndex) via SplitMix64,
// so a trial's randomness never depends on which worker ran it or in
// what order trials completed. Combined with the index-ordered merge,
// a sweep's results are bit-identical whether it runs on one goroutine
// or on every core — the golden tests in the experiments package lock
// this contract in.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// gamma is the SplitMix64 stream increment (the odd constant closest to
// 2⁶⁴/φ), as in Java's SplittableRandom.
const gamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer: a bijection on 64-bit values with
// strong avalanche behavior, so consecutive inputs map to uncorrelated
// outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed maps (master, trial) to the seed of the trial's independent
// RNG stream. For a fixed master the mapping is injective in trial
// (gamma is odd and mix64 is a bijection), so distinct trials are
// guaranteed distinct seeds and therefore distinct streams.
func DeriveSeed(master int64, trial uint64) uint64 {
	return mix64(uint64(master) + gamma*(trial+1))
}

// Stream is a SplitMix64 random stream seeded by DeriveSeed. It
// implements math/rand's Source64 with full 64-bit state (math/rand's
// default source truncates its seed mod 2³¹−1, which would let distinct
// derived seeds collapse onto one stream).
type Stream struct {
	state uint64
}

// NewStream returns trial's independent stream under master.
func NewStream(master int64, trial uint64) *Stream {
	return &Stream{state: DeriveSeed(master, trial)}
}

// Uint64 returns the next 64-bit value. Because mix64 is a bijection,
// streams with distinct states also differ in their very first output.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Int63 returns a non-negative 63-bit value (math/rand.Source).
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the stream state (math/rand.Source).
func (s *Stream) Seed(seed int64) { s.state = uint64(seed) }

// Runner configures a sweep.
type Runner struct {
	// Concurrency is the number of worker goroutines: 1 runs trials
	// serially on the calling goroutine's schedule, values above 1 fan
	// out, and values <= 0 use GOMAXPROCS.
	Concurrency int
	// OnProgress, when non-nil, is called after each trial completes
	// successfully with the number of trials done so far and the total.
	// Calls are serialized (never concurrent with each other) and `done`
	// is non-decreasing across them, but completion order is scheduling-
	// dependent, so the callback must not attribute a call to a specific
	// trial index. It runs on worker goroutines and delays trial
	// completion, so it should be fast.
	OnProgress func(done, total int)
}

// workers resolves the effective worker count for n trials.
func (r Runner) workers(n int) int {
	w := r.Concurrency
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, trial) for every trial in [0, trials) on the runner's
// worker pool and returns the results in trial-index order. The trial
// function must derive all randomness from its trial index (see
// DeriveSeed) and must not share mutable state across trials.
//
// The first trial error cancels the context passed to in-flight trials,
// drains the pool, and is returned wrapped with its trial index; among
// the errors actually observed, the lowest-indexed one wins, not
// counting the context.Canceled errors of trials the cancellation
// interrupted. Canceling ctx aborts the sweep with ctx's error. The
// returned SweepStats carries wall-clock timing regardless of outcome.
func Map[T any](ctx context.Context, r Runner, trials int, fn func(ctx context.Context, trial int) (T, error)) ([]T, metrics.SweepStats, error) {
	start := time.Now()
	stats := metrics.SweepStats{Trials: trials, Workers: r.workers(trials)}
	if trials <= 0 {
		return nil, stats, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Workers claim trial indices from an atomic counter and write into
	// disjoint slots of results, so the only cross-worker coordination
	// is the counter and the first-error record.
	results := make([]T, trials)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		done     int
		firstErr error
		errTrial = -1
		wg       sync.WaitGroup
	)
	progress := func() {
		if r.OnProgress == nil {
			return
		}
		mu.Lock()
		done++
		r.OnProgress(done, trials)
		mu.Unlock()
	}
	fail := func(trial int, err error) {
		mu.Lock()
		if errTrial < 0 || trial < errTrial {
			errTrial, firstErr = trial, err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < stats.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= trials || ctx.Err() != nil {
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					// A cancellation seen after the sweep was canceled is a
					// consequence, not a cause: the failure that canceled
					// it (or ctx's own error) must win, even over a
					// lower-indexed trial it interrupted.
					if !errors.Is(err, context.Canceled) || ctx.Err() == nil {
						fail(i, err)
					}
					return
				}
				results[i] = v
				progress()
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	if firstErr != nil {
		return nil, stats, fmt.Errorf("sweep: trial %d: %w", errTrial, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("sweep: canceled: %w", err)
	}
	return results, stats, nil
}
