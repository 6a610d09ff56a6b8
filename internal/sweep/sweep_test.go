package sweep

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestMapOrderAndResults(t *testing.T) {
	got, sw, err := Map(context.Background(), Runner{Concurrency: 4}, 100, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (merge out of trial order)", i, v, i*i)
		}
	}
	if sw.Trials != 100 || sw.Workers != 4 {
		t.Errorf("stats = %+v", sw)
	}
	if sw.TrialsPerSec() <= 0 {
		t.Errorf("throughput %v not positive", sw.TrialsPerSec())
	}
}

func TestMapEmpty(t *testing.T) {
	got, sw, err := Map(context.Background(), Runner{}, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty sweep")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty sweep: %v, %v", got, err)
	}
	if sw.Trials != 0 {
		t.Errorf("stats = %+v", sw)
	}
}

func TestMapWorkerResolution(t *testing.T) {
	tests := []struct {
		concurrency, trials, want int
	}{
		{1, 10, 1},
		{8, 10, 8},
		{8, 3, 3},                        // never more workers than trials
		{0, 1000, runtime.GOMAXPROCS(0)}, // default: all CPUs
		{-1, 1000, runtime.GOMAXPROCS(0)},
	}
	for _, tt := range tests {
		if got := (Runner{Concurrency: tt.concurrency}).workers(tt.trials); got != tt.want {
			t.Errorf("workers(%d trials, concurrency %d) = %d, want %d",
				tt.trials, tt.concurrency, got, tt.want)
		}
	}
}

// TestDeterminismAcrossConcurrency is the engine-level half of the
// determinism contract: a trial function drawing from its derived
// stream returns bit-identical merged results at every worker count.
func TestDeterminismAcrossConcurrency(t *testing.T) {
	const master = 42
	run := func(workers int) []float64 {
		out, _, err := Map(context.Background(), Runner{Concurrency: workers}, 64, func(_ context.Context, trial int) (float64, error) {
			src := stats.NewSourceOf(NewStream(master, uint64(trial)))
			// A few draws of different kinds, like a real trial.
			v := src.Float64() + src.Uniform(10, 20) + float64(src.Intn(1000)) + src.Exp(5)
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("concurrency %d: trial %d = %v, want %v (scheduling leaked into results)",
					workers, i, got[i], serial[i])
			}
		}
	}
}

func TestMapFirstErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		ran := make([]atomic.Bool, 200)
		got, _, err := Map(context.Background(), Runner{Concurrency: workers}, 200, func(_ context.Context, i int) (int, error) {
			ran[i].Store(true)
			if i == 17 || i == 150 {
				return 0, boom
			}
			return i, nil
		})
		if got != nil {
			t.Fatalf("concurrency %d: results returned alongside error", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("concurrency %d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "trial") {
			t.Errorf("error %q does not name the trial", err)
		}
		if workers == 1 {
			// Serial: trial 17 fails first and aborts before 150 runs.
			if err.Error() != "sweep: trial 17: boom" {
				t.Errorf("serial error = %q", err)
			}
			if ran[150].Load() {
				t.Error("serial sweep kept running after first error")
			}
		}
	}
}

// TestMapInterruptedTrialDoesNotMaskFailure runs trial 0 until the sweep
// is canceled: its context.Canceled is a consequence of trial 1's
// failure, so the sweep must report trial 1's error.
func TestMapInterruptedTrialDoesNotMaskFailure(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := Map(context.Background(), Runner{Concurrency: 2}, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, boom) || err.Error() != "sweep: trial 1: boom" {
		t.Fatalf("err = %v, want sweep: trial 1: boom", err)
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	got, _, err := Map(ctx, Runner{Concurrency: 2}, 1000, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 4 {
			cancel()
		}
		// Simulate a trial that notices cancellation mid-flight.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return i, nil
	})
	if got != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: got %v, err %v", got, err)
	}
	if n := started.Load(); n > 20 {
		t.Errorf("%d trials started after cancellation, want a handful", n)
	}
}

func TestMapPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, _, err := Map(ctx, Runner{Concurrency: 4}, 100, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() > 0 {
		t.Errorf("%d trials ran under a pre-canceled context", ran.Load())
	}
}

// TestRaceMapSharedAggregation exercises the engine's only shared state
// (index counter, result slots, error record) under the race detector.
func TestRaceMapSharedAggregation(t *testing.T) {
	var sum atomic.Int64
	got, _, err := Map(context.Background(), Runner{Concurrency: 0}, 500, func(_ context.Context, i int) (int64, error) {
		sum.Add(int64(i))
		return int64(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range got {
		want += v
	}
	if sum.Load() != want {
		t.Fatalf("sum %d != %d", sum.Load(), want)
	}
}

func TestDeriveSeedInjectivePerMaster(t *testing.T) {
	for _, master := range []int64{0, 1, -1, 424242, -1 << 62} {
		seen := make(map[uint64]uint64, 4096)
		for trial := uint64(0); trial < 4096; trial++ {
			s := DeriveSeed(master, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("master %d: trials %d and %d share seed %#x", master, prev, trial, s)
			}
			seen[s] = trial
		}
	}
}

func TestStreamsDiverge(t *testing.T) {
	// Distinct trials must differ in their very first output (mix64 is
	// a bijection), not merely eventually.
	const master = 7
	first := make(map[uint64]uint64, 4096)
	for trial := uint64(0); trial < 4096; trial++ {
		v := NewStream(master, trial).Uint64()
		if prev, dup := first[v]; dup {
			t.Fatalf("trials %d and %d share first output %#x", prev, trial, v)
		}
		first[v] = trial
	}
}

func TestStreamIsReproducible(t *testing.T) {
	a, b := NewStream(3, 9), NewStream(3, 9)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x", i, x, y)
		}
	}
}

func TestStreamInt63NonNegative(t *testing.T) {
	s := NewStream(-5, 3)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}
