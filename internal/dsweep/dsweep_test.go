package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// sweepDoc is the test sweep: a lossy retry/ack chain, so trials differ
// by seed and the merge has real per-trial variance to get wrong.
const sweepDoc = `{
  "name": "dsweep-chain",
  "seed": 11,
  "packet_bytes": 1024,
  "rate_bytes_per_sec": 2048,
  "nodes": [
    {"x": 0, "y": 0, "joules": 5000},
    {"x": 150, "y": 0, "joules": 5000},
    {"x": 300, "y": 0, "joules": 5000}
  ],
  "flows": [{"src": 0, "dst": 2, "length_kb": 16, "path": [0, 1, 2]}],
  "faults": {"loss_p": 0.08, "seed": 3, "retry_limit": 4, "retry_timeout_s": 0.5}
}`

// testSpec loads sweepDoc with the given trial count.
func testSpec(t *testing.T, trials int) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Load(strings.NewReader(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	s.Trials = trials
	return s
}

// serialBytes runs the serial reference and marshals it.
func serialBytes(t *testing.T, spec *scenario.Scenario) []byte {
	t.Helper()
	ref, err := Serial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runBytes runs the coordinator and marshals the merged result.
func runBytes(t *testing.T, c *Coordinator, spec *scenario.Scenario) ([]byte, Stats) {
	t.Helper()
	res, stats, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, stats
}

// newWorkerServer starts an in-process imobif-served-equivalent worker
// and returns an HTTPWorker pointed at it.
func newWorkerServer(t *testing.T) *HTTPWorker {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return &HTTPWorker{Base: ts.URL, PollInterval: 2 * time.Millisecond}
}

func TestCoordinatorLocalMatchesSerial(t *testing.T) {
	spec := testSpec(t, 9)
	want := serialBytes(t, spec)
	c := &Coordinator{Workers: LocalWorkers(3)}
	got, stats := runBytes(t, c, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("3-worker merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
	if stats.Ran != 9 || stats.Resumed != 0 || stats.Trials != 9 {
		t.Errorf("stats = %+v, want 9 ran / 0 resumed / 9 trials", stats)
	}
}

func TestCoordinatorHTTPMatchesSerial(t *testing.T) {
	spec := testSpec(t, 7)
	want := serialBytes(t, spec)
	c := &Coordinator{Workers: []Worker{newWorkerServer(t), newWorkerServer(t), &LocalWorker{}}}
	got, _ := runBytes(t, c, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("mixed HTTP+local merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
}

func TestCoordinatorSingleTrial(t *testing.T) {
	spec := testSpec(t, 0) // 0 and 1 both mean one run under the document seed
	want := serialBytes(t, spec)
	c := &Coordinator{Workers: LocalWorkers(2)}
	got, stats := runBytes(t, c, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("single-trial merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
	if stats.Trials != 1 || stats.Ran != 1 {
		t.Errorf("stats = %+v, want 1 trial / 1 ran", stats)
	}
	if spec.Trials != 0 {
		t.Errorf("coordinator mutated the caller's document (trials = %d)", spec.Trials)
	}
}

func TestCoordinatorResumeRunsOnlyMissing(t *testing.T) {
	spec := testSpec(t, 8)
	want := serialBytes(t, spec)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	// First pass: run 3 trials' worth by canceling after 3 are accounted.
	ctx, cancel := context.WithCancel(context.Background())
	counted := 0
	first := &Coordinator{Workers: onTrial(spec, LocalWorkers(2), func(int) {
		counted++
		if counted == 3 {
			cancel()
		}
	}), Checkpoint: path}
	if _, _, err := first.Run(ctx, spec); err == nil {
		t.Fatal("canceled run reported success")
	}

	m, records, _, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trials != 8 || len(records) < 3 || len(records) >= 8 {
		t.Fatalf("after cancel: %d records of %d trials, want a strict subset >= 3", len(records), m.Trials)
	}

	// Resume: only the missing trials may execute.
	executed := map[int]int{}
	second := &Coordinator{Workers: onTrial(spec, LocalWorkers(3), func(trial int) { executed[trial]++ }), Checkpoint: path, Resume: true}
	got, stats := runBytes(t, second, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
	if stats.Resumed != len(records) || stats.Ran != 8-len(records) {
		t.Errorf("stats = %+v, want %d resumed / %d ran", stats, len(records), 8-len(records))
	}
	for trial := range records {
		if executed[trial] > 0 {
			t.Errorf("resumed trial %d was re-executed", trial)
		}
	}
	for trial, n := range executed {
		if n != 1 {
			t.Errorf("trial %d executed %d times, want exactly once", trial, n)
		}
	}
	if len(executed) != 8-len(records) {
		t.Errorf("executed %d distinct trials, want %d", len(executed), 8-len(records))
	}
}

func TestCoordinatorRefusesStaleCheckpointWithoutResume(t *testing.T) {
	spec := testSpec(t, 2)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c := &Coordinator{Workers: LocalWorkers(1), Checkpoint: path}
	if _, _, err := c.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(context.Background(), spec); err == nil {
		t.Fatal("second run clobbered an existing checkpoint without -resume")
	}
}

func TestCoordinatorResumeRejectsOtherSweep(t *testing.T) {
	spec := testSpec(t, 4)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c := &Coordinator{Workers: LocalWorkers(2), Checkpoint: path}
	if _, _, err := c.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	other := testSpec(t, 4)
	other.Seed = 999 // different fingerprint
	rc := &Coordinator{Workers: LocalWorkers(2), Checkpoint: path, Resume: true}
	if _, _, err := rc.Run(context.Background(), other); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume accepted a checkpoint from a different sweep: %v", err)
	}
}

func TestCoordinatorProgress(t *testing.T) {
	spec := testSpec(t, 5)
	var calls [][2]int
	c := &Coordinator{Workers: LocalWorkers(2), OnProgress: func(done, total int) {
		calls = append(calls, [2]int{done, total})
	}}
	if _, _, err := c.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 {
		t.Fatalf("OnProgress fired %d times, want 5", len(calls))
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != 5 {
			t.Fatalf("OnProgress call %d = %v, want {%d, 5}", i, c, i+1)
		}
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	c := &Coordinator{}
	if _, _, err := c.Run(context.Background(), testSpec(t, 2)); err == nil {
		t.Fatal("coordinator ran with no workers")
	}
}

func TestCoordinatorWorkerErrorWins(t *testing.T) {
	spec := testSpec(t, 6)
	boom := errors.New("boom")
	c := &Coordinator{Workers: []Worker{&LocalWorker{}, failingWorker{err: boom}}}
	_, _, err := c.Run(context.Background(), spec)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "dsweep: trial 1:") {
		t.Fatalf("error %q does not name the failing worker's first trial", err)
	}
}

// TestCoordinatorResumeFailureAndProgress resumes sweeps that fail on a
// known trial: the error must name that trial's index, not its position
// among the trials the resumed run executes, and progress must start
// from the resumed count.
func TestCoordinatorResumeFailureAndProgress(t *testing.T) {
	spec := testSpec(t, 5)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	boom := errors.New("boom")
	failOn := func(trial int) Worker {
		return failTrial{Worker: &LocalWorker{}, seed: trialDoc(spec, trial, 5).Seed, err: boom}
	}

	// Serial first pass: trials 0-2 are checkpointed, trial 3 fails.
	first := &Coordinator{Workers: []Worker{failOn(3)}, Checkpoint: path}
	if _, _, err := first.Run(context.Background(), spec); !errors.Is(err, boom) || !strings.Contains(err.Error(), "dsweep: trial 3:") {
		t.Fatalf("first pass error = %v, want it to name trial 3", err)
	}

	// Resume runs trials 3 and 4 at positions 0 and 1; trial 4 fails.
	var calls [][2]int
	record := func(done, total int) { calls = append(calls, [2]int{done, total}) }
	second := &Coordinator{Workers: []Worker{failOn(4)}, Checkpoint: path, Resume: true, OnProgress: record}
	if _, _, err := second.Run(context.Background(), spec); !errors.Is(err, boom) || !strings.Contains(err.Error(), "dsweep: trial 4:") {
		t.Fatalf("resumed error = %v, want it to name trial 4", err)
	}
	if want := [][2]int{{3, 5}, {4, 5}}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("resumed OnProgress calls = %v, want %v", calls, want)
	}

	calls = nil
	third := &Coordinator{Workers: LocalWorkers(2), Checkpoint: path, Resume: true, OnProgress: record}
	got, stats := runBytes(t, third, spec)
	if want := serialBytes(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("resumed merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
	if stats.Resumed != 4 || stats.Ran != 1 {
		t.Errorf("stats = %+v, want 4 resumed / 1 ran", stats)
	}
	if want := [][2]int{{4, 5}, {5, 5}}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("final OnProgress calls = %v, want %v", calls, want)
	}
}

// TestCoordinatorMotionTrialsDiffer sweeps a multi-trial ambient-motion
// document with explicit nodes, where only the motion stream can tell
// trials apart: each trial must draw its own, so no two runs match once
// their seeds are set aside, and the coordinator must still equal the
// serial reference.
func TestCoordinatorMotionTrialsDiffer(t *testing.T) {
	spec, err := scenario.LoadFile("../../examples/scenarios/motion-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	want := serialBytes(t, spec)
	got, _ := runBytes(t, &Coordinator{Workers: LocalWorkers(2)}, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("motion sweep differs from serial reference:\n got %s\nwant %s", got, want)
	}
	var res serve.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) < 2 {
		t.Fatalf("%d run(s); the document must have several trials", len(res.Runs))
	}
	seen := map[string]int{}
	for i, run := range res.Runs {
		run.Seed = 0
		b, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[string(b)]; dup {
			t.Errorf("trials %d and %d ran identically apart from their seeds", j, i)
		}
		seen[string(b)] = i
	}
}

// failTrial is a Worker that fails the one trial whose derived seed is
// seed and runs every other trial on the embedded Worker.
type failTrial struct {
	Worker
	seed int64
	err  error
}

func (f failTrial) RunTrial(ctx context.Context, doc *scenario.Scenario) (serve.RunResult, error) {
	if doc.Seed == f.seed {
		return serve.RunResult{}, f.err
	}
	return f.Worker.RunTrial(ctx, doc)
}

// onTrial wraps each of ws so fn runs after every trial the worker
// completes, with the trial's index (recovered from its derived seed);
// calls are serialized. The coordinator checkpoints a run once its worker
// returns it, so every trial fn has seen ends up in the checkpoint.
func onTrial(spec *scenario.Scenario, ws []Worker, fn func(trial int)) []Worker {
	trials := max(spec.Trials, 1)
	index := make(map[int64]int, trials)
	for i := 0; i < trials; i++ {
		index[trialDoc(spec, i, trials).Seed] = i
	}
	var mu sync.Mutex
	out := make([]Worker, len(ws))
	for i, w := range ws {
		out[i] = hookWorker{Worker: w, after: func(doc *scenario.Scenario) {
			mu.Lock()
			defer mu.Unlock()
			fn(index[doc.Seed])
		}}
	}
	return out
}

// hookWorker is a Worker that calls after once each trial it runs
// succeeds, before handing the run back.
type hookWorker struct {
	Worker
	after func(doc *scenario.Scenario)
}

func (h hookWorker) RunTrial(ctx context.Context, doc *scenario.Scenario) (serve.RunResult, error) {
	run, err := h.Worker.RunTrial(ctx, doc)
	if err == nil {
		h.after(doc)
	}
	return run, err
}

// failingWorker fails every trial.
type failingWorker struct{ err error }

func (f failingWorker) RunTrial(context.Context, *scenario.Scenario) (serve.RunResult, error) {
	return serve.RunResult{}, f.err
}
func (f failingWorker) Name() string { return "failing" }

func TestStatsString(t *testing.T) {
	s := Stats{Trials: 10, Resumed: 4, Ran: 6, Workers: 3, Elapsed: 2 * time.Second}
	got := s.String()
	want := "10 trial(s) (4 resumed, 6 run) on 3 worker(s) in 2s (3.0 trials/s)"
	if got != want {
		t.Fatalf("Stats.String() = %q, want %q", got, want)
	}
}

func TestParseWorkers(t *testing.T) {
	ws, err := ParseWorkers("local:2, http://h1:8080, https://h2/,local:1")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range ws {
		names = append(names, w.Name())
	}
	want := "local:0 local:1 http://h1:8080 https://h2 local:0"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("ParseWorkers = %q, want %q", got, want)
	}
	for _, bad := range []string{"", "  ,  ", "local:0", "local:x", "ftp://h", "h1:8080"} {
		if _, err := ParseWorkers(bad); err == nil {
			t.Errorf("ParseWorkers(%q) accepted a bad spec", bad)
		}
	}
}

func TestMapJSONResumeMatchesPlain(t *testing.T) {
	fn := func(ctx context.Context, trial int) (float64, error) {
		return float64(sweep.DeriveSeed(42, uint64(trial))%1000) / 7, nil
	}
	const trials = 20
	plain, _, err := sweep.Map(context.Background(), sweep.Runner{Concurrency: 2}, trials, fn)
	if err != nil {
		t.Fatal(err)
	}
	m := Manifest{Fingerprint: "map-json-test", Trials: trials}
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	// Interrupt a first pass partway through.
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, _, err = MapJSON(ctx, sweep.Runner{Concurrency: 1}, trials, m, path, false,
		func(ctx context.Context, trial int) (float64, error) {
			if ran++; ran == 7 {
				cancel()
			}
			return fn(ctx, trial)
		})
	if err == nil {
		t.Fatal("interrupted MapJSON reported success")
	}

	// Resume: counts only missing trials, results identical to plain Map.
	_, records, _, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reran atomic.Int64
	got, stats, err := MapJSON(context.Background(), sweep.Runner{Concurrency: 3}, trials, m, path, true,
		func(ctx context.Context, trial int) (float64, error) {
			reran.Add(1)
			if _, dup := records[trial]; dup {
				t.Errorf("resumed trial %d re-executed", trial)
			}
			return fn(ctx, trial)
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(reran.Load()) != trials-len(records) {
		t.Errorf("resume executed %d trials, want %d", reran.Load(), trials-len(records))
	}
	if stats.Trials != trials {
		t.Errorf("stats.Trials = %d, want %d", stats.Trials, trials)
	}
	for i := range plain {
		if got[i] != plain[i] {
			t.Fatalf("results[%d] = %v, want %v", i, got[i], plain[i])
		}
	}
}

func TestMapJSONResumedFailureNamesTrial(t *testing.T) {
	const trials = 10
	m := Manifest{Fingerprint: "map-json-fail", Trials: trials}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	boom := errors.New("boom")
	failAt := func(bad int) func(context.Context, int) (int, error) {
		return func(_ context.Context, trial int) (int, error) {
			if trial == bad {
				return 0, boom
			}
			return trial, nil
		}
	}
	// Serial first pass: trials 0-2 are checkpointed, trial 3 fails.
	_, _, err := MapJSON(context.Background(), sweep.Runner{Concurrency: 1}, trials, m, path, false, failAt(3))
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "dsweep: trial 3:") {
		t.Fatalf("first pass error = %v, want it to name trial 3", err)
	}
	// Resume: trial 6 runs at position 3 among the missing trials, and the
	// error must name the trial, not the position.
	_, _, err = MapJSON(context.Background(), sweep.Runner{Concurrency: 2}, trials, m, path, true, failAt(6))
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "dsweep: trial 6:") {
		t.Fatalf("resumed error = %v, want it to name trial 6", err)
	}
}

func TestMapJSONEmptyPathDegradesToMap(t *testing.T) {
	fn := func(ctx context.Context, trial int) (int, error) { return trial * trial, nil }
	got, _, err := MapJSON(context.Background(), sweep.Runner{}, 5, Manifest{}, "", false, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapJSONTrialsMismatch(t *testing.T) {
	m := Manifest{Fingerprint: "x", Trials: 3}
	_, _, err := MapJSON(context.Background(), sweep.Runner{}, 4, m, filepath.Join(t.TempDir(), "j.jsonl"), false,
		func(ctx context.Context, trial int) (int, error) { return 0, nil })
	if err == nil || !strings.Contains(err.Error(), "manifest trials") {
		t.Fatalf("mismatched manifest accepted: %v", err)
	}
}

// parseFile parses the checkpoint at path.
func parseFile(path string) (Manifest, map[int]json.RawMessage, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, nil, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	return ParseCheckpoint(bytes.NewReader(raw))
}
