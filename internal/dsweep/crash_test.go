package dsweep

// The crash harness proves the fabric's contract the hard way: it kill
// -9s a real worker process and a real coordinator process mid-sweep,
// resumes from the checkpoint left behind, and asserts the merged
// aggregates are byte-identical to the uninterrupted serial reference
// with every trial accounted for exactly once. The worker and
// coordinator subprocesses are this test binary re-exec'd (TestMain
// dispatches on DSWEEP_HELPER), so the processes dying are running the
// real code paths, not mocks.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// TestMain dispatches re-exec'd helper processes; without DSWEEP_HELPER
// it runs the tests normally.
func TestMain(m *testing.M) {
	switch h := os.Getenv("DSWEEP_HELPER"); h {
	case "":
		os.Exit(m.Run())
	case "served":
		helperServed()
	case "coordinator":
		helperCoordinator()
	default:
		fmt.Fprintf(os.Stderr, "unknown DSWEEP_HELPER %q\n", h)
		os.Exit(2)
	}
}

// helperServed is the killable worker process: an imobif-served
// equivalent on a random port, announced on stdout, serving until
// killed.
func helperServed() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("LISTEN http://%s\n", ln.Addr())
	srv := serve.New(serve.Config{Workers: 2})
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperCoordinator is the killable coordinator process: it sweeps the
// shared test document against a local pool, checkpointing to
// DSWEEP_CHECKPOINT, pacing each trial by DSWEEP_PACE_MS so the parent
// can kill it mid-sweep deterministically. On completion it prints the
// merged result and its accounting, which the parent diffs against the
// serial reference.
func helperCoordinator() {
	spec, err := scenario.Load(strings.NewReader(sweepDoc))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Sscan(os.Getenv("DSWEEP_TRIALS"), &spec.Trials)
	var paceMS int
	fmt.Sscan(os.Getenv("DSWEEP_PACE_MS"), &paceMS)
	c := &Coordinator{
		Workers: onTrial(spec, LocalWorkers(2), func(int) {
			time.Sleep(time.Duration(paceMS) * time.Millisecond)
		}),
		Checkpoint: os.Getenv("DSWEEP_CHECKPOINT"),
		Resume:     os.Getenv("DSWEEP_RESUME") == "1",
	}
	res, stats, err := c.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	body, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("STATS ran=%d resumed=%d\n", stats.Ran, stats.Resumed)
	fmt.Printf("RESULT %s\n", body)
	os.Exit(0)
}

// startHelper re-execs the test binary as the named helper with extra
// environment, wiring stdout for the parent to read.
func startHelper(t *testing.T, helper string, env ...string) (*exec.Cmd, *bufio.Reader) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), append(env, "DSWEEP_HELPER="+helper)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd, bufio.NewReader(out)
}

// sigkill delivers SIGKILL — the crash the checkpoint is designed to
// survive: no deferred cleanup, no flush, no goodbye — and reaps the
// process.
func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait()
}

// trialRecordCount counts complete trial records in the checkpoint file
// line-by-line, without ParseCheckpoint's dedup, so duplicate appends
// (double accounting) would be caught. It returns total lines and
// distinct trial indices.
func trialRecordCount(t *testing.T, path string) (total int, distinct map[int]bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	distinct = map[int]bool{}
	for _, ln := range bytes.Split(raw, []byte("\n")) {
		var l struct {
			Kind  string `json:"kind"`
			Trial *int   `json:"trial"`
		}
		if json.Unmarshal(ln, &l) != nil || l.Kind != "trial" || l.Trial == nil {
			continue
		}
		total++
		distinct[*l.Trial] = true
	}
	return total, distinct
}

func TestCrashKilledWorkerThenResume(t *testing.T) {
	const trials = 12
	spec := testSpec(t, trials)
	want := serialBytes(t, spec)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	cmd, out := startHelper(t, "served")
	line, err := out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "LISTEN ") {
		t.Fatalf("worker announce: %q, %v", line, err)
	}
	base := strings.TrimSpace(strings.TrimPrefix(line, "LISTEN "))

	// First pass: an HTTP worker backed by the subprocess plus a local
	// slot. After two trials are accounted, kill -9 the worker process
	// mid-sweep; the coordinator must fail (resume is the recovery path,
	// not silent failover), keeping completed trials durable.
	counted := 0
	first := &Coordinator{
		Workers: onTrial(spec, []Worker{&HTTPWorker{Base: base, PollInterval: 2 * time.Millisecond}, &LocalWorker{}}, func(int) {
			if counted++; counted == 2 {
				sigkill(t, cmd)
			}
		}),
		Checkpoint: path,
	}
	if _, _, err := first.Run(context.Background(), spec); err == nil {
		t.Fatal("sweep succeeded although its worker was kill -9'd mid-run")
	}

	_, survived, _, err := parseFile(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after worker kill: %v", err)
	}
	if len(survived) < 2 || len(survived) >= trials {
		t.Fatalf("checkpoint holds %d trials after kill, want a strict subset >= 2", len(survived))
	}

	// Resume on local workers only: byte-identical merge, missing trials
	// executed exactly once, resumed trials not re-executed.
	executed := map[int]int{}
	second := &Coordinator{Workers: onTrial(spec, LocalWorkers(2), func(trial int) { executed[trial]++ }), Checkpoint: path, Resume: true}
	got, stats := runBytes(t, second, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
	if stats.Resumed != len(survived) || stats.Ran != trials-len(survived) {
		t.Errorf("stats = %+v, want %d resumed / %d ran", stats, len(survived), trials-len(survived))
	}
	for trial, n := range executed {
		if n != 1 {
			t.Errorf("trial %d executed %d times on resume", trial, n)
		}
		if _, dup := survived[trial]; dup {
			t.Errorf("resumed trial %d was re-executed", trial)
		}
	}
	total, distinct := trialRecordCount(t, path)
	if total != trials || len(distinct) != trials {
		t.Errorf("final checkpoint has %d records over %d distinct trials, want %d/%d (exactly-once)", total, len(distinct), trials, trials)
	}
}

func TestCrashKilledCoordinatorThenResume(t *testing.T) {
	const trials = 12
	spec := testSpec(t, trials)
	want := serialBytes(t, spec)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	// First pass: a real coordinator process, paced so the parent can
	// kill -9 it mid-sweep with generous margin (25ms per trial => the
	// sweep takes >= 300ms; the kill lands after ~3 records, within
	// ~10ms of observing them).
	cmd, _ := startHelper(t, "coordinator",
		"DSWEEP_CHECKPOINT="+path,
		fmt.Sprintf("DSWEEP_TRIALS=%d", trials),
		"DSWEEP_PACE_MS=25",
	)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("coordinator subprocess made no checkpoint progress")
		}
		if raw, err := os.ReadFile(path); err == nil {
			if _, records, _, perr := ParseCheckpoint(bytes.NewReader(raw)); perr == nil && len(records) >= 3 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	sigkill(t, cmd)

	_, survived, _, err := parseFile(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after coordinator kill: %v", err)
	}
	if len(survived) < 3 || len(survived) >= trials {
		t.Fatalf("checkpoint holds %d trials after kill, want a strict subset >= 3", len(survived))
	}

	// Restart the coordinator (a fresh process) with -resume semantics.
	resumeCmd, out := startHelper(t, "coordinator",
		"DSWEEP_CHECKPOINT="+path,
		fmt.Sprintf("DSWEEP_TRIALS=%d", trials),
		"DSWEEP_RESUME=1",
	)
	var statsLine, resultLine string
	for s := bufio.NewScanner(out); s.Scan(); {
		switch line := s.Text(); {
		case strings.HasPrefix(line, "STATS "):
			statsLine = line
		case strings.HasPrefix(line, "RESULT "):
			resultLine = line
		}
	}
	if err := resumeCmd.Wait(); err != nil {
		t.Fatalf("resumed coordinator failed: %v", err)
	}
	var ran, resumed int
	if _, err := fmt.Sscanf(statsLine, "STATS ran=%d resumed=%d", &ran, &resumed); err != nil {
		t.Fatalf("stats line %q: %v", statsLine, err)
	}
	if resumed != len(survived) || ran != trials-len(survived) {
		t.Errorf("resume accounted ran=%d resumed=%d, want ran=%d resumed=%d", ran, resumed, trials-len(survived), len(survived))
	}
	got := []byte(strings.TrimPrefix(resultLine, "RESULT "))
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed coordinator's merge differs from serial reference:\n got %s\nwant %s", got, want)
	}
	total, distinct := trialRecordCount(t, path)
	if total != trials || len(distinct) != trials {
		t.Errorf("final checkpoint has %d records over %d distinct trials, want %d/%d (exactly-once)", total, len(distinct), trials, trials)
	}
}

func TestCheckpointTruncationSweep(t *testing.T) {
	const trials = 4
	spec := testSpec(t, trials)
	want := serialBytes(t, spec)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	c := &Coordinator{Workers: LocalWorkers(2), Checkpoint: full}
	if got, _ := runBytes(t, c, spec); !bytes.Equal(got, want) {
		t.Fatalf("checkpointed merge differs from serial reference")
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	_, fullRecords, _, err := ParseCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// Every byte offset: the parser must yield a clean prefix (or
	// ErrNoManifest while the manifest line is torn) — never a panic,
	// never a record that differs from the full file's.
	lineStarts := map[int]bool{0: true}
	for off := 1; off <= len(raw); off++ {
		if raw[off-1] == '\n' {
			lineStarts[off] = true
		}
		m, records, validLen, err := ParseCheckpoint(bytes.NewReader(raw[:off]))
		if err != nil {
			if err == ErrNoManifest {
				continue
			}
			t.Fatalf("offset %d: %v (pure truncation must never read as corruption)", off, err)
		}
		if m.Trials != trials || validLen > int64(off) {
			t.Fatalf("offset %d: manifest %+v validLen %d", off, m, validLen)
		}
		for trial, data := range records {
			if !bytes.Equal(data, fullRecords[trial]) {
				t.Fatalf("offset %d: trial %d record differs from the full file's", off, trial)
			}
		}
	}

	// Sampled offsets (every line boundary and a stride through the rest):
	// truncate the file there, resume, and require the merge to be
	// byte-identical with the missing trials executed exactly once.
	offsets := map[int]bool{}
	for off := range lineStarts {
		offsets[off] = true
		if off > 0 {
			offsets[off-1] = true
		}
	}
	for off := 0; off <= len(raw); off += 53 {
		offsets[off] = true
	}
	i := 0
	for off := range offsets {
		path := filepath.Join(dir, fmt.Sprintf("trunc-%d.jsonl", i))
		i++
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		_, before, _, perr := ParseCheckpoint(bytes.NewReader(raw[:off]))
		if perr != nil {
			before = nil // torn manifest: resume starts fresh
		}
		executed := 0
		rc := &Coordinator{Workers: onTrial(spec, LocalWorkers(2), func(int) { executed++ }), Checkpoint: path, Resume: true}
		got, stats := runBytes(t, rc, spec)
		if !bytes.Equal(got, want) {
			t.Fatalf("offset %d: resumed merge differs from serial reference", off)
		}
		if stats.Resumed != len(before) || executed != trials-len(before) {
			t.Fatalf("offset %d: resumed %d / executed %d, want %d / %d", off, stats.Resumed, executed, len(before), trials-len(before))
		}
	}
}
