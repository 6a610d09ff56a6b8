package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// The Monte-Carlo drivers accept a checkpoint directory
// (Params.Checkpoint) and journal each sweep cell through the
// distributed-sweep fabric. These tests pin the wiring: checkpointed runs
// are byte-identical to plain runs, and checkpoints never cross cells or
// parameterizations. TestDriversResumeAfterInterrupt (drivers_test.go)
// covers interrupt and resume for every driver.

func TestCheckpointedFig6MatchesPlain(t *testing.T) {
	p := detParams(t, "a")
	p.Concurrency = 2
	plain, err := RunFig6Ctx(context.Background(), p, "a")
	if err != nil {
		t.Fatal(err)
	}
	p.Checkpoint = t.TempDir()
	ckpt, err := RunFig6Ctx(context.Background(), p, "a")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshal(t, plain), marshal(t, ckpt); !bytes.Equal(a, b) {
		t.Fatalf("checkpointed Fig6 differs from plain run:\n%s\nvs\n%s", a, b)
	}
	// Re-running the completed checkpoint with Resume replays it wholesale
	// and still matches.
	p.Resume = true
	replay, err := RunFig6Ctx(context.Background(), p, "a")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshal(t, plain), marshal(t, replay); !bytes.Equal(a, b) {
		t.Fatalf("replayed Fig6 differs from plain run:\n%s\nvs\n%s", a, b)
	}
	if _, err := os.Stat(filepath.Join(p.Checkpoint, "fig6a.jsonl")); err != nil {
		t.Fatalf("per-driver checkpoint file missing: %v", err)
	}
}

func TestCheckpointRejectsChangedParams(t *testing.T) {
	p := detParams(t, "a")
	p.Checkpoint = t.TempDir()
	if _, err := RunFig6Ctx(context.Background(), p, "a"); err != nil {
		t.Fatal(err)
	}
	p.Resume = true
	p.Seed++ // a different sweep entirely
	if _, err := RunFig6Ctx(context.Background(), p, "a"); err == nil {
		t.Fatal("resume accepted a checkpoint from different parameters")
	}
}

func TestSweepManifestSeparatesDrivers(t *testing.T) {
	p := detParams(t, "a")
	a, err := p.sweepManifest("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.sweepManifest("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("different drivers share a checkpoint fingerprint")
	}
	q := p
	q.Seed++
	c, err := q.sweepManifest("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == c.Fingerprint {
		t.Fatal("different seeds share a checkpoint fingerprint")
	}
	q = p
	q.Concurrency = 7
	q.Checkpoint = "/elsewhere"
	q.Resume = true
	d, err := q.sweepManifest("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != d.Fingerprint {
		t.Fatal("execution metadata leaked into the checkpoint fingerprint")
	}
}
