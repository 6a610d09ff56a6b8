package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// Golden values of the n5k BenchmarkWorld100k scene (buildScaleWorld),
// captured from the map-backed neighbor tables and grid. The 100-node
// goldens never grow a neighbor table past a handful
// of rows or the grid past a few cells; this scene does, so it pins the
// flat tables and cell table as behavior-neutral at scale. The work
// counts are exact and cannot flake.
const (
	goldenScaleDigest     = "6d7da99dc5a03806"
	goldenScaleBroadcasts = 8417
	goldenScaleDelivered  = 123792
	// goldenScaleRowBuilds counts the neighbor-row builds of the run:
	// the one at NewWorld plus the rebuilds drift forces.
	goldenScaleRowBuilds = 1
	// goldenScaleTables digests every node's final neighbor-table
	// Snapshot (see tableDigest), captured from the per-message HELLO
	// rounds. ModeNoMobility never reads a table, so the Result digest
	// alone would not see a wrong row.
	goldenScaleTables = "30b5b6d2ad3e4b7b"
	// goldenScaleFired counts the scheduler events of the run, captured
	// once ambient motion became one tick event per interval.
	goldenScaleFired = 206
	// goldenScaleScans counts the drift scan's shouldBeacon evaluations.
	// Every node drifts between rounds, so every live node is touched
	// and scanned every round: 5,000 nodes over three rounds.
	goldenScaleScans = 15000
)

// tableDigest hashes every node's neighbor-table Snapshot as of the
// world's current time, in node order: row count, then each row's ID,
// position, residual energy and last-seen time, bit-exact.
func tableDigest(w *World) string {
	h := sha256.New()
	now := w.sched.Now()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, n := range w.nodes {
		rows := n.neighbors.Snapshot(now)
		put(uint64(len(rows)))
		for _, e := range rows {
			put(uint64(e.ID))
			put(math.Float64bits(e.Position.X))
			put(math.Float64bits(e.Position.Y))
			put(math.Float64bits(e.Residual))
			put(math.Float64bits(float64(e.LastSeen)))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestScaleGoldenN5k also pins that the scene's rounds take the
// data-parallel split with more than one worker — by default on any
// multi-core host, forced onto two workers on a single-core one — so the
// golden constants above cover the split.
func TestScaleGoldenN5k(t *testing.T) {
	w := buildScaleWorld(t, 5000, 50)
	if w.round.workers < 2 {
		w.round = roundSplit{workers: 2, minSenders: splitMinSenders, window: splitWindow}
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:8]); got != goldenScaleDigest {
		t.Errorf("result digest %s, want %s", got, goldenScaleDigest)
	}
	if res.Medium.Broadcasts != goldenScaleBroadcasts || res.Medium.Delivered != goldenScaleDelivered {
		t.Errorf("medium broadcasts/delivered = %d/%d, want %d/%d",
			res.Medium.Broadcasts, res.Medium.Delivered, goldenScaleBroadcasts, goldenScaleDelivered)
	}
	if w.rows.builds != goldenScaleRowBuilds {
		t.Errorf("neighbor-row builds = %d, want %d", w.rows.builds, goldenScaleRowBuilds)
	}
	if got := tableDigest(w); got != goldenScaleTables {
		t.Errorf("neighbor-table digest %s, want %s", got, goldenScaleTables)
	}
	if w.beaconScans != goldenScaleScans {
		t.Errorf("beacon scans = %d, want %d", w.beaconScans, goldenScaleScans)
	}
	if w.splitRounds == 0 {
		t.Errorf("no HELLO round took the %d-worker split", w.round.workers)
	}
	// One motion event per node per tick would fire at least nodes ×
	// ticks events; one tick event per interval keeps the whole run's
	// count below the node count.
	if fired := w.sched.Fired(); fired != goldenScaleFired || fired >= uint64(len(w.nodes)) {
		t.Errorf("scheduler fired %d events, want %d (and fewer than the %d nodes)", fired, goldenScaleFired, len(w.nodes))
	}
}
