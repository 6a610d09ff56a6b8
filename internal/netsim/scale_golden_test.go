package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// Golden values of the n5k BenchmarkWorld100k scene (buildScaleWorld,
// serial scheduler), captured from the map-backed neighbor tables and
// grid. The 100-node goldens never grow a neighbor table past a handful
// of rows or the grid past a few cells; this scene does, so it pins the
// flat tables and cell table as behavior-neutral at scale. The work
// counts are exact and cannot flake.
const (
	goldenScaleDigest     = "6d7da99dc5a03806"
	goldenScaleBroadcasts = 8417
	goldenScaleDelivered  = 123792
	goldenScaleRefreshes  = 8417
)

func TestScaleGoldenN5k(t *testing.T) {
	w := buildScaleWorld(t, 5000, 50, false, 0)
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
	if w.recvRefreshes != goldenScaleRefreshes {
		t.Errorf("receiver-set refreshes = %d, want %d", w.recvRefreshes, goldenScaleRefreshes)
	}
}
