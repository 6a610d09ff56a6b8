package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/motion"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// activeMotionScene names one TestGoldenActiveMotion world: an ambient
// model, whether drift charges the battery, whether the first death ends
// the run, and whether the channel is lossy (with retries, a relay crash
// and recovery, and route repair).
type activeMotionScene struct {
	model        string
	charge, stop bool
	lossy        bool
}

func (s activeMotionScene) String() string {
	return fmt.Sprintf("%s/charge=%v/stop=%v/lossy=%v", s.model, s.charge, s.stop, s.lossy)
}

// runActiveMotionScene runs the scene's 40-node world with sink attached
// (nil detaches observability) and returns its Result.
func runActiveMotionScene(t *testing.T, s activeMotionScene, sink trace.Sink) Result {
	t.Helper()
	src := stats.NewSource(4040)
	pts := topo.PlaceUniform(src, 40, 600, 600)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(20, 80)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	cfg.Horizon = 400
	cfg.Sink = sink
	cfg.StopOnFirstDeath = s.stop
	cfg.Motion = &motion.Config{
		Model: s.model, Seed: 11, FieldW: 600, FieldH: 600,
		SpeedLo: 0.5, SpeedHi: 2, Radius: 400, ChargeBattery: s.charge,
	}
	if s.lossy {
		cfg.Faults = &fault.Config{
			LossP: 0.1, Seed: 3,
			RetryLimit: 3, RetryTimeout: 0.25,
			RouteRepair: true,
		}
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var relay NodeID = -1
	added := 0
	for j := 1; j < len(pts) && added < 2; j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 4 {
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: j, LengthBits: 2e6}); err != nil {
				t.Fatal(err)
			}
			if relay < 0 {
				relay = path[1]
			}
			added++
		}
	}
	if added == 0 {
		t.Fatal("no routable flow in the active-motion scene")
	}
	if s.lossy {
		if err := w.ScheduleNodeFailure(relay, 60); err != nil {
			t.Fatal(err)
		}
		if err := w.ScheduleNodeRecovery(relay, 150); err != nil {
			t.Fatal(err)
		}
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultDigest is the first eight bytes of the SHA-256 of res's JSON.
func resultDigest(t *testing.T, res Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// goldenActiveMotion pins, per scene, the Result digest and the digest
// of the full trace event stream, captured from the per-node motion
// events. Every ambient step of the scenes runs with a trace attached,
// so the stream pins the exact order of moves, deaths and deliveries.
var goldenActiveMotion = map[string][2]string{
	"gauss-markov/charge=false/stop=false/lossy=false":    {"020442c00b278b99", "46a2372add79bc9f"},
	"gauss-markov/charge=false/stop=false/lossy=true":     {"7791b709a68359c7", "a4142751571d35ec"},
	"gauss-markov/charge=false/stop=true/lossy=false":     {"020442c00b278b99", "46a2372add79bc9f"},
	"gauss-markov/charge=false/stop=true/lossy=true":      {"1eb8d33153d16260", "4f83cbfd2621e9dc"},
	"gauss-markov/charge=true/stop=false/lossy=false":     {"a6e37929f3abfc5b", "5271c54b641ca566"},
	"gauss-markov/charge=true/stop=false/lossy=true":      {"e240c0477c183aeb", "a8137d5f0dcb2efa"},
	"gauss-markov/charge=true/stop=true/lossy=false":      {"5c52fa9289432c7b", "2dccf026ee89baf8"},
	"gauss-markov/charge=true/stop=true/lossy=true":       {"f2fd06036081dde9", "184488c10de60a40"},
	"random-waypoint/charge=false/stop=false/lossy=false": {"790734602b81ca02", "f950ca5a8e7713ff"},
	"random-waypoint/charge=false/stop=false/lossy=true":  {"f8a479fc60bad353", "ca0ecb5586eb5862"},
	"random-waypoint/charge=false/stop=true/lossy=false":  {"790734602b81ca02", "f950ca5a8e7713ff"},
	"random-waypoint/charge=false/stop=true/lossy=true":   {"2cd01063480fe2b2", "fbfb8a34a54ea15c"},
	"random-waypoint/charge=true/stop=false/lossy=false":  {"47f3bc7f5955cb28", "3ad3bf8848e19b05"},
	"random-waypoint/charge=true/stop=false/lossy=true":   {"f31e34ae411aa58b", "16312417cfff32c6"},
	"random-waypoint/charge=true/stop=true/lossy=false":   {"f16787fcfa9c9158", "0181c63c919f0dd4"},
	"random-waypoint/charge=true/stop=true/lossy=true":    {"3c85c103b9595262", "368cdd703c56ee3f"},
	"rpgm/charge=false/stop=false/lossy=false":            {"738e4b8f60a1cba1", "d4f33ee32830fd1d"},
	"rpgm/charge=false/stop=false/lossy=true":             {"a31d66435ee8dd04", "540b4cebb8bd9820"},
	"rpgm/charge=false/stop=true/lossy=false":             {"738e4b8f60a1cba1", "d4f33ee32830fd1d"},
	"rpgm/charge=false/stop=true/lossy=true":              {"5f2c5c1333280e71", "78428a09f4dbc06f"},
	"rpgm/charge=true/stop=false/lossy=false":             {"41ac5bf0ea5f6dbb", "7fd496a8b63fe55e"},
	"rpgm/charge=true/stop=false/lossy=true":              {"f5e8506acede1d88", "c81169064bea9e4e"},
	"rpgm/charge=true/stop=true/lossy=false":              {"928f68c31e172006", "f2a70d66c86ef4f2"},
	"rpgm/charge=true/stop=true/lossy=true":               {"2cc10534d036315a", "b5f764ddb81b3e89"},
}

// TestGoldenActiveMotion pins runs whose nodes actually drift: every
// ambient model, with and without battery-charged drift, with and
// without stop-on-first-death, on a lossless and on a lossy channel with
// a relay crash, recovery and route repair. Each scene's Result must
// also be identical with the sink detached (observability invariance).
func TestGoldenActiveMotion(t *testing.T) {
	for _, model := range []string{motion.ModelRandomWaypoint, motion.ModelGaussMarkov, motion.ModelRPGM} {
		for _, charge := range []bool{false, true} {
			for _, stop := range []bool{false, true} {
				for _, lossy := range []bool{false, true} {
					checkActiveMotionScene(t, activeMotionScene{model: model, charge: charge, stop: stop, lossy: lossy})
				}
			}
		}
	}
}

// checkActiveMotionScene runs one scene traced and untraced against its
// golden digests.
func checkActiveMotionScene(t *testing.T, s activeMotionScene) {
	t.Helper()
	// The trace digest hashes the stream's JSONL encoding.
	h := sha256.New()
	sink := trace.NewJSONLWriter(h)
	traced := runActiveMotionScene(t, s, sink)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	got := [2]string{resultDigest(t, traced), hex.EncodeToString(h.Sum(nil)[:8])}
	if want := goldenActiveMotion[s.String()]; got != want {
		t.Errorf("%s: result/trace digests %s/%s, want %s/%s",
			s, got[0], got[1], want[0], want[1])
		t.Logf("%q: {%q, %q},", s.String(), got[0], got[1])
	}
	if bare := resultDigest(t, runActiveMotionScene(t, s, nil)); bare != got[0] {
		t.Errorf("%s: result digest %s untraced, %s traced", s, bare, got[0])
	}
}
