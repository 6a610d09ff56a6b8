package scenario

import (
	"strings"
	"testing"
)

const chainScenario = `{
  "name": "chain",
  "nodes": [
    {"x": 0, "y": 0, "joules": 100000},
    {"x": 100, "y": 40, "joules": 100000},
    {"x": 200, "y": 60, "joules": 100000},
    {"x": 300, "y": 40, "joules": 100000},
    {"x": 400, "y": 0, "joules": 100000}
  ],
  "flows": [
    {"src": 0, "dst": 4, "length_kb": 100, "path": [0, 1, 2, 3, 4]}
  ]
}`

func TestLoadAndBuildChain(t *testing.T) {
	s, err := Load(strings.NewReader(chainScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "chain" {
		t.Errorf("name = %q", s.Name)
	}
	// Defaults applied.
	if s.RangeMeters != 200 || s.Strategy.Name != "min-energy" || s.Mode != "informed" {
		t.Errorf("defaults not applied: %+v", s)
	}
	w, flows, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 {
		t.Fatalf("flows = %v", flows)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome().Completed {
		t.Error("scenario flow did not complete")
	}
}

func TestLoadRandomNodes(t *testing.T) {
	js := `{
	  "seed": 5,
	  "random_nodes": {"count": 40, "field_w": 600, "field_h": 600, "energy_lo": 1000, "energy_hi": 2000},
	  "mode": "no-mobility",
	  "flows": [{"src": 0, "dst": 1, "length_kb": 10, "use_aodv": true}]
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := s.Build()
	if err != nil {
		// AODV may legitimately fail if 0 and 1 are partitioned at this
		// seed; that would be a test setup issue rather than a bug.
		t.Fatalf("build: %v", err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadWithFailure(t *testing.T) {
	js := strings.Replace(chainScenario,
		`"flows"`,
		`"failures": [{"node": 2, "at_seconds": 5}], "flows"`, 1)
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDeath != 5 {
		t.Errorf("FirstDeath = %v, want 5", res.FirstDeath)
	}
	if res.Outcome().Completed {
		t.Error("flow should stall at the crashed relay")
	}
}

func TestLoadWithFaults(t *testing.T) {
	js := strings.Replace(chainScenario,
		`"flows"`,
		`"faults": {"loss_p": 0.1, "seed": 3, "retry_limit": 4, "retry_timeout_s": 0.25,
		  "route_repair": true, "crashes": [{"node": 2, "at_s": 5, "recover_at_s": 20}]}, "flows"`, 1)
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults == nil || s.Faults.LossP != 0.1 || s.Faults.RetryLimit != 4 {
		t.Fatalf("faults spec not parsed: %+v", s.Faults)
	}
	w, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Evaluated == 0 {
		t.Error("fault injector never consulted despite loss_p > 0")
	}
	if res.Transport.Acks == 0 {
		t.Error("retry transport never acked despite retry_limit > 0")
	}
	if res.FirstDeath != 5 {
		t.Errorf("FirstDeath = %v, want the scheduled crash at 5", res.FirstDeath)
	}
}

func TestLoadRejectsBadScenarios(t *testing.T) {
	tests := []struct {
		name string
		js   string
	}{
		{"no nodes", `{"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"no flows", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}]}`},
		{"both node specs", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"random_nodes":{"count":5,"field_w":10,"field_h":10,"energy_lo":1,"energy_hi":2},
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"bad endpoint", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":9,"length_kb":1}]}`},
		{"self flow", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":0,"length_kb":1}]}`},
		{"zero length", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":0}]}`},
		{"infinite length in bits", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1e306}]}`},
		{"path node out of range", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1,"path":[0,7,1]}]}`},
		{"path ends off the flow", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1,"path":[1,0]}]}`},
		{"negative node energy", `{"nodes":[{"x":0,"y":0,"joules":-1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"path and aodv", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1,"path":[0,1],"use_aodv":true}]}`},
		{"bad failure node", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"failures":[{"node":7,"at_seconds":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative failure time", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"failures":[{"node":0,"at_seconds":-1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"fault loss out of range", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"faults":{"loss_p":1.5},
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"fault retry without timeout", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"faults":{"retry_limit":3},
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"fault crash node out of range", `{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"faults":{"crashes":[{"node":9,"at_s":1}]},
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"unknown field", `{"bogus": 1, "nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"bad random spec", `{"random_nodes":{"count":1,"field_w":10,"field_h":10,"energy_lo":1,"energy_hi":2},
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"too many random nodes", `{"random_nodes":{"count":100001,"field_w":10,"field_h":10,"energy_lo":1,"energy_hi":2},
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"unknown mode", `{"mode":"warp","nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative tx_a", `{"tx_a":-1,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative range", `{"range_meters":-5,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative max step", `{"max_step_meters":-1,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative estimate scale", `{"estimate_scale":-0.5,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative packet size", `{"packet_bytes":-1024,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"negative mobility cost", `{"mobility_cost_j_per_m":-0.5,"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],
			"flows":[{"src":0,"dst":1,"length_kb":1}]}`},
		{"garbage", `{`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.js)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestBuildRejectsBadMode(t *testing.T) {
	s, err := Load(strings.NewReader(chainScenario))
	if err != nil {
		t.Fatal(err)
	}
	s.Mode = "warp"
	if _, _, err := s.Build(); err == nil {
		t.Error("bad mode should fail at Build")
	}
	s.Mode = "informed"
	s.Strategy = StrategySpec{Name: "bogus"}
	if _, _, err := s.Build(); err == nil {
		t.Error("bad strategy should fail at Build")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path.json"); err == nil {
		t.Error("missing file should error")
	}
}
