package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenarioJSON fuzzes the scenario loader: arbitrary input must
// never panic — it either parses into a scenario that compiles to a
// valid world config (so Build cannot reject its model fields) or yields
// an error. The example scenarios shipped in the repo seed the corpus.
func FuzzScenarioJSON(f *testing.F) {
	for _, name := range []string{"chain.json", "lifetime.json", "mobility.json"} {
		if data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name)); err == nil {
			f.Add(string(data))
		}
	}
	f.Add(`{}`)
	f.Add(`{"name":"x","flows":[{"src":0,"dst":1,"length_kb":1}],"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":1,"joules":1}]}`)
	f.Add(`{"random_nodes":{"count":5,"field_w":100,"field_h":100,"energy_lo":1,"energy_hi":2},"flows":[{"src":0,"dst":4,"length_kb":8}]}`)
	f.Add(`{"flows":[{"src":-1,"dst":99,"length_kb":-3}]}`)
	f.Add(`not json at all`)
	f.Add(`{"nodes":[{"x":1e999}]}`)
	f.Add(`{"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":1,"joules":1}],"flows":[{"src":0,"dst":1,"length_kb":1}],` +
		`"faults":{"loss_p":0.1,"mean_burst":4,"seed":7,"retry_limit":3,"retry_timeout_s":0.5,"route_repair":true,` +
		`"crashes":[{"node":1,"at_s":5,"recover_at_s":10}]}}`)
	f.Add(`{"faults":{"loss_p":1.5}}`)
	f.Add(`{"faults":{"loss_p":0.1,"retry_limit":3}}`)
	f.Add(`{"faults":{"crashes":[{"node":-1,"at_s":-2,"recover_at_s":1}]}}`)
	for _, seed := range jobSpecSeeds {
		f.Add(seed)
	}
	for _, seed := range motionSpecSeeds {
		f.Add(seed)
	}
	for _, seed := range strategySpecSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		s, err := Load(strings.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("error %v returned alongside a scenario", err)
			}
			return
		}
		// A scenario Load accepted must compile to a world config.
		if _, err := s.config(); err != nil {
			t.Fatalf("Load accepted a scenario that does not compile: %v\ninput: %s", err, data)
		}
	})
}

// jobSpecSeeds exercises the service job-spec fields (seed, trials,
// output options) that ride on the scenario document, both the valid
// shapes the daemon accepts and the invalid ones Validate must refuse.
var jobSpecSeeds = []string{
	`{"seed":42,"trials":3,"random_nodes":{"count":8,"field_w":300,"field_h":300,"energy_lo":100,"energy_hi":200},` +
		`"flows":[{"src":0,"dst":7,"length_kb":4}]}`,
	`{"trials":1,"output":{"trace":true,"sample_interval_s":5},` +
		`"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"trials":-4,"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"trials":1000001,"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"trials":2,"output":{"trace":true},"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":0,"joules":1}],` +
		`"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"output":{"sample_interval_s":-0.5}}`,
	`{"output":{}}`,
}

// motionSpecSeeds exercises the ambient-mobility "motion" spec: the
// three non-trivial models with their knobs, field defaulting from
// random_nodes, and the invalid shapes Validate must refuse.
var motionSpecSeeds = []string{
	`{"random_nodes":{"count":10,"field_w":500,"field_h":500,"energy_lo":100,"energy_hi":200},` +
		`"flows":[{"src":0,"dst":9,"length_kb":4}],` +
		`"motion":{"model":"random-waypoint","seed":3,"interval_s":2,"speed_lo":1,"speed_hi":4,"pause_s":5}}`,
	`{"random_nodes":{"count":10,"field_w":500,"field_h":500,"energy_lo":100,"energy_hi":200},` +
		`"flows":[{"src":0,"dst":9,"length_kb":4}],` +
		`"motion":{"model":"gauss-markov","alpha":0.9,"charge_energy":true}}`,
	`{"random_nodes":{"count":12,"field_w":600,"field_h":400,"energy_lo":100,"energy_hi":200},` +
		`"flows":[{"src":0,"dst":11,"length_kb":4}],` +
		`"motion":{"model":"rpgm","groups":3,"radius_m":80}}`,
	`{"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}],` +
		`"motion":{"model":"random-waypoint","field_w":200,"field_h":200}}`,
	`{"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}],` +
		`"motion":{"model":"stationary"}}`,
	// Invalid: non-stationary model with no field to default from.
	`{"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}],` +
		`"motion":{"model":"random-waypoint"}}`,
	`{"motion":{"model":"teleport"}}`,
	`{"motion":{"model":"gauss-markov","alpha":1.5,"field_w":100,"field_h":100}}`,
	`{"motion":{"model":"rpgm","groups":-2}}`,
	`{"motion":{"model":"random-waypoint","speed_lo":5,"speed_hi":1,"field_w":100,"field_h":100}}`,
}

// strategySpecSeeds exercises the structured "strategy" spec: both JSON
// spellings, per-strategy params, and the invalid shapes (unknown keys,
// wrong value types) the loader must refuse without panicking.
var strategySpecSeeds = []string{
	`{"strategy":"max-lifetime","nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],` +
		`"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"strategy":{"name":"min-energy"},"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],` +
		`"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"strategy":{"name":"rolling-horizon","params":{"horizon":12,"discount":0.8,"samples":5}},` +
		`"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"strategy":{"name":"cluster-rotation","params":{"tiers":3}},` +
		`"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"strategy":{"name":"max-lifetime-routing","params":{"exponent":2}},` +
		`"nodes":[{"x":0,"y":0,"joules":10},{"x":50,"y":0,"joules":10}],"flows":[{"src":0,"dst":1,"length_kb":1}]}`,
	`{"strategy":{"name":"rolling-horizon","params":{"warp":9}}}`,
	`{"strategy":{"name":"min-energy","extra":true}}`,
	`{"strategy":{"params":{"tiers":3}}}`,
	`{"strategy":42}`,
	`{"strategy":{"name":["min-energy"]}}`,
	`{"strategy":null}`,
}

// FuzzScenarioFingerprint fuzzes the canonical fingerprint: any input
// Load accepts must fingerprint without panicking, equal scenarios must
// hash equally (the canonical form re-Loads to the same fingerprint —
// the service cache-key contract), and the canonical form must be a
// fixed point of canonicalization.
func FuzzScenarioFingerprint(f *testing.F) {
	f.Add(`{"name":"x","flows":[{"src":0,"dst":1,"length_kb":1}],"nodes":[{"x":0,"y":0,"joules":1},{"x":1,"y":1,"joules":1}]}`)
	f.Add(`{"seed":7,"random_nodes":{"count":5,"field_w":100,"field_h":100,"energy_lo":1,"energy_hi":2},"flows":[{"src":0,"dst":4,"length_kb":8}]}`)
	for _, seed := range jobSpecSeeds {
		f.Add(seed)
	}
	for _, seed := range motionSpecSeeds {
		f.Add(seed)
	}
	for _, seed := range strategySpecSeeds {
		f.Add(seed)
	}
	f.Add(`not json`)
	f.Add("{\"name\":\"\\u0000\\ufffd\"}")
	f.Fuzz(func(t *testing.T, data string) {
		s, err := Load(strings.NewReader(data))
		if err != nil {
			return
		}
		fp, err := s.Fingerprint()
		if err != nil {
			// Load accepted it, so canonicalization must too.
			t.Fatalf("accepted scenario does not fingerprint: %v\ninput: %s", err, data)
		}
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted scenario does not canonicalize: %v", err)
		}
		s2, err := Load(strings.NewReader(string(canon)))
		if err != nil {
			t.Fatalf("canonical form does not re-Load: %v\ncanonical: %s", err, canon)
		}
		fp2, err := s2.Fingerprint()
		if err != nil {
			t.Fatalf("canonical form does not fingerprint: %v", err)
		}
		if fp2 != fp {
			t.Fatalf("equal scenarios hash differently: %s vs %s\ninput: %s\ncanonical: %s", fp, fp2, data, canon)
		}
	})
}
